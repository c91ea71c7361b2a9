//===- tests/interp_test.cpp - Concrete interpreter semantics tests ---------===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The interpreter is the system's semantic ground truth; these tests pin
/// down the LLVM semantics it implements: poison generation and
/// propagation, immediate UB, the byte-addressed memory model, the
/// environment oracle for external calls, and control flow.
///
//===----------------------------------------------------------------------===//

#include "ir/Interpreter.h"
#include "parser/Parser.h"

#include <gtest/gtest.h>

using namespace alive;

namespace {

struct RunResult {
  ExecResult R;
  std::unique_ptr<Module> M;
};

/// Runs @f of \p IR on integer arguments \p Args (widths inferred).
RunResult run(const std::string &IR, const std::vector<int64_t> &Args,
              uint64_t TrialSeed = 0) {
  RunResult Out;
  std::string Err;
  Out.M = parseModule(IR, Err);
  EXPECT_NE(Out.M, nullptr) << Err;
  if (!Out.M)
    return Out;
  Function *F = Out.M->getFunction("f");
  EXPECT_NE(F, nullptr);
  std::vector<ConcVal> CArgs;
  for (unsigned I = 0; I != F->getNumArgs(); ++I) {
    unsigned W = F->getArg(I)->getType()->getIntegerBitWidth();
    CArgs.push_back(ConcVal::scalar(APInt(W, (uint64_t)Args[I], true)));
  }
  ExecOptions Opts;
  Opts.TrialSeed = TrialSeed;
  Memory Mem;
  Interpreter Interp(Mem, Opts);
  Out.R = Interp.run(*F, CArgs);
  return Out;
}

int64_t retInt(const RunResult &RR) {
  EXPECT_EQ(RR.R.Status, ExecStatus::Ok);
  EXPECT_FALSE(RR.R.IsVoid);
  EXPECT_FALSE(RR.R.Ret.lane().Poison);
  return RR.R.Ret.lane().Val.getSExtValue();
}

} // namespace

TEST(InterpTest, BasicArithmetic) {
  EXPECT_EQ(retInt(run("define i32 @f(i32 %x, i32 %y) {\n"
                       "  %a = add i32 %x, %y\n  %b = mul i32 %a, 3\n"
                       "  %c = sub i32 %b, 5\n  ret i32 %c\n}",
                       {7, 9})),
            (7 + 9) * 3 - 5);
}

TEST(InterpTest, DivisionSemantics) {
  EXPECT_EQ(retInt(run("define i32 @f(i32 %x) {\n"
                       "  %a = sdiv i32 %x, -2\n  ret i32 %a\n}",
                       {-7})),
            3);
  // Division by zero is immediate UB.
  auto RR = run("define i32 @f(i32 %x) {\n"
                "  %a = udiv i32 1, %x\n  ret i32 %a\n}",
                {0});
  EXPECT_EQ(RR.R.Status, ExecStatus::UB);
  // Signed overflow on division is UB.
  RR = run("define i8 @f(i8 %x) {\n"
           "  %a = sdiv i8 %x, -1\n  ret i8 %a\n}",
           {-128});
  EXPECT_EQ(RR.R.Status, ExecStatus::UB);
}

TEST(InterpTest, PoisonGeneratingFlags) {
  // nsw overflow produces poison, not UB.
  auto RR = run("define i8 @f(i8 %x) {\n"
                "  %a = add nsw i8 %x, 1\n  ret i8 %a\n}",
                {127});
  ASSERT_EQ(RR.R.Status, ExecStatus::Ok);
  EXPECT_TRUE(RR.R.Ret.lane().Poison);
  // Without nsw: defined wraparound.
  EXPECT_EQ(retInt(run("define i8 @f(i8 %x) {\n"
                       "  %a = add i8 %x, 1\n  ret i8 %a\n}",
                       {127})),
            -128);
}

TEST(InterpTest, OversizedShiftIsPoison) {
  auto RR = run("define i8 @f(i8 %x, i8 %s) {\n"
                "  %a = shl i8 %x, %s\n  ret i8 %a\n}",
                {1, 8});
  ASSERT_EQ(RR.R.Status, ExecStatus::Ok);
  EXPECT_TRUE(RR.R.Ret.lane().Poison);
}

TEST(InterpTest, ExactFlagPoison) {
  auto RR = run("define i8 @f(i8 %x) {\n"
                "  %a = udiv exact i8 %x, 2\n  ret i8 %a\n}",
                {5});
  ASSERT_EQ(RR.R.Status, ExecStatus::Ok);
  EXPECT_TRUE(RR.R.Ret.lane().Poison);
  EXPECT_EQ(retInt(run("define i8 @f(i8 %x) {\n"
                       "  %a = udiv exact i8 %x, 2\n  ret i8 %a\n}",
                       {6})),
            3);
}

TEST(InterpTest, PoisonPropagation) {
  // Poison flows through arithmetic and icmp into select's condition,
  // poisoning the select.
  auto RR = run("define i8 @f(i8 %x) {\n"
                "  %p = add nsw i8 %x, 1\n"      // poison for x=127
                "  %q = mul i8 %p, 0\n"          // still poison
                "  %c = icmp eq i8 %q, 0\n"      // poison
                "  %r = select i1 %c, i8 1, i8 2\n"
                "  ret i8 %r\n}",
                {127});
  ASSERT_EQ(RR.R.Status, ExecStatus::Ok);
  EXPECT_TRUE(RR.R.Ret.lane().Poison);
}

TEST(InterpTest, FreezeStopsPoison) {
  auto RR = run("define i8 @f(i8 %x) {\n"
                "  %p = add nsw i8 %x, 1\n"
                "  %fr = freeze i8 %p\n"
                "  ret i8 %fr\n}",
                {127});
  ASSERT_EQ(RR.R.Status, ExecStatus::Ok);
  EXPECT_FALSE(RR.R.Ret.lane().Poison);
  // Frozen poison resolves to zero (system-wide policy).
  EXPECT_TRUE(RR.R.Ret.lane().Val.isZero());
}

TEST(InterpTest, BranchOnPoisonIsUB) {
  auto RR = run("define i8 @f(i8 %x) {\n"
                "entry:\n"
                "  %p = add nsw i8 %x, 1\n"
                "  %c = icmp eq i8 %p, 0\n"
                "  br i1 %c, label %a, label %b\n"
                "a:\n  ret i8 1\n"
                "b:\n  ret i8 2\n}",
                {127});
  EXPECT_EQ(RR.R.Status, ExecStatus::UB);
}

TEST(InterpTest, SelectOnPoisonIsPoison) {
  auto RR = run("define i8 @f(i8 %x) {\n"
                "  %p = add nsw i8 %x, 1\n"
                "  %c = icmp eq i8 %p, 0\n"
                "  %r = select i1 %c, i8 1, i8 2\n"
                "  ret i8 %r\n}",
                {127});
  ASSERT_EQ(RR.R.Status, ExecStatus::Ok);
  EXPECT_TRUE(RR.R.Ret.lane().Poison);
}

TEST(InterpTest, MemoryRoundTrip) {
  EXPECT_EQ(retInt(run("define i32 @f(i32 %x) {\n"
                       "  %p = alloca i32, align 4\n"
                       "  store i32 %x, ptr %p, align 4\n"
                       "  %v = load i32, ptr %p, align 4\n"
                       "  ret i32 %v\n}",
                       {-123456})),
            -123456);
}

TEST(InterpTest, NullDereferenceIsUB) {
  auto RR = run("define i32 @f(i32 %x) {\n"
                "  %v = load i32, ptr null\n  ret i32 %v\n}",
                {0});
  EXPECT_EQ(RR.R.Status, ExecStatus::UB);
}

TEST(InterpTest, GEPAndByteAddressing) {
  // Store a 32-bit value, read its second byte (little-endian).
  EXPECT_EQ(retInt(run("define i8 @f() {\n"
                       "  %p = alloca i32, align 4\n"
                       "  store i32 305419896, ptr %p, align 4\n" // 0x12345678
                       "  %q = getelementptr i8, ptr %p, i64 1\n"
                       "  %v = load i8, ptr %q\n"
                       "  ret i8 %v\n}",
                       {})),
            0x56);
}

TEST(InterpTest, OutOfBoundsGepLoadIsUB) {
  auto RR = run("define i8 @f() {\n"
                "  %p = alloca i8, align 1\n"
                "  %q = getelementptr i8, ptr %p, i64 100000\n"
                "  %v = load i8, ptr %q\n"
                "  ret i8 %v\n}",
                {});
  EXPECT_EQ(RR.R.Status, ExecStatus::UB);
}

TEST(InterpTest, InboundsGepViolationIsPoison) {
  auto RR = run("define i8 @f() {\n"
                "  %p = alloca i8, align 1\n"
                "  %q = getelementptr inbounds i8, ptr %p, i64 50\n"
                "  %c = icmp eq ptr %q, null\n"
                "  %r = select i1 %c, i8 1, i8 2\n"
                "  ret i8 %r\n}",
                {});
  ASSERT_EQ(RR.R.Status, ExecStatus::Ok);
  EXPECT_TRUE(RR.R.Ret.lane().Poison);
}

TEST(InterpTest, MisalignedAccessIsUB) {
  auto RR = run("define i32 @f() {\n"
                "  %p = alloca i64, align 8\n"
                "  %q = getelementptr i8, ptr %p, i64 1\n"
                "  %v = load i32, ptr %q, align 4\n"
                "  ret i32 %v\n}",
                {});
  EXPECT_EQ(RR.R.Status, ExecStatus::UB);
}

TEST(InterpTest, UninitializedLoadReadsZero) {
  // Undef resolves to zero (documented policy).
  EXPECT_EQ(retInt(run("define i32 @f() {\n"
                       "  %p = alloca i32, align 4\n"
                       "  %v = load i32, ptr %p, align 4\n"
                       "  ret i32 %v\n}",
                       {})),
            0);
}

TEST(InterpTest, PhiAndLoop) {
  // 10 iterations of acc += i.
  EXPECT_EQ(retInt(run(R"(define i32 @f(i32 %n) {
entry:
  br label %head
head:
  %i = phi i32 [ 0, %entry ], [ %inext, %body ]
  %acc = phi i32 [ 0, %entry ], [ %accnext, %body ]
  %done = icmp uge i32 %i, %n
  br i1 %done, label %exit, label %body
body:
  %accnext = add i32 %acc, %i
  %inext = add i32 %i, 1
  br label %head
exit:
  ret i32 %acc
})",
                       {10})),
            45);
}

TEST(InterpTest, InfiniteLoopRunsOutOfFuel) {
  auto RR = run(R"(define i32 @f(i32 %x) {
entry:
  br label %loop
loop:
  br label %loop
})",
                {1});
  EXPECT_EQ(RR.R.Status, ExecStatus::OutOfFuel);
}

TEST(InterpTest, SwitchDispatch) {
  const std::string IR = R"(define i32 @f(i32 %x) {
entry:
  switch i32 %x, label %d [
    i32 1, label %a
    i32 2, label %b
  ]
a:
  ret i32 10
b:
  ret i32 20
d:
  ret i32 30
})";
  EXPECT_EQ(retInt(run(IR, {1})), 10);
  EXPECT_EQ(retInt(run(IR, {2})), 20);
  EXPECT_EQ(retInt(run(IR, {99})), 30);
}

TEST(InterpTest, UnreachableIsUB) {
  auto RR = run("define i32 @f(i32 %x) {\nentry:\n  unreachable\n}", {0});
  EXPECT_EQ(RR.R.Status, ExecStatus::UB);
}

TEST(InterpTest, AssumeSemantics) {
  EXPECT_EQ(retInt(run("define i32 @f(i32 %x) {\n"
                       "  %c = icmp sgt i32 %x, 0\n"
                       "  call void @llvm.assume(i1 %c)\n"
                       "  ret i32 %x\n}",
                       {5})),
            5);
  auto RR = run("define i32 @f(i32 %x) {\n"
                "  %c = icmp sgt i32 %x, 0\n"
                "  call void @llvm.assume(i1 %c)\n"
                "  ret i32 %x\n}",
                {-5});
  EXPECT_EQ(RR.R.Status, ExecStatus::UB);
}

TEST(InterpTest, IntrinsicSemantics) {
  auto check = [](const char *Intr, const char *Ty, int64_t A, int64_t B,
                  int64_t Expected) {
    std::string IR = std::string("define ") + Ty + " @f(" + Ty + " %x, " +
                     Ty + " %y) {\n  %r = call " + Ty + " @" + Intr + "(" +
                     Ty + " %x, " + Ty + " %y)\n  ret " + Ty + " %r\n}";
    EXPECT_EQ(retInt(run(IR, {A, B})), Expected) << Intr;
  };
  check("llvm.smax.i8", "i8", -5, 3, 3);
  check("llvm.smin.i8", "i8", -5, 3, -5);
  check("llvm.umax.i8", "i8", -1, 3, -1); // 255 unsigned
  check("llvm.umin.i8", "i8", -1, 3, 3);
  check("llvm.uadd.sat.i8", "i8", 200, 100, -1);  // saturates to 255
  check("llvm.usub.sat.i8", "i8", 3, 7, 0);
  check("llvm.sadd.sat.i8", "i8", 100, 100, 127);
  check("llvm.ssub.sat.i8", "i8", -100, 100, -128);

  EXPECT_EQ(retInt(run("define i16 @f(i16 %x) {\n"
                       "  %r = call i16 @llvm.bswap.i16(i16 %x)\n"
                       "  ret i16 %r\n}",
                       {0x1234})),
            0x3412);
  EXPECT_EQ(retInt(run("define i8 @f(i8 %x) {\n"
                       "  %r = call i8 @llvm.ctpop.i8(i8 %x)\n"
                       "  ret i8 %r\n}",
                       {-1})),
            8);
  EXPECT_EQ(retInt(run("define i8 @f(i8 %x) {\n"
                       "  %r = call i8 @llvm.ctlz.i8(i8 %x, i1 false)\n"
                       "  ret i8 %r\n}",
                       {1})),
            7);
  // ctlz of 0 with is_zero_poison=true is poison.
  auto RR = run("define i8 @f(i8 %x) {\n"
                "  %r = call i8 @llvm.ctlz.i8(i8 %x, i1 true)\n"
                "  ret i8 %r\n}",
                {0});
  ASSERT_EQ(RR.R.Status, ExecStatus::Ok);
  EXPECT_TRUE(RR.R.Ret.lane().Poison);
  // abs(INT_MIN, true) is poison; abs(INT_MIN, false) wraps.
  RR = run("define i8 @f(i8 %x) {\n"
           "  %r = call i8 @llvm.abs.i8(i8 %x, i1 true)\n  ret i8 %r\n}",
           {-128});
  ASSERT_EQ(RR.R.Status, ExecStatus::Ok);
  EXPECT_TRUE(RR.R.Ret.lane().Poison);
  EXPECT_EQ(retInt(run("define i8 @f(i8 %x) {\n"
                       "  %r = call i8 @llvm.abs.i8(i8 %x, i1 false)\n"
                       "  ret i8 %r\n}",
                       {-128})),
            -128);
  // Funnel shift.
  EXPECT_EQ(retInt(run("define i8 @f(i8 %x, i8 %y) {\n"
                       "  %r = call i8 @llvm.fshl.i8(i8 %x, i8 %y, i8 4)\n"
                       "  ret i8 %r\n}",
                       {0x12, 0x34})) &
                0xFF,
            0x23);
}

TEST(InterpTest, DefinedFunctionCalls) {
  EXPECT_EQ(retInt(run(R"(define i32 @double(i32 %v) {
  %r = shl i32 %v, 1
  ret i32 %r
}

define i32 @f(i32 %x) {
  %a = call i32 @double(i32 %x)
  %b = call i32 @double(i32 %a)
  ret i32 %b
})",
                       {5})),
            20);
}

TEST(InterpTest, ExternalCallOracleIsDeterministic) {
  const std::string IR = R"(declare i32 @mystery(i32)

define i32 @f(i32 %x) {
  %a = call i32 @mystery(i32 %x)
  %b = call i32 @mystery(i32 %x)
  %d = sub i32 %a, %b
  ret i32 %d
})";
  // Same args => same oracle answer within one trial... but @mystery may
  // write memory, so its two calls are sequenced by the call counter and
  // may differ. What must hold: the WHOLE execution is deterministic for
  // a fixed seed.
  auto R1 = run(IR, {3}, /*TrialSeed=*/42);
  auto R2 = run(IR, {3}, /*TrialSeed=*/42);
  ASSERT_EQ(R1.R.Status, ExecStatus::Ok);
  ASSERT_EQ(R2.R.Status, ExecStatus::Ok);
  EXPECT_EQ(R1.R.Ret.lane().Val, R2.R.Ret.lane().Val);
}

TEST(InterpTest, ClobberWritesThroughPointer) {
  // The environment oracle must actually havoc memory reachable from the
  // pointer argument of a may-write external call (@clobber's raison
  // d'etre in the paper's @test9).
  const std::string IR = R"(declare void @clobber(ptr)

define i1 @f() {
  %p = alloca i32, align 4
  store i32 777, ptr %p, align 4
  call void @clobber(ptr %p)
  %v = load i32, ptr %p, align 4
  %c = icmp eq i32 %v, 777
  ret i1 %c
})";
  // For at least some seeds the clobbered value must differ from 777.
  unsigned Changed = 0;
  for (uint64_t Seed = 0; Seed != 8; ++Seed) {
    auto RR = run(IR, {}, Seed);
    ASSERT_EQ(RR.R.Status, ExecStatus::Ok);
    Changed += RR.R.Ret.lane().Val.isZero();
  }
  EXPECT_GT(Changed, 4u);
}

TEST(InterpTest, VectorLanes) {
  std::string Err;
  auto M = parseModule(R"(define i8 @f(<4 x i8> %v) {
  %w = add <4 x i8> %v, <i8 1, i8 2, i8 3, i8 4>
  %r = extractelement <4 x i8> %w, i32 2
  ret i8 %r
})",
                       Err);
  ASSERT_NE(M, nullptr) << Err;
  ConcVal V;
  for (int I = 0; I != 4; ++I)
    V.Lanes.push_back(Lane::of(APInt(8, 10 * I)));
  ExecOptions Opts;
  Memory Mem;
  Interpreter Interp(Mem, Opts);
  ExecResult R = Interp.run(*M->getFunction("f"), {V});
  ASSERT_EQ(R.Status, ExecStatus::Ok);
  EXPECT_EQ(R.Ret.lane().Val.getZExtValue(), 23u); // 20 + 3
}

// An index narrower than the lane count still selects by its unsigned
// value: i1 1 and i2 3 are in range, i2 2 into <2 x i8> is out of range.
TEST(InterpTest, NarrowLaneIndex) {
  std::string Err;
  auto M = parseModule(R"(define i8 @f(<2 x i8> %v, <4 x i8> %u) {
  %a = extractelement <2 x i8> %v, i1 1
  %w = insertelement <2 x i8> %v, i8 7, i1 1
  %b = extractelement <2 x i8> %w, i32 1
  %c = extractelement <4 x i8> %u, i2 3
  %s = add i8 %a, %b
  %r = add i8 %s, %c
  ret i8 %r
}
define i8 @oob(<2 x i8> %v) {
  %r = extractelement <2 x i8> %v, i2 2
  ret i8 %r
})",
                       Err);
  ASSERT_NE(M, nullptr) << Err;
  ConcVal V, U;
  V.Lanes.push_back(Lane::of(APInt(8, 5)));
  V.Lanes.push_back(Lane::of(APInt(8, 9)));
  for (int I = 0; I != 4; ++I)
    U.Lanes.push_back(Lane::of(APInt(8, 10 * I)));
  ExecOptions Opts;
  Memory Mem;
  Interpreter Interp(Mem, Opts);
  ExecResult R = Interp.run(*M->getFunction("f"), {V, U});
  ASSERT_EQ(R.Status, ExecStatus::Ok);
  ASSERT_FALSE(R.Ret.lane().Poison);
  EXPECT_EQ(R.Ret.lane().Val.getZExtValue(), 46u); // 9 + 7 + 30
  R = Interp.run(*M->getFunction("oob"), {V});
  ASSERT_EQ(R.Status, ExecStatus::Ok);
  EXPECT_TRUE(R.Ret.lane().Poison);
}

TEST(InterpTest, ShuffleAndPoisonLanes) {
  std::string Err;
  auto M = parseModule(R"(define i8 @f(<2 x i8> %v) {
  %s = shufflevector <2 x i8> %v, <2 x i8> %v, <2 x i32> <i32 poison, i32 1>
  %a = extractelement <2 x i8> %s, i32 0
  %b = extractelement <2 x i8> %s, i32 1
  %r = or i8 %b, %b
  ret i8 %a
})",
                       Err);
  ASSERT_NE(M, nullptr) << Err;
  ConcVal V;
  V.Lanes.push_back(Lane::of(APInt(8, 5)));
  V.Lanes.push_back(Lane::of(APInt(8, 9)));
  ExecOptions Opts;
  Memory Mem;
  Interpreter Interp(Mem, Opts);
  ExecResult R = Interp.run(*M->getFunction("f"), {V});
  ASSERT_EQ(R.Status, ExecStatus::Ok);
  EXPECT_TRUE(R.Ret.lane().Poison); // lane 0 of the shuffle is poison
}

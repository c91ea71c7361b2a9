//===- tests/tv_test.cpp - Translation validation tests --------------------===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Exercises the Alive2-substitute refinement checker on equivalences,
/// refinements, and miscompilations — including the actual miscompilation
/// from the paper's Figure 1 (Listings 2 vs 3).
///
//===----------------------------------------------------------------------===//

#include "parser/Parser.h"
#include "tv/RefinementChecker.h"

#include <gtest/gtest.h>

using namespace alive;

namespace {

/// Parses a module containing @src and @tgt and checks @tgt against @src.
TVResult check(const std::string &IR, const TVOptions &Opts = TVOptions()) {
  std::string Err;
  auto M = parseModule(IR, Err);
  EXPECT_NE(M, nullptr) << Err;
  if (!M)
    return TVResult();
  Function *Src = M->getFunction("src");
  Function *Tgt = M->getFunction("tgt");
  EXPECT_NE(Src, nullptr);
  EXPECT_NE(Tgt, nullptr);
  return checkRefinement(*Src, *Tgt, Opts);
}

} // namespace

TEST(TVTest, IdenticalFunctionsRefine) {
  TVResult R = check(R"(
define i32 @src(i32 %x) {
  %a = add i32 %x, 1
  ret i32 %a
}
define i32 @tgt(i32 %x) {
  %a = add i32 %x, 1
  ret i32 %a
}
)");
  EXPECT_EQ(R.Verdict, TVVerdict::Correct);
  EXPECT_FALSE(R.UsedConcretePath);
}

TEST(TVTest, AlgebraicEquivalence) {
  TVResult R = check(R"(
define i32 @src(i32 %x) {
  %a = mul i32 %x, 8
  ret i32 %a
}
define i32 @tgt(i32 %x) {
  %a = shl i32 %x, 3
  ret i32 %a
}
)");
  EXPECT_EQ(R.Verdict, TVVerdict::Correct);
}

TEST(TVTest, ValueMismatchDetected) {
  TVResult R = check(R"(
define i32 @src(i32 %x) {
  %a = add i32 %x, 1
  ret i32 %a
}
define i32 @tgt(i32 %x) {
  %a = add i32 %x, 2
  ret i32 %a
}
)");
  ASSERT_EQ(R.Verdict, TVVerdict::Incorrect);
  EXPECT_FALSE(R.Detail.empty());
  ASSERT_EQ(R.CounterExample.size(), 1u);
}

TEST(TVTest, DroppingFlagsIsRefinement) {
  // Removing nsw reduces poison: correct direction.
  TVResult R = check(R"(
define i32 @src(i32 %x) {
  %a = add nsw i32 %x, 1
  ret i32 %a
}
define i32 @tgt(i32 %x) {
  %a = add i32 %x, 1
  ret i32 %a
}
)");
  EXPECT_EQ(R.Verdict, TVVerdict::Correct);
}

TEST(TVTest, AddingFlagsIsNotRefinement) {
  // Adding nsw introduces poison where the source was defined: a bug.
  TVResult R = check(R"(
define i32 @src(i32 %x) {
  %a = add i32 %x, 1
  ret i32 %a
}
define i32 @tgt(i32 %x) {
  %a = add nsw i32 %x, 1
  ret i32 %a
}
)");
  ASSERT_EQ(R.Verdict, TVVerdict::Incorrect);
  // The counterexample must be INT_MAX (the only overflowing input).
  ASSERT_EQ(R.CounterExample.size(), 1u);
  EXPECT_TRUE(R.CounterExample[0].lane().Val.isSignedMaxValue());
}

TEST(TVTest, PoisonIsRefinedByAnything) {
  TVResult R = check(R"(
define i32 @src(i32 %x) {
  ret i32 poison
}
define i32 @tgt(i32 %x) {
  ret i32 5
}
)");
  EXPECT_EQ(R.Verdict, TVVerdict::Correct);
}

TEST(TVTest, IntroducingPoisonIsABug) {
  TVResult R = check(R"(
define i32 @src(i32 %x) {
  ret i32 5
}
define i32 @tgt(i32 %x) {
  ret i32 poison
}
)");
  EXPECT_EQ(R.Verdict, TVVerdict::Incorrect);
}

TEST(TVTest, IntroducingUBIsABug) {
  TVResult R = check(R"(
define i32 @src(i32 %x) {
  ret i32 0
}
define i32 @tgt(i32 %x) {
  %d = udiv i32 5, %x
  %z = mul i32 %d, 0
  ret i32 %z
}
)");
  ASSERT_EQ(R.Verdict, TVVerdict::Incorrect);
  // Counterexample must be x == 0 (the divide-by-zero input).
  ASSERT_EQ(R.CounterExample.size(), 1u);
  EXPECT_TRUE(R.CounterExample[0].lane().Val.isZero());
}

TEST(TVTest, UBInSourceAllowsAnything) {
  TVResult R = check(R"(
define i32 @src(i32 %x) {
  %d = udiv i32 5, 0
  ret i32 %d
}
define i32 @tgt(i32 %x) {
  ret i32 12345
}
)");
  EXPECT_EQ(R.Verdict, TVVerdict::Correct);
}

TEST(TVTest, BranchSelectEquivalence) {
  TVResult R = check(R"(
define i32 @src(i1 %c, i32 %a, i32 %b) {
entry:
  br i1 %c, label %t, label %f
t:
  br label %join
f:
  br label %join
join:
  %r = phi i32 [ %a, %t ], [ %b, %f ]
  ret i32 %r
}
define i32 @tgt(i1 %c, i32 %a, i32 %b) {
  %r = select i1 %c, i32 %a, i32 %b
  ret i32 %r
}
)");
  EXPECT_EQ(R.Verdict, TVVerdict::Correct);
}

TEST(TVTest, SwitchEncoding) {
  TVResult R = check(R"(
define i32 @src(i8 %x) {
entry:
  switch i8 %x, label %d [
    i8 0, label %a
    i8 1, label %b
  ]
a:
  ret i32 10
b:
  ret i32 20
d:
  ret i32 30
}
define i32 @tgt(i8 %x) {
  %is0 = icmp eq i8 %x, 0
  %is1 = icmp eq i8 %x, 1
  %t = select i1 %is1, i32 20, i32 30
  %r = select i1 %is0, i32 10, i32 %t
  ret i32 %r
}
)");
  EXPECT_EQ(R.Verdict, TVVerdict::Correct);
}

TEST(TVTest, PaperFigure1Miscompilation) {
  // Listing 2 (mutated source) vs Listing 3 (InstCombine output, January
  // 2022) — the unsound optimization alive-mutate reported. With inputs
  // x=2, low=1, high=1 the source returns 1 but the target returns 2.
  TVResult R = check(R"(
define i32 @src(i32 %x, i32 %low, i32 %high) {
  %t0 = icmp slt i32 %x, 0
  %t1 = select i1 %t0, i32 %low, i32 %high
  %t2 = icmp ult i32 %x, 65536
  %1 = xor i1 %t2, true
  %r = select i1 %1, i32 %x, i32 %t1
  ret i32 %r
}
define i32 @tgt(i32 %x, i32 %low, i32 %high) {
  %1 = icmp slt i32 %x, 0
  %2 = icmp sgt i32 %x, 65535
  %3 = select i1 %1, i32 %low, i32 %x
  %4 = select i1 %2, i32 %high, i32 %3
  ret i32 %4
}
)");
  ASSERT_EQ(R.Verdict, TVVerdict::Incorrect) << R.Detail;
  // 96 bits of input: the symbolic path finds the model, and the concrete
  // replay that confirms it (rejecting spurious freeze models) is recorded.
  EXPECT_TRUE(R.UsedConcretePath);
  // Three i32 parameters, positions preserved.
  EXPECT_EQ(R.CounterExample.size(), 3u);
}

TEST(TVTest, PaperListing17Miscompilation) {
  // Listing 17: InstCombine assumed (zext a)*(zext a) cannot overflow in
  // i34 and folded the ule-compare to true. Alive2 found %x = 3363831808.
  TVResult R = check(R"(
define i1 @src(i32 %x) {
entry:
  %r = zext i32 %x to i64
  %0 = trunc i64 %r to i34
  %new0 = mul i34 %0, %0
  %last = zext i34 %new0 to i64
  %res = icmp ule i64 %last, 4294967295
  ret i1 %res
}
define i1 @tgt(i32 %x) {
entry:
  ret i1 true
}
)");
  ASSERT_EQ(R.Verdict, TVVerdict::Incorrect) << R.Detail;
  // Any counterexample must actually overflow: x*x >= 2^32 in i34.
  ASSERT_EQ(R.CounterExample.size(), 1u);
  APInt X = R.CounterExample[0].lane().Val.zext(34);
  EXPECT_TRUE((X * X).ugt(APInt(34, 0xFFFFFFFFULL)));
}

TEST(TVTest, NoundefAttributeMatters) {
  // src: noundef param means poison input is UB, so tgt may do anything on
  // poison inputs; the pair is equivalent for non-poison inputs.
  TVResult R = check(R"(
define i32 @src(i32 noundef %x) {
  %f = freeze i32 %x
  ret i32 %f
}
define i32 @tgt(i32 noundef %x) {
  ret i32 %x
}
)");
  EXPECT_EQ(R.Verdict, TVVerdict::Correct) << R.Detail;
}

TEST(TVTest, FreezeNotRemovableWithoutNoundef) {
  // Without noundef, replacing freeze(x) by x is a (subtle) non-refinement
  // when x can be poison. Our checker reports it either as incorrect or —
  // because of the freeze-encoding confirmation step — inconclusive; it
  // must NOT claim refinement was proven.
  TVResult R = check(R"(
define i32 @src(i32 %x) {
  %f = freeze i32 %x
  %r = udiv i32 1, %f
  ret i32 %r
}
define i32 @tgt(i32 %x) {
  %r = udiv i32 1, %x
  ret i32 %r
}
)");
  EXPECT_NE(R.Verdict, TVVerdict::Correct);
}

TEST(TVTest, MemoryRoundTrip) {
  TVResult R = check(R"(
define i32 @src(i32 %x) {
  %p = alloca i32, align 4
  store i32 %x, ptr %p, align 4
  %v = load i32, ptr %p, align 4
  ret i32 %v
}
define i32 @tgt(i32 %x) {
  ret i32 %x
}
)");
  EXPECT_EQ(R.Verdict, TVVerdict::Correct) << R.Detail;
  EXPECT_TRUE(R.UsedConcretePath);
}

TEST(TVTest, MemoryMiscompileDetected) {
  TVResult R = check(R"(
define void @src(ptr %p) {
  store i32 7, ptr %p, align 4
  ret void
}
define void @tgt(ptr %p) {
  store i32 8, ptr %p, align 4
  ret void
}
)");
  ASSERT_EQ(R.Verdict, TVVerdict::Incorrect) << R.Detail;
  EXPECT_NE(R.Detail.find("memory mismatch"), std::string::npos);
}

TEST(TVTest, StoreValueVisibleToCaller) {
  // Dropping a store to a caller-visible pointer is a miscompilation.
  TVResult R = check(R"(
define void @src(ptr %p) {
  store i32 42, ptr %p, align 4
  ret void
}
define void @tgt(ptr %p) {
  ret void
}
)");
  EXPECT_EQ(R.Verdict, TVVerdict::Incorrect);
}

TEST(TVTest, LoopsUseConcretePath) {
  // Sum 0..n-1 over i8 vs the closed form; exhaustively enumerable.
  TVResult R = check(R"(
define i8 @src(i8 %n) {
entry:
  br label %head
head:
  %i = phi i8 [ 0, %entry ], [ %inext, %body ]
  %acc = phi i8 [ 0, %entry ], [ %accnext, %body ]
  %done = icmp uge i8 %i, %n
  br i1 %done, label %exit, label %body
body:
  %accnext = add i8 %acc, %i
  %inext = add i8 %i, 1
  br label %head
exit:
  ret i8 %acc
}
define i8 @tgt(i8 %n) {
  %nm1 = sub i8 %n, 1
  %nhalf = lshr i8 %n, 1
  %mhalf = lshr i8 %nm1, 1
  %even = mul i8 %nhalf, %nm1
  %odd = mul i8 %n, %mhalf
  %bit = and i8 %n, 1
  %isodd = icmp eq i8 %bit, 1
  %r = select i1 %isodd, i8 %odd, i8 %even
  ret i8 %r
}
)");
  EXPECT_TRUE(R.UsedConcretePath);
  // Halve the even factor before multiplying so nothing wraps early:
  // a correct closed form for the i8 sum.
  EXPECT_EQ(R.Verdict, TVVerdict::Correct) << R.Detail;
}

TEST(TVTest, VectorFunctionsUseConcretePath) {
  TVResult R = check(R"(
define <4 x i8> @src(<4 x i8> %v) {
  %r = add <4 x i8> %v, %v
  ret <4 x i8> %r
}
define <4 x i8> @tgt(<4 x i8> %v) {
  %r = mul <4 x i8> %v, <i8 2, i8 2, i8 2, i8 2>
  ret <4 x i8> %r
}
)");
  EXPECT_TRUE(R.UsedConcretePath);
  EXPECT_EQ(R.Verdict, TVVerdict::Correct) << R.Detail;
}

// Narrowing a constant lane index keeps its meaning: lane 1 is lane 1
// whether the index is i32, i2 or i1.
TEST(TVTest, NarrowLaneIndexIsRefinement) {
  for (const char *Ty : {"i1", "i2"}) {
    TVResult R = check(std::string(R"(
define i8 @src(<2 x i8> %v, i8 %x) {
  %w = insertelement <2 x i8> %v, i8 %x, i32 1
  %r = extractelement <2 x i8> %w, i32 1
  ret i8 %r
}
define i8 @tgt(<2 x i8> %v, i8 %x) {
  %w = insertelement <2 x i8> %v, i8 %x, )") +
                       Ty + R"( 1
  %r = extractelement <2 x i8> %w, )" + Ty + R"( 1
  ret i8 %r
}
)");
    EXPECT_TRUE(R.UsedConcretePath) << Ty;
    EXPECT_EQ(R.Verdict, TVVerdict::Correct) << Ty << ": " << R.Detail;
  }
}

TEST(TVTest, SignatureMismatchUnsupported) {
  TVResult R = check(R"(
define i32 @src(i32 %x) {
  ret i32 %x
}
define i64 @tgt(i64 %x) {
  ret i64 %x
}
)");
  EXPECT_EQ(R.Verdict, TVVerdict::Unsupported);
}

TEST(TVTest, SelfRefinement) {
  std::string Err;
  auto M = parseModule(R"(
define i32 @f(i32 %x, i32 %y) {
  %c = icmp slt i32 %x, %y
  %m = select i1 %c, i32 %x, i32 %y
  ret i32 %m
}
)",
                       Err);
  ASSERT_NE(M, nullptr) << Err;
  TVResult R = checkSelfRefinement(*M->getFunction("f"));
  EXPECT_EQ(R.Verdict, TVVerdict::Correct);
}

TEST(TVTest, IntrinsicEquivalences) {
  // smax(x, y) == select(x sgt y, x, y)
  TVResult R = check(R"(
define i8 @src(i8 %x, i8 %y) {
  %m = call i8 @llvm.smax.i8(i8 %x, i8 %y)
  ret i8 %m
}
define i8 @tgt(i8 %x, i8 %y) {
  %c = icmp sgt i8 %x, %y
  %m = select i1 %c, i8 %x, i8 %y
  ret i8 %m
}
)");
  EXPECT_EQ(R.Verdict, TVVerdict::Correct) << R.Detail;

  // usub.sat(x, y) == select(x ult y, 0, x - y)
  R = check(R"(
define i8 @src(i8 %x, i8 %y) {
  %m = call i8 @llvm.usub.sat.i8(i8 %x, i8 %y)
  ret i8 %m
}
define i8 @tgt(i8 %x, i8 %y) {
  %c = icmp ult i8 %x, %y
  %d = sub i8 %x, %y
  %m = select i1 %c, i8 0, i8 %d
  ret i8 %m
}
)");
  EXPECT_EQ(R.Verdict, TVVerdict::Correct) << R.Detail;

  // bswap(bswap(x)) == x
  R = check(R"(
define i32 @src(i32 %x) {
  %a = call i32 @llvm.bswap.i32(i32 %x)
  %b = call i32 @llvm.bswap.i32(i32 %a)
  ret i32 %b
}
define i32 @tgt(i32 %x) {
  ret i32 %x
}
)");
  EXPECT_EQ(R.Verdict, TVVerdict::Correct) << R.Detail;

  // ctpop(x) + ctpop(~x) == width
  R = check(R"(
define i8 @src(i8 %x) {
  %nx = xor i8 %x, -1
  %a = call i8 @llvm.ctpop.i8(i8 %x)
  %b = call i8 @llvm.ctpop.i8(i8 %nx)
  %s = add i8 %a, %b
  ret i8 %s
}
define i8 @tgt(i8 %x) {
  ret i8 8
}
)");
  EXPECT_EQ(R.Verdict, TVVerdict::Correct) << R.Detail;
}

TEST(TVTest, AssumeGuardsRefinement) {
  // Under assume(x != 0), cttz(x, true) == cttz(x, false).
  TVResult R = check(R"(
define i8 @src(i8 %x) {
  %nz = icmp ne i8 %x, 0
  call void @llvm.assume(i1 %nz)
  %t = call i8 @llvm.cttz.i8(i8 %x, i1 true)
  ret i8 %t
}
define i8 @tgt(i8 %x) {
  %nz = icmp ne i8 %x, 0
  call void @llvm.assume(i1 %nz)
  %t = call i8 @llvm.cttz.i8(i8 %x, i1 false)
  ret i8 %t
}
)");
  EXPECT_EQ(R.Verdict, TVVerdict::Correct) << R.Detail;
}

TEST(TVTest, ExternalCallsConcreteOracle) {
  // Identical external calls on both sides agree through the environment
  // oracle; the pair refines.
  TVResult R = check(R"(
declare void @clobber(ptr)

define i32 @src(ptr %p, ptr %q) {
  %a = load i32, ptr %q
  call void @clobber(ptr %p)
  %b = load i32, ptr %q
  %c = sub i32 %a, %b
  ret i32 %c
}
define i32 @tgt(ptr %p, ptr %q) {
  %a = load i32, ptr %q
  call void @clobber(ptr %p)
  %b = load i32, ptr %q
  %c = sub i32 %a, %b
  ret i32 %c
}
)");
  EXPECT_TRUE(R.UsedConcretePath);
  EXPECT_EQ(R.Verdict, TVVerdict::Correct) << R.Detail;
}

TEST(TVTest, ClobberForwardingBugDetected) {
  // Forwarding %a to %b across @clobber(%q) is unsound: the callee may
  // write through the aliasing pointer.
  TVResult R = check(R"(
declare void @clobber(ptr)

define i32 @src(ptr %q) {
  %a = load i32, ptr %q
  call void @clobber(ptr %q)
  %b = load i32, ptr %q
  %c = sub i32 %a, %b
  ret i32 %c
}
define i32 @tgt(ptr %q) {
  %a = load i32, ptr %q
  call void @clobber(ptr %q)
  %c = sub i32 %a, %a
  ret i32 %c
}
)");
  EXPECT_EQ(R.Verdict, TVVerdict::Incorrect) << R.Detail;
}

//===----------------------------------------------------------------------===//
// Edge-case regressions: exhaustive-bits clamp, counterexample structure,
// and vacuous-trial accounting.
//===----------------------------------------------------------------------===//

TEST(TVTest, ExhaustiveBitsBeyondWordWidthFallsBackToSampling) {
  // ExhaustiveBits >= 64 used to compute `1ULL << TotalBits` — undefined
  // behavior at 64 bits and beyond. The trial count must clamp to the
  // sampled path instead (128 bits of input here).
  TVOptions Opts;
  Opts.ExhaustiveBits = 200;
  Opts.ConcreteTrials = 16;
  TVResult R = check(R"(
define <2 x i64> @src(<2 x i64> %v) {
  %a = add <2 x i64> %v, %v
  ret <2 x i64> %a
}
define <2 x i64> @tgt(<2 x i64> %v) {
  %a = shl <2 x i64> %v, <i64 1, i64 1>
  ret <2 x i64> %a
}
)",
                     Opts);
  EXPECT_EQ(R.Verdict, TVVerdict::Correct) << R.Detail;
  EXPECT_NE(R.Detail.find("sampled"), std::string::npos) << R.Detail;
}

TEST(TVTest, CounterexamplePreservesArgumentPositions) {
  // The counterexample used to drop poison and vector arguments, silently
  // shifting the remaining values out of their parameter positions. Every
  // parameter must appear, in order, with its lane structure.
  TVResult R = check(R"(
define i32 @src(i32 %x, <2 x i8> %v, i32 %y) {
  ret i32 %y
}
define i32 @tgt(i32 %x, <2 x i8> %v, i32 %y) {
  %a = add i32 %y, 1
  ret i32 %a
}
)");
  ASSERT_EQ(R.Verdict, TVVerdict::Incorrect) << R.Detail;
  EXPECT_TRUE(R.UsedConcretePath); // the vector parameter forces it
  ASSERT_EQ(R.CounterExample.size(), 3u);
  EXPECT_TRUE(R.CounterExample[0].isScalar());
  EXPECT_EQ(R.CounterExample[1].Lanes.size(), 2u);
  EXPECT_TRUE(R.CounterExample[2].isScalar());
}

TEST(TVTest, AllVacuousTargetTrialsAreInconclusive) {
  // The target never terminates: every trial exhausts its fuel on the
  // target side. The old accounting treated those trials as passing and
  // answered "Correct" — a vacuous truth. It must be Inconclusive.
  TVOptions Opts;
  Opts.ExhaustiveBits = 0; // force sampling: a few trials suffice
  Opts.ConcreteTrials = 8;
  Opts.Fuel = 500;
  TVResult R = check(R"(
define i8 @src(i8 %x) {
  ret i8 0
}
define i8 @tgt(i8 %x) {
entry:
  br label %loop
loop:
  br label %loop
}
)",
                     Opts);
  EXPECT_EQ(R.Verdict, TVVerdict::Inconclusive) << R.Detail;
  EXPECT_NE(R.Detail.find("no trial was decisive"), std::string::npos)
      << R.Detail;
}

TEST(TVTest, PartiallyVacuousTargetIsCorrectButSurfaced) {
  // The target terminates only for small inputs under this fuel budget:
  // the decisive trials prove no violation, but the vacuous remainder must
  // be surfaced in the detail instead of silently counted as passing.
  TVOptions Opts;
  Opts.ExhaustiveBits = 0;
  Opts.ConcreteTrials = 16;
  Opts.Fuel = 100;
  TVResult R = check(R"(
define i8 @src(i8 %x) {
  ret i8 0
}
define i8 @tgt(i8 %x) {
entry:
  br label %loop
loop:
  %i = phi i8 [ %x, %entry ], [ %d, %loop ]
  %d = sub i8 %i, 1
  %c = icmp eq i8 %i, 0
  br i1 %c, label %done, label %loop
done:
  ret i8 0
}
)",
                     Opts);
  EXPECT_EQ(R.Verdict, TVVerdict::Correct) << R.Detail;
  EXPECT_NE(R.Detail.find("vacuous on target"), std::string::npos)
      << R.Detail;
}

// A 30,000-instruction chain sits under the symbolic path's size limit, and
// its poison wire is a 30,000-deep term. Lowering it must not recurse once
// per level, or the default 8 MB stack overflows.
TEST(TVTest, DeepChainChecksSymbolically) {
  std::string IR = "define i1 @src(i1 %x, i1 %y) {\n";
  std::string Prev = "%x";
  for (int I = 0; I != 30000; ++I) {
    std::string Cur = "%v" + std::to_string(I);
    IR += "  " + Cur + " = add i1 " + Prev + ", %y\n";
    Prev = Cur;
  }
  IR += "  ret i1 " + Prev + "\n}\n";
  std::string Err;
  auto Src = parseModule(IR, Err);
  auto Tgt = parseModule(IR, Err);
  ASSERT_TRUE(Src && Tgt) << Err;
  TVResult R = checkRefinement(*Src->getFunction("src"),
                               *Tgt->getFunction("src"));
  EXPECT_EQ(R.Verdict, TVVerdict::Correct) << R.Detail;
  EXPECT_FALSE(R.UsedConcretePath);
}

//===- tests/opt_test.cpp - Optimizer pass tests ----------------------------===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/Verifier.h"
#include "opt/BugInjection.h"
#include "opt/Pass.h"
#include "parser/Parser.h"
#include "parser/Printer.h"
#include "tv/RefinementChecker.h"

#include <gtest/gtest.h>

using namespace alive;

namespace {

/// Parses, runs the pipeline on every function, verifies, and TV-checks the
/// result against the original. Returns the optimized module text.
std::string optimizeChecked(const std::string &IR, const std::string &Passes,
                            TVVerdict Expected = TVVerdict::Correct) {
  std::string Err;
  auto M = parseModule(IR, Err);
  EXPECT_NE(M, nullptr) << Err;
  if (!M)
    return "";
  auto Original = cloneModule(*M);

  PassManager PM;
  EXPECT_TRUE(buildPipeline(Passes, PM, Err)) << Err;
  PM.runToFixpoint(*M);

  std::vector<std::string> VErrs;
  EXPECT_TRUE(verifyModule(*M, VErrs))
      << (VErrs.empty() ? "" : VErrs.front()) << "\n"
      << printModule(*M);

  for (Function *F : Original->functions()) {
    if (F->isDeclaration())
      continue;
    Function *Opt = M->getFunction(F->getName());
    EXPECT_NE(Opt, nullptr);
    if (!Opt)
      continue;
    TVResult R = checkRefinement(*F, *Opt);
    EXPECT_EQ(R.Verdict, Expected)
        << F->getName() << ": " << R.Detail << "\noptimized:\n"
        << printFunction(*Opt);
  }
  return printModule(*M);
}

bool contains(const std::string &Haystack, const std::string &Needle) {
  return Haystack.find(Needle) != std::string::npos;
}

} // namespace

// No ambient bug context is installed: every seeded defect is disabled and
// the optimizer under test is the correct one.
class OptTest : public ::testing::Test {};

TEST_F(OptTest, InstSimplifyIdentities) {
  std::string Out = optimizeChecked(R"(
define i32 @f(i32 %x) {
  %a = add i32 %x, 0
  %b = mul i32 %a, 1
  %c = or i32 %b, 0
  %d = xor i32 %c, 0
  ret i32 %d
}
)",
                                    "instsimplify,dce");
  EXPECT_TRUE(contains(Out, "ret i32 %x")) << Out;
  EXPECT_FALSE(contains(Out, "add")) << Out;
}

TEST_F(OptTest, InstSimplifySelfOperations) {
  std::string Out = optimizeChecked(R"(
define i32 @f(i32 %x) {
  %a = sub i32 %x, %x
  %b = udiv i32 %x, %x
  %c = add i32 %a, %b
  ret i32 %c
}
)",
                                    "instsimplify,constfold,dce");
  EXPECT_TRUE(contains(Out, "ret i32 1")) << Out;
}

TEST_F(OptTest, ConstantFolding) {
  std::string Out = optimizeChecked(R"(
define i32 @f() {
  %a = add i32 3, 4
  %b = mul i32 %a, 10
  %c = sub i32 %b, 20
  ret i32 %c
}
)",
                                    "constfold,dce");
  EXPECT_TRUE(contains(Out, "ret i32 50")) << Out;
}

TEST_F(OptTest, ConstantFoldingRespectsPoisonFlags) {
  // 127 + 1 with nsw folds to poison, not to -128.
  std::string Out = optimizeChecked(R"(
define i8 @f() {
  %a = add nsw i8 127, 1
  ret i8 %a
}
)",
                                    "constfold,dce");
  EXPECT_TRUE(contains(Out, "ret i8 poison")) << Out;
}

TEST_F(OptTest, ConstantFoldingNeverFoldsUB) {
  // udiv by zero constant must NOT fold (it is UB, not poison).
  std::string Out = optimizeChecked(R"(
define i8 @f() {
  %a = udiv i8 1, 0
  ret i8 %a
}
)",
                                    "constfold");
  EXPECT_TRUE(contains(Out, "udiv")) << Out;
}

TEST_F(OptTest, InstCombineMulToShl) {
  std::string Out = optimizeChecked(R"(
define i32 @f(i32 %x) {
  %a = mul nsw i32 %x, 8
  ret i32 %a
}
)",
                                    "instcombine");
  EXPECT_TRUE(contains(Out, "shl nsw i32 %x, 3")) << Out;
}

TEST_F(OptTest, InstCombineUDivURem) {
  std::string Out = optimizeChecked(R"(
define i32 @f(i32 %x) {
  %a = udiv i32 %x, 16
  %b = urem i32 %x, 16
  %c = add i32 %a, %b
  ret i32 %c
}
)",
                                    "instcombine");
  EXPECT_TRUE(contains(Out, "lshr i32 %x, 4")) << Out;
  EXPECT_TRUE(contains(Out, "and i32 %x, 15")) << Out;
}

TEST_F(OptTest, InstCombineDoubleNegation) {
  std::string Out = optimizeChecked(R"(
define i32 @f(i32 %x) {
  %a = xor i32 %x, -1
  %b = xor i32 %a, -1
  ret i32 %b
}
)",
                                    "instcombine,dce");
  EXPECT_TRUE(contains(Out, "ret i32 %x")) << Out;
}

TEST_F(OptTest, InstCombineClampNegatedSelect) {
  // The Figure 1 shape: the xor-negated compare must swap the select arms.
  std::string Out = optimizeChecked(R"(
define i32 @f(i32 %x, i32 %low, i32 %high) {
  %t0 = icmp slt i32 %x, 0
  %t1 = select i1 %t0, i32 %low, i32 %high
  %t2 = icmp ult i32 %x, 65536
  %neg = xor i1 %t2, true
  %r = select i1 %neg, i32 %x, i32 %t1
  ret i32 %r
}
)",
                                    "instcombine,dce");
  EXPECT_FALSE(contains(Out, "xor")) << Out;
}

TEST_F(OptTest, InstCombineZextMulNuwInference) {
  // i8 zext * i8 zext into i16: widths sum to 16 <= 16 -> nuw is sound.
  std::string Out = optimizeChecked(R"(
define i16 @f(i8 %a, i8 %b) {
  %za = zext i8 %a to i16
  %zb = zext i8 %b to i16
  %m = mul i16 %za, %zb
  ret i16 %m
}
)",
                                    "instcombine");
  EXPECT_TRUE(contains(Out, "mul nuw")) << Out;

  // i8 zext * i8 zext into i15 would overflow: no nuw.
  Out = optimizeChecked(R"(
define i15 @f(i8 %a, i8 %b) {
  %za = zext i8 %a to i15
  %zb = zext i8 %b to i15
  %m = mul i15 %za, %zb
  ret i15 %m
}
)",
                        "instcombine");
  EXPECT_FALSE(contains(Out, "mul nuw")) << Out;
}

TEST_F(OptTest, GVNUnifiesDuplicates) {
  std::string Out = optimizeChecked(R"(
define i32 @f(i32 %x, i32 %y) {
  %a = add i32 %x, %y
  %b = add i32 %x, %y
  %c = sub i32 %a, %b
  ret i32 %c
}
)",
                                    "gvn,instsimplify,dce");
  EXPECT_TRUE(contains(Out, "ret i32 0")) << Out;
}

TEST_F(OptTest, GVNCommutativeUnification) {
  std::string Out = optimizeChecked(R"(
define i32 @f(i32 %x, i32 %y) {
  %a = add i32 %x, %y
  %b = add i32 %y, %x
  %c = sub i32 %a, %b
  ret i32 %c
}
)",
                                    "gvn,instsimplify,dce");
  EXPECT_TRUE(contains(Out, "ret i32 0")) << Out;
}

TEST_F(OptTest, GVNIntersectsFlags) {
  // Leader has nsw, duplicate does not: the unified value must NOT keep
  // nsw (Table I 53218, the fix).
  std::string Out = optimizeChecked(R"(
define i32 @f(i32 %x, i32 %y) {
  %a = add nsw i32 %x, %y
  %b = add i32 %x, %y
  %s = add i32 %a, %b
  ret i32 %s
}
)",
                                    "gvn");
  EXPECT_FALSE(contains(Out, "nsw")) << Out;
}

TEST_F(OptTest, DCERemovesDeadCode) {
  std::string Out = optimizeChecked(R"(
define i32 @f(i32 %x) {
  %dead1 = mul i32 %x, 42
  %dead2 = add i32 %dead1, 7
  ret i32 %x
}
)",
                                    "dce");
  EXPECT_FALSE(contains(Out, "mul")) << Out;
  EXPECT_FALSE(contains(Out, "add")) << Out;
}

TEST_F(OptTest, DCEKeepsSideEffects) {
  std::string Out = optimizeChecked(R"(
declare void @ext(ptr)

define void @f(ptr %p) {
  store i32 1, ptr %p
  call void @ext(ptr %p)
  ret void
}
)",
                                    "dce");
  EXPECT_TRUE(contains(Out, "store")) << Out;
  EXPECT_TRUE(contains(Out, "call")) << Out;
}

TEST_F(OptTest, SimplifyCFGFoldsConstantBranch) {
  std::string Out = optimizeChecked(R"(
define i32 @f(i32 %x) {
entry:
  br i1 true, label %a, label %b
a:
  ret i32 1
b:
  ret i32 2
}
)",
                                    "simplifycfg");
  EXPECT_FALSE(contains(Out, "br ")) << Out;
  EXPECT_TRUE(contains(Out, "ret i32 1")) << Out;
}

TEST_F(OptTest, SimplifyCFGMergesBlocksAndPhis) {
  std::string Out = optimizeChecked(R"(
define i32 @f(i1 %c, i32 %x) {
entry:
  br i1 %c, label %t, label %f
t:
  %a = add i32 %x, 1
  br label %join
f:
  %b = add i32 %x, 2
  br label %join
join:
  %p = phi i32 [ %a, %t ], [ %b, %f ]
  ret i32 %p
}
)",
                                    "simplifycfg");
  // Structure preserved here (no constant branch), but a constant branch
  // version collapses fully:
  Out = optimizeChecked(R"(
define i32 @f(i32 %x) {
entry:
  br i1 false, label %t, label %f
t:
  %a = add i32 %x, 1
  br label %join
f:
  %b = add i32 %x, 2
  br label %join
join:
  %p = phi i32 [ %a, %t ], [ %b, %f ]
  ret i32 %p
}
)",
                        "simplifycfg,dce");
  EXPECT_FALSE(contains(Out, "phi")) << Out;
  EXPECT_FALSE(contains(Out, "%a")) << Out;
}

TEST_F(OptTest, SROAPromotesAlloca) {
  std::string Out = optimizeChecked(R"(
define i32 @f(i32 %x) {
  %p = alloca i32, align 4
  store i32 %x, ptr %p, align 4
  %v = load i32, ptr %p, align 4
  ret i32 %v
}
)",
                                    "sroa,dce");
  EXPECT_FALSE(contains(Out, "alloca")) << Out;
  EXPECT_TRUE(contains(Out, "ret i32 %x")) << Out;
}

TEST_F(OptTest, ReassociateFoldsConstantChains) {
  std::string Out = optimizeChecked(R"(
define i32 @f(i32 %x) {
  %a = add i32 %x, 10
  %b = add i32 %a, 20
  ret i32 %b
}
)",
                                    "reassociate,dce");
  EXPECT_TRUE(contains(Out, "add i32 %x, 30")) << Out;
}

TEST_F(OptTest, LoweringRotateMatch) {
  std::string Out = optimizeChecked(R"(
define i32 @f(i32 %x) {
  %hi = shl i32 %x, 5
  %lo = lshr i32 %x, 27
  %r = or i32 %hi, %lo
  ret i32 %r
}
)",
                                    "lowering,dce");
  EXPECT_TRUE(contains(Out, "llvm.fshl.i32")) << Out;
}

TEST_F(OptTest, LoweringMaskedRotateRequiresFullMask) {
  // The mask removes produced bits: NOT a rotate; must stay untouched.
  std::string Out = optimizeChecked(R"(
define i32 @f(i32 %x) {
  %hi = shl i32 %x, 5
  %himask = and i32 %hi, 65504
  %lo = lshr i32 %x, 27
  %r = or i32 %himask, %lo
  ret i32 %r
}
)",
                                    "lowering");
  EXPECT_FALSE(contains(Out, "fshl")) << Out;
}

TEST_F(OptTest, LoweringBSwap16) {
  std::string Out = optimizeChecked(R"(
define i16 @f(i16 %x) {
  %hi = shl i16 %x, 8
  %lo = lshr i16 %x, 8
  %r = or i16 %hi, %lo
  ret i16 %r
}
)",
                                    "lowering,dce");
  EXPECT_TRUE(contains(Out, "llvm.bswap.i16")) << Out;
}

TEST_F(OptTest, LoweringURemRecompose) {
  // i8: the udiv/mul/sub vs urem identity is SAT-provable quickly at narrow
  // widths (at i32 it exceeds the solver budget, like Alive2's worst case).
  std::string Out = optimizeChecked(R"(
define i8 @f(i8 %x, i8 %y) {
  %d = udiv i8 %x, %y
  %m = mul i8 %d, %y
  %r = sub i8 %x, %m
  ret i8 %r
}
)",
                                    "lowering,dce");
  EXPECT_TRUE(contains(Out, "urem i8 %x, %y")) << Out;
}

TEST_F(OptTest, LoweringUSubSatExpansion) {
  std::string Out = optimizeChecked(R"(
define i8 @f(i8 %x, i8 %y) {
  %r = call i8 @llvm.usub.sat.i8(i8 %x, i8 %y)
  ret i8 %r
}
)",
                                    "lowering,dce");
  EXPECT_FALSE(contains(Out, "call i8 @llvm.usub.sat")) << Out;
  EXPECT_TRUE(contains(Out, "select")) << Out;
}

TEST_F(OptTest, LoweringAbsExpansion) {
  std::string Out = optimizeChecked(R"(
define i8 @f(i8 %x) {
  %r = call i8 @llvm.abs.i8(i8 %x, i1 false)
  ret i8 %r
}
)",
                                    "lowering,dce");
  EXPECT_FALSE(contains(Out, "call i8 @llvm.abs")) << Out;
}

TEST_F(OptTest, LoweringZextLshrOfBool) {
  // Listing 18 shape: lshr (zext i1), 1 must fold to 0.
  std::string Out = optimizeChecked(R"(
define i64 @f(i1 %b) {
  %z = zext i1 %b to i64
  %r = lshr i64 %z, 1
  ret i64 %r
}
)",
                                    "lowering,dce");
  EXPECT_TRUE(contains(Out, "ret i64 0")) << Out;
}

TEST_F(OptTest, LoweringComparePromotion) {
  // Listing 19 shape: icmp ugt i8 -31, %1 — after canonicalization the
  // promotion must ZERO-extend the unsigned constant.
  std::string Out = optimizeChecked(R"(
define i32 @f() {
  %1 = sub i8 -66, 0
  %2 = icmp ugt i8 -31, %1
  %3 = select i1 %2, i32 1, i32 0
  ret i32 %3
}
)",
                                    "instcombine,lowering,constfold,"
                                    "instsimplify,dce");
  EXPECT_TRUE(contains(Out, "ret i32 1")) << Out;
}

TEST_F(OptTest, VectorCombineExtractOfInsert) {
  std::string Out = optimizeChecked(R"(
define i32 @f(<4 x i32> %v, i32 %e) {
  %w = insertelement <4 x i32> %v, i32 %e, i32 2
  %r = extractelement <4 x i32> %w, i32 2
  ret i32 %r
}
)",
                                    "vector-combine,dce");
  EXPECT_TRUE(contains(Out, "ret i32 %e")) << Out;
}

// Lane indices narrower than the lane count select by unsigned value: an
// i1 0 insert is lane 0, not the lane 2 an i32 2 extract reads, and i1 1
// is an in-range lane of a two-lane constant.
TEST_F(OptTest, VectorCombineNarrowLaneIndex) {
  std::string Out = optimizeChecked(R"(
define i8 @f(<4 x i8> %v, i8 %x) {
  %w = insertelement <4 x i8> %v, i8 %x, i1 0
  %r = extractelement <4 x i8> %w, i32 2
  ret i8 %r
}
define i8 @g() {
  %r = extractelement <2 x i8> <i8 5, i8 9>, i1 1
  ret i8 %r
}
)",
                                    "vector-combine,dce");
  EXPECT_FALSE(contains(Out, "ret i8 %x")) << Out;
  EXPECT_TRUE(contains(Out, "ret i8 9")) << Out;
}

TEST_F(OptTest, VectorCombineScalarizesExtractOfBinop) {
  std::string Out = optimizeChecked(R"(
define i8 @f(<4 x i8> %a, <4 x i8> %b) {
  %s = add <4 x i8> %a, %b
  %r = extractelement <4 x i8> %s, i32 1
  ret i8 %r
}
)",
                                    "vector-combine,dce");
  EXPECT_TRUE(contains(Out, "add i8")) << Out;
}

TEST_F(OptTest, InferAlignmentRaisesFromAlloca) {
  std::string Out = optimizeChecked(R"(
define i32 @f(i32 %x) {
  %p = alloca i32, align 8
  store i32 %x, ptr %p, align 2
  %v = load i32, ptr %p, align 2
  ret i32 %v
}
)",
                                    "infer-alignment");
  EXPECT_TRUE(contains(Out, "align 8")) << Out;
}

TEST_F(OptTest, MoveAutoInitSinksStore) {
  std::string Out = optimizeChecked(R"(
declare i32 @observe()

define i32 @f() {
  %p = alloca i32, align 4
  store i32 0, ptr %p, align 4
  %x = call i32 @observe()
  %y = add i32 %x, 1
  %v = load i32, ptr %p, align 4
  %r = add i32 %y, %v
  ret i32 %r
}
)",
                                    "move-auto-init");
  // The store must not move past @observe (it may read memory), so the
  // output is unchanged semantically — soundness is what matters here.
  EXPECT_TRUE(contains(Out, "store")) << Out;
}

TEST_F(OptTest, FullO2PipelineIsSound) {
  // A grab-bag of shapes through the whole -O2 pipeline; every function
  // must refine.
  optimizeChecked(R"(
declare void @clobber(ptr)

define i32 @t1_ult_slt_0(i32 %x, i32 %low, i32 %high) {
  %t0 = icmp slt i32 %x, -16
  %t1 = select i1 %t0, i32 %low, i32 %high
  %t2 = add i32 %x, 16
  %t3 = icmp ult i32 %t2, 144
  %r = select i1 %t3, i32 %x, i32 %t1
  ret i32 %r
}

define i32 @test9(ptr %p, ptr %q) {
  %a = load i32, ptr %q, align 4
  call void @clobber(ptr %p)
  %b = load i32, ptr %q, align 4
  %c = sub i32 %a, %b
  ret i32 %c
}

define i8 @mixed(i8 %x, i8 %y) {
  %m = call i8 @llvm.smax.i8(i8 %x, i8 %y)
  %s = call i8 @llvm.usub.sat.i8(i8 %m, i8 3)
  %d = udiv i8 %s, 4
  %e = mul i8 %d, 6
  ret i8 %e
}

define i32 @cfg(i1 %c, i32 %x) {
entry:
  br i1 %c, label %a, label %b
a:
  %v1 = add nsw i32 %x, 1
  br label %join
b:
  %v2 = add nsw i32 %x, 1
  br label %join
join:
  %p = phi i32 [ %v1, %a ], [ %v2, %b ]
  ret i32 %p
}
)",
                  "O2");
}

TEST_F(OptTest, PipelineParsing) {
  PassManager PM;
  std::string Err;
  EXPECT_TRUE(buildPipeline("instcombine,dce", PM, Err));
  EXPECT_EQ(PM.size(), 2u);
  PassManager PM2;
  EXPECT_TRUE(buildPipeline("-O2", PM2, Err));
  EXPECT_GT(PM2.size(), 5u);
  PassManager PM3;
  EXPECT_FALSE(buildPipeline("nonexistent-pass", PM3, Err));
  EXPECT_TRUE(contains(Err, "nonexistent-pass"));
}

TEST_F(OptTest, AllRegisteredPassesConstruct) {
  for (const std::string &Name : allPassNames()) {
    auto P = createPassByName(Name);
    ASSERT_NE(P, nullptr) << Name;
    EXPECT_EQ(P->getName(), Name);
  }
}

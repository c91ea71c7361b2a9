//===- tests/tvcache_test.cpp - TV verdict cache unit tests -----------------===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Unit tests for the bounded LRU memo of refinement verdicts: eviction
/// order, recency refresh, the hit/miss and eviction signals of lookup()
/// and insert(), and the cacheability rules of makeKey (pairs depending on
/// module context must not be memoized).
///
//===----------------------------------------------------------------------===//

#include "tv/TVCache.h"

#include "parser/Parser.h"
#include "parser/Printer.h"

#include <gtest/gtest.h>

using namespace alive;

namespace {

TVResult verdict(TVVerdict V, const std::string &Detail = "") {
  TVResult R;
  R.Verdict = V;
  R.Detail = Detail;
  return R;
}

std::unique_ptr<Module> parseOk(const std::string &Src) {
  std::string Err;
  auto M = parseModule(Src, Err);
  EXPECT_NE(M, nullptr) << Err;
  return M;
}

} // namespace

TEST(TVCacheTest, LookupReturnsInsertedVerdict) {
  TVCache C(8);
  EXPECT_EQ(C.lookup("k1"), nullptr);
  C.insert("k1", verdict(TVVerdict::Correct, "proved"));
  const TVResult *Hit = C.lookup("k1");
  ASSERT_NE(Hit, nullptr);
  EXPECT_EQ(Hit->Verdict, TVVerdict::Correct);
  EXPECT_EQ(Hit->Detail, "proved");
  EXPECT_EQ(C.size(), 1u);
}

TEST(TVCacheTest, EvictsLeastRecentlyUsed) {
  TVCache C(2);
  EXPECT_FALSE(C.insert("a", verdict(TVVerdict::Correct)));
  EXPECT_FALSE(C.insert("b", verdict(TVVerdict::Incorrect)));
  // Capacity reached: inserting c evicts a (the oldest).
  EXPECT_TRUE(C.insert("c", verdict(TVVerdict::Inconclusive)));
  EXPECT_EQ(C.size(), 2u);
  EXPECT_EQ(C.lookup("a"), nullptr);
  EXPECT_NE(C.lookup("b"), nullptr);
  EXPECT_NE(C.lookup("c"), nullptr);
}

TEST(TVCacheTest, LookupRefreshesRecency) {
  TVCache C(2);
  C.insert("a", verdict(TVVerdict::Correct));
  C.insert("b", verdict(TVVerdict::Correct));
  // Touch a: b becomes the LRU victim.
  EXPECT_NE(C.lookup("a"), nullptr);
  C.insert("c", verdict(TVVerdict::Correct));
  EXPECT_NE(C.lookup("a"), nullptr);
  EXPECT_EQ(C.lookup("b"), nullptr);
  EXPECT_NE(C.lookup("c"), nullptr);
}

TEST(TVCacheTest, DuplicateInsertIsNoOp) {
  TVCache C(2);
  C.insert("a", verdict(TVVerdict::Correct, "first"));
  EXPECT_FALSE(C.insert("a", verdict(TVVerdict::Incorrect, "second")));
  EXPECT_EQ(C.size(), 1u);
  const TVResult *Hit = C.lookup("a");
  ASSERT_NE(Hit, nullptr);
  EXPECT_EQ(Hit->Detail, "first");
}

TEST(TVCacheTest, ZeroCapacityIsClampedToOne) {
  TVCache C(0);
  EXPECT_EQ(C.capacity(), 1u);
  C.insert("a", verdict(TVVerdict::Correct));
  EXPECT_TRUE(C.insert("b", verdict(TVVerdict::Correct)));
  EXPECT_EQ(C.size(), 1u);
}

TEST(TVCacheTest, KeyDependsOnFunctionText) {
  auto M = parseOk(R"(
define i32 @f(i32 %x) {
  %a = add i32 %x, 1
  ret i32 %a
}
define i32 @g(i32 %x) {
  %a = add i32 %x, 2
  ret i32 %a
}
)");
  Function *F = M->getFunction("f"), *G = M->getFunction("g");
  TVOptions Opts;
  std::string FF = TVCache::makeKey(*F, *F, Opts);
  std::string FG = TVCache::makeKey(*F, *G, Opts);
  std::string GF = TVCache::makeKey(*G, *F, Opts);
  ASSERT_FALSE(FF.empty());
  EXPECT_NE(FF, FG);
  EXPECT_NE(FG, GF); // direction matters: refinement is not symmetric
  // Identical printed text (even across module clones) keys identically.
  auto M2 = parseOk(printModule(*M));
  EXPECT_EQ(TVCache::makeKey(*M2->getFunction("f"), *M2->getFunction("g"),
                             Opts),
            FG);
}

TEST(TVCacheTest, KeyDependsOnOptions) {
  auto M = parseOk(R"(
define i32 @f(i32 %x) {
  ret i32 %x
}
)");
  Function *F = M->getFunction("f");
  TVOptions A, B;
  B.ConcreteTrials = A.ConcreteTrials + 1;
  EXPECT_NE(TVCache::makeKey(*F, *F, A), TVCache::makeKey(*F, *F, B));
  TVOptions D;
  D.SolverConflictBudget = A.SolverConflictBudget + 1;
  EXPECT_NE(TVCache::makeKey(*F, *F, A), TVCache::makeKey(*F, *F, D));
}

TEST(TVCacheTest, CallsIntoDefinedFunctionsAreUncacheable) {
  // The interpreter executes defined callee bodies from the surrounding
  // module, which the mutator rewrites independently — such a pair's
  // verdict is not a function of the pair's own text, so it must never be
  // memoized. Declarations are modeled from the callee name and arguments
  // alone and stay cacheable.
  auto M = parseOk(R"(
declare i32 @ext(i32)

define i32 @callee(i32 %x) {
  ret i32 %x
}
define i32 @calls_defined(i32 %x) {
  %r = call i32 @callee(i32 %x)
  ret i32 %r
}
define i32 @calls_declared(i32 %x) {
  %r = call i32 @ext(i32 %x)
  ret i32 %r
}
)");
  TVOptions Opts;
  Function *Defined = M->getFunction("calls_defined");
  Function *Declared = M->getFunction("calls_declared");
  Function *Leaf = M->getFunction("callee");
  EXPECT_TRUE(TVCache::makeKey(*Defined, *Defined, Opts).empty());
  EXPECT_TRUE(TVCache::makeKey(*Leaf, *Defined, Opts).empty());
  EXPECT_FALSE(TVCache::makeKey(*Declared, *Declared, Opts).empty());
  EXPECT_FALSE(TVCache::makeKey(*Leaf, *Leaf, Opts).empty());
}

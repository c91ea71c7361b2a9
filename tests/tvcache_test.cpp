//===- tests/tvcache_test.cpp - TV verdict cache unit tests -----------------===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Unit tests for the bounded LRU memo of refinement verdicts: eviction
/// order, recency refresh, the hit/miss and eviction signals of lookup()
/// and insert(), and the cacheability rules of makeKey (pairs depending on
/// module context must not be memoized). Then the formula-keyed solve memo:
/// a hit returns what a fresh check returns, renamed pairs share an entry,
/// and an interrupted search is never stored.
///
//===----------------------------------------------------------------------===//

#include "tv/TVCache.h"

#include "parser/Parser.h"
#include "parser/Printer.h"
#include "tv/Counterexample.h"

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

//===----------------------------------------------------------------------===//
// The formula-keyed solve memo.
//===----------------------------------------------------------------------===//

namespace {

/// Checks @src against @tgt of \p IR.
TVResult checkPair(const std::string &IR, const TVOptions &Opts,
                   StatRegistry *Stats = nullptr, SolveMemo *Memo = nullptr) {
  auto M = parseOk(IR);
  return checkRefinement(*M->getFunction("src"), *M->getFunction("tgt"), Opts,
                         Stats, Memo);
}

/// How many real SAT searches \p Stats saw.
uint64_t searches(StatRegistry &Stats) {
  return Stats.histogram("tv.solve.seconds").count();
}

void expectSameResult(const TVResult &A, const TVResult &B) {
  EXPECT_EQ(A.Verdict, B.Verdict);
  EXPECT_EQ(A.Detail, B.Detail);
  EXPECT_EQ(renderConcVals(A.CounterExample),
            renderConcVals(B.CounterExample));
  EXPECT_EQ(A.UsedConcretePath, B.UsedConcretePath);
  const SatSolver::Stats &X = A.SolverStats, &Y = B.SolverStats;
  EXPECT_EQ(X.Decisions, Y.Decisions);
  EXPECT_EQ(X.Propagations, Y.Propagations);
  EXPECT_EQ(X.Conflicts, Y.Conflicts);
  EXPECT_EQ(X.LearnedClauses, Y.LearnedClauses);
  EXPECT_EQ(X.LearnedLiterals, Y.LearnedLiterals);
  EXPECT_EQ(X.Restarts, Y.Restarts);
  EXPECT_EQ(X.Vars, Y.Vars);
  EXPECT_EQ(X.Clauses, Y.Clauses);
}

const char *UnsatPair = R"(
define i32 @src(i32 %x) {
  %a = add i32 %x, 1
  ret i32 %a
}
define i32 @tgt(i32 %x) {
  %a = sub i32 %x, -1
  ret i32 %a
}
)";

const char *ConfirmedSatPair = R"(
define i8 @src(i8 %x, i8 %y) {
  %a = add i8 %x, %y
  ret i8 %a
}
define i8 @tgt(i8 %x, i8 %y) {
  %a = sub i8 %x, %y
  ret i8 %a
}
)";

/// The solver may choose the frozen value freely; the interpreter freezes
/// poison to 0, so every model fails to replay.
const char *UnconfirmedPair = R"(
define i8 @src(i8 %x) {
  %f = freeze i8 poison
  ret i8 %f
}
define i8 @tgt(i8 %x) {
  ret i8 0
}
)";

/// True, but the solver needs a few decisions and conflicts to see it.
const char *SearchedUnsatPair = R"(
define i8 @src(i8 %x, i8 %y) {
  %a = and i8 %x, %y
  %b = xor i8 %x, %y
  %r = add i8 %a, %b
  ret i8 %r
}
define i8 @tgt(i8 %x, i8 %y) {
  %r = or i8 %x, %y
  ret i8 %r
}
)";

/// Commuted multiplication: true, but far beyond a one-conflict budget.
const char *HardPair = R"(
define i16 @src(i16 %x, i16 %y) {
  %m = mul i16 %x, %y
  ret i16 %m
}
define i16 @tgt(i16 %x, i16 %y) {
  %m = mul i16 %y, %x
  ret i16 %m
}
)";

TVOptions budgetStopOptions() {
  TVOptions Opts;
  Opts.SolverConflictBudget = 1;
  Opts.ConcreteTrials = 8;
  return Opts;
}

} // namespace

TEST(SolveMemoTest, HitReturnsWhatAFreshCheckReturns) {
  struct Case {
    const char *IR;
    TVOptions Opts;
    const char *Reason;
  };
  for (const Case &C : {Case{UnsatPair, TVOptions(), "correct"},
                        Case{ConfirmedSatPair, TVOptions(), "incorrect"},
                        Case{UnconfirmedPair, TVOptions(),
                             "inconclusive.unconfirmed-model"},
                        Case{HardPair, budgetStopOptions(),
                             "inconclusive.budget"}}) {
    TVResult Fresh = checkPair(C.IR, C.Opts);
    ASSERT_EQ(tvVerdictReason(Fresh), C.Reason) << Fresh.Detail;
    SolveMemo Memo(8);
    StatRegistry Stats;
    expectSameResult(checkPair(C.IR, C.Opts, &Stats, &Memo), Fresh);
    TVResult Hit = checkPair(C.IR, C.Opts, &Stats, &Memo);
    EXPECT_EQ(Stats.counterValue("tv.solver.memo-hits"), 1u) << C.Reason;
    EXPECT_EQ(searches(Stats), 1u) << C.Reason;
    expectSameResult(Hit, Fresh);
    // A hit counts as a symbolic query with the stored effort.
    EXPECT_EQ(Stats.counterValue("tv.query.symbolic"), 2u);
    EXPECT_EQ(Stats.counterValue("tv.solver.conflicts"),
              2 * Fresh.SolverStats.Conflicts);
    EXPECT_EQ(Stats.counterValue("tv.solver.budget-exhausted"),
              tvVerdictReason(Fresh) == "inconclusive.budget" ? 2u : 0u);
  }
}

TEST(SolveMemoTest, RenamedPairsShareOneEntry) {
  // The text-keyed cache tells these pairs apart; the formula is one.
  const char *Renamed = R"(
define i8 @src(i8 %p, i8 %q) {
  %sum = add i8 %p, %q
  ret i8 %sum
}
define i8 @tgt(i8 %p, i8 %q) {
  %diff = sub i8 %p, %q
  ret i8 %diff
}
)";
  TVOptions Opts;
  SolveMemo Memo(8);
  StatRegistry Stats;
  TVResult First = checkPair(ConfirmedSatPair, Opts, &Stats, &Memo);
  TVResult Second = checkPair(Renamed, Opts, &Stats, &Memo);
  EXPECT_EQ(Memo.size(), 1u);
  EXPECT_EQ(searches(Stats), 1u);
  EXPECT_EQ(Stats.counterValue("tv.solver.memo-hits"), 1u);
  expectSameResult(Second, checkPair(Renamed, Opts));
  EXPECT_EQ(Second.Verdict, TVVerdict::Incorrect);
  EXPECT_EQ(renderConcVals(Second.CounterExample),
            renderConcVals(First.CounterExample));
}

TEST(SolveMemoTest, AnotherBudgetOrFormulaMisses) {
  SolveMemo Memo(8);
  StatRegistry Stats;
  TVOptions A, B;
  B.SolverConflictBudget = A.SolverConflictBudget + 1;
  checkPair(UnsatPair, A, &Stats, &Memo);
  checkPair(UnsatPair, B, &Stats, &Memo);
  // One constant apart, and one operand order apart.
  std::string Other = UnsatPair;
  Other.replace(Other.find("add i32 %x, 1"), 13, "add i32 %x, 2");
  EXPECT_EQ(checkPair(Other, A, &Stats, &Memo).Verdict, TVVerdict::Incorrect);
  std::string Swapped = ConfirmedSatPair;
  Swapped.replace(Swapped.find("sub i8 %x, %y"), 13, "sub i8 %y, %x");
  checkPair(ConfirmedSatPair, A, &Stats, &Memo);
  checkPair(Swapped, A, &Stats, &Memo);
  EXPECT_EQ(Memo.size(), 5u);
  EXPECT_EQ(searches(Stats), 5u);
  EXPECT_EQ(Stats.counterValue("tv.solver.memo-hits"), 0u);
}

TEST(SolveMemoTest, InterruptedSearchesAreNotStored) {
  TVOptions Opts;
  Opts.SolverConflictBudget = 0;
  CancellationToken Token;
  Opts.Token = &Token;
  SolveMemo Memo(8);

  // Cut by the step budget.
  Token.beginIteration(5);
  TVResult Cut = checkPair(HardPair, Opts, nullptr, &Memo);
  EXPECT_EQ(tvVerdictReason(Cut), "inconclusive.cancelled") << Cut.Detail;
  EXPECT_EQ(Memo.size(), 0u);

  // Cut by a deadline that has passed by the first clock read.
  Token.setDeadline(1e-9);
  Token.beginIteration(0);
  Cut = checkPair(HardPair, Opts, nullptr, &Memo);
  EXPECT_TRUE(Token.deadlinePassed());
  EXPECT_EQ(tvVerdictReason(Cut), "inconclusive.cancelled") << Cut.Detail;
  EXPECT_EQ(Memo.size(), 0u);
}

TEST(SolveMemoTest, HitTakesTheStepsOfTheSearchItReplaces) {
  // Under a step budget a hit cancels exactly where a fresh check does,
  // and otherwise leaves the same budget to the model replay and the
  // concrete fallback.
  struct Case {
    const char *IR;
    TVOptions Opts;
  };
  for (const Case &C : {Case{SearchedUnsatPair, TVOptions()},
                        Case{ConfirmedSatPair, TVOptions()},
                        Case{HardPair, budgetStopOptions()}}) {
    SolveMemo Memo(8);
    checkPair(C.IR, C.Opts, nullptr, &Memo);
    ASSERT_EQ(Memo.size(), 1u);
    unsigned Cut = 0, Whole = 0;
    for (uint64_t Budget = 1; Budget != 300; ++Budget) {
      CancellationToken Token;
      TVOptions Opts = C.Opts;
      Opts.Token = &Token;
      Token.beginIteration(Budget);
      TVResult Fresh = checkPair(C.IR, Opts);
      Token.beginIteration(Budget);
      TVResult Hit = checkPair(C.IR, Opts, nullptr, &Memo);
      ASSERT_EQ(tvVerdictReason(Hit), tvVerdictReason(Fresh))
          << "step budget " << Budget << ": " << Hit.Detail << " vs "
          << Fresh.Detail;
      EXPECT_EQ(Hit.Detail, Fresh.Detail);
      ++(Token.cancelled() ? Cut : Whole);
    }
    // The range crosses the step at which the check completes.
    EXPECT_GT(Cut, 0u);
    EXPECT_GT(Whole, 0u);
  }
}

TEST(SolveMemoTest, CapacityEvictsLeastRecentlyUsed) {
  SolveMemo Memo(2);
  StatRegistry Stats;
  TVOptions Opts;
  checkPair(UnsatPair, Opts, &Stats, &Memo);
  checkPair(ConfirmedSatPair, Opts, &Stats, &Memo);
  checkPair(UnsatPair, Opts, &Stats, &Memo); // hit: now most recent
  checkPair(UnconfirmedPair, Opts, &Stats, &Memo); // evicts the SAT pair
  EXPECT_EQ(Stats.counterValue("tv.solver.memo-hits"), 1u);
  checkPair(UnsatPair, Opts, &Stats, &Memo);
  EXPECT_EQ(Stats.counterValue("tv.solver.memo-hits"), 2u);
  checkPair(ConfirmedSatPair, Opts, &Stats, &Memo);
  EXPECT_EQ(Stats.counterValue("tv.solver.memo-hits"), 2u);
  EXPECT_EQ(searches(Stats), 4u);
  EXPECT_EQ(Memo.size(), 2u);
}

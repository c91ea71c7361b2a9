//===- tests/sat_test.cpp - SAT solver unit & property tests ---------------===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "smt/BitBlaster.h"
#include "smt/SatSolver.h"
#include "support/RandomGenerator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

using namespace alive;

namespace {

/// Pigeonhole P/H: every pigeon sits in some hole, no hole holds two.
void addPigeonhole(SatSolver &S, int P, int H) {
  std::vector<std::vector<int>> Var(P, std::vector<int>(H));
  for (int I = 0; I != P; ++I)
    for (int J = 0; J != H; ++J)
      Var[I][J] = S.newVar();
  for (int I = 0; I != P; ++I)
    S.addClause(Var[I]);
  for (int J = 0; J != H; ++J)
    for (int I1 = 0; I1 != P; ++I1)
      for (int I2 = I1 + 1; I2 != P; ++I2)
        S.addClause(-Var[I1][J], -Var[I2][J]);
}

} // namespace

TEST(SatSolverTest, TrivialSat) {
  SatSolver S;
  int A = S.newVar(), B = S.newVar();
  S.addClause(A, B);
  S.addClause(-A);
  EXPECT_EQ(S.solve(), SatSolver::Result::Sat);
  EXPECT_FALSE(S.modelValue(A));
  EXPECT_TRUE(S.modelValue(B));
}

TEST(SatSolverTest, TrivialUnsat) {
  SatSolver S;
  int A = S.newVar();
  S.addClause(A);
  S.addClause(-A);
  EXPECT_EQ(S.solve(), SatSolver::Result::Unsat);
  // The formula size counts every clause handed in, the refuting one too.
  EXPECT_EQ(S.stats().Vars, 1u);
  EXPECT_EQ(S.stats().Clauses, 2u);
}

TEST(SatSolverTest, EmptyClauseIsUnsat) {
  SatSolver S;
  (void)S.newVar();
  S.addClause(std::vector<Lit>{});
  EXPECT_EQ(S.solve(), SatSolver::Result::Unsat);
}

TEST(SatSolverTest, EmptyFormulaIsSat) {
  SatSolver S;
  EXPECT_EQ(S.solve(), SatSolver::Result::Sat);
}

TEST(SatSolverTest, TautologyIgnored) {
  SatSolver S;
  int A = S.newVar(), B = S.newVar();
  S.addClause(A, -A, B);
  S.addClause(-B);
  EXPECT_EQ(S.solve(), SatSolver::Result::Sat);
}

TEST(SatSolverTest, ChainedImplications) {
  // a -> b -> c -> ... -> z, with a forced true and z forced false: UNSAT.
  SatSolver S;
  const int N = 50;
  std::vector<int> V;
  for (int I = 0; I != N; ++I)
    V.push_back(S.newVar());
  for (int I = 0; I + 1 != N; ++I)
    S.addClause(-V[I], V[I + 1]);
  S.addClause(V[0]);
  S.addClause(-V[N - 1]);
  EXPECT_EQ(S.solve(), SatSolver::Result::Unsat);
}

TEST(SatSolverTest, PigeonholePrinciple) {
  // 4 pigeons into 3 holes: classic small UNSAT requiring real search.
  SatSolver S;
  addPigeonhole(S, 4, 3);
  EXPECT_EQ(S.solve(), SatSolver::Result::Unsat);
  EXPECT_GT(S.stats().Conflicts, 0u);
}

TEST(SatSolverTest, ConflictBudgetYieldsUnknown) {
  // Pigeonhole 8/7 is hard enough to exceed a budget of 1 conflict.
  SatSolver S;
  addPigeonhole(S, 8, 7);
  EXPECT_EQ(S.solve(/*ConflictBudget=*/1), SatSolver::Result::Unknown);
}

namespace {

/// Brute-force CNF oracle for <= ~20 variables.
bool bruteForceSat(int NumVars, const std::vector<std::vector<Lit>> &Clauses) {
  for (uint64_t Assign = 0; Assign != (1ULL << NumVars); ++Assign) {
    bool All = true;
    for (const auto &C : Clauses) {
      bool Any = false;
      for (Lit L : C) {
        bool V = (Assign >> (std::abs(L) - 1)) & 1;
        if ((L > 0) == V) {
          Any = true;
          break;
        }
      }
      if (!Any) {
        All = false;
        break;
      }
    }
    if (All)
      return true;
  }
  return false;
}

} // namespace

// Property: solver verdicts match brute force on random 3-CNF near the
// phase-transition density, and Sat models actually satisfy the formula.
class Random3CnfTest : public ::testing::TestWithParam<int> {};

TEST_P(Random3CnfTest, MatchesBruteForce) {
  RandomGenerator RNG(GetParam());
  for (int Round = 0; Round != 60; ++Round) {
    int NumVars = 5 + (int)RNG.below(10);
    int NumClauses = (int)(NumVars * (3.0 + (int)RNG.below(3)));
    std::vector<std::vector<Lit>> Clauses;
    SatSolver S;
    for (int V = 0; V != NumVars; ++V)
      (void)S.newVar();
    for (int C = 0; C != NumClauses; ++C) {
      std::vector<Lit> Clause;
      for (int K = 0; K != 3; ++K) {
        int V = 1 + (int)RNG.below(NumVars);
        Clause.push_back(RNG.flip() ? V : -V);
      }
      Clauses.push_back(Clause);
      S.addClause(Clause);
    }
    bool Expected = bruteForceSat(NumVars, Clauses);
    SatSolver::Result R = S.solve();
    ASSERT_EQ(R == SatSolver::Result::Sat, Expected)
        << "seed " << GetParam() << " round " << Round;
    if (R == SatSolver::Result::Sat) {
      // The model must satisfy every clause.
      for (const auto &C : Clauses) {
        bool Any = false;
        for (Lit L : C)
          Any |= (L > 0) == S.modelValue(std::abs(L));
        ASSERT_TRUE(Any) << "model does not satisfy clause";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Random3CnfTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

namespace {

/// Uniform random 3-SAT over \p N variables at clause ratio 4.26 (the
/// phase transition): three distinct variables per clause, random signs.
void addRandom3Sat(SatSolver &S, int N, uint64_t Seed) {
  RandomGenerator RNG(Seed);
  for (int V = 0; V != N; ++V)
    (void)S.newVar();
  int M = (int)std::lround(4.26 * N);
  for (int C = 0; C != M; ++C) {
    int A = 1 + (int)RNG.below(N), B, D;
    do
      B = 1 + (int)RNG.below(N);
    while (B == A);
    do
      D = 1 + (int)RNG.below(N);
    while (D == A || D == B);
    S.addClause(RNG.flip() ? A : -A, RNG.flip() ? B : -B, RNG.flip() ? D : -D);
  }
}

struct SearchCase {
  std::string Name;
  std::function<SatSolver::Result(SatSolver &)> Run;
};

std::vector<SearchCase> searchCases() {
  std::vector<SearchCase> Cases;
  for (int P : {5, 6, 7})
    Cases.push_back({"php" + std::to_string(P) + "/" + std::to_string(P - 1),
                     [P](SatSolver &S) {
                       addPigeonhole(S, P, P - 1);
                       return S.solve();
                     }});
  for (int N = 50; N <= 150; N += 25)
    Cases.push_back({"3sat" + std::to_string(N), [N](SatSolver &S) {
                       addRandom3Sat(S, N, /*Seed=*/N);
                       return S.solve();
                     }});
  // 16-bit multiplication commutes, but x*y != y*x is far too hard to
  // refute for this solver: it runs to a 20000-conflict budget.
  Cases.push_back({"mul16-commute", [](SatSolver &S) {
                     TermBuilder B;
                     BitBlaster BB(S);
                     TermRef X = B.mkVar(16, "x"), Y = B.mkVar(16, "y");
                     BB.assertTrue(B.mkNe(B.mkMul(X, Y), B.mkMul(Y, X)));
                     return S.solve(/*ConflictBudget=*/20000);
                   }});
  // The budget-bound shape that dominates Table I: a violation of
  // zext(x) * zext(y) ule zext(x) * 0xffffffff over a widened i64
  // multiply, stopped by the validator's 4000-conflict budget.
  Cases.push_back({"mul64-ule-budget", [](SatSolver &S) {
                     TermBuilder B;
                     BitBlaster BB(S);
                     TermRef X = B.mkZExt(B.mkVar(32, "x"), 64);
                     TermRef Y = B.mkZExt(B.mkVar(32, "y"), 64);
                     TermRef Lhs = B.mkMul(X, Y);
                     TermRef Rhs = B.mkMul(X, B.mkConst(64, 0xffffffffULL));
                     BB.assertTrue(B.mkNot(B.mkUle(Lhs, Rhs)));
                     return S.solve(/*ConflictBudget=*/4000);
                   }});
  return Cases;
}

struct Golden {
  const char *Name;
  SatSolver::Result Result;
  uint64_t Decisions, Propagations, Conflicts, LearnedClauses,
      LearnedLiterals, Restarts;
  /// SAT variables after the formula is built; pinned (nonzero) on the
  /// bit-blasted rows, where the blaster, not the test, sizes the formula.
  int Vars = 0;
};

// Search-identity gate. The solver's storage (clause layout, watch lists,
// value arrays) may change freely, but the search may not: every verdict
// and every counter below must stay bit-for-bit equal. A change that alters
// the search on purpose (clause minimization, clause-DB reduction, a new
// branching or restart heuristic) must re-capture these values and say so.
// The CNF rows (php, 3sat) pin the solver alone and date from before its
// clause arena. The two bit-blasted rows pin the blaster's formula as well,
// and were re-captured when it began hash-consing gates; their variable
// count tells a change to the formula apart from a change to the search.
constexpr SatSolver::Result Sat = SatSolver::Result::Sat;
constexpr SatSolver::Result Unsat = SatSolver::Result::Unsat;
constexpr SatSolver::Result Unknown = SatSolver::Result::Unknown;
const Golden Goldens[] = {
    // Name, result, decisions, propagations, conflicts, learned clauses,
    // learned literals, restarts.
    {"php5/4", Unsat, 38, 297, 28, 23, 103, 0},
    {"php6/5", Unsat, 215, 1891, 161, 154, 1235, 2},
    {"php7/6", Unsat, 1176, 12046, 900, 893, 12129, 14},
    {"3sat50", Sat, 81, 853, 57, 56, 325, 0},
    {"3sat75", Unsat, 294, 5044, 257, 247, 1667, 4},
    {"3sat100", Sat, 841, 15564, 658, 656, 5758, 10},
    {"3sat125", Sat, 694, 15410, 520, 520, 5502, 8},
    {"3sat150", Sat, 2303, 54925, 1715, 1715, 20214, 26},
    {"mul16-commute", Unknown, 38373, 4708176, 20000, 19999, 2042202, 312,
     1304},
    {"mul64-ule-budget", Unknown, 15865, 1993694, 4000, 3999, 144244, 62,
     11071},
};

const char *resultName(SatSolver::Result R) {
  return R == Sat ? "Sat" : R == Unsat ? "Unsat" : "Unknown";
}

} // namespace

TEST(SatSearchIdentityTest, MatchesGoldenCounters) {
  std::vector<SearchCase> Cases = searchCases();
  ASSERT_EQ(Cases.size(), std::size(Goldens));
  for (size_t I = 0; I != Cases.size(); ++I) {
    SatSolver S;
    SatSolver::Result R = Cases[I].Run(S);
    const SatSolver::Stats &St = S.stats();
    const Golden &G = Goldens[I];
    EXPECT_EQ(Cases[I].Name, G.Name);
    bool Same = R == G.Result && St.Decisions == G.Decisions &&
                St.Propagations == G.Propagations &&
                St.Conflicts == G.Conflicts &&
                St.LearnedClauses == G.LearnedClauses &&
                St.LearnedLiterals == G.LearnedLiterals &&
                St.Restarts == G.Restarts &&
                (G.Vars == 0 || S.numVars() == G.Vars);
    EXPECT_TRUE(Same) << "search changed; got {\"" << Cases[I].Name << "\", "
                      << resultName(R) << ", " << St.Decisions << ", "
                      << St.Propagations << ", " << St.Conflicts << ", "
                      << St.LearnedClauses << ", " << St.LearnedLiterals
                      << ", " << St.Restarts << ", " << S.numVars() << "},";
  }
}

// Soundness on small random CNFs that exercise every clause shape the
// solver special-cases: units, binaries, duplicate literals, tautologies
// and repeated clauses. Verdicts are checked against enumeration, and Sat
// models against the test's own copy of the clauses (binary clauses live
// only in the solver's watch lists, so the solver's view is not enough).
TEST(SatSolverTest, RandomSmallCnfMatchesBruteForce) {
  RandomGenerator RNG(2024);
  unsigned SatCount = 0, UnsatCount = 0;
  unsigned Shapes[5] = {}; // clauses by literal count, 1..4
  unsigned Tautologies = 0, Duplicates = 0;
  for (int Round = 0; Round != 2000; ++Round) {
    int NumVars = 1 + (int)RNG.below(12);
    int NumClauses = 1 + (int)RNG.below(5 * NumVars);
    std::vector<std::vector<Lit>> Clauses;
    SatSolver S;
    for (int V = 0; V != NumVars; ++V)
      (void)S.newVar();
    for (int C = 0; C != NumClauses; ++C) {
      std::vector<Lit> Clause;
      if (!Clauses.empty() && RNG.chance(1, 10)) {
        Clause = Clauses[RNG.below(Clauses.size())];
      } else {
        int Len = 1 + (int)RNG.below(4);
        for (int K = 0; K != Len; ++K) {
          int V = 1 + (int)RNG.below(NumVars);
          Clause.push_back(RNG.flip() ? V : -V);
        }
      }
      ++Shapes[Clause.size()];
      for (size_t A = 0; A != Clause.size(); ++A)
        for (size_t B = A + 1; B != Clause.size(); ++B) {
          Tautologies += Clause[A] == -Clause[B];
          Duplicates += Clause[A] == Clause[B];
        }
      Clauses.push_back(Clause);
      if (Clause.size() == 1)
        S.addClause(Clause[0]);
      else if (Clause.size() == 2)
        S.addClause(Clause[0], Clause[1]);
      else if (Clause.size() == 3)
        S.addClause(Clause[0], Clause[1], Clause[2]);
      else
        S.addClause(Clause);
    }
    bool Expected = bruteForceSat(NumVars, Clauses);
    SatSolver::Result R = S.solve();
    ASSERT_EQ(R == SatSolver::Result::Sat, Expected) << "round " << Round;
    ASSERT_NE(R, SatSolver::Result::Unknown) << "round " << Round;
    if (R == SatSolver::Result::Sat) {
      ++SatCount;
      for (const auto &C : Clauses) {
        bool Any = false;
        for (Lit L : C)
          Any |= (L > 0) == S.modelValue(std::abs(L));
        ASSERT_TRUE(Any) << "model does not satisfy a clause, round "
                         << Round;
      }
    } else {
      ++UnsatCount;
    }
  }
  // The generator must actually reach every shape it is meant to cover.
  EXPECT_GT(SatCount, 200u);
  EXPECT_GT(UnsatCount, 200u);
  for (int Len = 1; Len <= 4; ++Len)
    EXPECT_GT(Shapes[Len], 0u) << Len << "-literal clauses";
  EXPECT_GT(Tautologies, 0u);
  EXPECT_GT(Duplicates, 0u);
}

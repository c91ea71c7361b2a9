//===- smt/SatSolver.h - CDCL SAT solver -----------------------*- C++ -*-===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A conflict-driven clause-learning SAT solver: two-watched-literal
/// propagation, VSIDS-style branching with phase saving, 1UIP conflict
/// analysis, and Luby restarts. This is the decision procedure underneath
/// the bit-blasted refinement queries — the role Z3 plays for Alive2.
///
//===----------------------------------------------------------------------===//

#ifndef SMT_SATSOLVER_H
#define SMT_SATSOLVER_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace alive {

class CancellationToken;

/// A literal: +v asserts variable v, -v asserts its negation. Variables are
/// numbered from 1.
using Lit = int;

/// CDCL SAT solver over CNF added incrementally with addClause.
class SatSolver {
public:
  enum class Result { Sat, Unsat, Unknown };

  /// Why the last solve() call stopped without an answer. Distinguishes
  /// ordinary budget exhaustion (deterministic: the query itself is too
  /// hard for the configured conflict budget) from a watchdog
  /// cancellation (the enclosing fuzzing iteration was cut off) — the two
  /// need different reporting, not one conflated "Unknown".
  enum class Stop {
    None,           ///< last solve() returned Sat or Unsat
    ConflictBudget, ///< the per-query conflict budget ran out
    Cancelled,      ///< the iteration watchdog cancelled the search
  };

  /// Cumulative search statistics (for the bench_tv harness and the
  /// per-query cost-attribution profiler). All counters are deterministic
  /// functions of the formula and budget: identical queries yield
  /// identical stats whatever thread or worker ran them.
  struct Stats {
    uint64_t Decisions = 0;
    uint64_t Propagations = 0;
    uint64_t Conflicts = 0;
    uint64_t LearnedClauses = 0;
    /// Total literals across learned clauses, unit learnts included —
    /// learned-clause *size* is the memory-pressure signal LearnedClauses
    /// alone hides.
    uint64_t LearnedLiterals = 0;
    uint64_t Restarts = 0;
    /// The formula the last solve() call received: its variables, and its
    /// clauses as passed to addClause, before level-0 simplification.
    uint64_t Vars = 0;
    uint64_t Clauses = 0;
  };

  SatSolver();

  /// Allocates a fresh variable; \returns its index (>= 1).
  int newVar();
  int numVars() const { return (int)Level.size() - 1; }

  /// Adds a clause (disjunction of literals). An empty clause makes the
  /// instance trivially unsatisfiable.
  void addClause(const std::vector<Lit> &Literals) {
    addClause(Literals.data(), Literals.size());
  }
  void addClause(Lit A) { addClause(&A, 1); }
  void addClause(Lit A, Lit B) {
    Lit Ls[] = {A, B};
    addClause(Ls, 2);
  }
  void addClause(Lit A, Lit B, Lit C) {
    Lit Ls[] = {A, B, C};
    addClause(Ls, 3);
  }

  /// Solves the current formula. \p ConflictBudget bounds the search
  /// (0 = unlimited); exceeding it yields Unknown. \p Token (optional)
  /// lets the iteration watchdog cancel the search cooperatively: the
  /// solver consumes one token step per conflict and per decision, and a
  /// cancelled search also yields Unknown — stopCause() tells the two
  /// apart.
  Result solve(uint64_t ConflictBudget = 0,
               CancellationToken *Token = nullptr);

  /// Why the last solve() stopped without a Sat/Unsat answer.
  Stop stopCause() const { return LastStop; }

  /// After Sat: the model value of \p Var.
  bool modelValue(int Var) const;

  const Stats &stats() const { return Statistics; }

private:
  enum : uint8_t { Undef = 2 };

  /// A clause reference. Clauses of three or more literals live in Arena
  /// as [size, lit0, lit1, ...] and are named by the offset of their size
  /// word. Binary clauses never enter the arena: they exist only as a pair
  /// of watchers, so a binary reason or conflict is a tag (BinaryRef), with
  /// the literals carried alongside.
  using CRef = uint32_t;
  static constexpr CRef NoRef = ~CRef(0);
  static constexpr CRef BinaryRef = NoRef - 1;

  /// An entry in the watch list of literal P: a clause with -P among its
  /// first two literals. For a binary clause Ref is BinaryRef and Blocker
  /// is always the clause's other literal.
  struct Watcher {
    CRef Ref;
    Lit Blocker;
  };

  static unsigned watchIndex(Lit L) {
    int V = L > 0 ? L : -L;
    return 2 * V + (L < 0 ? 1 : 0);
  }
  uint8_t valueOf(Lit L) const { return Value[watchIndex(L)]; }
  Lit *clauseLits(CRef C) { return &Arena[C + 1]; }
  unsigned clauseSize(CRef C) const { return (unsigned)Arena[C]; }

  void addClause(const Lit *Literals, size_t Size);
  /// Stores Lits (already simplified, >= 2 literals) and watches its first
  /// two literals; \returns the reason to record for Lits[0].
  CRef attachClause(const std::vector<Lit> &Lits);
  void enqueue(Lit L, CRef Reason, Lit BinaryOther = 0);
  /// Propagates; \returns the conflicting clause or NoRef. A binary
  /// conflict is BinaryRef, with its literals left in BinaryConflict.
  CRef propagate();
  void analyze(CRef Conflict, int &BacktrackLevel);
  void backtrack(int Level);
  void bumpVar(int V);
  void decayActivities();
  int pickBranchVar();
  static uint64_t luby(uint64_t I);

  // Assignment trail.
  std::vector<uint8_t> Value;      // per literal (watchIndex): 0/1/Undef
  std::vector<int> Level;          // decision level per var
  std::vector<CRef> Reason;        // reason clause per var (NoRef none)
  std::vector<Lit> BinaryReason;   // other literal of a BinaryRef reason
  std::vector<Lit> Trail;
  std::vector<unsigned> TrailLimits; // trail size at each decision level
  size_t PropHead = 0;

  std::vector<Lit> Arena;                    // every clause of >= 3 literals
  std::vector<std::vector<Watcher>> Watches; // indexed by watchIndex
  Lit BinaryConflict[2] = {0, 0};            // [blocker, -P] of a conflict
  bool Unsatisfiable = false;

  // Branching heuristic.
  std::vector<double> Activity;
  std::vector<uint8_t> SavedPhase;
  double VarInc = 1.0;

  // Order heap over candidate branch variables, ranked by (activity desc,
  // index asc) — exactly the variable the old O(vars) linear scan selected,
  // found in O(log vars). Deletion is lazy: assigned variables are popped
  // at pick time and backtrack() reinserts whatever it unassigns, so every
  // unassigned variable is always present.
  bool heapRanksBefore(int A, int B) const {
    return Activity[A] > Activity[B] ||
           (Activity[A] == Activity[B] && A < B);
  }
  void heapSiftUp(size_t I);
  void heapSiftDown(size_t I);
  void heapInsert(int V);
  int heapPopTop();
  void heapRebuild();
  std::vector<int> Heap;    // heap array of variable indices
  std::vector<int> HeapPos; // var -> position in Heap, -1 when absent

  // Scratch reused across calls so that no clause allocates: addClause's
  // simplified copy, analyze()'s marks and its learned clause.
  std::vector<Lit> AddBuf;
  std::vector<uint8_t> Seen;
  std::vector<Lit> Learnt;

  Stats Statistics;
  uint64_t ClausesAdded = 0;
  Stop LastStop = Stop::None;
};

} // namespace alive

#endif // SMT_SATSOLVER_H

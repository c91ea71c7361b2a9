//===- smt/SatSolver.cpp - CDCL SAT solver ---------------------------------===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "smt/SatSolver.h"

#include "support/Cancellation.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace alive;

SatSolver::SatSolver() {
  // Variable 0 is unused; keep the vectors 1-based.
  Value.resize(2, Undef);
  Level.push_back(0);
  Reason.push_back(NoRef);
  BinaryReason.push_back(0);
  Activity.push_back(0);
  SavedPhase.push_back(0);
  Seen.push_back(0);
  HeapPos.push_back(-1);
  Watches.resize(2);
}

int SatSolver::newVar() {
  Value.resize(Value.size() + 2, Undef);
  Level.push_back(0);
  Reason.push_back(NoRef);
  BinaryReason.push_back(0);
  Activity.push_back(0);
  SavedPhase.push_back(0);
  Seen.push_back(0);
  HeapPos.push_back(-1);
  Watches.resize(Watches.size() + 2);
  int V = numVars();
  heapInsert(V);
  return V;
}

void SatSolver::heapSiftUp(size_t I) {
  while (I != 0) {
    size_t P = (I - 1) / 2;
    if (!heapRanksBefore(Heap[I], Heap[P]))
      return;
    std::swap(Heap[I], Heap[P]);
    HeapPos[Heap[I]] = (int)I;
    HeapPos[Heap[P]] = (int)P;
    I = P;
  }
}

void SatSolver::heapSiftDown(size_t I) {
  for (;;) {
    size_t L = 2 * I + 1, R = L + 1, Best = I;
    if (L < Heap.size() && heapRanksBefore(Heap[L], Heap[Best]))
      Best = L;
    if (R < Heap.size() && heapRanksBefore(Heap[R], Heap[Best]))
      Best = R;
    if (Best == I)
      return;
    std::swap(Heap[I], Heap[Best]);
    HeapPos[Heap[I]] = (int)I;
    HeapPos[Heap[Best]] = (int)Best;
    I = Best;
  }
}

void SatSolver::heapInsert(int V) {
  if (HeapPos[V] != -1)
    return;
  HeapPos[V] = (int)Heap.size();
  Heap.push_back(V);
  heapSiftUp(Heap.size() - 1);
}

int SatSolver::heapPopTop() {
  int V = Heap[0];
  HeapPos[V] = -1;
  Heap[0] = Heap.back();
  Heap.pop_back();
  if (!Heap.empty()) {
    HeapPos[Heap[0]] = 0;
    heapSiftDown(0);
  }
  return V;
}

void SatSolver::heapRebuild() {
  for (size_t I = Heap.size() / 2; I-- > 0;)
    heapSiftDown(I);
}

void SatSolver::addClause(const Lit *Literals, size_t Size) {
  assert(TrailLimits.empty() && "clauses must be added at decision level 0");
  ++ClausesAdded;
  if (Unsatisfiable)
    return;

  // Simplify: drop duplicate/false literals, detect tautologies and
  // already-satisfied clauses. The sort order fixes which two literals the
  // clause watches first.
  AddBuf.assign(Literals, Literals + Size);
  std::sort(AddBuf.begin(), AddBuf.end(),
            [](Lit A, Lit B) { return std::abs(A) < std::abs(B) ||
                                      (std::abs(A) == std::abs(B) && A < B); });
  size_t N = 0;
  for (Lit L : AddBuf) {
    assert(std::abs(L) >= 1 && std::abs(L) <= numVars() &&
           "literal for unknown variable");
    if (N != 0 && AddBuf[N - 1] == L)
      continue;
    if (N != 0 && AddBuf[N - 1] == -L)
      return; // tautology
    if (valueOf(L) == 1)
      return; // already satisfied at level 0
    if (valueOf(L) == 0)
      continue; // already false at level 0
    AddBuf[N++] = L;
  }
  AddBuf.resize(N);

  if (N == 0) {
    Unsatisfiable = true;
    return;
  }
  if (N == 1) {
    if (valueOf(AddBuf[0]) == Undef)
      enqueue(AddBuf[0], NoRef);
    if (propagate() != NoRef)
      Unsatisfiable = true;
    return;
  }
  attachClause(AddBuf);
}

SatSolver::CRef SatSolver::attachClause(const std::vector<Lit> &Lits) {
  CRef Ref = BinaryRef;
  if (Lits.size() > 2) {
    assert(Arena.size() + Lits.size() < BinaryRef && "clause arena full");
    Ref = (CRef)Arena.size();
    Arena.push_back((Lit)Lits.size());
    Arena.insert(Arena.end(), Lits.begin(), Lits.end());
  }
  Watches[watchIndex(-Lits[0])].push_back({Ref, Lits[1]});
  Watches[watchIndex(-Lits[1])].push_back({Ref, Lits[0]});
  return Ref;
}

void SatSolver::enqueue(Lit L, CRef R, Lit BinaryOther) {
  int V = std::abs(L);
  assert(valueOf(L) == Undef && "enqueue of assigned variable");
  Value[watchIndex(L)] = 1;
  Value[watchIndex(-L)] = 0;
  Level[V] = (int)TrailLimits.size();
  Reason[V] = R;
  BinaryReason[V] = BinaryOther;
  Trail.push_back(L);
}

SatSolver::CRef SatSolver::propagate() {
  while (PropHead < Trail.size()) {
    Lit P = Trail[PropHead++];
    ++Statistics.Propagations;
    // Clauses watching -P must find a new watch or propagate/conflict.
    std::vector<Watcher> &WL = Watches[watchIndex(P)];
    size_t Keep = 0;
    for (size_t I = 0; I != WL.size(); ++I) {
      Watcher W = WL[I];
      if (valueOf(W.Blocker) == 1) {
        WL[Keep++] = W;
        continue;
      }
      Lit Implied = W.Blocker;
      if (W.Ref != BinaryRef) {
        Lit *C = clauseLits(W.Ref);
        unsigned Size = clauseSize(W.Ref);
        // Normalize: the false literal (-P) goes to position 1.
        if (C[0] == -P)
          std::swap(C[0], C[1]);
        assert(C[1] == -P);
        if (valueOf(C[0]) == 1) {
          WL[Keep++] = {W.Ref, C[0]};
          continue;
        }
        // Search for a non-false literal to watch.
        bool FoundWatch = false;
        for (unsigned K = 2; K != Size; ++K) {
          if (valueOf(C[K]) != 0) {
            std::swap(C[1], C[K]);
            Watches[watchIndex(-C[1])].push_back({W.Ref, C[0]});
            FoundWatch = true;
            break;
          }
        }
        if (FoundWatch)
          continue;
        Implied = C[0];
      }
      // Unit or conflicting. A binary clause takes the same path with its
      // blocker as the other literal: it never finds a new watch.
      WL[Keep++] = W;
      if (valueOf(Implied) == 0) {
        // Conflict: restore untouched watchers and report. Only a binary
        // conflict reads BinaryConflict, only a binary reason -P.
        for (size_t K = I + 1; K != WL.size(); ++K)
          WL[Keep++] = WL[K];
        WL.resize(Keep);
        PropHead = Trail.size();
        BinaryConflict[0] = Implied;
        BinaryConflict[1] = -P;
        return W.Ref;
      }
      enqueue(Implied, W.Ref, -P);
    }
    WL.resize(Keep);
  }
  return NoRef;
}

void SatSolver::bumpVar(int V) {
  Activity[V] += VarInc;
  if (Activity[V] > 1e100) {
    for (double &A : Activity)
      A *= 1e-100;
    VarInc *= 1e-100;
    // The uniform rescale can collapse nearby activities onto one value,
    // which changes relative order under the index tie-break — restore the
    // heap invariant wholesale.
    heapRebuild();
    return;
  }
  if (HeapPos[V] != -1)
    heapSiftUp((size_t)HeapPos[V]);
}

void SatSolver::decayActivities() { VarInc /= 0.95; }

void SatSolver::analyze(CRef Conflict, int &BacktrackLevel) {
  // Standard 1UIP scheme.
  Learnt.clear();
  Learnt.push_back(0); // slot for the asserting literal
  int PathCount = 0;
  Lit P = 0;
  size_t TrailIdx = Trail.size();
  int CurLevel = (int)TrailLimits.size();
  CRef Ref = Conflict;
  // A binary clause is read back in the literal order propagate()'s swap
  // would have left it in the arena: [blocker, -P] as the conflict,
  // [implied, other] as a reason. Learned clauses, and with them the
  // whole search, are therefore the same as if binaries were stored.
  Lit Binary[2] = {BinaryConflict[0], BinaryConflict[1]};

  do {
    assert(Ref != NoRef && "reason missing during conflict analysis");
    const Lit *C = Binary;
    unsigned Size = 2;
    if (Ref != BinaryRef) {
      C = clauseLits(Ref);
      Size = clauseSize(Ref);
    }
    for (unsigned K = (P == 0 ? 0 : 1); K != Size; ++K) {
      Lit Q = C[K];
      int V = std::abs(Q);
      if (Seen[V] || Level[V] == 0)
        continue;
      Seen[V] = 1;
      bumpVar(V);
      if (Level[V] >= CurLevel)
        ++PathCount;
      else
        Learnt.push_back(Q);
    }
    // Next literal on the trail to resolve on.
    while (!Seen[std::abs(Trail[--TrailIdx])])
      ;
    P = Trail[TrailIdx];
    int PV = std::abs(P);
    Seen[PV] = 0;
    Ref = Reason[PV];
    Binary[0] = P;
    Binary[1] = BinaryReason[PV];
    --PathCount;
  } while (PathCount > 0);
  Learnt[0] = -P;
  // Compute backtrack level = max level among the other literals.
  BacktrackLevel = 0;
  size_t MaxIdx = 1;
  for (size_t K = 1; K != Learnt.size(); ++K) {
    if (Level[std::abs(Learnt[K])] > BacktrackLevel) {
      BacktrackLevel = Level[std::abs(Learnt[K])];
      MaxIdx = K;
    }
  }
  if (Learnt.size() > 1)
    std::swap(Learnt[1], Learnt[MaxIdx]);

  for (Lit L : Learnt)
    Seen[std::abs(L)] = 0;
}

void SatSolver::backtrack(int TargetLevel) {
  if ((int)TrailLimits.size() <= TargetLevel)
    return;
  unsigned Limit = TrailLimits[TargetLevel];
  for (size_t I = Trail.size(); I > Limit; --I) {
    int V = std::abs(Trail[I - 1]);
    SavedPhase[V] = Value[watchIndex(V)];
    Value[watchIndex(V)] = Value[watchIndex(-V)] = Undef;
    heapInsert(V);
  }
  Trail.resize(Limit);
  TrailLimits.resize(TargetLevel);
  PropHead = Trail.size();
}

int SatSolver::pickBranchVar() {
  // Lazy deletion: variables assigned since their insertion surface at the
  // top and are discarded; the first unassigned top is the branch variable
  // (highest activity, lowest index on ties — matching the scan this heap
  // replaced, so search paths and solver stats are unchanged).
  while (!Heap.empty()) {
    if (Value[watchIndex(Heap[0])] != Undef) {
      heapPopTop();
      continue;
    }
    return heapPopTop();
  }
  return 0;
}

uint64_t SatSolver::luby(uint64_t I) {
  // Knuth's formula for the Luby sequence.
  uint64_t K = 1;
  while ((1ULL << (K + 1)) <= I + 1)
    ++K;
  while ((1ULL << K) - 1 != I + 1) {
    I = I - ((1ULL << K) - 1) + 1 - 1;
    K = 1;
    while ((1ULL << (K + 1)) <= I + 1)
      ++K;
  }
  return 1ULL << (K - 1);
}

SatSolver::Result SatSolver::solve(uint64_t ConflictBudget,
                                   CancellationToken *Token) {
  LastStop = Stop::None;
  Statistics.Vars = numVars();
  Statistics.Clauses = ClausesAdded;
  if (Unsatisfiable)
    return Result::Unsat;
  if (propagate() != NoRef) {
    Unsatisfiable = true;
    return Result::Unsat;
  }

  uint64_t RestartNum = 0;
  uint64_t RestartLimit = 64 * luby(RestartNum);
  uint64_t ConflictsAtRestart = 0;

  for (;;) {
    CRef Conflict = propagate();
    if (Conflict != NoRef) {
      ++Statistics.Conflicts;
      ++ConflictsAtRestart;
      if (TrailLimits.empty()) {
        Unsatisfiable = true;
        return Result::Unsat;
      }
      if (ConflictBudget && Statistics.Conflicts >= ConflictBudget) {
        LastStop = Stop::ConflictBudget;
        return Result::Unknown;
      }
      if (Token && Token->consume(1)) {
        LastStop = Stop::Cancelled;
        return Result::Unknown;
      }

      int BTLevel;
      analyze(Conflict, BTLevel);
      backtrack(BTLevel);

      Statistics.LearnedLiterals += Learnt.size();
      if (Learnt.size() == 1) {
        enqueue(Learnt[0], NoRef);
      } else {
        ++Statistics.LearnedClauses;
        enqueue(Learnt[0], attachClause(Learnt), Learnt[1]);
      }
      decayActivities();

      if (ConflictsAtRestart >= RestartLimit) {
        ++Statistics.Restarts;
        ++RestartNum;
        RestartLimit = 64 * luby(RestartNum);
        ConflictsAtRestart = 0;
        backtrack(0);
      }
      continue;
    }

    int V = pickBranchVar();
    if (V == 0)
      return Result::Sat; // all variables assigned
    // Cooperate with the iteration watchdog on conflict-free instances
    // too (pure propagation chains never reach the conflict branch).
    if (Token && Token->consume(1)) {
      LastStop = Stop::Cancelled;
      return Result::Unknown;
    }
    ++Statistics.Decisions;
    TrailLimits.push_back((unsigned)Trail.size());
    enqueue(SavedPhase[V] == 1 ? V : -V, NoRef);
  }
}

bool SatSolver::modelValue(int Var) const {
  assert(Var >= 1 && Var <= numVars());
  return valueOf(Var) == 1;
}

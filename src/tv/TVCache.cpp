//===- tv/TVCache.cpp - Memoized refinement verdicts -----------------------===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "tv/TVCache.h"

#include "parser/Printer.h"
#include "support/Hash.h"

#include <cassert>
#include <cstdio>
#include <unordered_map>

using namespace alive;

namespace {

/// True when \p F 's interpretation can leave the function's own text:
/// calls to defined non-intrinsic functions execute the callee body, which
/// belongs to the surrounding module (and is mutated independently).
/// Declarations are fine — the environment oracle models them from the
/// callee *name* and arguments only.
bool dependsOnModuleContext(const Function &F) {
  for (BasicBlock *BB : F.blocks())
    for (Instruction *I : BB->insts())
      if (const auto *Call = dyn_cast<CallInst>(I))
        if (const Function *Callee = Call->getCallee())
          if (!Callee->isIntrinsic() && !Callee->isDeclaration())
            return true;
  return false;
}

} // namespace

bool TVCache::isCacheable(const Function &F) {
  return !dependsOnModuleContext(F);
}

std::string TVCache::makeKey(const Function &Src, const Function &Tgt,
                             const TVOptions &Opts) {
  if (dependsOnModuleContext(Src) || dependsOnModuleContext(Tgt))
    return std::string();
  return makeKey(printFunction(Src), printFunction(Tgt), Opts);
}

std::string TVCache::makeKey(std::string_view SrcText,
                             std::string_view TgtText, const TVOptions &Opts) {
  // Header: structural hashes + every TVOptions field that can steer the
  // verdict. The full texts follow so equal keys imply equal inputs.
  char Head[160];
  int N = std::snprintf(
      Head, sizeof Head, "%016llx:%016llx|b%llu,t%u,e%u,f%llu,s%llx|",
      (unsigned long long)fnv1a64(SrcText),
      (unsigned long long)fnv1a64(TgtText),
      (unsigned long long)Opts.SolverConflictBudget, Opts.ConcreteTrials,
      Opts.ExhaustiveBits, (unsigned long long)Opts.Fuel,
      (unsigned long long)Opts.Seed);
  // A truncated header would silently merge distinct option
  // configurations into one key — fail open to "uncacheable" instead.
  assert(N > 0 && (size_t)N < sizeof Head);
  if (N <= 0 || (size_t)N >= sizeof Head)
    return std::string();
  std::string Key;
  Key.reserve((size_t)N + SrcText.size() + TgtText.size() + 1);
  Key.append(Head, (size_t)N);
  Key += SrcText;
  Key += '\x1f'; // unit separator: printed IR never contains it
  Key += TgtText;
  return Key;
}

std::string SolveMemo::makeKey(const SymbolicQuery &Q,
                               uint64_t ConflictBudget) {
  std::string Key;
  // LEB128: widths, ids and operand distances are small, so most fields
  // take one byte and a resident key stays a few bytes per term.
  auto Put = [&Key](uint64_t V) {
    do {
      char Byte = (char)(V & 0x7f);
      V >>= 7;
      Key += V ? (char)(Byte | 0x80) : Byte;
    } while (V);
  };
  Put(ConflictBudget);
  // BitBlaster::blast's walk: post-order, operands left to right. A node's
  // local id is its position in that order; an operand is named by its
  // distance back from the node, which is the same information. A
  // variable is its node: the blaster never reads its VarId, so the
  // numbering the encoder happened to give it stays out of the key too.
  std::unordered_map<TermRef, uint64_t> Ids;
  std::vector<TermRef> Stack{Q.Violation};
  while (!Stack.empty()) {
    TermRef T = Stack.back();
    if (Ids.count(T)) {
      Stack.pop_back();
      continue;
    }
    bool Ready = true;
    for (size_t I = T->Ops.size(); I-- > 0;)
      if (!Ids.count(T->Ops[I])) {
        Stack.push_back(T->Ops[I]);
        Ready = false;
      }
    if (!Ready)
      continue;
    Stack.pop_back();
    const uint64_t Id = Ids.size();
    Put((uint64_t)T->Kind);
    Put(T->Width);
    Put(T->Ops.size());
    for (TermRef Op : T->Ops)
      Put(Id - Ids.at(Op));
    if (T->Kind == TermKind::Const) {
      Put(T->ConstVal.getLoBits64());
      Put(T->ConstVal.getHiBits64());
    }
    Ids.emplace(T, Id);
  }
  // Where each argument's value and poison variables sit in the walk (0 =
  // not in the formula), so a stored model maps back onto the arguments.
  auto PutNode = [&](TermRef T) {
    auto It = Ids.find(T);
    Put(It == Ids.end() ? 0 : It->second + 1);
  };
  Put(Q.Args.size());
  for (const EncodedValue &A : Q.Args) {
    Put(A.Val->Width);
    PutNode(A.Val);
    PutNode(A.Poison);
  }
  return Key;
}

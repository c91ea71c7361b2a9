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

TVCache::TVCache(size_t Capacity) : Capacity(Capacity ? Capacity : 1) {}

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

const TVResult *TVCache::lookup(const std::string &Key) {
  auto It = Map.find(Key);
  if (It == Map.end())
    return nullptr;
  LRU.splice(LRU.begin(), LRU, It->second);
  return &It->second->second;
}

bool TVCache::insert(const std::string &Key, const TVResult &R) {
  if (Map.count(Key))
    return false;
  bool Evicted = false;
  if (Map.size() >= Capacity) {
    Entry &Old = LRU.back();
    Map.erase(std::string_view(Old.first));
    LRU.pop_back();
    Evicted = true;
  }
  LRU.emplace_front(Key, R);
  Map.emplace(std::string_view(LRU.front().first), LRU.begin());
  return Evicted;
}

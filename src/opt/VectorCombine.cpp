//===- opt/VectorCombine.cpp - Vector peepholes -----------------------------===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Vector peepholes: scalarizing extracts of elementwise operations and
/// folding extract-of-insert. Hosts two seeded Table I crash defects:
///
///   56377: the extract-extract shuffle builder crashed on scalable
///     vectors; the analog trigger is an out-of-range constant extract
///     index flowing into the shuffle builder.
///   72034: scalarizeVPIntrinsic produced wrong code; the analog trigger
///     is scalarizing a binop whose constant-vector operand contains a
///     poison lane.
///
//===----------------------------------------------------------------------===//

#include "opt/BugInjection.h"
#include "opt/OptUtils.h"
#include "opt/Pass.h"

using namespace alive;

namespace {

class VectorCombinePass : public Pass {
public:
  std::string getName() const override { return "vector-combine"; }

  bool runOnFunction(Function &F) override {
    M = F.getParent();
    bool Changed = false;
    for (BasicBlock *BB : F.blocks()) {
      for (unsigned Idx = 0; Idx != BB->size(); ++Idx) {
        Instruction *I = BB->getInst(Idx);
        if (auto *E = dyn_cast<ExtractElementInst>(I)) {
          if (combineExtract(E, BB, Idx)) {
            Changed = true;
            Idx = (unsigned)-1;
          }
        }
      }
    }
    return Changed;
  }

private:
  Module *M = nullptr;

  bool combineExtract(ExtractElementInst *E, BasicBlock *BB, unsigned Idx) {
    const ConstantInt *IdxC = matchConstInt(E->getIndex());
    if (!IdxC)
      return false;
    auto *VT = cast<VectorType>(E->getVector()->getType());
    // Lane indices are unsigned and may be narrower than the lane count
    // (i1 into <2 x i8>): compare zero-extended values, never the lane
    // count truncated to the index width.
    const APInt &IdxV = IdxC->getValue();
    uint64_t Lane = IdxV.getLoBits64();
    bool OutOfRange =
        IdxV.getActiveBits() > 64 || Lane >= VT->getNumElements();

    // Seeded crash 56377: building a shuffle for the extract-extract
    // pattern without validating the lane (scalable-vector analog).
    if (OutOfRange) {
      if (isBugEnabled(BugId::PR56377) &&
          isa<ShuffleVectorInst>(E->getVector()))
        optimizerCrash(BugId::PR56377,
                       "shuffle for extract-extract pattern with invalid "
                       "lane " + std::to_string(Lane));
      return false; // correct behavior: the extract is poison; leave it
    }

    // extract(insert(v, x, Lane), Lane) -> x.
    if (auto *Ins = dyn_cast<InsertElementInst>(E->getVector())) {
      const ConstantInt *InsIdx = matchConstInt(Ins->getIndex());
      if (InsIdx && InsIdx->getValue().getActiveBits() <= 64 &&
          InsIdx->getValue().getLoBits64() == Lane) {
        replaceAndErase(E, Ins->getElement());
        return true;
      }
    }

    // extract(constvector, Lane) -> element.
    if (auto *CV = dyn_cast<ConstantVector>(E->getVector())) {
      replaceAndErase(E, CV->getElement((unsigned)Lane));
      return true;
    }

    // extract(binop(a, b), Lane) -> binop(extract(a,Lane), extract(b,Lane)).
    if (auto *Bin = dyn_cast<BinaryInst>(E->getVector())) {
      // Seeded crash 72034: scalarizing when an operand constant vector
      // has a poison lane.
      if (isBugEnabled(BugId::PR72034)) {
        for (Value *Op : {Bin->getLHS(), Bin->getRHS()})
          if (auto *CV = dyn_cast<ConstantVector>(Op))
            for (unsigned K = 0; K != CV->getNumElements(); ++K)
              if (isa<ConstantPoison>(CV->getElement(K)))
                optimizerCrash(BugId::PR72034,
                               "scalarize of vector op with poison lane");
      }
      // Only scalarize single-use vectors (profitability stand-in) and
      // flag-free binops (scalar flags semantics match, but keep simple).
      if (E->getVector()->getNumUses() != 1)
        return false;
      auto scalarOf = [&](Value *V) -> Value * {
        if (auto *CV = dyn_cast<ConstantVector>(V))
          return CV->getElement((unsigned)Lane);
        auto *Ext = new ExtractElementInst(V, E->getIndex());
        insertBefore(BB, Idx, Ext);
        return Ext;
      };
      Value *A = scalarOf(Bin->getLHS());
      unsigned NewIdx = BB->indexOf(E); // extracts may have shifted E
      (void)NewIdx;
      Value *Bv = scalarOf(Bin->getRHS());
      auto *Scalar = new BinaryInst(Bin->getBinOp(), A, Bv);
      Scalar->setNUW(Bin->hasNUW());
      Scalar->setNSW(Bin->hasNSW());
      Scalar->setExact(Bin->isExact());
      Scalar->setName(E->getName());
      insertBefore(BB, BB->indexOf(E), Scalar);
      replaceAndErase(E, Scalar);
      return true;
    }
    return false;
  }

  void insertBefore(BasicBlock *BB, unsigned Idx, Instruction *I) {
    BB->insert(Idx, std::unique_ptr<Instruction>(I));
  }
};

} // namespace

std::unique_ptr<Pass> alive::createVectorCombinePass() {
  return std::make_unique<VectorCombinePass>();
}

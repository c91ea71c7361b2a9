//===- ir/Interpreter.cpp - Concrete IR evaluator --------------------------===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Interpreter.h"

#include "support/Cancellation.h"

#include <map>

using namespace alive;

uint64_t alive::oracleHash(uint64_t Seed, uint64_t A, uint64_t B, uint64_t C) {
  // splitmix64-style mixing.
  uint64_t X = Seed ^ (A * 0x9E3779B97F4A7C15ULL) ^
               (B * 0xBF58476D1CE4E5B9ULL) ^ (C * 0x94D049BB133111EBULL);
  X ^= X >> 30;
  X *= 0xBF58476D1CE4E5B9ULL;
  X ^= X >> 27;
  X *= 0x94D049BB133111EBULL;
  X ^= X >> 31;
  return X;
}

Memory::Memory()
    : Bytes(Size, 0), Init(Size, 0), PoisonShadow(Size, 0) {}

uint64_t Memory::allocate(uint64_t NumBytes, uint64_t Align) {
  if (Align == 0)
    Align = 1;
  uint64_t Base = (Bump + Align - 1) / Align * Align;
  if (NumBytes == 0)
    NumBytes = 1; // zero-sized allocations still get distinct addresses
  if (Base + NumBytes > Size)
    return 0;
  Bump = Base + NumBytes;
  Allocs.push_back({Base, NumBytes});
  return Base;
}

bool Memory::inBounds(uint64_t Addr, uint64_t NumBytes) const {
  uint64_t Base, Len;
  if (!findAllocation(Addr, Base, Len))
    return false;
  return Addr + NumBytes <= Base + Len;
}

bool Memory::findAllocation(uint64_t Addr, uint64_t &Base,
                            uint64_t &Len) const {
  for (const auto &[B, L] : Allocs) {
    if (Addr >= B && Addr < B + L) {
      Base = B;
      Len = L;
      return true;
    }
  }
  return false;
}

namespace {

/// Byte size of a first-class type in the memory model.
uint64_t storeSizeOf(const Type *T) {
  if (T->isPointerTy())
    return 8;
  if (const auto *VT = dyn_cast<VectorType>(T))
    return VT->getNumElements() * storeSizeOf(VT->getElementType());
  return (T->getIntegerBitWidth() + 7) / 8;
}

unsigned laneBitsOf(const Type *T) {
  if (T->isPointerTy())
    return PtrBits;
  return T->getScalarType()->getIntegerBitWidth();
}

/// True if the index operand \p Idx of extractelement/insertelement names
/// a lane of a vector with \p NumLanes lanes. The index is unsigned and may
/// be narrower than the lane count (an i1 index into <2 x i8>), so compare
/// its zero-extended value, never the lane count truncated to its width.
bool laneInRange(const APInt &Idx, size_t NumLanes) {
  return Idx.getActiveBits() <= 64 && Idx.getZExtValue() < NumLanes;
}

unsigned laneCountOf(const Type *T) {
  if (const auto *VT = dyn_cast<VectorType>(T))
    return VT->getNumElements();
  return 1;
}

/// Evaluates one binary op on concrete lanes.
/// \p UB is set for division-family trap conditions.
Lane evalBinOp(const BinaryInst *B, const Lane &L, const Lane &R, bool &UB) {
  UB = false;
  unsigned W = L.Val.getBitWidth();
  BinaryInst::BinOp Op = B->getBinOp();

  // Division family: a poison or zero divisor is immediate UB.
  if (BinaryInst::isDivRem(Op)) {
    if (R.Poison || R.Val.isZero()) {
      UB = true;
      return Lane::poison(W);
    }
    if ((Op == BinaryInst::SDiv || Op == BinaryInst::SRem) &&
        L.Val.isSignedMinValue() && R.Val.isAllOnes() && !L.Poison) {
      UB = true; // signed overflow on division is UB
      return Lane::poison(W);
    }
  }
  if (L.Poison || R.Poison)
    return Lane::poison(W);

  bool Ov = false;
  APInt Res = APInt::getZero(W);
  switch (Op) {
  case BinaryInst::Add: {
    Res = L.Val + R.Val;
    if (B->hasNUW()) {
      L.Val.uadd_ov(R.Val, Ov);
      if (Ov)
        return Lane::poison(W);
    }
    if (B->hasNSW()) {
      L.Val.sadd_ov(R.Val, Ov);
      if (Ov)
        return Lane::poison(W);
    }
    break;
  }
  case BinaryInst::Sub: {
    Res = L.Val - R.Val;
    if (B->hasNUW()) {
      L.Val.usub_ov(R.Val, Ov);
      if (Ov)
        return Lane::poison(W);
    }
    if (B->hasNSW()) {
      L.Val.ssub_ov(R.Val, Ov);
      if (Ov)
        return Lane::poison(W);
    }
    break;
  }
  case BinaryInst::Mul: {
    Res = L.Val * R.Val;
    if (B->hasNUW()) {
      L.Val.umul_ov(R.Val, Ov);
      if (Ov)
        return Lane::poison(W);
    }
    if (B->hasNSW()) {
      L.Val.smul_ov(R.Val, Ov);
      if (Ov)
        return Lane::poison(W);
    }
    break;
  }
  case BinaryInst::UDiv:
    Res = L.Val.udiv(R.Val);
    if (B->isExact() && !L.Val.urem(R.Val).isZero())
      return Lane::poison(W);
    break;
  case BinaryInst::SDiv:
    Res = L.Val.sdiv(R.Val);
    if (B->isExact() && !L.Val.srem(R.Val).isZero())
      return Lane::poison(W);
    break;
  case BinaryInst::URem:
    Res = L.Val.urem(R.Val);
    break;
  case BinaryInst::SRem:
    Res = L.Val.srem(R.Val);
    break;
  case BinaryInst::Shl: {
    if (R.Val.uge(APInt(W, W)))
      return Lane::poison(W);
    Res = L.Val.shl(R.Val);
    if (B->hasNUW()) {
      L.Val.ushl_ov(R.Val, Ov);
      if (Ov)
        return Lane::poison(W);
    }
    if (B->hasNSW()) {
      L.Val.sshl_ov(R.Val, Ov);
      if (Ov)
        return Lane::poison(W);
    }
    break;
  }
  case BinaryInst::LShr:
    if (R.Val.uge(APInt(W, W)))
      return Lane::poison(W);
    Res = L.Val.lshr(R.Val);
    if (B->isExact() && Res.shl(R.Val) != L.Val)
      return Lane::poison(W);
    break;
  case BinaryInst::AShr:
    if (R.Val.uge(APInt(W, W)))
      return Lane::poison(W);
    Res = L.Val.ashr(R.Val);
    if (B->isExact() && Res.shl(R.Val) != L.Val)
      return Lane::poison(W);
    break;
  case BinaryInst::And:
    Res = L.Val & R.Val;
    break;
  case BinaryInst::Or:
    Res = L.Val | R.Val;
    break;
  case BinaryInst::Xor:
    Res = L.Val ^ R.Val;
    break;
  case BinaryInst::NumBinOps:
    assert(false);
  }
  return Lane::of(Res);
}

/// Evaluates a pure intrinsic on concrete lanes (scalar only in this IR).
Lane evalIntrinsic(IntrinsicID ID, const std::vector<Lane> &Args,
                   unsigned W) {
  for (const Lane &A : Args)
    if (A.Poison)
      return Lane::poison(W);
  const APInt &X = Args[0].Val;
  switch (ID) {
  case IntrinsicID::SMin:
    return Lane::of(X.smin(Args[1].Val));
  case IntrinsicID::SMax:
    return Lane::of(X.smax(Args[1].Val));
  case IntrinsicID::UMin:
    return Lane::of(X.umin(Args[1].Val));
  case IntrinsicID::UMax:
    return Lane::of(X.umax(Args[1].Val));
  case IntrinsicID::Abs:
    if (X.isSignedMinValue() && !Args[1].Val.isZero())
      return Lane::poison(W);
    return Lane::of(X.abs());
  case IntrinsicID::BSwap:
    return Lane::of(X.byteSwap());
  case IntrinsicID::CtPop:
    return Lane::of(APInt(W, X.popcount()));
  case IntrinsicID::Ctlz:
    if (X.isZero() && !Args[1].Val.isZero())
      return Lane::poison(W);
    return Lane::of(APInt(W, X.countLeadingZeros()));
  case IntrinsicID::Cttz:
    if (X.isZero() && !Args[1].Val.isZero())
      return Lane::poison(W);
    return Lane::of(APInt(W, X.countTrailingZeros()));
  case IntrinsicID::UAddSat:
    return Lane::of(X.uadd_sat(Args[1].Val));
  case IntrinsicID::USubSat:
    return Lane::of(X.usub_sat(Args[1].Val));
  case IntrinsicID::SAddSat:
    return Lane::of(X.sadd_sat(Args[1].Val));
  case IntrinsicID::SSubSat:
    return Lane::of(X.ssub_sat(Args[1].Val));
  case IntrinsicID::Fshl: {
    unsigned S = (unsigned)Args[2].Val.urem(APInt(W, W)).getZExtValue();
    if (S == 0)
      return Lane::of(X);
    return Lane::of(X.shl(S) | Args[1].Val.lshr(W - S));
  }
  case IntrinsicID::Fshr: {
    unsigned S = (unsigned)Args[2].Val.urem(APInt(W, W)).getZExtValue();
    if (S == 0)
      return Lane::of(Args[1].Val);
    return Lane::of(X.shl(W - S) | Args[1].Val.lshr(S));
  }
  case IntrinsicID::Assume:
  case IntrinsicID::NotIntrinsic:
    break;
  }
  assert(false && "not a pure intrinsic");
  return Lane::poison(W);
}

} // namespace

ExecResult Interpreter::run(const Function &F,
                            const std::vector<ConcVal> &Args) {
  FuelUsed = 0;
  ExternCallCounter = 0;
  return runFrame(F, Args, 0);
}

ExecResult Interpreter::runFrame(const Function &F,
                                 const std::vector<ConcVal> &Args,
                                 unsigned Depth) {
  ExecResult Res;
  if (Depth > Opts.MaxDepth) {
    Res.Status = ExecStatus::Unsupported;
    return Res;
  }
  assert(!F.isDeclaration() && "cannot interpret a declaration");
  assert(Args.size() == F.getNumArgs() && "argument count mismatch");

  std::map<const Value *, ConcVal> Vals;
  for (unsigned I = 0; I != Args.size(); ++I)
    Vals[F.getArg(I)] = Args[I];

  auto ub = [&](const std::string &Why) {
    Res.Status = ExecStatus::UB;
    Res.UBReason = Why;
    return Res;
  };

  // Resolves a Value to a runtime value. Undef constants resolve to zero
  // (see the nondeterminism policy in the header).
  auto getVal = [&](const Value *V) -> ConcVal {
    if (const auto *CI = dyn_cast<ConstantInt>(V))
      return ConcVal::scalar(CI->getValue());
    if (isa<ConstantPoison>(V)) {
      ConcVal CV;
      unsigned Lanes = laneCountOf(V->getType());
      for (unsigned I = 0; I != Lanes; ++I)
        CV.Lanes.push_back(Lane::poison(laneBitsOf(V->getType())));
      return CV;
    }
    if (isa<ConstantUndef>(V)) {
      ConcVal CV;
      unsigned Lanes = laneCountOf(V->getType());
      for (unsigned I = 0; I != Lanes; ++I)
        CV.Lanes.push_back(Lane::of(APInt::getZero(laneBitsOf(V->getType()))));
      return CV;
    }
    if (isa<ConstantNullPtr>(V))
      return ConcVal::scalar(APInt::getZero(PtrBits));
    if (const auto *CV = dyn_cast<ConstantVector>(V)) {
      ConcVal Out;
      unsigned W = laneBitsOf(V->getType());
      for (unsigned I = 0; I != CV->getNumElements(); ++I) {
        const Constant *E = CV->getElement(I);
        if (const auto *EI = dyn_cast<ConstantInt>(E))
          Out.Lanes.push_back(Lane::of(EI->getValue()));
        else if (isa<ConstantPoison>(E))
          Out.Lanes.push_back(Lane::poison(W));
        else
          Out.Lanes.push_back(Lane::of(APInt::getZero(W))); // undef elem
      }
      return Out;
    }
    auto It = Vals.find(V);
    assert(It != Vals.end() && "use of an unevaluated value");
    return It->second;
  };

  // Converts a lane value to/from memory bytes.
  auto loadLane = [&](uint64_t Addr, unsigned Bits, Lane &Out) {
    unsigned NumBytes = (Bits + 7) / 8;
    APInt V = APInt::getZero(Bits);
    bool AnyPoison = false;
    for (unsigned I = 0; I != NumBytes; ++I) {
      // Uninitialized bytes are undef; undef resolves to zero everywhere
      // in this toolchain (see the nondeterminism policy).
      uint8_t B = Mem.isInit(Addr + I) ? Mem.readByte(Addr + I) : 0;
      AnyPoison |= Mem.isPoison(Addr + I);
      unsigned Shift = I * 8;
      if (Shift < Bits) {
        APInt Byte(Bits, B);
        unsigned Room = Bits - Shift;
        if (Room < 8)
          Byte = APInt(Bits, B & ((1u << Room) - 1));
        V = V | Byte.shl(Shift);
      }
    }
    Out = AnyPoison ? Lane::poison(Bits) : Lane::of(V);
  };
  auto storeLane = [&](uint64_t Addr, const Lane &L) {
    unsigned Bits = L.Val.getBitWidth();
    unsigned NumBytes = (Bits + 7) / 8;
    for (unsigned I = 0; I != NumBytes; ++I) {
      unsigned Shift = I * 8;
      uint8_t B = Shift < Bits
                      ? (uint8_t)L.Val.lshr(Shift).getLoBits64()
                      : 0;
      Mem.writeByte(Addr + I, B, L.Poison);
    }
  };

  const BasicBlock *BB = F.getEntryBlock();
  const BasicBlock *PrevBB = nullptr;

  for (;;) {
    // Phi nodes execute in parallel at block entry.
    if (PrevBB) {
      std::vector<std::pair<const PhiNode *, ConcVal>> PhiVals;
      for (Instruction *I : BB->insts()) {
        const auto *Phi = dyn_cast<PhiNode>(I);
        if (!Phi)
          break;
        Value *In = Phi->getIncomingValueForBlock(PrevBB);
        assert(In && "no phi incoming value for predecessor");
        PhiVals.push_back({Phi, getVal(In)});
      }
      for (auto &[Phi, V] : PhiVals)
        Vals[Phi] = V;
    }

    const Instruction *Term = nullptr;
    for (Instruction *I : BB->insts()) {
      if (isa<PhiNode>(I))
        continue;
      if (++FuelUsed > Opts.Fuel) {
        Res.Status = ExecStatus::OutOfFuel;
        return Res;
      }
      // Watchdog steps are consumed in batches of 64 so the hot loop pays
      // one token poll per 64 instructions, not per instruction.
      if (Opts.Token && (FuelUsed & 63) == 0 && Opts.Token->consume(64)) {
        Res.Status = ExecStatus::Cancelled;
        return Res;
      }
      if (I->isTerminator()) {
        Term = I;
        break;
      }

      switch (I->getKind()) {
      case Value::VK_BinaryInst: {
        const auto *B = cast<BinaryInst>(I);
        ConcVal L = getVal(B->getLHS()), R = getVal(B->getRHS());
        ConcVal Out;
        for (unsigned K = 0; K != L.Lanes.size(); ++K) {
          bool UB = false;
          Out.Lanes.push_back(evalBinOp(B, L.Lanes[K], R.Lanes[K], UB));
          if (UB)
            return ub("division trap in " + I->getOpcodeName());
        }
        Vals[I] = Out;
        break;
      }
      case Value::VK_ICmpInst: {
        const auto *C = cast<ICmpInst>(I);
        Lane L = getVal(C->getLHS()).lane(), R = getVal(C->getRHS()).lane();
        if (L.Poison || R.Poison)
          Vals[I] = ConcVal::scalarPoison(1);
        else
          Vals[I] = ConcVal::scalar(
              APInt(1, ICmpInst::evaluate(C->getPredicate(), L.Val, R.Val)));
        break;
      }
      case Value::VK_SelectInst: {
        const auto *S = cast<SelectInst>(I);
        Lane Cond = getVal(S->getCondition()).lane();
        if (Cond.Poison) {
          ConcVal Out;
          unsigned Lanes = laneCountOf(S->getType());
          for (unsigned K = 0; K != Lanes; ++K)
            Out.Lanes.push_back(Lane::poison(laneBitsOf(S->getType())));
          Vals[I] = Out;
        } else {
          Vals[I] = getVal(Cond.Val.isZero() ? S->getFalseValue()
                                             : S->getTrueValue());
        }
        break;
      }
      case Value::VK_CastInst: {
        const auto *C = cast<CastInst>(I);
        Lane In = getVal(C->getSrc()).lane();
        unsigned DstW = C->getType()->getIntegerBitWidth();
        if (In.Poison) {
          Vals[I] = ConcVal::scalarPoison(DstW);
          break;
        }
        APInt V = In.Val;
        switch (C->getCastOp()) {
        case CastInst::Trunc:
          V = V.trunc(DstW);
          break;
        case CastInst::ZExt:
          V = V.zext(DstW);
          break;
        case CastInst::SExt:
          V = V.sext(DstW);
          break;
        }
        Vals[I] = ConcVal::scalar(V);
        break;
      }
      case Value::VK_FreezeInst: {
        const auto *Fr = cast<FreezeInst>(I);
        ConcVal In = getVal(Fr->getSrc());
        for (Lane &L : In.Lanes) {
          if (L.Poison) {
            // Frozen poison resolves to zero deterministically (see policy).
            L.Poison = false;
            L.Val = APInt::getZero(L.Val.getBitWidth());
          }
        }
        Vals[I] = In;
        break;
      }
      case Value::VK_CallInst: {
        const auto *C = cast<CallInst>(I);
        const Function *Callee = C->getCallee();
        std::vector<ConcVal> CallArgs;
        for (unsigned K = 0; K != C->getNumArgs(); ++K)
          CallArgs.push_back(getVal(C->getArg(K)));

        if (Callee->getIntrinsicID() == IntrinsicID::Assume) {
          Lane Cond = CallArgs[0].lane();
          if (Cond.Poison || Cond.Val.isZero())
            return ub("assume of false/poison");
          break;
        }
        if (Callee->isIntrinsic()) {
          std::vector<Lane> Lanes;
          for (const ConcVal &A : CallArgs)
            Lanes.push_back(A.lane());
          Vals[I] = ConcVal{{evalIntrinsic(Callee->getIntrinsicID(), Lanes,
                                           laneBitsOf(C->getType()))}};
          break;
        }
        if (!Callee->isDeclaration()) {
          ExecResult Sub = runFrame(*Callee, CallArgs, Depth + 1);
          if (Sub.Status != ExecStatus::Ok) {
            Res = Sub;
            return Res;
          }
          if (!Sub.IsVoid)
            Vals[I] = Sub.Ret;
          break;
        }

        // External call: environment oracle.
        bool WritesMemory = !Callee->hasFnAttr(FnAttr::ReadNone) &&
                            !Callee->hasFnAttr(FnAttr::ReadOnly);
        uint64_t Counter = WritesMemory ? ++ExternCallCounter : 0;
        uint64_t ArgMix = 0;
        for (const ConcVal &A : CallArgs)
          for (const Lane &L : A.Lanes)
            ArgMix = oracleHash(ArgMix, L.Poison ? ~0ULL : 0,
                                L.Val.getLoBits64(), L.Val.getHiBits64());
        if (WritesMemory) {
          for (unsigned K = 0; K != C->getNumArgs(); ++K) {
            if (!C->getArg(K)->getType()->isPointerTy())
              continue;
            if (K < Callee->getNumArgs() &&
                Callee->paramAttrs(K).ReadOnly)
              continue;
            Lane P = CallArgs[K].lane();
            if (P.Poison)
              return ub("poison pointer escapes to external call");
            uint64_t Base, Len;
            if (Mem.findAllocation(P.Val.getZExtValue(), Base, Len)) {
              for (uint64_t Off = 0; Off != Len; ++Off)
                Mem.writeByte(Base + Off,
                              (uint8_t)oracleHash(Opts.TrialSeed, Base + Off,
                                                  Counter),
                              /*Poison=*/false);
            }
          }
        }
        if (!C->getType()->isVoidTy()) {
          unsigned W = laneBitsOf(C->getType());
          uint64_t NameMix = 0;
          for (char Ch : Callee->getName())
            NameMix = NameMix * 131 + (uint8_t)Ch;
          uint64_t H = oracleHash(Opts.TrialSeed, NameMix, ArgMix, Counter);
          uint64_t H2 = oracleHash(Opts.TrialSeed, NameMix + 1, ArgMix, Counter);
          Vals[I] = ConcVal::scalar(APInt::fromParts(W, H, H2));
        }
        break;
      }
      case Value::VK_LoadInst: {
        const auto *L = cast<LoadInst>(I);
        Lane P = getVal(L->getPointer()).lane();
        if (P.Poison)
          return ub("load of poison pointer");
        uint64_t Addr = P.Val.getZExtValue();
        uint64_t Sz = storeSizeOf(L->getType());
        if (!Mem.inBounds(Addr, Sz))
          return ub("out-of-bounds or null load");
        if (L->getAlign() > 1 && Addr % L->getAlign() != 0)
          return ub("misaligned load");
        ConcVal Out;
        unsigned LaneBits = laneBitsOf(L->getType());
        unsigned NumLanes = laneCountOf(L->getType());
        uint64_t LaneBytes = Sz / NumLanes;
        for (unsigned K = 0; K != NumLanes; ++K) {
          Lane Ln;
          loadLane(Addr + K * LaneBytes, LaneBits, Ln);
          Out.Lanes.push_back(Ln);
        }
        Vals[I] = Out;
        break;
      }
      case Value::VK_StoreInst: {
        const auto *S = cast<StoreInst>(I);
        Lane P = getVal(S->getPointer()).lane();
        if (P.Poison)
          return ub("store to poison pointer");
        ConcVal V = getVal(S->getValueOperand());
        uint64_t Addr = P.Val.getZExtValue();
        uint64_t Sz = storeSizeOf(S->getValueOperand()->getType());
        if (!Mem.inBounds(Addr, Sz))
          return ub("out-of-bounds or null store");
        if (S->getAlign() > 1 && Addr % S->getAlign() != 0)
          return ub("misaligned store");
        uint64_t LaneBytes = Sz / V.Lanes.size();
        for (unsigned K = 0; K != V.Lanes.size(); ++K)
          storeLane(Addr + K * LaneBytes, V.Lanes[K]);
        break;
      }
      case Value::VK_AllocaInst: {
        const auto *A = cast<AllocaInst>(I);
        uint64_t Addr =
            Mem.allocate(storeSizeOf(A->getAllocatedType()), A->getAlign());
        if (!Addr)
          return ub("out of stack memory");
        Vals[I] = ConcVal::scalar(APInt(PtrBits, Addr));
        break;
      }
      case Value::VK_GEPInst: {
        const auto *G = cast<GEPInst>(I);
        Lane P = getVal(G->getPointer()).lane();
        Lane Idx = getVal(G->getIndex()).lane();
        if (P.Poison || Idx.Poison) {
          Vals[I] = ConcVal::scalarPoison(PtrBits);
          break;
        }
        uint64_t Scale = storeSizeOf(G->getSourceElementType());
        APInt Offset = Idx.Val.sextOrTrunc(PtrBits) * APInt(PtrBits, Scale);
        APInt NewPtr = P.Val + Offset;
        if (G->isInBounds()) {
          uint64_t Base, Len;
          bool Known =
              Mem.findAllocation(P.Val.getZExtValue(), Base, Len);
          uint64_t NP = NewPtr.getZExtValue();
          if (!Known || NP < Base || NP > Base + Len) {
            Vals[I] = ConcVal::scalarPoison(PtrBits);
            break;
          }
        }
        Vals[I] = ConcVal::scalar(NewPtr);
        break;
      }
      case Value::VK_ExtractElementInst: {
        const auto *E = cast<ExtractElementInst>(I);
        ConcVal Vec = getVal(E->getVector());
        Lane Idx = getVal(E->getIndex()).lane();
        unsigned W = laneBitsOf(I->getType());
        if (Idx.Poison || !laneInRange(Idx.Val, Vec.Lanes.size()))
          Vals[I] = ConcVal::scalarPoison(W);
        else
          Vals[I] = ConcVal{{Vec.Lanes[(size_t)Idx.Val.getZExtValue()]}};
        break;
      }
      case Value::VK_InsertElementInst: {
        const auto *E = cast<InsertElementInst>(I);
        ConcVal Vec = getVal(E->getVector());
        Lane Elt = getVal(E->getElement()).lane();
        Lane Idx = getVal(E->getIndex()).lane();
        if (Idx.Poison || !laneInRange(Idx.Val, Vec.Lanes.size())) {
          for (Lane &L : Vec.Lanes)
            L = Lane::poison(L.Val.getBitWidth());
        } else {
          Vec.Lanes[(size_t)Idx.Val.getZExtValue()] = Elt;
        }
        Vals[I] = Vec;
        break;
      }
      case Value::VK_ShuffleVectorInst: {
        const auto *SV = cast<ShuffleVectorInst>(I);
        ConcVal V1 = getVal(SV->getV1()), V2 = getVal(SV->getV2());
        unsigned N = (unsigned)V1.Lanes.size();
        unsigned W = laneBitsOf(I->getType());
        ConcVal Out;
        for (int M : SV->getMask()) {
          if (M < 0)
            Out.Lanes.push_back(Lane::poison(W));
          else if ((unsigned)M < N)
            Out.Lanes.push_back(V1.Lanes[M]);
          else
            Out.Lanes.push_back(V2.Lanes[M - N]);
        }
        Vals[I] = Out;
        break;
      }
      default:
        Res.Status = ExecStatus::Unsupported;
        return Res;
      }
    }

    assert(Term && "block without terminator");
    ++FuelUsed;

    switch (Term->getKind()) {
    case Value::VK_ReturnInst: {
      const auto *R = cast<ReturnInst>(Term);
      Res.Status = ExecStatus::Ok;
      if (Value *RV = R->getReturnValue())
        Res.Ret = getVal(RV);
      else
        Res.IsVoid = true;
      return Res;
    }
    case Value::VK_BranchInst: {
      const auto *Br = cast<BranchInst>(Term);
      if (!Br->isConditional()) {
        PrevBB = BB;
        BB = Br->getSuccessor(0);
        break;
      }
      Lane Cond = getVal(Br->getCondition()).lane();
      if (Cond.Poison)
        return ub("branch on poison");
      PrevBB = BB;
      BB = Br->getSuccessor(Cond.Val.isZero() ? 1 : 0);
      break;
    }
    case Value::VK_SwitchInst: {
      const auto *Sw = cast<SwitchInst>(Term);
      Lane Cond = getVal(Sw->getCondition()).lane();
      if (Cond.Poison)
        return ub("switch on poison");
      const BasicBlock *Dest = Sw->getDefaultDest();
      for (unsigned K = 0; K != Sw->getNumCases(); ++K)
        if (Sw->getCaseValue(K) == Cond.Val) {
          Dest = Sw->getCaseDest(K);
          break;
        }
      PrevBB = BB;
      BB = Dest;
      break;
    }
    case Value::VK_UnreachableInst:
      return ub("reached unreachable");
    default:
      assert(false && "unknown terminator");
    }
  }
}

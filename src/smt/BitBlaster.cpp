//===- smt/BitBlaster.cpp - Term -> CNF lowering ---------------------------===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "smt/BitBlaster.h"

#include <cassert>
#include <cstdlib>

using namespace alive;

namespace {

/// The gate tables' key for the input pair (A, B).
uint64_t gateKey(Lit A, Lit B) {
  return (uint64_t)(uint32_t)A << 32 | (uint32_t)B;
}

} // namespace

BitBlaster::BitBlaster(SatSolver &Solver) : Solver(Solver) {
  TrueLit = Solver.newVar();
  Solver.addClause(TrueLit);
}

Lit BitBlaster::mkAnd(Lit A, Lit B) {
  if (A == -TrueLit || B == -TrueLit)
    return -TrueLit;
  if (A == TrueLit)
    return B;
  if (B == TrueLit)
    return A;
  if (A == B)
    return A;
  if (A == -B)
    return -TrueLit;
  if (A > B)
    std::swap(A, B);
  Lit &R = AndGates[gateKey(A, B)];
  if (R)
    return R;
  R = freshLit();
  Solver.addClause(-R, A);
  Solver.addClause(-R, B);
  Solver.addClause(R, -A, -B);
  return R;
}

Lit BitBlaster::mkOr(Lit A, Lit B) { return -mkAnd(-A, -B); }

Lit BitBlaster::mkXor(Lit A, Lit B) {
  if (A == TrueLit)
    return -B;
  if (B == TrueLit)
    return -A;
  if (A == -TrueLit)
    return B;
  if (B == -TrueLit)
    return A;
  if (A == B)
    return -TrueLit;
  if (A == -B)
    return TrueLit;
  // xor(-a, b) == -xor(a, b): key on the positive inputs, apply the parity.
  bool Flip = (A < 0) != (B < 0);
  A = std::abs(A);
  B = std::abs(B);
  if (A > B)
    std::swap(A, B);
  Lit &R = XorGates[gateKey(A, B)];
  if (!R) {
    R = freshLit();
    Solver.addClause(-R, A, B);
    Solver.addClause(-R, -A, -B);
    Solver.addClause(R, -A, B);
    Solver.addClause(R, A, -B);
  }
  return Flip ? -R : R;
}

Lit BitBlaster::mkMux(Lit Sel, Lit T, Lit E) {
  if (Sel == TrueLit)
    return T;
  if (Sel == -TrueLit)
    return E;
  if (T == E)
    return T;
  return mkOr(mkAnd(Sel, T), mkAnd(-Sel, E));
}

std::vector<Lit> BitBlaster::addBits(const std::vector<Lit> &A,
                                     const std::vector<Lit> &B, Lit CarryIn,
                                     Lit *CarryOut) {
  assert(A.size() == B.size());
  std::vector<Lit> Sum(A.size());
  Lit Carry = CarryIn;
  for (size_t I = 0; I != A.size(); ++I) {
    Lit AxB = mkXor(A[I], B[I]);
    Sum[I] = mkXor(AxB, Carry);
    // carry-out = (a & b) | (carry & (a ^ b))
    Carry = mkOr(mkAnd(A[I], B[I]), mkAnd(Carry, AxB));
  }
  if (CarryOut)
    *CarryOut = Carry;
  return Sum;
}

std::vector<Lit> BitBlaster::negate(const std::vector<Lit> &A) {
  std::vector<Lit> NotA(A.size());
  for (size_t I = 0; I != A.size(); ++I)
    NotA[I] = -A[I];
  std::vector<Lit> Zero(A.size(), -TrueLit);
  return addBits(NotA, Zero, TrueLit);
}

std::vector<Lit> BitBlaster::mulBits(const std::vector<Lit> &A,
                                     const std::vector<Lit> &B) {
  size_t W = A.size();
  std::vector<Lit> Acc(W, -TrueLit);
  for (size_t I = 0; I != W; ++I) {
    // Partial product: (A << I) & B[I], added into the accumulator.
    std::vector<Lit> Partial(W, -TrueLit);
    for (size_t J = I; J != W; ++J)
      Partial[J] = mkAnd(A[J - I], B[I]);
    Acc = addBits(Acc, Partial, -TrueLit);
  }
  return Acc;
}

Lit BitBlaster::ultBit(const std::vector<Lit> &A, const std::vector<Lit> &B) {
  // Borrow chain of A - B: borrow_{i+1} = (~a&b) | (borrow & ~(a^b)).
  Lit Borrow = -TrueLit;
  for (size_t I = 0; I != A.size(); ++I) {
    Lit NotAandB = mkAnd(-A[I], B[I]);
    Lit Same = -mkXor(A[I], B[I]);
    Borrow = mkOr(NotAandB, mkAnd(Borrow, Same));
  }
  return Borrow;
}

Lit BitBlaster::eqBit(const std::vector<Lit> &A, const std::vector<Lit> &B) {
  Lit R = TrueLit;
  for (size_t I = 0; I != A.size(); ++I)
    R = mkAnd(R, -mkXor(A[I], B[I]));
  return R;
}

void BitBlaster::udivrem(const std::vector<Lit> &A, const std::vector<Lit> &B,
                         std::vector<Lit> &Quot, std::vector<Lit> &Rem) {
  // Restoring division, MSB first. Before the step that decides Quot[Step]
  // the partial remainder is A's top W - Step bits, and each step keeps it
  // below that bound, so only its low L = W - Step bits are live: the
  // compare and the subtract work on those alone.
  size_t W = A.size();
  // HighB[I] = some bit of B at position >= I is set. HighB[0] is B != 0.
  std::vector<Lit> HighB(W + 1, -TrueLit);
  for (size_t I = W; I-- > 0;)
    HighB[I] = mkOr(B[I], HighB[I + 1]);
  Quot.assign(W, -TrueLit);
  Rem.assign(W, -TrueLit);
  std::vector<Lit> Low, NotB;
  for (size_t Step = W; Step-- > 0;) {
    size_t L = W - Step;
    // Rem = (Rem << 1) | A[Step], still below 2^L.
    for (size_t I = L; I-- > 1;)
      Rem[I] = Rem[I - 1];
    Rem[0] = A[Step];
    // Rem >= B iff B has no bit at L or above and Rem - B over L bits does
    // not borrow, i.e. Rem + ~B + 1 carries out.
    Low.assign(Rem.begin(), Rem.begin() + L);
    NotB.resize(L);
    for (size_t I = 0; I != L; ++I)
      NotB[I] = -B[I];
    Lit Carry = -TrueLit;
    std::vector<Lit> Diff = addBits(Low, NotB, TrueLit, &Carry);
    Lit GE = mkAnd(Carry, -HighB[L]);
    for (size_t I = 0; I != L; ++I)
      Rem[I] = mkMux(GE, Diff[I], Rem[I]);
    // Total convention for B == 0: Quot = 0, Rem = A. Every step then
    // subtracts zero, which leaves Rem = A, but sets its quotient bit.
    Quot[Step] = mkAnd(GE, HighB[0]);
  }
}

std::vector<Lit> BitBlaster::muxBits(Lit Sel, const std::vector<Lit> &T,
                                     const std::vector<Lit> &E) {
  assert(T.size() == E.size());
  std::vector<Lit> R(T.size());
  for (size_t I = 0; I != T.size(); ++I)
    R[I] = mkMux(Sel, T[I], E[I]);
  return R;
}

std::vector<Lit> BitBlaster::shiftBits(TermKind Kind,
                                       const std::vector<Lit> &A,
                                       const std::vector<Lit> &Amt) {
  size_t W = A.size();
  Lit Fill = Kind == TermKind::AShr ? A[W - 1] : -TrueLit;

  std::vector<Lit> Cur = A;
  // Barrel shifter: stage i shifts by 2^i when amount bit i is set.
  for (size_t Stage = 0; (1ULL << Stage) < W; ++Stage) {
    size_t S = 1ULL << Stage;
    std::vector<Lit> Shifted(W);
    for (size_t I = 0; I != W; ++I) {
      switch (Kind) {
      case TermKind::Shl:
        Shifted[I] = I >= S ? Cur[I - S] : -TrueLit;
        break;
      case TermKind::LShr:
        Shifted[I] = I + S < W ? Cur[I + S] : -TrueLit;
        break;
      case TermKind::AShr:
        Shifted[I] = I + S < W ? Cur[I + S] : Fill;
        break;
      default:
        assert(false && "not a shift");
      }
    }
    Cur = muxBits(Amt[Stage], Shifted, Cur);
  }

  // Amount bits beyond the barrel stages imply amount >= W: full fill.
  Lit TooBig = -TrueLit;
  size_t Stages = 0;
  while ((1ULL << Stages) < W)
    ++Stages;
  for (size_t I = Stages; I != W; ++I)
    TooBig = mkOr(TooBig, Amt[I]);
  // Also amounts within stage range but >= W (non-power-of-two widths) are
  // naturally handled by the barrel stages shifting everything out; Shl and
  // LShr produce zeros and AShr produces sign fill, matching the total
  // semantics of Term evaluation.
  std::vector<Lit> FillVec(W, Fill);
  return muxBits(TooBig, FillVec, Cur);
}

const std::vector<Lit> &BitBlaster::blast(TermRef Root) {
  auto It = Cache.find(Root);
  if (It != Cache.end())
    return It->second;

  // Post-order with an explicit stack (terms can be deep). Operands are
  // pushed last-first so they are lowered left to right, each subterm
  // before the next: the gate numbering is fixed by the term alone.
  std::vector<TermRef> Stack{Root};
  while (!Stack.empty()) {
    TermRef T = Stack.back();
    if (Cache.count(T)) {
      Stack.pop_back();
      continue;
    }
    bool Ready = true;
    for (size_t I = T->Ops.size(); I-- > 0;)
      if (!Cache.count(T->Ops[I])) {
        Stack.push_back(T->Ops[I]);
        Ready = false;
      }
    if (!Ready)
      continue;
    Stack.pop_back();
    Cache.emplace(T, blastNode(T));
  }
  return Cache.at(Root);
}

std::vector<Lit> BitBlaster::blastNode(TermRef T) {
  std::vector<Lit> Bits;
  auto Op = [&](unsigned I) -> const std::vector<Lit> & {
    return Cache.at(T->Ops[I]);
  };

  switch (T->Kind) {
  case TermKind::Var: {
    Bits.resize(T->Width);
    for (unsigned I = 0; I != T->Width; ++I)
      Bits[I] = freshLit();
    VarBits[T->VarId] = {T->Width, Bits};
    break;
  }
  case TermKind::Const: {
    Bits.resize(T->Width);
    for (unsigned I = 0; I != T->Width; ++I)
      Bits[I] = T->ConstVal.testBit(I) ? TrueLit : -TrueLit;
    break;
  }
  case TermKind::And: {
    const auto &A = Op(0), &B = Op(1);
    Bits.resize(T->Width);
    for (unsigned I = 0; I != T->Width; ++I)
      Bits[I] = mkAnd(A[I], B[I]);
    break;
  }
  case TermKind::Or: {
    const auto &A = Op(0), &B = Op(1);
    Bits.resize(T->Width);
    for (unsigned I = 0; I != T->Width; ++I)
      Bits[I] = mkOr(A[I], B[I]);
    break;
  }
  case TermKind::Xor: {
    const auto &A = Op(0), &B = Op(1);
    Bits.resize(T->Width);
    for (unsigned I = 0; I != T->Width; ++I)
      Bits[I] = mkXor(A[I], B[I]);
    break;
  }
  case TermKind::Not: {
    const auto &A = Op(0);
    Bits.resize(T->Width);
    for (unsigned I = 0; I != T->Width; ++I)
      Bits[I] = -A[I];
    break;
  }
  case TermKind::Add:
    Bits = addBits(Op(0), Op(1), -TrueLit);
    break;
  case TermKind::Sub: {
    std::vector<Lit> NotB(T->Width);
    const auto &B = Op(1);
    for (unsigned I = 0; I != T->Width; ++I)
      NotB[I] = -B[I];
    Bits = addBits(Op(0), NotB, TrueLit);
    break;
  }
  case TermKind::Mul:
    Bits = mulBits(Op(0), Op(1));
    break;
  case TermKind::UDiv:
  case TermKind::URem: {
    std::vector<Lit> Q, R;
    udivrem(Op(0), Op(1), Q, R);
    Bits = T->Kind == TermKind::UDiv ? Q : R;
    break;
  }
  case TermKind::SDiv:
  case TermKind::SRem: {
    // |a| / |b| with sign corrections; total convention matches evaluate():
    // b == 0 -> quot 0, rem a (the unsigned core provides this on |a|,|b|;
    // sign fixes preserve it because |a| remainder maps back through the
    // a-sign correction).
    const auto &A = Op(0), &B = Op(1);
    Lit SignA = A[T->Width - 1], SignB = B[T->Width - 1];
    std::vector<Lit> AbsA = muxBits(SignA, negate(A), A);
    std::vector<Lit> AbsB = muxBits(SignB, negate(B), B);
    std::vector<Lit> Q, R;
    udivrem(AbsA, AbsB, Q, R);
    if (T->Kind == TermKind::SDiv) {
      Lit Neg = mkXor(SignA, SignB);
      Bits = muxBits(Neg, negate(Q), Q);
    } else {
      Bits = muxBits(SignA, negate(R), R);
    }
    break;
  }
  case TermKind::Shl:
  case TermKind::LShr:
  case TermKind::AShr:
    Bits = shiftBits(T->Kind, Op(0), Op(1));
    break;
  case TermKind::Eq:
    Bits = {eqBit(Op(0), Op(1))};
    break;
  case TermKind::Ult:
    Bits = {ultBit(Op(0), Op(1))};
    break;
  case TermKind::Slt: {
    // Flip sign bits and compare unsigned.
    std::vector<Lit> A = Op(0), B = Op(1);
    A[A.size() - 1] = -A[A.size() - 1];
    B[B.size() - 1] = -B[B.size() - 1];
    Bits = {ultBit(A, B)};
    break;
  }
  case TermKind::Ite:
    Bits = muxBits(Op(0)[0], Op(1), Op(2));
    break;
  case TermKind::ZExt: {
    Bits = Op(0);
    Bits.resize(T->Width, -TrueLit);
    break;
  }
  case TermKind::SExt: {
    Bits = Op(0);
    Lit Sign = Bits.back();
    Bits.resize(T->Width, Sign);
    break;
  }
  case TermKind::Trunc: {
    const auto &A = Op(0);
    Bits.assign(A.begin(), A.begin() + T->Width);
    break;
  }
  }

  assert(Bits.size() == T->Width && "blasted width mismatch");
  return Bits;
}

APInt BitBlaster::modelValue(TermRef T) {
  const std::vector<Lit> &Bits = blast(T);
  APInt V = APInt::getZero(T->Width);
  for (unsigned I = 0; I != T->Width; ++I) {
    Lit L = Bits[I];
    bool Val = L > 0 ? Solver.modelValue(L) : !Solver.modelValue(-L);
    if (Val)
      V.setBit(I);
  }
  return V;
}

std::map<unsigned, APInt> BitBlaster::extractAssignment() {
  std::map<unsigned, APInt> Out;
  for (const auto &[VarId, WidthBits] : VarBits) {
    const auto &[Width, Bits] = WidthBits;
    APInt V = APInt::getZero(Width);
    for (unsigned I = 0; I != Width; ++I) {
      Lit L = Bits[I];
      bool Val = L > 0 ? Solver.modelValue(L) : !Solver.modelValue(-L);
      if (Val)
        V.setBit(I);
    }
    Out.emplace(VarId, V);
  }
  return Out;
}

//===- tests/bitblaster_test.cpp - Bit-blaster cross-check tests -----------===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Cross-checks the three semantic layers of the SMT stack:
/// the Term evaluator, the bit-blaster+SAT pipeline, and APInt.
///
//===----------------------------------------------------------------------===//

#include "smt/BitBlaster.h"
#include "support/RandomGenerator.h"

#include <gtest/gtest.h>

using namespace alive;

namespace {

/// Builds a random binary/unary term over variables X, Y using every kind.
TermRef buildKind(TermBuilder &B, TermKind K, TermRef X, TermRef Y,
                  unsigned W) {
  switch (K) {
  case TermKind::And:
    return B.mkAnd(X, Y);
  case TermKind::Or:
    return B.mkOr(X, Y);
  case TermKind::Xor:
    return B.mkXor(X, Y);
  case TermKind::Not:
    return B.mkNot(X);
  case TermKind::Add:
    return B.mkAdd(X, Y);
  case TermKind::Sub:
    return B.mkSub(X, Y);
  case TermKind::Mul:
    return B.mkMul(X, Y);
  case TermKind::UDiv:
    return B.mkUDiv(X, Y);
  case TermKind::URem:
    return B.mkURem(X, Y);
  case TermKind::SDiv:
    return B.mkSDiv(X, Y);
  case TermKind::SRem:
    return B.mkSRem(X, Y);
  case TermKind::Shl:
    return B.mkShl(X, Y);
  case TermKind::LShr:
    return B.mkLShr(X, Y);
  case TermKind::AShr:
    return B.mkAShr(X, Y);
  case TermKind::Eq:
    return B.mkEq(X, Y);
  case TermKind::Ult:
    return B.mkUlt(X, Y);
  case TermKind::Slt:
    return B.mkSlt(X, Y);
  case TermKind::ZExt:
    return B.mkZExt(X, W + 3);
  case TermKind::SExt:
    return B.mkSExt(X, W + 3);
  case TermKind::Trunc:
    return W > 1 ? B.mkTrunc(X, W - 1) : X;
  default:
    return X;
  }
}

const TermKind AllKinds[] = {
    TermKind::And,  TermKind::Or,   TermKind::Xor,  TermKind::Not,
    TermKind::Add,  TermKind::Sub,  TermKind::Mul,  TermKind::UDiv,
    TermKind::URem, TermKind::SDiv, TermKind::SRem, TermKind::Shl,
    TermKind::LShr, TermKind::AShr, TermKind::Eq,   TermKind::Ult,
    TermKind::Slt,  TermKind::ZExt, TermKind::SExt, TermKind::Trunc};

const TermKind DivKinds[] = {TermKind::UDiv, TermKind::URem, TermKind::SDiv,
                             TermKind::SRem};

/// Pins x and y to \p XV and \p YV, blasts kind \p K over (x, y), or over
/// (x, y | 1) when \p OddY, and checks the SAT model against the Term
/// evaluator.
void expectBlastAgrees(TermKind K, const APInt &XV, const APInt &YV,
                       bool OddY = false) {
  unsigned W = XV.getBitWidth();
  TermBuilder B;
  TermRef X = B.mkVar(W, "x");
  TermRef Y = B.mkVar(W, "y");
  TermRef T = buildKind(B, K, X, OddY ? B.mkOr(Y, B.mkConst(W, 1)) : Y, W);
  std::map<unsigned, APInt> Assign{{X->VarId, XV}, {Y->VarId, YV}};
  APInt Expected = B.evaluate(T, Assign);

  SatSolver S;
  BitBlaster BB(S);
  BB.assertTrue(B.mkEq(X, B.mkConst(XV)));
  BB.assertTrue(B.mkEq(Y, B.mkConst(YV)));
  (void)BB.blast(T);
  ASSERT_EQ(S.solve(), SatSolver::Result::Sat)
      << "kind " << (int)K << " width " << W;
  EXPECT_EQ(BB.modelValue(T), Expected)
      << "kind " << (int)K << " width " << W << " x=" << XV.toString()
      << " y=" << YV.toString() << (OddY ? " (y | 1)" : "");
}

} // namespace

// Property: with inputs pinned to concrete values, the SAT model of a term
// equals the Term evaluator's result, for every term kind and many widths.
class BlasterKindTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(BlasterKindTest, BlastAgreesWithEvaluate) {
  unsigned W = GetParam();
  RandomGenerator RNG(100 + W);
  for (TermKind K : AllKinds)
    for (int Trial = 0; Trial != 8; ++Trial) {
      APInt XV = RNG.nextAPInt(W), YV = RNG.nextAPInt(W);
      expectBlastAgrees(K, XV, YV);
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, BlasterKindTest,
                         ::testing::Values(1, 2, 3, 7, 8, 13, 16, 32, 63,
                                           64));

// The divider works on the live low bits of its partial remainder only, so
// each width has its own edge cases: every operand pair at widths 1-5,
// which includes y = 0 and INT_MIN / -1.
TEST(BlasterTest, DividersAgreeExhaustively) {
  for (unsigned W = 1; W <= 5; ++W)
    for (TermKind K : DivKinds)
      for (uint64_t XV = 0; XV != 1u << W; ++XV)
        for (uint64_t YV = 0; YV != 1u << W; ++YV) {
          expectBlastAgrees(K, APInt(W, XV), APInt(W, YV));
          if (HasFailure())
            return;
        }
}

// Wide dividers on the operands whose trimmed compare is decided by the
// divisor's high bits: y = 0, y = 1, x < y, y = 2^(W-1) and an odd y.
TEST(BlasterTest, WideDividerEdgeCases) {
  RandomGenerator RNG(4242);
  for (unsigned W : {32u, 63u, 64u}) {
    APInt Top = APInt::getOneBitSet(W, W - 1);
    APInt Small = RNG.nextAPInt(W).lshr(W / 2);
    APInt Big = RNG.nextAPInt(W) | APInt::getOneBitSet(W, W - 2);
    APInt Any = RNG.nextAPInt(W);
    for (TermKind K : DivKinds) {
      expectBlastAgrees(K, Any, APInt::getZero(W));
      expectBlastAgrees(K, Any, APInt::getOne(W));
      expectBlastAgrees(K, Small, Big);
      expectBlastAgrees(K, Big, Small);
      expectBlastAgrees(K, Any, Top);
      expectBlastAgrees(K, Top, Top);
      expectBlastAgrees(K, Top, APInt::getAllOnes(W));
      expectBlastAgrees(K, Any, Small, /*OddY=*/true);
      expectBlastAgrees(K, Big, APInt::getZero(W), /*OddY=*/true);
    }
  }
}

// Formula-size pin, the divider's regression gate on a counter that does
// not jitter. The untrimmed divider (a full-width compare and subtract on
// every step) took 48,838 variables for udiv i64 and 734 for urem i8; the
// trimmed one must take at most half.
TEST(BlasterTest, DividerFormulaSize) {
  auto VarsOf = [](TermKind K, unsigned W) {
    TermBuilder B;
    TermRef X = B.mkVar(W, "x"), Y = B.mkVar(W, "y");
    SatSolver S;
    BitBlaster BB(S);
    (void)BB.blast(buildKind(B, K, X, Y, W));
    return S.numVars();
  };
  EXPECT_LE(VarsOf(TermKind::UDiv, 64), 48838 / 2);
  EXPECT_LE(VarsOf(TermKind::URem, 8), 734 / 2);
}

TEST(BlasterTest, AlgebraicIdentitiesAreUnsat) {
  // Each identity is asserted to FAIL for some input; UNSAT proves it holds
  // universally.
  struct Identity {
    const char *Name;
    std::function<TermRef(TermBuilder &, TermRef, TermRef)> Make;
  };
  const unsigned W = 8;
  std::vector<Identity> Identities = {
      {"x+y == y+x",
       [](TermBuilder &B, TermRef X, TermRef Y) {
         return B.mkNe(B.mkAdd(X, Y), B.mkAdd(Y, X));
       }},
      {"x-x == 0",
       [&](TermBuilder &B, TermRef X, TermRef Y) {
         return B.mkNe(B.mkSub(X, X), B.mkConst(W, 0));
       }},
      {"x*2 == x+x",
       [&](TermBuilder &B, TermRef X, TermRef Y) {
         return B.mkNe(B.mkMul(X, B.mkConst(W, 2)), B.mkAdd(X, X));
       }},
      {"x<<1 == x*2",
       [&](TermBuilder &B, TermRef X, TermRef Y) {
         return B.mkNe(B.mkShl(X, B.mkConst(W, 1)),
                       B.mkMul(X, B.mkConst(W, 2)));
       }},
      {"de morgan",
       [](TermBuilder &B, TermRef X, TermRef Y) {
         return B.mkNe(B.mkNot(B.mkAnd(X, Y)),
                       B.mkOr(B.mkNot(X), B.mkNot(Y)));
       }},
      {"y!=0 -> (x udiv y)*y + (x urem y) == x",
       [&](TermBuilder &B, TermRef X, TermRef Y) {
         TermRef NZ = B.mkNe(Y, B.mkConst(W, 0));
         TermRef Id = B.mkEq(
             B.mkAdd(B.mkMul(B.mkUDiv(X, Y), Y), B.mkURem(X, Y)), X);
         return B.mkAnd(NZ, B.mkNot(Id));
       }},
      {"y!=0 -> (x sdiv y)*y + (x srem y) == x",
       [&](TermBuilder &B, TermRef X, TermRef Y) {
         TermRef NZ = B.mkNe(Y, B.mkConst(W, 0));
         TermRef Id = B.mkEq(
             B.mkAdd(B.mkMul(B.mkSDiv(X, Y), Y), B.mkSRem(X, Y)), X);
         return B.mkAnd(NZ, B.mkNot(Id));
       }},
      {"slt == ult with flipped signs",
       [&](TermBuilder &B, TermRef X, TermRef Y) {
         TermRef Flip = B.mkConst(APInt::getSignedMinValue(W));
         return B.mkNe(B.mkSlt(X, Y),
                       B.mkUlt(B.mkXor(X, Flip), B.mkXor(Y, Flip)));
       }},
      {"zext-trunc keeps low bits",
       [&](TermBuilder &B, TermRef X, TermRef Y) {
         return B.mkNe(B.mkTrunc(B.mkZExt(X, W + 4), W), X);
       }},
      {"ashr sign fill",
       [&](TermBuilder &B, TermRef X, TermRef Y) {
         // (x ashr 7) is 0 or -1 for i8.
         TermRef Sh = B.mkAShr(X, B.mkConst(W, W - 1));
         return B.mkAnd(B.mkNe(Sh, B.mkConst(W, 0)),
                        B.mkNe(Sh, B.mkConst(APInt::getAllOnes(W))));
       }},
  };

  for (const auto &Id : Identities) {
    TermBuilder B;
    TermRef X = B.mkVar(W, "x"), Y = B.mkVar(W, "y");
    SatSolver S;
    BitBlaster BB(S);
    BB.assertTrue(Id.Make(B, X, Y));
    EXPECT_EQ(S.solve(), SatSolver::Result::Unsat) << Id.Name;
  }
}

TEST(BlasterTest, FindsCounterexamples) {
  // x * y == y is NOT an identity; the model must be a real countermodel.
  const unsigned W = 8;
  TermBuilder B;
  TermRef X = B.mkVar(W, "x"), Y = B.mkVar(W, "y");
  SatSolver S;
  BitBlaster BB(S);
  TermRef Claim = B.mkNe(B.mkMul(X, Y), Y);
  BB.assertTrue(Claim);
  ASSERT_EQ(S.solve(), SatSolver::Result::Sat);
  auto Assign = BB.extractAssignment();
  EXPECT_EQ(B.evaluate(Claim, Assign), APInt(1, 1));
  EXPECT_NE(BB.modelValue(X) * BB.modelValue(Y), BB.modelValue(Y));
}

TEST(BlasterTest, IteSelects) {
  const unsigned W = 4;
  TermBuilder B;
  TermRef C = B.mkVar(1, "c");
  TermRef T = B.mkIte(C, B.mkConst(W, 5), B.mkConst(W, 9));
  {
    SatSolver S;
    BitBlaster BB(S);
    BB.assertTrue(C);
    const auto &Bits = BB.blast(T);
    (void)Bits;
    ASSERT_EQ(S.solve(), SatSolver::Result::Sat);
    EXPECT_EQ(BB.modelValue(T).getZExtValue(), 5u);
  }
  {
    SatSolver S;
    BitBlaster BB(S);
    BB.assertTrue(B.mkNot(C));
    const auto &Bits = BB.blast(T);
    (void)Bits;
    ASSERT_EQ(S.solve(), SatSolver::Result::Sat);
    EXPECT_EQ(BB.modelValue(T).getZExtValue(), 9u);
  }
}

TEST(TermBuilderTest, HashConsing) {
  TermBuilder B;
  TermRef X = B.mkVar(8, "x");
  EXPECT_EQ(B.mkAdd(X, B.mkConst(8, 1)), B.mkAdd(X, B.mkConst(8, 1)));
  EXPECT_NE(B.mkAdd(X, B.mkConst(8, 1)), B.mkAdd(X, B.mkConst(8, 2)));
  // Constant folding in the builder.
  EXPECT_TRUE(B.mkAdd(B.mkConst(8, 3), B.mkConst(8, 4))->isConst());
  EXPECT_EQ(B.mkAdd(B.mkConst(8, 3), B.mkConst(8, 4))->ConstVal.getZExtValue(),
            7u);
  // Not-not cancellation and ite folding.
  EXPECT_EQ(B.mkNot(B.mkNot(X)), X);
  EXPECT_EQ(B.mkIte(B.mkTrue(), X, B.mkConst(8, 0)), X);
  EXPECT_EQ(B.mkIte(B.mkVar(1, "c"), X, X), X);
}

namespace {

/// Picks an operand, preferring the newest terms so chains grow deep while
/// older terms keep being shared.
TermRef pickFrom(RandomGenerator &RNG, const std::vector<TermRef> &Pool) {
  if (Pool.size() > 4 && RNG.flip())
    return Pool[Pool.size() - 1 - RNG.below(4)];
  return Pool[RNG.below(Pool.size())];
}

/// A random forest of term DAGs over word variables of width \p W and one
/// boolean variable; returns its width-1 roots. Every TermKind appears as
/// the generator cycles through them, each node draws its operands from
/// earlier nodes (so subterms are shared across roots), and every root is
/// accompanied by its negation.
std::vector<TermRef> randomForest(TermBuilder &B, RandomGenerator &RNG,
                                  const std::vector<TermRef> &WordVars,
                                  TermRef BoolVar, unsigned W) {
  std::vector<TermRef> Words = WordVars, Bools{BoolVar};
  Words.push_back(B.mkConst(RNG.nextAPInt(W)));
  for (int Round = 0; Round != 2; ++Round)
    for (TermKind K : AllKinds) {
      TermRef X = pickFrom(RNG, Words), Y = pickFrom(RNG, Words);
      switch (K) {
      case TermKind::Eq:
      case TermKind::Ult:
      case TermKind::Slt:
        Bools.push_back(buildKind(B, K, X, Y, W));
        break;
      case TermKind::And:
      case TermKind::Or:
      case TermKind::Xor:
      case TermKind::Not:
        Words.push_back(buildKind(B, K, X, Y, W));
        Bools.push_back(
            buildKind(B, K, pickFrom(RNG, Bools), pickFrom(RNG, Bools), 1));
        break;
      case TermKind::ZExt:
      case TermKind::SExt: {
        // Back to W bits through the extension's top bits.
        TermRef Ext = buildKind(B, K, X, Y, W);
        Words.push_back(B.mkTrunc(B.mkLShr(Ext, B.mkConst(W + 3, 3)), W));
        break;
      }
      case TermKind::Trunc:
        if (W > 1)
          Words.push_back(B.mkSExt(buildKind(B, K, X, Y, W), W));
        break;
      default:
        Words.push_back(buildKind(B, K, X, Y, W));
        break;
      }
      if (RNG.chance(1, 4))
        Words.push_back(B.mkIte(pickFrom(RNG, Bools), X, Y));
    }

  std::vector<TermRef> Roots;
  for (TermRef R : Bools)
    if (!R->isConst())
      Roots.push_back(R);
  // Identities are unsatisfiable roots: the blaster must lower both sides
  // to gates the solver can equate.
  TermRef X = pickFrom(RNG, Words), Y = pickFrom(RNG, Words);
  Roots.push_back(B.mkNe(B.mkAdd(X, Y), B.mkAdd(Y, X)));
  Roots.push_back(B.mkNe(B.mkMul(X, Y), B.mkMul(Y, X)));
  Roots.push_back(
      B.mkNe(B.mkSub(X, Y), B.mkAdd(X, B.mkSub(B.mkConst(W, 0), Y))));
  size_t N = Roots.size();
  for (size_t I = 0; I != N; ++I)
    Roots.push_back(B.mkNot(Roots[I]));
  return Roots;
}

} // namespace

// Property: gates shared across many terms in one blaster stay sound. Each
// width-1 root of a random forest is checked against exhaustive evaluation
// of its inputs (16 bits at most): the solver's verdict must match whether
// any assignment satisfies the root, and each model must evaluate every
// root of the forest to the value the model gives it.
TEST(BlasterTest, SharedGatesAgreeWithExhaustiveEvaluation) {
  RandomGenerator RNG(2718);
  unsigned Checked = 0, Satisfiable = 0;
  for (int Trial = 0; Trial != 25; ++Trial) {
    // Three words and a bool: 3W + 1 bits, 16 for the first trial only
    // (exhaustive evaluation dominates the test's time).
    unsigned W = Trial == 0 ? 5 : 1 + Trial % 4;
    TermBuilder B;
    std::vector<TermRef> WordVars = {B.mkVar(W, "x"), B.mkVar(W, "y"),
                                     B.mkVar(W, "z")};
    TermRef C = B.mkVar(1, "c");
    std::vector<TermRef> Roots = randomForest(B, RNG, WordVars, C, W);

    // Exhaustive ground truth: which roots some assignment satisfies.
    std::vector<bool> Truth(Roots.size(), false);
    unsigned Bits = 3 * W + 1;
    for (uint64_t V = 0; V != 1ULL << Bits; ++V) {
      std::map<unsigned, APInt> Assign;
      for (unsigned I = 0; I != 3; ++I)
        Assign.emplace(WordVars[I]->VarId, APInt(W, V >> (I * W)));
      Assign.emplace(C->VarId, APInt(1, V >> (3 * W)));
      for (size_t R = 0; R != Roots.size(); ++R)
        if (!Truth[R] && !B.evaluate(Roots[R], Assign).isZero())
          Truth[R] = true;
    }

    for (size_t R = 0; R != Roots.size(); ++R) {
      SatSolver S;
      BitBlaster BB(S);
      for (TermRef Other : Roots)
        (void)BB.blast(Other);
      BB.assertTrue(Roots[R]);
      SatSolver::Result Res = S.solve();
      ++Checked;
      ASSERT_EQ(Res == SatSolver::Result::Sat, (bool)Truth[R])
          << "trial " << Trial << " root " << R;
      if (Res != SatSolver::Result::Sat)
        continue;
      ++Satisfiable;
      std::map<unsigned, APInt> Model = BB.extractAssignment();
      EXPECT_FALSE(B.evaluate(Roots[R], Model).isZero());
      for (TermRef Other : Roots)
        EXPECT_EQ(BB.modelValue(Other), B.evaluate(Other, Model))
            << "trial " << Trial << " root " << R;
    }
  }
  // Both verdicts occur, so neither side of the comparison is vacuous.
  EXPECT_GT(Satisfiable, 0u);
  EXPECT_LT(Satisfiable, Checked);
}

// Structural hashing pins: commuted operands reuse every gate, and a
// negated XOR input reuses the gate as its negation.
TEST(BlasterTest, SharesGatesAcrossTerms) {
  TermBuilder B;
  TermRef X = B.mkVar(16, "x"), Y = B.mkVar(16, "y");
  SatSolver S;
  BitBlaster BB(S);
  std::vector<Lit> XY = BB.blast(B.mkAdd(X, Y));
  int Vars = S.numVars();
  EXPECT_EQ(BB.blast(B.mkAdd(Y, X)), XY);
  EXPECT_EQ(S.numVars(), Vars);

  std::vector<Lit> Xor = BB.blast(B.mkXor(X, Y));
  std::vector<Lit> XorNot = BB.blast(B.mkXor(B.mkNot(X), Y));
  for (unsigned I = 0; I != 16; ++I)
    EXPECT_EQ(XorNot[I], -Xor[I]);

  BB.assertTrue(B.mkNe(B.mkAdd(X, Y), B.mkAdd(Y, X)));
  EXPECT_EQ(S.solve(), SatSolver::Result::Unsat);
  EXPECT_EQ(S.stats().Conflicts, 0u);
}

TEST(BlasterTest, BlastsDeepChain) {
  // A long linear chain must not overflow the blaster (explicit stack).
  TermBuilder B;
  TermRef X = B.mkVar(1, "x"), Y = B.mkVar(1, "y");
  TermRef T = X;
  for (int I = 0; I != 100000; ++I)
    T = B.mkAdd(T, Y);
  SatSolver S;
  BitBlaster BB(S);
  // An even number of additions of y leaves x.
  BB.assertTrue(B.mkNe(T, X));
  EXPECT_EQ(S.solve(), SatSolver::Result::Unsat);
}

TEST(TermBuilderTest, EvaluateDeepChain) {
  // A long linear chain must not overflow the evaluator (explicit stack).
  TermBuilder B;
  TermRef X = B.mkVar(16, "x");
  TermRef T = X;
  for (int I = 0; I != 20000; ++I)
    T = B.mkAdd(T, B.mkConst(16, 1));
  std::map<unsigned, APInt> Assign{{X->VarId, APInt(16, 5)}};
  EXPECT_EQ(B.evaluate(T, Assign).getZExtValue(), (5 + 20000) & 0xFFFF);
}

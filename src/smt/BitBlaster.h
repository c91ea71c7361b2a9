//===- smt/BitBlaster.h - Term -> CNF lowering -----------------*- C++ -*-===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lowers bit-vector terms to CNF via Tseitin encoding: ripple-carry
/// adders, shift-add multipliers, restoring dividers, barrel shifters and
/// comparator chains. Every Term node gets a vector of SAT literals
/// (LSB first); results are cached so the DAG is lowered once.
///
/// Gates are hash-consed as well: one Tseitin variable per (kind, inputs).
/// AND is keyed on its ordered input pair, XOR on its ordered pair of
/// positive inputs with the sign parity applied to the result, so
/// xor(-a, b) is the negation of xor(a, b). OR and MUX are built from AND
/// and share through it. A repeated gate, within one term or across terms
/// lowered into the same blaster, returns the literal it already has, and
/// the solver never has to rediscover that two copies are equal.
///
/// blast() walks the term with an explicit post-order stack, operands left
/// to right, so term depth is bounded by memory rather than the C++ stack.
///
//===----------------------------------------------------------------------===//

#ifndef SMT_BITBLASTER_H
#define SMT_BITBLASTER_H

#include "smt/SatSolver.h"
#include "smt/Term.h"

#include <map>
#include <unordered_map>
#include <vector>

namespace alive {

/// Lowers terms into clauses of a SatSolver.
class BitBlaster {
public:
  explicit BitBlaster(SatSolver &Solver);

  /// Lowers \p T; \returns its bits, LSB first.
  const std::vector<Lit> &blast(TermRef T);

  /// Lowers a width-1 term to a single literal.
  Lit blastBit(TermRef T) {
    assert(T->Width == 1 && "blastBit on wide term");
    return blast(T)[0];
  }

  /// Asserts that the width-1 term \p T is true.
  void assertTrue(TermRef T) { Solver.addClause(blastBit(T)); }

  /// The literal that is constant true.
  Lit trueLit() const { return TrueLit; }

  /// After a Sat result: extracts the model value of \p T.
  APInt modelValue(TermRef T);

  /// After a Sat result: extracts the assignment of every Var term seen
  /// during blasting, keyed by VarId.
  std::map<unsigned, APInt> extractAssignment();

private:
  // Gate constructors (Tseitin).
  Lit mkAnd(Lit A, Lit B);
  Lit mkOr(Lit A, Lit B);
  Lit mkXor(Lit A, Lit B);
  Lit mkMux(Lit Sel, Lit T, Lit E);
  Lit freshLit() { return Solver.newVar(); }

  /// Lowers one node whose operands are all in Cache.
  std::vector<Lit> blastNode(TermRef T);

  /// A + B + CarryIn over A's width; the carry out of the top bit goes
  /// to \p CarryOut when given.
  std::vector<Lit> addBits(const std::vector<Lit> &A,
                           const std::vector<Lit> &B, Lit CarryIn,
                           Lit *CarryOut = nullptr);
  std::vector<Lit> negate(const std::vector<Lit> &A);
  std::vector<Lit> mulBits(const std::vector<Lit> &A,
                           const std::vector<Lit> &B);
  /// Unsigned division: fills Quot and Rem. When B == 0 the outputs follow
  /// the total convention (Quot = 0, Rem = A), matching Term evaluation.
  /// Step k of the W steps compares and subtracts over the k + 1 live bits
  /// of the partial remainder only, taking Rem >= B from the subtractor's
  /// carry-out.
  void udivrem(const std::vector<Lit> &A, const std::vector<Lit> &B,
               std::vector<Lit> &Quot, std::vector<Lit> &Rem);
  /// Borrow-out of A - B, i.e. the literal for (A ult B).
  Lit ultBit(const std::vector<Lit> &A, const std::vector<Lit> &B);
  Lit eqBit(const std::vector<Lit> &A, const std::vector<Lit> &B);
  std::vector<Lit> shiftBits(TermKind Kind, const std::vector<Lit> &A,
                             const std::vector<Lit> &Amt);
  std::vector<Lit> muxBits(Lit Sel, const std::vector<Lit> &T,
                           const std::vector<Lit> &E);

  SatSolver &Solver;
  Lit TrueLit;
  std::unordered_map<TermRef, std::vector<Lit>> Cache;
  std::map<unsigned, std::pair<unsigned, std::vector<Lit>>> VarBits;
  /// One output literal per gate input pair (see the file comment).
  std::unordered_map<uint64_t, Lit> AndGates, XorGates;
};

} // namespace alive

#endif // SMT_BITBLASTER_H

//===- Expr.h - Affine expressions with uninterpreted functions -*- C++ -*-===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//
//
// Expressions of the sparse polyhedral framework layer: integer-linear
// combinations of *atoms*, where an atom is either a named variable or a
// call to an uninterpreted function (UF) whose arguments are themselves
// expressions — e.g. `rowptr(i + 1) - 1` or `col(row(m))`. Index arrays of
// sparse formats appear as arity-1 UFs, exactly as in the paper (§2.1).
//
// Expressions are kept canonical (terms sorted and merged, zero terms
// dropped), so structural equality is semantic equality of the syntax tree.
// Two syntactically equal UF calls always denote the same value, which the
// flattener exploits by mapping them to one column (a free partial
// functional-consistency).
//
// Atoms are hash-consed in the small: an Atom is a handle to an immutable,
// reference-counted node that carries a structural hash computed once when
// the node is built. Copying an atom copies a pointer, equality is a
// pointer test or a hash test followed by a structural compare, and maps
// key on the hash (std::hash below) rather than on a printed form. There is
// no global table: nodes die with their last handle, so a long-lived
// process does not accumulate them, and no lock is taken. str() is for
// output only.
//
//===----------------------------------------------------------------------===//

#ifndef SDS_IR_EXPR_H
#define SDS_IR_EXPR_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace sds {
namespace ir {

class Expr;

/// Mix `V` into the running hash `H` (64-bit, deterministic across runs).
inline uint64_t hashCombine(uint64_t H, uint64_t V) {
  uint64_t X = H ^ (V * 0x9E3779B97F4A7C15ULL);
  X ^= X >> 32;
  X *= 0xD6E8FEB86659FD93ULL;
  return X ^ (X >> 32);
}

/// A variable reference or an uninterpreted function call: a handle to an
/// immutable shared node.
class Atom {
public:
  enum class Kind { Var, Call };

  static Atom var(std::string Name);
  static Atom call(std::string Fn, std::vector<Expr> Args);

  Atom(const Atom &O) : N(O.N) {
    N->Refs.fetch_add(1, std::memory_order_relaxed);
  }
  Atom(Atom &&O) noexcept : N(O.N) { O.N = nullptr; }
  Atom &operator=(const Atom &O) {
    Atom Tmp(O);
    std::swap(N, Tmp.N);
    return *this;
  }
  Atom &operator=(Atom &&O) noexcept {
    std::swap(N, O.N);
    return *this;
  }
  ~Atom() {
    if (N && N->Refs.fetch_sub(1, std::memory_order_acq_rel) == 1)
      release(N);
  }

  Kind kind() const { return N->K; }
  bool isVar() const { return N->K == Kind::Var; }
  bool isCall() const { return N->K == Kind::Call; }
  /// Variable or function name.
  const std::string &name() const { return N->Name; }
  /// Call arguments (empty for Var).
  const std::vector<Expr> &args() const { return N->Args; }
  /// Structural hash: equal atoms hash equal.
  uint64_t hash() const { return N->Hash; }

  /// Total order used for canonicalization (Vars before Calls, then by
  /// name, then by arguments).
  int compare(const Atom &O) const {
    return N == O.N ? 0 : compareSlow(O);
  }
  bool operator==(const Atom &O) const {
    return N == O.N || (N->Hash == O.N->Hash && compareSlow(O) == 0);
  }
  bool operator<(const Atom &O) const { return compare(O) < 0; }

  /// Canonical printable form, e.g. "rowptr(i + 1)".
  std::string str() const;

private:
  struct Node {
    std::atomic<uint32_t> Refs{1};
    Kind K;
    uint64_t Hash = 0;
    std::string Name;
    std::vector<Expr> Args; // Expr is complete wherever a Node is built
  };

  explicit Atom(Node *N) : N(N) {}
  int compareSlow(const Atom &O) const;
  static void release(Node *N);

  Node *N;
};

/// A canonical integer-linear combination of atoms plus a constant.
class Expr {
public:
  struct Term {
    int64_t Coeff;
    Atom A;
  };

  Expr() : Const(0) {}
  /*implicit*/ Expr(int64_t C) : Const(C) {}

  static Expr var(std::string Name) {
    return Expr(1, Atom::var(std::move(Name)));
  }
  static Expr call(std::string Fn, std::vector<Expr> Args) {
    return Expr(1, Atom::call(std::move(Fn), std::move(Args)));
  }
  Expr(int64_t Coeff, Atom A);

  const std::vector<Term> &terms() const { return Terms; }
  int64_t constant() const { return Const; }

  bool isConstant() const { return Terms.empty(); }
  /// True when the expression is exactly one atom with coefficient +1 and
  /// no constant (e.g. a bare variable or bare call).
  bool isSingleAtom() const {
    return Const == 0 && Terms.size() == 1 && Terms[0].Coeff == 1;
  }

  Expr operator+(const Expr &O) const;
  Expr operator-(const Expr &O) const;
  Expr operator-() const;
  Expr operator*(int64_t K) const;
  Expr &operator+=(const Expr &O) { return *this = *this + O; }
  Expr &operator-=(const Expr &O) { return *this = *this - O; }

  int compare(const Expr &O) const;
  bool operator==(const Expr &O) const {
    return Const == O.Const && sameLinearPart(O, 1);
  }
  bool operator<(const Expr &O) const { return compare(O) < 0; }

  /// Structural hash: equal expressions hash equal.
  uint64_t hash() const { return hashCombine(linearHash(1), uint64_t(Const)); }
  /// Hash of the linear part (the terms, constant excluded) multiplied by
  /// `Sign`: linearHash(-1) of `e` is linearHash(1) of `-e`.
  uint64_t linearHash(int64_t Sign) const;
  /// Do the terms of this expression equal those of `O` times `Sign`?
  bool sameLinearPart(const Expr &O, int64_t Sign) const;

  /// Substitute variables by expressions, including inside UF-call
  /// arguments at any depth. Unmapped variables are left untouched, and a
  /// call none of whose arguments changes keeps its node.
  Expr substitute(const std::map<std::string, Expr> &Map) const;

  /// Collect every UF call appearing in this expression (including calls
  /// nested inside other calls' arguments), outermost first.
  void collectCalls(std::vector<Atom> &Out) const;

  /// Collect the names of all variables appearing (at any depth).
  void collectVars(std::vector<std::string> &Out) const;

  /// Canonical printable form, e.g. "rowptr(i + 1) - k - 1".
  std::string str() const;

private:
  void normalize();
  bool substituteInto(const std::map<std::string, Expr> &Map,
                      Expr &Out) const;

  std::vector<Term> Terms; // sorted by atom, no zero coefficients
  int64_t Const;
};

} // namespace ir
} // namespace sds

template <> struct std::hash<sds::ir::Atom> {
  size_t operator()(const sds::ir::Atom &A) const { return A.hash(); }
};

#endif // SDS_IR_EXPR_H

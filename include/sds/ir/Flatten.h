//===- Flatten.h - Lower UF constraints to integer polyhedra ----*- C++ -*-===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//
//
// Following §6.1 of the paper: "The uninterpreted functions are removed by
// replacing each call with a fresh variable ... before calling ISL to test
// for satisfiability and to expose equalities." The flattener assigns one
// column per named variable and one column per *structurally distinct* UF
// call (so syntactically equal calls share a column, which encodes the
// easy half of functional consistency for free), producing a
// presburger::BasicSet plus the mapping needed to translate discovered
// equality rows back into UF expressions.
//
//===----------------------------------------------------------------------===//

#ifndef SDS_IR_FLATTEN_H
#define SDS_IR_FLATTEN_H

#include "sds/ir/Relation.h"
#include "sds/presburger/BasicSet.h"

#include <string>
#include <unordered_map>
#include <vector>

namespace sds {
namespace ir {

/// A conjunction lowered to an integer polyhedron, with the column <-> atom
/// correspondence retained.
struct Flattened {
  presburger::BasicSet Set;
  std::vector<Atom> Cols;                    ///< Atom of each column.
  std::unordered_map<Atom, unsigned> ColIndex; ///< atom -> column.
  /// Row provenance: for each equality (resp. inequality) row of `Set`, the
  /// index into the source Conjunction's constraints() it was lowered from.
  /// Together with presburger::EmptinessCore this maps an integer-level
  /// unsat core back onto UF-level constraints.
  std::vector<unsigned> EqRowConstraint;
  std::vector<unsigned> IneqRowConstraint;

  Flattened() : Set(0) {}

  /// Look up the column of a variable or call atom; returns numVars() when
  /// the atom has no column.
  unsigned columnOf(const Atom &A) const {
    auto It = ColIndex.find(A);
    return It == ColIndex.end() ? Set.numVars() : It->second;
  }

  /// Printable name per column (Atom::str), for output.
  std::vector<std::string> names() const;

  /// Translate a constraint row (numVars + 1 wide) back into an Expr.
  Expr rowToExpr(const std::vector<int64_t> &Row) const;
};

/// Lower `C` to a polyhedron. `VarOrder` fixes the first columns (tuple
/// variables first is the usual choice); parameters and any variables not
/// listed are appended next, and call columns last, in discovery order.
Flattened flatten(const Conjunction &C,
                  const std::vector<std::string> &VarOrder);

/// Convenience: flatten a relation with column order
/// [InVars, OutVars, ExistVars, params..., calls...].
Flattened flatten(const SparseRelation &R);

/// A relation's conjunction (the base) and any number of extra constraints
/// (literals) lowered once onto one shared column space, so that a
/// conjunction "base plus a stack of literals" becomes a polyhedron without
/// copying a Conjunction or flattening it again. Phase 2 of §6.2 builds
/// its case-split pieces this way.
///
/// assemble() reproduces flatten(R) for the relation whose conjunction is
/// the base with the stack's literals added in order through
/// Conjunction::add (so exact duplicates and trivially-true literals are
/// dropped): the same columns in the same order, the same rows in the same
/// order, the same row provenance. Points are exchanged in *global*
/// coordinates, one value per column of the shared space; a column a point
/// predates reads 0.
class LoweredSpace {
public:
  LoweredSpace(const SparseRelation &R, const Conjunction &Base);

  /// Lower `C` as a literal and return its id; equal literals share one.
  unsigned addLiteral(const Constraint &C);
  const Constraint &literal(unsigned Id) const { return Lits[Id].C; }

  /// One assembled piece. `F` carries Set, Cols and the row provenance
  /// (indices into the piece's constraint list: the base's constraints,
  /// then the literals of `Kept`); F.ColIndex stays empty.
  struct Piece {
    Flattened F;
    std::vector<unsigned> Kept;   ///< literal ids that survived dedup
    std::vector<unsigned> Global; ///< global column of each column of F
  };
  void assemble(const std::vector<unsigned> &Stack, Piece &Out) const;

  /// The constraint behind row-provenance index `CI` of piece `P`.
  const Constraint &constraintOf(const Piece &P, unsigned CI) const;

  /// Does the global point `Point` satisfy literal `Id`? Exact in 128 bits;
  /// an overflowing value counts as violated.
  bool satisfies(unsigned Id, const std::vector<int64_t> &Point) const;

  /// A point of piece `P`'s set (one value per column of P.F) in global
  /// coordinates; columns outside the piece read 0.
  std::vector<int64_t> lift(const Piece &P,
                            const std::vector<int64_t> &Point) const;

private:
  /// A constraint as sparse global-column terms, plus the non-tuple
  /// variable columns it mentions (appearance order, as
  /// Conjunction::collectVars walks it) and its call columns.
  struct Row {
    std::vector<std::pair<unsigned, int64_t>> Terms;
    int64_t Const = 0;
    bool IsEq = false;
    std::vector<unsigned> Vars, Calls;
  };
  struct Literal {
    Constraint C;
    Row L;
    bool Live = true; ///< false: trivially true or part of the base
  };

  unsigned columnOf(const Atom &A);
  Row lower(const Constraint &C);

  unsigned NumTuple = 0;   ///< leading columns: In, Out, Exist vars
  std::vector<Atom> Atoms; ///< per global column
  std::unordered_map<Atom, unsigned> Index;
  std::vector<unsigned> CallRank; ///< per global column: rank among calls
  std::vector<unsigned> BaseVars, BaseCalls;
  /// The base's constraints first (ids 0 .. NumBase-1, never Live), then
  /// the literals added since.
  std::vector<Literal> Lits;
  unsigned NumBase = 0;
  std::unordered_map<Constraint, unsigned> LitIds;
};

/// Integer points that earlier emptiness solves found, keyed by column
/// atom (Flattened::Cols), so a point found for one flattened set can
/// answer a later set over the same atoms. Nearly every emptiness query of
/// an analysis finds points; a stored point that lies in the queried set
/// answers "non-empty" without a solve.
///
/// A hit only ever stands in for a False or Unknown verdict — a set that
/// holds a known integer point cannot be proven empty — and both already
/// mean "not proven empty" to every caller, so verdicts, and the cores of
/// True verdicts (which still come from the solver), are unchanged. A pool
/// serves one dependence's analysis on one thread: no locking.
class WitnessPool {
public:
  /// Integer emptiness of `Set`, whose columns stand for `Cols`. A stored
  /// point with a value for every column that satisfies every row
  /// (checked exactly) answers False; otherwise this is
  /// `Set.isEmpty(Budget, Core)`, and the point behind a False verdict is
  /// stored. Hits count in the `presburger.witness_hits` metric. On a
  /// False verdict `Answer` (when non-null) receives the point that
  /// answered, stored or solved, in `Set`'s column order.
  presburger::Ternary isEmpty(const presburger::BasicSet &Set,
                              const std::vector<Atom> &Cols,
                              unsigned Budget,
                              presburger::EmptinessCore *Core = nullptr,
                              std::vector<int64_t> *Answer = nullptr);

  size_t size() const { return Points.size(); }

private:
  static constexpr size_t kMaxPoints = 64;
  /// Values indexed by atom id; `Known[Id]` is false where the solve that
  /// found the point had no column for that atom.
  struct Point {
    std::vector<int64_t> Values;
    std::vector<bool> Known;
  };
  std::unordered_map<Atom, unsigned> Ids;
  std::vector<Point> Points; ///< most recently useful first
};

} // namespace ir
} // namespace sds

#endif // SDS_IR_FLATTEN_H

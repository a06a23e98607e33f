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

#include <map>
#include <string>
#include <vector>

namespace sds {
namespace ir {

/// A conjunction lowered to an integer polyhedron, with the column <-> atom
/// correspondence retained.
struct Flattened {
  presburger::BasicSet Set;
  std::vector<Atom> Cols;         ///< Atom represented by each column.
  std::vector<std::string> Names; ///< Printable name per column.
  std::map<std::string, unsigned> ColIndex; ///< atom.str() -> column.
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
    auto It = ColIndex.find(A.str());
    return It == ColIndex.end() ? Set.numVars() : It->second;
  }

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

/// Integer points that earlier emptiness solves found, keyed by column
/// name (Flattened::Names), so a point found for one flattened set can
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
  /// Integer emptiness of `Set`, whose columns are named `Names`. A stored
  /// point with a value for every column that satisfies every row
  /// (checked exactly) answers False; otherwise this is
  /// `Set.isEmpty(Budget, Core)`, and the point behind a False verdict is
  /// stored. Hits count in the `presburger.witness_hits` metric.
  presburger::Ternary isEmpty(const presburger::BasicSet &Set,
                              const std::vector<std::string> &Names,
                              unsigned Budget,
                              presburger::EmptinessCore *Core = nullptr);

  size_t size() const { return Points.size(); }

private:
  static constexpr size_t kMaxPoints = 64;
  /// Values indexed by name id; `Known[Id]` is false where the solve that
  /// found the point had no column of that name.
  struct Point {
    std::vector<int64_t> Values;
    std::vector<bool> Known;
  };
  std::map<std::string, unsigned> Ids;
  std::vector<Point> Points; ///< most recently useful first
};

} // namespace ir
} // namespace sds

#endif // SDS_IR_FLATTEN_H

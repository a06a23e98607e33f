//===- Flatten.cpp - Lower UF constraints to integer polyhedra -----------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//

#include "sds/ir/Flatten.h"

#include "sds/obs/Metrics.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>

namespace sds {
namespace ir {

Expr Flattened::rowToExpr(const std::vector<int64_t> &Row) const {
  assert(Row.size() == Cols.size() + 1 && "row width mismatch");
  Expr E(Row.back());
  for (size_t J = 0; J < Cols.size(); ++J)
    if (Row[J] != 0)
      E += Expr(Row[J], Cols[J]);
  return E;
}

Flattened flatten(const Conjunction &C,
                  const std::vector<std::string> &VarOrder) {
  Flattened F;

  auto AddColumn = [&](Atom A) {
    std::string Key = A.str();
    auto [It, Inserted] =
        F.ColIndex.emplace(Key, static_cast<unsigned>(F.Cols.size()));
    if (Inserted) {
      F.Names.push_back(Key);
      F.Cols.push_back(std::move(A));
    }
    return It->second;
  };

  // 1. Named variables in the requested order.
  for (const std::string &V : VarOrder)
    AddColumn(Atom::var(V));
  // 2. Any stray variables (parameters etc.) in appearance order.
  for (const std::string &V : C.collectVars())
    AddColumn(Atom::var(V));
  // 3. One column per structurally distinct UF call (nested included, so
  //    instantiation-produced constraints over inner calls line up too).
  for (const Atom &Call : C.collectCalls())
    AddColumn(Call);

  unsigned Width = static_cast<unsigned>(F.Cols.size());
  presburger::BasicSet Set(Width);

  const std::vector<Constraint> &Cs = C.constraints();
  for (unsigned CI = 0; CI < Cs.size(); ++CI) {
    const Constraint &Cons = Cs[CI];
    std::vector<int64_t> Row(Width + 1, 0);
    Row[Width] = Cons.E.constant();
    for (const Expr::Term &T : Cons.E.terms()) {
      auto It = F.ColIndex.find(T.A.str());
      assert(It != F.ColIndex.end() && "atom without a column");
      Row[It->second] += T.Coeff;
    }
    if (Cons.isEq()) {
      Set.addEquality(std::move(Row));
      F.EqRowConstraint.push_back(CI);
    } else {
      Set.addInequality(std::move(Row));
      F.IneqRowConstraint.push_back(CI);
    }
  }

  F.Set = std::move(Set);
  return F;
}

Flattened flatten(const SparseRelation &R) {
  std::vector<std::string> Order;
  Order.insert(Order.end(), R.InVars.begin(), R.InVars.end());
  Order.insert(Order.end(), R.OutVars.begin(), R.OutVars.end());
  Order.insert(Order.end(), R.ExistVars.begin(), R.ExistVars.end());
  for (const std::string &P : R.params())
    Order.push_back(P);
  return flatten(R.Conj, Order);
}

presburger::Ternary WitnessPool::isEmpty(const presburger::BasicSet &Set,
                                         const std::vector<std::string> &Names,
                                         unsigned Budget,
                                         presburger::EmptinessCore *Core) {
  static obs::MetricCounter &Hits =
      obs::metricCounter("presburger.witness_hits");
  assert(Names.size() == Set.numVars() && "one name per column");
  std::vector<unsigned> ColId(Names.size());
  for (size_t C = 0; C < Names.size(); ++C) {
    auto It = Ids.find(Names[C]);
    ColId[C] = It == Ids.end() ? UINT32_MAX : It->second;
  }
  std::vector<int64_t> Candidate(Names.size());
  for (size_t P = 0; P < Points.size(); ++P) {
    const Point &Pt = Points[P];
    bool Covered = true;
    for (size_t C = 0; C < ColId.size() && Covered; ++C) {
      unsigned Id = ColId[C];
      Covered = Id < Pt.Known.size() && Pt.Known[Id];
      if (Covered)
        Candidate[C] = Pt.Values[Id];
    }
    if (!Covered || !Set.contains(Candidate))
      continue;
    auto It = Points.begin() + static_cast<std::ptrdiff_t>(P);
    std::rotate(Points.begin(), It, It + 1);
    if (Core) {
      Core->Rows.clear();
      Core->Valid = false;
    }
    Hits.add();
    return presburger::Ternary::False;
  }
  std::vector<int64_t> Witness;
  presburger::Ternary R = Set.isEmpty(Budget, Core, &Witness);
  if (R != presburger::Ternary::False)
    return R;
  assert(Witness.size() == Names.size() && "False verdicts carry a point");
  for (size_t C = 0; C < Names.size(); ++C)
    if (ColId[C] == UINT32_MAX)
      ColId[C] =
          Ids.emplace(Names[C], static_cast<unsigned>(Ids.size())).first->second;
  Point Pt{std::vector<int64_t>(Ids.size(), 0),
           std::vector<bool>(Ids.size(), false)};
  for (size_t C = 0; C < Names.size(); ++C) {
    Pt.Values[ColId[C]] = Witness[C];
    Pt.Known[ColId[C]] = true;
  }
  Points.insert(Points.begin(), std::move(Pt));
  if (Points.size() > kMaxPoints)
    Points.pop_back();
  return R;
}

} // namespace ir
} // namespace sds

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

std::vector<std::string> Flattened::names() const {
  std::vector<std::string> Out;
  for (const Atom &A : Cols)
    Out.push_back(A.str());
  return Out;
}

Flattened flatten(const Conjunction &C,
                  const std::vector<std::string> &VarOrder) {
  Flattened F;

  auto AddColumn = [&](const Atom &A) {
    if (F.ColIndex.emplace(A, static_cast<unsigned>(F.Cols.size())).second)
      F.Cols.push_back(A);
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
      auto It = F.ColIndex.find(T.A);
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

LoweredSpace::LoweredSpace(const SparseRelation &R, const Conjunction &Base) {
  for (const std::vector<std::string> *Tuple :
       {&R.InVars, &R.OutVars, &R.ExistVars})
    for (const std::string &V : *Tuple)
      columnOf(Atom::var(V));
  NumTuple = static_cast<unsigned>(Atoms.size());
  for (const std::string &V : Base.collectVars()) {
    unsigned G = columnOf(Atom::var(V));
    if (G >= NumTuple)
      BaseVars.push_back(G);
  }
  for (const Atom &Call : Base.collectCalls())
    BaseCalls.push_back(columnOf(Call));
  for (const Constraint &C : Base.constraints())
    Lits[addLiteral(C)].Live = false;
  NumBase = static_cast<unsigned>(Lits.size());
}

unsigned LoweredSpace::columnOf(const Atom &A) {
  auto [It, Inserted] = Index.emplace(A, static_cast<unsigned>(Atoms.size()));
  if (!Inserted)
    return It->second;
  Atoms.push_back(A);
  CallRank.push_back(0);
  if (A.isCall()) {
    // Calls sort as Conjunction::collectCalls sorts them.
    std::vector<unsigned> Calls;
    for (unsigned G = 0; G < Atoms.size(); ++G)
      if (Atoms[G].isCall())
        Calls.push_back(G);
    std::sort(Calls.begin(), Calls.end(), [&](unsigned X, unsigned Y) {
      return Atoms[X] < Atoms[Y];
    });
    for (unsigned I = 0; I < Calls.size(); ++I)
      CallRank[Calls[I]] = I;
  }
  return It->second;
}

LoweredSpace::Row LoweredSpace::lower(const Constraint &C) {
  Row L;
  L.IsEq = C.isEq();
  L.Const = C.E.constant();
  for (const Expr::Term &T : C.E.terms())
    L.Terms.emplace_back(columnOf(T.A), T.Coeff);
  std::vector<std::string> Vars;
  C.E.collectVars(Vars);
  for (const std::string &V : Vars) {
    unsigned G = columnOf(Atom::var(V));
    if (G >= NumTuple &&
        std::find(L.Vars.begin(), L.Vars.end(), G) == L.Vars.end())
      L.Vars.push_back(G);
  }
  std::vector<Atom> Calls;
  C.E.collectCalls(Calls);
  for (const Atom &Call : Calls) {
    unsigned G = columnOf(Call);
    if (std::find(L.Calls.begin(), L.Calls.end(), G) == L.Calls.end())
      L.Calls.push_back(G);
  }
  return L;
}

unsigned LoweredSpace::addLiteral(const Constraint &C) {
  auto It = LitIds.find(C);
  if (It != LitIds.end())
    return It->second;
  unsigned Id = static_cast<unsigned>(Lits.size());
  bool TriviallyTrue =
      C.E.isConstant() &&
      (C.isEq() ? C.E.constant() == 0 : C.E.constant() >= 0);
  Row L = lower(C);
  Lits.push_back({C, std::move(L), !TriviallyTrue});
  LitIds.emplace(C, Id);
  return Id;
}

void LoweredSpace::assemble(const std::vector<unsigned> &Stack,
                            Piece &Out) const {
  Out.Kept.clear();
  for (unsigned Id : Stack)
    if (Lits[Id].Live &&
        std::find(Out.Kept.begin(), Out.Kept.end(), Id) == Out.Kept.end())
      Out.Kept.push_back(Id);

  // Columns: tuple variables, the other variables in order of appearance
  // (the base's, then each kept literal's), then calls in sorted order.
  constexpr unsigned None = UINT32_MAX;
  std::vector<unsigned> Local(Atoms.size(), None);
  std::vector<unsigned> &Global = Out.Global;
  Global.clear();
  auto Use = [&](unsigned G) {
    if (Local[G] == None) {
      Local[G] = static_cast<unsigned>(Global.size());
      Global.push_back(G);
    }
  };
  for (unsigned G = 0; G < NumTuple; ++G)
    Use(G);
  for (unsigned G : BaseVars)
    Use(G);
  for (unsigned Id : Out.Kept)
    for (unsigned G : Lits[Id].L.Vars)
      Use(G);
  size_t FirstCall = Global.size();
  for (unsigned G : BaseCalls)
    Use(G);
  for (unsigned Id : Out.Kept)
    for (unsigned G : Lits[Id].L.Calls)
      Use(G);
  std::sort(Global.begin() + static_cast<std::ptrdiff_t>(FirstCall),
            Global.end(),
            [&](unsigned X, unsigned Y) { return CallRank[X] < CallRank[Y]; });
  for (size_t J = FirstCall; J < Global.size(); ++J)
    Local[Global[J]] = static_cast<unsigned>(J);

  Flattened &F = Out.F;
  unsigned Width = static_cast<unsigned>(Global.size());
  F.Cols.clear();
  for (unsigned G : Global)
    F.Cols.push_back(Atoms[G]);
  F.ColIndex.clear();
  F.EqRowConstraint.clear();
  F.IneqRowConstraint.clear();
  presburger::BasicSet Set(Width);
  auto Emit = [&](const Row &L, unsigned CI) {
    std::vector<int64_t> R(Width + 1, 0);
    R[Width] = L.Const;
    for (const auto &[G, Coeff] : L.Terms)
      R[Local[G]] += Coeff;
    if (L.IsEq) {
      Set.addEquality(std::move(R));
      F.EqRowConstraint.push_back(CI);
    } else {
      Set.addInequality(std::move(R));
      F.IneqRowConstraint.push_back(CI);
    }
  };
  unsigned CI = 0;
  for (unsigned Id = 0; Id < NumBase; ++Id)
    Emit(Lits[Id].L, CI++);
  for (unsigned Id : Out.Kept)
    Emit(Lits[Id].L, CI++);
  F.Set = std::move(Set);
}

const Constraint &LoweredSpace::constraintOf(const Piece &P,
                                             unsigned CI) const {
  return Lits[CI < NumBase ? CI : P.Kept[CI - NumBase]].C;
}

bool LoweredSpace::satisfies(unsigned Id,
                             const std::vector<int64_t> &Point) const {
  const Row &L = Lits[Id].L;
  __int128 V = L.Const;
  for (const auto &[G, Coeff] : L.Terms) {
    __int128 X = G < Point.size() ? Point[G] : 0;
    if (__builtin_add_overflow(V, X * Coeff, &V))
      return false;
  }
  return L.IsEq ? V == 0 : V >= 0;
}

std::vector<int64_t> LoweredSpace::lift(const Piece &P,
                                        const std::vector<int64_t> &Point) const {
  assert(Point.size() == P.Global.size() && "one value per piece column");
  std::vector<int64_t> Out(Atoms.size(), 0);
  for (size_t J = 0; J < Point.size(); ++J)
    Out[P.Global[J]] = Point[J];
  return Out;
}

presburger::Ternary WitnessPool::isEmpty(const presburger::BasicSet &Set,
                                         const std::vector<Atom> &Cols,
                                         unsigned Budget,
                                         presburger::EmptinessCore *Core,
                                         std::vector<int64_t> *Answer) {
  static obs::MetricCounter &Hits =
      obs::metricCounter("presburger.witness_hits");
  assert(Cols.size() == Set.numVars() && "one atom per column");
  std::vector<unsigned> ColId(Cols.size());
  for (size_t C = 0; C < Cols.size(); ++C) {
    auto It = Ids.find(Cols[C]);
    ColId[C] = It == Ids.end() ? UINT32_MAX : It->second;
  }
  std::vector<int64_t> Candidate(Cols.size());
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
    if (Answer)
      *Answer = std::move(Candidate);
    return presburger::Ternary::False;
  }
  std::vector<int64_t> Witness;
  presburger::Ternary R = Set.isEmpty(Budget, Core, &Witness);
  if (R != presburger::Ternary::False)
    return R;
  if (Answer)
    *Answer = Witness;
  assert(Witness.size() == Cols.size() && "False verdicts carry a point");
  for (size_t C = 0; C < Cols.size(); ++C)
    if (ColId[C] == UINT32_MAX)
      ColId[C] =
          Ids.emplace(Cols[C], static_cast<unsigned>(Ids.size())).first->second;
  Point Pt{std::vector<int64_t>(Ids.size(), 0),
           std::vector<bool>(Ids.size(), false)};
  for (size_t C = 0; C < Cols.size(); ++C) {
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

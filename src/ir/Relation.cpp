//===- Relation.cpp - Sparse sets/relations with UF constraints ----------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//

#include "sds/ir/Relation.h"

#include <algorithm>
#include <cassert>
#include <cstddef>

namespace sds {
namespace ir {

auto Conjunction::entriesFor(uint64_t H) const
    -> std::pair<std::vector<LinEntry>::const_iterator,
                 std::vector<LinEntry>::const_iterator> {
  auto Lo = std::lower_bound(
      Index.begin(), Index.end(), H,
      [](const LinEntry &L, uint64_t V) { return L.Hash < V; });
  auto Hi = Lo;
  while (Hi != Index.end() && Hi->Hash == H)
    ++Hi;
  return {Lo, Hi};
}

bool Conjunction::sameLinear(const LinEntry &L, const Expr &E,
                             int64_t Sign) const {
  return E.sameLinearPart(Cs[L.Source].E, L.Negated ? -Sign : Sign);
}

void Conjunction::index(LinEntry L, const Expr &E, int64_t Sign) {
  auto [Lo, Hi] = entriesFor(L.Hash);
  for (auto It = Lo; It != Hi; ++It) {
    if (It->IsEq != L.IsEq || !sameLinear(*It, E, Sign))
      continue;
    LinEntry &Old = Index[static_cast<size_t>(It - Index.begin())];
    if (!L.IsEq) {
      Old.Const = std::min(Old.Const, L.Const); // the tightest bound
      return;
    }
    if (Old.Const == L.Const)
      return;
  }
  Index.insert(Index.begin() + (Hi - Index.cbegin()), L);
}

void Conjunction::add(Constraint C) {
  // Drop trivially-true constraints.
  if (C.E.isConstant()) {
    if (C.isEq() ? (C.E.constant() == 0) : (C.E.constant() >= 0))
      return;
  }
  uint64_t H = C.hash();
  auto Pos = std::lower_bound(Exact.begin(), Exact.end(),
                              std::make_pair(H, 0u));
  for (auto It = Pos; It != Exact.end() && It->first == H; ++It)
    if (Cs[It->second] == C)
      return;
  unsigned CI = static_cast<unsigned>(Cs.size());
  Exact.insert(Pos, {H, CI});
  Cs.push_back(std::move(C));
  // Maintain the implication index.
  const Expr &E = Cs.back().E;
  int64_t K = E.constant();
  bool IsEq = Cs.back().isEq();
  index({E.linearHash(1), CI, false, IsEq, K}, E, 1);
  if (IsEq)
    index({E.linearHash(-1), CI, true, true, -K}, E, -1);
}

bool Conjunction::impliesSyntactically(const Constraint &C) const {
  // Constant constraints decide themselves.
  if (C.E.isConstant())
    return C.isEq() ? (C.E.constant() == 0) : (C.E.constant() >= 0);

  // Eq: lin + K == 0 is forced only by an equality lin + K == 0. Geq:
  // lin + K >= 0 is implied by lin + ch >= 0 with ch <= K, or by an
  // equality lin + ce == 0 with ce <= K (then lin + K = K - ce >= 0).
  int64_t K = C.E.constant();
  auto [Lo, Hi] = entriesFor(C.E.linearHash(1));
  for (auto It = Lo; It != Hi; ++It) {
    if (!sameLinear(*It, C.E, 1))
      continue;
    if (C.isEq() ? (It->IsEq && It->Const == K) : It->Const <= K)
      return true;
  }
  return false;
}

Conjunction
Conjunction::substitute(const std::map<std::string, Expr> &Map) const {
  Conjunction Out;
  for (const Constraint &C : Cs)
    Out.add(C.substitute(Map));
  return Out;
}

std::vector<Atom> Conjunction::collectCalls() const {
  std::vector<Atom> Calls;
  for (const Constraint &C : Cs)
    C.E.collectCalls(Calls);
  // Deduplicate structurally.
  std::sort(Calls.begin(), Calls.end());
  Calls.erase(std::unique(Calls.begin(), Calls.end()), Calls.end());
  return Calls;
}

std::vector<std::string> Conjunction::collectVars() const {
  std::vector<std::string> Vars, Out;
  for (const Constraint &C : Cs)
    C.E.collectVars(Vars);
  for (std::string &V : Vars)
    if (std::find(Out.begin(), Out.end(), V) == Out.end())
      Out.push_back(std::move(V));
  return Out;
}

std::string Conjunction::str() const {
  std::string Out;
  for (size_t I = 0; I < Cs.size(); ++I) {
    if (I)
      Out += " && ";
    Out += Cs[I].str();
  }
  return Out.empty() ? "true" : Out;
}

std::vector<std::string> SparseRelation::params() const {
  auto IsBound = [&](const std::string &V) {
    auto In = [&](const std::vector<std::string> &L) {
      return std::find(L.begin(), L.end(), V) != L.end();
    };
    return In(InVars) || In(OutVars) || In(ExistVars);
  };
  std::vector<std::string> Out;
  for (const std::string &V : Conj.collectVars())
    if (!IsBound(V) && std::find(Out.begin(), Out.end(), V) == Out.end())
      Out.push_back(V);
  return Out;
}

unsigned SparseRelation::eliminateDeterminedExistentials() {
  unsigned Eliminated = 0;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t VI = 0; VI < ExistVars.size(); ++VI) {
      const std::string &V = ExistVars[VI];
      for (const Constraint &C : Conj.constraints()) {
        if (!C.isEq())
          continue;
        // Look for a top-level term (+|-)1 * V.
        int64_t Coeff = 0;
        for (const Expr::Term &T : C.E.terms())
          if (T.A.isVar() && T.A.name() == V)
            Coeff = T.Coeff;
        if (Coeff != 1 && Coeff != -1)
          continue;
        // V = -sign * (E - Coeff*V).
        Expr Rest = C.E - Expr(Coeff, Atom::var(V));
        Expr Solved = Rest * -Coeff;
        // The solution must not mention V (e.g. hidden inside f(V)).
        std::vector<std::string> Vars;
        Solved.collectVars(Vars);
        if (std::find(Vars.begin(), Vars.end(), V) != Vars.end())
          continue;
        std::map<std::string, Expr> Map;
        Map.emplace(V, std::move(Solved));
        Conj = Conj.substitute(Map);
        ExistVars.erase(ExistVars.begin() + static_cast<std::ptrdiff_t>(VI));
        ++Eliminated;
        Changed = true;
        break;
      }
      if (Changed)
        break;
    }
  }
  return Eliminated;
}

std::string SparseRelation::str() const {
  auto Tuple = [](const std::vector<std::string> &Vs) {
    std::string Out = "[";
    for (size_t I = 0; I < Vs.size(); ++I) {
      if (I)
        Out += ", ";
      Out += Vs[I];
    }
    return Out + "]";
  };
  std::string Out = "{ " + Tuple(InVars);
  if (!OutVars.empty())
    Out += " -> " + Tuple(OutVars);
  Out += " : ";
  if (!ExistVars.empty()) {
    Out += "exists(";
    for (size_t I = 0; I < ExistVars.size(); ++I) {
      if (I)
        Out += ", ";
      Out += ExistVars[I];
    }
    Out += ") : ";
  }
  Out += Conj.str();
  Out += " }";
  return Out;
}

} // namespace ir
} // namespace sds

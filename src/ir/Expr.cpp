//===- Expr.cpp - Affine expressions with uninterpreted functions --------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//

#include "sds/ir/Expr.h"

#include <algorithm>
#include <cassert>
#include <cstddef>

namespace sds {
namespace ir {

namespace {

/// FNV-1a over a name: stable across runs and platforms.
uint64_t hashName(const std::string &S) {
  uint64_t H = 0xCBF29CE484222325ULL;
  for (unsigned char C : S)
    H = (H ^ C) * 0x100000001B3ULL;
  return H;
}

} // namespace

Atom Atom::var(std::string Name) {
  Atom A(new Node);
  A.N->K = Kind::Var;
  A.N->Hash = hashCombine(hashName(Name), 1);
  A.N->Name = std::move(Name);
  return A;
}

Atom Atom::call(std::string Fn, std::vector<Expr> Args) {
  Atom A(new Node);
  A.N->K = Kind::Call;
  uint64_t H = hashCombine(hashName(Fn), 2 + Args.size());
  for (const Expr &Arg : Args)
    H = hashCombine(H, Arg.hash());
  A.N->Hash = H;
  A.N->Name = std::move(Fn);
  A.N->Args = std::move(Args);
  return A;
}

void Atom::release(Node *N) { delete N; }

int Atom::compareSlow(const Atom &O) const {
  if (N->K != O.N->K)
    return N->K == Kind::Var ? -1 : 1;
  if (int C = N->Name.compare(O.N->Name))
    return C < 0 ? -1 : 1;
  const std::vector<Expr> &Args = N->Args, &OArgs = O.N->Args;
  if (Args.size() != OArgs.size())
    return Args.size() < OArgs.size() ? -1 : 1;
  for (size_t I = 0; I < Args.size(); ++I)
    if (int C = Args[I].compare(OArgs[I]))
      return C;
  return 0;
}

std::string Atom::str() const {
  if (isVar())
    return name();
  std::string Out = name() + "(";
  for (size_t I = 0; I < args().size(); ++I) {
    if (I)
      Out += ", ";
    Out += args()[I].str();
  }
  Out += ")";
  return Out;
}

Expr::Expr(int64_t Coeff, Atom A) : Const(0) {
  if (Coeff != 0)
    Terms.push_back({Coeff, std::move(A)});
}

void Expr::normalize() {
  std::sort(Terms.begin(), Terms.end(),
            [](const Term &L, const Term &R) { return L.A < R.A; });
  size_t Out = 0;
  for (size_t I = 0; I < Terms.size(); ++I) {
    if (Out > 0 && Terms[Out - 1].A == Terms[I].A)
      Terms[Out - 1].Coeff += Terms[I].Coeff;
    else if (Out != I)
      Terms[Out++] = std::move(Terms[I]);
    else
      ++Out;
  }
  Terms.erase(Terms.begin() + static_cast<std::ptrdiff_t>(Out), Terms.end());
  Terms.erase(std::remove_if(Terms.begin(), Terms.end(),
                             [](const Term &T) { return T.Coeff == 0; }),
              Terms.end());
}

Expr Expr::operator+(const Expr &O) const {
  // Both sides are canonical: merge their sorted term lists.
  Expr R(Const + O.Const);
  R.Terms.reserve(Terms.size() + O.Terms.size());
  size_t I = 0, J = 0;
  while (I < Terms.size() && J < O.Terms.size()) {
    int C = Terms[I].A.compare(O.Terms[J].A);
    if (C < 0) {
      R.Terms.push_back(Terms[I++]);
    } else if (C > 0) {
      R.Terms.push_back(O.Terms[J++]);
    } else {
      if (int64_t Sum = Terms[I].Coeff + O.Terms[J].Coeff)
        R.Terms.push_back({Sum, Terms[I].A});
      ++I;
      ++J;
    }
  }
  R.Terms.insert(R.Terms.end(), Terms.begin() + static_cast<std::ptrdiff_t>(I),
                 Terms.end());
  R.Terms.insert(R.Terms.end(),
                 O.Terms.begin() + static_cast<std::ptrdiff_t>(J),
                 O.Terms.end());
  return R;
}

Expr Expr::operator-() const { return *this * -1; }

Expr Expr::operator-(const Expr &O) const { return *this + (-O); }

Expr Expr::operator*(int64_t K) const {
  Expr R;
  if (K == 0)
    return R;
  R.Terms = Terms;
  for (Term &T : R.Terms)
    T.Coeff *= K;
  R.Const = Const * K;
  return R;
}

int Expr::compare(const Expr &O) const {
  if (Terms.size() != O.Terms.size())
    return Terms.size() < O.Terms.size() ? -1 : 1;
  for (size_t I = 0; I < Terms.size(); ++I) {
    if (Terms[I].Coeff != O.Terms[I].Coeff)
      return Terms[I].Coeff < O.Terms[I].Coeff ? -1 : 1;
    if (int C = Terms[I].A.compare(O.Terms[I].A))
      return C;
  }
  if (Const != O.Const)
    return Const < O.Const ? -1 : 1;
  return 0;
}

uint64_t Expr::linearHash(int64_t Sign) const {
  uint64_t H = 0x2545F4914F6CDD1DULL;
  for (const Term &T : Terms)
    H = hashCombine(hashCombine(H, uint64_t(T.Coeff) * uint64_t(Sign)),
                    T.A.hash());
  return H;
}

bool Expr::sameLinearPart(const Expr &O, int64_t Sign) const {
  if (Terms.size() != O.Terms.size())
    return false;
  for (size_t I = 0; I < Terms.size(); ++I)
    if (Terms[I].Coeff != O.Terms[I].Coeff * Sign || Terms[I].A != O.Terms[I].A)
      return false;
  return true;
}

bool Expr::substituteInto(const std::map<std::string, Expr> &Map,
                          Expr &Out) const {
  // Terms are copied into Out only once the first one changes.
  bool Changed = false;
  auto Begin = [&](size_t I) {
    if (Changed)
      return;
    Changed = true;
    Out.Terms.assign(Terms.begin(),
                     Terms.begin() + static_cast<std::ptrdiff_t>(I));
    Out.Const = Const;
  };
  for (size_t I = 0; I < Terms.size(); ++I) {
    const Term &T = Terms[I];
    if (T.A.isVar()) {
      auto It = Map.find(T.A.name());
      if (It == Map.end()) {
        if (Changed)
          Out.Terms.push_back(T);
        continue;
      }
      Begin(I);
      for (const Term &R : It->second.Terms)
        Out.Terms.push_back({R.Coeff * T.Coeff, R.A});
      Out.Const += It->second.Const * T.Coeff;
      continue;
    }
    const std::vector<Expr> &Args = T.A.args();
    std::vector<Expr> NewArgs;
    bool ArgsChanged = false;
    for (size_t J = 0; J < Args.size(); ++J) {
      Expr Arg;
      if (Args[J].substituteInto(Map, Arg)) {
        if (!ArgsChanged) {
          NewArgs.reserve(Args.size());
          NewArgs.assign(Args.begin(),
                         Args.begin() + static_cast<std::ptrdiff_t>(J));
          ArgsChanged = true;
        }
        NewArgs.push_back(std::move(Arg));
      } else if (ArgsChanged) {
        NewArgs.push_back(Args[J]);
      }
    }
    if (!ArgsChanged) {
      if (Changed)
        Out.Terms.push_back(T);
      continue;
    }
    Begin(I);
    Out.Terms.push_back({T.Coeff, Atom::call(T.A.name(), std::move(NewArgs))});
  }
  if (Changed)
    Out.normalize();
  return Changed;
}

Expr Expr::substitute(const std::map<std::string, Expr> &Map) const {
  Expr Out;
  return substituteInto(Map, Out) ? Out : *this;
}

void Expr::collectCalls(std::vector<Atom> &Out) const {
  for (const Term &T : Terms) {
    if (!T.A.isCall())
      continue;
    Out.push_back(T.A);
    for (const Expr &Arg : T.A.args())
      Arg.collectCalls(Out);
  }
}

void Expr::collectVars(std::vector<std::string> &Out) const {
  for (const Term &T : Terms) {
    if (T.A.isVar()) {
      Out.push_back(T.A.name());
      continue;
    }
    for (const Expr &Arg : T.A.args())
      Arg.collectVars(Out);
  }
}

std::string Expr::str() const {
  if (Terms.empty())
    return std::to_string(Const);
  std::string Out;
  bool First = true;
  for (const Term &T : Terms) {
    int64_t C = T.Coeff;
    if (First) {
      if (C == -1)
        Out += "-";
      else if (C != 1)
        Out += std::to_string(C) + " ";
    } else {
      Out += C > 0 ? " + " : " - ";
      int64_t A = C < 0 ? -C : C;
      if (A != 1)
        Out += std::to_string(A) + " ";
    }
    Out += T.A.str();
    First = false;
  }
  if (Const != 0) {
    Out += Const > 0 ? " + " : " - ";
    Out += std::to_string(Const < 0 ? -Const : Const);
  }
  return Out;
}

} // namespace ir
} // namespace sds

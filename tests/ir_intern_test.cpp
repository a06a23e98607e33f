//===- ir_intern_test.cpp - Interned atoms and semi-naive phase 1 ---------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
// Atoms are shared, hashed nodes and phase 1 of §6.2 keys its lookups on
// structural hashes; round 2 of the instantiation skips the tuples that
// round 1 already substituted. This suite keeps the string-keyed forms
// those replaced as references and checks them against the new ones on
// the IR the fast-tier kernels produce:
//
//  * compare signs, equality and hashes of every atom, expression and
//    constraint phase 1 builds against the printed-form comparisons, and
//    Conjunction::impliesSyntactically against a Conjunction indexed by
//    printed linear parts;
//  * instantiatePhase1 (Aug, the phase-2 list, the counters) against a
//    string-keyed phase 1 that substitutes every round-2 tuple, with the
//    instance cap binding early, mid-round-2 and not at all;
//  * atoms shared with one kernel IR and copied, compared and destroyed
//    on four threads at once, against a serial run.
//
//===----------------------------------------------------------------------===//

#include "sds/deps/Extraction.h"
#include "sds/ir/Flatten.h"
#include "sds/ir/Simplify.h"
#include "sds/kernels/Kernels.h"
#include "sds/obs/Metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

using namespace sds;
using namespace sds::ir;

namespace {

//===----------------------------------------------------------------------===//
// Reference: the string-based comparisons and keys.
//===----------------------------------------------------------------------===//

int sign(int V) { return V < 0 ? -1 : V > 0 ? 1 : 0; }

int refCompare(const Expr &A, const Expr &B);

/// Atom::compare as it was when atoms held their name and arguments by
/// value: kind, then name, then arity, then arguments.
int refCompare(const Atom &A, const Atom &B) {
  if (A.kind() != B.kind())
    return A.isVar() ? -1 : 1;
  if (int C = A.name().compare(B.name()))
    return C < 0 ? -1 : 1;
  if (A.args().size() != B.args().size())
    return A.args().size() < B.args().size() ? -1 : 1;
  for (size_t I = 0; I < A.args().size(); ++I)
    if (int C = refCompare(A.args()[I], B.args()[I]))
      return C;
  return 0;
}

int refCompare(const Expr &A, const Expr &B) {
  if (A.terms().size() != B.terms().size())
    return A.terms().size() < B.terms().size() ? -1 : 1;
  for (size_t I = 0; I < A.terms().size(); ++I) {
    if (A.terms()[I].Coeff != B.terms()[I].Coeff)
      return A.terms()[I].Coeff < B.terms()[I].Coeff ? -1 : 1;
    if (int C = refCompare(A.terms()[I].A, B.terms()[I].A))
      return C;
  }
  if (A.constant() != B.constant())
    return A.constant() < B.constant() ? -1 : 1;
  return 0;
}

std::string linearKey(const Expr &E) { return (E - Expr(E.constant())).str(); }
std::string exactKey(const Constraint &C) {
  return (C.isEq() ? "=" : ">") + C.E.str();
}

/// The Conjunction implication index keyed by printed linear parts.
class RefConjunction {
public:
  void add(const Constraint &C) {
    if (C.E.isConstant() &&
        (C.isEq() ? C.E.constant() == 0 : C.E.constant() >= 0))
      return;
    if (!Exact.insert(exactKey(C)).second)
      return;
    LinInfo &Info = Index[linearKey(C.E)];
    int64_t K = C.E.constant();
    if (C.isEq()) {
      Info.EqConsts.insert(K);
      Index[linearKey(-C.E)].EqConsts.insert(-K);
    } else if (!Info.HasGeq || K < Info.MinGeqConst) {
      Info.HasGeq = true;
      Info.MinGeqConst = K;
    }
  }

  bool impliesSyntactically(const Constraint &C) const {
    if (C.E.isConstant())
      return C.isEq() ? (C.E.constant() == 0) : (C.E.constant() >= 0);
    auto It = Index.find(linearKey(C.E));
    if (It == Index.end())
      return false;
    const LinInfo &Info = It->second;
    int64_t K = C.E.constant();
    if (C.isEq())
      return Info.EqConsts.count(K) > 0;
    if (Info.HasGeq && Info.MinGeqConst <= K)
      return true;
    for (int64_t Ce : Info.EqConsts)
      if (Ce <= K)
        return true;
    return false;
  }

private:
  struct LinInfo {
    bool HasGeq = false;
    int64_t MinGeqConst = 0;
    std::set<int64_t> EqConsts;
  };
  std::set<std::string> Exact;
  std::map<std::string, LinInfo> Index;
};

//===----------------------------------------------------------------------===//
// Reference: phase 1 with string keys and a full round-2 enumeration.
//===----------------------------------------------------------------------===//

Constraint negateGeq(const Constraint &C) {
  return Constraint::geq(-C.E - Expr(1));
}

std::string instanceKey(const AssertionInstance &I) {
  return I.Antecedent.str() + "=>" + I.Consequent.str();
}

void refEnumerate(const std::vector<UniversalAssertion> &Assertions,
                  const std::vector<Expr> &E, const SimplifyOptions &Opts,
                  InstantiationStats &Stats, std::set<std::string> &Seen,
                  std::vector<AssertionInstance> &Out) {
  for (const UniversalAssertion &A : Assertions) {
    size_t N = A.QVars.size();
    std::vector<size_t> Idx(N, 0);
    if (E.empty() && N > 0)
      continue;
    while (true) {
      if (Stats.Generated >= Opts.MaxInstances)
        return;
      ++Stats.Generated;
      std::map<std::string, Expr> Map;
      for (size_t I = 0; I < N; ++I)
        Map.emplace(A.QVars[I], E[Idx[I]]);
      AssertionInstance Inst;
      Inst.Antecedent = A.Antecedent.substitute(Map);
      Inst.Consequent = A.Consequent.substitute(Map);
      Inst.Label = A.Label;
      bool Vacuous = false;
      for (const Constraint &C : Inst.Antecedent.constraints())
        if (C.E.isConstant() &&
            (C.isEq() ? C.E.constant() != 0 : C.E.constant() < 0))
          Vacuous = true;
      if (!Vacuous && Seen.insert(instanceKey(Inst)).second)
        Out.push_back(std::move(Inst));
      size_t I = 0;
      for (; I < N; ++I) {
        if (++Idx[I] < E.size())
          break;
        Idx[I] = 0;
      }
      if (I == N || N == 0)
        break;
    }
  }
}

void refFunctionalConsistency(const Conjunction &C,
                              const SimplifyOptions &Opts,
                              InstantiationStats &Stats,
                              std::set<std::string> &Seen,
                              std::vector<AssertionInstance> &Out) {
  std::vector<Atom> Calls = C.collectCalls();
  for (size_t I = 0; I < Calls.size(); ++I)
    for (size_t J = I + 1; J < Calls.size(); ++J) {
      if (Stats.Generated >= Opts.MaxInstances)
        return;
      const Atom &A = Calls[I], &B = Calls[J];
      if (A.name() != B.name() || A.args().size() != B.args().size())
        continue;
      ++Stats.Generated;
      AssertionInstance Inst;
      Inst.Label = "functional_consistency(" + A.name() + ")";
      bool Vacuous = false;
      for (size_t K = 0; K < A.args().size() && !Vacuous; ++K) {
        Constraint Eq = Constraint::equals(A.args()[K], B.args()[K]);
        Vacuous = Eq.E.isConstant() && Eq.E.constant() != 0;
        Inst.Antecedent.add(std::move(Eq));
      }
      if (Vacuous)
        continue;
      Inst.Consequent.add(Constraint::equals(Expr(1, A), Expr(1, B)));
      if (Seen.insert(instanceKey(Inst)).second)
        Out.push_back(std::move(Inst));
    }
}

/// instantiatePhase1 without the provenance ledger, as it was before
/// interning: printed keys throughout, the flattened Aug rebuilt after
/// every added consequent, and every round-2 tuple substituted.
Conjunction refPhase1(const Conjunction &C,
                      const std::vector<UniversalAssertion> &Assertions,
                      const SimplifyOptions &Opts, InstantiationStats &S,
                      std::vector<AssertionInstance> &Phase2) {
  Conjunction Aug = C;
  RefConjunction Syn;
  for (const Constraint &C0 : Aug.constraints())
    Syn.add(C0);
  auto Add = [&](const Constraint &Q) {
    Aug.add(Q);
    Syn.add(Q);
  };
  std::set<std::string> Seen;
  std::vector<AssertionInstance> Instances;
  std::vector<bool> Consumed;
  unsigned ProbesLeft = Opts.SemanticPhase1 ? Opts.SemanticProbeCap : 0;

  std::set<std::string> AugCallKeys;
  Flattened AugFlat;
  std::map<std::string, unsigned> ColIndex;
  auto RefreshCalls = [&] {
    AugCallKeys.clear();
    for (const Atom &A : Aug.collectCalls())
      AugCallKeys.insert(A.str());
    AugFlat = flatten(Aug, {});
    ColIndex.clear();
    std::vector<std::string> Names = AugFlat.names();
    for (unsigned J = 0; J < Names.size(); ++J)
      ColIndex.emplace(Names[J], J);
  };
  RefreshCalls();
  std::map<std::string, bool> ProbeCache;
  auto ImpliedSemantically = [&](const Constraint &P) {
    if (ProbesLeft == 0)
      return false;
    std::vector<Atom> Calls;
    P.E.collectCalls(Calls);
    for (const Atom &A : Calls)
      if (!AugCallKeys.count(A.str()))
        return false;
    auto Cached = ProbeCache.find(P.str());
    if (Cached != ProbeCache.end())
      return Cached->second;
    unsigned Budget = std::min(Opts.EmptinessBudget, 8u);
    auto EmptyWith = [&](const Constraint &Neg) {
      unsigned Width = AugFlat.Set.numVars();
      std::vector<int64_t> Row(Width + 1, 0);
      Row[Width] = Neg.E.constant();
      for (const Expr::Term &T : Neg.E.terms()) {
        auto It = ColIndex.find(T.A.str());
        if (It == ColIndex.end())
          return false;
        Row[It->second] += T.Coeff;
      }
      presburger::BasicSet Probe = AugFlat.Set;
      Probe.addInequality(std::move(Row));
      return Probe.isEmpty(Budget) == presburger::Ternary::True;
    };
    bool Implied = false;
    if (!P.isEq()) {
      --ProbesLeft;
      Implied = EmptyWith(negateGeq(P));
    } else if (ProbesLeft >= 2) {
      ProbesLeft -= 2;
      Implied = EmptyWith(Constraint::geq(P.E - Expr(1))) &&
                EmptyWith(Constraint::geq(-P.E - Expr(1)));
    }
    ProbeCache.emplace(P.str(), Implied);
    return Implied;
  };

  for (unsigned Round = 0; Round < std::max(1u, Opts.InstantiationRounds);
       ++Round) {
    size_t SizeBefore = Instances.size();
    std::vector<Expr> E = argumentExpressionSet(Aug);
    std::vector<AssertionInstance> New;
    refEnumerate(Assertions, E, Opts, S, Seen, New);
    std::stable_sort(
        New.begin(), New.end(),
        [](const AssertionInstance &A, const AssertionInstance &B) {
          return A.Antecedent.constraints().size() <
                 B.Antecedent.constraints().size();
        });
    refFunctionalConsistency(Aug, Opts, S, Seen, New);
    for (AssertionInstance &Inst : New)
      Instances.push_back(std::move(Inst));
    Consumed.resize(Instances.size(), false);
    if (Round > 0 && Instances.size() == SizeBefore)
      break;
    for (unsigned Pass = 0; Pass < Opts.Phase1Passes; ++Pass) {
      bool Changed = false;
      for (auto It = ProbeCache.begin(); It != ProbeCache.end();)
        It = It->second ? std::next(It) : ProbeCache.erase(It);
      for (size_t I = 0; I < Instances.size(); ++I) {
        if (Consumed[I])
          continue;
        const AssertionInstance &Inst = Instances[I];
        bool ConsImplied = true;
        for (const Constraint &Q : Inst.Consequent.constraints())
          ConsImplied = ConsImplied && Syn.impliesSyntactically(Q);
        if (ConsImplied) {
          Consumed[I] = true;
          ++S.AlreadyImplied;
          continue;
        }
        bool AnteImplied = true;
        for (const Constraint &P : Inst.Antecedent.constraints())
          if (!Syn.impliesSyntactically(P) && !ImpliedSemantically(P)) {
            AnteImplied = false;
            break;
          }
        if (AnteImplied) {
          for (const Constraint &Q : Inst.Consequent.constraints())
            Add(Q);
          RefreshCalls();
          Consumed[I] = true;
          ++S.Phase1Added;
          S.UsedLabels.push_back(Inst.Label);
          Changed = true;
          continue;
        }
        if (Inst.Consequent.constraints().size() == 1 &&
            Inst.Antecedent.constraints().size() == 1) {
          const Constraint &Q = Inst.Consequent.constraints()[0];
          const Constraint &P = Inst.Antecedent.constraints()[0];
          if (!Q.isEq() && !P.isEq() &&
              Syn.impliesSyntactically(negateGeq(Q))) {
            Add(negateGeq(P));
            Consumed[I] = true;
            ++S.Phase1Added;
            S.UsedLabels.push_back(Inst.Label + " [contrapositive]");
            Changed = true;
          }
        }
      }
      if (!Changed)
        break;
    }
  }
  for (size_t I = 0; I < Instances.size(); ++I)
    if (!Consumed[I])
      Phase2.push_back(Instances[I]);
  return Aug;
}

//===----------------------------------------------------------------------===//
// Corpus: the IR phase 1 builds on the fast-tier kernels.
//===----------------------------------------------------------------------===//

std::vector<kernels::Kernel> fastTier() {
  return {kernels::forwardSolveCSR(), kernels::forwardSolveCSC(),
          kernels::gaussSeidelCSR(), kernels::spmvCSR(),
          kernels::leftCholeskyCSC()};
}

/// One dependence's phase-1 output: Aug and the phase-2 instances.
struct Phase1Output {
  SparseRelation Rel;
  Conjunction Aug;
  std::vector<AssertionInstance> Phase2;
};

const std::vector<Phase1Output> &phase1Outputs() {
  static const std::vector<Phase1Output> Outputs = [] {
    std::vector<Phase1Output> Out;
    for (const kernels::Kernel &K : fastTier())
      for (const deps::Dependence &D : deps::extractDependences(K)) {
        Phase1Output O;
        O.Rel = D.Rel;
        InstantiationStats S;
        O.Aug = instantiatePhase1(D.Rel.Conj, K.Properties.assertions(), {},
                                  &S, &O.Phase2);
        Out.push_back(std::move(O));
      }
    return Out;
  }();
  return Outputs;
}

/// Every constraint of the outputs (relation, Aug, phase-2 instances), the
/// negation of each inequality, and each with its constant moved by one.
std::vector<Constraint> constraintCorpus() {
  std::vector<Constraint> Out;
  auto Take = [&](const Conjunction &C) {
    for (const Constraint &Q : C.constraints()) {
      Out.push_back(Q);
      Out.push_back({Q.K, Q.E + Expr(1)});
      Out.push_back({Q.K, Q.E - Expr(1)});
      Out.push_back({Q.K, -Q.E});
      if (!Q.isEq())
        Out.push_back(negateGeq(Q));
    }
  };
  for (const Phase1Output &O : phase1Outputs()) {
    Take(O.Rel.Conj);
    Take(O.Aug);
    for (const AssertionInstance &I : O.Phase2) {
      Take(I.Antecedent);
      Take(I.Consequent);
    }
  }
  return Out;
}

void collectExprs(const Expr &E, std::vector<Expr> &Exprs,
                  std::vector<Atom> &Atoms) {
  Exprs.push_back(E);
  Exprs.push_back(E - Expr(E.constant()));
  for (const Expr::Term &T : E.terms()) {
    Atoms.push_back(T.A);
    for (const Expr &Arg : T.A.args())
      collectExprs(Arg, Exprs, Atoms);
  }
}

/// At most `PerForm` items of each printed form, so structurally equal
/// items built apart (distinct nodes) are compared, not only copies.
template <typename T>
std::vector<T> thin(const std::vector<T> &Items, size_t PerForm) {
  std::map<std::string, size_t> Count;
  std::vector<T> Out;
  for (const T &I : Items)
    if (Count[I.str()]++ < PerForm)
      Out.push_back(I);
  return Out;
}

/// Checks over `Items` against their printed forms. Every item: equal
/// printed forms mean equal items with equal hashes, and distinct printed
/// forms hash apart (the corpus is far too small for a 64-bit collision).
/// Every pair of an evenly spread sample of at most `MaxPairs`^2 pairs:
/// compare signs agree with the reference order, and equality holds
/// exactly when the printed forms are equal.
template <typename T, typename RefCmp>
void checkItems(const std::vector<T> &Items, RefCmp Ref, const char *What) {
  constexpr size_t MaxPairs = 1200;
  std::vector<std::string> Str;
  for (const T &I : Items)
    Str.push_back(I.str());
  size_t Bad = 0;
  auto Fail = [&](size_t A, size_t B, const char *Why) {
    if (++Bad <= 5)
      ADD_FAILURE() << What << ": " << Why << ": " << Str[A] << " vs "
                    << Str[B] << ": compare " << Items[A].compare(Items[B])
                    << " (reference " << Ref(Items[A], Items[B])
                    << "), hashes " << Items[A].hash() << " / "
                    << Items[B].hash();
  };
  std::map<std::string, size_t> FirstOfForm;
  std::map<uint64_t, size_t> FirstOfHash;
  for (size_t I = 0; I < Items.size(); ++I) {
    auto [F, NewForm] = FirstOfForm.emplace(Str[I], I);
    auto [H, NewHash] = FirstOfHash.emplace(Items[I].hash(), I);
    if (!NewForm && !(Items[I] == Items[F->second]))
      Fail(I, F->second, "equal forms, unequal items");
    if (NewForm != NewHash)
      Fail(I, NewForm ? H->second : F->second, "hash disagrees with form");
  }
  size_t Stride = std::max<size_t>(1, Items.size() / MaxPairs);
  for (size_t A = 0; A < Items.size(); A += Stride)
    for (size_t B = 0; B < Items.size(); B += Stride) {
      const T &X = Items[A], &Y = Items[B];
      if (sign(X.compare(Y)) != sign(Ref(X, Y)))
        Fail(A, B, "compare disagrees");
      if ((X == Y) != (Str[A] == Str[B]))
        Fail(A, B, "equality disagrees with form");
    }
  EXPECT_EQ(Bad, 0u) << What << ": " << Items.size() << " items";
}

} // namespace

TEST(InternedAtoms, ComparisonsMatchPrintedForms) {
  std::vector<Constraint> Cs = constraintCorpus();
  std::vector<Expr> Exprs;
  std::vector<Atom> Atoms;
  for (const Constraint &C : Cs)
    collectExprs(C.E, Exprs, Atoms);
  Atoms = thin(Atoms, 4);
  Exprs = thin(Exprs, 4);
  Cs = thin(Cs, 4);
  ASSERT_GT(Atoms.size(), 50u);
  ASSERT_GT(Exprs.size(), 200u);
  checkItems(
      Atoms, [](const Atom &A, const Atom &B) { return refCompare(A, B); },
      "atoms");
  checkItems(
      Exprs, [](const Expr &A, const Expr &B) { return refCompare(A, B); },
      "expressions");
  checkItems(
      Cs,
      [](const Constraint &A, const Constraint &B) {
        if (A.K != B.K)
          return A.isEq() ? -1 : 1;
        return refCompare(A.E, B.E);
      },
      "constraints");
  std::printf("[   INFO   ] %zu atoms, %zu expressions, %zu constraints\n",
              Atoms.size(), Exprs.size(), Cs.size());
}

TEST(InternedAtoms, SyntacticImplicationMatchesPrintedKeys) {
  std::vector<Constraint> Queries = thin(constraintCorpus(), 1);
  size_t Checked = 0, Implied = 0;
  for (const Phase1Output &O : phase1Outputs()) {
    Conjunction New;
    RefConjunction Ref;
    for (const Constraint &C : O.Aug.constraints()) {
      New.add(C);
      Ref.add(C);
    }
    EXPECT_EQ(New.str(), O.Aug.str());
    for (const Constraint &Q : Queries) {
      bool Got = New.impliesSyntactically(Q);
      ++Checked;
      Implied += Got;
      if (Got != Ref.impliesSyntactically(Q)) {
        ADD_FAILURE() << O.Rel.str() << "\n  query " << Q.str() << ": got "
                      << Got;
        return;
      }
    }
  }
  EXPECT_GT(Implied, 0u);
  EXPECT_LT(Implied, Checked);
}

TEST(InternedAtoms, SubstitutionKeepsUnchangedNodes) {
  Expr Call = Expr::call("col", {Expr::var("k") + Expr(1)});
  Expr E = Call + Expr::var("i") * 2;
  std::map<std::string, Expr> Map{{"i", Expr::var("j") - Expr(1)}};
  Expr S = E.substitute(Map);
  EXPECT_EQ(S.str(), "2 j + col(k + 1) - 2");
  // col(k + 1) mentions no mapped variable: the same node, not a copy.
  const Atom *Kept = nullptr;
  for (const Expr::Term &T : S.terms())
    if (T.A.isCall())
      Kept = &T.A;
  ASSERT_NE(Kept, nullptr);
  EXPECT_EQ(Kept->hash(), Call.terms()[0].A.hash());
  EXPECT_EQ(Kept->compare(Call.terms()[0].A), 0);
  // Substituting into the argument rebuilds the call.
  Map.emplace("k", Expr::var("m"));
  EXPECT_EQ(E.substitute(Map).str(), "2 j + col(m + 1) - 2");
}

TEST(SemiNaivePhase1, MatchesFullReenumeration) {
  obs::setMetricsEnabled(true);
  obs::MetricCounter &Tuples = obs::metricCounter("ir.phase1_tuples");
  obs::MetricCounter &Subs = obs::metricCounter("ir.phase1_substitutions");
  uint64_t T0 = Tuples.value(), S0 = Subs.value();
  size_t Runs = 0, CapHit = 0;
  for (const kernels::Kernel &K : fastTier()) {
    const std::vector<UniversalAssertion> &As = K.Properties.assertions();
    for (const deps::Dependence &D : deps::extractDependences(K))
      for (unsigned Cap : {50u, 500u, 20000u})
        for (bool Semantic : {false, true}) {
          SCOPED_TRACE(K.Name + " " + D.label() + " cap " +
                       std::to_string(Cap) + (Semantic ? " semantic" : ""));
          SimplifyOptions Opts;
          Opts.MaxInstances = Cap;
          Opts.SemanticPhase1 = Semantic;
          InstantiationStats SNew, SRef;
          std::vector<AssertionInstance> PNew, PRef;
          Conjunction New =
              instantiatePhase1(D.Rel.Conj, As, Opts, &SNew, &PNew);
          Conjunction Ref = refPhase1(D.Rel.Conj, As, Opts, SRef, PRef);
          ++Runs;
          CapHit += SNew.Generated >= Cap;
          EXPECT_EQ(New.str(), Ref.str());
          ASSERT_EQ(PNew.size(), PRef.size());
          for (size_t I = 0; I < PNew.size(); ++I) {
            EXPECT_EQ(PNew[I].Label, PRef[I].Label);
            EXPECT_EQ(instanceKey(PNew[I]), instanceKey(PRef[I]));
          }
          EXPECT_EQ(SNew.Generated, SRef.Generated);
          EXPECT_EQ(SNew.AlreadyImplied, SRef.AlreadyImplied);
          EXPECT_EQ(SNew.Phase1Added, SRef.Phase1Added);
          EXPECT_EQ(SNew.UsedLabels, SRef.UsedLabels);
        }
  }
  // The caps must bind on some runs and not on others.
  EXPECT_GT(CapHit, 0u);
  EXPECT_LT(CapHit, Runs);
  // Round 2 skipped tuples: fewer substitutions than tuples counted.
  obs::setMetricsEnabled(false);
  EXPECT_LT(Subs.value() - S0, Tuples.value() - T0);
  std::printf("[   INFO   ] %zu runs, %zu hit the cap; %llu tuples, %llu "
              "substituted\n",
              Runs, CapHit,
              static_cast<unsigned long long>(Tuples.value() - T0),
              static_cast<unsigned long long>(Subs.value() - S0));
}

TEST(InternedAtoms, SharedNodesAcrossThreads) {
  // Atoms shared with one kernel IR: each worker copies the relations,
  // substitutes into them, builds calls around their atoms, compares and
  // hashes, and drops everything it built; the shared nodes' reference
  // counts move on all four threads at once.
  std::vector<SparseRelation> Shared;
  for (const deps::Dependence &D :
       deps::extractDependences(kernels::leftCholeskyCSC()))
    Shared.push_back(D.Rel);
  auto Work = [&](unsigned Seed) {
    std::vector<std::string> Out;
    for (unsigned Rep = 0; Rep < 100; ++Rep)
      for (size_t RI = 0; RI < Shared.size(); ++RI) {
        const SparseRelation &R = Shared[(RI + Seed) % Shared.size()];
        Conjunction Copy = R.Conj;
        std::vector<Atom> Calls = Copy.collectCalls();
        std::map<std::string, Expr> Map;
        for (const std::string &V : R.InVars)
          Map.emplace(V, Expr::var(V) + Expr(static_cast<int64_t>(Rep)));
        Conjunction Moved = Copy.substitute(Map);
        uint64_t Digest = 0;
        for (size_t I = 0; I < Calls.size(); ++I) {
          Atom Wrapped = Atom::call("h", {Expr(1, Calls[I])});
          Atom Again = Atom::call("h", {Expr(1, Calls[I])});
          Digest = hashCombine(Digest, Wrapped.hash());
          Digest = hashCombine(Digest, Wrapped == Again);
          for (size_t J = 0; J < Calls.size(); ++J)
            Digest = hashCombine(Digest, uint64_t(sign(
                                             Calls[I].compare(Calls[J])) + 1));
        }
        for (const Constraint &C : Moved.constraints())
          Digest = hashCombine(Digest, C.hash());
        Out.push_back(std::to_string(Digest) + " " +
                      std::to_string(Moved.impliesSyntactically(
                          Copy.constraints().front())));
      }
    return Out;
  };
  std::vector<std::vector<std::string>> Serial, Parallel(4);
  for (unsigned T = 0; T < 4; ++T)
    Serial.push_back(Work(T));
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < 4; ++T)
    Threads.emplace_back([&, T] { Parallel[T] = Work(T); });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Parallel, Serial);
  // The shared IR is intact.
  EXPECT_EQ(Shared.front().str(),
            deps::extractDependences(kernels::leftCholeskyCSC())
                .front()
                .Rel.str());
}

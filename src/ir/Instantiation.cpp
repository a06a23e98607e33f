//===- Instantiation.cpp - Assertion instantiation and unsat (§4.2) ------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//

#include "sds/ir/Flatten.h"
#include "sds/ir/Simplify.h"
#include "sds/obs/Metrics.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <unordered_set>

namespace sds {
namespace ir {

std::vector<Expr> argumentExpressionSet(const Conjunction &C) {
  std::vector<Expr> E;
  for (const Atom &Call : C.collectCalls())
    for (const Expr &Arg : Call.args())
      E.push_back(Arg);
  std::sort(E.begin(), E.end());
  E.erase(std::unique(E.begin(), E.end()), E.end());
  return E;
}

namespace {

/// Instantiation work counters (Metrics.h registry): phase 1's odometer
/// tuples and substitutions, phase 2's case-split work.
struct InstantiationMetrics {
  obs::MetricCounter &Tuples = obs::metricCounter("ir.phase1_tuples");
  obs::MetricCounter &Substitutions =
      obs::metricCounter("ir.phase1_substitutions");
  obs::MetricCounter &Pieces = obs::metricCounter("ir.phase2_pieces");
  obs::MetricCounter &Checks = obs::metricCounter("ir.phase2_checks");
  obs::MetricCounter &Inherited = obs::metricCounter("ir.phase2_inherited");
  obs::MetricCounter &Dropped =
      obs::metricCounter("ir.phase2_splits_dropped");
};

InstantiationMetrics &instantiationMetrics() {
  static InstantiationMetrics M;
  return M;
}

/// Is the constraint trivially false (constant expression violating it)?
bool constantFalse(const Constraint &C) {
  if (!C.E.isConstant())
    return false;
  return C.isEq() ? (C.E.constant() != 0) : (C.E.constant() < 0);
}

/// Negate a Geq constraint: !(e >= 0) is -e - 1 >= 0. Equalities negate to
/// a disjunction and are handled by the caller.
Constraint negateGeq(const Constraint &C) {
  assert(!C.isEq() && "cannot negate an equality into one constraint");
  return Constraint::geq(-C.E - Expr(1));
}

/// Does constraint `A` alone imply constraint `B`? Syntactic and sound:
/// the linear parts must coincide (up to sign when `A` is an equality)
/// with a compatible constant.
bool constraintImplies(const Constraint &A, const Constraint &B) {
  if (B.isEq()) {
    if (!A.isEq())
      return false;
    Expr D = B.E - A.E;
    if (D.isConstant() && D.constant() == 0)
      return true;
    Expr S = B.E + A.E;
    return S.isConstant() && S.constant() == 0;
  }
  Expr D = B.E - A.E;
  if (D.isConstant() && D.constant() >= 0)
    return true;
  if (A.isEq()) {
    Expr S = B.E + A.E;
    if (S.isConstant() && S.constant() >= 0)
      return true;
  }
  return false;
}

/// Append the labels justifying constraint `C` to `Out`. Base-relation
/// constraints contribute nothing; a constraint the ledger has never seen
/// contributes the unattributed sentinel (forcing the coarse fallback).
void appendOrigin(const OriginMap &O, const Constraint &C,
                  std::vector<std::string> &Out) {
  if (O.BaseKeys.count(C))
    return;
  auto It = O.ConstraintOrigins.find(C);
  if (It == O.ConstraintOrigins.end()) {
    Out.push_back(OriginMap::unattributed());
    return;
  }
  Out.insert(Out.end(), It->second.begin(), It->second.end());
}

/// Labels supporting an antecedent constraint `P` that `Aug` entails
/// syntactically. `P` itself may be absent: impliesSyntactically also
/// accepts a strictly stronger bound or a forcing equality, so fall back
/// to scanning for a single implying constraint and charge its origin.
void appendSyntacticSupport(const OriginMap &O, const Conjunction &Aug,
                            const Constraint &P,
                            std::vector<std::string> &Out) {
  if (P.E.isConstant())
    return; // constant-true: no support needed
  if (O.BaseKeys.count(P))
    return;
  auto It = O.ConstraintOrigins.find(P);
  if (It != O.ConstraintOrigins.end()) {
    Out.insert(Out.end(), It->second.begin(), It->second.end());
    return;
  }
  const std::vector<std::string> *Best = nullptr;
  for (const Constraint &C2 : Aug.constraints()) {
    if (!constraintImplies(C2, P))
      continue;
    if (O.BaseKeys.count(C2))
      return; // implied outright by the base relation
    auto It2 = O.ConstraintOrigins.find(C2);
    if (It2 != O.ConstraintOrigins.end() &&
        (!Best || It2->second.size() < Best->size()))
      Best = &It2->second;
  }
  if (Best) {
    Out.insert(Out.end(), Best->begin(), Best->end());
    return;
  }
  Out.push_back(OriginMap::unattributed());
}

/// One semantic-probe verdict plus the labels its proof cited.
struct ProbeResult {
  bool Implied = false;
  std::vector<std::string> Support;
};

/// Citation accumulator threaded through the piece-emptiness checks.
struct CoreCollector {
  const OriginMap *Origins = nullptr;
  std::vector<std::string> Labels; ///< labels cited so far (with repeats)
  bool Fine = true;                ///< row-level attribution intact
};

/// Record the citations of one proven-empty piece: map the integer-level
/// core rows back through the piece's row provenance onto its
/// constraints, then onto assertion labels.
void notePieceEmpty(CoreCollector *CC, const LoweredSpace &Space,
                    const LoweredSpace::Piece &Piece,
                    const presburger::EmptinessCore &EC) {
  if (!CC)
    return;
  if (!EC.Valid) {
    CC->Fine = false;
    return;
  }
  const Flattened &F = Piece.F;
  size_t NEq = F.EqRowConstraint.size();
  for (uint32_t RI : EC.Rows) {
    unsigned CI = RI < NEq ? F.EqRowConstraint[RI]
                           : F.IneqRowConstraint[RI - NEq];
    appendOrigin(*CC->Origins, Space.constraintOf(Piece, CI), CC->Labels);
  }
}

/// Every distinct instance enumerated so far, at stable addresses, indexed
/// by structure (antecedent and consequent; the label is not part of it):
/// many tuples yield the same instance.
class InstanceStore {
public:
  /// Store `Inst` and return it, or return null when a structurally equal
  /// instance is already stored.
  const AssertionInstance *insert(AssertionInstance &&Inst) {
    uint64_t H = hashOf(Inst);
    auto [Lo, Hi] = ByHash.equal_range(H);
    for (auto It = Lo; It != Hi; ++It)
      if (It->second->Antecedent.constraints() ==
              Inst.Antecedent.constraints() &&
          It->second->Consequent.constraints() ==
              Inst.Consequent.constraints())
        return nullptr;
    All.push_back(std::move(Inst));
    ByHash.emplace(H, &All.back());
    return &All.back();
  }

private:
  static uint64_t hashOf(const AssertionInstance &Inst) {
    uint64_t H = Inst.Antecedent.constraints().size();
    for (const Constraint &C : Inst.Antecedent.constraints())
      H = hashCombine(H, C.hash());
    H = hashCombine(H, Inst.Consequent.constraints().size());
    for (const Constraint &C : Inst.Consequent.constraints())
      H = hashCombine(H, C.hash());
    return H;
  }

  std::deque<AssertionInstance> All;
  std::unordered_multimap<uint64_t, const AssertionInstance *> ByHash;
};

/// Enumerate all assertion instances over E^n, pruning vacuous ones.
/// `Seen` deduplicates across enumeration rounds. `Old` (null in the first
/// round) marks the expressions of E the previous round enumerated over: a
/// tuple of old expressions only can reproduce nothing but that round's
/// vacuous or already-seen instance, so it is counted but not substituted
/// (semi-naive evaluation; the cap, and so the instance order, is the same
/// as for a full re-enumeration).
void enumerateInstances(const std::vector<UniversalAssertion> &Assertions,
                        const std::vector<Expr> &E,
                        const std::vector<bool> *Old,
                        const SimplifyOptions &Opts, InstantiationStats &Stats,
                        InstanceStore &Seen,
                        std::vector<const AssertionInstance *> &Out) {
  InstantiationMetrics &M = instantiationMetrics();
  for (const UniversalAssertion &A : Assertions) {
    size_t N = A.QVars.size();
    if (E.empty() && N > 0)
      continue;
    // Odometer over E^N; the map's values are reassigned per tuple.
    std::vector<size_t> Idx(N, 0);
    std::map<std::string, Expr> Map;
    std::vector<Expr *> Slot(N);
    for (size_t I = 0; I < N; ++I)
      Slot[I] = &Map[A.QVars[I]];
    while (true) {
      if (Stats.Generated >= Opts.MaxInstances)
        return;
      ++Stats.Generated;
      M.Tuples.add();
      bool Fresh = !Old;
      for (size_t I = 0; I < N && !Fresh; ++I)
        Fresh = !(*Old)[Idx[I]];
      if (Fresh) {
        M.Substitutions.add();
        for (size_t I = 0; I < N; ++I)
          *Slot[I] = E[Idx[I]];
        AssertionInstance Inst;
        Inst.Antecedent = A.Antecedent.substitute(Map);
        bool Vacuous = false;
        for (const Constraint &C2 : Inst.Antecedent.constraints())
          if (constantFalse(C2)) {
            Vacuous = true;
            break;
          }
        if (Vacuous) {
          ++Stats.Vacuous;
        } else {
          Inst.Consequent = A.Consequent.substitute(Map);
          Inst.Label = A.Label;
          if (const AssertionInstance *Kept = Seen.insert(std::move(Inst)))
            Out.push_back(Kept);
        }
      }

      // Advance the odometer.
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

/// Ackermann-style functional-consistency guards: for every pair of calls
/// to the same function, `args1 == args2 => f(args1) == f(args2)`. These
/// carry no domain knowledge — they are what "Affine Consistency" needs in
/// Figure 7 — and they flow through the same two-phase machinery.
void collectFunctionalConsistencyInstances(
    const Conjunction &C, const SimplifyOptions &Opts,
    InstantiationStats &Stats, InstanceStore &Seen,
    std::vector<const AssertionInstance *> &Out) {
  InstantiationMetrics &M = instantiationMetrics();
  std::vector<Atom> Calls = C.collectCalls();
  for (size_t I = 0; I < Calls.size(); ++I) {
    for (size_t J = I + 1; J < Calls.size(); ++J) {
      if (Stats.Generated >= Opts.MaxInstances)
        return;
      const Atom &A = Calls[I], &B = Calls[J];
      if (A.name() != B.name() || A.args().size() != B.args().size())
        continue;
      ++Stats.Generated;
      M.Tuples.add();
      AssertionInstance Inst;
      Inst.Label = "functional_consistency(" + A.name() + ")";
      bool Vacuous = false;
      for (size_t K = 0; K < A.args().size(); ++K) {
        Constraint Eq = Constraint::equals(A.args()[K], B.args()[K]);
        if (constantFalse(Eq)) {
          Vacuous = true;
          break;
        }
        Inst.Antecedent.add(std::move(Eq));
      }
      if (Vacuous) {
        ++Stats.Vacuous;
        continue;
      }
      Inst.Consequent.add(
          Constraint::equals(Expr(1, A), Expr(1, B)));
      if (const AssertionInstance *Kept = Seen.insert(std::move(Inst)))
        Out.push_back(Kept);
    }
  }
}

} // namespace

Conjunction
instantiatePhase1(const Conjunction &C,
                  const std::vector<UniversalAssertion> &Assertions,
                  const SimplifyOptions &Opts, InstantiationStats *Stats,
                  std::vector<AssertionInstance> *Phase2,
                  OriginMap *Origins, WitnessPool *Pool) {
  InstantiationStats Local;
  InstantiationStats &S = Stats ? *Stats : Local;
  WitnessPool LocalPool;
  WitnessPool &Witnesses = Pool ? *Pool : LocalPool;

  Conjunction Aug = C;
  if (Origins) {
    Origins->BaseKeys.clear();
    for (const Constraint &C0 : Aug.constraints())
      Origins->BaseKeys.insert(C0);
  }
  InstanceStore SeenInstances;
  std::vector<const AssertionInstance *> Instances;
  std::vector<bool> Consumed;
  unsigned ProbesLeft = Opts.SemanticPhase1 ? Opts.SemanticProbeCap : 0;

  // Calls present in Aug, refreshed when consequents are appended: an
  // antecedent mentioning a call that occurs nowhere in Aug can never be
  // entailed, so we skip the (much costlier) semantic probe. The flattened
  // form of Aug is kept alongside so each probe only lowers one extra row
  // instead of re-flattening the whole conjunction. Both describe Aug as
  // of the last refresh (a contrapositive addition waits for the next
  // one) and are built on the first probe after it.
  std::unordered_set<Atom> AugCalls;
  Flattened AugFlat;
  size_t RefreshedAt = 0; // Aug's size at the last refresh
  bool Stale = true;
  auto RefreshCalls = [&] {
    RefreshedAt = Aug.constraints().size();
    Stale = true;
  };
  RefreshCalls();
  auto Rebuild = [&] {
    if (!Stale)
      return;
    Stale = false;
    const std::vector<Constraint> &Cs = Aug.constraints();
    Conjunction Prefix;
    if (RefreshedAt < Cs.size())
      Prefix = Conjunction(std::vector<Constraint>(
          Cs.begin(), Cs.begin() + static_cast<std::ptrdiff_t>(RefreshedAt)));
    const Conjunction &Snapshot = RefreshedAt < Cs.size() ? Prefix : Aug;
    AugCalls.clear();
    for (const Atom &A : Snapshot.collectCalls())
      AugCalls.insert(A);
    AugFlat = flatten(Snapshot, {});
  };
  std::vector<Atom> CallScratch; // reused across probes
  auto CallsPresent = [&](const Constraint &P) {
    CallScratch.clear();
    P.E.collectCalls(CallScratch);
    for (const Atom &A : CallScratch)
      if (!AugCalls.count(A))
        return false;
    return true;
  };

  // Semantic entailment of one constraint by Aug, via integer emptiness of
  // Aug && !P. Budgeted: each probe is one (cheap) LP/branch-and-bound
  // run with a small node budget (rational infeasibility decides almost
  // every probe). Positive results are cached forever (Aug only grows);
  // negative results are cached per pass. Most probes find Aug && !P
  // non-empty; the witness pool answers those from points earlier probes
  // found (points survive RefreshCalls: each is re-checked against the
  // full row set of every probe).
  std::unordered_map<Constraint, ProbeResult> ProbeCache;
  // Map a probe's integer-level emptiness core back onto Aug's constraints
  // (the probe set is AugFlat.Set plus one trailing inequality — the
  // negated goal, which is the proof's reductio and needs no label).
  auto ProbeSupport = [&](const presburger::EmptinessCore &EC,
                          std::vector<std::string> &Out) {
    if (!EC.Valid) {
      Out.push_back(OriginMap::unattributed());
      return;
    }
    size_t NEq = AugFlat.EqRowConstraint.size();
    const std::vector<Constraint> &Cs = Aug.constraints();
    for (uint32_t RI : EC.Rows) {
      if (RI < NEq) {
        appendOrigin(*Origins, Cs[AugFlat.EqRowConstraint[RI]], Out);
        continue;
      }
      size_t II = RI - NEq;
      if (II >= AugFlat.IneqRowConstraint.size())
        continue; // the appended negated goal
      appendOrigin(*Origins, Cs[AugFlat.IneqRowConstraint[II]], Out);
    }
  };
  auto ImpliedSemantically = [&](const Constraint &P) {
    if (ProbesLeft == 0)
      return false;
    Rebuild();
    if (!CallsPresent(P))
      return false;
    auto Cached = ProbeCache.find(P);
    if (Cached != ProbeCache.end())
      return Cached->second.Implied;
    unsigned Budget = std::min(Opts.EmptinessBudget, 8u);
    ProbeResult PR;
    auto EmptyWith = [&](const Constraint &Neg) {
      // Lower !P onto Aug's column space; atoms are present (checked).
      unsigned Width = AugFlat.Set.numVars();
      std::vector<int64_t> Row(Width + 1, 0);
      Row[Width] = Neg.E.constant();
      for (const Expr::Term &T : Neg.E.terms()) {
        unsigned Col = AugFlat.columnOf(T.A);
        if (Col == Width)
          return false; // unseen variable: cannot be entailed
        Row[Col] += T.Coeff;
      }
      presburger::BasicSet Probe = AugFlat.Set;
      Probe.addInequality(std::move(Row));
      presburger::EmptinessCore EC;
      if (Witnesses.isEmpty(Probe, AugFlat.Cols, Budget,
                            Origins ? &EC : nullptr) !=
          presburger::Ternary::True)
        return false;
      if (Origins)
        ProbeSupport(EC, PR.Support);
      return true;
    };
    if (!P.isEq()) {
      --ProbesLeft;
      PR.Implied = EmptyWith(negateGeq(P));
    } else if (ProbesLeft >= 2) {
      ProbesLeft -= 2;
      PR.Implied = EmptyWith(Constraint::geq(P.E - Expr(1))) &&
                   EmptyWith(Constraint::geq(-P.E - Expr(1)));
    }
    if (!PR.Implied)
      PR.Support.clear();
    bool Result = PR.Implied;
    ProbeCache.emplace(P, std::move(PR));
    return Result;
  };

  // Instantiation rounds: phase-1 additions introduce new call terms
  // (e.g. rowptr(col(k)+1) from a segment-pointer consequent), which seed
  // new argument expressions for Definition 1's E on the next round.
  const unsigned MaxRounds = std::max(1u, Opts.InstantiationRounds);
  std::vector<Expr> PrevE;
  std::vector<bool> Old;
  for (unsigned Round = 0; Round < MaxRounds; ++Round) {
  size_t SizeBefore = Instances.size();
  std::vector<Expr> E = argumentExpressionSet(Aug);
  // Aug only grows, so E holds the previous round's expressions (sorted,
  // as PrevE is).
  Old.assign(E.size(), false);
  for (size_t I = 0; I < E.size(); ++I)
    Old[I] = std::binary_search(PrevE.begin(), PrevE.end(), E[I]);
  // Property instances come first: they carry the domain knowledge and are
  // the profitable targets for the (budgeted) semantic probes. The
  // functional-consistency guards are numerous and mostly matter for
  // phase 2, so they queue behind.
  std::vector<const AssertionInstance *> NewInstances;
  enumerateInstances(Assertions, E, Round > 0 ? &Old : nullptr, Opts, S,
                     SeenInstances, NewInstances);
  PrevE = std::move(E);
  std::stable_sort(NewInstances.begin(), NewInstances.end(),
                   [](const AssertionInstance *A, const AssertionInstance *B) {
                     return A->Antecedent.constraints().size() <
                            B->Antecedent.constraints().size();
                   });
  collectFunctionalConsistencyInstances(Aug, Opts, S, SeenInstances,
                                        NewInstances);
  Instances.insert(Instances.end(), NewInstances.begin(), NewInstances.end());
  Consumed.resize(Instances.size(), false);
  if (Round > 0 && Instances.size() == SizeBefore)
    break; // nothing new to try

  for (unsigned Pass = 0; Pass < Opts.Phase1Passes; ++Pass) {
    bool Changed = false;
    // Aug grew last pass: negative probe answers may have flipped.
    for (auto It = ProbeCache.begin(); It != ProbeCache.end();) {
      if (!It->second.Implied)
        It = ProbeCache.erase(It);
      else
        ++It;
    }
    for (size_t I = 0; I < Instances.size(); ++I) {
      if (Consumed[I])
        continue;
      const AssertionInstance &Inst = *Instances[I];

      // Useless if the consequent adds nothing.
      bool ConsImplied = true;
      for (const Constraint &Q : Inst.Consequent.constraints())
        if (!Aug.impliesSyntactically(Q)) {
          ConsImplied = false;
          break;
        }
      if (ConsImplied) {
        Consumed[I] = true;
        ++S.AlreadyImplied;
        continue;
      }

      // Forward rule: antecedent present => add consequent.
      bool AnteImplied = true;
      for (const Constraint &P : Inst.Antecedent.constraints())
        if (!Aug.impliesSyntactically(P) && !ImpliedSemantically(P)) {
          AnteImplied = false;
          break;
        }
      if (AnteImplied) {
        if (Origins) {
          // Origin of each consequent constraint: this instance plus the
          // (transitively flattened) supports of its antecedent.
          std::vector<std::string> Labels{Inst.Label};
          for (const Constraint &P : Inst.Antecedent.constraints()) {
            if (P.E.isConstant())
              continue;
            if (Aug.impliesSyntactically(P)) {
              appendSyntacticSupport(*Origins, Aug, P, Labels);
            } else {
              auto It = ProbeCache.find(P);
              if (It != ProbeCache.end() && It->second.Implied)
                Labels.insert(Labels.end(), It->second.Support.begin(),
                              It->second.Support.end());
              else
                Labels.push_back(OriginMap::unattributed());
            }
          }
          std::sort(Labels.begin(), Labels.end());
          Labels.erase(std::unique(Labels.begin(), Labels.end()),
                       Labels.end());
          for (const Constraint &Q : Inst.Consequent.constraints())
            if (!Origins->BaseKeys.count(Q))
              Origins->ConstraintOrigins.emplace(Q, Labels);
        }
        Aug.append(Inst.Consequent);
        RefreshCalls();
        Consumed[I] = true;
        ++S.Phase1Added;
        S.UsedLabels.push_back(Inst.Label);
        Changed = true;
        continue;
      }

      // Contrapositive rule (§6.2): single-constraint consequent q with
      // !q present lets us add !p for a single-constraint antecedent.
      if (Inst.Consequent.constraints().size() == 1 &&
          Inst.Antecedent.constraints().size() == 1) {
        const Constraint &Q = Inst.Consequent.constraints()[0];
        const Constraint &P = Inst.Antecedent.constraints()[0];
        if (!Q.isEq() && !P.isEq() &&
            Aug.impliesSyntactically(negateGeq(Q))) {
          if (Origins) {
            std::vector<std::string> Labels{Inst.Label + " [contrapositive]"};
            appendSyntacticSupport(*Origins, Aug, negateGeq(Q), Labels);
            std::sort(Labels.begin(), Labels.end());
            Labels.erase(std::unique(Labels.begin(), Labels.end()),
                         Labels.end());
            Constraint NotP = negateGeq(P);
            if (!Origins->BaseKeys.count(NotP))
              Origins->ConstraintOrigins.emplace(std::move(NotP),
                                                 std::move(Labels));
          }
          Aug.add(negateGeq(P));
          Consumed[I] = true;
          ++S.Phase1Added;
          S.UsedLabels.push_back(Inst.Label + " [contrapositive]");
          Changed = true;
          continue;
        }
      }
    }
    if (!Changed)
      break;
  }
  } // rounds

  if (Phase2) {
    for (size_t I = 0; I < Instances.size(); ++I)
      if (!Consumed[I])
        Phase2->push_back(*Instances[I]);
  }
  return Aug;
}

namespace {

/// An integer point in global coordinates, shared by every piece it lies
/// in.
using PointRef = std::shared_ptr<const std::vector<int64_t>>;

/// One DNF piece of phase 2: Aug plus a stack of branch literals (ids in
/// the proof's LoweredSpace), with integer points known to lie in it.
struct Piece {
  std::vector<unsigned> Stack;
  std::vector<PointRef> Points;
};

/// Points kept per piece.
constexpr size_t MaxPiecePoints = 8;

/// Emptiness of one piece. A True verdict records the piece's citations
/// in `CC`; a False verdict hands back its point.
presburger::Ternary checkPiece(const LoweredSpace &Space, const Piece &P,
                               unsigned Budget, CoreCollector *CC,
                               WitnessPool &Witnesses, PointRef *Point) {
  LoweredSpace::Piece L;
  Space.assemble(P.Stack, L);
  presburger::EmptinessCore EC;
  std::vector<int64_t> Local;
  presburger::Ternary V = Witnesses.isEmpty(
      L.F.Set, L.F.Cols, Budget, CC ? &EC : nullptr, Point ? &Local : nullptr);
  if (V == presburger::Ternary::True)
    notePieceEmpty(CC, Space, L, EC);
  else if (V == presburger::Ternary::False && Point)
    *Point = std::make_shared<const std::vector<int64_t>>(
        Space.lift(L, Local));
  return V;
}

/// The branches of a phase-2 instance (!A || C) as literal-id lists: the
/// consequent first, then one branch per way an antecedent constraint can
/// fail (two for an equality).
std::vector<std::vector<unsigned>> branchesOf(LoweredSpace &Space,
                                              const AssertionInstance &Inst) {
  std::vector<std::vector<unsigned>> Branches(1);
  for (const Constraint &Q : Inst.Consequent.constraints())
    Branches[0].push_back(Space.addLiteral(Q));
  for (const Constraint &A : Inst.Antecedent.constraints()) {
    if (A.isEq()) {
      Branches.push_back({Space.addLiteral(Constraint::geq(A.E - Expr(1)))});
      Branches.push_back({Space.addLiteral(Constraint::geq(-A.E - Expr(1)))});
    } else {
      Branches.push_back({Space.addLiteral(negateGeq(A))});
    }
  }
  return Branches;
}

/// Conjoin a phase-2 instance onto the piece list, breadth-first: every
/// piece times every branch, in that order. When the children outnumber
/// `MaxPieces`, empty ones are pruned (cheap budget) and the split is
/// dropped — returning false and leaving `Pieces` as they were — as soon
/// as more than `MaxPieces` children are known non-empty. A child that
/// holds one of its parent's points is non-empty without a check. The
/// citations of pruned children reach `CC` only if the split is applied;
/// points found for the children of a dropped split stay on their parents.
bool applyDisjunctiveInstance(std::vector<Piece> &Pieces,
                              const std::vector<std::vector<unsigned>> &Branches,
                              const LoweredSpace &Space,
                              const SimplifyOptions &Opts, CoreCollector *CC,
                              WitnessPool &Witnesses) {
  InstantiationMetrics &M = instantiationMetrics();
  bool Prune = Pieces.size() * Branches.size() > Opts.MaxPieces;
  CoreCollector Split;
  Split.Origins = CC ? CC->Origins : nullptr;
  std::vector<Piece> Next;
  std::vector<std::pair<size_t, PointRef>> Found;
  for (size_t PI = 0; PI < Pieces.size(); ++PI) {
    const Piece &Parent = Pieces[PI];
    for (const std::vector<unsigned> &Branch : Branches) {
      M.Pieces.add();
      Piece Child;
      Child.Stack = Parent.Stack;
      Child.Stack.insert(Child.Stack.end(), Branch.begin(), Branch.end());
      for (const PointRef &Pt : Parent.Points)
        if (std::all_of(Branch.begin(), Branch.end(), [&](unsigned Id) {
              return Space.satisfies(Id, *Pt);
            }))
          Child.Points.push_back(Pt);
      if (Prune && !Child.Points.empty()) {
        M.Inherited.add();
      } else if (Prune) {
        M.Checks.add();
        PointRef Pt;
        presburger::Ternary V =
            checkPiece(Space, Child, /*Budget=*/8, CC ? &Split : nullptr,
                       Witnesses, &Pt);
        if (V == presburger::Ternary::True)
          continue;
        if (V == presburger::Ternary::False) {
          Child.Points.push_back(Pt);
          Found.emplace_back(PI, std::move(Pt));
        }
      }
      Next.push_back(std::move(Child));
      if (Next.size() > Opts.MaxPieces) {
        M.Dropped.add();
        for (auto &[Owner, Pt] : Found)
          if (Pieces[Owner].Points.size() < MaxPiecePoints)
            Pieces[Owner].Points.push_back(std::move(Pt));
        return false;
      }
    }
  }
  if (CC) {
    CC->Labels.insert(CC->Labels.end(), Split.Labels.begin(),
                      Split.Labels.end());
    CC->Fine = CC->Fine && Split.Fine;
  }
  Pieces = std::move(Next);
  return true;
}

/// The final check: every piece must be proven empty. A piece that holds a
/// point cannot be, so any such piece answers "not proven" at once.
bool allPiecesProvenEmpty(const std::vector<Piece> &Pieces,
                          const LoweredSpace &Space,
                          const SimplifyOptions &Opts, CoreCollector *CC,
                          WitnessPool &Witnesses) {
  for (const Piece &P : Pieces)
    if (!P.Points.empty())
      return false;
  for (const Piece &P : Pieces) {
    instantiationMetrics().Checks.add();
    if (checkPiece(Space, P, Opts.EmptinessBudget, CC, Witnesses, nullptr) !=
        presburger::Ternary::True)
      return false;
  }
  return true;
}

} // namespace

static bool provenUnsatWithAssertions(
    const SparseRelation &R, const std::vector<UniversalAssertion> &Assertions,
    const SimplifyOptions &Opts, InstantiationStats *Stats, UnsatCore *Core,
    WitnessPool &Witnesses) {
  InstantiationStats Local;
  InstantiationStats &S = Stats ? *Stats : Local;
  size_t LabelsBefore = S.UsedLabels.size();

  OriginMap OriginsStorage;
  OriginMap *Origins = Core ? &OriginsStorage : nullptr;
  CoreCollector CCStorage;
  CCStorage.Origins = Origins;
  CoreCollector *CC = Core ? &CCStorage : nullptr;

  std::vector<AssertionInstance> Phase2;
  Conjunction Aug = instantiatePhase1(R.Conj, Assertions, Opts, &S, &Phase2,
                                      Origins, &Witnesses);

  // Assemble the final core: the fine row-level citations when every piece
  // attributed cleanly, otherwise the coarse applied-instance trail (which
  // is always a sound superset — every derived row traces back to some
  // applied instance).
  auto Finish = [&](bool Proven) {
    if (!Core)
      return Proven;
    *Core = UnsatCore{};
    if (!Proven)
      return Proven;
    bool Fine = CC->Fine;
    for (const std::string &L : CC->Labels)
      if (L == OriginMap::unattributed())
        Fine = false;
    std::vector<std::string> Labels;
    if (Fine) {
      Labels = std::move(CC->Labels);
      Core->FromFarkas = true;
    } else {
      Labels.assign(S.UsedLabels.begin() + LabelsBefore, S.UsedLabels.end());
      Core->FromFarkas = false;
    }
    std::sort(Labels.begin(), Labels.end());
    Labels.erase(std::unique(Labels.begin(), Labels.end()), Labels.end());
    Core->Assertions = std::move(Labels);
    return Proven;
  };

  // Aug and every branch literal share one column space; pieces are
  // literal stacks over it.
  LoweredSpace Space(R, Aug);
  std::vector<Piece> Pieces(1);
  {
    PointRef Pt;
    presburger::Ternary V = checkPiece(Space, Pieces[0], Opts.EmptinessBudget,
                                       CC, Witnesses, &Pt);
    if (V == presburger::Ternary::True)
      return Finish(true);
    if (V == presburger::Ternary::False)
      Pieces[0].Points.push_back(std::move(Pt));
  }

  // Phase 2: add disjunction-introducing instances under the caps.
  unsigned Used = 0;
  for (const AssertionInstance &Inst : Phase2) {
    if (Used >= Opts.MaxPhase2Instances)
      break;
    std::vector<std::vector<unsigned>> Branches = branchesOf(Space, Inst);
    // Branch literals are case assumptions: the split's own label pays for
    // their exhaustiveness, nothing else is needed. A dropped split
    // withdraws the origins it registered.
    std::vector<unsigned> Registered;
    if (Origins) {
      std::vector<std::string> L{Inst.Label + " [disjunctive]"};
      for (const std::vector<unsigned> &Branch : Branches)
        for (unsigned Id : Branch) {
          const Constraint &Lit = Space.literal(Id);
          if (!Origins->BaseKeys.count(Lit) &&
              Origins->ConstraintOrigins.emplace(Lit, L).second)
            Registered.push_back(Id);
        }
    }
    if (!applyDisjunctiveInstance(Pieces, Branches, Space, Opts, CC,
                                  Witnesses)) {
      for (unsigned Id : Registered)
        Origins->ConstraintOrigins.erase(Space.literal(Id));
      ++S.Dropped;
      continue;
    }
    ++Used;
    ++S.Phase2Used;
    S.UsedLabels.push_back(Inst.Label + " [disjunctive]");
    // Every applied split must be cited: the pieces only cover the whole
    // space because the split's instance (!A || C) holds.
    if (CC)
      CC->Labels.push_back(Inst.Label + " [disjunctive]");
    if (Pieces.empty())
      return Finish(true); // every disjunct pruned as empty
  }

  if (Used == 0)
    return Finish(false); // nothing new to try
  return Finish(allPiecesProvenEmpty(Pieces, Space, Opts, CC, Witnesses));
}

namespace {

/// A label's property base: everything before the application-mode suffix
/// (" [contrapositive]" etc.) — the granularity at which the minimizer
/// drops assertions and at which guards validate them.
std::string labelBase(const std::string &L) {
  size_t P = L.find(" [");
  return P == std::string::npos ? L : L.substr(0, P);
}

/// Greedy drop-and-recheck core minimization at property-base granularity:
/// re-prove without one base at a time (restricted to the bases still
/// believed necessary) and keep any smaller proof found. Each recheck
/// costs a full proof, so the loop is budget-capped.
void minimizeCore(const SparseRelation &R,
                  const std::vector<UniversalAssertion> &All,
                  const SimplifyOptions &Opts, UnsatCore &Core,
                  WitnessPool &Witnesses) {
  SimplifyOptions Sub = Opts;
  Sub.CoreMinimizeBudget = 0;
  std::set<std::string> AssertLabels;
  for (const UniversalAssertion &A : All)
    AssertLabels.insert(A.Label);
  std::set<std::string> Live;
  for (const std::string &L : Core.Assertions) {
    std::string B = labelBase(L);
    if (AssertLabels.count(B))
      Live.insert(B);
  }
  std::vector<std::string> Candidates(Live.begin(), Live.end());
  unsigned Budget = Opts.CoreMinimizeBudget;
  bool Complete = true;
  for (const std::string &B : Candidates) {
    if (!Live.count(B))
      continue; // already shed by an earlier successful recheck
    if (Budget == 0) {
      Complete = false;
      break;
    }
    --Budget;
    std::vector<UniversalAssertion> Subset;
    for (const UniversalAssertion &A : All)
      if (A.Label != B && Live.count(A.Label))
        Subset.push_back(A);
    UnsatCore Trial;
    if (!provenUnsatWithAssertions(R, Subset, Sub, nullptr, &Trial,
                                   Witnesses))
      continue;
    Core = std::move(Trial);
    Live.clear();
    for (const std::string &L : Core.Assertions) {
      std::string NB = labelBase(L);
      if (AssertLabels.count(NB))
        Live.insert(NB);
    }
  }
  Core.Minimized = Complete;
}

} // namespace

bool provenUnsat(const SparseRelation &R, const PropertySet &PS,
                 const SimplifyOptions &Opts, InstantiationStats *Stats,
                 UnsatCore *Core, WitnessPool *Pool) {
  WitnessPool LocalPool;
  WitnessPool &Witnesses = Pool ? *Pool : LocalPool;
  bool Proven = provenUnsatWithAssertions(R, PS.assertions(), Opts, Stats,
                                          Core, Witnesses);
  if (Proven && Core && Opts.CoreMinimizeBudget > 0)
    minimizeCore(R, PS.assertions(), Opts, *Core, Witnesses);
  return Proven;
}

bool provenUnsatAffineOnly(const SparseRelation &R,
                           const SimplifyOptions &Opts,
                           InstantiationStats *Stats, UnsatCore *Core,
                           WitnessPool *Pool) {
  // No property assertions: functional-consistency guards only (these are
  // always sound, independent of any domain knowledge), so any core here
  // needs no runtime validation at all.
  WitnessPool LocalPool;
  return provenUnsatWithAssertions(R, {}, Opts, Stats, Core,
                                   Pool ? *Pool : LocalPool);
}

} // namespace ir
} // namespace sds

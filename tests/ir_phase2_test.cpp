//===- ir_phase2_test.cpp - Lowered phase 2 against the Conjunction split --===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
// Phase 2 of §6.2 (the disjunctive case split in provenUnsat) builds its
// pieces as literal stacks over one lowered column space, stops a split at
// its first cap breach and lets pieces carry integer points. This suite
// keeps the Conjunction-based breadth-first split it replaced as a
// reference — every child a Conjunction copy, flattened and checked, pruned
// in full before the cap is tested — and runs both on every dependence of
// the fast-tier kernels: without properties, with the full property set,
// and, for a proven relation, without each property its core cites (the
// subsets core minimization re-proves), at piece caps 2, 8 and 48.
// Verdicts, core labels, FromFarkas, the applied-instance trail and the
// Phase2Used/Dropped counts must agree, and every piece the reference
// checks must lower (LoweredSpace::assemble) to exactly the set flatten()
// builds for it. Set SDS_HEAVY to a nonzero value to also run IC0 and ILU0
// (minutes).
//
//===----------------------------------------------------------------------===//

#include "sds/deps/Extraction.h"
#include "sds/ir/Flatten.h"
#include "sds/ir/Simplify.h"
#include "sds/kernels/Kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

using namespace sds;
using namespace sds::ir;
using presburger::EmptinessCore;
using presburger::Ternary;

namespace {

//===----------------------------------------------------------------------===//
// Reference: the Conjunction-based breadth-first phase 2.
//===----------------------------------------------------------------------===//

Constraint negateGeq(const Constraint &C) {
  return Constraint::geq(-C.E - Expr(1));
}

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

struct Collector {
  const OriginMap *Origins = nullptr;
  std::vector<std::string> Labels;
  bool Fine = true;
};

/// A reference piece: the Conjunction itself, plus the literal stack that
/// names it in the lowered space (used only to compare the lowering).
struct RefPiece {
  Conjunction C;
  std::vector<unsigned> Stack;
};

/// Pieces checked, and pieces whose lowering differed from flatten().
unsigned PiecesCompared = 0, LoweringMismatches = 0;

void compareLowering(const Flattened &Want, const LoweredSpace &Space,
                     const RefPiece &P) {
  LoweredSpace::Piece Got;
  Space.assemble(P.Stack, Got);
  ++PiecesCompared;
  bool Same = Want.Cols == Got.F.Cols &&
              Want.Set.numVars() == Got.F.Set.numVars() &&
              Want.Set.equalities() == Got.F.Set.equalities() &&
              Want.Set.inequalities() == Got.F.Set.inequalities() &&
              Want.EqRowConstraint == Got.F.EqRowConstraint &&
              Want.IneqRowConstraint == Got.F.IneqRowConstraint;
  if (!Same && ++LoweringMismatches <= 3)
    ADD_FAILURE() << "lowered piece differs from flatten():\n  want "
                  << Want.Set.str(Want.names()) << "\n  got  "
                  << Got.F.Set.str(Got.F.names());
}

Ternary refCheck(const SparseRelation &R, const LoweredSpace &Space,
                 const RefPiece &P, unsigned Budget, Collector *CC,
                 WitnessPool &Witnesses) {
  SparseRelation Tmp = R;
  Tmp.Conj = P.C;
  Flattened F = flatten(Tmp);
  compareLowering(F, Space, P);
  EmptinessCore EC;
  Ternary V = Witnesses.isEmpty(F.Set, F.Cols, Budget, CC ? &EC : nullptr);
  if (V != Ternary::True || !CC)
    return V;
  if (!EC.Valid) {
    CC->Fine = false;
    return V;
  }
  const std::vector<Constraint> &Cs = P.C.constraints();
  size_t NEq = F.EqRowConstraint.size();
  for (uint32_t RI : EC.Rows) {
    unsigned CI = RI < NEq ? F.EqRowConstraint[RI]
                           : F.IneqRowConstraint[RI - NEq];
    appendOrigin(*CC->Origins, Cs[CI], CC->Labels);
  }
  return V;
}

/// Every child of every piece; when they outnumber the cap, prune all the
/// empty ones, then drop the split if the survivors still do. Citations of
/// pruned children count only when the split is applied.
bool refApply(std::vector<RefPiece> &Pieces, const AssertionInstance &Inst,
              const SparseRelation &R, LoweredSpace &Space,
              const SimplifyOptions &Opts, Collector *CC,
              WitnessPool &Witnesses) {
  std::vector<RefPiece> Next;
  auto Child = [&](const RefPiece &P, const std::vector<Constraint> &Lits) {
    RefPiece C = P;
    for (const Constraint &L : Lits) {
      C.C.add(L);
      C.Stack.push_back(Space.addLiteral(L));
    }
    Next.push_back(std::move(C));
  };
  for (const RefPiece &P : Pieces) {
    Child(P, Inst.Consequent.constraints());
    for (const Constraint &A : Inst.Antecedent.constraints()) {
      if (A.isEq()) {
        Child(P, {Constraint::geq(A.E - Expr(1))});
        Child(P, {Constraint::geq(-A.E - Expr(1))});
      } else {
        Child(P, {negateGeq(A)});
      }
    }
  }
  Collector Split;
  Split.Origins = CC ? CC->Origins : nullptr;
  if (Next.size() > Opts.MaxPieces) {
    std::vector<RefPiece> Kept;
    for (RefPiece &P : Next)
      if (refCheck(R, Space, P, 8, CC ? &Split : nullptr, Witnesses) !=
          Ternary::True)
        Kept.push_back(std::move(P));
    Next = std::move(Kept);
  }
  if (Next.size() > Opts.MaxPieces)
    return false;
  if (CC) {
    CC->Labels.insert(CC->Labels.end(), Split.Labels.begin(),
                      Split.Labels.end());
    CC->Fine = CC->Fine && Split.Fine;
  }
  Pieces = std::move(Next);
  return true;
}

bool refProve(const SparseRelation &R,
              const std::vector<UniversalAssertion> &Assertions,
              const SimplifyOptions &Opts, InstantiationStats &S,
              UnsatCore &Core) {
  WitnessPool Witnesses;
  OriginMap Origins;
  Collector CC;
  CC.Origins = &Origins;
  std::vector<AssertionInstance> Phase2;
  Conjunction Aug = instantiatePhase1(R.Conj, Assertions, Opts, &S, &Phase2,
                                      &Origins, &Witnesses);
  auto Finish = [&](bool Proven) {
    Core = UnsatCore{};
    if (!Proven)
      return false;
    bool Fine = CC.Fine;
    for (const std::string &L : CC.Labels)
      if (L == OriginMap::unattributed())
        Fine = false;
    std::vector<std::string> Labels =
        Fine ? CC.Labels : S.UsedLabels; // S is private to this proof
    Core.FromFarkas = Fine;
    std::sort(Labels.begin(), Labels.end());
    Labels.erase(std::unique(Labels.begin(), Labels.end()), Labels.end());
    Core.Assertions = std::move(Labels);
    return true;
  };
  LoweredSpace Space(R, Aug);
  std::vector<RefPiece> Pieces{RefPiece{Aug, {}}};
  auto AllEmpty = [&] {
    for (const RefPiece &P : Pieces)
      if (refCheck(R, Space, P, Opts.EmptinessBudget, &CC, Witnesses) !=
          Ternary::True)
        return false;
    return true;
  };
  if (AllEmpty())
    return Finish(true);
  unsigned Used = 0;
  for (const AssertionInstance &Inst : Phase2) {
    if (Used >= Opts.MaxPhase2Instances)
      break;
    // A dropped split withdraws the branch origins it registered.
    std::vector<std::string> L{Inst.Label + " [disjunctive]"};
    std::vector<Constraint> Registered;
    auto RegisterBranch = [&](const Constraint &BC) {
      if (!Origins.BaseKeys.count(BC) &&
          Origins.ConstraintOrigins.emplace(BC, L).second)
        Registered.push_back(BC);
    };
    for (const Constraint &Q : Inst.Consequent.constraints())
      RegisterBranch(Q);
    for (const Constraint &A : Inst.Antecedent.constraints()) {
      if (A.isEq()) {
        RegisterBranch(Constraint::geq(A.E - Expr(1)));
        RegisterBranch(Constraint::geq(-A.E - Expr(1)));
      } else {
        RegisterBranch(negateGeq(A));
      }
    }
    if (!refApply(Pieces, Inst, R, Space, Opts, &CC, Witnesses)) {
      for (const Constraint &BC : Registered)
        Origins.ConstraintOrigins.erase(BC);
      ++S.Dropped;
      continue;
    }
    ++Used;
    ++S.Phase2Used;
    S.UsedLabels.push_back(Inst.Label + " [disjunctive]");
    CC.Labels.push_back(Inst.Label + " [disjunctive]");
    if (Pieces.empty())
      return Finish(true);
  }
  if (Used == 0)
    return Finish(false);
  return Finish(AllEmpty());
}

//===----------------------------------------------------------------------===//
// Harness
//===----------------------------------------------------------------------===//

/// `PS` without its `Skip`-th entry (properties first, then domain/range
/// declarations): one of the subsets core minimization re-proves.
PropertySet without(const PropertySet &PS, size_t Skip) {
  PropertySet Out;
  size_t I = 0;
  for (const IndexArrayProperty &P : PS.properties())
    if (I++ != Skip)
      Out.add(P);
  for (const DomainRangeDecl &D : PS.domainRanges())
    if (I++ != Skip)
      Out.addDomainRange(D);
  return Out;
}

struct Tally {
  unsigned Proofs = 0, Proven = 0, Dropped = 0;
};

/// One proof both ways, each from a cold verdict cache and a fresh pool.
/// Returns the (agreed) core of a proven relation, empty otherwise.
std::vector<std::string> compareProof(const SparseRelation &R,
                                      const PropertySet *PS,
                                      const SimplifyOptions &Opts,
                                      const std::string &What, Tally &T) {
  SCOPED_TRACE(What);
  InstantiationStats SNew, SRef;
  UnsatCore CNew, CRef;
  presburger::clearQueryCache();
  bool New = PS ? provenUnsat(R, *PS, Opts, &SNew, &CNew)
                : provenUnsatAffineOnly(R, Opts, &SNew, &CNew);
  presburger::clearQueryCache();
  bool Ref = refProve(
      R, PS ? PS->assertions() : std::vector<UniversalAssertion>{}, Opts,
      SRef, CRef);
  ++T.Proofs;
  T.Proven += New;
  T.Dropped += SNew.Dropped;
  EXPECT_EQ(New, Ref);
  EXPECT_EQ(CNew.Assertions, CRef.Assertions);
  EXPECT_EQ(CNew.FromFarkas, CRef.FromFarkas);
  EXPECT_EQ(SNew.Phase2Used, SRef.Phase2Used);
  EXPECT_EQ(SNew.Dropped, SRef.Dropped);
  EXPECT_EQ(SNew.UsedLabels, SRef.UsedLabels);
  return CNew.Assertions;
}

/// Does some label of `Core` belong to an assertion of `PS` that `Sub`
/// lacks? Core minimization re-proves exactly those subsets.
bool citesDropped(const std::vector<std::string> &Core, const PropertySet &PS,
                  const PropertySet &Sub) {
  std::set<std::string> Kept;
  for (const UniversalAssertion &A : Sub.assertions())
    Kept.insert(A.Label);
  for (const UniversalAssertion &A : PS.assertions())
    if (!Kept.count(A.Label))
      for (const std::string &L : Core)
        if (L.compare(0, A.Label.size(), A.Label) == 0)
          return true;
  return false;
}

Tally compareKernels(const std::vector<kernels::Kernel> &Kernels) {
  Tally T;
  PiecesCompared = LoweringMismatches = 0;
  for (const kernels::Kernel &K : Kernels) {
    const PropertySet &PS = K.Properties;
    size_t NumEntries = PS.properties().size() + PS.domainRanges().size();
    for (const deps::Dependence &D : deps::extractDependences(K)) {
      const SparseRelation &R = D.Rel;
      for (unsigned Cap : {2u, 8u, 48u}) {
        std::string Where =
            K.Name + " " + D.label() + " cap " + std::to_string(Cap);
        SimplifyOptions Opts;
        Opts.MaxPieces = Cap;
        Opts.CoreMinimizeBudget = 0;
        compareProof(R, nullptr, Opts, Where + " affine", T);
        // As the pipeline runs property-unsat: syntactic phase 1.
        Opts.SemanticPhase1 = false;
        std::vector<std::string> Core =
            compareProof(R, &PS, Opts, Where + " all properties", T);
        for (size_t Skip = 0; Skip < NumEntries; ++Skip) {
          PropertySet Sub = without(PS, Skip);
          if (citesDropped(Core, PS, Sub))
            compareProof(R, &Sub, Opts,
                         Where + " without entry " + std::to_string(Skip), T);
        }
      }
    }
  }
  EXPECT_EQ(LoweringMismatches, 0u) << "of " << PiecesCompared << " pieces";
  EXPECT_GT(PiecesCompared, 0u);
  return T;
}

} // namespace

TEST(Phase2Differential, FastTierDependences) {
  Tally T = compareKernels({kernels::forwardSolveCSR(),
                            kernels::forwardSolveCSC(),
                            kernels::gaussSeidelCSR(), kernels::spmvCSR(),
                            kernels::leftCholeskyCSC()});
  // The sweep must exercise both outcomes and the cap.
  EXPECT_GT(T.Proven, 0u);
  EXPECT_LT(T.Proven, T.Proofs);
  EXPECT_GT(T.Dropped, 0u);
  std::printf("[   INFO   ] %u proofs, %u proven, %u splits dropped, %u "
              "pieces lowered\n",
              T.Proofs, T.Proven, T.Dropped, PiecesCompared);
}

TEST(Phase2Differential, HeavyTierDependences) {
  const char *Heavy = std::getenv("SDS_HEAVY");
  if (!Heavy || std::atoi(Heavy) == 0)
    GTEST_SKIP() << "set SDS_HEAVY=1 to compare IC0 and ILU0 (minutes)";
  Tally T = compareKernels(
      {kernels::incompleteCholeskyCSC(), kernels::incompleteLU0CSR()});
  EXPECT_GT(T.Proven, 0u);
}

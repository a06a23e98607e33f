//===- presburger_simplex_test.cpp - Exact rational simplex tests --------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//

#include "sds/presburger/Simplex.h"

#include "sds/obs/Metrics.h"
#include "sds/obs/Trace.h"

#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <string>

using namespace sds;
using namespace sds::presburger;

namespace sds {
void PrintTo(const Fraction &F, std::ostream *OS) { *OS << F.str(); }
} // namespace sds

namespace {
std::vector<int64_t> row(std::initializer_list<int64_t> L) { return L; }
} // namespace

TEST(Simplex, EmptySystemFeasible) {
  Simplex S(2);
  EXPECT_EQ(S.checkFeasible(), LPStatus::Optimal);
}

TEST(Simplex, SimpleFeasible) {
  // x >= 1, y >= 2, x + y <= 10.
  Simplex S(2);
  S.addInequality(row({1, 0, -1}));
  S.addInequality(row({0, 1, -2}));
  S.addInequality(row({-1, -1, 10}));
  EXPECT_EQ(S.checkFeasible(), LPStatus::Optimal);
  auto P = S.samplePoint();
  Fraction X = P[0], Y = P[1];
  EXPECT_GE(X, Fraction(1));
  EXPECT_GE(Y, Fraction(2));
  EXPECT_LE(X + Y, Fraction(10));
}

TEST(Simplex, InfeasibleBounds) {
  // x >= 5 and x <= 3.
  Simplex S(1);
  S.addInequality(row({1, -5}));
  S.addInequality(row({-1, 3}));
  EXPECT_EQ(S.checkFeasible(), LPStatus::Infeasible);
}

TEST(Simplex, InfeasibleEqualityChain) {
  // x = y, y = z, x - z = 1 is contradictory.
  Simplex S(3);
  S.addEquality(row({1, -1, 0, 0}));
  S.addEquality(row({0, 1, -1, 0}));
  S.addEquality(row({1, 0, -1, -1}));
  EXPECT_EQ(S.checkFeasible(), LPStatus::Infeasible);
}

TEST(Simplex, TrivialRows) {
  Simplex S(1);
  S.addInequality(row({0, 5}));  // 5 >= 0, fine
  S.addEquality(row({0, 0}));    // 0 == 0, fine
  EXPECT_EQ(S.checkFeasible(), LPStatus::Optimal);
  Simplex S2(1);
  S2.addInequality(row({0, -3})); // -3 >= 0, contradiction
  EXPECT_EQ(S2.checkFeasible(), LPStatus::Infeasible);
  Simplex S3(1);
  S3.addEquality(row({0, 2})); // 2 == 0, contradiction
  EXPECT_EQ(S3.checkFeasible(), LPStatus::Infeasible);
}

TEST(Simplex, MinimizeBounded) {
  // Minimize x + y with x >= 3, y >= 4.
  Simplex S(2);
  S.addInequality(row({1, 0, -3}));
  S.addInequality(row({0, 1, -4}));
  Fraction Opt;
  EXPECT_EQ(S.minimize(row({1, 1, 0}), Opt), LPStatus::Optimal);
  EXPECT_EQ(Opt, Fraction(7));
}

TEST(Simplex, MinimizeWithConstantTerm) {
  Simplex S(1);
  S.addInequality(row({1, 0})); // x >= 0
  Fraction Opt;
  EXPECT_EQ(S.minimize(row({2, 5}), Opt), LPStatus::Optimal);
  EXPECT_EQ(Opt, Fraction(5)); // min 2x + 5 at x = 0
}

TEST(Simplex, MinimizeUnbounded) {
  Simplex S(1);
  S.addInequality(row({-1, 10})); // x <= 10
  Fraction Opt;
  EXPECT_EQ(S.minimize(row({1, 0}), Opt), LPStatus::Unbounded);
}

TEST(Simplex, UnboundedObjectiveNoConstraints) {
  Simplex S(1);
  Fraction Opt;
  EXPECT_EQ(S.minimize(row({1, 0}), Opt), LPStatus::Unbounded);
}

TEST(Simplex, FractionalOptimum) {
  // 2x = 1 has rational solution x = 1/2.
  Simplex S(1);
  S.addEquality(row({2, -1}));
  EXPECT_EQ(S.checkFeasible(), LPStatus::Optimal);
  EXPECT_EQ(S.samplePoint()[0], Fraction(1, 2));
}

TEST(Simplex, NegativeSolution) {
  // x <= -5.
  Simplex S(1);
  S.addInequality(row({-1, -5}));
  EXPECT_EQ(S.checkFeasible(), LPStatus::Optimal);
  EXPECT_LE(S.samplePoint()[0], Fraction(-5));
}

TEST(Simplex, DegenerateCyclePotential) {
  // A classic degenerate system; Bland's rule must terminate.
  Simplex S(2);
  S.addInequality(row({1, 0, 0}));   // x >= 0
  S.addInequality(row({0, 1, 0}));   // y >= 0
  S.addInequality(row({-1, -1, 0})); // x + y <= 0 -> x = y = 0
  Fraction Opt;
  EXPECT_EQ(S.minimize(row({-1, -2, 0}), Opt), LPStatus::Optimal);
  EXPECT_EQ(Opt, Fraction(0));
}

TEST(Simplex, RedundantEqualities) {
  // x = 1 stated twice plus an implied combination.
  Simplex S(2);
  S.addEquality(row({1, 0, -1}));
  S.addEquality(row({1, 0, -1}));
  S.addEquality(row({2, 0, -2}));
  S.addEquality(row({0, 1, -3}));
  EXPECT_EQ(S.checkFeasible(), LPStatus::Optimal);
  EXPECT_EQ(S.samplePoint()[0], Fraction(1));
  EXPECT_EQ(S.samplePoint()[1], Fraction(3));
}

TEST(Simplex, DependenceShapedSystem) {
  // Shape of a typical dependence system: i < i', both in [0, 100),
  // k in [ri, ri+5), k' in [ri', ri'+5), k = k', ri' >= ri + 6.
  // Infeasible because the k-windows cannot overlap.
  // Vars: i, i', k, k', ri, ri'.
  Simplex S(6);
  S.addInequality(row({-1, 1, 0, 0, 0, 0, -1})); // i' - i - 1 >= 0
  S.addInequality(row({1, 0, 0, 0, 0, 0, 0}));   // i >= 0
  S.addInequality(row({0, -1, 0, 0, 0, 0, 99})); // i' <= 99
  S.addInequality(row({0, 0, 1, 0, -1, 0, 0}));  // k >= ri
  S.addInequality(row({0, 0, -1, 0, 1, 0, 4}));  // k <= ri + 4
  S.addInequality(row({0, 0, 0, 1, 0, -1, 0}));  // k' >= ri'
  S.addInequality(row({0, 0, 0, -1, 0, 1, 4}));  // k' <= ri' + 4
  S.addEquality(row({0, 0, 1, -1, 0, 0, 0}));    // k = k'
  S.addInequality(row({0, 0, 0, 0, -1, 1, -6})); // ri' >= ri + 6
  EXPECT_EQ(S.checkFeasible(), LPStatus::Infeasible);
}

//===----------------------------------------------------------------------===//
// Differential test against the dense Fraction tableau
//===----------------------------------------------------------------------===//
//
// The solver stores tableau rows as integer numerators over one
// denominator per row and eliminates only over the pivot row's nonzero
// columns. Exact arithmetic must still pick the same pivot sequence as a
// dense tableau of gcd-reduced Fractions, so every observable result has
// to match one. refSolve below runs that dense tableau (RefTableau), kept
// as it was in its pivoting rules and column layout.

namespace {

struct RefResult {
  LPStatus Status = LPStatus::Error;
  std::vector<Fraction> Sample;
  std::vector<unsigned> Core;
  Fraction ObjValue;
  uint64_t Pivots = 0;
};

struct RefRow {
  std::vector<int64_t> Coeffs;
  bool IsEq;
};

class RefTableau {
public:
  RefTableau(unsigned NumRows, unsigned NumCols)
      : NumRows(NumRows), NumCols(NumCols),
        Cells(static_cast<size_t>(NumRows) * (NumCols + 1)),
        ObjRow(NumCols + 1), Basis(NumRows, ~0u) {}

  Fraction &at(unsigned R, unsigned C) {
    return Cells[static_cast<size_t>(R) * (NumCols + 1) + C];
  }
  Fraction &rhs(unsigned R) { return at(R, NumCols); }
  Fraction &obj(unsigned C) { return ObjRow[C]; }
  Fraction &objVal() { return ObjRow[NumCols]; }

  void pivot(unsigned R, unsigned C) {
    Fraction P = at(R, C);
    for (unsigned J = 0; J <= NumCols; ++J) {
      at(R, J) = at(R, J) / P;
      Overflow |= at(R, J).overflowed();
    }
    for (unsigned I = 0; I < NumRows; ++I) {
      if (I == R)
        continue;
      Fraction F = at(I, C);
      if (F.isZero())
        continue;
      for (unsigned J = 0; J <= NumCols; ++J) {
        at(I, J) = at(I, J) - F * at(R, J);
        Overflow |= at(I, J).overflowed();
      }
    }
    Fraction F = obj(C);
    if (!F.isZero()) {
      for (unsigned J = 0; J <= NumCols; ++J) {
        obj(J) = obj(J) - F * at(R, J);
        Overflow |= obj(J).overflowed();
      }
    }
    Basis[R] = C;
  }

  LPStatus iterate(const std::vector<bool> *Allowed) {
    unsigned Pivots = 0;
    const unsigned BlandAfter = 500;
    while (true) {
      if (Overflow)
        return LPStatus::Error;
      ++Iterations;
      bool Bland = ++Pivots > BlandAfter;
      unsigned Enter = NumCols;
      Fraction Zero(0);
      for (unsigned J = 0; J < NumCols; ++J) {
        if (Allowed && !(*Allowed)[J])
          continue;
        if (!(obj(J) < Zero))
          continue;
        if (Enter == NumCols || (!Bland && obj(J) < obj(Enter))) {
          Enter = J;
          if (Bland)
            break;
        }
      }
      if (Enter == NumCols)
        return LPStatus::Optimal;
      unsigned Leave = NumRows;
      Fraction BestRatio(0);
      for (unsigned I = 0; I < NumRows; ++I) {
        if (!(at(I, Enter) > Zero))
          continue;
        Fraction Ratio = rhs(I) / at(I, Enter);
        if (Ratio.overflowed())
          return LPStatus::Error;
        if (Leave == NumRows || Ratio < BestRatio ||
            (Ratio == BestRatio && Basis[I] < Basis[Leave])) {
          Leave = I;
          BestRatio = Ratio;
        }
      }
      if (Leave == NumRows)
        return LPStatus::Unbounded;
      pivot(Leave, Enter);
    }
  }

  unsigned NumRows, NumCols;
  std::vector<Fraction> Cells, ObjRow;
  std::vector<unsigned> Basis;
  bool Overflow = false;
  uint64_t Iterations = 0;
};

RefResult refSolve(unsigned NumVars, const std::vector<RefRow> &Rows,
                   const std::vector<int64_t> *Obj) {
  RefResult Out;
  std::vector<unsigned> Active;
  for (unsigned RI = 0; RI < Rows.size(); ++RI) {
    const RefRow &R = Rows[RI];
    bool AllZero = true;
    for (unsigned J = 0; J < NumVars; ++J)
      AllZero &= R.Coeffs[J] == 0;
    if (AllZero) {
      int64_t C = R.Coeffs[NumVars];
      if (R.IsEq ? (C != 0) : (C < 0)) {
        Out.Core.push_back(RI);
        Out.Status = LPStatus::Infeasible;
        return Out;
      }
      continue;
    }
    Active.push_back(RI);
  }
  unsigned NumIneq = 0;
  for (unsigned RI : Active)
    NumIneq += !Rows[RI].IsEq;
  unsigned M = static_cast<unsigned>(Active.size());
  unsigned PBase = 0, QBase = NumVars, SBase = 2 * NumVars,
           ABase = 2 * NumVars + NumIneq;
  unsigned NumCols = ABase + M;
  if (M == 0) {
    Out.Sample.assign(NumVars, Fraction(0));
    Out.Status = LPStatus::Optimal;
    if (Obj) {
      for (unsigned J = 0; J < NumVars; ++J)
        if ((*Obj)[J] != 0)
          Out.Status = LPStatus::Unbounded;
      Out.ObjValue = Fraction((*Obj)[NumVars]);
    }
    return Out;
  }

  RefTableau T(M, NumCols);
  unsigned SlackIdx = 0;
  for (unsigned I = 0; I < M; ++I) {
    const RefRow &R = Rows[Active[I]];
    int64_t Rhs64 = -R.Coeffs[NumVars];
    int Sign = Rhs64 < 0 ? -1 : 1;
    for (unsigned J = 0; J < NumVars; ++J) {
      int64_t A = R.Coeffs[J] * Sign;
      T.at(I, PBase + J) = Fraction(A);
      T.at(I, QBase + J) = Fraction(-A);
    }
    if (!R.IsEq)
      T.at(I, SBase + SlackIdx++) = Fraction(-Sign);
    T.at(I, ABase + I) = Fraction(1);
    T.rhs(I) = Fraction(Sign < 0 ? -Rhs64 : Rhs64);
    T.Basis[I] = ABase + I;
  }
  for (unsigned I = 0; I < M; ++I)
    T.obj(ABase + I) = Fraction(1);
  for (unsigned I = 0; I < M; ++I)
    for (unsigned J = 0; J <= NumCols; ++J)
      T.obj(J) = T.obj(J) - T.at(I, J);

  auto Finish = [&](LPStatus S) {
    Out.Status = S;
    Out.Pivots = T.Iterations;
    return Out;
  };
  LPStatus S = T.iterate(nullptr);
  if (S == LPStatus::Error)
    return Finish(S);
  if (!T.objVal().isZero()) {
    if (!T.Overflow)
      for (unsigned I = 0; I < M; ++I)
        if (T.obj(ABase + I) != Fraction(1))
          Out.Core.push_back(Active[I]);
    return Finish(LPStatus::Infeasible);
  }
  for (unsigned I = 0; I < M; ++I) {
    if (T.Basis[I] < ABase)
      continue;
    for (unsigned J = 0; J < ABase; ++J)
      if (!T.at(I, J).isZero()) {
        T.pivot(I, J);
        break;
      }
  }
  if (T.Overflow)
    return Finish(LPStatus::Error);
  std::vector<bool> Allowed(NumCols, true);
  for (unsigned I = 0; I < M; ++I)
    Allowed[ABase + I] = false;
  if (Obj) {
    for (unsigned J = 0; J <= NumCols; ++J)
      T.obj(J) = Fraction(0);
    for (unsigned J = 0; J < NumVars; ++J) {
      T.obj(PBase + J) = Fraction((*Obj)[J]);
      T.obj(QBase + J) = Fraction(-(*Obj)[J]);
    }
    for (unsigned I = 0; I < M; ++I) {
      Fraction C = T.obj(T.Basis[I]);
      if (C.isZero())
        continue;
      for (unsigned J = 0; J <= NumCols; ++J)
        T.obj(J) = T.obj(J) - C * T.at(I, J);
    }
    S = T.iterate(&Allowed);
    if (S != LPStatus::Optimal)
      return Finish(S);
    Out.ObjValue = -T.objVal() + Fraction((*Obj)[NumVars]);
    if (Out.ObjValue.overflowed())
      return Finish(LPStatus::Error);
  }
  std::vector<Fraction> P(NumVars, Fraction(0)), Q(NumVars, Fraction(0));
  for (unsigned I = 0; I < M; ++I) {
    unsigned B = T.Basis[I];
    if (B < QBase)
      P[B - PBase] = T.rhs(I);
    else if (B < SBase)
      Q[B - QBase] = T.rhs(I);
  }
  Out.Sample.assign(NumVars, Fraction(0));
  for (unsigned J = 0; J < NumVars; ++J) {
    Out.Sample[J] = P[J] - Q[J];
    if (Out.Sample[J].overflowed())
      return Finish(LPStatus::Error);
  }
  return Finish(LPStatus::Optimal);
}

/// One system plus an optional objective, solved both ways.
struct Case {
  unsigned NumVars;
  std::vector<RefRow> Rows;
  std::optional<std::vector<int64_t>> Obj;
};

/// Tracing on, metrics on, counters zeroed; restores both gates on exit.
class CounterScope {
public:
  CounterScope() : Tracing(obs::enabled()), Metrics(obs::metricsEnabled()) {
    obs::setEnabled(true);
    obs::setMetricsEnabled(true);
    obs::counter("simplex.pivots").reset();
    promotions().reset();
  }
  ~CounterScope() {
    obs::setEnabled(Tracing);
    obs::setMetricsEnabled(Metrics);
  }
  static obs::MetricCounter &promotions() {
    return obs::metricCounter("presburger.simplex_promotions");
  }

private:
  bool Tracing, Metrics;
};

std::string describe(const Case &C) {
  std::string S = "vars " + std::to_string(C.NumVars) + "\n";
  for (const RefRow &R : C.Rows) {
    for (int64_t V : R.Coeffs)
      S += std::to_string(V) + " ";
    S += R.IsEq ? "== 0\n" : ">= 0\n";
  }
  if (C.Obj) {
    S += "min";
    for (int64_t V : *C.Obj)
      S += " " + std::to_string(V);
    S += "\n";
  }
  return S;
}

/// Solves `C` with both tableaus and checks every observable output;
/// returns the reference's result for further assertions.
RefResult expectSameAsReference(const Case &C) {
  RefResult Want =
      refSolve(C.NumVars, C.Rows, C.Obj ? &*C.Obj : nullptr);
  uint64_t PivotsBefore = obs::counter("simplex.pivots").value();
  Simplex S(C.NumVars);
  for (const RefRow &R : C.Rows)
    R.IsEq ? S.addEquality(R.Coeffs) : S.addInequality(R.Coeffs);
  Fraction ObjValue;
  LPStatus Got = C.Obj ? S.minimize(*C.Obj, ObjValue) : S.checkFeasible();
  SCOPED_TRACE(describe(C));
  EXPECT_EQ(Got, Want.Status);
  if (Got != Want.Status || Got == LPStatus::Error)
    return Want; // the two tableaus overflow at different pivots
  EXPECT_EQ(obs::counter("simplex.pivots").value() - PivotsBefore,
            Want.Pivots);
  if (Got == LPStatus::Infeasible) {
    EXPECT_EQ(S.infeasibleCore(), Want.Core);
  } else if (Got == LPStatus::Optimal) {
    EXPECT_EQ(S.samplePoint(), Want.Sample);
    if (C.Obj) {
      EXPECT_EQ(ObjValue, Want.ObjValue);
    }
  }
  return Want;
}

/// A random system around a random point: about half the seeds build
/// rows the point satisfies, the rest draw constants freely. Rows repeat
/// (scaled) and carry zero constants often enough to exercise redundant
/// equalities and degenerate pivots.
Case randomCase(std::mt19937_64 &Rng) {
  auto Uniform = [&](int64_t Lo, int64_t Hi) {
    return std::uniform_int_distribution<int64_t>(Lo, Hi)(Rng);
  };
  Case C;
  C.NumVars = static_cast<unsigned>(Uniform(1, 6));
  bool AroundPoint = Uniform(0, 1) == 0;
  std::vector<int64_t> Point(C.NumVars);
  for (int64_t &V : Point)
    V = Uniform(-5, 5);
  int64_t NumRows = Uniform(1, 12);
  for (int64_t R = 0; R < NumRows; ++R) {
    RefRow Row{std::vector<int64_t>(C.NumVars + 1, 0), Uniform(0, 4) == 0};
    if (!C.Rows.empty() && Uniform(0, 6) == 0) {
      // A scaled copy of an earlier row: redundant, or contradicting it.
      const RefRow &Src = C.Rows[static_cast<size_t>(
          Uniform(0, static_cast<int64_t>(C.Rows.size()) - 1))];
      int64_t K = Uniform(1, 3);
      for (unsigned J = 0; J <= C.NumVars; ++J)
        Row.Coeffs[J] = Src.Coeffs[J] * K;
      Row.IsEq = Src.IsEq || Uniform(0, 1) == 0;
      C.Rows.push_back(std::move(Row));
      continue;
    }
    for (unsigned J = 0; J < C.NumVars; ++J)
      if (Uniform(0, 2) != 0)
        Row.Coeffs[J] = Uniform(-4, 4);
    int64_t AtPoint = 0;
    for (unsigned J = 0; J < C.NumVars; ++J)
      AtPoint += Row.Coeffs[J] * Point[J];
    if (Uniform(0, 3) == 0)
      Row.Coeffs[C.NumVars] = 0; // through the origin: degenerate vertex
    else if (AroundPoint)
      Row.Coeffs[C.NumVars] = -AtPoint + (Row.IsEq ? 0 : Uniform(0, 3));
    else
      Row.Coeffs[C.NumVars] = Uniform(-12, 12);
    C.Rows.push_back(std::move(Row));
  }
  if (Uniform(0, 1) == 0) {
    std::vector<int64_t> Obj(C.NumVars + 1);
    for (int64_t &V : Obj)
      V = Uniform(-3, 3);
    C.Obj = std::move(Obj);
  }
  return C;
}

/// Variables 2.. carry bounds c_i * x_i >= k_i, c_i in [5, 1000], and
/// variables 0 and 1 a gadget, 2 x0 + 3 x1 >= 6 with x0, x1 >= 0. Phase 1
/// enters each bounded variable once, largest c_i first, then the gadget's
/// x1 and x0 (reduced costs -4 and -3) on degenerate pivots; with N = 500
/// the gadget's last pivot is the 501st and runs under Bland's rule. There
/// the slack of x0 >= 0 (cost -2) precedes that of x1 >= 0 (cost -3) in
/// index order, so Bland's rule ends at (3, 0) where Dantzig's would end
/// at (0, 2): the sample point shows which rule ran, and so does the
/// phase-2 pivot count when an objective pulls the point to (0, 2).
Case longCase(std::mt19937_64 &Rng, unsigned N, bool WithObjective) {
  auto Uniform = [&](int64_t Lo, int64_t Hi) {
    return std::uniform_int_distribution<int64_t>(Lo, Hi)(Rng);
  };
  Case C;
  C.NumVars = N;
  auto Row = [&](std::initializer_list<std::pair<unsigned, int64_t>> Cells,
                 int64_t Const) {
    RefRow R{std::vector<int64_t>(N + 1, 0), false};
    for (auto [Col, V] : Cells)
      R.Coeffs[Col] = V;
    R.Coeffs[N] = Const;
    return R;
  };
  C.Rows.push_back(Row({{0, 2}, {1, 3}}, -6));
  C.Rows.push_back(Row({{0, 1}}, 0));
  C.Rows.push_back(Row({{1, 1}}, 0));
  std::vector<int64_t> Obj(N + 1, 0);
  Obj[0] = Obj[1] = 1;
  for (unsigned I = 2; I < N; ++I) {
    int64_t Coeff = Uniform(5, 1000);
    C.Rows.push_back(Row({{I, Coeff}}, -Uniform(-10, 10)));
    Obj[I] = Coeff * Uniform(1, 3); // x_i has a lower bound
  }
  if (WithObjective)
    C.Obj = std::move(Obj);
  return C;
}

} // namespace

TEST(SimplexDifferential, RandomSystemsMatchDenseReference) {
  CounterScope Counters;
  std::mt19937_64 Rng(20190622);
  unsigned Statuses[4] = {0, 0, 0, 0};
  for (int I = 0; I < 4000; ++I) {
    Case C = randomCase(Rng);
    RefResult R = expectSameAsReference(C);
    ++Statuses[static_cast<int>(R.Status)];
    if (HasFailure())
      break;
  }
  // The generator covers every outcome a solve can have but Error.
  EXPECT_GT(Statuses[static_cast<int>(LPStatus::Infeasible)], 400u);
  EXPECT_GT(Statuses[static_cast<int>(LPStatus::Optimal)], 400u);
  EXPECT_GT(Statuses[static_cast<int>(LPStatus::Unbounded)], 100u);
  EXPECT_EQ(Counters.promotions().value(), 0u);
}

TEST(SimplexDifferential, LongSolvesPastTheBlandSwitchMatch) {
  CounterScope Counters;
  std::mt19937_64 Rng(7);
  for (bool WithObjective : {false, true}) {
    Case C = longCase(Rng, 500, WithObjective);
    RefResult R = expectSameAsReference(C);
    ASSERT_EQ(R.Status, LPStatus::Optimal);
    EXPECT_GT(R.Pivots, 500u) << "the case must reach Bland's rule";
    // Bland's rule ended phase 1 at (3, 0); the objective moves it on.
    EXPECT_EQ(R.Sample[0], Fraction(WithObjective ? 0 : 3));
    EXPECT_EQ(R.Sample[1], Fraction(WithObjective ? 2 : 0));
  }
  EXPECT_EQ(Counters.promotions().value(), 0u);
}

TEST(SimplexDifferential, Int64OverflowRetriesOnWideCells) {
  // Coefficients near 2^40: eliminating one row against another
  // multiplies two of them, which leaves int64 but not __int128.
  CounterScope Counters;
  const int64_t B = int64_t(1) << 40;
  Case Feasible{2,
                {{{B + 3, B - 7, -(B + 11)}, false},
                 {{-(B - 5), B + 1, 13}, false}},
                std::nullopt};
  RefResult R = expectSameAsReference(Feasible);
  EXPECT_EQ(R.Status, LPStatus::Optimal);
  // The objective is the sum of the two row normals, so it is bounded
  // below on the feasible set.
  Feasible.Obj = std::vector<int64_t>{8, 2 * B - 6, 0};
  R = expectSameAsReference(Feasible);
  EXPECT_EQ(R.Status, LPStatus::Optimal);
  Case Infeasible{2,
                  {{{B + 3, B - 7, -(B + 11)}, false},
                   {{-(B + 3), -(B - 7), B - 1}, false},
                   {{B - 1, -(B + 9), 17}, true}},
                  std::nullopt};
  R = expectSameAsReference(Infeasible);
  EXPECT_EQ(R.Status, LPStatus::Infeasible);
  EXPECT_EQ(Counters.promotions().value(), 3u);
}

TEST(SimplexDifferential, Int128OverflowStillReportsError) {
  CounterScope Counters;
  const int64_t B = int64_t(1) << 62;
  Simplex S(4);
  S.addInequality(row({B - 1, B - 3, -(B - 5), B - 7, -(B - 11)}));
  S.addInequality(row({-(B - 13), B - 17, B - 19, -(B - 23), B - 29}));
  S.addEquality(row({B - 31, -(B - 37), B - 41, B - 43, -(B - 47)}));
  S.addInequality(row({B - 53, B - 59, B - 61, -(B - 67), -(B - 71)}));
  EXPECT_EQ(S.checkFeasible(), LPStatus::Error);
  EXPECT_EQ(Counters.promotions().value(), 1u);
}

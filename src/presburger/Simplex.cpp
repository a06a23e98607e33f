//===- Simplex.cpp - Exact rational simplex for feasibility --------------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//

#include "sds/presburger/Simplex.h"

#include "sds/obs/Metrics.h"
#include "sds/obs/Trace.h"
#include "sds/presburger/Budget.h"

#include <cassert>
#include <type_traits>

namespace sds {
namespace presburger {

void Simplex::addInequality(const std::vector<int64_t> &Row) {
  assert(Row.size() == NumVars + 1 && "bad row width");
  Rows.push_back({SmallVector<int64_t, 16>(Row), /*IsEq=*/false});
}

void Simplex::addEquality(const std::vector<int64_t> &Row) {
  assert(Row.size() == NumVars + 1 && "bad row width");
  Rows.push_back({SmallVector<int64_t, 16>(Row), /*IsEq=*/true});
}

LPStatus Simplex::checkFeasible() {
  Fraction Ignored;
  return solve(/*Obj=*/nullptr, Ignored);
}

LPStatus Simplex::minimize(const std::vector<int64_t> &Obj,
                           Fraction &ObjValue) {
  assert(Obj.size() == NumVars + 1 && "bad objective width");
  return solve(&Obj, ObjValue);
}

namespace {

/// Checked cell arithmetic: the result is unspecified once `Ov` is set.
template <typename Int> Int mulC(Int A, Int B, bool &Ov) {
  Int R;
  Ov |= __builtin_mul_overflow(A, B, &R);
  return R;
}
template <typename Int> Int subC(Int A, Int B, bool &Ov) {
  Int R;
  Ov |= __builtin_sub_overflow(A, B, &R);
  return R;
}

/// gcd(|A|, B) for B > 0; |A| is taken in the unsigned type, so the most
/// negative value needs no special case.
template <typename Int> Int gcdWith(Int A, Int B) {
  using U = std::make_unsigned_t<Int>;
  U X = A < 0 ? U(0) - U(A) : U(A), Y = U(B);
  while (X != 0) {
    U T = Y % X;
    Y = X;
    X = T;
  }
  return Int(Y);
}

/// Backing storage for one tableau, kept per thread and per cell type so
/// the thousands of short-lived solves issued by the emptiness test reuse
/// one grown-to-fit allocation instead of paying heap allocations per
/// solve. The InUse flag guards against (currently nonexistent) reentrant
/// solves: branch-and-bound recursion happens strictly after each solve
/// returns, but if a nested solve ever appears it falls back to owned
/// storage rather than corrupting the borrowed buffers.
template <typename Int> struct TableauScratch {
  std::vector<Int> Cells;
  std::vector<Int> Den;
  std::vector<unsigned> Basis;
  std::vector<unsigned> Support;
  bool InUse = false;
};

/// Simplex tableau with an explicit reduced-cost row, stored row-scaled:
/// row R holds integer numerators over one positive denominator den(R),
/// kept coprime to them, so the cell at (R, C) is at(R, C) / den(R). Row
/// NumRows is the reduced-cost (objective) row and column NumCols the
/// right-hand side. Every operation is exact; a result outside `Int`
/// sets the sticky overflow flag, which the caller answers by solving
/// again with a wider `Int` (int64 first, then __int128).
template <typename Int> class Tableau {
public:
  Tableau(unsigned NumRows, unsigned NumCols)
      : NumRows(NumRows), NumCols(NumCols) {
    static thread_local TableauScratch<Int> Shared;
    TableauScratch<Int> *S = &Owned;
    if (!Shared.InUse) {
      Shared.InUse = true;
      S = Scratch = &Shared;
    }
    S->Cells.assign(static_cast<size_t>(NumRows + 1) * (NumCols + 1), Int(0));
    S->Den.assign(NumRows + 1, Int(1));
    S->Basis.assign(NumRows, ~0u);
    S->Support.clear();
    Cells = S->Cells.data();
    Den = S->Den.data();
    Basis = S->Basis.data();
    Support = &S->Support;
  }

  Tableau(const Tableau &) = delete;
  Tableau &operator=(const Tableau &) = delete;

  ~Tableau() {
    if (Scratch)
      Scratch->InUse = false;
  }

  Int *row(unsigned R) {
    return Cells + static_cast<size_t>(R) * (NumCols + 1);
  }
  Int &at(unsigned R, unsigned C) { return row(R)[C]; }
  Int &rhs(unsigned R) { return at(R, NumCols); }
  Int &den(unsigned R) { return Den[R]; }
  Int &obj(unsigned C) { return at(NumRows, C); }
  Int &objVal() { return obj(NumCols); }
  Int &objDen() { return den(NumRows); }

  /// Cell (R, C) as an exact rational, for the API boundary.
  Fraction value(unsigned R, unsigned C) { return Fraction(at(R, C), den(R)); }

  unsigned basis(unsigned R) const { return Basis[R]; }
  void setBasis(unsigned R, unsigned C) { Basis[R] = C; }

  /// Pivot on (R, C): make column C basic in row R.
  void pivot(unsigned R, unsigned C) {
    assert(at(R, C) != 0 && "pivot on zero cell");
    // Divide row R by its pivot cell: the old denominator cancels.
    Int *PR = row(R);
    if (PR[C] < 0)
      for (unsigned J = 0; J <= NumCols; ++J)
        PR[J] = subC(Int(0), PR[J], Overflow);
    if (Overflow)
      return;
    den(R) = PR[C];
    reduce(R);
    collectSupport(R);
    for (unsigned I = 0; I <= NumRows; ++I)
      if (I != R && at(I, C) != 0)
        eliminate(I, R, C);
    setBasis(R, C);
  }

  /// Record row R's nonzero columns for the eliminations that follow.
  void collectSupport(unsigned R) {
    Support->clear();
    const Int *PR = row(R);
    for (unsigned J = 0; J <= NumCols; ++J)
      if (PR[J] != 0)
        Support->push_back(J);
  }

  /// Zero column C of row I by subtracting a multiple of row R, whose
  /// value at C is 1 and whose nonzero columns collectSupport(R) listed.
  /// Only those columns change, unless den(R) does not divide the
  /// multiple; then row I is first rescaled to the common denominator.
  void eliminate(unsigned I, unsigned R, unsigned C) {
    Int *PI = row(I);
    const Int *PR = row(R);
    Int G = gcdWith(PI[C], den(R));
    Int Scale = den(R) / G, F = PI[C] / G;
    if (Scale != 1) {
      for (unsigned J = 0; J <= NumCols; ++J)
        PI[J] = mulC(PI[J], Scale, Overflow);
      den(I) = mulC(den(I), Scale, Overflow);
    }
    for (unsigned J : *Support)
      PI[J] = subC(PI[J], mulC(F, PR[J], Overflow), Overflow);
    reduce(I);
  }

  /// Divide row R and its denominator by their common gcd.
  void reduce(unsigned R) {
    Int G = den(R);
    Int *PR = row(R);
    for (unsigned J = 0; J <= NumCols && G != 1; ++J)
      if (PR[J] != 0)
        G = gcdWith(PR[J], G);
    if (G == 1 || Overflow)
      return;
    for (unsigned J = 0; J <= NumCols; ++J)
      PR[J] /= G;
    den(R) /= G;
  }

  /// Run simplex until optimal/unbounded/overflow: Dantzig's rule (most
  /// negative reduced cost) for speed, switching to Bland's rule after a
  /// fixed pivot count to guarantee termination on degenerate cycles.
  /// Past the per-solve pivot budget (Budget.h) the solve gives up with
  /// LPStatus::Error — callers degrade to a conservative Unknown, so the
  /// budget bounds latency without ever flipping a verdict.
  /// `Allowed` masks which columns may enter the basis (may be null).
  /// Every cell of a row shares its denominator, so reduced costs compare
  /// by numerator and ratios rhs/a by cross-multiplying numerators.
  LPStatus iterate(const std::vector<bool> *Allowed) {
    static obs::Counter &BudgetHits = obs::counter("simplex.budget_exhausted");
    unsigned Pivots = 0;
    const unsigned BlandAfter = 500;
    const uint64_t MaxPivots = pivotBudget();
    while (true) {
      if (Overflow)
        return LPStatus::Error;
      ++Iterations;
      if (Pivots >= MaxPivots) {
        BudgetHits.add();
        notePivotBudgetExhaustion();
        return LPStatus::Error;
      }
      bool Bland = ++Pivots > BlandAfter;
      unsigned Enter = NumCols;
      for (unsigned J = 0; J < NumCols; ++J) {
        if (Allowed && !(*Allowed)[J])
          continue;
        if (obj(J) >= 0)
          continue;
        if (Enter == NumCols || (!Bland && obj(J) < obj(Enter))) {
          Enter = J;
          if (Bland)
            break;
        }
      }
      if (Enter == NumCols)
        return LPStatus::Optimal;
      // Leaving row: min ratio; ties broken by smallest basis index (Bland).
      unsigned Leave = NumRows;
      for (unsigned I = 0; I < NumRows; ++I) {
        if (at(I, Enter) <= 0)
          continue;
        int Cmp = Leave == NumRows ? -1 : compareRatios(I, Leave, Enter);
        if (Cmp < 0 || (Cmp == 0 && basis(I) < basis(Leave)))
          Leave = I;
      }
      if (Leave == NumRows)
        return LPStatus::Unbounded;
      pivot(Leave, Enter);
    }
  }

  unsigned NumRows, NumCols;
  /// Simplex iterations run by iterate(), the `simplex.pivots` figure.
  uint64_t Iterations = 0;
  /// Sticky: some cell left the range of `Int`.
  bool Overflow = false;

private:
  /// Sign of rhs(I)/at(I, C) - rhs(K)/at(K, C) for positive at(., C).
  int compareRatios(unsigned I, unsigned K, unsigned C) {
    Int128 L, R;
    if (!__builtin_mul_overflow(Int128(rhs(I)), Int128(at(K, C)), &L) &&
        !__builtin_mul_overflow(Int128(rhs(K)), Int128(at(I, C)), &R))
      return (L > R) - (L < R);
    // Only 128-bit cells get here; Fraction compares by long division.
    return Fraction(rhs(I), at(I, C)).compare(Fraction(rhs(K), at(K, C)));
  }

  TableauScratch<Int> *Scratch = nullptr;
  TableauScratch<Int> Owned;
  Int *Cells = nullptr;
  Int *Den = nullptr;
  unsigned *Basis = nullptr;
  std::vector<unsigned> *Support = nullptr;
};

} // namespace

LPStatus Simplex::solve(const std::vector<int64_t> *Obj, Fraction &ObjValue) {
  static obs::Counter &Solves = obs::counter("simplex.solves");
  static obs::Counter &PivotCount = obs::counter("simplex.pivots");
  static obs::MetricCounter &Promotions =
      obs::metricCounter("presburger.simplex_promotions");
  Solves.add();
  Core.clear();
  // Quick scan: constraints with no variable part decide themselves.
  // Active holds add-order indices so an infeasibility certificate over
  // the tableau rows can be mapped back to the rows the caller added.
  std::vector<unsigned> Active;
  Active.reserve(Rows.size());
  for (unsigned RI = 0; RI < Rows.size(); ++RI) {
    const RowRec &R = Rows[RI];
    bool AllZero = true;
    for (unsigned J = 0; J < NumVars; ++J)
      if (R.Coeffs[J] != 0) {
        AllZero = false;
        break;
      }
    if (AllZero) {
      int64_t C = R.Coeffs[NumVars];
      if (R.IsEq ? (C != 0) : (C < 0)) {
        Core.push_back(RI); // the row alone is contradictory
        return LPStatus::Infeasible;
      }
      continue; // trivially satisfied
    }
    Active.push_back(RI);
  }

  if (Active.empty()) {
    // System is trivially satisfiable; the origin works.
    Sample.assign(NumVars, Fraction(0));
    if (Obj) {
      // Objective may still be unbounded over free variables.
      for (unsigned J = 0; J < NumVars; ++J)
        if ((*Obj)[J] != 0)
          return LPStatus::Unbounded;
      ObjValue = Fraction((*Obj)[NumVars]);
    }
    return LPStatus::Optimal;
  }

  // int64 cells cover every system the dependence analysis produces; a
  // solve that leaves that range is run again from the start on __int128
  // cells, and exact arithmetic makes it take the same pivots.
  uint64_t Pivots = 0;
  std::optional<LPStatus> S = solveWith<int64_t>(Active, Obj, ObjValue, Pivots);
  if (!S) {
    Promotions.add();
    S = solveWith<Int128>(Active, Obj, ObjValue, Pivots);
  }
  PivotCount.add(Pivots);
  return S.value_or(LPStatus::Error);
}

template <typename Int>
std::optional<LPStatus> Simplex::solveWith(const std::vector<unsigned> &Active,
                                           const std::vector<int64_t> *Obj,
                                           Fraction &ObjValue,
                                           uint64_t &Pivots) {
  unsigned NumIneq = 0;
  for (unsigned RI : Active)
    if (!Rows[RI].IsEq)
      ++NumIneq;

  unsigned M = static_cast<unsigned>(Active.size());
  // Columns: p_0..p_{n-1}, q_0..q_{n-1}, slacks, artificials.
  unsigned PBase = 0, QBase = NumVars, SBase = 2 * NumVars,
           ABase = 2 * NumVars + NumIneq;
  unsigned NumCols = ABase + M;

  Tableau<Int> T(M, NumCols);
  bool &Ov = T.Overflow;
  // Overflow of this cell type: the caller retries on a wider one, or
  // reports LPStatus::Error from the widest. iterate() stops at once on
  // an overflow left by the set-up code.
  auto Done = [&](LPStatus St) -> std::optional<LPStatus> {
    Pivots = T.Iterations;
    if (!Ov)
      return St;
    if (std::is_same_v<Int, Int128>)
      return LPStatus::Error;
    return std::nullopt;
  };
  unsigned SlackIdx = 0;
  for (unsigned I = 0; I < M; ++I) {
    const RowRec &R = Rows[Active[I]];
    // a.x + c (>=|==) 0  becomes  a.(p-q) [- s] = -c ; flip so RHS >= 0.
    Int Rhs = subC(Int(0), Int(R.Coeffs[NumVars]), Ov);
    Int Sign = Rhs < 0 ? -1 : 1;
    for (unsigned J = 0; J < NumVars; ++J) {
      Int A = mulC(Int(R.Coeffs[J]), Sign, Ov);
      T.at(I, PBase + J) = A;
      T.at(I, QBase + J) = subC(Int(0), A, Ov);
    }
    if (!R.IsEq) {
      T.at(I, SBase + SlackIdx) = -Sign;
      ++SlackIdx;
    }
    T.at(I, ABase + I) = 1;
    T.rhs(I) = mulC(Rhs, Sign, Ov);
    T.setBasis(I, ABase + I);
  }

  // Phase 1: minimize the sum of artificials. Reduced costs: cost 1 on each
  // artificial, priced out against the artificial basis.
  for (unsigned I = 0; I < M; ++I)
    T.obj(ABase + I) = 1;
  for (unsigned I = 0; I < M; ++I) {
    // Basic artificial with cost 1: subtract its row from the objective.
    for (unsigned J = 0; J <= NumCols; ++J)
      T.obj(J) = subC(T.obj(J), T.at(I, J), Ov);
  }

  LPStatus S = T.iterate(/*Allowed=*/nullptr);
  if (S == LPStatus::Error)
    return Done(S);
  assert(S != LPStatus::Unbounded && "phase-1 objective is bounded below");
  // Feasible iff the phase-1 optimum is zero, i.e. -objVal == 0.
  if (T.objVal() != 0) {
    // Farkas certificate: at the phase-1 optimum the dual weight of row I
    // is y_I = 1 - obj(ABase+I) (reduced cost of its artificial column),
    // which is zero exactly when that cell's numerator equals the
    // objective row's denominator. Rows with y_I == 0 contribute nothing
    // to the certificate, so the nonzero-weight subsystem is itself
    // infeasible — an unsat core.
    for (unsigned I = 0; I < M; ++I)
      if (T.obj(ABase + I) != T.objDen())
        Core.push_back(Active[I]);
    return Done(LPStatus::Infeasible);
  }

  // Drive any remaining basic artificials out (or detect redundant rows).
  for (unsigned I = 0; I < M; ++I) {
    if (T.basis(I) < ABase)
      continue;
    unsigned Col = NumCols;
    for (unsigned J = 0; J < ABase; ++J)
      if (T.at(I, J) != 0) {
        Col = J;
        break;
      }
    if (Col != NumCols)
      T.pivot(I, Col);
    // Otherwise the row is redundant; the artificial stays basic at zero,
    // which is harmless as long as artificial columns never re-enter.
  }
  if (Ov)
    return Done(LPStatus::Error);

  std::vector<bool> Allowed(NumCols, true);
  for (unsigned I = 0; I < M; ++I)
    Allowed[ABase + I] = false;

  if (Obj) {
    // Phase 2: install the real objective and price out the basis, which
    // eliminates each basic column from the objective row by its row.
    for (unsigned J = 0; J <= NumCols; ++J)
      T.obj(J) = 0;
    T.objDen() = 1;
    for (unsigned J = 0; J < NumVars; ++J) {
      T.obj(PBase + J) = (*Obj)[J];
      T.obj(QBase + J) = subC(Int(0), Int((*Obj)[J]), Ov);
    }
    for (unsigned I = 0; I < M; ++I) {
      unsigned B = T.basis(I);
      if (T.obj(B) == 0)
        continue;
      T.collectSupport(I);
      T.eliminate(M, I, B);
    }
    S = T.iterate(&Allowed);
    if (S != LPStatus::Optimal)
      return Done(S);
    // objVal holds -(c.x_B); optimum of c.x is its negation plus constant.
    ObjValue = -T.value(M, NumCols) + Fraction((*Obj)[NumVars]);
    if (ObjValue.overflowed())
      return Done(LPStatus::Error);
  }

  // Extract the sample point x = p - q.
  std::vector<Fraction> P(NumVars, Fraction(0)), Q(NumVars, Fraction(0));
  for (unsigned I = 0; I < M; ++I) {
    unsigned B = T.basis(I);
    if (B < QBase)
      P[B - PBase] = T.value(I, NumCols);
    else if (B < SBase)
      Q[B - QBase] = T.value(I, NumCols);
  }
  Sample.assign(NumVars, Fraction(0));
  for (unsigned J = 0; J < NumVars; ++J) {
    Sample[J] = P[J] - Q[J];
    if (Sample[J].overflowed())
      return Done(LPStatus::Error);
  }
  return Done(LPStatus::Optimal);
}

} // namespace presburger
} // namespace sds

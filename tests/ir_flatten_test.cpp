//===- ir_flatten_test.cpp - UF-to-polyhedron lowering tests ---------------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//

#include "sds/ir/Flatten.h"
#include "sds/ir/Parser.h"
#include "sds/obs/Metrics.h"
#include "sds/obs/Trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

using namespace sds;
using namespace sds::ir;
using sds::presburger::BasicSet;
using sds::presburger::EmptinessCore;
using sds::presburger::Ternary;

namespace {
SparseRelation parse(const char *Text) {
  auto R = parseRelation(Text);
  EXPECT_TRUE(R.Ok) << R.Error << " in " << Text;
  return R.Rel;
}
} // namespace

TEST(Flatten, ColumnLayoutAndSharing) {
  SparseRelation R = parse("{ [i] -> [i'] : exists(k') : i < i' && "
                           "i = col(k') && rowptr(i') <= k' < rowptr(i'+1) }");
  Flattened F = flatten(R);
  // Columns: i, i', k', then calls col(k'), rowptr(i'), rowptr(i' + 1).
  ASSERT_EQ(F.Cols.size(), 6u);
  EXPECT_EQ(F.names()[0], "i");
  EXPECT_EQ(F.names()[1], "i'");
  EXPECT_EQ(F.names()[2], "k'");
  EXPECT_NE(F.columnOf(Atom::call("col", {Expr::var("k'")})),
            F.Set.numVars());
  // Syntactically equal calls share one column.
  EXPECT_EQ(F.columnOf(Atom::call("rowptr", {Expr::var("i'")})),
            F.columnOf(Atom::call("rowptr", {Expr::var("i'")})));
}

TEST(Flatten, SatisfiabilityOfUFRelation) {
  // Without knowledge about col/rowptr the relation is satisfiable.
  SparseRelation R = parse("{ [i] -> [i'] : exists(k') : i < i' && "
                           "i = col(k') && 0 <= i < n && 0 <= i' < n && "
                           "rowptr(i') <= k' < rowptr(i'+1) }");
  Flattened F = flatten(R);
  EXPECT_EQ(F.Set.isEmpty(), Ternary::False);
}

TEST(Flatten, AffineContradictionDetected) {
  SparseRelation R = parse("{ [i] -> [i'] : i < i' && i' < i }");
  Flattened F = flatten(R);
  EXPECT_EQ(F.Set.isEmpty(), Ternary::True);
}

TEST(Flatten, SharedCallColumnsForceConsistency) {
  // f(i) < f(i) is a contradiction because both calls share a column.
  SparseRelation R = parse("{ [i] : f(i) < f(i) }");
  Flattened F = flatten(R);
  EXPECT_EQ(F.Set.isEmpty(), Ternary::True);
}

TEST(Flatten, DistinctArgsDistinctColumns) {
  // f(i) < f(j) is satisfiable: different argument expressions.
  SparseRelation R = parse("{ [i, j] : f(i) < f(j) }");
  Flattened F = flatten(R);
  EXPECT_EQ(F.Set.isEmpty(), Ternary::False);
}

TEST(Flatten, NestedCallsGetColumns) {
  SparseRelation R = parse("{ [m] : col(row(m)) <= 5 }");
  Flattened F = flatten(R);
  // Columns: m, col(row(m)), row(m).
  EXPECT_EQ(F.Cols.size(), 3u);
  EXPECT_NE(F.columnOf(Atom::call("row", {Expr::var("m")})),
            F.Set.numVars());
}

TEST(Flatten, RowToExprRoundTrip) {
  SparseRelation R = parse("{ [i] : exists(k) : i = col(k) && 0 <= i }");
  Flattened F = flatten(R);
  for (const auto &Row : F.Set.equalities()) {
    Expr E = F.rowToExpr(Row);
    // i - col(k) == 0 (up to sign).
    Expr Expected = Expr::var("i") - Expr::call("col", {Expr::var("k")});
    EXPECT_TRUE(E == Expected || E == -Expected) << E.str();
  }
}

TEST(Flatten, ParamsGetColumns) {
  SparseRelation R = parse("{ [i] : 0 <= i < n && n <= nnz }");
  Flattened F = flatten(R);
  EXPECT_NE(F.columnOf(Atom::var("n")), F.Set.numVars());
  EXPECT_NE(F.columnOf(Atom::var("nnz")), F.Set.numVars());
}

TEST(Flatten, VarOrderRespected) {
  Conjunction C;
  C.add(Constraint::lt(Expr::var("a"), Expr::var("b")));
  Flattened F = flatten(C, {"b", "a"});
  EXPECT_EQ(F.names()[0], "b");
  EXPECT_EQ(F.names()[1], "a");
  ASSERT_EQ(F.Set.inequalities().size(), 1u);
  // b - a - 1 >= 0 with b in column 0.
  EXPECT_EQ(F.Set.inequalities()[0],
            (std::vector<int64_t>{1, -1, -1}));
}

//===----------------------------------------------------------------------===//
// WitnessPool: points from earlier solves answer later non-empty queries.
//===----------------------------------------------------------------------===//

namespace {

/// Turns tracing (simplex.* counters) and metrics (witness_hits) on for
/// one test and restores both afterwards.
struct CountersOn {
  CountersOn() {
    obs::setEnabled(true);
    obs::setMetricsEnabled(true);
  }
  ~CountersOn() {
    obs::setEnabled(false);
    obs::setMetricsEnabled(false);
  }
};

uint64_t solves() { return obs::counter("simplex.solves").value(); }

/// Variable atoms named `Names`, one per column.
std::vector<Atom> vars(const std::vector<std::string> &Names) {
  std::vector<Atom> Out;
  for (const std::string &N : Names)
    Out.push_back(Atom::var(N));
  return Out;
}
uint64_t witnessHits() {
  return obs::metricCounter("presburger.witness_hits").value();
}

} // namespace

TEST(WitnessPool, HitIssuesNoSolve) {
  CountersOn On;
  presburger::clearQueryCache();
  WitnessPool Pool;
  // x == 2 && y == 3 over columns (x, y): the solve's point is (2, 3).
  BasicSet A(2);
  A.addEquality({1, 0, -2});
  A.addEquality({0, 1, -3});
  uint64_t S0 = solves(), H0 = witnessHits();
  EXPECT_EQ(Pool.isEmpty(A, vars({"x", "y"}), 64), Ternary::False);
  EXPECT_GT(solves(), S0);
  EXPECT_EQ(Pool.size(), 1u);

  // Another system over the same atoms in another column order (y, x):
  // x <= y && x + y <= 10 holds at x = 2, y = 3. No solve, one hit.
  BasicSet B(2);
  B.addInequality({1, -1, 0});
  B.addInequality({-1, -1, 10});
  uint64_t S1 = solves();
  EmptinessCore Core;
  Core.Valid = true;
  EXPECT_EQ(Pool.isEmpty(B, vars({"y", "x"}), 64, &Core), Ternary::False);
  EXPECT_EQ(solves(), S1);
  EXPECT_EQ(witnessHits(), H0 + 1);
  EXPECT_FALSE(Core.Valid);
  EXPECT_EQ(Pool.size(), 1u);

  // A column no stored point covers (z) falls through to the solver.
  BasicSet C(3);
  C.addInequality({1, -1, 0, 0});
  EXPECT_EQ(Pool.isEmpty(C, vars({"y", "x", "z"}), 64), Ternary::False);
  EXPECT_GT(solves(), S1);
  EXPECT_EQ(witnessHits(), H0 + 1);
  EXPECT_EQ(Pool.size(), 2u);

  // An empty set is still proven empty by the solver, core included.
  BasicSet E(2);
  E.addInequality({1, 0, -5});  // x >= 5
  E.addInequality({-1, 0, 4});  // x <= 4
  EXPECT_EQ(Pool.isEmpty(E, vars({"x", "y"}), 64, &Core), Ternary::True);
  EXPECT_TRUE(Core.Valid);
  EXPECT_EQ(Core.Rows, (std::vector<uint32_t>{0, 1}));
}

TEST(WitnessPool, AnswersMatchDirectSolvesOnRandomSystems) {
  CountersOn On;
  const std::vector<std::string> Universe{"a", "b", "c", "d"};
  uint64_t H0 = witnessHits();
  for (unsigned Seed = 0; Seed < 40; ++Seed) {
    std::mt19937 Rng(Seed);
    std::uniform_int_distribution<int> Coef(-2, 2), Cst(-3, 3), Rows(1, 3),
        Width(2, 4);
    WitnessPool Pool;
    for (int Q = 0; Q < 30; ++Q) {
      std::vector<std::string> Names = Universe;
      std::shuffle(Names.begin(), Names.end(), Rng);
      Names.resize(static_cast<size_t>(Width(Rng)));
      unsigned N = static_cast<unsigned>(Names.size());
      BasicSet S(N);
      for (unsigned J = 0; J < N; ++J) { // box [-3, 3]
        std::vector<int64_t> Lo(N + 1, 0), Hi(N + 1, 0);
        Lo[J] = 1;
        Lo[N] = 3;
        Hi[J] = -1;
        Hi[N] = 3;
        S.addInequality(Lo);
        S.addInequality(Hi);
      }
      for (int R = Rows(Rng); R > 0; --R) {
        std::vector<int64_t> Row(N + 1);
        for (auto &C : Row)
          C = Coef(Rng);
        Row[N] = Cst(Rng);
        if (Coef(Rng) > 1)
          S.addEquality(Row);
        else
          S.addInequality(Row);
      }
      EmptinessCore Want, Got;
      Ternary Direct = S.isEmpty(64, &Want);
      Ternary Pooled = Pool.isEmpty(S, vars(Names), 64, &Got);
      ASSERT_EQ(Pooled == Ternary::True, Direct == Ternary::True)
          << "seed " << Seed << " query " << Q << ": " << S.str(Names);
      if (Direct != Ternary::Unknown) {
        EXPECT_EQ(Pooled, Direct) << S.str(Names);
      }
      if (Direct == Ternary::True) {
        EXPECT_EQ(Got.Rows, Want.Rows) << S.str(Names);
        EXPECT_EQ(Got.Valid, Want.Valid) << S.str(Names);
      }
    }
  }
  // The sweep exercised the pool, not only the solver.
  EXPECT_GT(witnessHits(), H0);
}

TEST(WitnessPool, HandsBackTheAnsweringPoint) {
  presburger::clearQueryCache();
  WitnessPool Pool;
  BasicSet A(2); // x == 2 && y == 3
  A.addEquality({1, 0, -2});
  A.addEquality({0, 1, -3});
  std::vector<int64_t> Point;
  EXPECT_EQ(Pool.isEmpty(A, vars({"x", "y"}), 64, nullptr, &Point),
            Ternary::False);
  EXPECT_EQ(Point, (std::vector<int64_t>{2, 3}));
  // A pool hit in another column order answers with the stored point,
  // reordered to the query's columns.
  BasicSet B(2);
  B.addInequality({1, -1, 0}); // y >= x
  Point.clear();
  EXPECT_EQ(Pool.isEmpty(B, vars({"y", "x"}), 64, nullptr, &Point),
            Ternary::False);
  EXPECT_EQ(Point, (std::vector<int64_t>{3, 2}));
}

//===----------------------------------------------------------------------===//
// LoweredSpace: base plus literal stacks assemble exactly what flatten()
// builds for the equivalent conjunction.
//===----------------------------------------------------------------------===//

namespace {

/// Flatten R with `Lits` added to its conjunction in order, the way phase 2
/// built pieces before pieces were lowered.
Flattened flattenWith(SparseRelation R, const std::vector<Constraint> &Lits) {
  for (const Constraint &C : Lits)
    R.Conj.add(C);
  return flatten(R);
}

void expectSameFlattening(const Flattened &Want, const Flattened &Got) {
  EXPECT_EQ(Want.names(), Got.names());
  EXPECT_EQ(Want.Set.numVars(), Got.Set.numVars());
  EXPECT_EQ(Want.Set.equalities(), Got.Set.equalities());
  EXPECT_EQ(Want.Set.inequalities(), Got.Set.inequalities());
  EXPECT_EQ(Want.EqRowConstraint, Got.EqRowConstraint);
  EXPECT_EQ(Want.IneqRowConstraint, Got.IneqRowConstraint);
}

} // namespace

TEST(LoweredSpace, AssembleMatchesFlatten) {
  SparseRelation R = parse("{ [i] -> [i'] : exists(k') : i < i' && "
                           "i = col(k') && rowptr(i') <= k' < rowptr(i'+1) }");
  LoweredSpace Space(R, R.Conj);
  // Literals bringing a new parameter (n), calls that sort before, between
  // and after the base's calls (a(.), col(n), zz(.)), a nested call, an
  // exact duplicate of a base row, a trivially-true row, an equality.
  std::vector<Constraint> Lits{
      Constraint::lt(Expr::var("i'"), Expr::var("n")),
      Constraint::le(Expr::call("zz", {Expr::var("m")}), Expr::var("i")),
      Constraint::equals(Expr::call("col", {Expr::var("n")}),
                         Expr::call("a", {Expr::call("rowptr",
                                                     {Expr::var("i")})})),
      Constraint::lt(Expr::var("i"), Expr::var("i'")), // already in base
      Constraint::geq(Expr(0)),                        // trivially true
      Constraint::le(Expr::var("n"), Expr::var("k'")),
  };
  std::vector<unsigned> Ids;
  for (const Constraint &C : Lits)
    Ids.push_back(Space.addLiteral(C));
  EXPECT_EQ(Space.addLiteral(Lits[1]), Ids[1]) << "equal literals share ids";

  LoweredSpace::Piece P;
  Space.assemble({}, P);
  expectSameFlattening(flatten(R), P.F);
  // Every subset in reverse order, with a repeated literal on top.
  for (unsigned Mask = 1; Mask < (1u << Ids.size()); ++Mask) {
    std::vector<unsigned> Stack;
    std::vector<Constraint> Cs;
    for (unsigned B = 0; B < Ids.size(); ++B)
      if (Mask & (1u << B)) {
        Stack.push_back(Ids[B]);
        Cs.push_back(Lits[B]);
      }
    std::reverse(Stack.begin(), Stack.end());
    std::reverse(Cs.begin(), Cs.end());
    Stack.push_back(Stack.front());
    Cs.push_back(Cs.front());
    Space.assemble(Stack, P);
    SCOPED_TRACE("mask " + std::to_string(Mask));
    expectSameFlattening(flattenWith(R, Cs), P.F);
    // Row provenance resolves to the constraints flatten() lowered.
    Conjunction Piece = R.Conj;
    for (const Constraint &C : Cs)
      Piece.add(C);
    for (unsigned CI = 0; CI < Piece.constraints().size(); ++CI)
      EXPECT_EQ(Space.constraintOf(P, CI), Piece.constraints()[CI]);
  }
}

TEST(LoweredSpace, PointsLiftAndTestLiteralsExactly) {
  SparseRelation R = parse("{ [i] -> [j] : 0 <= i < j && f(i) <= f(j) }");
  LoweredSpace Space(R, R.Conj);
  unsigned Gap = Space.addLiteral(
      Constraint::geq(Expr::var("j") - Expr::var("i") - Expr(2)));
  unsigned Fresh = Space.addLiteral(
      Constraint::equals(Expr::call("g", {Expr::var("j")}), Expr(5)));
  LoweredSpace::Piece P;
  Space.assemble({}, P);
  // A point of the base (i, j, f(i), f(j)) in global coordinates.
  std::vector<int64_t> Global = Space.lift(P, {0, 3, 1, 1});
  EXPECT_TRUE(Space.satisfies(Gap, Global));
  // g(j) has no value in a base point: it reads 0, violating g(j) == 5.
  EXPECT_FALSE(Space.satisfies(Fresh, Global));
  Space.assemble({Fresh}, P);
  std::vector<std::string> Names = P.F.names();
  ASSERT_EQ(Names.size(), 5u);
  std::vector<int64_t> Local(5, 0);
  for (size_t J = 0; J < Names.size(); ++J)
    Local[J] = Names[J] == "g(j)" ? 5 : Names[J] == "j" ? 1 : 0;
  std::vector<int64_t> Lifted = Space.lift(P, Local);
  EXPECT_TRUE(Space.satisfies(Fresh, Lifted));
  EXPECT_FALSE(Space.satisfies(Gap, Lifted)); // j - i - 2 = -1
  // A row whose value leaves 128 bits counts as violated, even though
  // this one is mathematically >= 0.
  unsigned Wide = Space.addLiteral(Constraint::geq(
      Expr(INT64_MAX, Atom::var("i")) + Expr(INT64_MAX, Atom::var("j")) +
      Expr(INT64_MAX, Atom::call("f", {Expr::var("i")}))));
  std::vector<int64_t> Huge(Lifted.size(), INT64_MAX);
  EXPECT_FALSE(Space.satisfies(Wide, Huge));
  Huge.assign(Lifted.size(), 1);
  EXPECT_TRUE(Space.satisfies(Wide, Huge));
}

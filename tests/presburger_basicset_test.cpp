//===- presburger_basicset_test.cpp - Integer polyhedron tests -----------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//

#include "sds/presburger/BasicSet.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

using namespace sds::presburger;

namespace {
std::vector<int64_t> row(std::initializer_list<int64_t> L) { return L; }
} // namespace

TEST(BasicSet, NormalizeDetectsTrivialEmpty) {
  BasicSet S(1);
  S.addInequality(row({0, -1})); // -1 >= 0
  EXPECT_FALSE(S.normalize());

  BasicSet S2(1);
  S2.addEquality(row({0, 3})); // 3 == 0
  EXPECT_FALSE(S2.normalize());

  BasicSet S3(1);
  S3.addEquality(row({2, -1})); // 2x == 1: no integer solution
  EXPECT_FALSE(S3.normalize());
}

TEST(BasicSet, NormalizeTightensInequalities) {
  BasicSet S(1);
  S.addInequality(row({2, -1})); // 2x >= 1  ==>  x >= 1 (integer tightening)
  ASSERT_TRUE(S.normalize());
  ASSERT_EQ(S.inequalities().size(), 1u);
  EXPECT_EQ(S.inequalities()[0], row({1, -1}));
}

TEST(BasicSet, EmptinessBasics) {
  BasicSet S(2);
  S.addInequality(row({1, 0, 0}));    // x >= 0
  S.addInequality(row({0, 1, 0}));    // y >= 0
  S.addInequality(row({-1, -1, 5})); // x + y <= 5
  EXPECT_EQ(S.isEmpty(), Ternary::False);

  S.addInequality(row({1, 1, -6})); // x + y >= 6: contradiction
  EXPECT_EQ(S.isEmpty(), Ternary::True);
}

TEST(BasicSet, IntegerOnlyEmptiness) {
  // 2x == 2y + 1 is rationally feasible but has no integer solutions.
  BasicSet S(2);
  S.addEquality(row({2, -2, -1}));
  EXPECT_EQ(S.isEmpty(), Ternary::True);
}

TEST(BasicSet, IntegerEmptinessNeedsBranching) {
  // 3x + 3y == 1 within a box: rationally feasible, integrally empty,
  // and not caught by a single GCD test once extra constraints join in.
  BasicSet S(2);
  S.addEquality(row({3, 3, -1}));
  S.addInequality(row({1, 0, 10}));  // x >= -10
  S.addInequality(row({-1, 0, 10})); // x <= 10
  EXPECT_EQ(S.isEmpty(), Ternary::True);

  // 2x >= 1, 2x <= 1: x = 1/2 only.
  BasicSet S2(1);
  S2.addInequality(row({2, -1}));
  S2.addInequality(row({-2, 1}));
  EXPECT_EQ(S2.isEmpty(), Ternary::True);
}

TEST(BasicSet, SampleIntegerPoint) {
  BasicSet S(2);
  S.addInequality(row({1, 0, -3}));  // x >= 3
  S.addInequality(row({-1, 0, 7}));  // x <= 7
  S.addEquality(row({1, -1, 0}));    // x == y
  auto P = S.sampleIntegerPoint();
  ASSERT_TRUE(P.has_value());
  EXPECT_GE((*P)[0], 3);
  EXPECT_LE((*P)[0], 7);
  EXPECT_EQ((*P)[0], (*P)[1]);
}

TEST(BasicSet, DetectImplicitEqualities) {
  // x <= y and y <= x force x == y.
  BasicSet S(2);
  S.addInequality(row({1, -1, 0}));  // x - y >= 0
  S.addInequality(row({-1, 1, 0}));  // y - x >= 0
  S.addInequality(row({1, 0, 0}));   // x >= 0 (not tight)
  unsigned N = S.detectImplicitEqualities();
  EXPECT_EQ(N, 2u);
  ASSERT_GE(S.equalities().size(), 1u);
  // Remaining inequality x >= 0 must not be promoted.
  EXPECT_EQ(S.inequalities().size(), 1u);
}

TEST(BasicSet, DetectImplicitEqualityViaChain) {
  // The paper's §4.1 pattern: i' <= g and g <= i' arrive from different
  // sources; the promotion must find i' == g.
  BasicSet S(2); // vars: ip, g
  S.addInequality(row({-1, 1, 0})); // g - ip >= 0
  S.addInequality(row({1, -1, 0})); // ip - g >= 0
  EXPECT_EQ(S.detectImplicitEqualities(), 2u);
}

TEST(BasicSet, ProjectOutExactUnitCoefficients) {
  // S = { (x, y) : 0 <= y <= 10, x == y }. Projecting y gives 0 <= x <= 10.
  BasicSet S(2);
  S.addInequality(row({0, 1, 0}));
  S.addInequality(row({0, -1, 10}));
  S.addEquality(row({1, -1, 0}));
  auto R = S.projectOut({1});
  EXPECT_TRUE(R.Exact);
  BasicSet Expect(1);
  Expect.addInequality(row({1, 0}));
  Expect.addInequality(row({-1, 10}));
  EXPECT_EQ(R.Set.isSubsetOf(Expect), Ternary::True);
  EXPECT_EQ(Expect.isSubsetOf(R.Set), Ternary::True);
}

TEST(BasicSet, ProjectOutFourierMotzkin) {
  // S = { (x, y) : x <= y, y <= 5 }: projecting y leaves x <= 5.
  BasicSet S(2);
  S.addInequality(row({-1, 1, 0}));
  S.addInequality(row({0, -1, 5}));
  auto R = S.projectOut({1});
  EXPECT_TRUE(R.Exact);
  BasicSet Expect(1);
  Expect.addInequality(row({-1, 5}));
  EXPECT_EQ(R.Set.isSubsetOf(Expect), Ternary::True);
  EXPECT_EQ(Expect.isSubsetOf(R.Set), Ternary::True);
}

TEST(BasicSet, ProjectOutInexactFlagged) {
  // 2y == x with y existential describes even x; FM/equality elimination
  // cannot represent that exactly, so the result must be flagged inexact.
  BasicSet S(2);
  S.addEquality(row({-1, 2, 0})); // 2y - x == 0
  S.addInequality(row({0, 1, 0}));
  S.addInequality(row({0, -1, 10}));
  auto R = S.projectOut({1});
  EXPECT_FALSE(R.Exact);
}

TEST(BasicSet, ProjectOutEmptyInput) {
  BasicSet S(2);
  S.addInequality(row({0, 0, -1}));
  auto R = S.projectOut({1});
  EXPECT_TRUE(R.Exact);
  EXPECT_EQ(R.Set.isEmpty(), Ternary::True);
}

TEST(BasicSet, SubstituteVariable) {
  // S = { (x, y) : 0 <= x + y <= 4 }; substitute y := x + 1.
  BasicSet S(2);
  S.addInequality(row({1, 1, 0}));
  S.addInequality(row({-1, -1, 4}));
  BasicSet T = S.substitute(1, row({1, 0, 1}));
  EXPECT_EQ(T.numVars(), 1u);
  // Now 0 <= 2x + 1 <= 4, i.e. x in {0, 1} over the integers.
  EXPECT_EQ(T.isEmpty(), Ternary::False);
  BasicSet Box(1);
  Box.addInequality(row({1, 0}));
  Box.addInequality(row({-1, 1}));
  EXPECT_EQ(T.isSubsetOf(Box), Ternary::True);
}

TEST(BasicSet, SubsetBasics) {
  BasicSet Inner(1), Outer(1);
  Inner.addInequality(row({1, -2}));  // x >= 2
  Inner.addInequality(row({-1, 4}));  // x <= 4
  Outer.addInequality(row({1, 0}));   // x >= 0
  Outer.addInequality(row({-1, 10})); // x <= 10
  EXPECT_EQ(Inner.isSubsetOf(Outer), Ternary::True);
  EXPECT_EQ(Outer.isSubsetOf(Inner), Ternary::False);
}

TEST(BasicSet, SubsetWithEqualities) {
  BasicSet Line(2), HalfPlane(2);
  Line.addEquality(row({1, -1, 0})); // x == y
  Line.addInequality(row({1, 0, 0}));
  HalfPlane.addInequality(row({1, -1, 0})); // x >= y
  EXPECT_EQ(Line.isSubsetOf(HalfPlane), Ternary::True);
  EXPECT_EQ(HalfPlane.isSubsetOf(Line), Ternary::False);
}

TEST(BasicSet, InsertVars) {
  BasicSet S(2);
  S.addInequality(row({1, -1, 3}));
  BasicSet T = S.insertVars(1, 2);
  EXPECT_EQ(T.numVars(), 4u);
  ASSERT_EQ(T.inequalities().size(), 1u);
  EXPECT_EQ(T.inequalities()[0], row({1, 0, 0, -1, 3}));
}

TEST(BasicSet, PrintReadable) {
  BasicSet S(2);
  S.addEquality(row({1, -1, 0}));
  S.addInequality(row({1, 0, -2}));
  std::string Str = S.str({"i", "j"});
  EXPECT_NE(Str.find("i - j == 0"), std::string::npos);
  EXPECT_NE(Str.find("i - 2 >= 0"), std::string::npos);
}

TEST(SetUnion, EmptinessAndSubset) {
  BasicSet A(1), B(1), C(1);
  A.addInequality(row({1, 0}));    // x >= 0
  A.addInequality(row({-1, 3}));   // x <= 3
  B.addInequality(row({1, -5}));   // x >= 5
  B.addInequality(row({-1, 8}));   // x <= 8
  C.addInequality(row({1, 0}));    // x >= 0
  C.addInequality(row({-1, 10}));  // x <= 10

  SetUnion U;
  U.add(A);
  U.add(B);
  EXPECT_EQ(U.isEmpty(), Ternary::False);
  EXPECT_EQ(U.isSubsetOf(SetUnion(C)), Ternary::True);
  // C is not inside A ∪ B (the gap (3,5) matters only rationally, but 4 is
  // an integer witness).
  EXPECT_NE(SetUnion(C).isSubsetOf(U), Ternary::True);
}

TEST(SetUnion, EmptyUnionIsEmpty) {
  SetUnion U;
  EXPECT_EQ(U.isEmpty(), Ternary::True);
}

//===----------------------------------------------------------------------===//
// Property-style randomized cross-check: emptiness and subset vs brute force
// over a small box.
//===----------------------------------------------------------------------===//

namespace {

/// Enumerate all integer points of `S` within [-B, B]^n by brute force.
std::vector<std::vector<int64_t>> enumerateBox(const BasicSet &S, int64_t B) {
  std::vector<std::vector<int64_t>> Points;
  unsigned N = S.numVars();
  std::vector<int64_t> P(N, -B);
  while (true) {
    bool Ok = true;
    for (const auto &Row : S.equalities()) {
      int64_t V = Row[N];
      for (unsigned J = 0; J < N; ++J)
        V += Row[J] * P[J];
      if (V != 0) {
        Ok = false;
        break;
      }
    }
    for (const auto &Row : S.inequalities()) {
      if (!Ok)
        break;
      int64_t V = Row[N];
      for (unsigned J = 0; J < N; ++J)
        V += Row[J] * P[J];
      if (V < 0)
        Ok = false;
    }
    if (Ok)
      Points.push_back(P);
    unsigned J = 0;
    for (; J < N; ++J) {
      if (P[J] < B) {
        ++P[J];
        break;
      }
      P[J] = -B;
    }
    if (J == N)
      break;
  }
  return Points;
}

BasicSet randomBoxedSet(std::mt19937 &Rng, unsigned NumVars, int64_t B) {
  BasicSet S(NumVars);
  // Box constraints keep everything bounded so brute force is exact.
  for (unsigned J = 0; J < NumVars; ++J) {
    std::vector<int64_t> Lo(NumVars + 1, 0), Hi(NumVars + 1, 0);
    Lo[J] = 1;
    Lo[NumVars] = B;
    Hi[J] = -1;
    Hi[NumVars] = B;
    S.addInequality(Lo);
    S.addInequality(Hi);
  }
  std::uniform_int_distribution<int> Coef(-2, 2);
  std::uniform_int_distribution<int> Cst(-3, 3);
  std::uniform_int_distribution<int> NumRows(1, 3);
  int Rows = NumRows(Rng);
  for (int R = 0; R < Rows; ++R) {
    std::vector<int64_t> Row(NumVars + 1);
    for (unsigned J = 0; J < NumVars; ++J)
      Row[J] = Coef(Rng);
    Row[NumVars] = Cst(Rng);
    if (Coef(Rng) > 0)
      S.addEquality(Row);
    else
      S.addInequality(Row);
  }
  return S;
}

} // namespace

class BasicSetRandomized : public ::testing::TestWithParam<int> {};

TEST_P(BasicSetRandomized, EmptinessMatchesBruteForce) {
  std::mt19937 Rng(static_cast<unsigned>(GetParam()));
  BasicSet S = randomBoxedSet(Rng, 3, 3);
  bool BruteEmpty = enumerateBox(S, 3).empty();
  Ternary T = S.isEmpty(/*NodeBudget=*/256);
  ASSERT_NE(T, Ternary::Unknown) << S.str();
  EXPECT_EQ(T == Ternary::True, BruteEmpty) << S.str();
}

TEST_P(BasicSetRandomized, SubsetMatchesBruteForce) {
  std::mt19937 Rng(static_cast<unsigned>(GetParam()) + 1000);
  BasicSet A = randomBoxedSet(Rng, 2, 3);
  BasicSet B = randomBoxedSet(Rng, 2, 3);
  auto PA = enumerateBox(A, 3);
  auto PB = enumerateBox(B, 3);
  auto Contains = [&](const std::vector<int64_t> &P) {
    for (const auto &Q : PB)
      if (Q == P)
        return true;
    return false;
  };
  bool BruteSubset = true;
  for (const auto &P : PA)
    if (!Contains(P)) {
      BruteSubset = false;
      break;
    }
  Ternary T = A.isSubsetOf(B, /*NodeBudget=*/256);
  ASSERT_NE(T, Ternary::Unknown);
  EXPECT_EQ(T == Ternary::True, BruteSubset)
      << "A=" << A.str() << " B=" << B.str();
}

TEST_P(BasicSetRandomized, ProjectionIsSupersetAndExactWhenClaimed) {
  std::mt19937 Rng(static_cast<unsigned>(GetParam()) + 2000);
  BasicSet S = randomBoxedSet(Rng, 3, 3);
  auto R = S.projectOut({2});
  // Brute-force the true projection.
  auto Pts = enumerateBox(S, 3);
  std::set<std::pair<int64_t, int64_t>> True2D;
  for (const auto &P : Pts)
    True2D.insert({P[0], P[1]});
  // Every true projected point must be in the FM result (soundness).
  unsigned N = R.Set.numVars();
  ASSERT_EQ(N, 2u);
  auto InResult = [&](int64_t X, int64_t Y) {
    for (const auto &Row : R.Set.equalities())
      if (Row[0] * X + Row[1] * Y + Row[2] != 0)
        return false;
    for (const auto &Row : R.Set.inequalities())
      if (Row[0] * X + Row[1] * Y + Row[2] < 0)
        return false;
    return true;
  };
  for (const auto &[X, Y] : True2D)
    EXPECT_TRUE(InResult(X, Y)) << S.str();
  // When claimed exact, points of the result inside the box must be true
  // projections.
  if (R.Exact) {
    for (int64_t X = -3; X <= 3; ++X) {
      for (int64_t Y = -3; Y <= 3; ++Y) {
        if (InResult(X, Y)) {
          EXPECT_TRUE(True2D.count({X, Y}))
              << "claimed-exact projection has phantom point " << X << ","
              << Y << " for " << S.str();
        }
      }
    }
  }
}

TEST_P(BasicSetRandomized, FalseVerdictReturnsPointOfTheSet) {
  clearQueryCache();
  std::mt19937 Rng(static_cast<unsigned>(GetParam()) + 3000);
  BasicSet S = randomBoxedSet(Rng, 3, 3);
  auto Pts = enumerateBox(S, 3);
  // The second query is a cache hit; the cached point must come back too.
  for (int Pass = 0; Pass < 2; ++Pass) {
    std::vector<int64_t> W{7}; // stale content must be cleared
    Ternary T = S.isEmpty(/*NodeBudget=*/256, nullptr, &W);
    ASSERT_NE(T, Ternary::Unknown) << S.str();
    if (T == Ternary::True) {
      EXPECT_TRUE(W.empty());
      continue;
    }
    ASSERT_EQ(W.size(), 3u) << S.str();
    EXPECT_TRUE(S.contains(W)) << S.str();
    EXPECT_NE(std::find(Pts.begin(), Pts.end(), W), Pts.end()) << S.str();
  }
}

namespace {

/// Reference for detectImplicitEqualities: re-probe every remaining
/// inequality until a full pass promotes nothing. Skipping rows a known
/// point shows to be slack, and re-probing only Unknown rows, must give
/// exactly this output with fewer probes.
BasicSet exhaustiveImplicitEqualities(BasicSet S, unsigned Budget) {
  if (!S.normalize())
    return S;
  std::vector<std::vector<int64_t>> Eqs = S.equalities();
  std::vector<std::vector<int64_t>> Ineqs = S.inequalities();
  unsigned N = S.numVars();
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t I = 0; I < Ineqs.size(); ++I) {
      BasicSet Probe(N);
      for (const auto &R : Eqs)
        Probe.addEquality(R);
      for (const auto &R : Ineqs)
        Probe.addInequality(R);
      std::vector<int64_t> Strict = Ineqs[I];
      Strict[N] -= 1;
      Probe.addInequality(Strict);
      if (Probe.isEmpty(Budget) != Ternary::True)
        continue;
      Eqs.push_back(Ineqs[I]);
      Ineqs.erase(Ineqs.begin() + static_cast<std::ptrdiff_t>(I));
      --I;
      Changed = true;
    }
  }
  BasicSet Out(N);
  for (const auto &R : Eqs)
    Out.addEquality(R);
  for (const auto &R : Ineqs)
    Out.addInequality(R);
  return Out;
}

} // namespace

TEST_P(BasicSetRandomized, ImplicitEqualitiesMatchExhaustiveRescan) {
  std::mt19937 Rng(static_cast<unsigned>(GetParam()) + 4000);
  BasicSet S = randomBoxedSet(Rng, 3, 3);
  // Sandwich a random row so some sets do have implied equalities.
  std::vector<int64_t> Row(4);
  std::uniform_int_distribution<int> Coef(-2, 2);
  for (auto &C : Row)
    C = Coef(Rng);
  S.addInequality(Row);
  for (auto &C : Row)
    C = -C;
  if (Coef(Rng) > 0)
    S.addInequality(Row);
  BasicSet Want = exhaustiveImplicitEqualities(S, 64);
  BasicSet Got = S;
  Got.detectImplicitEqualities(64);
  EXPECT_EQ(Got.equalities(), Want.equalities()) << S.str();
  EXPECT_EQ(Got.inequalities(), Want.inequalities()) << S.str();
}

INSTANTIATE_TEST_SUITE_P(Seeds, BasicSetRandomized,
                         ::testing::Range(0, 40));

TEST(BasicSet, ContainsChecksEveryRowExactly) {
  BasicSet S(2);
  S.addEquality(row({1, -1, 0}));   // x == y
  S.addInequality(row({1, 0, -2})); // x >= 2
  EXPECT_TRUE(S.contains({3, 3}));
  EXPECT_FALSE(S.contains({3, 4})); // equality violated
  EXPECT_FALSE(S.contains({1, 1})); // inequality violated
  // Products of int64 values are exact in 128 bits: 2 * (2^63 - 1)^2
  // still fits, so this row is satisfied...
  BasicSet Two(2);
  Two.addInequality(row({INT64_MAX, INT64_MAX, 0}));
  EXPECT_TRUE(Two.contains({INT64_MAX, INT64_MAX}));
  // ...while a third such term overflows, and an overflowing row counts as
  // violated (a miss, never a wrapped-around "satisfied").
  BasicSet Three(3);
  Three.addInequality(row({INT64_MAX, INT64_MAX, INT64_MAX, 0}));
  EXPECT_FALSE(Three.contains({INT64_MAX, INT64_MAX, INT64_MAX}));
}

//===----------------------------------------------------------------------===//
// Query memoization (emptiness / subset verdict cache).
//===----------------------------------------------------------------------===//

TEST(QueryCache, RepeatedEmptinessQueriesHit) {
  clearQueryCache();
  BasicSet S(2);
  S.addInequality(row({1, 0, 0}));   // x >= 0
  S.addInequality(row({0, 1, 0}));   // y >= 0
  S.addInequality(row({-1, -1, 5})); // x + y <= 5
  Ternary First = S.isEmpty();
  QueryCacheStats After1 = queryCacheStats();
  EXPECT_EQ(After1.Hits, 0u);
  EXPECT_GE(After1.Misses, 1u);
  EXPECT_GE(After1.Entries, 1u);
  // Same system again (fresh object): must hit and agree.
  BasicSet T(2);
  T.addInequality(row({1, 0, 0}));
  T.addInequality(row({0, 1, 0}));
  T.addInequality(row({-1, -1, 5}));
  EXPECT_EQ(T.isEmpty(), First);
  QueryCacheStats After2 = queryCacheStats();
  EXPECT_EQ(After2.Hits, After1.Hits + 1);
  EXPECT_EQ(After2.Misses, After1.Misses);
}

TEST(QueryCache, PermutedConstraintOrderSharesEntry) {
  // The key is canonical (sorted normalized rows), so constraint insertion
  // order must not defeat the cache.
  clearQueryCache();
  BasicSet A(2);
  A.addInequality(row({1, 0, 0}));
  A.addInequality(row({-1, -1, 9}));
  A.addInequality(row({0, 1, 0}));
  Ternary VA = A.isEmpty();
  QueryCacheStats Mid = queryCacheStats();
  BasicSet B(2);
  B.addInequality(row({0, 1, 0}));
  B.addInequality(row({1, 0, 0}));
  B.addInequality(row({-1, -1, 9}));
  EXPECT_EQ(B.isEmpty(), VA);
  QueryCacheStats End = queryCacheStats();
  EXPECT_EQ(End.Hits, Mid.Hits + 1);
}

TEST(QueryCache, SubsetQueriesCachedSeparatelyFromEmptiness) {
  // The containment must need actual reasoning: row-wise implied pairs are
  // answered by the syntactic prefilter before the cache is consulted.
  clearQueryCache();
  BasicSet Small(2);
  Small.addInequality(row({1, 0, 0}));   // x >= 0
  Small.addInequality(row({0, 1, 0}));   // y >= 0
  Small.addInequality(row({-1, 0, 2}));  // x <= 2
  Small.addInequality(row({0, -1, 2}));  // y <= 2
  BasicSet Big(2);
  Big.addInequality(row({-1, -1, 10})); // x + y <= 10
  Ternary V1 = Small.isSubsetOf(Big);
  EXPECT_EQ(V1, Ternary::True);
  QueryCacheStats Mid = queryCacheStats();
  EXPECT_EQ(Small.isSubsetOf(Big), V1); // hit
  QueryCacheStats End = queryCacheStats();
  EXPECT_EQ(End.Hits, Mid.Hits + 1);
  // Reversed direction is a different key (and a different answer).
  EXPECT_EQ(Big.isSubsetOf(Small), Ternary::False);
}

TEST(QueryCache, ClearResetsStatsAndEntries) {
  BasicSet S(1);
  S.addInequality(row({1, 0}));
  (void)S.isEmpty();
  clearQueryCache();
  QueryCacheStats Z = queryCacheStats();
  EXPECT_EQ(Z.Hits, 0u);
  EXPECT_EQ(Z.Misses, 0u);
  EXPECT_EQ(Z.Entries, 0u);
  EXPECT_EQ(Z.hitRate(), 0.0);
}

TEST(QueryCache, CachedVerdictsMatchFreshSolves) {
  // Randomized consistency: solve, re-solve (cached), clear, solve fresh —
  // all three verdicts must agree.
  std::mt19937 Rng(4242);
  std::uniform_int_distribution<int64_t> Coef(-3, 3);
  for (int Trial = 0; Trial < 25; ++Trial) {
    BasicSet S(2);
    for (int R = 0; R < 4; ++R)
      S.addInequality(row({Coef(Rng), Coef(Rng), Coef(Rng)}));
    BasicSet Copy = S;
    Ternary First = S.isEmpty();
    Ternary Cached = Copy.isEmpty();
    clearQueryCache();
    BasicSet Fresh = S;
    Ternary Recomputed = Fresh.isEmpty();
    EXPECT_EQ(First, Cached) << "trial " << Trial;
    EXPECT_EQ(First, Recomputed) << "trial " << Trial;
  }
}

//===- runtime_wavefront_test.cpp - DAG / level set / LBC tests ------------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//

#include "sds/runtime/Matrix.h"
#include "sds/runtime/Schedule.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>

using namespace sds::rt;

namespace {

/// Successor list as a vector (successors() returns a span into the CSR
/// arrays; gtest compares vectors more readably).
std::vector<int> succ(const DependenceGraph &G, int Node) {
  auto S = G.successors(Node);
  return {S.begin(), S.end()};
}

/// Figure 2's dependence graph (from Figure 1's matrix).
DependenceGraph figure2Graph() {
  DependenceGraph G(4);
  G.addEdge(0, 2);
  G.addEdge(0, 3);
  G.addEdge(2, 3);
  G.finalize();
  return G;
}

ScheduleConfig config(ScheduleKind Kind, int Threads, double MinWork = 64) {
  ScheduleConfig C;
  C.Kind = Kind;
  C.NumThreads = Threads;
  C.MinWorkPerThread = MinWork;
  return C;
}

} // namespace

TEST(DependenceGraph, EdgesAndInvariants) {
  DependenceGraph G = figure2Graph();
  EXPECT_EQ(G.numEdges(), 3u);
  EXPECT_TRUE(G.isForwardOnly());
  EXPECT_EQ(succ(G, 0), (std::vector<int>{2, 3}));
  EXPECT_TRUE(G.successors(1).empty());
}

TEST(DependenceGraph, DeduplicatesAndIgnoresSelfEdges) {
  DependenceGraph G(3);
  G.addEdge(0, 1);
  G.addEdge(0, 1);
  G.addEdge(1, 1); // ignored
  G.finalize();
  EXPECT_EQ(G.numEdges(), 1u);
}

TEST(DependenceGraph, CSRSuccessorsSortedUniqueAgainstReference) {
  // Random insertion order with heavy duplication: the finalized CSR rows
  // must match a reference adjacency-set representation exactly, with each
  // row sorted ascending.
  std::mt19937 Rng(1234);
  int N = 97;
  DependenceGraph G(N);
  std::vector<std::set<int>> Ref(static_cast<size_t>(N));
  std::uniform_int_distribution<int> NodeDist(0, N - 1);
  for (int E = 0; E < N * 20; ++E) {
    int A = NodeDist(Rng), B = NodeDist(Rng);
    G.addEdge(A, B);
    if (A != B)
      Ref[static_cast<size_t>(A)].insert(B);
  }
  G.finalize();
  uint64_t RefEdges = 0;
  for (int U = 0; U < N; ++U) {
    const std::set<int> &R = Ref[static_cast<size_t>(U)];
    RefEdges += R.size();
    std::vector<int> S = succ(G, U);
    EXPECT_EQ(S, std::vector<int>(R.begin(), R.end())) << "node " << U;
    EXPECT_TRUE(std::is_sorted(S.begin(), S.end())) << "node " << U;
  }
  EXPECT_EQ(G.numEdges(), RefEdges);
}

TEST(DependenceGraph, RefinalizeMergesLateEdges) {
  // finalize() must be idempotent and accept edges added after a previous
  // finalize (the driver finalizes once, but schedulers may refinalize).
  DependenceGraph G(4);
  G.addEdge(0, 2);
  G.finalize();
  EXPECT_EQ(G.numEdges(), 1u);
  G.addEdge(0, 3);
  G.addEdge(0, 2); // duplicate of a pre-finalize edge
  G.addEdge(2, 3);
  G.finalize();
  EXPECT_EQ(G.numEdges(), 3u);
  EXPECT_EQ(succ(G, 0), (std::vector<int>{2, 3}));
  EXPECT_EQ(succ(G, 2), (std::vector<int>{3}));
  G.finalize(); // no staged edges: a no-op
  EXPECT_EQ(G.numEdges(), 3u);
}

TEST(DependenceGraph, ReserveEdgesPresizesCSRStorage) {
  // reserveEdges must pre-size the CSR destination array, not just the
  // staging buffer: finalize() under a covering reservation must not
  // reallocate.
  DependenceGraph G(8);
  G.reserveEdges(16);
  size_t Cap = G.edgeCapacity();
  EXPECT_GE(Cap, 16u);
  for (int I = 0; I < 7; ++I)
    G.addEdge(I, I + 1);
  G.finalize();
  EXPECT_EQ(G.edgeCapacity(), Cap) << "finalize grew EdgeDst";
  EXPECT_EQ(G.numEdges(), 7u);

  // Re-finalize after staging more edges: the reservation must cover the
  // existing CSR content (finalize re-stages it) plus the new edges.
  G.reserveEdges(8);
  Cap = G.edgeCapacity();
  for (int I = 0; I < 6; ++I)
    G.addEdge(I, I + 2);
  G.finalize();
  EXPECT_EQ(G.edgeCapacity(), Cap) << "re-finalize grew EdgeDst";
  EXPECT_EQ(G.numEdges(), 13u);
  EXPECT_EQ(succ(G, 0), (std::vector<int>{1, 2}));
}

TEST(LevelSets, CSRGraphMatchesReferenceLongestPath) {
  // Level sets computed from the CSR layout must equal the textbook
  // longest-path-from-source levels computed on an independent adjacency
  // list.
  std::mt19937 Rng(777);
  int N = 128;
  DependenceGraph G(N);
  std::vector<std::vector<int>> Adj(static_cast<size_t>(N));
  std::uniform_int_distribution<int> NodeDist(0, N - 1);
  for (int E = 0; E < N * 4; ++E) {
    int A = NodeDist(Rng), B = NodeDist(Rng);
    if (A < B) { // forward edges only: guaranteed acyclic
      G.addEdge(A, B);
      Adj[static_cast<size_t>(A)].push_back(B);
    }
  }
  G.finalize();
  std::vector<int> Depth(static_cast<size_t>(N), 0);
  for (int U = 0; U < N; ++U) // topological order since A < B
    for (int V : Adj[static_cast<size_t>(U)])
      Depth[static_cast<size_t>(V)] =
          std::max(Depth[static_cast<size_t>(V)],
                   Depth[static_cast<size_t>(U)] + 1);
  LevelSets LS = computeLevelSets(G);
  ASSERT_EQ(LS.numLevels(),
            *std::max_element(Depth.begin(), Depth.end()) + 1);
  for (int Lvl = 0; Lvl < LS.numLevels(); ++Lvl)
    for (int Node : LS.Levels[static_cast<size_t>(Lvl)])
      EXPECT_EQ(Depth[static_cast<size_t>(Node)], Lvl) << "node " << Node;
}

TEST(LevelSets, Figure2Waves) {
  // The paper's Figure 2: waves {0, 1}, {2}, {3}.
  LevelSets LS = computeLevelSets(figure2Graph());
  ASSERT_EQ(LS.numLevels(), 3);
  EXPECT_EQ(LS.Levels[0], (std::vector<int>{0, 1}));
  EXPECT_EQ(LS.Levels[1], (std::vector<int>{2}));
  EXPECT_EQ(LS.Levels[2], (std::vector<int>{3}));
}

TEST(LevelSets, ChainAndIndependent) {
  DependenceGraph Chain(4);
  Chain.addEdge(0, 1);
  Chain.addEdge(1, 2);
  Chain.addEdge(2, 3);
  Chain.finalize();
  EXPECT_EQ(computeLevelSets(Chain).numLevels(), 4);

  DependenceGraph Free(4);
  Free.finalize();
  EXPECT_EQ(computeLevelSets(Free).numLevels(), 1);
}

TEST(Schedule, LevelSetsCertify) {
  DependenceGraph G = figure2Graph();
  for (int Threads : {1, 2, 4, 8}) {
    CompiledSchedule S =
        buildSchedule(G, config(ScheduleKind::Levels, Threads));
    EXPECT_TRUE(certifySchedule(G, S)) << "threads=" << Threads;
    EXPECT_EQ(S.numWaves(), 3);
  }
}

TEST(Schedule, LBCCertifies) {
  DependenceGraph G = figure2Graph();
  for (int Threads : {1, 2, 4}) {
    CompiledSchedule S =
        buildSchedule(G, config(ScheduleKind::LBC, Threads, 1));
    EXPECT_TRUE(certifySchedule(G, S)) << "threads=" << Threads;
  }
}

TEST(Schedule, LBCCoarsensLongChains) {
  // A graph of many short levels: LBC must produce far fewer waves than
  // plain level sets (that is its whole point, §8.1).
  int N = 512;
  DependenceGraph G(N);
  for (int I = 0; I + 2 < N; I += 2)
    G.addEdge(I, I + 2); // two independent chains of length N/2
  G.finalize();
  CompiledSchedule Plain = buildSchedule(G, config(ScheduleKind::Levels, 4));
  CompiledSchedule Coarse =
      buildSchedule(G, config(ScheduleKind::LBC, 4, 16));
  EXPECT_TRUE(certifySchedule(G, Coarse));
  EXPECT_LT(Coarse.numWaves(), Plain.numWaves() / 4);
}

TEST(Schedule, CostBalancing) {
  // One expensive node and many cheap ones in a single level: the
  // expensive node must not share its thread with most of the cheap work.
  DependenceGraph G(9);
  G.finalize();
  std::vector<double> Cost(9, 1.0);
  Cost[0] = 8.0;
  CompiledSchedule S =
      buildSchedule(G, config(ScheduleKind::Levels, 2), Cost);
  ASSERT_EQ(S.numWaves(), 1);
  // Find node 0's partition; it should carry few other nodes.
  for (const auto &Part : S.Waves[0]) {
    bool HasBig = false;
    for (int Node : Part)
      if (Node == 0)
        HasBig = true;
    if (HasBig) {
      EXPECT_LE(Part.size(), 3u);
    }
  }
}

//===----------------------------------------------------------------------===//
// Property test: schedules from random DAGs are always valid.
//===----------------------------------------------------------------------===//

class WavefrontRandom : public ::testing::TestWithParam<int> {};

TEST_P(WavefrontRandom, SchedulesCertifyOnRandomGraphs) {
  std::mt19937 Rng(static_cast<unsigned>(GetParam()));
  int N = 64 + GetParam() * 8;
  DependenceGraph G(N);
  std::uniform_int_distribution<int> NodeDist(0, N - 1);
  for (int E = 0; E < N * 3; ++E) {
    int A = NodeDist(Rng), B = NodeDist(Rng);
    if (A < B)
      G.addEdge(A, B);
  }
  G.finalize();
  CompiledSchedule Plain = buildSchedule(G, config(ScheduleKind::Levels, 4));
  EXPECT_TRUE(certifySchedule(G, Plain));
  CompiledSchedule Coarse = buildSchedule(G, config(ScheduleKind::LBC, 4, 8));
  EXPECT_TRUE(certifySchedule(G, Coarse));
  // LBC never has more waves than plain level sets.
  EXPECT_LE(Coarse.numWaves(), Plain.numWaves());
}

INSTANTIATE_TEST_SUITE_P(Seeds, WavefrontRandom, ::testing::Range(0, 20));

TEST(Schedule, CertifyDetectsViolations) {
  DependenceGraph G = figure2Graph();
  for (ScheduleKind Kind : {ScheduleKind::Levels, ScheduleKind::LBC}) {
    CompiledSchedule S = buildSchedule(G, config(Kind, 4, 1));
    ASSERT_TRUE(certifySchedule(G, S)) << scheduleKindName(Kind);
    // All nodes in one wave on separate threads: 0->2 violated.
    CompiledSchedule Bad = S;
    Bad.Waves = {{{0}, {1}, {2}, {3}}};
    EXPECT_FALSE(certifySchedule(G, Bad)) << scheduleKindName(Kind);
    // Missing node.
    CompiledSchedule Missing = S;
    Missing.Waves = {{{0, 1, 2}}};
    EXPECT_FALSE(certifySchedule(G, Missing)) << scheduleKindName(Kind);
    // Same-thread ordering of a same-wave edge is legal.
    CompiledSchedule SameThread = S;
    SameThread.Waves = {{{0, 2, 3}, {1}}};
    EXPECT_TRUE(certifySchedule(G, SameThread)) << scheduleKindName(Kind);
  }
}

//===- runtime_schedule_test.cpp - Compiled schedule tests -----------------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
// Covers the schedule shapes of DESIGN.md §14: every schedule kind
// certifies on arbitrary DAGs at every thread count, the coalescer only
// removes waves, vector runs partition chunks into consecutive edge-free
// blocks, the P2P lowering seeds exactly the graph's in-degrees, the
// executors' serial-or-parallel choice picks serial for narrow deep DAGs
// and parallel for wide shallow ones, and the compiled-schedule executors
// reproduce the serial kernels — bitwise for the pull-based kernels and
// on the serial branch, to 1e-9 for the atomic-update ones in parallel.
//
//===----------------------------------------------------------------------===//

#include "sds/runtime/Kernels.h"
#include "sds/runtime/Schedule.h"

#include "WideInputs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>

using namespace sds;
using namespace sds::rt;

namespace {

constexpr ScheduleKind kAllKinds[] = {ScheduleKind::Levels, ScheduleKind::LBC,
                                      ScheduleKind::Coalesced,
                                      ScheduleKind::P2P, ScheduleKind::Vector};

DependenceGraph randomDAG(int N, int EdgesPerNode, uint64_t Seed) {
  std::mt19937 Rng(static_cast<unsigned>(Seed));
  DependenceGraph G(N);
  std::uniform_int_distribution<int> NodeDist(0, N - 1);
  for (int E = 0; E < N * EdgesPerNode; ++E) {
    int A = NodeDist(Rng), B = NodeDist(Rng);
    if (A < B)
      G.addEdge(A, B);
  }
  G.finalize();
  return G;
}

ScheduleConfig config(ScheduleKind Kind, int Threads,
                      double MinWork = 8) {
  ScheduleConfig C;
  C.Kind = Kind;
  C.NumThreads = Threads;
  C.MinWorkPerThread = MinWork;
  return C;
}

CSRMatrix makeLower(int N, int Nnz, int Band, uint64_t Seed) {
  GeneratorConfig C;
  C.N = N;
  C.AvgNnzPerRow = Nnz;
  C.Bandwidth = Band;
  C.Seed = Seed;
  return lowerTriangle(generateSPDLike(C));
}

std::vector<double> randomVector(int N, uint64_t Seed) {
  std::mt19937_64 Rng(Seed);
  std::uniform_real_distribution<double> Dist(-1, 1);
  std::vector<double> V(static_cast<size_t>(N));
  for (double &X : V)
    X = Dist(Rng);
  return V;
}

double maxAbsDiff(const std::vector<double> &A, const std::vector<double> &B) {
  double M = 0;
  for (size_t I = 0; I < A.size(); ++I)
    M = std::max(M, std::abs(A[I] - B[I]));
  return M;
}

/// Bitwise equality, element by element (EXPECT_EQ on doubles conflates
/// +0.0/-0.0; the bit-identity contract is about the representation).
void expectBitIdentical(const std::vector<double> &A,
                        const std::vector<double> &B,
                        const std::string &Label) {
  ASSERT_EQ(A.size(), B.size()) << Label;
  for (size_t I = 0; I < A.size(); ++I)
    ASSERT_EQ(std::memcmp(&A[I], &B[I], sizeof(double)), 0)
        << Label << ": bit mismatch at " << I << " (" << A[I]
        << " vs " << B[I] << ")";
}

/// Gauss-Seidel dependence graph (same construction as the wavefront
/// executor tests): row I depends on every earlier column it reads.
DependenceGraph gaussSeidelGraph(const CSRMatrix &A) {
  DependenceGraph G(A.N);
  for (int I = 0; I < A.N; ++I)
    for (int K = A.RowPtr[I]; K < A.RowPtr[I + 1]; ++K) {
      int C = A.Col[static_cast<size_t>(K)];
      if (C < I)
        G.addEdge(C, I);
    }
  G.finalize();
  return G;
}

} // namespace

//===----------------------------------------------------------------------===//
// Config and kind plumbing
//===----------------------------------------------------------------------===//

TEST(ScheduleConfig, KindNamesRoundTrip) {
  for (ScheduleKind K : kAllKinds) {
    auto Parsed = parseScheduleKind(scheduleKindName(K));
    ASSERT_TRUE(Parsed.has_value()) << scheduleKindName(K);
    EXPECT_EQ(*Parsed, K);
  }
  EXPECT_FALSE(parseScheduleKind("nonsense").has_value());
  EXPECT_FALSE(parseScheduleKind("").has_value());
}

TEST(ScheduleConfig, KeySeparatesKindsAndKnobs) {
  std::vector<std::string> Keys;
  for (ScheduleKind K : kAllKinds)
    Keys.push_back(config(K, 8).key());
  std::sort(Keys.begin(), Keys.end());
  EXPECT_EQ(std::unique(Keys.begin(), Keys.end()), Keys.end())
      << "two kinds share a cache key";
  // Thread count and knobs are part of the key too: a 4-thread plan must
  // never serve an 8-thread executor.
  EXPECT_NE(config(ScheduleKind::P2P, 4).key(),
            config(ScheduleKind::P2P, 8).key());
  ScheduleConfig A = config(ScheduleKind::Vector, 8);
  ScheduleConfig B = A;
  B.MinVectorRun = 16;
  EXPECT_NE(A.key(), B.key());
  // Knobs that agree in their first six significant digits still differ.
  ScheduleConfig W = config(ScheduleKind::LBC, 8, 64);
  ScheduleConfig W2 = config(ScheduleKind::LBC, 8, 64.00001);
  EXPECT_NE(W.key(), W2.key());
  ScheduleConfig F = W;
  F.CoalesceFactor = 2.000001;
  EXPECT_NE(W.key(), F.key());
}

TEST(ScheduleConfig, DefaultKeyIsStable) {
  // Stores and artifacts persist keys: the default spelling never drifts.
  EXPECT_EQ(ScheduleConfig().key(), "lbc/w64/c2/v4/t8");
  EXPECT_EQ(config(ScheduleKind::P2P, 4, 256).key(), "p2p/w256/c2/v4/t4");
}

//===----------------------------------------------------------------------===//
// Certification over every kind x random graphs x thread counts
//===----------------------------------------------------------------------===//

class ScheduleRandom : public ::testing::TestWithParam<int> {};

TEST_P(ScheduleRandom, EveryKindCertifies) {
  DependenceGraph G =
      randomDAG(64 + GetParam() * 16, 3, static_cast<uint64_t>(GetParam()));
  for (ScheduleKind Kind : kAllKinds)
    for (int Threads : {1, 2, 4, 8}) {
      CompiledSchedule S = buildSchedule(G, config(Kind, Threads));
      std::string Label = std::string(scheduleKindName(Kind)) +
                          " threads=" + std::to_string(Threads);
      EXPECT_TRUE(certifySchedule(G, S)) << Label;
      EXPECT_EQ(describeSchedule(S).Base.TotalNodes,
                static_cast<uint64_t>(G.numNodes()))
          << Label;
      EXPECT_EQ(S.UsesP2P, Kind == ScheduleKind::P2P) << Label;
      EXPECT_EQ(S.HasRuns, Kind == ScheduleKind::Vector) << Label;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScheduleRandom, ::testing::Range(0, 10));

TEST(ScheduleCoalesce, OnlyRemovesWaves) {
  // Many short waves (parallel chains): coalescing must strictly help on
  // this shape, and can never produce more waves than its input.
  int N = 512;
  DependenceGraph G(N);
  for (int I = 0; I + 4 < N; I += 4)
    G.addEdge(I, I + 4); // four independent chains of length N/4
  G.finalize();
  for (int Threads : {1, 2, 4}) {
    CompiledSchedule Base = buildSchedule(G, config(ScheduleKind::LBC,
                                                    Threads));
    CompiledSchedule Co =
        buildSchedule(G, config(ScheduleKind::Coalesced, Threads));
    EXPECT_LE(Co.numWaves(), Base.numWaves()) << "threads=" << Threads;
    EXPECT_TRUE(certifySchedule(G, Co));
  }
  // At one thread balance is moot: the chain collapses to very few waves.
  CompiledSchedule One = buildSchedule(G, config(ScheduleKind::Coalesced, 1));
  EXPECT_LT(One.numWaves(),
            buildSchedule(G, config(ScheduleKind::Levels, 1)).numWaves() / 4);
}

TEST(ScheduleCoalesce, KeepsDominantComponentsBounded) {
  // A single chain serializes entirely if merged greedily; the balance
  // probe must cap the dominant component near MinWorkPerThread so other
  // threads keep getting work at larger thread counts.
  int N = 1024;
  DependenceGraph G(N);
  for (int I = 0; I + 1 < N; ++I)
    if (I % 2 == 0)
      G.addEdge(I, I + 1); // N/2 two-node chains: wide but shallow
  G.finalize();
  CompiledSchedule S = buildSchedule(G, config(ScheduleKind::Coalesced, 4));
  ASSERT_TRUE(certifySchedule(G, S));
  CompiledScheduleStats St = describeSchedule(S);
  // Wide-shallow graphs stay parallel after coalescing.
  EXPECT_GT(St.Base.achievedParallelism(), 1.5);
}

//===----------------------------------------------------------------------===//
// Vector runs
//===----------------------------------------------------------------------===//

TEST(VectorRuns, FullCoverageOnIndependentNodes) {
  DependenceGraph G(256);
  G.finalize(); // no edges: one wave, all runs maximal
  CompiledSchedule S = buildSchedule(G, config(ScheduleKind::Vector, 1));
  ASSERT_TRUE(certifySchedule(G, S));
  EXPECT_DOUBLE_EQ(describeSchedule(S).vectorCoverage(), 1.0);
}

TEST(VectorRuns, ChainsAdmitNoRuns) {
  // A full chain: consecutive ids always carry an edge, so no run may
  // grow past length 1 and coverage is zero.
  int N = 128;
  DependenceGraph G(N);
  for (int I = 0; I + 1 < N; ++I)
    G.addEdge(I, I + 1);
  G.finalize();
  CompiledSchedule S = buildSchedule(G, config(ScheduleKind::Vector, 1));
  ASSERT_TRUE(certifySchedule(G, S));
  CompiledScheduleStats St = describeSchedule(S);
  EXPECT_EQ(St.VectorRuns, 0u);
  EXPECT_DOUBLE_EQ(St.vectorCoverage(), 0.0);
}

TEST(VectorRuns, RunsPartitionEveryChunk) {
  DependenceGraph G = randomDAG(300, 2, 99);
  CompiledSchedule S = buildSchedule(G, config(ScheduleKind::Vector, 4));
  ASSERT_TRUE(S.HasRuns);
  ASSERT_EQ(S.Runs.size(), S.Waves.size());
  for (size_t W = 0; W < S.Waves.size(); ++W) {
    ASSERT_EQ(S.Runs[W].size(), S.Waves[W].size());
    for (size_t T = 0; T < S.Waves[W].size(); ++T) {
      const auto &Chunk = S.Waves[W][T];
      size_t Covered = 0;
      int NextPos = 0;
      for (const VectorRun &R : S.Runs[W][T]) {
        EXPECT_EQ(R.Pos, NextPos) << "runs leave a gap";
        EXPECT_GE(R.Len, 1);
        // Consecutive ids within the run.
        for (int I = 1; I < R.Len; ++I)
          EXPECT_EQ(Chunk[static_cast<size_t>(R.Pos + I)],
                    Chunk[static_cast<size_t>(R.Pos + I - 1)] + 1);
        NextPos = R.Pos + R.Len;
        Covered += static_cast<size_t>(R.Len);
      }
      EXPECT_EQ(Covered, Chunk.size()) << "wave " << W << " chunk " << T;
    }
  }
}

//===----------------------------------------------------------------------===//
// P2P lowering
//===----------------------------------------------------------------------===//

TEST(P2PLowering, SeedsExactInDegreesAndSuccessors) {
  DependenceGraph G = randomDAG(200, 3, 7);
  CompiledSchedule S = buildSchedule(G, config(ScheduleKind::P2P, 4));
  ASSERT_TRUE(S.UsesP2P);
  ASSERT_EQ(S.InDegree.size(), static_cast<size_t>(G.numNodes()));
  std::vector<int> Expect(static_cast<size_t>(G.numNodes()), 0);
  for (int U = 0; U < G.numNodes(); ++U)
    for (int V : G.successors(U))
      ++Expect[static_cast<size_t>(V)];
  EXPECT_EQ(S.InDegree, Expect);
  ASSERT_EQ(S.SuccPtr.size(), static_cast<size_t>(G.numNodes()) + 1);
  for (int U = 0; U < G.numNodes(); ++U) {
    auto Succ = G.successors(U);
    ASSERT_EQ(S.SuccPtr[static_cast<size_t>(U) + 1] -
                  S.SuccPtr[static_cast<size_t>(U)],
              Succ.size());
    EXPECT_TRUE(std::equal(Succ.begin(), Succ.end(),
                           S.SuccDst.begin() +
                               static_cast<long>(
                                   S.SuccPtr[static_cast<size_t>(U)])));
  }
}

TEST(Certify, DetectsCorruptedSchedules) {
  DependenceGraph G = randomDAG(100, 3, 21);
  // Corrupt the P2P seed: certification must notice.
  CompiledSchedule P = buildSchedule(G, config(ScheduleKind::P2P, 4));
  ASSERT_TRUE(certifySchedule(G, P));
  ++P.InDegree[0];
  EXPECT_FALSE(certifySchedule(G, P));

  // Corrupt a vector run so it spans a dependence edge.
  DependenceGraph Chain(8);
  Chain.addEdge(2, 3);
  Chain.finalize();
  CompiledSchedule V = buildSchedule(Chain, config(ScheduleKind::Vector, 1));
  ASSERT_TRUE(certifySchedule(Chain, V));
  ASSERT_FALSE(V.Runs.empty());
  V.Runs[0][0] = {{0, static_cast<int>(V.Waves[0][0].size())}};
  EXPECT_FALSE(certifySchedule(Chain, V));

  // Reverse the waves: dependences now point backwards.
  CompiledSchedule W = buildSchedule(G, config(ScheduleKind::Coalesced, 2));
  ASSERT_TRUE(certifySchedule(G, W));
  if (W.Waves.size() > 1) {
    std::reverse(W.Waves.begin(), W.Waves.end());
    EXPECT_FALSE(certifySchedule(G, W));
  }
}

//===----------------------------------------------------------------------===//
// Compiled-schedule executors vs serial kernels
//===----------------------------------------------------------------------===//

class ScheduledExec : public ::testing::TestWithParam<int> {};

TEST_P(ScheduledExec, AllKindsMatchSerial) {
  uint64_t Seed = static_cast<uint64_t>(GetParam());
  // Banded inputs: deep DAGs of a few nodes per wave, which every executor
  // runs serially. Layered inputs (WideInputs.h): eight waves of 1,024
  // nodes, which a team of two or more threads runs in parallel.
  for (bool Wide : {false, true}) {
    CSRMatrix A =
        Wide ? test::wideInput(Seed) : generateSPDLike({300, 7, 24, Seed + 1});
    CSRMatrix L = Wide ? lowerTriangle(A) : makeLower(350, 8, 28, Seed);
    CSCMatrix LC = toCSC(L);
    std::vector<double> B = randomVector(L.N, Seed + 2);
    std::vector<double> BG = randomVector(A.N, Seed + 3);

    std::vector<double> XSer, XCSer, GSer(static_cast<size_t>(A.N), 0.0);
    forwardSolveCSRSerial(L, B, XSer);
    forwardSolveCSCSerial(LC, B, XCSer);
    gaussSeidelCSRSerial(A, BG, GSer);
    CSCMatrix CholSer = LC, IC0Ser = LC;
    leftCholeskyCSCSerial(CholSer);
    incompleteCholeskyCSCSerial(IC0Ser);

    DependenceGraph GF = exactForwardSolveGraph(LC);
    DependenceGraph GG = gaussSeidelGraph(A);
    DependenceGraph GC = exactCholeskyGraph(LC);

    for (ScheduleKind Kind : kAllKinds)
      for (int Threads : {1, 2, 4, 8}) {
        std::string Label = std::string(Wide ? "wide " : "banded ") +
                            scheduleKindName(Kind) +
                            " threads=" + std::to_string(Threads) +
                            " seed=" + std::to_string(Seed);
        CompiledSchedule SF = buildSchedule(GF, config(Kind, Threads));
        CompiledSchedule SG = buildSchedule(GG, config(Kind, Threads));
        CompiledSchedule SC = buildSchedule(GC, config(Kind, Threads));
        ASSERT_TRUE(certifySchedule(GF, SF)) << Label;
        ASSERT_TRUE(certifySchedule(GG, SG)) << Label;
        ASSERT_TRUE(certifySchedule(GC, SC)) << Label;

        // Each executor's serial-or-parallel choice: serial on every
        // banded input and on one-thread schedules, parallel otherwise.
        auto ExpectChoice = [&](const CompiledSchedule &S,
                                const ExecEstimate &E, const char *Kernel) {
          if (!Wide || Threads == 1)
            EXPECT_TRUE(E.serial()) << Kernel << " " << Label;
          else
            test::expectParallelRun(S, E, Kernel + (" " + Label));
        };

        // Pull-based kernels: each value is produced by exactly one node in
        // the serial accumulation order — bitwise identical under any
        // schedule shape and thread count.
        std::vector<double> X;
        ExpectChoice(SF, forwardSolveCSRScheduled(L, B, X, SF), "fs_csr");
        expectBitIdentical(XSer, X, "fs_csr " + Label);

        std::vector<double> XG(static_cast<size_t>(A.N), 0.0);
        ExpectChoice(SG, gaussSeidelCSRScheduled(A, BG, XG, SG), "gs_csr");
        expectBitIdentical(GSer, XG, "gs_csr " + Label);

        CSCMatrix Chol = LC;
        ExpectChoice(SC, leftCholeskyCSCScheduled(Chol, SC), "lchol_csc");
        expectBitIdentical(CholSer.Val, Chol.Val, "lchol_csc " + Label);

        // Push-based kernels use commutative atomic updates in parallel:
        // order-sensitive in the last ulp, so tolerance-checked there. The
        // serial branch runs the oracle's order with plain stores.
        std::vector<double> XC;
        ExecEstimate E = forwardSolveCSCScheduled(LC, B, XC, SF);
        ExpectChoice(SF, E, "fs_csc");
        if (E.serial())
          expectBitIdentical(XCSer, XC, "fs_csc " + Label);
        else
          EXPECT_LT(maxAbsDiff(XCSer, XC), 1e-9) << "fs_csc " << Label;

        CSCMatrix IC0 = LC;
        E = incompleteCholeskyCSCScheduled(IC0, SC);
        ExpectChoice(SC, E, "ic0_csc");
        if (E.serial())
          expectBitIdentical(IC0Ser.Val, IC0.Val, "ic0_csc " + Label);
        else
          EXPECT_LT(maxAbsDiff(IC0Ser.Val, IC0.Val), 1e-9)
              << "ic0_csc " << Label;
      }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScheduledExec, ::testing::Range(200, 203));

//===----------------------------------------------------------------------===//
// The serial-or-parallel choice
//===----------------------------------------------------------------------===//

// The rule with fixed machine constants (1 ns per work unit, 1 us per
// wave), so these checks do not depend on the machine or its load.
constexpr double kUnitNs = 1.0, kWaveNs = 1000.0;

TEST(PreferSerial, OneWideScheduleRunsSerially) {
  DependenceGraph G = randomDAG(200, 2, 7);
  CompiledSchedule S = buildSchedule(G, config(ScheduleKind::LBC, 1));
  EXPECT_EQ(S.Nodes, 200u);
  ExecEstimate E = estimateExec(S, 1e12, 1, kUnitNs, kWaveNs);
  EXPECT_TRUE(E.serial());
  EXPECT_EQ(E.ParallelNs, E.SerialNs);
  // This process's constants: a one-chunk schedule gets a one-thread team.
  E = estimateExec(S, 1e12);
  EXPECT_EQ(E.Team, 1);
  EXPECT_TRUE(E.serial());
  EXPECT_TRUE(preferSerial(S, 1e12));
}

TEST(PreferSerial, TwoWideWavesWithLargeWorkRunInParallel) {
  // 64 independent nodes, each with one successor: two waves of 64.
  DependenceGraph G(128);
  for (int I = 0; I < 64; ++I)
    G.addEdge(I, 64 + I);
  G.finalize();
  CompiledSchedule S = buildSchedule(G, config(ScheduleKind::Levels, 4));
  ASSERT_EQ(S.numWaves(), 2);
  EXPECT_EQ(S.Nodes, 128u);
  EXPECT_EQ(S.CritNodes, 32u);
  // Work 1e6: 1 ms serially; 0.25 ms of critical path + 2 us in parallel.
  ExecEstimate E = estimateExec(S, 1e6, 4, kUnitNs, kWaveNs);
  EXPECT_DOUBLE_EQ(E.SerialNs, 1e6);
  EXPECT_DOUBLE_EQ(E.ParallelNs, 0.25e6 + 2 * kWaveNs);
  EXPECT_FALSE(E.serial());
  // Break-even where Work * c * (1 - 1/4) = 2 waves * b: Work 2,667.
  EXPECT_TRUE(estimateExec(S, 2600, 4, kUnitNs, kWaveNs).serial());
  EXPECT_FALSE(estimateExec(S, 2700, 4, kUnitNs, kWaveNs).serial());
#ifdef _OPENMP
  EXPECT_EQ(estimateExec(S, 1e6).Team, 4);
#else
  EXPECT_TRUE(preferSerial(S, 1e12)); // the team is one thread
#endif
}

TEST(PreferSerial, ChainRunsSerially) {
  // Every wave holds one node, so the critical path is all the work and no
  // amount of it pays for a barrier.
  DependenceGraph G(64);
  for (int I = 0; I + 1 < 64; ++I)
    G.addEdge(I, I + 1);
  G.finalize();
  for (ScheduleKind Kind : kAllKinds) {
    CompiledSchedule S = buildSchedule(G, config(Kind, 4));
    EXPECT_EQ(S.CritNodes, S.Nodes) << scheduleKindName(Kind);
    EXPECT_TRUE(estimateExec(S, 1e12, 4, kUnitNs, kWaveNs).serial())
        << scheduleKindName(Kind);
    EXPECT_TRUE(preferSerial(S, 1e12)) << scheduleKindName(Kind);
  }
}

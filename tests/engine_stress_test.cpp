//===- engine_stress_test.cpp - Concurrent engine cache contract -----------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
// The engine's caches under thread pressure (runs in CI under TSan): warm
// hits, racing cold fills, and LRU eviction may interleave arbitrarily,
// yet the accounting must stay exact where determinism allows (single
// fill per distinct key, every post-fill hit counted warm, live entries
// never above capacity) and every plan handed out for one key must be the
// same shared object — or, across an eviction, bit-identical content.
//
//===----------------------------------------------------------------------===//

#include "sds/engine/Engine.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

using namespace sds;
using namespace sds::rt;

namespace {

codegen::UFEnvironment lowerCSC(int N, uint64_t Seed) {
  GeneratorConfig C;
  C.N = N;
  C.AvgNnzPerRow = 5;
  C.Bandwidth = 12;
  C.Seed = Seed;
  return driver::bindCSC(toCSC(lowerTriangle(generateSPDLike(C))));
}

int envN(const codegen::UFEnvironment &Env) {
  return static_cast<int>(Env.Params.at("n"));
}

} // namespace

TEST(EngineStress, WarmHitsAndColdFillsAccountExactly) {
  constexpr int NumThreads = 8, NumEnvs = 4, Reps = 5;
  engine::Engine E;
  kernels::Kernel K = kernels::forwardSolveCSC();
  std::vector<codegen::UFEnvironment> Envs;
  for (uint64_t S = 1; S <= NumEnvs; ++S)
    Envs.push_back(lowerCSC(90, S));

  // Phase 1, serial: one cold fill per distinct key, exactly.
  std::vector<std::shared_ptr<const engine::MatrixPlan>> Ref;
  for (const codegen::UFEnvironment &Env : Envs)
    Ref.push_back(E.plan(K, Env, envN(Env)));
  engine::EngineStats S0 = E.stats();
  ASSERT_EQ(S0.KernelCold, 1u);
  ASSERT_EQ(S0.KernelWarm, uint64_t(NumEnvs) - 1); // plan() re-probes
  ASSERT_EQ(S0.MatrixCold, static_cast<uint64_t>(NumEnvs));
  ASSERT_EQ(S0.MatrixWarm, 0u);
  ASSERT_EQ(S0.MatrixEvicted, 0u);

  // Phase 2, concurrent: every plan() is a warm hit on both tiers and
  // returns the phase-1 object. Pointer mismatches are collected, not
  // asserted, inside the workers (gtest failures are not thread-safe).
  std::vector<int> Mismatches(NumThreads, 0);
  std::vector<std::thread> Pool;
  for (int T = 0; T < NumThreads; ++T)
    Pool.emplace_back([&, T] {
      for (int R = 0; R < Reps; ++R)
        for (int I = 0; I < NumEnvs; ++I) {
          int J = (I + T) % NumEnvs; // different walk order per thread
          auto P = E.plan(K, Envs[J], envN(Envs[J]));
          if (P.get() != Ref[J].get())
            ++Mismatches[T];
        }
    });
  for (std::thread &Th : Pool)
    Th.join();
  for (int T = 0; T < NumThreads; ++T)
    EXPECT_EQ(Mismatches[T], 0) << "thread " << T;

  engine::EngineStats S1 = E.stats();
  constexpr uint64_t Calls = uint64_t(NumThreads) * NumEnvs * Reps;
  EXPECT_EQ(S1.KernelCold, 1u); // never re-analyzed
  EXPECT_EQ(S1.KernelWarm, Calls + NumEnvs - 1); // every plan() probes it
  EXPECT_EQ(S1.MatrixCold, uint64_t(NumEnvs));
  EXPECT_EQ(S1.MatrixWarm, Calls); // every concurrent call hit warm
  EXPECT_EQ(S1.MatrixEvicted, 0u);
}

TEST(EngineStress, RacingColdFillsConvergeOnOneEntry) {
  // All threads start cold on the same keys; whoever loses the per-key
  // insert race must adopt the winner's entry, so exactly NumEnvs cold
  // fills are counted and every caller holds the same object per key.
  constexpr int NumThreads = 8, NumEnvs = 3;
  engine::Engine E;
  kernels::Kernel K = kernels::forwardSolveCSC();
  std::vector<codegen::UFEnvironment> Envs;
  for (uint64_t S = 11; S < 11 + NumEnvs; ++S)
    Envs.push_back(lowerCSC(90, S));

  std::vector<std::vector<std::shared_ptr<const engine::MatrixPlan>>> Got(
      NumThreads, std::vector<std::shared_ptr<const engine::MatrixPlan>>(
                      NumEnvs));
  std::vector<std::thread> Pool;
  for (int T = 0; T < NumThreads; ++T)
    Pool.emplace_back([&, T] {
      for (int I = 0; I < NumEnvs; ++I) {
        int J = (I + T) % NumEnvs;
        Got[T][J] = E.plan(K, Envs[J], envN(Envs[J]));
      }
    });
  for (std::thread &Th : Pool)
    Th.join();

  for (int J = 0; J < NumEnvs; ++J)
    for (int T = 1; T < NumThreads; ++T)
      EXPECT_EQ(Got[T][J].get(), Got[0][J].get())
          << "thread " << T << " env " << J;

  engine::EngineStats S = E.stats();
  EXPECT_EQ(S.KernelCold, 1u); // racing kernel fills also converge
  EXPECT_EQ(S.MatrixCold, uint64_t(NumEnvs));
  // Race losers are counted neither warm nor cold; the books still bound.
  EXPECT_LE(S.MatrixWarm + S.MatrixCold, uint64_t(NumThreads) * NumEnvs);
}

TEST(EngineStress, ConcurrentEvictionBoundsLiveEntriesAndStaysIdentical) {
  constexpr int NumThreads = 8, NumEnvs = 6, Reps = 4;
  constexpr size_t Capacity = 2;
  engine::EngineOptions Opts;
  Opts.MaxMatrixPlans = Capacity;
  engine::Engine E(Opts);
  kernels::Kernel K = kernels::forwardSolveCSC();
  std::vector<codegen::UFEnvironment> Envs;
  for (uint64_t S = 21; S < 21 + NumEnvs; ++S)
    Envs.push_back(lowerCSC(80, S));

  // Serial reference plans from an identically configured engine: the
  // thrashing engine must reproduce these bit-identically even when the
  // key was evicted and refilled mid-run.
  engine::Engine RefEngine;
  std::vector<std::shared_ptr<const engine::MatrixPlan>> Ref;
  for (const codegen::UFEnvironment &Env : Envs)
    Ref.push_back(RefEngine.plan(K, Env, envN(Env)));

  std::vector<int> ContentMismatches(NumThreads, 0);
  std::vector<std::thread> Pool;
  for (int T = 0; T < NumThreads; ++T)
    Pool.emplace_back([&, T] {
      for (int R = 0; R < Reps; ++R)
        for (int I = 0; I < NumEnvs; ++I) {
          int J = (I + T + R) % NumEnvs;
          auto P = E.plan(K, Envs[J], envN(Envs[J]));
          if (P->Inspection.Graph.numEdges() !=
                  Ref[J]->Inspection.Graph.numEdges() ||
              P->Schedule.Waves != Ref[J]->Schedule.Waves)
            ++ContentMismatches[T];
        }
    });
  for (std::thread &Th : Pool)
    Th.join();
  for (int T = 0; T < NumThreads; ++T)
    EXPECT_EQ(ContentMismatches[T], 0) << "thread " << T;

  engine::EngineStats S = E.stats();
  // Inserts minus evictions is the live-entry count, and the capacity
  // check runs under the same lock as the insert — so the cache can never
  // have drifted above its bound.
  EXPECT_LE(S.MatrixCold - S.MatrixEvicted, uint64_t(Capacity));
  EXPECT_GE(S.MatrixCold, uint64_t(NumEnvs)); // each key filled at least once
  EXPECT_GE(S.MatrixEvicted, uint64_t(NumEnvs) - Capacity);
}

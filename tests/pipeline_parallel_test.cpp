//===- pipeline_parallel_test.cpp - Parallel analysis determinism ----------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
// The contract behind deps::PipelineOptions::NumThreads: for every kernel
// of the Table-2 suite and any thread count, the task-parallel analysis
// fan-out must produce an AnalysisResult *identical* to the serial run —
// same per-dependence verdicts, discovered equalities, inspector costs,
// subsumption edges, provenance, and generated inspector code. Timing
// fields (StageSeconds, Prov.Seconds) are the only permitted difference.
// Run under -DSDS_SANITIZE=thread to race the fan-out itself.
//
// The factorization kernels (IC0, ILU0) take minutes at full budget, so
// they run with tightened instantiation budgets; determinism must hold at
// any budget, so this loses no coverage.
//
//===----------------------------------------------------------------------===//

#include "sds/deps/Pipeline.h"

#include <gtest/gtest.h>

#include <string>

using namespace sds;
using namespace sds::deps;

namespace {

void expectThreadCountInvariant(const kernels::Kernel &K,
                                PipelineOptions Opts) {
  Opts.NumThreads = 1;
  PipelineResult Serial = analyzeKernel(K, Opts);
  std::string Want = Serial.fingerprint();
  for (int NT : {2, 3, 8}) {
    Opts.NumThreads = NT;
    PipelineResult R = analyzeKernel(K, Opts);
    EXPECT_EQ(Want, R.fingerprint())
        << K.Name << " diverged at NumThreads=" << NT;
    // The per-stage timing map must cover the same stages (values are
    // wall time and may differ).
    ASSERT_EQ(Serial.StageSeconds.size(), R.StageSeconds.size());
    auto A = Serial.StageSeconds.begin();
    for (const auto &[Stage, Seconds] : R.StageSeconds) {
      (void)Seconds;
      EXPECT_EQ(A->first, Stage);
      ++A;
    }
  }
}

/// Tight budgets for the minutes-long factorization analyses; the
/// determinism contract is budget-independent.
PipelineOptions reducedOptions() {
  PipelineOptions Opts;
  Opts.UseEqualities = false;
  Opts.Simp.SemanticPhase1 = false;
  Opts.Simp.InstantiationRounds = 1;
  Opts.Simp.MaxInstances = 2000;
  Opts.Simp.MaxPhase2Instances = 2;
  Opts.Simp.MaxPieces = 16;
  return Opts;
}

} // namespace

TEST(PipelineParallel, SpMV) {
  expectThreadCountInvariant(kernels::spmvCSR(), {});
}

TEST(PipelineParallel, ForwardSolveCSR) {
  expectThreadCountInvariant(kernels::forwardSolveCSR(), {});
}

TEST(PipelineParallel, ForwardSolveCSC) {
  expectThreadCountInvariant(kernels::forwardSolveCSC(), {});
}

TEST(PipelineParallel, GaussSeidelCSR) {
  expectThreadCountInvariant(kernels::gaussSeidelCSR(), {});
}

TEST(PipelineParallel, LeftCholeskyCSC) {
  expectThreadCountInvariant(kernels::leftCholeskyCSC(), {});
}

TEST(PipelineParallel, IncompleteCholeskyReducedBudget) {
  expectThreadCountInvariant(kernels::incompleteCholeskyCSC(),
                             reducedOptions());
}

TEST(PipelineParallel, IncompleteLU0ReducedBudget) {
  expectThreadCountInvariant(kernels::incompleteLU0CSR(), reducedOptions());
}

TEST(PipelineParallel, ApproximationPathInvariant) {
  // The §8.1 escape hatch rewrites surviving plans after the parallel
  // region; make sure it composes with the fan-out deterministically.
  PipelineOptions Opts;
  Opts.ApproximateExpensive = true;
  expectThreadCountInvariant(kernels::gaussSeidelCSR(), Opts);
}

TEST(PipelineParallel, MoreThreadsThanDependences) {
  PipelineOptions Opts;
  Opts.NumThreads = 64; // clamps to the dependence count internally
  PipelineResult R = analyzeKernel(kernels::spmvCSR(), Opts);
  Opts.NumThreads = 1;
  EXPECT_EQ(analyzeKernel(kernels::spmvCSR(), Opts).fingerprint(),
            R.fingerprint());
}

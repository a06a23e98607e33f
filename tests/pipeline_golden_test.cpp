//===- pipeline_golden_test.cpp - Pinned analysis verdicts -----------------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
// The fast-tier kernels' analysis results, pinned against fixed reference
// fingerprints in tests/golden/fingerprint/. pipeline_parallel_test only
// compares thread counts against each other; this suite compares against
// a stored reference, so a change that makes the solver cheaper (fewer
// solves, pivots or branch-and-bound nodes) can be checked to leave every
// verdict, cost, discovered equality, covering edge, provenance record,
// unsat core and generated inspector exactly as it was.
//
// A deliberate change of analysis output regenerates the reference from
// PipelineResult::fingerprint() and says why in the change description.
//
//===----------------------------------------------------------------------===//

#include "sds/deps/Pipeline.h"
#include "sds/kernels/Kernels.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

using namespace sds;
using namespace sds::deps;

namespace {

std::string readGolden(const std::string &Key) {
  std::ifstream In(std::string(SDS_GOLDEN_DIR) + "/fingerprint/" + Key +
                   ".txt");
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

void expectMatchesGolden(const std::string &Key, const kernels::Kernel &K) {
  std::string Want = readGolden(Key);
  ASSERT_FALSE(Want.empty()) << "missing golden for " << Key;
  EXPECT_EQ(Want, analyzeKernel(K).fingerprint()) << K.Name;
}

} // namespace

TEST(PipelineGolden, ForwardSolveCSR) {
  expectMatchesGolden("fs_csr", kernels::forwardSolveCSR());
}

TEST(PipelineGolden, ForwardSolveCSC) {
  expectMatchesGolden("fs_csc", kernels::forwardSolveCSC());
}

TEST(PipelineGolden, GaussSeidelCSR) {
  expectMatchesGolden("gs_csr", kernels::gaussSeidelCSR());
}

TEST(PipelineGolden, SpMVCSR) {
  expectMatchesGolden("spmv_csr", kernels::spmvCSR());
}

TEST(PipelineGolden, LeftCholeskyCSC) {
  expectMatchesGolden("lchol_csc", kernels::leftCholeskyCSC());
}

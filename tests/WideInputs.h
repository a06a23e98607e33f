//===- WideInputs.h - Inputs that run the executors in parallel -*- C++ -*-===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//
//
// The executors run a schedule in parallel only when its waves carry more
// work than their barriers cost (DESIGN.md §14), so the banded test
// matrices (deep DAGs of a few nodes per wave) take the serial branch.
// The layered matrix here has a few waves of a thousand nodes each and
// takes the parallel one. expectParallelRun checks that it did.
//
//===----------------------------------------------------------------------===//

#ifndef SDS_TESTS_WIDEINPUTS_H
#define SDS_TESTS_WIDEINPUTS_H

#include "sds/runtime/Kernels.h"
#include "sds/support/OMP.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace sds::test {

/// A full symmetric matrix of `Layers * Width` rows in which each row of
/// layer l >= 1 holds `D` entries in distinct random columns of layer
/// l - 1 (and their mirror images), plus a dominant diagonal. Every
/// kernel's dependence DAG then has exactly `Layers` levels of `Width`
/// nodes, each level wired densely to the one before it.
inline rt::CSRMatrix layeredMatrix(int Layers, int Width, int D,
                                   uint64_t Seed) {
  std::mt19937_64 Rng(Seed);
  std::uniform_int_distribution<int> Pick(0, Width - 1);
  std::uniform_real_distribution<double> Val(-1, 1);
  int N = Layers * Width;
  std::vector<std::vector<std::pair<int, double>>> Rows(
      static_cast<size_t>(N));
  for (int R = Width; R < N; ++R) {
    int Base = (R / Width - 1) * Width;
    std::vector<int> Cols;
    while (static_cast<int>(Cols.size()) < D) {
      int C = Base + Pick(Rng);
      if (std::find(Cols.begin(), Cols.end(), C) == Cols.end())
        Cols.push_back(C);
    }
    for (int C : Cols) {
      double V = Val(Rng);
      Rows[static_cast<size_t>(R)].push_back({C, V});
      Rows[static_cast<size_t>(C)].push_back({R, V});
    }
  }
  rt::CSRMatrix A;
  A.N = N;
  A.RowPtr.push_back(0);
  for (int R = 0; R < N; ++R) {
    auto &Row = Rows[static_cast<size_t>(R)];
    double Diag = 1;
    for (const auto &E : Row)
      Diag += std::abs(E.second);
    Row.push_back({R, Diag});
    std::sort(Row.begin(), Row.end());
    for (const auto &[C, V] : Row) {
      A.Col.push_back(C);
      A.Val.push_back(V);
    }
    A.RowPtr.push_back(static_cast<int>(A.Col.size()));
  }
  return A;
}

/// The default layered input: 8 levels of 1,024 nodes, 16 entries per
/// row into the level before.
inline rt::CSRMatrix wideInput(uint64_t Seed) {
  return layeredMatrix(8, 1024, 16, Seed);
}

/// Checks that a run of schedule `S` whose executor returned `E` was a
/// parallel one, for a schedule at least two chunks wide:
///  (1) independent of the machine, the input pays for its barriers: at
///      1 ns per work unit the parallel shape stays the cheaper one even
///      at 4 us per wave, several times an idle machine's barrier cost;
///  (2) on this machine, when the team fits the processors and the
///      barrier calibrated at 2 us per wave or less, the executor ran in
///      parallel. A costlier calibration means other processes held the
///      cores while it was taken (e.g. under `ctest -j`); such a run is
///      logged and its branch left unchecked.
inline void expectParallelRun(const rt::CompiledSchedule &S,
                              const rt::ExecEstimate &E,
                              const std::string &Label) {
  int Width = S.Waves.empty() ? 1 : static_cast<int>(S.Waves[0].size());
  ASSERT_GE(Width, 2) << Label;
  EXPECT_FALSE(rt::estimateExec(S, E.Work, Width, 1.0, 4000).serial())
      << "input too narrow to pay for its barriers: " << Label;
  if (E.Team < 2 || E.Team > omp_get_num_procs())
    return;
  if (E.WaveNs <= 2000) {
    EXPECT_FALSE(E.serial())
        << Label << ": ran serially (predicted serial " << E.SerialNs
        << " ns, parallel " << E.ParallelNs << " ns; c " << E.UnitNs
        << " ns, b " << E.WaveNs << " ns)";
  } else {
    std::printf("[   NOTE   ] %s: barrier calibrated at %.1f us per wave "
                "(cores busy); branch not checked\n",
                Label.c_str(), E.WaveNs / 1e3);
  }
}

} // namespace sds::test

#endif // SDS_TESTS_WIDEINPUTS_H

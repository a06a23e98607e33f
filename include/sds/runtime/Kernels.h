//===- Kernels.h - Numeric kernels: serial and scheduled --------*- C++ -*-===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//
//
// Runnable counterparts of the Table-2 kernels: a serial reference
// implementation (the baseline of Table 5 / Figure 9) and one parallel
// executor per kernel that runs a CompiledSchedule (Schedule.h) with
// OpenMP threads. Each executor is the kernel's per-iteration body handed
// to one schedule runner, so it performs exactly the work of the serial
// loop; reduction updates that may race within a wave use atomic updates
// (the dependence model in kernels/ excludes update-update ordering for
// this reason).
//
//===----------------------------------------------------------------------===//

#ifndef SDS_RUNTIME_KERNELS_H
#define SDS_RUNTIME_KERNELS_H

#include "sds/runtime/Matrix.h"
#include "sds/runtime/Schedule.h"

#include <vector>

namespace sds {
namespace rt {

//===----------------------------------------------------------------------===//
// Serial references
//===----------------------------------------------------------------------===//

/// x := L^-1 b for lower-triangular CSR L (diagonal = last entry per row).
void forwardSolveCSRSerial(const CSRMatrix &L, const std::vector<double> &B,
                           std::vector<double> &X);

/// x := L^-1 b for lower-triangular CSC L (diagonal = first entry per col).
void forwardSolveCSCSerial(const CSCMatrix &L, const std::vector<double> &B,
                           std::vector<double> &X);

/// One Gauss-Seidel sweep on a general CSR matrix: x updated in place.
void gaussSeidelCSRSerial(const CSRMatrix &A, const std::vector<double> &B,
                          std::vector<double> &X);

/// y := A x.
void spmvCSRSerial(const CSRMatrix &A, const std::vector<double> &X,
                   std::vector<double> &Y);

/// In-place incomplete Cholesky (IC0) on the lower-triangular CSC pattern
/// (Figure 4's algorithm). Values of L overwrite `L.Val`.
void incompleteCholeskyCSCSerial(CSCMatrix &L);

/// In-place ILU0 on a general CSR matrix with full diagonal.
void incompleteLU0CSRSerial(CSRMatrix &A);

/// Left-looking Cholesky restricted to the static pattern of L (no fill):
/// numerically identical to IC0 but organized column-by-column with a
/// dense gather buffer, like Sympiler's static kernel.
void leftCholeskyCSCSerial(CSCMatrix &L);

//===----------------------------------------------------------------------===//
// Serial-or-parallel choice
//===----------------------------------------------------------------------===//

/// Predicted times of one executor run (DESIGN.md §14). Serially, Work
/// units at UnitNs (c) each. In parallel, the critical path's share of
/// that work (CritNodes / Nodes) plus WaveNs (b) per wave.
struct ExecEstimate {
  int Team = 1;          ///< OpenMP team width of a parallel run
  double Work = 0;       ///< the kernel's total work, in multiply-adds
  double UnitNs = 0;     ///< c: ns per work unit
  double WaveNs = 0;     ///< b(Team): ns per wave; 0 when Team is 1
  double SerialNs = 0;
  double ParallelNs = 0; ///< equals SerialNs when Team is 1
  bool serial() const { return SerialNs <= ParallelNs; }
};

/// The rule itself, with the machine's constants given: serial when
/// Team is 1 or Work * UnitNs * (1 - CritNodes / Nodes) <=
/// Waves * WaveNs.
ExecEstimate estimateExec(const CompiledSchedule &S, double Work, int Team,
                          double UnitNs, double WaveNs);

/// The rule with this process's constants. Team is S's chunk width,
/// capped by the OpenMP thread limit (one thread without OpenMP or inside
/// a region that cannot nest). c comes from a fixed synthetic serial
/// forward solve and b(Team) from the barrier runner with an empty body
/// over a fixed synthetic schedule; both are measured once per process
/// (b lazily per team width, and again later if the first sample was
/// taken while other processes held the cores).
ExecEstimate estimateExec(const CompiledSchedule &S, double Work);

/// estimateExec(S, Work).serial(): running S's nodes serially is
/// predicted no slower than its parallel shape.
bool preferSerial(const CompiledSchedule &S, double Work);

//===----------------------------------------------------------------------===//
// Schedule executors
//===----------------------------------------------------------------------===//
//
// Run a CompiledSchedule of any kind, node by node: barrier kinds
// (levels/lbc/coalesced/vector) synchronize between waves, a P2P schedule
// runs barrier-free on atomic remaining-predecessor counters. Each run
// first estimates (above) whether the parallel shape can pay for its
// synchronization, from the kernel's total work read off the matrix: nnz
// for the forward solves and Gauss-Seidel, sum C^2 for IC0 and
// sum C(1+U) for left Cholesky (C a column's entries, U the earlier
// columns that update it). When it cannot, the executor runs nodes
// 0..N-1 in ascending order on the calling thread with plain stores and
// opens no OpenMP region. Each returns the estimate its choice came from.
// All five produce the same results as their serial reference
// (bit-identical for the pull-based kernels and on the serial branch;
// last-ulp for the two that use commutative atomic updates in parallel —
// DESIGN.md §14).

ExecEstimate forwardSolveCSRScheduled(const CSRMatrix &L,
                                      const std::vector<double> &B,
                                      std::vector<double> &X,
                                      const CompiledSchedule &S);
ExecEstimate forwardSolveCSCScheduled(const CSCMatrix &L,
                                      const std::vector<double> &B,
                                      std::vector<double> &X,
                                      const CompiledSchedule &S);
ExecEstimate gaussSeidelCSRScheduled(const CSRMatrix &A,
                                     const std::vector<double> &B,
                                     std::vector<double> &X,
                                     const CompiledSchedule &S);
ExecEstimate incompleteCholeskyCSCScheduled(CSCMatrix &L,
                                            const CompiledSchedule &S);
ExecEstimate leftCholeskyCSCScheduled(CSCMatrix &L, const CompiledSchedule &S);

//===----------------------------------------------------------------------===//
// Static structures
//===----------------------------------------------------------------------===//

/// Row-pattern index of a CSC lower factor ("prune sets"): for each row r,
/// the earlier columns k whose pattern contains r, and the position of r
/// inside column k. This is the pruneptr/pruneset structure the left-
/// looking Cholesky kernel and its inspectors consume.
struct PruneSets {
  std::vector<int> Ptr;   ///< size N+1
  std::vector<int> ColOf; ///< column k per entry
  std::vector<int> PosOf; ///< position of row r within column k
};

PruneSets buildPruneSets(const CSCMatrix &L);

//===----------------------------------------------------------------------===//
// Reference dependence graphs (for validating generated inspectors)
//===----------------------------------------------------------------------===//

/// Exact outer-iteration dependence graph of forward solve on L, computed
/// by brute force from the actual read/write sets (ground truth for
/// property tests).
DependenceGraph exactForwardSolveGraph(const CSCMatrix &L);

/// Ground-truth dependence graph for IC0/left-Cholesky on pattern L:
/// column j depends on every earlier column whose pattern reaches it.
DependenceGraph exactCholeskyGraph(const CSCMatrix &L);

} // namespace rt
} // namespace sds

#endif // SDS_RUNTIME_KERNELS_H

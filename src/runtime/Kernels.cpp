//===- Kernels.cpp - Numeric kernels: serial and scheduled ----------------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//

#include "sds/runtime/Kernels.h"

#include "sds/obs/Metrics.h"
#include "sds/obs/Trace.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>

#include "sds/support/OMP.h"

namespace sds {
namespace rt {

//===----------------------------------------------------------------------===//
// Serial references
//===----------------------------------------------------------------------===//

void forwardSolveCSRSerial(const CSRMatrix &L, const std::vector<double> &B,
                           std::vector<double> &X) {
  assert(static_cast<int>(B.size()) == L.N);
  X.assign(B.begin(), B.end());
  for (int I = 0; I < L.N; ++I) {
    double Tmp = B[static_cast<size_t>(I)];
    int End = L.RowPtr[I + 1] - 1; // diagonal last
    for (int K = L.RowPtr[I]; K < End; ++K)
      Tmp -= L.Val[static_cast<size_t>(K)] *
             X[static_cast<size_t>(L.Col[static_cast<size_t>(K)])];
    X[static_cast<size_t>(I)] = Tmp / L.Val[static_cast<size_t>(End)];
  }
}

void forwardSolveCSCSerial(const CSCMatrix &L, const std::vector<double> &B,
                           std::vector<double> &X) {
  assert(static_cast<int>(B.size()) == L.N);
  X.assign(B.begin(), B.end());
  for (int J = 0; J < L.N; ++J) {
    X[static_cast<size_t>(J)] /=
        L.Val[static_cast<size_t>(L.ColPtr[J])]; // diagonal first
    for (int P = L.ColPtr[J] + 1; P < L.ColPtr[J + 1]; ++P)
      X[static_cast<size_t>(L.RowIdx[static_cast<size_t>(P)])] -=
          L.Val[static_cast<size_t>(P)] * X[static_cast<size_t>(J)];
  }
}

void gaussSeidelCSRSerial(const CSRMatrix &A, const std::vector<double> &B,
                          std::vector<double> &X) {
  assert(static_cast<int>(B.size()) == A.N &&
         static_cast<int>(X.size()) == A.N);
  for (int I = 0; I < A.N; ++I) {
    double Sum = B[static_cast<size_t>(I)];
    double Diag = 0;
    for (int K = A.RowPtr[I]; K < A.RowPtr[I + 1]; ++K) {
      int C = A.Col[static_cast<size_t>(K)];
      if (C == I)
        Diag = A.Val[static_cast<size_t>(K)];
      else
        Sum -= A.Val[static_cast<size_t>(K)] * X[static_cast<size_t>(C)];
    }
    assert(Diag != 0 && "Gauss-Seidel needs a full diagonal");
    X[static_cast<size_t>(I)] = Sum / Diag;
  }
}

void spmvCSRSerial(const CSRMatrix &A, const std::vector<double> &X,
                   std::vector<double> &Y) {
  Y.assign(static_cast<size_t>(A.N), 0.0);
  for (int I = 0; I < A.N; ++I) {
    double Sum = 0;
    for (int K = A.RowPtr[I]; K < A.RowPtr[I + 1]; ++K)
      Sum += A.Val[static_cast<size_t>(K)] *
             X[static_cast<size_t>(A.Col[static_cast<size_t>(K)])];
    Y[static_cast<size_t>(I)] = Sum;
  }
}

namespace {

/// The body of one IC0 outer iteration (column I): scale column I, then
/// update every later column named by its off-diagonal rows. `Atomic`
/// selects atomic reduction updates (needed inside a wavefront).
template <bool Atomic>
void ic0Column(CSCMatrix &L, int I) {
  size_t DiagPos = static_cast<size_t>(L.ColPtr[I]);
  double D = std::sqrt(L.Val[DiagPos]);
  L.Val[DiagPos] = D;
  for (int M = L.ColPtr[I] + 1; M < L.ColPtr[I + 1]; ++M)
    L.Val[static_cast<size_t>(M)] /= D;
  for (int M = L.ColPtr[I] + 1; M < L.ColPtr[I + 1]; ++M) {
    int R = L.RowIdx[static_cast<size_t>(M)];
    double LMI = L.Val[static_cast<size_t>(M)];
    // A(:, R) -= L(R, I) * L(:, I) restricted to the static pattern.
    int K = L.ColPtr[R], LPos = M;
    while (K < L.ColPtr[R + 1] && LPos < L.ColPtr[I + 1]) {
      int RowK = L.RowIdx[static_cast<size_t>(K)];
      int RowL = L.RowIdx[static_cast<size_t>(LPos)];
      if (RowK == RowL) {
        double Delta = LMI * L.Val[static_cast<size_t>(LPos)];
        if (Atomic) {
#ifdef _OPENMP
#pragma omp atomic
#endif
          L.Val[static_cast<size_t>(K)] -= Delta;
        } else {
          L.Val[static_cast<size_t>(K)] -= Delta;
        }
        ++K;
        ++LPos;
      } else if (RowK < RowL) {
        ++K;
      } else {
        ++LPos;
      }
    }
  }
}

} // namespace

void incompleteCholeskyCSCSerial(CSCMatrix &L) {
  assert(L.isLowerTriangular() && "IC0 expects a lower-triangular pattern");
  for (int I = 0; I < L.N; ++I)
    ic0Column<false>(L, I);
}

void incompleteLU0CSRSerial(CSRMatrix &A) {
  std::vector<int> Diag = A.diagonalPositions();
  for (int I = 0; I < A.N; ++I)
    assert(Diag[static_cast<size_t>(I)] >= 0 && "ILU0 needs a full diagonal");
  for (int I = 1; I < A.N; ++I) {
    for (int K = A.RowPtr[I];
         K < A.RowPtr[I + 1] && A.Col[static_cast<size_t>(K)] < I; ++K) {
      int C = A.Col[static_cast<size_t>(K)];
      double Pivot =
          A.Val[static_cast<size_t>(Diag[static_cast<size_t>(C)])];
      double LIK = A.Val[static_cast<size_t>(K)] / Pivot;
      A.Val[static_cast<size_t>(K)] = LIK;
      // Row I (columns > C) -= LIK * row C (columns > C), no fill.
      int J = K + 1;
      int P = Diag[static_cast<size_t>(C)] + 1;
      while (J < A.RowPtr[I + 1] && P < A.RowPtr[C + 1]) {
        int ColJ = A.Col[static_cast<size_t>(J)];
        int ColP = A.Col[static_cast<size_t>(P)];
        if (ColJ == ColP) {
          A.Val[static_cast<size_t>(J)] -=
              LIK * A.Val[static_cast<size_t>(P)];
          ++J;
          ++P;
        } else if (ColJ < ColP) {
          ++J;
        } else {
          ++P;
        }
      }
    }
  }
}

PruneSets buildPruneSets(const CSCMatrix &L) {
  PruneSets R;
  R.Ptr.assign(static_cast<size_t>(L.N) + 1, 0);
  for (int J = 0; J < L.N; ++J)
    for (int P = L.ColPtr[J] + 1; P < L.ColPtr[J + 1]; ++P)
      ++R.Ptr[static_cast<size_t>(L.RowIdx[static_cast<size_t>(P)]) + 1];
  for (int I = 0; I < L.N; ++I)
    R.Ptr[static_cast<size_t>(I) + 1] += R.Ptr[static_cast<size_t>(I)];
  R.ColOf.resize(static_cast<size_t>(R.Ptr[static_cast<size_t>(L.N)]));
  R.PosOf.resize(R.ColOf.size());
  std::vector<int> Next(R.Ptr.begin(), R.Ptr.end() - 1);
  for (int J = 0; J < L.N; ++J)
    for (int P = L.ColPtr[J] + 1; P < L.ColPtr[J + 1]; ++P) {
      int Row = L.RowIdx[static_cast<size_t>(P)];
      int Slot = Next[static_cast<size_t>(Row)]++;
      R.ColOf[static_cast<size_t>(Slot)] = J;
      R.PosOf[static_cast<size_t>(Slot)] = P;
    }
  return R;
}

namespace {

/// One left-looking Cholesky column step using a dense gather buffer `W`
/// (caller provides a zeroed buffer; it is cleaned up before returning).
/// `AVal` holds A's values; it may be `L.Val` itself, since only step J
/// writes column J and it gathers that column before writing it.
void leftCholColumn(CSCMatrix &L, const std::vector<double> &AVal,
                    const PruneSets &Rows, int J, std::vector<double> &W) {
  // Gather A(:, J) restricted to the pattern.
  for (int P = L.ColPtr[J]; P < L.ColPtr[J + 1]; ++P)
    W[static_cast<size_t>(L.RowIdx[static_cast<size_t>(P)])] =
        AVal[static_cast<size_t>(P)];
  // Updates from every earlier column K with L(J, K) != 0.
  for (int T = Rows.Ptr[static_cast<size_t>(J)];
       T < Rows.Ptr[static_cast<size_t>(J) + 1]; ++T) {
    int K = Rows.ColOf[static_cast<size_t>(T)];
    int PosJ = Rows.PosOf[static_cast<size_t>(T)];
    double LJK = L.Val[static_cast<size_t>(PosJ)];
    for (int P = PosJ; P < L.ColPtr[K + 1]; ++P)
      W[static_cast<size_t>(L.RowIdx[static_cast<size_t>(P)])] -=
          LJK * L.Val[static_cast<size_t>(P)];
  }
  // Scale.
  double D = std::sqrt(W[static_cast<size_t>(J)]);
  L.Val[static_cast<size_t>(L.ColPtr[J])] = D;
  for (int P = L.ColPtr[J] + 1; P < L.ColPtr[J + 1]; ++P) {
    int R = L.RowIdx[static_cast<size_t>(P)];
    L.Val[static_cast<size_t>(P)] = W[static_cast<size_t>(R)] / D;
  }
  // Scrub the buffer for reuse.
  for (int P = L.ColPtr[J]; P < L.ColPtr[J + 1]; ++P)
    W[static_cast<size_t>(L.RowIdx[static_cast<size_t>(P)])] = 0.0;
}

} // namespace

void leftCholeskyCSCSerial(CSCMatrix &L) {
  assert(L.isLowerTriangular());
  std::vector<double> AVal = L.Val; // original numerical values
  PruneSets Rows = buildPruneSets(L);
  std::vector<double> W(static_cast<size_t>(L.N), 0.0);
  for (int J = 0; J < L.N; ++J)
    leftCholColumn(L, AVal, Rows, J, W);
}

//===----------------------------------------------------------------------===//
// Schedule executors
//===----------------------------------------------------------------------===//

namespace {

/// The per-wave latency distribution (ns, barrier wait included), fed by
/// thread 0 of every barrier-mode run. One shared registry entry.
obs::Histogram &waveHistogram() {
  static obs::Histogram &H = obs::histogram("rt.wave_ns");
  return H;
}

/// Stall distributions (ns, per thread per executor run), recorded only
/// when the metrics registry is on: time spent in the per-wave barrier
/// (imbalance wait) vs time spent spinning on P2P ready counters. The
/// barrier-vs-P2P comparison in BENCH_schedule.json reads these.
obs::Histogram &barrierStallHistogram() {
  static obs::Histogram &H = obs::histogram("rt.barrier_stall_ns");
  return H;
}

obs::Histogram &p2pStallHistogram() {
  static obs::Histogram &H = obs::histogram("rt.p2p_stall_ns");
  return H;
}

/// Thread 0's per-wave span: opened before the wave's work, closed after
/// the barrier, so its duration includes the imbalance wait — exactly the
/// per-level execution time behind Figure 9. Inert (no clock reads, no
/// allocation) when tracing is off or `Observe` is false.
std::optional<obs::Span> waveSpan(bool Observe, int Thread, size_t Wave,
                                  const std::vector<std::vector<int>> &Parts) {
  if (!Observe || Thread != 0 || !obs::enabled())
    return std::nullopt;
  std::optional<obs::Span> Sp;
  Sp.emplace("wavefront.wave", "rt");
  Sp->tag("wave", static_cast<int64_t>(Wave));
  uint64_t Nodes = 0;
  for (const auto &Part : Parts)
    Nodes += Part.size();
  Sp->tag("nodes", static_cast<int64_t>(Nodes));
  return Sp;
}

/// Run `Body(Node, Thread)` over every node of a CompiledSchedule, one
/// OpenMP thread per chunk column. Chunks are strided over the team, so a
/// smaller team (notably the one-thread team of an OpenMP-off build)
/// still covers every chunk; `Thread` is the executing thread's id,
/// always below the schedule's chunk width. `Observe` = false skips the
/// per-wave spans and histograms (the barrier calibration below).
///
/// Barrier mode runs the waves in order with a barrier between them.
/// P2P mode has no barriers: every thread walks its own chunks in (wave,
/// chunk) order — ascending in the schedule's global order — and gates
/// each node on an atomic remaining-predecessor counter seeded from the
/// graph's in-degrees. Executing a node fetch_sub(release)es each
/// successor's counter; the consumer's load(acquire) makes the producer's
/// plain stores visible.
///
/// P2P deadlock-freedom: among unexecuted nodes, take the minimal one v in
/// (wave, chunk, position) order. Schedule validity puts every
/// predecessor of v strictly earlier in that order; each is owned by some
/// thread and precedes that thread's first unexecuted node (>= v), so it
/// has already executed — v's counter is zero and its owner proceeds.
template <typename BodyFn>
void runCompiledSchedule(const CompiledSchedule &CS, BodyFn &&Body,
                         bool Observe = true) {
  const auto &Waves = CS.Waves;
  bool Metrics = Observe && obs::metricsEnabled();
  std::unique_ptr<std::atomic<int>[]> Remaining;
  if (CS.UsesP2P) {
    Remaining.reset(new std::atomic<int>[CS.InDegree.size()]);
    for (size_t I = 0; I < CS.InDegree.size(); ++I)
      Remaining[I].store(CS.InDegree[I], std::memory_order_relaxed);
  }
#ifdef _OPENMP
  int NumThreads = Waves.empty() ? 1 : static_cast<int>(Waves[0].size());
#pragma omp parallel num_threads(NumThreads)
#endif
  {
    int T = omp_get_thread_num();
    size_t Team = static_cast<size_t>(omp_get_num_threads());
    if (!CS.UsesP2P) {
      for (size_t W = 0; W < Waves.size(); ++W) {
        const auto &Wave = Waves[W];
        std::optional<obs::Span> Sp = waveSpan(Observe, T, W, Wave);
        uint64_t WT0 = (T == 0 && Metrics) ? obs::nowNs() : 0;
        for (size_t P = static_cast<size_t>(T); P < Wave.size(); P += Team)
          for (int Node : Wave[P])
            Body(Node, T);
        uint64_t BT0 = Metrics ? obs::nowNs() : 0;
#ifdef _OPENMP
#pragma omp barrier
#endif
        if (BT0)
          barrierStallHistogram().record(obs::nowNs() - BT0);
        if (WT0)
          waveHistogram().record(obs::nowNs() - WT0);
      }
    } else {
      uint64_t StallNs = 0;
      for (size_t W = 0; W < Waves.size(); ++W)
        for (size_t P = static_cast<size_t>(T); P < Waves[W].size();
             P += Team)
          for (int Node : Waves[W][P]) {
            std::atomic<int> &Ready = Remaining[static_cast<size_t>(Node)];
            if (Ready.load(std::memory_order_acquire) != 0) {
              uint64_t T0 = Metrics ? obs::nowNs() : 0;
              int Spins = 0;
              while (Ready.load(std::memory_order_acquire) != 0)
                if (++Spins == 1024) {
                  Spins = 0;
                  std::this_thread::yield();
                }
              if (T0)
                StallNs += obs::nowNs() - T0;
            }
            Body(Node, T);
            size_t B = CS.SuccPtr[static_cast<size_t>(Node)];
            size_t E = CS.SuccPtr[static_cast<size_t>(Node) + 1];
            for (size_t I = B; I < E; ++I)
              Remaining[static_cast<size_t>(CS.SuccDst[I])].fetch_sub(
                  1, std::memory_order_release);
          }
      if (StallNs)
        p2pStallHistogram().record(StallNs);
    }
  }
}

//===----------------------------------------------------------------------===//
// Serial-or-parallel cost model
//===----------------------------------------------------------------------===//

/// c: ns per work unit, from the fastest of five timed serial CSR forward
/// solves (after a warm-up) over a fixed synthetic banded matrix — the
/// run least disturbed by other processes. Measured once per process.
double workUnitNs() {
  static const double C = [] {
    // 4096 rows of up to seven off-diagonals spread over the 63 columns
    // left of the diagonal, then the diagonal.
    CSRMatrix L;
    L.N = 4096;
    L.RowPtr.push_back(0);
    for (int I = 0; I < L.N; ++I) {
      for (int K = 7; K >= 1; --K)
        if (I - 9 * K >= 0) {
          L.Col.push_back(I - 9 * K);
          L.Val.push_back(0.1);
        }
      L.Col.push_back(I);
      L.Val.push_back(2.0);
      L.RowPtr.push_back(L.nnz());
    }
    std::vector<double> B(static_cast<size_t>(L.N), 1.0), X;
    forwardSolveCSRSerial(L, B, X);
    uint64_t Best = UINT64_MAX;
    for (int Rep = 0; Rep < 5; ++Rep) {
      uint64_t T0 = obs::nowNs();
      forwardSolveCSRSerial(L, B, X);
      Best = std::min(Best, obs::nowNs() - T0);
    }
    return static_cast<double>(Best) / L.nnz();
  }();
  return C;
}

/// A b(Team) above this was measured while other processes held the
/// cores, or by a team larger than the processor count (10-25 us at
/// Team=8 on 4 cores, for which a re-take costs a few ms): an idle 4-core
/// machine measures 0.5-0.8 us at Team=4.
constexpr double kBusyWaveNs = 20000;

/// One measurement of b(Team): the 10th percentile of the gaps between
/// consecutive waves of the barrier runner with an empty body over a
/// fixed synthetic schedule of one-node chunks, as thread 0 stamps them.
/// A wave that waits for a thread another process has preempted costs a
/// scheduler tick (4-8 ms on a 4-core container, against under 1 us
/// otherwise); a low quantile keeps such moments out.
double measureWaveCost(int Team) {
  constexpr int kWaves = 65;
  CompiledSchedule S;
  for (int W = 0; W < kWaves; ++W)
    S.Waves.emplace_back(static_cast<size_t>(Team), std::vector<int>{W});
  std::vector<uint64_t> Stamp(kWaves), Gaps;
  auto Run = [&] {
    runCompiledSchedule(
        S,
        [&](int W, int T) {
          if (T == 0)
            Stamp[static_cast<size_t>(W)] = obs::nowNs();
        },
        false);
  };
  Run(); // warm-up: spawns the team
  for (int Rep = 0; Rep < 3; ++Rep) {
    Run();
    for (size_t W = 1; W < Stamp.size(); ++W)
      Gaps.push_back(Stamp[W] - Stamp[W - 1]);
  }
  std::nth_element(Gaps.begin(), Gaps.begin() + Gaps.size() / 10,
                   Gaps.end());
  return static_cast<double>(Gaps[Gaps.size() / 10]);
}

/// b(Team): ns per wave of the barrier runner at team width `Team`,
/// measured on first use of that width and kept for the process. A
/// sample above kBusyWaveNs is taken again by a later run, 1 s and then
/// 2 s after the previous take, keeping the lowest; so a calibration
/// taken during a load burst does not fix the serial branch for a
/// long-lived process.
double waveCostNs(int Team) {
  struct Sample {
    double Ns = 0;
    int Takes = 0;
    uint64_t NextNs = 0; ///< earliest re-take
  };
  constexpr int kMaxTakes = 3;
  static std::mutex Mu;
  static std::vector<Sample> Cost; // by team width
  std::lock_guard<std::mutex> Lock(Mu);
  if (Cost.size() <= static_cast<size_t>(Team))
    Cost.resize(static_cast<size_t>(Team) + 1);
  Sample &B = Cost[static_cast<size_t>(Team)];
  if (B.Takes == 0 || (B.Ns > kBusyWaveNs && B.Takes < kMaxTakes &&
                       obs::nowNs() >= B.NextNs)) {
    double Ns = measureWaveCost(Team);
    B.Ns = B.Takes ? std::min(B.Ns, Ns) : Ns;
    ++B.Takes;
    B.NextNs = obs::nowNs() + (uint64_t{1000000000} << (B.Takes - 1));
  }
  return B.Ns;
}

/// The OpenMP team a parallel run of S would get: its chunk width, capped
/// by the thread limit; one thread without OpenMP or inside a region that
/// cannot nest.
int teamWidth(const CompiledSchedule &S) {
#ifdef _OPENMP
  if (S.Waves.empty() ||
      omp_get_active_level() >= omp_get_max_active_levels())
    return 1;
  return std::min(static_cast<int>(S.Waves[0].size()),
                  omp_get_thread_limit());
#else
  (void)S;
  return 1;
#endif
}

/// The calibrated estimate of one executor run, counted in the metrics
/// registry.
ExecEstimate decide(const CompiledSchedule &S, double Work) {
  ExecEstimate E = estimateExec(S, Work);
  if (obs::metricsEnabled()) {
    static obs::MetricCounter &Serial = obs::metricCounter("rt.exec_serial");
    static obs::MetricCounter &Parallel =
        obs::metricCounter("rt.exec_parallel");
    static obs::Gauge &UnitNs = obs::gauge("rt.work_unit_ns");
    static obs::Gauge &WaveNs = obs::gauge("rt.wave_cost_ns");
    (E.serial() ? Serial : Parallel).add(1);
    UnitNs.set(E.UnitNs);
    if (E.Team > 1)
      WaveNs.set(E.WaveNs);
  }
  return E;
}

/// Run one executor as `E` chose: `Body(Node, Thread, Parallel)` over
/// nodes 0..N-1 in ascending order on the calling thread when
/// E.serial(), else over the schedule's parallel shape. `Parallel` is
/// std::true_type or std::false_type, so push-style bodies drop their
/// atomics on the serial branch. Ascending order is the original loop
/// order, which every dependence graph honors (they are forward-only).
/// Returns `E`.
template <typename BodyFn>
ExecEstimate runPlan(const CompiledSchedule &CS, int N,
                     const ExecEstimate &E, BodyFn &&Body) {
  obs::Span Total("wavefront.execute", "rt");
  Total.tag("mode", E.serial() ? "serial" : "parallel");
  Total.tag("waves", static_cast<int64_t>(CS.Waves.size()));
  Total.tag("threads", static_cast<int64_t>(
                           CS.Waves.empty() ? 1 : CS.Waves[0].size()));
  Total.tag("kind", scheduleKindName(CS.Config.Kind));
  if (E.serial()) {
    for (int I = 0; I < N; ++I)
      Body(I, 0, std::false_type{});
    return E;
  }
  runCompiledSchedule(CS, [&](int I, int T) { Body(I, T, std::true_type{}); });
  return E;
}

/// Total work of IC0 and of left Cholesky, in multiply-add units: O(n)
/// sums over columns, with C the column's entries and U the earlier
/// columns that update it (its prune set).
double ic0Work(const CSCMatrix &L) { // sum C^2
  double Work = 0;
  for (int J = 0; J < L.N; ++J) {
    double C = L.ColPtr[J + 1] - L.ColPtr[J];
    Work += C * C;
  }
  return Work;
}

double leftCholeskyWork(const CSCMatrix &L, const PruneSets &Rows) {
  double Work = 0; // sum C(1+U)
  for (int J = 0; J < L.N; ++J) {
    double C = L.ColPtr[J + 1] - L.ColPtr[J];
    double U = Rows.Ptr[static_cast<size_t>(J) + 1] -
               Rows.Ptr[static_cast<size_t>(J)];
    Work += C * (1 + U);
  }
  return Work;
}

/// The body of one CSC forward-solve outer iteration (column J): divide by
/// the diagonal, then push X[J] into every later row. `Atomic` as in
/// ic0Column: updates to later rows may race with other columns of the
/// same wave (or, under P2P, of other waves); they commute.
template <bool Atomic>
void fsCSCColumn(const CSCMatrix &L, double *X, int J) {
  X[J] /= L.Val[static_cast<size_t>(L.ColPtr[J])]; // diagonal first
  double XJ = X[J];
  for (int P = L.ColPtr[J] + 1; P < L.ColPtr[J + 1]; ++P) {
    double Delta = L.Val[static_cast<size_t>(P)] * XJ;
    if (Atomic) {
#ifdef _OPENMP
#pragma omp atomic
#endif
      X[L.RowIdx[static_cast<size_t>(P)]] -= Delta;
    } else {
      X[L.RowIdx[static_cast<size_t>(P)]] -= Delta;
    }
  }
}

} // namespace

ExecEstimate estimateExec(const CompiledSchedule &S, double Work, int Team,
                          double UnitNs, double WaveNs) {
  ExecEstimate E;
  E.Team = std::max(1, Team);
  E.Work = Work;
  E.UnitNs = UnitNs;
  E.SerialNs = Work * UnitNs;
  E.ParallelNs = E.SerialNs;
  if (E.Team > 1) {
    E.WaveNs = WaveNs;
    double CritShare =
        S.Nodes ? static_cast<double>(S.CritNodes) / S.Nodes : 1.0;
    E.ParallelNs = E.SerialNs * CritShare + S.numWaves() * WaveNs;
  }
  return E;
}

ExecEstimate estimateExec(const CompiledSchedule &S, double Work) {
  int Team = teamWidth(S);
  return estimateExec(S, Work, Team, workUnitNs(),
                      Team > 1 ? waveCostNs(Team) : 0.0);
}

bool preferSerial(const CompiledSchedule &S, double Work) {
  return estimateExec(S, Work).serial();
}

ExecEstimate forwardSolveCSRScheduled(const CSRMatrix &L,
                                      const std::vector<double> &B,
                                      std::vector<double> &X,
                                      const CompiledSchedule &S) {
  X.assign(B.begin(), B.end());
  double *XP = X.data();
  return runPlan(S, L.N, decide(S, L.nnz()), [&](int I, int, auto) {
    double Tmp = B[static_cast<size_t>(I)];
    int End = L.RowPtr[I + 1] - 1;
    for (int K = L.RowPtr[I]; K < End; ++K)
      Tmp -= L.Val[static_cast<size_t>(K)] * XP[L.Col[static_cast<size_t>(K)]];
    XP[I] = Tmp / L.Val[static_cast<size_t>(End)];
  });
}

ExecEstimate forwardSolveCSCScheduled(const CSCMatrix &L,
                                      const std::vector<double> &B,
                                      std::vector<double> &X,
                                      const CompiledSchedule &S) {
  X.assign(B.begin(), B.end());
  double *XP = X.data();
  return runPlan(S, L.N, decide(S, L.nnz()), [&](int J, int, auto Parallel) {
    fsCSCColumn<decltype(Parallel)::value>(L, XP, J);
  });
}

ExecEstimate gaussSeidelCSRScheduled(const CSRMatrix &A,
                                     const std::vector<double> &B,
                                     std::vector<double> &X,
                                     const CompiledSchedule &S) {
  double *XP = X.data();
  return runPlan(S, A.N, decide(S, A.nnz()), [&](int I, int, auto) {
    double Sum = B[static_cast<size_t>(I)];
    double Diag = 0;
    for (int K = A.RowPtr[I]; K < A.RowPtr[I + 1]; ++K) {
      int C = A.Col[static_cast<size_t>(K)];
      if (C == I)
        Diag = A.Val[static_cast<size_t>(K)];
      else
        Sum -= A.Val[static_cast<size_t>(K)] * XP[C];
    }
    XP[I] = Sum / Diag;
  });
}

ExecEstimate incompleteCholeskyCSCScheduled(CSCMatrix &L,
                                            const CompiledSchedule &S) {
  return runPlan(S, L.N, decide(S, ic0Work(L)),
                 [&](int I, int, auto Parallel) {
                   ic0Column<decltype(Parallel)::value>(L, I);
                 });
}

ExecEstimate leftCholeskyCSCScheduled(CSCMatrix &L, const CompiledSchedule &S) {
  PruneSets Rows = buildPruneSets(L);
  ExecEstimate E = decide(S, leftCholeskyWork(L, Rows));
  // One dense gather buffer per executing thread (thread ids are always
  // < the schedule's chunk width); the serial branch needs one.
  size_t Buffers = E.serial() || S.Waves.empty() ? 1 : S.Waves[0].size();
  std::vector<std::vector<double>> W(
      Buffers, std::vector<double>(static_cast<size_t>(L.N), 0.0));
  return runPlan(S, L.N, E, [&](int J, int T, auto) {
    leftCholColumn(L, L.Val, Rows, J, W[static_cast<size_t>(T)]);
  });
}

//===----------------------------------------------------------------------===//
// Ground-truth dependence graphs
//===----------------------------------------------------------------------===//

DependenceGraph exactForwardSolveGraph(const CSCMatrix &L) {
  DependenceGraph G(L.N);
  // Iteration J updates X at every off-diagonal row of column J; iteration
  // R reads/writes X[R]. Update-update pairs commute.
  for (int J = 0; J < L.N; ++J)
    for (int P = L.ColPtr[J] + 1; P < L.ColPtr[J + 1]; ++P)
      G.addEdge(J, L.RowIdx[static_cast<size_t>(P)]);
  G.finalize();
  return G;
}

DependenceGraph exactCholeskyGraph(const CSCMatrix &L) {
  // Column R is updated using column J exactly when L(R, J) != 0, R > J
  // (static no-fill pattern).
  DependenceGraph G(L.N);
  for (int J = 0; J < L.N; ++J)
    for (int P = L.ColPtr[J] + 1; P < L.ColPtr[J + 1]; ++P)
      G.addEdge(J, L.RowIdx[static_cast<size_t>(P)]);
  G.finalize();
  return G;
}

} // namespace rt
} // namespace sds

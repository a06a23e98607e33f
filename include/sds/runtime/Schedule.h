//===- Schedule.h - Compiled wavefront schedules ----------------*- C++ -*-===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//
//
// The one schedule type of the runtime (DESIGN.md §14): buildSchedule()
// turns a dependence graph into a CompiledSchedule — level sets or the
// load-balanced level coarsening (LBC) of §8.1, optionally transformed
// into fewer/fatter waves (cache-aware coalescing), barrier-free ready
// propagation (P2P), or contiguous consecutive-id runs — which the
// executors in Kernels.h run. The schedule kind + knobs are a named plan
// dimension: artifact::CompiledKernel serializes them and engine::Engine
// keys its matrix-plan tier on them.
//
//===----------------------------------------------------------------------===//

#ifndef SDS_RUNTIME_SCHEDULE_H
#define SDS_RUNTIME_SCHEDULE_H

#include "sds/runtime/Wavefront.h"

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace sds {
namespace rt {

//===----------------------------------------------------------------------===//
// Schedule kinds and configuration
//===----------------------------------------------------------------------===//

/// The named schedule shapes an executor can run. Every kind yields a
/// valid schedule for any finalized DependenceGraph; they differ in
/// synchronization and locality, not semantics.
enum class ScheduleKind {
  Levels,    ///< plain level sets, one barrier per level
  LBC,       ///< load-balanced level coarsening (§8.1)
  Coalesced, ///< LBC + short-wave merging into component-packed chunks
  P2P,       ///< coalesced shape, barriers replaced by ready counters
  Vector,    ///< coalesced shape + contiguous vectorizable-run blocks
};

const char *scheduleKindName(ScheduleKind K);
std::optional<ScheduleKind> parseScheduleKind(std::string_view Name);

/// Everything that determines a schedule's shape besides the graph. The
/// key() participates in engine plan-cache keys and is serialized into
/// CompiledKernel artifacts (minus NumThreads, which is a deployment
/// property, not a plan property).
struct ScheduleConfig {
  ScheduleKind Kind = ScheduleKind::LBC;
  int NumThreads = 8;
  double MinWorkPerThread = 64; ///< LBC window growth target per thread
  /// Coalescing merges consecutive base waves while the merged wave's
  /// cost stays below CoalesceFactor * MinWorkPerThread * NumThreads.
  double CoalesceFactor = 2.0;
  /// Runs at least this long count as vectorizable in describeSchedule
  /// (Vector kind only).
  int MinVectorRun = 4;

  /// Cache-key string, e.g. "p2p/w64/c2/v4/t8". Doubles print in
  /// round-trip precision, so distinct knob values never share a key.
  std::string key() const;
};

//===----------------------------------------------------------------------===//
// Compiled schedules
//===----------------------------------------------------------------------===//

/// A maximal run of consecutive iteration ids inside one chunk with no
/// intra-run dependence edges: positions [Pos, Pos+Len) of the chunk hold
/// ids Chunk[Pos], Chunk[Pos]+1, ..., Chunk[Pos]+Len-1 — a contiguous loop
/// with no dependence inside. The executors still run chunks node by node;
/// runs are a shape measurement (vector coverage), not an execution mode.
struct VectorRun {
  int Pos = 0; ///< index into the chunk
  int Len = 1; ///< number of consecutive ids
};

/// A schedule lowered for execution: outer waves executed in order, the
/// per-thread chunks inside one wave run concurrently. Besides the
/// wave/chunk shape it carries the P2P ready-counter seed (in-degrees + a
/// private copy of the successor CSR, so the executor does not dangle
/// when the DependenceGraph is re-finalized or freed) and the vector-run
/// decomposition of every chunk. Built by buildSchedule(); validated by
/// certifySchedule().
struct CompiledSchedule {
  /// Waves[w][t] = nodes thread t executes in wave w, in order.
  std::vector<std::vector<std::vector<int>>> Waves;
  ScheduleConfig Config;

  /// True: executors skip the per-wave barrier and gate each node on an
  /// atomic remaining-predecessor counter instead.
  bool UsesP2P = false;
  /// True: Runs decomposes every chunk into consecutive-id runs.
  bool HasRuns = false;

  /// Runs[w][t] covers chunk Waves[w][t] exactly, in order; only
  /// meaningful when HasRuns.
  std::vector<std::vector<std::vector<VectorRun>>> Runs;

  /// P2P state: per-node predecessor count and a self-contained successor
  /// CSR snapshot of the graph the schedule was built from.
  std::vector<int> InDegree;
  std::vector<size_t> SuccPtr;
  std::vector<int> SuccDst;

  /// Shape totals for the executors' serial-or-parallel choice
  /// (preferSerial, Kernels.h): scheduled nodes, and the critical path in
  /// nodes — each wave's largest chunk, summed over waves.
  uint64_t Nodes = 0;
  uint64_t CritNodes = 0;

  int numWaves() const { return static_cast<int>(Waves.size()); }
};

/// Build the schedule C describes. The base is plain level sets (one wave
/// per level, nodes balanced over threads by cost) for Levels, else LBC:
/// consecutive levels are merged until each window carries
/// MinWorkPerThread * NumThreads work, and each window is w-partitioned
/// into per-thread groups of whole dependence-connected components,
/// splitting windows too connected to balance. Coalesced, P2P and Vector
/// then merge short LBC waves into component-packed chunks; P2P also
/// snapshots the ready-counter seed, Vector the run decomposition.
CompiledSchedule buildSchedule(const DependenceGraph &G,
                               const ScheduleConfig &C,
                               const std::vector<double> &NodeCost = {});

//===----------------------------------------------------------------------===//
// Certification and stats
//===----------------------------------------------------------------------===//

/// Schedule certificate (the brute-force DAG cover from
/// driver_parallel_test, promoted to the library): every node scheduled
/// exactly once and every edge's source in a strictly earlier wave or
/// earlier in the same thread's chunk; plus — when HasRuns — that Runs
/// partitions every chunk into consecutive-id runs with no intra-run
/// edges, and — when UsesP2P — that the in-degree seed matches the graph.
bool certifySchedule(const DependenceGraph &G, const CompiledSchedule &S);

/// Observability summary of a schedule's wave shape: wave count, per-wave
/// node counts (the level-size histogram behind Figure 9's parallelism
/// story), and the achieved parallelism TotalNodes / CriticalWork — the
/// average number of nodes runnable concurrently under the schedule.
struct ScheduleStats {
  int NumWaves = 0;
  uint64_t TotalNodes = 0;
  uint64_t CriticalWork = 0;       ///< max-over-threads, summed over waves
  std::vector<uint64_t> WaveSizes; ///< nodes per wave, in wave order
  uint64_t MaxWaveSize = 0;

  double achievedParallelism() const {
    return CriticalWork ? static_cast<double>(TotalNodes) /
                              static_cast<double>(CriticalWork)
                        : 0.0;
  }
};

/// Shape summary of a compiled schedule: its ScheduleStats plus the
/// chunk count and vector-run coverage (nodes inside runs of length >=
/// Config.MinVectorRun, as a fraction of all nodes).
struct CompiledScheduleStats {
  ScheduleStats Base;
  uint64_t NumChunks = 0;     ///< non-empty per-thread chunks, all waves
  uint64_t VectorRuns = 0;    ///< runs of length >= MinVectorRun
  uint64_t VectorNodes = 0;   ///< nodes covered by those runs
  bool P2P = false;

  double vectorCoverage() const {
    return Base.TotalNodes ? static_cast<double>(VectorNodes) /
                                 static_cast<double>(Base.TotalNodes)
                           : 0.0;
  }
};

CompiledScheduleStats describeSchedule(const CompiledSchedule &S);

} // namespace rt
} // namespace sds

#endif // SDS_RUNTIME_SCHEDULE_H

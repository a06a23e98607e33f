//===- Wavefront.h - Dependence DAGs and level sets -------------*- C++ -*-===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//
//
// The runtime half of the inspector-executor scheme (§3, §8): the
// dependence graph built by a generated inspector and its level sets
// (classic wavefronts). Schedules over the graph — plain level sets, the
// load-balanced level coarsening (LBC) of §8.1, and the shapes derived
// from it — are built by rt::buildSchedule (Schedule.h).
//
//===----------------------------------------------------------------------===//

#ifndef SDS_RUNTIME_WAVEFRONT_H
#define SDS_RUNTIME_WAVEFRONT_H

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace sds {
namespace rt {

/// Dependence graph over outer-loop iterations 0..N-1, stored in CSR form
/// after finalize(): a flat `EdgePtr`/`EdgeDst` pair, sorted and
/// de-duplicated per row. Edges added before finalize() go into a flat
/// staging buffer (one append, no per-node vector churn); finalize() runs
/// a two-pass count-then-fill build and dedups during the fill.
class DependenceGraph {
public:
  explicit DependenceGraph(int NumIterations)
      : N(NumIterations),
        EdgePtr(static_cast<size_t>(NumIterations) + 1, 0) {}

  int numNodes() const { return N; }

  /// Record a dependence: iteration Src must run before Dst. Self-edges
  /// are ignored. Not thread-safe — merge thread-local buffers serially
  /// (or via reserveEdges + per-thread ranges).
  void addEdge(int64_t Src, int64_t Dst);

  /// Hint the capacity for `Count` more edges: both the staging buffer
  /// and the CSR destination array finalize() will fill (so the hint
  /// covers the whole addEdge+finalize cycle, not just the staging half —
  /// finalize() re-stages current CSR content, hence the +Edges term).
  void reserveEdges(size_t Count) {
    Staged.reserve(Staged.size() + Count);
    EdgeDst.reserve(Staged.size() + Count + static_cast<size_t>(Edges));
  }

  /// Capacity of the CSR destination array (observability for the
  /// reserveEdges contract: a finalize() after a covering reserveEdges
  /// performs no further growth).
  size_t edgeCapacity() const { return EdgeDst.capacity(); }

  /// Build the CSR arrays: count per source, prefix-sum, fill, and dedup
  /// (sort + unique per row, compacting in place). Idempotent; edges may
  /// be staged after a finalize and re-finalized.
  void finalize();

  /// Successor list of a node (sorted, deduplicated). Empty before
  /// finalize(). The span is invalidated by the next finalize().
  std::span<const int> successors(int Node) const {
    size_t B = EdgePtr[static_cast<size_t>(Node)];
    size_t E = EdgePtr[static_cast<size_t>(Node) + 1];
    return {EdgeDst.data() + B, E - B};
  }
  uint64_t numEdges() const { return Edges; }

  /// True when every edge goes from a smaller to a larger iteration (the
  /// invariant of outer-loop-carried dependences).
  bool isForwardOnly() const;

private:
  int N;
  std::vector<std::pair<int, int>> Staged; ///< pre-finalize edge buffer
  std::vector<size_t> EdgePtr;             ///< CSR row offsets, N+1 entries
  std::vector<int> EdgeDst;                ///< CSR destinations
  uint64_t Edges = 0;
};

/// Classic wavefronts: level[v] = 1 + max(level of predecessors); all
/// nodes of one level are mutually independent.
struct LevelSets {
  std::vector<int> LevelOf;           ///< per node
  std::vector<std::vector<int>> Levels; ///< nodes per level, ascending

  int numLevels() const { return static_cast<int>(Levels.size()); }
};

LevelSets computeLevelSets(const DependenceGraph &G);

} // namespace rt
} // namespace sds

#endif // SDS_RUNTIME_WAVEFRONT_H

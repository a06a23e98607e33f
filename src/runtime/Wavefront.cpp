//===- Wavefront.cpp - Dependence DAGs and level sets ---------------------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//

#include "sds/runtime/Wavefront.h"

#include "sds/obs/Trace.h"

#include <algorithm>
#include <cassert>

namespace sds {
namespace rt {

void DependenceGraph::addEdge(int64_t Src, int64_t Dst) {
  if (Src == Dst)
    return;
  assert(Src >= 0 && Src < N && Dst >= 0 && Dst < N && "edge out of range");
  Staged.emplace_back(static_cast<int>(Src), static_cast<int>(Dst));
}

void DependenceGraph::finalize() {
  // Idempotent: re-stage the current CSR content so late addEdge() calls
  // merge rather than replace.
  if (Edges != 0) {
    Staged.reserve(Staged.size() + static_cast<size_t>(Edges));
    for (int U = 0; U < N; ++U)
      for (int V : successors(U))
        Staged.emplace_back(U, V);
  }

  // Pass 1: count edges per source, exclusive prefix-sum into EdgePtr.
  std::fill(EdgePtr.begin(), EdgePtr.end(), 0);
  for (const auto &[Src, Dst] : Staged) {
    (void)Dst;
    ++EdgePtr[static_cast<size_t>(Src) + 1];
  }
  for (size_t I = 1; I < EdgePtr.size(); ++I)
    EdgePtr[I] += EdgePtr[I - 1];

  // Pass 2: fill row segments via per-row cursors, then dedup each row in
  // place (sort + unique) while compacting the arrays left. resize, not
  // assign: every slot below Staged.size() is overwritten by the cursor
  // fill, and a covering reserveEdges() call means no growth happens here.
  EdgeDst.resize(Staged.size());
  std::vector<size_t> Cursor(EdgePtr.begin(), EdgePtr.end() - 1);
  for (const auto &[Src, Dst] : Staged)
    EdgeDst[Cursor[static_cast<size_t>(Src)]++] = Dst;
  Staged.clear();
  Staged.shrink_to_fit();

  size_t Write = 0;
  for (int U = 0; U < N; ++U) {
    size_t B = EdgePtr[static_cast<size_t>(U)];
    size_t E = EdgePtr[static_cast<size_t>(U) + 1];
    std::sort(EdgeDst.begin() + static_cast<int64_t>(B),
              EdgeDst.begin() + static_cast<int64_t>(E));
    EdgePtr[static_cast<size_t>(U)] = Write;
    int Last = -1;
    for (size_t I = B; I < E; ++I)
      if (EdgeDst[I] != Last) {
        Last = EdgeDst[I];
        EdgeDst[Write++] = Last;
      }
  }
  EdgePtr[static_cast<size_t>(N)] = Write;
  EdgeDst.resize(Write);
  Edges = Write;
}

bool DependenceGraph::isForwardOnly() const {
  for (int U = 0; U < N; ++U)
    for (int V : successors(U))
      if (V <= U)
        return false;
  return true;
}

LevelSets computeLevelSets(const DependenceGraph &G) {
  obs::Span Sp("wavefront.level_sets", "rt");
  LevelSets LS;
  int N = G.numNodes();
  LS.LevelOf.assign(N, 0);
  // Outer-loop dependence edges always point forward (src iteration <
  // dst), so a single ascending sweep computes longest-path levels.
  assert(G.isForwardOnly() && "dependence graph must be forward-only");
  int MaxLevel = 0;
  for (int U = 0; U < N; ++U) {
    for (int V : G.successors(U))
      LS.LevelOf[V] = std::max(LS.LevelOf[V], LS.LevelOf[U] + 1);
    MaxLevel = std::max(MaxLevel, LS.LevelOf[U]);
  }
  LS.Levels.assign(static_cast<size_t>(MaxLevel) + 1, {});
  for (int U = 0; U < N; ++U)
    LS.Levels[static_cast<size_t>(LS.LevelOf[U])].push_back(U);
  Sp.tag("nodes", static_cast<int64_t>(N));
  Sp.tag("levels", static_cast<int64_t>(LS.Levels.size()));
  return LS;
}

} // namespace rt
} // namespace sds

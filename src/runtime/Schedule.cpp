//===- Schedule.cpp - Compiled wavefront schedules ------------------------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//

#include "sds/runtime/Schedule.h"

#include "sds/obs/Metrics.h"
#include "sds/obs/Trace.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <limits>
#include <span>

namespace sds {
namespace rt {

//===----------------------------------------------------------------------===//
// Kinds and configuration
//===----------------------------------------------------------------------===//

const char *scheduleKindName(ScheduleKind K) {
  switch (K) {
  case ScheduleKind::Levels:
    return "levels";
  case ScheduleKind::LBC:
    return "lbc";
  case ScheduleKind::Coalesced:
    return "coalesced";
  case ScheduleKind::P2P:
    return "p2p";
  case ScheduleKind::Vector:
    return "vector";
  }
  return "?";
}

std::optional<ScheduleKind> parseScheduleKind(std::string_view Name) {
  if (Name == "levels")
    return ScheduleKind::Levels;
  if (Name == "lbc")
    return ScheduleKind::LBC;
  if (Name == "coalesced")
    return ScheduleKind::Coalesced;
  if (Name == "p2p")
    return ScheduleKind::P2P;
  if (Name == "vector")
    return ScheduleKind::Vector;
  return std::nullopt;
}

std::string ScheduleConfig::key() const {
  // %.17g round-trips every double, so 64 and 64.00001 get distinct keys.
  // Integral values print as "64" and "2", the spelling persisted stores
  // and artifacts hold for the defaults.
  char Buf[128];
  std::snprintf(Buf, sizeof(Buf), "%s/w%.17g/c%.17g/v%d/t%d",
                scheduleKindName(Kind), MinWorkPerThread, CoalesceFactor,
                MinVectorRun, NumThreads);
  return Buf;
}

//===----------------------------------------------------------------------===//
// Shared helpers
//===----------------------------------------------------------------------===//

namespace {

using WaveList = std::vector<std::vector<std::vector<int>>>;

double costOf(int Node, const std::vector<double> &NodeCost) {
  return NodeCost.empty() ? 1.0 : NodeCost[static_cast<size_t>(Node)];
}

/// How far the dominant dependence component may exceed a thread's fair
/// share before an LBC window is split or a wave merge is rejected.
constexpr double kImbalanceTolerance = 1.25;

/// A dependence-connected component of an induced subgraph.
struct Component {
  int MinNode = std::numeric_limits<int>::max();
  double Cost = 0;
  std::vector<int> Nodes; ///< ascending
};

/// Connected components of dependence subgraphs induced on node sets, in
/// union-find root-index order. One finder serves a whole schedule build:
/// its node->slot map holds one entry per graph node and is cleared after
/// every query, so membership and slot lookups are single array reads.
class ComponentFinder {
public:
  explicit ComponentFinder(const DependenceGraph &G)
      : G(G), SlotOf(static_cast<size_t>(G.numNodes()), -1) {}

  /// Components of the subgraph induced on `Nodes` (sorted ascending).
  std::vector<Component> operator()(const std::vector<int> &Nodes,
                                    const std::vector<double> &NodeCost) {
    for (size_t I = 0; I < Nodes.size(); ++I)
      SlotOf[static_cast<size_t>(Nodes[I])] = static_cast<int>(I);

    std::vector<int> Parent(Nodes.size());
    for (size_t I = 0; I < Nodes.size(); ++I)
      Parent[I] = static_cast<int>(I);
    auto Find = [&](int X) {
      while (Parent[static_cast<size_t>(X)] != X)
        X = Parent[static_cast<size_t>(X)] =
            Parent[static_cast<size_t>(Parent[static_cast<size_t>(X)])];
      return X;
    };
    for (size_t I = 0; I < Nodes.size(); ++I)
      for (int V : G.successors(Nodes[I])) {
        int Slot = SlotOf[static_cast<size_t>(V)];
        if (Slot < 0)
          continue;
        int A = Find(static_cast<int>(I));
        int B = Find(Slot);
        if (A != B)
          Parent[static_cast<size_t>(B)] = A;
      }

    std::vector<Component> Comps(Nodes.size());
    for (size_t I = 0; I < Nodes.size(); ++I) {
      int Node = Nodes[I];
      Component &C = Comps[static_cast<size_t>(Find(static_cast<int>(I)))];
      C.MinNode = std::min(C.MinNode, Node);
      C.Cost += costOf(Node, NodeCost);
      C.Nodes.push_back(Node);
      SlotOf[static_cast<size_t>(Node)] = -1;
    }
    Comps.erase(std::remove_if(Comps.begin(), Comps.end(),
                               [](const Component &C) {
                                 return C.Nodes.empty();
                               }),
                Comps.end());
    return Comps;
  }

private:
  const DependenceGraph &G;
  std::vector<int> SlotOf; ///< slot in the current node set, or -1
};

/// Index of the bin with the smallest cost (first on ties).
size_t lightestBin(const std::vector<double> &BinCost) {
  return static_cast<size_t>(
      std::min_element(BinCost.begin(), BinCost.end()) - BinCost.begin());
}

//===----------------------------------------------------------------------===//
// Base schedules: level sets and LBC
//===----------------------------------------------------------------------===//

/// One wave per level; each level's nodes go greedily to the lightest
/// thread by cost. Nodes stay ascending inside each bin.
WaveList levelSetWaves(const LevelSets &LS, int NumThreads,
                       const std::vector<double> &NodeCost) {
  WaveList Waves;
  Waves.reserve(LS.Levels.size());
  for (const std::vector<int> &Level : LS.Levels) {
    std::vector<std::vector<int>> Bins(static_cast<size_t>(NumThreads));
    std::vector<double> BinCost(static_cast<size_t>(NumThreads), 0.0);
    for (int Node : Level) {
      size_t Best = lightestBin(BinCost);
      Bins[Best].push_back(Node);
      BinCost[Best] += costOf(Node, NodeCost);
    }
    Waves.push_back(std::move(Bins));
  }
  return Waves;
}

/// LBC's w-partitioning of coarsened level windows: connected components
/// of the window-local dependence subgraph are bin-packed over threads
/// (whole chains stay on one thread, so the barrier-free interior of a
/// wave is safe). A window too connected to balance is split in half —
/// LBC's adaptive window sizing.
class LBCPartitioner {
public:
  LBCPartitioner(const DependenceGraph &G, const LevelSets &LS,
                 int NumThreads, const std::vector<double> &NodeCost)
      : Components(G), LS(LS), NumThreads(NumThreads), NodeCost(NodeCost) {}

  double levelCost(int Lv) const {
    double W = 0;
    for (int Node : LS.Levels[static_cast<size_t>(Lv)])
      W += costOf(Node, NodeCost);
    return W;
  }

  /// Emit levels [First, Last], splitting whenever the window is too
  /// connected to balance.
  void emit(int First, int Last, WaveList &Waves) {
    if (tryEmitWindow(First, Last, Waves))
      return;
    int Mid = First + (Last - First) / 2;
    emit(First, Mid, Waves);
    emit(Mid + 1, Last, Waves);
  }

private:
  /// Try to emit levels [First, Last] as one wave. Fails (returns false,
  /// emits nothing) when the largest dependence-connected component holds
  /// more than its fair share of the window's work.
  bool tryEmitWindow(int First, int Last, WaveList &Waves) {
    std::vector<int> Nodes;
    for (int Lv = First; Lv <= Last; ++Lv)
      Nodes.insert(Nodes.end(), LS.Levels[static_cast<size_t>(Lv)].begin(),
                   LS.Levels[static_cast<size_t>(Lv)].end());
    std::sort(Nodes.begin(), Nodes.end());
    std::vector<Component> Comps = Components(Nodes, NodeCost);
    double MaxComp = 0;
    for (const Component &Comp : Comps)
      MaxComp = std::max(MaxComp, Comp.Cost);
    // Balance test: splitting the window into per-level waves achieves a
    // makespan of roughly sum over levels of max(levelWork / threads,
    // costliest node); the window (whose intra-wave makespan is bounded
    // below by its largest component) only helps when it does not lose to
    // that. Single-level windows always pass (components are single
    // nodes, so MaxComp is one node's cost).
    if (First != Last && NumThreads > 1) {
      double SplitMakespan = 0;
      for (int Lv = First; Lv <= Last; ++Lv) {
        double LvCost = 0, MaxNode = 0;
        for (int Node : LS.Levels[static_cast<size_t>(Lv)]) {
          LvCost += costOf(Node, NodeCost);
          MaxNode = std::max(MaxNode, costOf(Node, NodeCost));
        }
        SplitMakespan += std::max(LvCost / NumThreads, MaxNode);
      }
      if (MaxComp > kImbalanceTolerance * SplitMakespan)
        return false;
    }

    // Largest-first onto the lightest thread. The sort is not stable, so
    // the schedule depends on Comps arriving in root-index order.
    std::sort(Comps.begin(), Comps.end(),
              [](const Component &A, const Component &B) {
                return A.Cost > B.Cost;
              });
    std::vector<std::vector<int>> Bins(static_cast<size_t>(NumThreads));
    std::vector<double> BinCost(static_cast<size_t>(NumThreads), 0.0);
    for (const Component &Comp : Comps) {
      size_t Best = lightestBin(BinCost);
      Bins[Best].insert(Bins[Best].end(), Comp.Nodes.begin(),
                        Comp.Nodes.end());
      BinCost[Best] += Comp.Cost;
    }
    // Ascending order inside a bin preserves intra-component dependence
    // order (edges always point to larger iterations).
    for (auto &Bin : Bins)
      std::sort(Bin.begin(), Bin.end());
    Waves.push_back(std::move(Bins));
    return true;
  }

  ComponentFinder Components;
  const LevelSets &LS;
  int NumThreads;
  const std::vector<double> &NodeCost;
};

/// l-partitioning: grow windows of consecutive levels until each carries
/// enough aggregate work to feed every thread, then w-partition each.
WaveList lbcWaves(const DependenceGraph &G, const LevelSets &LS,
                  const ScheduleConfig &C,
                  const std::vector<double> &NodeCost) {
  LBCPartitioner P(G, LS, C.NumThreads, NodeCost);
  double MinWave = C.MinWorkPerThread * C.NumThreads;
  WaveList Waves;
  int L = 0, NumLevels = LS.numLevels();
  while (L < NumLevels) {
    double Work = 0;
    int End = L;
    while (End < NumLevels) {
      Work += P.levelCost(End);
      ++End;
      if (Work >= MinWave)
        break;
    }
    P.emit(L, End - 1, Waves);
    L = End;
  }
  return Waves;
}

//===----------------------------------------------------------------------===//
// Coalescing
//===----------------------------------------------------------------------===//

/// Partition a merged node set into per-thread chunks: connected
/// components of the induced dependence subgraph (so every intra-wave
/// edge stays inside one chunk), ordered by their minimal node id and
/// assigned to threads as contiguous cost-balanced groups — consecutive
/// iteration ids land on the same thread, which is what makes the
/// vector-run decomposition and the row-footprint locality work. Each
/// chunk is sorted ascending: dependence edges always point to larger
/// iterations, so ascending order preserves intra-chunk dependence order.
std::vector<std::vector<int>>
packComponents(ComponentFinder &Components, std::vector<int> Nodes,
               int NumThreads, const std::vector<double> &NodeCost) {
  std::sort(Nodes.begin(), Nodes.end());
  double Total = 0;
  for (int Node : Nodes)
    Total += costOf(Node, NodeCost);
  std::vector<Component> Comps = Components(Nodes, NodeCost);
  std::sort(Comps.begin(), Comps.end(),
            [](const Component &A, const Component &B) {
              return A.MinNode < B.MinNode;
            });

  // Contiguous balanced assignment: fill thread t until it holds its fair
  // share, then move on. Whole components never split.
  std::vector<std::vector<int>> Bins(static_cast<size_t>(NumThreads));
  double Fair = Total / NumThreads;
  size_t T = 0;
  double BinCost = 0;
  for (Component &C : Comps) {
    if (T + 1 < Bins.size() && BinCost >= Fair) {
      ++T;
      BinCost = 0;
    }
    Bins[T].insert(Bins[T].end(), C.Nodes.begin(), C.Nodes.end());
    BinCost += C.Cost;
  }
  for (auto &Bin : Bins)
    std::sort(Bin.begin(), Bin.end());
  return Bins;
}

/// Merge consecutive short waves into one wave whose chunks are the
/// dependence-connected components of the merged node set.
void coalesceWaves(const DependenceGraph &G,
                   const std::vector<double> &NodeCost, CompiledSchedule &S) {
  obs::Span Sp("schedule.pass", "rt");
  Sp.tag("pass", "coalesce-waves");
  const ScheduleConfig &C = S.Config;
  ComponentFinder Components(G);
  double Target =
      std::max(1.0, C.CoalesceFactor * C.MinWorkPerThread * C.NumThreads);
  WaveList Out;
  std::vector<int> Pending;
  double PendingCost = 0;
  auto Flush = [&] {
    if (Pending.empty())
      return;
    Out.push_back(
        packComponents(Components, std::move(Pending), C.NumThreads, NodeCost));
    Pending.clear();
    PendingCost = 0;
  };
  // Merging waves can fuse their dependence components; a component
  // larger than one thread's fair share would serialize the merged
  // wave (components never split across chunks). The probe rejects a
  // merge when the dominant merged component exceeds the imbalance
  // tolerance — same spirit as LBC's adaptive window split — but a
  // component below MinWorkPerThread is always acceptable: that is the
  // per-thread work granularity anyway, and for waves that small the
  // barrier being eliminated costs more than the imbalance.
  auto Balanced = [&](const std::vector<int> &Merged, double Cost) {
    if (C.NumThreads <= 1)
      return true;
    double MaxComp = 0;
    for (const Component &Comp : Components(Merged, NodeCost))
      MaxComp = std::max(MaxComp, Comp.Cost);
    return MaxComp <= std::max(kImbalanceTolerance * Cost / C.NumThreads,
                               static_cast<double>(C.MinWorkPerThread));
  };
  for (const auto &Wave : S.Waves) {
    double WaveCost = 0;
    size_t WaveNodes = 0;
    for (const auto &Part : Wave) {
      WaveNodes += Part.size();
      for (int Node : Part)
        WaveCost += costOf(Node, NodeCost);
    }
    if (!Pending.empty() && PendingCost + WaveCost > Target) {
      Flush();
    } else if (!Pending.empty()) {
      std::vector<int> Merged;
      Merged.reserve(Pending.size() + WaveNodes);
      Merged.insert(Merged.end(), Pending.begin(), Pending.end());
      for (const auto &Part : Wave)
        Merged.insert(Merged.end(), Part.begin(), Part.end());
      std::sort(Merged.begin(), Merged.end());
      if (!Balanced(Merged, PendingCost + WaveCost))
        Flush();
    }
    Pending.reserve(Pending.size() + WaveNodes);
    for (const auto &Part : Wave)
      Pending.insert(Pending.end(), Part.begin(), Part.end());
    PendingCost += WaveCost;
  }
  Flush();
  S.Waves = std::move(Out);
}

//===----------------------------------------------------------------------===//
// Vector runs and P2P lowering
//===----------------------------------------------------------------------===//

/// Decompose every chunk into maximal consecutive-id, edge-free runs.
void computeVectorRuns(const DependenceGraph &G, CompiledSchedule &S) {
  obs::Span Sp("schedule.pass", "rt");
  Sp.tag("pass", "vector-runs");
  constexpr int Inf = std::numeric_limits<int>::max();
  auto FirstSucc = [&](int Node) {
    std::span<const int> Succ = G.successors(Node);
    return Succ.empty() ? Inf : Succ.front();
  };
  S.Runs.assign(S.Waves.size(), {});
  for (size_t W = 0; W < S.Waves.size(); ++W) {
    const auto &Wave = S.Waves[W];
    S.Runs[W].resize(Wave.size());
    for (size_t T = 0; T < Wave.size(); ++T) {
      const std::vector<int> &Chunk = Wave[T];
      std::vector<VectorRun> &Runs = S.Runs[W][T];
      size_t I = 0;
      while (I < Chunk.size()) {
        // Grow [B, J): ids must stay consecutive and no successor of an
        // earlier member may land on the id being added. Successors are
        // sorted and forward-only, so tracking the minimum first
        // successor of the members suffices: any in-run edge target
        // would be <= the last id of the run.
        size_t B = I;
        int MinSucc = FirstSucc(Chunk[B]);
        size_t J = I + 1;
        while (J < Chunk.size() && Chunk[J] == Chunk[J - 1] + 1 &&
               MinSucc > Chunk[J]) {
          MinSucc = std::min(MinSucc, FirstSucc(Chunk[J]));
          ++J;
        }
        Runs.push_back({static_cast<int>(B), static_cast<int>(J - B)});
        I = J;
      }
    }
  }
  S.HasRuns = true;
}

/// Snapshot in-degrees + the successor CSR into the schedule and set
/// UsesP2P — the executors then run barrier-free.
void lowerToP2P(const DependenceGraph &G, CompiledSchedule &S) {
  obs::Span Sp("schedule.pass", "rt");
  Sp.tag("pass", "p2p-lowering");
  int N = G.numNodes();
  S.InDegree.assign(static_cast<size_t>(N), 0);
  S.SuccPtr.assign(static_cast<size_t>(N) + 1, 0);
  S.SuccDst.clear();
  S.SuccDst.reserve(static_cast<size_t>(G.numEdges()));
  for (int U = 0; U < N; ++U) {
    for (int V : G.successors(U)) {
      ++S.InDegree[static_cast<size_t>(V)];
      S.SuccDst.push_back(V);
    }
    S.SuccPtr[static_cast<size_t>(U) + 1] = S.SuccDst.size();
  }
  S.UsesP2P = true;
}

} // namespace

CompiledSchedule buildSchedule(const DependenceGraph &G,
                               const ScheduleConfig &C,
                               const std::vector<double> &NodeCost) {
  assert(C.NumThreads >= 1);
  obs::Span Sp("schedule.build", "rt");
  Sp.tag("kind", scheduleKindName(C.Kind));
  CompiledSchedule S;
  S.Config = C;
  LevelSets LS = computeLevelSets(G);
  if (C.Kind == ScheduleKind::Levels)
    S.Waves = levelSetWaves(LS, C.NumThreads, NodeCost);
  else
    S.Waves = lbcWaves(G, LS, C, NodeCost);
  switch (C.Kind) {
  case ScheduleKind::Levels:
  case ScheduleKind::LBC:
    break;
  case ScheduleKind::Coalesced:
    coalesceWaves(G, NodeCost, S);
    break;
  case ScheduleKind::P2P:
    coalesceWaves(G, NodeCost, S);
    lowerToP2P(G, S);
    break;
  case ScheduleKind::Vector:
    coalesceWaves(G, NodeCost, S);
    computeVectorRuns(G, S);
    break;
  }
  CompiledScheduleStats St = describeSchedule(S);
  S.Nodes = St.Base.TotalNodes;
  S.CritNodes = St.Base.CriticalWork;
  Sp.tag("waves", static_cast<int64_t>(St.Base.NumWaves));
  Sp.tag("chunks", static_cast<int64_t>(St.NumChunks));
  Sp.tag("nodes", static_cast<int64_t>(St.Base.TotalNodes));
  Sp.tag("max_wave", static_cast<int64_t>(St.Base.MaxWaveSize));
  if (obs::enabled())
    Sp.tag("parallelism", std::to_string(St.Base.achievedParallelism()));
  if (obs::metricsEnabled()) {
    obs::metricCounter("schedule.built").add(1);
    obs::gauge("schedule.waves").set(St.Base.NumWaves);
    obs::gauge("schedule.chunks").set(static_cast<double>(St.NumChunks));
    obs::gauge("schedule.vector_coverage").set(St.vectorCoverage());
  }
  return S;
}

//===----------------------------------------------------------------------===//
// Certification
//===----------------------------------------------------------------------===//

bool certifySchedule(const DependenceGraph &G, const CompiledSchedule &S) {
  // Position of each node: (wave, thread, index-in-chunk).
  int N = G.numNodes();
  std::vector<int> WaveOf(static_cast<size_t>(N), -1);
  std::vector<int> ThreadOf(static_cast<size_t>(N), -1);
  std::vector<int> PosOf(static_cast<size_t>(N), -1);
  for (size_t W = 0; W < S.Waves.size(); ++W)
    for (size_t T = 0; T < S.Waves[W].size(); ++T)
      for (size_t P = 0; P < S.Waves[W][T].size(); ++P) {
        int Node = S.Waves[W][T][P];
        if (Node < 0 || Node >= N || WaveOf[static_cast<size_t>(Node)] != -1)
          return false; // out-of-range or duplicate node
        WaveOf[static_cast<size_t>(Node)] = static_cast<int>(W);
        ThreadOf[static_cast<size_t>(Node)] = static_cast<int>(T);
        PosOf[static_cast<size_t>(Node)] = static_cast<int>(P);
      }
  for (int U = 0; U < N; ++U) {
    size_t UI = static_cast<size_t>(U);
    if (WaveOf[UI] == -1)
      return false; // node not scheduled
    for (int V : G.successors(U)) {
      size_t VI = static_cast<size_t>(V);
      // Earlier wave, or the same thread runs U before V in one wave.
      if (WaveOf[UI] < WaveOf[VI] ||
          (WaveOf[UI] == WaveOf[VI] && ThreadOf[UI] == ThreadOf[VI] &&
           PosOf[UI] < PosOf[VI]))
        continue;
      return false;
    }
  }
  if (S.HasRuns) {
    if (S.Runs.size() != S.Waves.size())
      return false;
    for (size_t W = 0; W < S.Runs.size(); ++W) {
      if (S.Runs[W].size() != S.Waves[W].size())
        return false;
      for (size_t T = 0; T < S.Runs[W].size(); ++T) {
        const std::vector<int> &Chunk = S.Waves[W][T];
        size_t Pos = 0;
        for (const VectorRun &R : S.Runs[W][T]) {
          // Runs tile the chunk in order...
          if (R.Len < 1 || static_cast<size_t>(R.Pos) != Pos ||
              Pos + static_cast<size_t>(R.Len) > Chunk.size())
            return false;
          int First = Chunk[Pos];
          int Last = Chunk[Pos + static_cast<size_t>(R.Len) - 1];
          // ...with consecutive ids...
          if (Last - First + 1 != R.Len)
            return false;
          for (int K = 1; K < R.Len; ++K)
            if (Chunk[Pos + static_cast<size_t>(K)] != First + K)
              return false;
          // ...and no dependence edge inside the run.
          for (int K = 0; K < R.Len; ++K)
            for (int V : G.successors(First + K))
              if (V >= First && V <= Last)
                return false;
          Pos += static_cast<size_t>(R.Len);
        }
        if (Pos != Chunk.size())
          return false;
      }
    }
  }
  if (S.UsesP2P) {
    if (static_cast<int>(S.InDegree.size()) != N ||
        S.SuccPtr.size() != static_cast<size_t>(N) + 1)
      return false;
    std::vector<int> InDeg(static_cast<size_t>(N), 0);
    for (int U = 0; U < N; ++U) {
      std::span<const int> Succ = G.successors(U);
      size_t B = S.SuccPtr[static_cast<size_t>(U)];
      size_t E = S.SuccPtr[static_cast<size_t>(U) + 1];
      if (E - B != Succ.size() || E > S.SuccDst.size())
        return false;
      for (size_t I = 0; I < Succ.size(); ++I) {
        if (S.SuccDst[B + I] != Succ[I])
          return false;
        ++InDeg[static_cast<size_t>(Succ[I])];
      }
    }
    if (InDeg != S.InDegree)
      return false;
  }
  return true;
}

CompiledScheduleStats describeSchedule(const CompiledSchedule &S) {
  CompiledScheduleStats St;
  St.P2P = S.UsesP2P;
  St.Base.NumWaves = S.numWaves();
  St.Base.WaveSizes.reserve(S.Waves.size());
  for (const auto &Wave : S.Waves) {
    uint64_t Size = 0, MaxChunk = 0;
    for (const auto &Chunk : Wave) {
      Size += Chunk.size();
      MaxChunk = std::max(MaxChunk, static_cast<uint64_t>(Chunk.size()));
      if (!Chunk.empty())
        ++St.NumChunks;
    }
    St.Base.WaveSizes.push_back(Size);
    St.Base.TotalNodes += Size;
    St.Base.MaxWaveSize = std::max(St.Base.MaxWaveSize, Size);
    St.Base.CriticalWork += MaxChunk;
  }
  if (S.HasRuns)
    for (const auto &Wave : S.Runs)
      for (const auto &Runs : Wave)
        for (const VectorRun &R : Runs)
          if (R.Len >= S.Config.MinVectorRun) {
            ++St.VectorRuns;
            St.VectorNodes += static_cast<uint64_t>(R.Len);
          }
  return St;
}

} // namespace rt
} // namespace sds

//===- perfbench.cpp - Workload driver of the repository benchmark --------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//
//
// Runs one benchmark workload in one process and prints its raw
// measurements as a single JSON object on stdout; run.py turns them into
// the reported metrics (medians, percentiles, geomeans) and checks the
// reference results. Every layer is measured from outside: the driver
// times calls into the public entry points of deps, driver, runtime,
// engine, serve and store, and reads the counters those modules already
// expose. Workloads (see README.md):
//
//   compile  cold deps::analyzeKernel over the fast tier
//   solve    plan (inspect + schedule) and execute FS CSC, FS CSR, GS CSR
//            and left Cholesky on the five Table-4 profiles
//   serve    closed-loop clients against a serve::Server opened over a
//            store of cold-compiled kernels, Zipf-skewed keys
//
// Usage: perfbench --workload W --seed N --seconds S --trace 0|1
//                  --threads T --scratch DIR [--trace-out FILE]
//
// With --trace 1 the spans are kept in memory and, with --trace-out,
// written as a Chrome trace when the run ends.
//
//===----------------------------------------------------------------------===//

#include "sds/deps/Pipeline.h"
#include "sds/driver/Driver.h"
#include "sds/engine/Engine.h"
#include "sds/kernels/Kernels.h"
#include "sds/obs/Export.h"
#include "sds/obs/Trace.h"
#include "sds/presburger/BasicSet.h"
#include "sds/runtime/Kernels.h"
#include "sds/runtime/Matrix.h"
#include "sds/runtime/Schedule.h"
#include "sds/serve/Serve.h"
#include "sds/store/Store.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

using namespace sds;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// Wall seconds of one layer call. The call is wrapped in a benchmark span,
/// which records an event only when obs tracing is on (the traced run).
template <typename Fn> double timeLayer(const char *Span, Fn &&F) {
  obs::Span Sp(Span, "perfbench");
  Clock::time_point T0 = Clock::now();
  F();
  return secondsSince(T0);
}

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  int Threads = 4;
  std::string Scratch = ".";
  std::string TraceOut;
};

/// Everything one run measured, written out as JSON by emit().
struct Raw {
  std::vector<double> SetupS;
  std::vector<double> CompileS;
  /// Per family (e.g. "exec"), per cell (e.g. "fs_csc/af_shell3"):
  /// millisecond samples.
  std::map<std::string, std::map<std::string, std::vector<double>>> Cells;
  /// Named sample lists run.py reduces to percentiles (milliseconds).
  std::map<std::string, std::vector<double>> Samples;
  /// Scalar per-layer readings (counts, seconds, ratios).
  std::map<std::string, double> Values;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Failures;

  /// Record a reference check; a failure counts against failed_frac.
  void check(bool Ok, const std::string &What) {
    if (Ok)
      return;
    ++Failed;
    if (Failures.size() < 20)
      Failures.push_back(What);
  }
};

std::string quoted(const std::string &S) {
  std::string Q = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Q.push_back('\\');
    if (static_cast<unsigned char>(C) < 0x20)
      continue;
    Q.push_back(C);
  }
  Q.push_back('"');
  return Q;
}

std::string number(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.9g", V);
  return Buf;
}

std::string numbers(const std::vector<double> &V) {
  std::string S = "[";
  for (size_t I = 0; I < V.size(); ++I)
    S += (I ? "," : "") + number(V[I]);
  return S + "]";
}

void emit(const Args &A, const Raw &R) {
  struct rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  std::string S = "{";
  S += "\"workload\":" + quoted(A.Workload);
  S += ",\"seed\":" + std::to_string(A.Seed);
  S += ",\"threads\":" + std::to_string(A.Threads);
  S += ",\"trace\":" + std::string(A.Trace ? "true" : "false");
  S += ",\"peak_rss_mb\":" + number(RU.ru_maxrss / 1024.0);
  S += ",\"setup_s\":" + numbers(R.SetupS);
  S += ",\"compile_s\":" + numbers(R.CompileS);
  S += ",\"attempted\":" + std::to_string(R.Attempted);
  S += ",\"failed\":" + std::to_string(R.Failed);
  S += ",\"failures\":[";
  for (size_t I = 0; I < R.Failures.size(); ++I)
    S += (I ? "," : "") + quoted(R.Failures[I]);
  S += "],\"cells\":{";
  bool First = true;
  for (const auto &[Family, Cells] : R.Cells) {
    S += (First ? "" : ",") + quoted(Family) + ":{";
    First = false;
    bool FirstCell = true;
    for (const auto &[Cell, V] : Cells) {
      S += (FirstCell ? "" : ",") + quoted(Cell) + ":" + numbers(V);
      FirstCell = false;
    }
    S += "}";
  }
  S += "},\"samples\":{";
  First = true;
  for (const auto &[Name, V] : R.Samples) {
    S += (First ? "" : ",") + quoted(Name) + ":" + numbers(V);
    First = false;
  }
  S += "},\"values\":{";
  First = true;
  for (const auto &[Name, V] : R.Values) {
    S += (First ? "" : ",") + quoted(Name) + ":" + number(V);
    First = false;
  }
  S += "}}\n";
  std::fwrite(S.data(), 1, S.size(), stdout);
}

//===----------------------------------------------------------------------===//
// Layer readings shared by the workloads
//===----------------------------------------------------------------------===//

/// Trace-gated Presburger work counters (nonzero only in the traced run).
struct SolverCounters {
  uint64_t Solves, Pivots, BnbNodes, EmptinessChecks;

  static SolverCounters read() {
    return {obs::counter("simplex.solves").value(),
            obs::counter("simplex.pivots").value(),
            obs::counter("basicset.bnb_nodes").value(),
            obs::counter("basicset.emptiness_checks").value()};
  }
};

/// Presburger work of a series of cold analyses: the trace-gated
/// counters, plus the always-on verdict-cache and prefilter tallies, which
/// clearQueryCache() resets and so are banked before every clear.
struct SolverWork {
  SolverCounters Start = SolverCounters::read();
  uint64_t Hits = 0, Misses = 0, Rejects = 0, Tried = 0;

  void bank() {
    presburger::QueryCacheStats QC = presburger::queryCacheStats();
    presburger::PrefilterStats PF = presburger::prefilterStats();
    Hits += QC.Hits;
    Misses += QC.Misses;
    Rejects += PF.rejects();
    Tried += PF.rejects() + PF.Misses;
  }

  uint64_t queries() const { return Hits + Misses; }

  void record(Raw &R) const {
    SolverCounters End = SolverCounters::read();
    R.Values["presburger.solves"] += double(End.Solves - Start.Solves);
    R.Values["presburger.pivots"] += double(End.Pivots - Start.Pivots);
    R.Values["presburger.bnb_nodes"] += double(End.BnbNodes - Start.BnbNodes);
    R.Values["presburger.emptiness_checks"] +=
        double(End.EmptinessChecks - Start.EmptinessChecks);
    R.Values["presburger.cache_hit_rate"] =
        Hits + Misses ? double(Hits) / double(Hits + Misses) : 0.0;
    R.Values["presburger.prefilter_reject_rate"] =
        Tried ? double(Rejects) / double(Tried) : 0.0;
  }
};

uint64_t presburgerQueries() {
  presburger::QueryCacheStats QC = presburger::queryCacheStats();
  return QC.Hits + QC.Misses;
}

using KernelList = std::vector<std::pair<std::string, kernels::Kernel>>;

/// A series of cold analyses, each with a freshly cleared verdict cache.
struct ColdAnalysis {
  std::vector<deps::PipelineResult> Results;
  double WallS = 0;
  uint64_t Queries = 0; ///< Presburger queries the series issued
};

/// Analyze `Kernels` cold, recording per-kernel milliseconds under
/// `Raw.Cells["analyze"]`, the Figure-3 stage seconds and the Presburger
/// work.
ColdAnalysis coldAnalysis(const KernelList &Kernels, int Threads, Raw &R) {
  SolverWork Work;
  deps::PipelineOptions Opts;
  Opts.NumThreads = Threads;
  ColdAnalysis Out;
  Clock::time_point T0 = Clock::now();
  for (const auto &[Name, K] : Kernels) {
    presburger::clearQueryCache();
    double S = timeLayer("perfbench.deps.analyze", [&] {
      Out.Results.push_back(deps::analyzeKernel(K, Opts));
    });
    Work.bank();
    R.Cells["analyze"][Name].push_back(S * 1e3);
    for (const auto &[Stage, Sec] : Out.Results.back().StageSeconds)
      R.Values["deps.stage_s." + Stage] += Sec;
  }
  Out.WallS = secondsSince(T0);
  Out.Queries = Work.queries();
  Work.record(R);
  return Out;
}

/// Runtime checks per fast-tier kernel, from EXPERIMENTS.md Figure 8.
const std::map<std::string, unsigned> &expectedRuntimeChecks() {
  static const std::map<std::string, unsigned> M = {
      {"fs_csr", 1}, {"fs_csc", 1}, {"gs_csr", 2},
      {"spmv_csr", 0}, {"lchol_csc", 2}};
  return M;
}

void checkRuntimeChecks(const std::string &Name,
                        const deps::PipelineResult &P, Raw &R) {
  unsigned Got = P.count(deps::DepStatus::Runtime);
  ++R.Attempted;
  R.Values["deps.runtime_checks"] += Got;
  auto It = expectedRuntimeChecks().find(Name);
  R.check(It != expectedRuntimeChecks().end() && It->second == Got,
          Name + ": " + std::to_string(Got) + " runtime checks");
}

/// Edges of `Exact` missing from `G`, and edges of `G` absent from `Exact`.
std::pair<uint64_t, uint64_t> compareGraphs(const rt::DependenceGraph &G,
                                            const rt::DependenceGraph &Exact) {
  uint64_t Missing = 0, Spurious = 0;
  for (int V = 0; V < G.numNodes(); ++V) {
    std::span<const int> A = G.successors(V), B = Exact.successors(V);
    size_t I = 0, J = 0;
    while (I < A.size() || J < B.size()) {
      if (J == B.size() || (I < A.size() && A[I] < B[J])) {
        ++Spurious;
        ++I;
      } else if (I == A.size() || B[J] < A[I]) {
        ++Missing;
        ++J;
      } else {
        ++I;
        ++J;
      }
    }
  }
  return {Missing, Spurious};
}

KernelList fastTier() {
  return {{"fs_csr", kernels::forwardSolveCSR()},
          {"fs_csc", kernels::forwardSolveCSC()},
          {"gs_csr", kernels::gaussSeidelCSR()},
          {"spmv_csr", kernels::spmvCSR()},
          {"lchol_csc", kernels::leftCholeskyCSC()}};
}

//===----------------------------------------------------------------------===//
// compile
//===----------------------------------------------------------------------===//

void runCompile(const Args &A, Raw &R) {
  // Set-up is building the kernel IR: tens of microseconds, so the reported
  // figure is the median of many builds. Every build stays alive until
  // set-up ends, so each lands in fresh memory; rebuilding into one freed
  // block tied the figure to where that block happened to sit (medians
  // of 34 or 47 us from one process to the next).
  std::vector<KernelList> Builds;
  Builds.reserve(201);
  for (int Rep = 0; Rep < 201; ++Rep) {
    Clock::time_point T0 = Clock::now();
    KernelList Built = fastTier();
    R.SetupS.push_back(secondsSince(T0));
    Builds.push_back(std::move(Built));
  }
  KernelList Kernels = std::move(Builds.back());
  Builds.clear();

  uint64_t Queries = 0;
  auto Analyze = [&](const KernelList &Ks, Raw &P) {
    ColdAnalysis C = coldAnalysis(Ks, A.Threads, P);
    for (size_t I = 0; I < Ks.size(); ++I) {
      checkRuntimeChecks(Ks[I].first, C.Results[I], P);
      R.Cells["analyze"][Ks[I].first].push_back(
          P.Cells["analyze"][Ks[I].first].back());
    }
    R.Attempted += P.Attempted;
    R.Failed += P.Failed;
    R.Failures.insert(R.Failures.end(), P.Failures.begin(), P.Failures.end());
    Queries += C.Queries;
    return C.WallS;
  };
  // Whole passes over the suite until the window is spent (at least one).
  // The per-layer readings are those of the first pass.
  Clock::time_point Start = Clock::now();
  for (int Pass = 0; Pass == 0 || secondsSince(Start) < A.Seconds; ++Pass) {
    Raw P;
    double Wall = Analyze(Kernels, P);
    R.CompileS.push_back(Wall);
    if (Pass == 0)
      R.Values = P.Values;
  }
  // Cheap kernels are re-analysed (cold) until each has 5 samples or 4 s of
  // them, so per-kernel medians shed the first analysis's warm-up.
  for (const auto &KP : Kernels) {
    const std::vector<double> &S = R.Cells["analyze"][KP.first];
    while (S.size() < 5 && std::accumulate(S.begin(), S.end(), 0.0) < 4000) {
      Raw P;
      Analyze({KP}, P);
    }
  }
  R.Values["presburger.queries_timed"] = double(Queries);
}

//===----------------------------------------------------------------------===//
// solve
//===----------------------------------------------------------------------===//

/// One (kernel, matrix) cell: bindings, executor, reference output.
struct SolveCell {
  std::string Kernel, Matrix;
  const deps::PipelineResult *Analysis = nullptr;
  codegen::UFEnvironment Env;
  int N = 0;
  bool Exact = false; ///< executor must match serial bit-for-bit
  std::function<void()> Reset;
  std::function<void()> Serial;
  std::function<void(const rt::CompiledSchedule &)> Exec;
  std::function<const std::vector<double> &()> Output;
  std::function<rt::DependenceGraph()> Oracle; ///< exact graph, if any
  std::vector<double> Reference;
};

bool matches(const std::vector<double> &Got, const std::vector<double> &Ref,
             bool Exact) {
  if (Got.size() != Ref.size())
    return false;
  if (Exact)
    return Got.empty() ||
           std::memcmp(Got.data(), Ref.data(), Got.size() * sizeof(double)) ==
               0;
  for (size_t I = 0; I < Got.size(); ++I)
    if (!(std::fabs(Got[I] - Ref[I]) <=
          1e-9 * std::max(1.0, std::fabs(Ref[I]))))
      return false;
  return true;
}

std::vector<SolveCell>
wireSolveCells(const std::map<std::string, deps::PipelineResult> &Analyses,
               uint64_t Seed) {
  using namespace rt;
  std::vector<SolveCell> Cells;
  std::vector<MatrixProfile> Profiles = table4Profiles();
  for (size_t P = 0; P < Profiles.size(); ++P) {
    std::string MName = Profiles[P].Name.substr(0, Profiles[P].Name.find(' '));
    auto Full = std::make_shared<CSRMatrix>(
        generateFromProfile(Profiles[P], 0.02, Seed * 1000003 + P));
    auto Lower = std::make_shared<CSRMatrix>(lowerTriangle(*Full));
    auto LowerC = std::make_shared<CSCMatrix>(toCSC(*Lower));
    auto Ones = std::make_shared<std::vector<double>>(
        static_cast<size_t>(Full->N), 1.0);

    {
      SolveCell C;
      C.Kernel = "fs_csc";
      auto X = std::make_shared<std::vector<double>>();
      C.Env = driver::bindCSC(*LowerC);
      C.N = LowerC->N;
      C.Reset = [] {};
      C.Serial = [=] { forwardSolveCSCSerial(*LowerC, *Ones, *X); };
      C.Exec = [=](const CompiledSchedule &S) {
        forwardSolveCSCScheduled(*LowerC, *Ones, *X, S);
      };
      C.Output = [=]() -> const std::vector<double> & { return *X; };
      C.Oracle = [=] { return exactForwardSolveGraph(*LowerC); };
      C.Matrix = MName;
      Cells.push_back(std::move(C));
    }
    {
      SolveCell C;
      C.Kernel = "fs_csr";
      C.Exact = true;
      auto X = std::make_shared<std::vector<double>>();
      C.Env = driver::bindCSR(*Lower);
      C.N = Lower->N;
      C.Reset = [] {};
      C.Serial = [=] { forwardSolveCSRSerial(*Lower, *Ones, *X); };
      C.Exec = [=](const CompiledSchedule &S) {
        forwardSolveCSRScheduled(*Lower, *Ones, *X, S);
      };
      C.Output = [=]() -> const std::vector<double> & { return *X; };
      C.Matrix = MName;
      Cells.push_back(std::move(C));
    }
    {
      SolveCell C;
      C.Kernel = "gs_csr";
      C.Exact = true;
      auto X = std::make_shared<std::vector<double>>(
          static_cast<size_t>(Full->N), 0.0);
      C.Env = driver::bindCSR(*Full, Full->diagonalPositions());
      C.N = Full->N;
      C.Reset = [=] { std::fill(X->begin(), X->end(), 0.0); };
      C.Serial = [=] { gaussSeidelCSRSerial(*Full, *Ones, *X); };
      C.Exec = [=](const CompiledSchedule &S) {
        gaussSeidelCSRScheduled(*Full, *Ones, *X, S);
      };
      C.Output = [=]() -> const std::vector<double> & { return *X; };
      C.Matrix = MName;
      Cells.push_back(std::move(C));
    }
    {
      SolveCell C;
      C.Kernel = "lchol_csc";
      C.Exact = true;
      auto L = std::make_shared<CSCMatrix>(*LowerC);
      auto Original = std::make_shared<std::vector<double>>(L->Val);
      auto Prune = std::make_shared<PruneSets>(buildPruneSets(*L));
      C.Env = driver::bindCSC(*L, Prune.get());
      C.N = L->N;
      C.Reset = [=] { L->Val = *Original; };
      C.Serial = [=] { leftCholeskyCSCSerial(*L); };
      C.Exec = [=](const CompiledSchedule &S) {
        leftCholeskyCSCScheduled(*L, S);
      };
      C.Output = [=]() -> const std::vector<double> & { return L->Val; };
      C.Oracle = [=] { return exactCholeskyGraph(*L); };
      C.Matrix = MName;
      Cells.push_back(std::move(C));
    }
  }
  for (SolveCell &C : Cells)
    C.Analysis = &Analyses.at(C.Kernel);
  return Cells;
}

void runSolve(const Args &A, Raw &R) {
  // Set-up: cold analysis of the four kernels, matrix generation, and the
  // serial reference run of every cell (also the serial timing).
  Clock::time_point SetupT0 = Clock::now();
  KernelList Kernels = {{"fs_csc", kernels::forwardSolveCSC()},
                        {"fs_csr", kernels::forwardSolveCSR()},
                        {"gs_csr", kernels::gaussSeidelCSR()},
                        {"lchol_csc", kernels::leftCholeskyCSC()}};
  ColdAnalysis Compiled = coldAnalysis(Kernels, A.Threads, R);
  R.CompileS.push_back(Compiled.WallS);
  std::map<std::string, deps::PipelineResult> Analyses;
  for (size_t I = 0; I < Kernels.size(); ++I) {
    checkRuntimeChecks(Kernels[I].first, Compiled.Results[I], R);
    Analyses.emplace(Kernels[I].first, std::move(Compiled.Results[I]));
  }
  std::vector<SolveCell> Cells = wireSolveCells(Analyses, A.Seed);
  for (SolveCell &C : Cells) {
    std::string Name = C.Kernel + "/" + C.Matrix;
    for (int Rep = 0; Rep < 3; ++Rep) {
      C.Reset();
      R.Cells["serial"][Name].push_back(
          timeLayer("perfbench.runtime.serial", C.Serial) * 1e3);
    }
    C.Reference = C.Output();
  }
  R.SetupS.push_back(secondsSince(SetupT0));

  // Timed phase: rounds over all cells; each round plans the cell afresh
  // (inspect + schedule) and runs its executor for a slice of the window.
  rt::ScheduleConfig SC;
  SC.NumThreads = A.Threads;
  driver::InspectorOptions IO;
  IO.NumThreads = A.Threads;
  uint64_t Queries0 = presburgerQueries();
  const double SliceS = A.Seconds / (3.0 * Cells.size());
  Clock::time_point Start = Clock::now();
  for (int Round = 0; Round == 0 || secondsSince(Start) < A.Seconds; ++Round) {
    for (SolveCell &C : Cells) {
      std::string Name = C.Kernel + "/" + C.Matrix;
      std::unique_ptr<driver::InspectionResult> Insp;
      double InspS = timeLayer("perfbench.driver.run_inspectors", [&] {
        Insp = std::make_unique<driver::InspectionResult>(driver::runInspectors(
            C.Kernel, C.Analysis->Deps, C.Env, C.N, IO));
      });
      rt::CompiledSchedule Sched;
      double SchedS = timeLayer("perfbench.runtime.build_schedule", [&] {
        Sched = rt::buildSchedule(Insp->Graph, SC);
      });
      ++R.Attempted;
      R.check(rt::certifySchedule(Insp->Graph, Sched),
              Name + ": schedule fails certification");
      R.Cells["inspect"][Name].push_back(InspS * 1e3);
      R.Cells["schedule"][Name].push_back(SchedS * 1e3);
      R.Cells["plan"][Name].push_back((InspS + SchedS) * 1e3);
      if (Round == 0) {
        // Deterministic counts and the oracle comparison, once per cell.
        rt::CompiledScheduleStats St = rt::describeSchedule(Sched);
        R.Values["driver.visits"] += double(Insp->InspectorVisits);
        R.Values["driver.edges"] += double(Insp->Graph.numEdges());
        R.Values["runtime.waves"] += St.Base.NumWaves;
        R.Values["runtime.chunks"] += double(St.NumChunks);
        R.Cells["parallelism"][Name].push_back(St.Base.achievedParallelism());
        if (C.Oracle) {
          auto [Missing, Spurious] = compareGraphs(Insp->Graph, C.Oracle());
          R.check(Missing == 0, Name + ": inspector graph misses " +
                                    std::to_string(Missing) + " exact edges");
          R.Values["driver.spurious_edges." + C.Kernel] += double(Spurious);
        }
      }
      Clock::time_point SliceT0 = Clock::now();
      for (int Run = 0; Run < 4 || secondsSince(SliceT0) < SliceS; ++Run) {
        C.Reset();
        double S = timeLayer("perfbench.runtime.execute",
                             [&] { C.Exec(Sched); });
        ++R.Attempted;
        R.check(matches(C.Output(), C.Reference, C.Exact),
                Name + ": executor output differs from serial");
        R.Cells["exec"][Name].push_back(S * 1e3);
      }
    }
  }
  R.Values["presburger.queries_timed"] =
      double(presburgerQueries() - Queries0);
}

//===----------------------------------------------------------------------===//
// serve
//===----------------------------------------------------------------------===//

/// One (kernel, matrix) key of the serve pool.
struct ServeKey {
  std::string Kernel;
  serve::ServeRequest Req;
  std::shared_ptr<const rt::CSCMatrix> LowerC; ///< fs_csc keys: oracle input
};

const KernelList &serveKernels() {
  static const KernelList K = {
      {"fs_csr", kernels::forwardSolveCSR()},
      {"fs_csc", kernels::forwardSolveCSC()},
      {"gs_csr", kernels::gaussSeidelCSR()}};
  return K;
}

/// About twice the engine's default matrix-tier capacity in keys: every
/// serve kernel bound to each generated matrix.
std::vector<ServeKey> makeServePool(uint64_t Seed) {
  const size_t NumKernels = serveKernels().size();
  const size_t NumMatrices =
      (2 * engine::EngineOptions().MaxMatrixPlans + NumKernels - 1) /
      NumKernels;
  std::mt19937_64 Rng(Seed * 7919 + 17);
  std::vector<ServeKey> Keys;
  for (size_t M = 0; M < NumMatrices; ++M) {
    // One shape for every matrix, so warm and cold costs do not depend on
    // which keys the seed makes popular; the seed draws the structure. At
    // n = 2000 the warm path's hashing outweighs thread hand-off jitter.
    rt::GeneratorConfig G;
    G.N = 2000;
    G.AvgNnzPerRow = 8;
    G.Bandwidth = 48;
    G.Seed = Rng();
    auto Full = std::make_shared<rt::CSRMatrix>(rt::generateSPDLike(G));
    auto Lower = std::make_shared<rt::CSRMatrix>(rt::lowerTriangle(*Full));
    auto LowerC = std::make_shared<rt::CSCMatrix>(rt::toCSC(*Lower));
    for (const auto &[Name, K] : serveKernels()) {
      ServeKey SK;
      SK.Kernel = Name;
      SK.Req.Kernel = K;
      if (Name == "fs_csr") {
        SK.Req.Env = driver::bindCSR(*Lower);
        SK.Req.N = Lower->N;
      } else if (Name == "fs_csc") {
        SK.Req.Env = driver::bindCSC(*LowerC);
        SK.Req.N = LowerC->N;
        SK.LowerC = LowerC;
      } else {
        SK.Req.Env = driver::bindCSR(*Full, Full->diagonalPositions());
        SK.Req.N = Full->N;
      }
      Keys.push_back(std::move(SK));
    }
  }
  return Keys;
}

serve::ServerOptions serverOptions(const std::string &StoreRoot, int Threads) {
  serve::ServerOptions SO;
  SO.StoreRoot = StoreRoot;
  // One worker: with two, cold fills on both workers at once made the tail
  // bimodal (p99 1.3 ms or 2.5-3.6 ms on the same seed), too unsteady to
  // gate. Two clients still queue behind each other.
  SO.NumWorkers = 1;
  SO.Engine.Analysis.NumThreads = Threads;
  return SO;
}

void runServe(const Args &A, Raw &R) {
  const int Clients = std::clamp(A.Threads - 1, 1, 2);
  std::string StoreRoot =
      (std::filesystem::path(A.Scratch) / "serve-store").string();
  std::vector<ServeKey> Keys;
  std::unique_ptr<serve::Server> Server;
  // Set-up, repeated for a steady median: generate the key pool, compile
  // the three kernels cold into a fresh store, open a fresh server on it.
  for (int Rep = 0; Rep < 3; ++Rep) {
    Server.reset();
    std::filesystem::remove_all(StoreRoot);
    Clock::time_point T0 = Clock::now();
    Keys = makeServePool(A.Seed);
    presburger::clearQueryCache();
    SolverWork Work;
    Clock::time_point C0 = Clock::now();
    {
      // A cold fill per kernel: analysis plus one plan, published to the
      // store (its time stands for the kernel's analysis in this workload).
      // The pool is matrix-major: its first keys are the first matrix
      // bound to each kernel.
      serve::Server Cold(serverOptions(StoreRoot, A.Threads));
      for (size_t K = 0; K < serveKernels().size(); ++K) {
        const ServeKey &SK = Keys[K];
        serve::ServeResponse Resp;
        double S = timeLayer("perfbench.serve.cold_compile",
                             [&] { Resp = Cold.handle(SK.Req); });
        R.Cells["analyze"][SK.Kernel].push_back(S * 1e3);
        ++R.Attempted;
        R.check(Resp.St.ok() && Resp.O == serve::Outcome::Cold,
                SK.Kernel + ": set-up compile was not a cold fill");
      }
    }
    R.CompileS.push_back(secondsSince(C0));
    Work.bank();
    if (Rep == 0)
      Work.record(R);
    Server =
        std::make_unique<serve::Server>(serverOptions(StoreRoot, A.Threads));
    R.SetupS.push_back(secondsSince(T0));
  }

  // Zipf-skewed popularity over a seed-shuffled matrix order, the kernel
  // uniform (so every popularity level has the same kernel mix), and a
  // seed-derived request sequence the clients consume in order.
  const size_t NumKernels = serveKernels().size();
  const size_t NumMatrices = Keys.size() / NumKernels;
  std::mt19937_64 Rng(A.Seed * 104729 + 3);
  std::vector<size_t> Rank(NumMatrices);
  for (size_t I = 0; I < Rank.size(); ++I)
    Rank[I] = I;
  std::shuffle(Rank.begin(), Rank.end(), Rng);
  std::vector<double> Weight(NumMatrices);
  for (size_t I = 0; I < Rank.size(); ++I)
    Weight[Rank[I]] = 1.0 / std::pow(double(I + 1), 0.9);
  std::discrete_distribution<size_t> PickMatrix(Weight.begin(), Weight.end());
  std::vector<uint32_t> Sequence(1 << 20);
  for (uint32_t &K : Sequence)
    K = static_cast<uint32_t>(PickMatrix(Rng) * NumKernels +
                              Rng() % NumKernels);

  struct ClientLog {
    std::vector<double> Latency, Queue, Service, WarmService, ColdService;
    uint64_t Errors = 0;
  };
  std::vector<ClientLog> Logs(Clients);
  std::atomic<uint64_t> Next{0};
  serve::ServerStats S0 = Server->stats();
  engine::EngineStats E0 = Server->engine().stats();
  uint64_t Queries0 = presburgerQueries();

  Clock::time_point Start = Clock::now();
  Clock::time_point End =
      Start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(A.Seconds));
  std::vector<std::thread> Threads;
  for (int C = 0; C < Clients; ++C)
    Threads.emplace_back([&, C] {
      ClientLog &Log = Logs[C];
      while (Clock::now() < End) {
        uint64_t I = Next.fetch_add(1, std::memory_order_relaxed);
        const ServeKey &SK = Keys[Sequence[I % Sequence.size()]];
        Clock::time_point T0 = Clock::now();
        obs::Span Sp("perfbench.serve.request", "perfbench");
        serve::ServeResponse Resp = Server->submit(SK.Req).get();
        Sp.end();
        double Ms = secondsSince(T0) * 1e3;
        if (!Resp.St.ok() || !Resp.Plan) {
          ++Log.Errors;
          continue;
        }
        Log.Latency.push_back(Ms);
        Log.Queue.push_back(Resp.QueueMs);
        Log.Service.push_back(Resp.ServiceMs);
        if (Resp.O == serve::Outcome::Warm)
          Log.WarmService.push_back(Resp.ServiceMs);
        else if (Resp.O == serve::Outcome::Cold)
          Log.ColdService.push_back(Resp.ServiceMs);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  Server->drain();
  double WindowS = secondsSince(Start);
  R.Values["presburger.queries_timed"] =
      double(presburgerQueries() - Queries0);

  serve::ServerStats S1 = Server->stats();
  engine::EngineStats E1 = Server->engine().stats();
  uint64_t Submitted = S1.Submitted - S0.Submitted;
  uint64_t Completed = S1.Completed - S0.Completed;
  uint64_t Shed = (S1.ShedQueue - S0.ShedQueue) +
                  (S1.ShedDeadline - S0.ShedDeadline);
  R.Attempted += Submitted;
  R.Values["serve.rps"] = double(Completed) / WindowS;
  R.Failed += Shed + (S1.Errors - S0.Errors);
  uint64_t ClientErrors = 0;
  for (ClientLog &Log : Logs) {
    ClientErrors += Log.Errors;
    auto Append = [](std::vector<double> &Dst, const std::vector<double> &V) {
      Dst.insert(Dst.end(), V.begin(), V.end());
    };
    Append(R.Cells["request"]["serve"], Log.Latency);
    Append(R.Samples["serve.queue_ms"], Log.Queue);
    Append(R.Samples["serve.service_ms"], Log.Service);
    Append(R.Samples["serve.warm_service_ms"], Log.WarmService);
    Append(R.Samples["serve.cold_service_ms"], Log.ColdService);
  }
  R.check(Completed + Shed == Submitted,
          "completed + shed != submitted (" + std::to_string(Completed) +
              " + " + std::to_string(Shed) + " vs " +
              std::to_string(Submitted) + ")");
  R.check(ClientErrors == 0,
          std::to_string(ClientErrors) + " requests failed at the client");
  R.check(R.Values["presburger.queries_timed"] == 0,
          "Presburger queries issued in the timed window");
  R.Values["serve.warm_frac"] =
      Completed ? double(S1.Warm - S0.Warm) / double(Completed) : 0.0;
  R.Values["serve.cold"] = double(S1.Cold - S0.Cold);
  R.Values["serve.store_warm"] = double(S1.StoreWarm - S0.StoreWarm);
  R.Values["serve.coalesced"] = double(S1.Coalesced - S0.Coalesced);
  R.Values["engine.matrix_warm"] = double(E1.MatrixWarm - E0.MatrixWarm);
  R.Values["engine.matrix_cold"] = double(E1.MatrixCold - E0.MatrixCold);
  R.Values["engine.matrix_evicted"] =
      double(E1.MatrixEvicted - E0.MatrixEvicted);
  R.Values["engine.kernel_loaded"] = double(E1.KernelLoaded - E0.KernelLoaded);
  if (store::Store *St = Server->persistentStore()) {
    store::StoreStats SS = St->stats();
    R.Values["store.hits"] = double(SS.Hits);
    R.Values["store.misses"] = double(SS.Misses);
    R.Values["store.puts"] = double(SS.Puts);
  }

  // After the window: every key's plan certifies against its graph; the
  // pool's inspector totals and fs_csc spurious edges are seed-determined.
  for (const ServeKey &SK : Keys) {
    serve::ServeResponse Resp = Server->handle(SK.Req);
    if (!Resp.St.ok() || !Resp.Plan) {
      R.check(false, SK.Kernel + ": post-window request failed");
      continue;
    }
    const rt::DependenceGraph &G = Resp.Plan->Inspection.Graph;
    R.check(rt::certifySchedule(G, Resp.Plan->Schedule),
            SK.Kernel + ": served plan fails certification");
    R.Values["driver.visits"] += double(Resp.Plan->Inspection.InspectorVisits);
    R.Values["driver.edges"] += double(G.numEdges());
    R.Cells["inspect"][SK.Kernel].push_back(Resp.Plan->Inspection.Seconds *
                                            1e3);
    if (SK.LowerC) {
      auto [Missing, Spurious] =
          compareGraphs(G, rt::exactForwardSolveGraph(*SK.LowerC));
      R.check(Missing == 0, "fs_csc: served graph misses exact edges");
      R.Values["driver.spurious_edges.fs_csc"] += double(Spurious);
    }
  }
  Server.reset();
  std::filesystem::remove_all(StoreRoot);
}

bool parseArgs(int argc, char **argv, Args &A) {
  for (int I = 1; I + 1 < argc; I += 2) {
    std::string K = argv[I], V = argv[I + 1];
    if (K == "--workload")
      A.Workload = V;
    else if (K == "--seed")
      A.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (K == "--seconds")
      A.Seconds = std::atof(V.c_str());
    else if (K == "--trace")
      A.Trace = V == "1";
    else if (K == "--threads")
      A.Threads = std::max(1, std::atoi(V.c_str()));
    else if (K == "--scratch")
      A.Scratch = V;
    else if (K == "--trace-out")
      A.TraceOut = V;
    else
      return false;
  }
  return A.Workload == "compile" || A.Workload == "solve" ||
         A.Workload == "serve";
}

} // namespace

int main(int argc, char **argv) {
  Args A;
  if (!parseArgs(argc, argv, A)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload compile|solve|serve --seed N "
                 "--seconds S --trace 0|1 --threads T --scratch DIR "
                 "[--trace-out FILE]\n");
    return 2;
  }
  if (A.Trace) {
    // Bound the span buffer: executor waves emit one event each.
    obs::setEventCapacity(200000);
    obs::setEnabled(true);
  }
  Raw R;
  if (A.Workload == "compile")
    runCompile(A, R);
  else if (A.Workload == "solve")
    runSolve(A, R);
  else
    runServe(A, R);
  if (A.Trace && !A.TraceOut.empty() && !obs::writeChromeTrace(A.TraceOut))
    std::fprintf(stderr, "perfbench: cannot write %s\n", A.TraceOut.c_str());
  emit(A, R);
  return 0;
}

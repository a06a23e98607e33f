//===- fault_injection.cpp - Guard fault-injection campaign ----------------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
// Adversarial robustness harness for the guard subsystem: for every kernel
// of Table 2, corrupt each bound index array with each corruption class
// (swap, sortedness break, duplicate, off-by-one, out-of-range, truncate)
// and demand the guard contract — every injected fault is either *detected*
// by property validation or *harmless* (the schedule derived from the
// simplified inspectors still honors the baseline dependence graph of
// the corrupted input). Any "silent wrong schedule" outcome fails the run.
//
// The same adversary is then pointed at the storage layer: each kernel's
// serialized CompiledKernel blob is corrupted byte-wise (bit flips, byte
// edits, insert/delete, truncation) and artifact::deserialize must either
// reject the mutant or decode it bit-identically. Any "silent accept"
// fails the run.
//
// Finally the *persistent* store gets the same treatment: each kernel's
// artifact is published into a scratch sds::store::Store and attacked with
// torn writes, at-rest bit flips, stale schema envelopes, blocked
// quarantines, and kill-mid-write debris; every trial must either serve
// the pristine bytes or fall back to a clean miss. Any "silent wrong
// serve" fails the run.
//
//   fault_injection                 # full campaign, table + verdict
//   fault_injection --n 150        # matrix dimension (default 120)
//   fault_injection --seeds 2      # corruption seeds per (array, kind)
//   fault_injection --blob-seeds 32   # blob mutants per corruption class
//   fault_injection --store-seeds 8   # store trials per StoreFaultKind
//   fault_injection --infer-seeds 4   # misspeculation trials per (array,
//                                     # kind); 0 skips the campaign
//
// The misspeculation campaign re-analyzes each kernel with its declared
// properties stripped and only profiler-inferred (speculative) properties
// in play, then corrupts the arrays *after* inference: every confirmed
// property is now a potential lie, and the remedy machinery — inferred
// citations validated in every guard mode, failed remedies revoking
// exactly the citing dependences — must keep the served schedule correct.
// Any "silent wrong schedule" outcome fails the run.
//   fault_injection --kernel ic0   # only kernels whose key contains "ic0"
//   fault_injection -v             # print every trial
//   SDS_HEAVY=0 fault_injection    # skip the minutes-long IC0/ILU0 analyses
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "sds/artifact/Artifact.h"
#include "sds/guard/FaultInjection.h"

#include <cstdio>
#include <cstring>
#include <filesystem>

using namespace sds;
using namespace sds::rt;

namespace {

struct FaultTarget {
  std::string Key;
  bool Heavy = false;
  kernels::Kernel Kernel;
  codegen::UFEnvironment Env;
  int N = 0;
};

std::vector<FaultTarget> faultTargets(int N, bool Heavy) {
  CSRMatrix A = generateSPDLike({N, 6, 12, 21});
  CSRMatrix Lower = lowerTriangle(A);
  CSCMatrix L = toCSC(Lower);
  PruneSets Prune = buildPruneSets(L);

  std::vector<FaultTarget> Out;
  auto Add = [&](std::string Key, bool IsHeavy, kernels::Kernel K,
                 codegen::UFEnvironment Env, int Iters) {
    if (IsHeavy && !Heavy)
      return;
    Out.push_back(
        {std::move(Key), IsHeavy, std::move(K), std::move(Env), Iters});
  };
  Add("gs_csr", false, kernels::gaussSeidelCSR(),
      driver::bindCSR(A, A.diagonalPositions()), A.N);
  Add("ilu0_csr", true, kernels::incompleteLU0CSR(),
      driver::bindCSR(A, A.diagonalPositions()), A.N);
  Add("ic0_csc", true, kernels::incompleteCholeskyCSC(), driver::bindCSC(L),
      L.N);
  Add("fs_csc", false, kernels::forwardSolveCSC(), driver::bindCSC(L), L.N);
  Add("fs_csr", false, kernels::forwardSolveCSR(), driver::bindCSR(Lower),
      Lower.N);
  Add("spmv_csr", false, kernels::spmvCSR(), driver::bindCSR(A), A.N);
  Add("lchol_csc", false, kernels::leftCholeskyCSC(),
      driver::bindCSC(L, &Prune), L.N);
  return Out;
}

} // namespace

int main(int argc, char **argv) {
  bench::ObsSession Obs;
  int N = 120;
  unsigned Seeds = 1;
  unsigned BlobSeeds = 8;
  unsigned StoreSeeds = 4;
  unsigned InferSeeds = 1;
  bool Verbose = false;
  std::string KernelFilter;
  for (int I = 1; I < argc; ++I) {
    if (!std::strcmp(argv[I], "--n") && I + 1 < argc)
      N = std::atoi(argv[++I]);
    else if (!std::strcmp(argv[I], "--seeds") && I + 1 < argc)
      Seeds = static_cast<unsigned>(std::atoi(argv[++I]));
    else if (!std::strcmp(argv[I], "--blob-seeds") && I + 1 < argc)
      BlobSeeds = static_cast<unsigned>(std::atoi(argv[++I]));
    else if (!std::strcmp(argv[I], "--store-seeds") && I + 1 < argc)
      StoreSeeds = static_cast<unsigned>(std::atoi(argv[++I]));
    else if (!std::strcmp(argv[I], "--infer-seeds") && I + 1 < argc)
      InferSeeds = static_cast<unsigned>(std::atoi(argv[++I]));
    else if (!std::strcmp(argv[I], "--kernel") && I + 1 < argc)
      KernelFilter = argv[++I];
    else if (!std::strcmp(argv[I], "-v"))
      Verbose = true;
  }
  if (N < 8 || Seeds < 1 || BlobSeeds < 1 || StoreSeeds < 1) {
    std::fprintf(stderr,
                 "--n must be >= 8; --seeds, --blob-seeds and --store-seeds "
                 ">= 1\n");
    return 1;
  }
  int Threads = bench::parseThreads(argc, argv);
  bool Heavy = bench::envHeavy();

  std::printf("Fault-injection campaign (n=%d, seeds=%u, threads=%d%s)\n\n",
              N, Seeds, Threads, Heavy ? "" : ", heavy kernels skipped");
  std::printf("%-10s %8s %9s %9s %10s %12s\n", "Kernel", "trials",
              "injected", "detected", "tolerated", "silent-wrong");

  bench::BenchReport Report("fault_injection");
  unsigned TotalTrials = 0, TotalSilent = 0;
  unsigned BlobTrials = 0, BlobSilent = 0;
  unsigned StoreTrials = 0, StoreSilent = 0;
  unsigned InferTrials = 0, InferSilent = 0, InferRevoked = 0;
  std::string BlobTable, StoreTable, InferTable;
  const std::string StoreRoot = "fault_store_trials";
  for (FaultTarget &T : faultTargets(N, Heavy)) {
    if (!KernelFilter.empty() && T.Key.find(KernelFilter) == std::string::npos)
      continue;
    std::fprintf(stderr, "[fault] analyzing %s...\n", T.Key.c_str());
    deps::PipelineResult Analysis = deps::analyzeKernel(T.Kernel);
    std::vector<guard::FaultSpec> Specs = guard::faultCampaign(T.Env, Seeds);
    guard::CampaignResult R = guard::runCampaign(Analysis, T.Kernel.Properties,
                                                 T.Env, T.N, Specs, Threads);
    if (Verbose)
      for (const guard::FaultTrial &Trial : R.Trials)
        std::printf("  %s\n", Trial.str().c_str());
    std::printf("%-10s %8zu %9u %9u %10u %12u\n", T.Key.c_str(),
                R.Trials.size(), R.injected(), R.detected(), R.tolerated(),
                R.silentWrong());
    Report.set(T.Key + "_trials", static_cast<uint64_t>(R.Trials.size()));
    Report.set(T.Key + "_detected", static_cast<uint64_t>(R.detected()));
    Report.set(T.Key + "_silent_wrong",
               static_cast<uint64_t>(R.silentWrong()));
    TotalTrials += static_cast<unsigned>(R.Trials.size());
    TotalSilent += R.silentWrong();

    // Same adversary, storage layer: mutate this kernel's serialized
    // artifact and demand reject-or-bit-identical from the loader.
    guard::BlobCampaignResult B = guard::runBlobCampaign(
        artifact::fromAnalysis(Analysis), BlobSeeds);
    if (Verbose)
      for (const guard::BlobTrial &Trial : B.Trials)
        std::printf("  [blob] %s\n", Trial.str().c_str());
    char Line[128];
    std::snprintf(Line, sizeof(Line), "%-10s %8zu %9u %9u %10u %12u\n",
                  T.Key.c_str(), B.Trials.size(), B.mutated(), B.rejected(),
                  B.tolerated(), B.silentAccepts());
    BlobTable += Line;
    Report.set(T.Key + "_blob_trials", static_cast<uint64_t>(B.Trials.size()));
    Report.set(T.Key + "_blob_rejected", static_cast<uint64_t>(B.rejected()));
    Report.set(T.Key + "_blob_silent_accept",
               static_cast<uint64_t>(B.silentAccepts()));
    BlobTrials += static_cast<unsigned>(B.Trials.size());
    BlobSilent += B.silentAccepts();

    // And the persistent tier: publish the artifact into a scratch store,
    // corrupt the disk underneath it, and demand pristine-or-fallback.
    guard::StoreCampaignResult S = guard::runStoreCampaign(
        artifact::fromAnalysis(Analysis), StoreRoot + "/" + T.Key, StoreSeeds);
    if (Verbose)
      for (const guard::StoreTrial &Trial : S.Trials)
        std::printf("  [store] %s\n", Trial.str().c_str());
    char SLine[128];
    std::snprintf(SLine, sizeof(SLine), "%-10s %8zu %9u %9u %10u %12u\n",
                  T.Key.c_str(), S.Trials.size(), S.injected(),
                  S.servedPristine(), S.fellBack(), S.silentWrongs());
    StoreTable += SLine;
    Report.set(T.Key + "_store_trials", static_cast<uint64_t>(S.Trials.size()));
    Report.set(T.Key + "_store_silent_wrong",
               static_cast<uint64_t>(S.silentWrongs()));
    StoreTrials += static_cast<unsigned>(S.Trials.size());
    StoreSilent += S.silentWrongs();

    // Misspeculation: strip declarations, speculate from the profiler's
    // confirmed set, corrupt post-inference, and demand remedy-or-correct.
    if (InferSeeds) {
      std::fprintf(stderr, "[fault] misspeculation campaign for %s...\n",
                   T.Key.c_str());
      guard::InferCampaignResult IC = guard::runInferCampaign(
          T.Kernel, T.Env, T.N, InferSeeds, Threads);
      for (const guard::InferTrial &Trial : IC.Trials)
        if (Trial.silentWrong())
          std::printf("  [infer SILENT-WRONG] %s\n", Trial.str().c_str());
        else if (Verbose)
          std::printf("  [infer] %s\n", Trial.str().c_str());
      char ILine[160];
      std::snprintf(ILine, sizeof(ILine),
                    "%-10s %8zu %9u %9u %9u %10u %12u\n", T.Key.c_str(),
                    IC.Trials.size(), IC.injected(), IC.remedyTripped(),
                    IC.revokedDeps(), IC.tolerated(), IC.silentWrong());
      InferTable += ILine;
      Report.set(T.Key + "_infer_trials",
                 static_cast<uint64_t>(IC.Trials.size()));
      Report.set(T.Key + "_infer_remedy_tripped",
                 static_cast<uint64_t>(IC.remedyTripped()));
      Report.set(T.Key + "_infer_deps_revoked",
                 static_cast<uint64_t>(IC.revokedDeps()));
      Report.set(T.Key + "_infer_silent_wrong",
                 static_cast<uint64_t>(IC.silentWrong()));
      InferTrials += static_cast<unsigned>(IC.Trials.size());
      InferSilent += IC.silentWrong();
      InferRevoked += IC.revokedDeps();
    }
  }
  if (!StoreSilent) { // failed trial dirs stay behind for post-mortem
    std::error_code CleanupEC;
    std::filesystem::remove_all(StoreRoot, CleanupEC);
  }

  std::printf("\nSerialized-artifact corruption (%u mutants per class)\n\n",
              BlobSeeds);
  std::printf("%-10s %8s %9s %9s %10s %12s\n%s", "Kernel", "trials",
              "mutated", "rejected", "tolerated", "silent-accept",
              BlobTable.c_str());

  std::printf("\nPersistent-store corruption (%u trials per fault class)\n\n",
              StoreSeeds);
  std::printf("%-10s %8s %9s %9s %10s %12s\n%s", "Kernel", "trials",
              "injected", "pristine", "fell-back", "silent-wrong",
              StoreTable.c_str());

  if (InferSeeds) {
    std::printf("\nMisspeculation campaign (declarations stripped, %u "
                "trial(s) per (array, kind))\n\n",
                InferSeeds);
    std::printf("%-10s %8s %9s %9s %9s %10s %12s\n%s", "Kernel", "trials",
                "injected", "remedied", "revoked", "tolerated",
                "silent-wrong", InferTable.c_str());
  }

  Report.set("total_trials", static_cast<uint64_t>(TotalTrials));
  Report.set("total_silent_wrong", static_cast<uint64_t>(TotalSilent));
  Report.set("total_blob_trials", static_cast<uint64_t>(BlobTrials));
  Report.set("total_blob_silent_accept", static_cast<uint64_t>(BlobSilent));
  Report.set("total_store_trials", static_cast<uint64_t>(StoreTrials));
  Report.set("total_store_silent_wrong", static_cast<uint64_t>(StoreSilent));
  Report.set("total_infer_trials", static_cast<uint64_t>(InferTrials));
  Report.set("total_infer_deps_revoked", static_cast<uint64_t>(InferRevoked));
  Report.set("total_infer_silent_wrong", static_cast<uint64_t>(InferSilent));
  Report.write();

  if (TotalSilent || BlobSilent || StoreSilent || InferSilent) {
    std::printf("\nFAIL: %u silent wrong-schedule, %u silent-accept, "
                "%u silent wrong-serve and %u misspeculation silent-wrong "
                "outcome(s) — the guard contract is broken\n",
                TotalSilent, BlobSilent, StoreSilent, InferSilent);
    return 1;
  }
  std::printf("\nOK: every injected fault was detected or tolerated "
              "(%u array trials, %u blob trials, %u store trials, "
              "%u misspeculation trials)\n",
              TotalTrials, BlobTrials, StoreTrials, InferTrials);
  return 0;
}

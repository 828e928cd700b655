//===- perfbench/src/main.cpp - Benchmark entry point ---------------------===//
//
//   perfbench gen --workload W --seed N --inputs DIR
//   perfbench run --workload W --seed N --seconds S --trace 0|1
//                 --inputs DIR --work DIR [--commit ID]
//
// `gen` writes (or finds cached) the seed's inputs. `run` measures one
// workload and prints, last on stdout, one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. Lines above it stamp
// the machine and build and state sample counts. Exit status is 0 only
// when every correctness gate passed. perfbench/run.py builds the binary
// and calls both steps; it is the entry point to use.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Inputs.h"

#include "linalg/Kernels.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <sys/resource.h>
#include <unistd.h>

using namespace perfbench;

namespace {

struct MetricDef {
  const char *Name;
  const char *Unit;
};

/// End-to-end metrics, printed with --trace 0 (BENCHMARK.json mirrors
/// this table).
const MetricDef EndToEnd[] = {
    {"qps", "1/s"},          {"lat_p50_ms", "ms"},
    {"lat_p99_ms", "ms"},    {"certified_frac", "ratio"},
    {"ok_frac", "ratio"},    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

/// Per-layer metrics, printed with --trace 1. A layer a workload does not
/// exercise reads 0 there.
const MetricDef PerLayer[] = {
    {"linalg.gemm_gflops", "GFLOP/s"},
    {"linalg.fused_frac", "ratio"},
    {"linalg.pack_sharing", "ratio"},
    {"linalg.wave_timeouts", "count"},
    {"core.verify_ms_p50", "ms"},
    {"core.iterations_p50", "count"},
    {"core.phase2_share", "ratio"},
    {"domains.consolidate_share", "ratio"},
    {"core.containment_frac", "ratio"},
    {"nn.pgd_share", "ratio"},
    {"nn.refuted_frac", "ratio"},
    {"support.worker_busy_frac", "ratio"},
    {"core.split_calls", "count"},
    {"core.split_waves", "count"},
    {"core.split_wave_occupancy_p50", "count"},
    {"serve.wire_ms_p50", "ms"},
    {"serve.queue_wait_ms_p50", "ms"},
    {"serve.queue_wait_ms_p99", "ms"},
    {"serve.batch_size_mean", "count"},
    {"serve.cache_hit_frac", "ratio"},
    {"serve.coalesced_frac", "ratio"},
    {"serve.shed_frac", "ratio"},
    {"tool.solver_ms_p50", "ms"},
    {"tool.cascade_cheap_frac", "ratio"},
    {"tool.cascade_escalations_mean", "count"},
    {"tool.lipschitz_ms_p50", "ms"},
    {"cert.certificate_ms_p50", "ms"},
    {"failed_frac", "ratio"},
    {"unattributed_share", "ratio"},
    {"trace.overhead_ratio", "ratio"},
};

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out + "\"";
}

std::string number(double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", std::isfinite(V) ? V : 0.0);
  return Buf;
}

/// Machine and build facts: ratios are comparable only between runs on
/// the same host and kernel backend.
std::string stamp(const std::string &Commit) {
  const char *Fuse = std::getenv("CRAFT_BATCH_FUSE");
  std::string S = "{";
  S += "\"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  S += ", \"kernel_backend\": " +
       jsonString(craft::kernels::kernelBackendName(
           craft::kernels::activeKernelBackend()));
  S += ", \"kernel_threads\": " +
       std::to_string(craft::kernels::kernelThreadCount());
  S += ", \"craft_batch_fuse\": " + jsonString(Fuse ? Fuse : "unset");
  S += ", \"build_type\": " + jsonString(PERFBENCH_BUILD_TYPE);
  S += ", \"compiler\": " + jsonString(PERFBENCH_COMPILER);
  S += ", \"commit\": " + jsonString(Commit);
  return S + "}";
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench gen --workload W --seed N --inputs DIR\n"
               "       perfbench run --workload W --seed N --seconds S "
               "--trace 0|1 --inputs DIR --work DIR [--commit ID]\n");
  return 2;
}

} // namespace

double perfbench::nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double perfbench::selfPeakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux.
}

std::string perfbench::listed(const std::vector<double> &V) {
  std::string S;
  for (double X : V) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), " %.4g", X);
    S += Buf;
  }
  return S;
}

void perfbench::setLatency(RunResult &R, const char *What,
                           const std::vector<double> &Ms) {
  // The tail figure is p99 when at least ten samples lie beyond it (1000
  // samples or more), else p85. A fixed percentile keeps the figure on the
  // same part of the distribution when the sample count varies between
  // runs; the note states how many samples lie beyond it.
  const size_t N = Ms.size();
  const double P = N >= 1000 ? 99.0 : 85.0;
  const double Tail = percentile(Ms, P);
  const size_t Beyond = size_t(
      std::count_if(Ms.begin(), Ms.end(), [&](double V) { return V > Tail; }));
  R.set("lat_p50_ms", median(Ms));
  R.set("lat_p99_ms", Tail);
  char Line[160];
  std::snprintf(Line, sizeof(Line),
                "latency: %s, %zu samples; lat_p99_ms is p%.1f, %zu beyond it",
                What, Ms.size(), P, Beyond);
  R.note(Line);
}

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage();
  const std::string Mode = Argv[1];
  Options Opts;
  std::string Commit = "unknown";
  bool HaveSeed = false;
  for (int I = 2; I + 1 < Argc; I += 2) {
    const std::string Key = Argv[I], Val = Argv[I + 1];
    if (Key == "--workload")
      Opts.Workload = Val;
    else if (Key == "--seed") {
      Opts.Seed = std::strtoull(Val.c_str(), nullptr, 10);
      HaveSeed = true;
    } else if (Key == "--seconds")
      Opts.Seconds = std::atof(Val.c_str());
    else if (Key == "--trace")
      Opts.Trace = Val == "1";
    else if (Key == "--inputs")
      Opts.InputDir = Val;
    else if (Key == "--work")
      Opts.WorkDir = Val;
    else if (Key == "--commit")
      Commit = Val;
    else
      return usage();
  }
  if (!HaveSeed || Opts.InputDir.empty())
    return usage();

  if (Mode == "gen")
    return generateInputs(Opts.Workload, Opts.Seed, Opts.InputDir) ? 0 : 1;
  if (Mode != "run" || Opts.WorkDir.empty() || Opts.Seconds <= 0)
    return usage();

  Opts.CraftCli = PERFBENCH_CRAFT_CLI;
  std::error_code Ec;
  std::filesystem::create_directories(Opts.WorkDir, Ec);

  RunResult R;
  if (Opts.Workload == "verify-mnist")
    R = runVerifyMnist(Opts);
  else if (Opts.Workload == "serve-mixed")
    R = runServeMixed(Opts);
  else if (Opts.Workload == "split-gmm")
    R = runSplitGmm(Opts);
  else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 Opts.Workload.c_str());
    return 2;
  }
  if (R.Attempted == 0)
    R.fail("no operation was attempted");
  if (R.Failed > 0)
    R.fail(std::to_string(R.Failed) + " operations failed");

  const std::string Stamp = stamp(Commit);
  std::printf("stamp %s\n", Stamp.c_str());
  for (const std::string &N : R.Notes)
    std::printf("%s\n", N.c_str());

  std::string Metrics;
  std::string Table;
  auto emit = [&](const MetricDef &D) {
    auto It = R.Values.find(D.Name);
    if (It == R.Values.end() && !Opts.Trace)
      R.fail(std::string("end-to-end metric ") + D.Name + " was not measured");
    const double V = It == R.Values.end() ? 0.0 : It->second;
    if (!Metrics.empty())
      Metrics += ", ";
    Metrics += jsonString(D.Name) + ": {\"value\": " + number(V) +
               ", \"unit\": " + jsonString(D.Unit) + "}";
    char Line[160];
    std::snprintf(Line, sizeof(Line), "  %-32s %14.6g %s\n", D.Name, V,
                  D.Unit);
    Table += Line;
  };
  if (Opts.Trace)
    for (const MetricDef &D : PerLayer)
      emit(D);
  else
    for (const MetricDef &D : EndToEnd)
      emit(D);
  std::printf("%s %s, seed %llu, %s run:\n%s", R.Correct ? "OK" : "FAILED",
              Opts.Workload.c_str(), (unsigned long long)Opts.Seed,
              Opts.Trace ? "traced" : "untraced", Table.c_str());

  const std::string Json =
      std::string("{\"correct\": ") + (R.Correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(R.Attempted) +
      ", \"failed\": " + std::to_string(R.Failed) + ", \"metrics\": {" +
      Metrics + "}}";
  // The full record, stamp included, also lands beside the run's files.
  std::ofstream(Opts.WorkDir + "/result.json")
      << "{\"stamp\": " << Stamp << ", \"result\": " << Json << "}\n";
  std::printf("%s\n", Json.c_str());
  std::fflush(stdout);
  return R.Correct ? 0 : 1;
}

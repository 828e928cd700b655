//===- perfbench/src/Bench.h - Shared benchmark plumbing --------*- C++ -*-===//
//
// Result records, options, sample statistics and the small process-level
// probes (clock, peak RSS) every workload uses. The workloads live in
// VerifyMnist.cpp, ServeMixed.cpp and SplitGmm.cpp; inputs come from
// Inputs.h; bench-side layer spans from Trace.h. The metric names and
// units are tabled once, in main.cpp.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line options of `perfbench run`.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  /// Per-seed input directory written by `perfbench gen`.
  std::string InputDir;
  /// Directory for files the run itself writes (certificates, daemon
  /// traces).
  std::string WorkDir;
  /// The `craft` CLI binary serve-mixed spawns as its daemon.
  std::string CraftCli;
};

/// What one run reports: the contract's correct/attempted/failed, metric
/// values by name, and human-readable notes printed above the JSON line.
struct RunResult {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::map<std::string, double> Values;
  std::vector<std::string> Notes;

  void set(const std::string &Name, double Value) { Values[Name] = Value; }
  /// A correctness-gate failure: the run still reports, but exits non-zero.
  void fail(const std::string &Why) {
    Correct = false;
    Notes.push_back("FAIL: " + Why);
  }
  void note(const std::string &Text) { Notes.push_back(Text); }
};

/// Monotonic seconds (steady clock).
double nowSeconds();

/// Peak resident set of this process in MB.
double selfPeakRssMb();

/// Nearest-rank percentile \p P in [0, 100] of \p V (0 when empty).
inline double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(P / 100.0 * double(V.size())));
  Rank = std::clamp<size_t>(Rank, 1, V.size());
  return V[Rank - 1];
}

inline double median(const std::vector<double> &V) { return percentile(V, 50); }

inline double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

/// The figure setup_s reports from repeated set-ups: their lower decile.
/// Set-up times are bimodal on a shared host (the same model load reads
/// 1.7 or 2.8 ms, switching between stretches of consecutive loads) and the
/// share of each mode moves between runs; the median and the mean move
/// with it, while the lower decile stays on the fast mode whenever a tenth
/// of the samples reach it.
inline double setupFigure(const std::vector<double> &V) {
  return percentile(V, 10);
}

/// " v1 v2 ...", each to four significant digits, for notes.
std::string listed(const std::vector<double> &V);

/// Sets lat_p50_ms / lat_p99_ms from \p Ms and notes the sample count, the
/// percentile lat_p99_ms holds, and how many samples lie beyond it.
void setLatency(RunResult &R, const char *What, const std::vector<double> &Ms);

/// Entry points of the three workloads.
RunResult runVerifyMnist(const Options &Opts);
RunResult runServeMixed(const Options &Opts);
RunResult runSplitGmm(const Options &Opts);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H

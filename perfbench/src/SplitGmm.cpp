//===- perfbench/src/SplitGmm.cpp - Global certification workload --------===//
//
// A sequence of `craft split` global certifications (runSplitCertification,
// Jobs = 4, depth SplitDepth), each over one of the seed's sub-boxes of the
// GMM model's input space, in whole passes over the pool.
// Every certification makes hundreds of small verifier calls fanned out
// in waves over support/ThreadPool. Precision and work counts come from
// the first pass over the pool, so they repeat exactly for a seed.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Inputs.h"
#include "Trace.h"

#include "nn/MonDeq.h"
#include "tool/Driver.h"

#include <cstring>
#include <optional>

using namespace perfbench;
using namespace craft;

namespace {

constexpr int Jobs = 4;

bool sameSplit(const SplitResult &A, const SplitResult &B) {
  if (std::memcmp(&A.CertifiedFraction, &B.CertifiedFraction,
                  sizeof(double)) != 0 ||
      A.NumCertified != B.NumCertified ||
      A.NumVerifierCalls != B.NumVerifierCalls || A.NumWaves != B.NumWaves ||
      A.Regions.size() != B.Regions.size())
    return false;
  for (size_t I = 0; I < A.Regions.size(); ++I)
    if (A.Regions[I].Path != B.Regions[I].Path ||
        A.Regions[I].CertifiedClass != B.Regions[I].CertifiedClass)
      return false;
  return true;
}

} // namespace

RunResult perfbench::runSplitGmm(const Options &Opts) {
  RunResult R;
  const std::vector<std::string> Texts = readSpecTexts(Opts.InputDir);
  std::vector<VerificationSpec> Specs;
  for (const std::string &T : Texts) {
    SpecParseResult P = parseSpec(T);
    if (!P.ok())
      break;
    Specs.push_back(*P.Spec);
  }
  if (Texts.size() != SplitPoolSize || Specs.size() != Texts.size()) {
    R.fail("input pool is incomplete or does not parse");
    return R;
  }

  // Set-up: load the model file and warm its alpha bound (each
  // certification then loads the file itself, as `craft split` does).
  // Timed five times before the measured work, after every pass, and after
  // the Jobs = 1 check, so its figure spans the run rather than one moment
  // of it.
  std::vector<double> SetupS;
  if (!timeModelLoads(modelPath(Opts.InputDir), 5, SetupS)) {
    R.fail("cannot load " + modelPath(Opts.InputDir));
    return R;
  }

  // One certification; with \p Spans, traced and drained into it. Returns
  // its wall time in seconds.
  std::vector<std::optional<SplitResult>> FirstPass(Specs.size());
  double Box0Ms = 0.0;
  auto runOne = [&](size_t I, trace::Collector *Spans) {
    if (Spans)
      trace::setEnabled(true);
    const double T0 = nowSeconds();
    SplitRunOutcome Out;
    {
      TRACE_SPAN("tool.split");
      Out = runSplitCertification(Specs[I], Jobs, Specs[I].SplitDepth);
    }
    const double Dt = nowSeconds() - T0;
    if (Spans) {
      Spans->drain();
      trace::setEnabled(false);
    }
    ++R.Attempted;
    if (!Out.ModelLoaded || Out.Error)
      ++R.Failed;
    else if (!FirstPass[I]) {
      FirstPass[I] = Out.Split;
      if (I == 0)
        Box0Ms = Dt * 1e3;
    }
    else if (!sameSplit(*FirstPass[I], Out.Split))
      R.fail("a repeated certification changed its result");
    return Dt;
  };

  // Whole passes over the pool: at least one, and another while it still
  // fits in the time budget. A traced run certifies every box twice,
  // untraced and traced in alternating order, so host drift cancels from
  // the ratio of the two times.
  std::vector<double> PassSeconds, LatencyMs, Overhead;
  trace::Collector Spans;
  const telemetry::MetricsSnapshot Before = telemetry::snapshotMetrics();
  double TracedWall = 0.0;
  const double Start = nowSeconds();
  double Pass = 0.0;
  do {
    const double PassStart = nowSeconds();
    for (size_t I = 0; I < Specs.size(); ++I) {
      if (!Opts.Trace) {
        LatencyMs.push_back(runOne(I, nullptr) * 1e3);
        continue;
      }
      const bool TracedFirst = (I + PassSeconds.size()) % 2 == 1;
      const double First = runOne(I, TracedFirst ? &Spans : nullptr);
      const double Second = runOne(I, TracedFirst ? nullptr : &Spans);
      const double Traced = TracedFirst ? First : Second;
      TracedWall += Traced;
      Overhead.push_back(ratio(TracedFirst ? Second : First, Traced));
    }
    Pass = nowSeconds() - PassStart;
    PassSeconds.push_back(Pass);
    timeModelLoads(modelPath(Opts.InputDir), 5, SetupS);
  } while (R.Correct && nowSeconds() - Start + Pass <= Opts.Seconds);
  const telemetry::MetricsSnapshot After = telemetry::snapshotMetrics();

  // Correctness: one box matches its Jobs = 1 result. Its time against its
  // first Jobs = 4 run shows how far the waves scale.
  {
    SplitRunOutcome Serial =
        runSplitCertification(Specs[0], 1, Specs[0].SplitDepth);
    if (!FirstPass[0] || !sameSplit(*FirstPass[0], Serial.Split))
      R.fail("box 0 differs between Jobs = 4 and Jobs = 1");
    R.note("box 0: Jobs = 1 " + std::to_string(Serial.TimeSeconds * 1e3) +
           " ms, Jobs = 4 " + std::to_string(Box0Ms) + " ms");
  }
  timeModelLoads(modelPath(Opts.InputDir), 5, SetupS);

  double Fraction = 0.0, Calls = 0.0, Waves = 0.0;
  for (const std::optional<SplitResult> &S : FirstPass)
    if (S) {
      Fraction += S->CertifiedFraction;
      Calls += double(S->NumVerifierCalls);
      Waves += double(S->NumWaves);
    }

  const double Pool = double(Specs.size());
  if (!Opts.Trace) {
    // Certifications per second over the median pass: one pass disturbed
    // by the host does not move it.
    R.set("qps", ratio(Pool, median(PassSeconds)));
    setLatency(R, "per-certification wall time", LatencyMs);
    R.set("certified_frac", Fraction / Pool);
    R.set("ok_frac", 1.0 - ratio(double(R.Failed), double(R.Attempted)));
    R.set("setup_s", setupFigure(SetupS));
    R.set("peak_rss_mb", selfPeakRssMb());
    R.note("pool " + std::to_string(Specs.size()) + " boxes: " +
           std::to_string(size_t(Calls)) + " verifier calls in " +
           std::to_string(size_t(Waves)) + " waves per pass");
    std::vector<double> PassQps;
    for (double S : PassSeconds)
      PassQps.push_back(ratio(Pool, S));
    R.note("qps of each pass:" + listed(PassQps));
    return R;
  }

  auto hist = [&](const char *Name) {
    return telemetry::diffSnapshots(trace::histogramIn(Before, Name),
                                    trace::histogramIn(After, Name));
  };
  const double VerifyMs = Spans.totalMs("craft.verify");
  R.set("core.verify_ms_p50", median(Spans.durationsMs("craft.verify")));
  R.set("core.iterations_p50", double(hist("craft.iterations").p50()));
  R.set("core.phase2_share", ratio(Spans.totalMs("craft.phase2"), VerifyMs));
  R.set("domains.consolidate_share",
        ratio(Spans.totalMs("craft.consolidate"), VerifyMs));
  R.set("support.worker_busy_frac",
        ratio(VerifyMs, Spans.totalMs("tool.split") * Jobs));
  R.set("core.split_calls", Calls / Pool);
  R.set("core.split_waves", Waves / Pool);
  R.set("core.split_wave_occupancy_p50",
        double(hist("split.wave_occupancy").p50()));
  R.set("failed_frac", ratio(double(R.Failed), double(R.Attempted)));
  R.set("unattributed_share", 1.0 - ratio(Spans.coveredMs(), TracedWall * 1e3));
  R.set("trace.overhead_ratio", median(Overhead));
  R.note("traced " + std::to_string(Overhead.size()) +
         " certifications; most spans one thread recorded between drains: " +
         std::to_string(Spans.maxThreadSpansPerDrain()));
  return R;
}

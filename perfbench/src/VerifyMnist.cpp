//===- perfbench/src/VerifyMnist.cpp - The Table-2 batch workload ---------===//
//
// Batches of l-inf robustness queries against the zoo model mnist_fc100
// through runSpecBatchLoaded with Jobs = 4 (the `craft verify --jobs 4`
// path), fusion at its default. Each pass parses the seed's pool of
// MnistPoolSize spec texts and runs them as one batch. Precision figures
// come from the first pass, so they repeat exactly for a seed.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Inputs.h"
#include "Trace.h"

#include "linalg/Kernels.h"
#include "nn/MonDeq.h"
#include "tool/Driver.h"

#include <cstring>
#include <optional>

using namespace perfbench;
using namespace craft;

namespace {

constexpr int Jobs = 4;
/// Pool prefix re-run with Jobs = 1 for the byte-identity gate.
constexpr size_t IdentityPrefix = 2;

bool sameBytes(double A, double B) {
  return std::memcmp(&A, &B, sizeof(double)) == 0;
}

/// Every verdict-bearing field, compared bit for bit (wall times and phase
/// timings excluded).
bool sameOutcome(const RunOutcome &A, const RunOutcome &B) {
  if (A.Counterexample.size() != B.Counterexample.size())
    return false;
  for (size_t I = 0; I < A.Counterexample.size(); ++I)
    if (!sameBytes(A.Counterexample[I], B.Counterexample[I]))
      return false;
  return A.ModelLoaded == B.ModelLoaded && A.Error == B.Error &&
         A.DeadlineExceeded == B.DeadlineExceeded &&
         A.Certified == B.Certified && A.Containment == B.Containment &&
         A.Refuted == B.Refuted && sameBytes(A.MarginLower, B.MarginLower) &&
         A.CertificateWritten == B.CertificateWritten &&
         A.AttackSeed == B.AttackSeed && A.CascadeRung == B.CascadeRung &&
         A.CascadeEscalations == B.CascadeEscalations && A.Detail == B.Detail;
}

/// Outside probe of the linalg layer: kernels::gemm at the phase-1 shape
/// of this model (Peaceman-Rachford state 2p x 2p times a generator
/// matrix with one column per input dimension plus 2p), in GFLOP/s.
double gemmProbe(const MonDeq &Model) {
  const size_t S = 2 * Model.latentDim(), N = Model.inputDim() + S;
  Matrix A(S, S, 0.5), B(S, N, 0.25), Out(S, N);
  for (size_t I = 0; I < S; ++I)
    A(I, (I * 7) % S) = 1.0 + double(I % 5);
  size_t Calls = 0;
  const double T0 = nowSeconds();
  double Elapsed = 0.0;
  do {
    kernels::gemm(Out, A, B);
    ++Calls;
    Elapsed = nowSeconds() - T0;
  } while (Elapsed < 0.25);
  return 2.0 * double(S) * double(S) * double(N) * double(Calls) / Elapsed /
         1e9;
}

} // namespace

RunResult perfbench::runVerifyMnist(const Options &Opts) {
  RunResult R;
  const std::vector<std::string> Texts = readSpecTexts(Opts.InputDir);
  if (Texts.size() != MnistPoolSize) {
    R.fail("input pool is incomplete");
    return R;
  }

  // Set-up is timed five times before the measured work, after every pass,
  // and after the Jobs = 1 check, so its figure spans the run rather than
  // one moment of it.
  std::vector<double> SetupS;
  const std::optional<MonDeq> Model =
      timeModelLoads(modelPath(Opts.InputDir), 5, SetupS);
  if (!Model) {
    R.fail("cannot load " + modelPath(Opts.InputDir));
    return R;
  }

  // One pass: parse the pool's spec texts (the tool layer's front end), then
  // run them as one batch through the batch entry point. With \p Spans,
  // traced and drained into it. Returns the pass's wall time in seconds.
  std::vector<std::optional<RunOutcome>> FirstPass(Texts.size());
  std::vector<double> QueryMs, TracedSolverMs;
  auto runPass = [&](trace::Collector *Spans) {
    if (Spans)
      trace::setEnabled(true);
    const double T0 = nowSeconds();
    std::vector<VerificationSpec> Specs;
    {
      TRACE_SPAN("tool.parse");
      for (const std::string &Text : Texts) {
        SpecParseResult P = parseSpec(Text);
        if (!P.ok()) {
          R.fail("spec text does not parse");
          return 0.0;
        }
        Specs.push_back(*P.Spec);
      }
    }
    std::vector<const MonDeq *> Models(Specs.size(), &*Model);
    std::vector<RunOutcome> Outs;
    {
      TRACE_SPAN("tool.batch");
      Outs = runSpecBatchLoaded(Specs, Models, Jobs);
    }
    const double Dt = nowSeconds() - T0;
    if (Spans) {
      Spans->drain();
      trace::setEnabled(false);
    }
    for (size_t I = 0; I < Outs.size(); ++I) {
      const RunOutcome &O = Outs[I];
      ++R.Attempted;
      if (!O.ModelLoaded || O.Error || O.DeadlineExceeded)
        ++R.Failed;
      if (O.Certified && O.Refuted)
        R.fail("a query is both certified and refuted");
      if (Spans)
        TracedSolverMs.push_back(O.Phases.SolverMs);
      else
        QueryMs.push_back(O.TimeSeconds * 1e3);
      std::optional<RunOutcome> &Ref = FirstPass[I];
      if (!Ref)
        Ref = O;
      else if (!sameOutcome(*Ref, O))
        R.fail("a repeated query changed its outcome");
    }
    return Dt;
  };

  // An untimed first pass lets lazy set-up finish and caches fill: it ran
  // 10 to 20% slower than the passes after it.
  runPass(nullptr);
  QueryMs.clear();

  // Passes over the pool: at least one, and another while at least half of
  // it fits in the time budget. A traced run runs every pass twice,
  // untraced and traced in alternating order, so host drift cancels from
  // the ratio of the two times.
  std::vector<double> PassQps, Overhead;
  trace::Collector Spans;
  const telemetry::MetricsSnapshot Before = telemetry::snapshotMetrics();
  double TracedWall = 0.0;
  const double Pool = double(Texts.size());
  const double Start = nowSeconds();
  double Pass = 0.0;
  do {
    const double PassStart = nowSeconds();
    if (!Opts.Trace) {
      PassQps.push_back(ratio(Pool, runPass(nullptr)));
    } else {
      const bool TracedFirst = PassQps.size() % 2 == 1;
      const double A = runPass(TracedFirst ? &Spans : nullptr);
      const double B = runPass(TracedFirst ? nullptr : &Spans);
      const double Traced = TracedFirst ? A : B;
      TracedWall += Traced;
      PassQps.push_back(ratio(Pool, TracedFirst ? B : A));
      Overhead.push_back(ratio(TracedFirst ? B : A, Traced));
    }
    Pass = nowSeconds() - PassStart;
    timeModelLoads(modelPath(Opts.InputDir), 5, SetupS);
  } while (R.Correct && nowSeconds() - Start + Pass / 2 <= Opts.Seconds);
  const telemetry::MetricsSnapshot After = telemetry::snapshotMetrics();

  // Correctness: a seeded prefix of the pool matches a Jobs = 1 rerun.
  {
    const double T0 = nowSeconds();
    std::vector<VerificationSpec> Specs;
    for (size_t I = 0; I < IdentityPrefix; ++I)
      Specs.push_back(*parseSpec(Texts[I]).Spec);
    std::vector<const MonDeq *> Models(Specs.size(), &*Model);
    std::vector<RunOutcome> Serial = runSpecBatchLoaded(Specs, Models, 1);
    for (size_t I = 0; I < Serial.size(); ++I)
      if (!FirstPass[I] || !sameOutcome(*FirstPass[I], Serial[I]))
        R.fail("query " + std::to_string(I) +
               " differs between Jobs = 4 and a Jobs = 1 rerun");
    R.note("Jobs = 1 rerun of the first " + std::to_string(IdentityPrefix) +
           " queries: " + std::to_string(nowSeconds() - T0) + " s");
  }
  timeModelLoads(modelPath(Opts.InputDir), 5, SetupS);

  size_t Certified = 0, Refuted = 0, Contained = 0;
  for (const std::optional<RunOutcome> &O : FirstPass) {
    Certified += O && O->Certified;
    Refuted += O && O->Refuted;
    Contained += O && O->Containment;
  }
  if (!Opts.Trace) {
    // Queries per second of the median pass: one pass disturbed by the host
    // does not move it.
    R.set("qps", median(PassQps));
    setLatency(R, "per-query wall time inside the batch", QueryMs);
    R.set("certified_frac", Certified / Pool);
    R.set("ok_frac", 1.0 - ratio(double(R.Failed), double(R.Attempted)));
    R.set("setup_s", setupFigure(SetupS));
    R.set("peak_rss_mb", selfPeakRssMb());
    R.note("pool " + std::to_string(Texts.size()) + " queries: " +
           std::to_string(Certified) + " certified, " +
           std::to_string(Refuted) + " refuted by PGD");
    R.note("qps of each pass:" + listed(PassQps));
    return R;
  }

  // Traced passes: bench spans plus the program's own, drained per pass.
  const double Gflops = gemmProbe(*Model);
  auto delta = [&](const char *Name) {
    return double(trace::counterIn(After, Name) -
                  trace::counterIn(Before, Name));
  };
  const double Fused = delta("gemm.batch.fused"),
               Plainly = delta("gemm.batch.plain");
  const double Shared = delta("gemm.batch.packs_shared");
  const double VerifyMs = Spans.totalMs("craft.verify");
  const double DriverMs = Spans.totalMs("driver.query");

  R.set("linalg.gemm_gflops", Gflops);
  R.set("linalg.fused_frac", ratio(Fused, Fused + Plainly));
  R.set("linalg.pack_sharing",
        ratio(delta("gemm.batch.packs_unshared"), Shared));
  R.set("linalg.wave_timeouts", delta("gemm.batch.timeouts"));
  R.set("core.verify_ms_p50", median(Spans.durationsMs("craft.verify")));
  R.set("core.iterations_p50",
        double(telemetry::diffSnapshots(
                   trace::histogramIn(Before, "craft.iterations"),
                   trace::histogramIn(After, "craft.iterations"))
                   .p50()));
  R.set("core.phase2_share", ratio(Spans.totalMs("craft.phase2"), VerifyMs));
  R.set("domains.consolidate_share",
        ratio(Spans.totalMs("craft.consolidate"), VerifyMs));
  R.set("core.containment_frac", Contained / Pool);
  R.set("nn.pgd_share", ratio(Spans.totalMs("pgd.attack"), DriverMs));
  R.set("nn.refuted_frac", Refuted / Pool);
  R.set("support.worker_busy_frac",
        ratio(DriverMs, Spans.totalMs("tool.batch") * Jobs));
  R.set("tool.solver_ms_p50", median(TracedSolverMs));
  R.set("failed_frac", ratio(double(R.Failed), double(R.Attempted)));
  R.set("unattributed_share", 1.0 - ratio(Spans.coveredMs(), TracedWall * 1e3));
  R.set("trace.overhead_ratio", median(Overhead));
  R.note("traced " + std::to_string(TracedSolverMs.size()) +
         " queries; most spans one thread recorded between drains: " +
         std::to_string(Spans.maxThreadSpansPerDrain()));
  return R;
}

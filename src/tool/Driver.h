//===- tool/Driver.h - Spec execution ---------------------------*- C++ -*-===//
//
// Part of the Craft reproduction (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes parsed verification specs against the selected engine (Craft,
/// Box, unrolled CROWN, or the Lipschitz certifier) and optionally emits a
/// proof witness. Pure library layer — the `craft` CLI wraps it with
/// argument handling and printing.
///
//===----------------------------------------------------------------------===//

#ifndef CRAFT_TOOL_DRIVER_H
#define CRAFT_TOOL_DRIVER_H

#include "core/DomainSplitting.h"
#include "support/Deadline.h"
#include "support/Telemetry.h"
#include "tool/SpecParser.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace craft {

/// Where one query's wall time went, in milliseconds. Purely
/// observational — filled from support/Telemetry phase accumulators when
/// timing is enabled (CRAFT_TELEMETRY != 0) and left zero otherwise, and
/// never read back by any computation, so verdict fields are
/// byte-identical either way (pinned by tests/test_telemetry.cpp). The
/// serve layer adds its queue/cache/model-load slices before a result
/// crosses the wire as the optional "timings" object. PhaseRows below is
/// the one list of its slices.
struct PhaseBreakdown {
  /// False = timing was disabled (or the outcome predates execution,
  /// e.g. a load failure); every field below is then zero.
  bool Populated = false;
  /// Serve only: admission-queue wait before dispatch picked the job up.
  double QueueWaitMs = 0.0;
  /// Serve only: result-cache key canonicalization + probe.
  double CacheProbeMs = 0.0;
  /// Serve only: model registry fetch (load + warm on a cold hit).
  double ModelLoadMs = 0.0;
  /// Engine run, inclusive of the consolidation slice below and exclusive
  /// of the PGD restart the engine runs before phase 2 (see PgdMs).
  double SolverMs = 0.0;
  /// consolidateProper order-reduction inside the engine run (the slice
  /// the paper's Table 4 attributes separately). Accumulated on the
  /// query's own thread, plus what pool helpers spent on the query's
  /// behalf (helped-section items such as line-search probes and lambda
  /// scales, and split-mode wave items); a sum over threads, so with
  /// helpers it may exceed the wall time it sits in.
  double ConsolidationMs = 0.0;
  /// Split-refinement wave loop (split-depth > 0 runs).
  double SplitMs = 0.0;
  /// Opt-in PGD refutation pass, all of it: the first restart (run inside
  /// the engine, between phase 1 and phase 2) and the rest.
  double PgdMs = 0.0;
  /// Certificate construction + save.
  double CertificateMs = 0.0;
  /// Solver iterations to convergence (Craft/Box: fixpoint iterations;
  /// split runs: verifier calls across all waves). Travels with the
  /// breakdown, so it is zero when unpopulated; the engines' own
  /// iteration histograms count regardless.
  uint64_t SolverIterations = 0;
};

/// One millisecond slice of a PhaseBreakdown: the driver folds it from a
/// telemetry Phase delta; rows without one are set by the serve
/// scheduler.
struct PhaseRow {
  const char *Key; ///< In the wire "timings" object and on `--timings`.
  double PhaseBreakdown::*Ms;
  std::optional<telemetry::Phase> Phase;
};

/// Every slice of a PhaseBreakdown, in wire order. The driver fold, the
/// wire encoder and decoder, and `craft verify --timings` all loop over
/// this list, so a new phase is one telemetry::Phase entry plus one row.
inline constexpr PhaseRow PhaseRows[] = {
    {"queue_wait_ms", &PhaseBreakdown::QueueWaitMs, {}},
    {"cache_probe_ms", &PhaseBreakdown::CacheProbeMs, {}},
    {"model_load_ms", &PhaseBreakdown::ModelLoadMs, {}},
    {"solver_ms", &PhaseBreakdown::SolverMs, telemetry::Phase::Solver},
    {"consolidation_ms", &PhaseBreakdown::ConsolidationMs,
     telemetry::Phase::Consolidation},
    {"split_ms", &PhaseBreakdown::SplitMs, telemetry::Phase::Split},
    {"pgd_ms", &PhaseBreakdown::PgdMs, telemetry::Phase::Pgd},
    {"certificate_ms", &PhaseBreakdown::CertificateMs,
     telemetry::Phase::Certificate},
};

/// Key of PhaseBreakdown::SolverIterations, carried after the rows.
inline constexpr const char *SolverIterationsKey = "solver_iterations";

/// Result of executing one spec.
struct RunOutcome {
  bool ModelLoaded = false;
  /// The spec cannot be run against this model (input-dimension mismatch,
  /// target class out of range, engine/region mismatch): the query never
  /// executed, so the verdict fields are meaningless. The CLI maps this —
  /// like a load failure — to exit 2, not to "undecided".
  bool Error = false;
  /// The query's time budget expired before the engine reached a verdict:
  /// neither certified nor refuted, but unlike a plain "undecided" the
  /// engine was cut short. Timing-dependent, so the serve layer never
  /// caches these outcomes. The CLI maps this to exit 4.
  bool DeadlineExceeded = false;
  bool Certified = false;
  /// Craft only: an abstract post-fixpoint was found.
  bool Containment = false;
  /// A concrete counterexample disproves the property (split refinement or
  /// the opt-in PGD refutation pass).
  bool Refuted = false;
  /// The witness point when Refuted (empty only for legacy producers).
  Vector Counterexample;
  /// Best margin lower bound the engine reports (engine-specific scale).
  /// A query PGD refuted before phase 2 reports its phase-1 margin.
  double MarginLower = -1e300;
  double TimeSeconds = 0.0;
  /// Whether a certificate was requested, built, and written.
  bool CertificateWritten = false;
  /// RNG seed the PGD refutation pass ran with (0 = pass did not run).
  uint64_t AttackSeed = 0;
  /// Never set; kept only because perfbench's parity check reads them.
  std::string CascadeRung;
  int CascadeEscalations = 0;
  /// Human-readable failure/summary detail.
  std::string Detail;
  /// Wall-time attribution (see PhaseBreakdown); zero when timing is off.
  PhaseBreakdown Phases;
};

/// Runs \p Spec. Never exits; all failures are reported in the outcome.
RunOutcome runSpec(const VerificationSpec &Spec);

// Forward-declared: the model type lives in nn/MonDeq.h.
class MonDeq;

/// Runs \p Spec against an already-loaded model (no file IO; ModelPath is
/// ignored). The model is strictly read-only here, so several workers may
/// share one instance — warm its lazy alpha-bound cache
/// (`Model.fbAlphaBound()`) before fanning out.
RunOutcome runSpecLoaded(const VerificationSpec &Spec, const MonDeq &Model);

/// Batch execution over preloaded models: Models[I] is the (shared,
/// read-only, warmed) model for Specs[I], or null when its load failed —
/// those slots report a load failure outcome. Unlike runSpecBatch, specs
/// run exactly as given: no per-index attack-seed derivation, so outcomes
/// depend only on each spec's own content, never on its position. This is
/// the one batch fan-out: the serve scheduler dispatches through it (its
/// batches form by admission timing, so positions are not reproducible),
/// and runSpecBatch calls it once it has loaded models and seeded specs.
///
/// Controls[I] (when present) is polled by spec I's engine at
/// iteration/wave boundaries, and a spec cut short without a verdict
/// reports DeadlineExceeded. An empty vector (or default-constructed
/// entries) runs every spec to completion.
std::vector<RunOutcome>
runSpecBatchLoaded(const std::vector<VerificationSpec> &Specs,
                   const std::vector<const MonDeq *> &Models, int Jobs,
                   const std::vector<RunControl> &Controls = {});

/// Batch execution knobs for runSpecBatch.
struct BatchOptions {
  /// Threads the batch fans out over, the caller included (1 = inline on
  /// the caller, <= 0 = all hardware threads). Outcomes are independent
  /// of this value.
  int Jobs = 1;
  /// Base of the per-task seed stream: a task whose spec leaves AttackSeed
  /// at 0 runs with taskSeed(BaseSeed, task index), so seeds depend only on
  /// the task's position in the batch, never on scheduling.
  uint64_t BaseSeed = 20230617; // PLDI 2023 vintage.
  /// Wall-clock budget shared by the whole batch (< 0 = none). The clock
  /// starts once runSpecBatch has loaded the batch's models; specs still
  /// unresolved when it expires report DeadlineExceeded.
  double DeadlineMs = -1.0;
};

/// Runs every spec of a batch as one fan-out and returns outcomes in
/// input order. Apart from RunOutcome::TimeSeconds (wall time), results are
/// byte-identical for every Jobs value. A spec's `split-jobs` fan-out
/// inside a batch that fans out is nested: it borrows idle pool workers
/// and starts no thread (support/ThreadPool.h).
std::vector<RunOutcome> runSpecBatch(const std::vector<VerificationSpec> &Specs,
                                     const BatchOptions &Opts = {});

/// Result of one `craft split` global-certification run.
struct SplitRunOutcome {
  bool ModelLoaded = false;
  bool Error = false; ///< Spec/model mismatch (see RunOutcome::Error).
  SplitResult Split;
  double TimeSeconds = 0.0;
  std::string Detail;
};

/// `craft split`: global certification of \p Spec's input box by domain
/// splitting — every region is certified against the class its own center
/// predicts (the spec's target class is ignored), and the certified-volume
/// fraction is the headline result. \p Jobs and \p MaxDepth are the
/// resolved knobs (callers default them from the spec's `split-jobs` /
/// `split-depth`); Jobs <= 0 uses all hardware threads.
SplitRunOutcome runSplitCertification(const VerificationSpec &Spec, int Jobs,
                                      int MaxDepth);

/// `craft info`: prints model metadata (dims, activation, m, FB alpha
/// bound, semantic hash) to stdout. Returns false if loading fails.
bool printModelInfo(const std::string &ModelPath);

/// `craft check`: validates a certificate file against a model file and
/// prints the report. Returns true iff the certificate is accepted.
bool runCheck(const std::string &ModelPath, const std::string &CertPath);

} // namespace craft

#endif // CRAFT_TOOL_DRIVER_H

//===- serve/Scheduler.cpp ------------------------------------------------===//

#include "serve/Scheduler.h"

#include "support/FaultInjection.h"
#include "support/Telemetry.h"
#include "tool/SpecCanon.h"

using namespace craft;
using namespace craft::serve;

namespace {

std::future<ServeResult> readyResult(ServeResult Result) {
  std::promise<ServeResult> P;
  std::future<ServeResult> F = P.get_future();
  P.set_value(std::move(Result));
  return F;
}

/// The scheduler pipeline's process-wide series, read through the
/// `metrics` protocol method.
const telemetry::Counter StatSubmitted =
    telemetry::counterMetric("serve.submitted");
const telemetry::Counter StatCacheHits =
    telemetry::counterMetric("serve.cache_hits");
const telemetry::Counter StatExecuted =
    telemetry::counterMetric("serve.executed");
const telemetry::Counter StatBatches = telemetry::counterMetric("serve.batches");
const telemetry::Counter StatShed = telemetry::counterMetric("serve.shed");
const telemetry::Counter StatDeadlineExpired =
    telemetry::counterMetric("serve.deadline_expired");
/// Admission-queue depth, sampled at every enqueue and batch formation.
const telemetry::Gauge QueueDepthGauge =
    telemetry::gaugeMetric("serve.queue_depth");
/// Largest batch dispatched so far.
const telemetry::Gauge MaxBatchGauge = telemetry::gaugeMetric("serve.max_batch");
/// Admission-to-dispatch wait per executed job (only observed while
/// timing is enabled — the values are clock reads).
const telemetry::Histogram QueueWaitHist =
    telemetry::histogramMetric("serve.queue_wait_ns");

} // namespace

Scheduler::Scheduler(const Options &Opts)
    : Opts(Opts), Cache(Opts.CacheCapacity), Queue(Opts.QueueCapacity) {
  // craft-lint: allow(conc-thread) — spawn of the joined dispatcher.
  Dispatcher = std::thread([this] {
    telemetry::setCurrentThreadLabel("serve dispatch");
    dispatchLoop();
  });
}

Scheduler::~Scheduler() { stop(); }

void Scheduler::stop() {
  Stopping.store(true);
  Queue.close();
  if (Dispatcher.joinable())
    Dispatcher.join();
}

std::future<ServeResult> Scheduler::submit(const VerificationSpec &Spec,
                                           bool UseCache,
                                           double DeadlineMs) {
  StatSubmitted.increment();
  if (Stopping.load()) {
    ServeResult R;
    R.Outcome.Detail = "server is shutting down";
    return readyResult(std::move(R));
  }
  if (Draining.load()) {
    ServeResult R;
    R.Draining = true;
    R.Outcome.Detail = "server is draining";
    return readyResult(std::move(R));
  }

  // The budget starts here: queue wait counts against the deadline.
  const bool HasDeadline = DeadlineMs >= 0.0;
  Deadline DeadlineAt(HasDeadline ? DeadlineMs : -1.0);

  // 1. Model resolution (load-once via the registry). monotonicNanos()
  // reads 0 when timing is disabled, so the phase slices are simply zero
  // then — no separate branch.
  const uint64_t ModelT0 = telemetry::monotonicNanos();
  ModelRegistry::Entry Model = Registry.get(Spec.ModelPath);
  const uint64_t ModelT1 = telemetry::monotonicNanos();
  if (!Model.Model) {
    ServeResult R;
    R.Outcome.Detail = Model.Error;
    return readyResult(std::move(R));
  }

  // 2. Content identity. Witness emission is a filesystem side effect, so
  // certificate queries always execute (no memoized outcome could redo
  // the write) and never populate the cache.
  const bool Cacheable = UseCache && Spec.CertificatePath.empty();
  std::string Key = serveCacheKey(Spec, Model.Hash);

  // 3. Cache probe. Deadline queries probe too (a hit is instant and
  // deterministic); they just never populate.
  if (Cacheable) {
    if (std::optional<RunOutcome> Hit = Cache.lookup(Key)) {
      StatCacheHits.increment();
      ServeResult R;
      R.Outcome = std::move(*Hit);
      R.Cached = true;
      R.ModelHash = Model.Hash;
      return readyResult(std::move(R));
    }
  }

  // 4. Deterministic attack seed, derived from the query's content alone
  // (the batch driver's base seed, so both front ends share one stream).
  VerificationSpec Prepared = Spec;
  if (Prepared.Attack && Prepared.AttackSeed == 0)
    Prepared.AttackSeed = serveAttackSeed(BatchOptions().BaseSeed, Key);

  // 5. Admit a fresh job. A deadline job runs with UseCache=false
  // semantics from here on: its outcome is never inserted — whether the
  // budget suffices is submission timing, not query content, and must
  // not poison the deterministic cache.
  auto NewJob = std::make_unique<Job>();
  NewJob->Spec = std::move(Prepared);
  NewJob->Model = Model.Model;
  NewJob->ModelHash = Model.Hash;
  NewJob->Key = std::move(Key);
  NewJob->UseCache = Cacheable && !HasDeadline;
  NewJob->DeadlineAt = DeadlineAt;
  // Phase attribution: everything between model resolution and here is
  // key canonicalization + cache probing; the queue wait runs from this
  // timestamp until dispatch picks the job up.
  NewJob->AdmitNs = telemetry::monotonicNanos();
  NewJob->CacheProbeMs = static_cast<double>(NewJob->AdmitNs - ModelT1) / 1e6;
  NewJob->ModelLoadMs = static_cast<double>(ModelT1 - ModelT0) / 1e6;
  std::future<ServeResult> Future = NewJob->Result.get_future();

  // Non-blocking admission (load shedding): a saturated daemon answers
  // Overloaded instead of head-of-line-blocking the connection thread.
  const bool Admitted = Queue.tryPush(std::move(NewJob));
  QueueDepthGauge.set(static_cast<int64_t>(Queue.size()));
  if (!Admitted) {
    // Shed (or shutdown raced the admission); tryPush failed without
    // moving, so the job is still ours.
    ServeResult R;
    if (Queue.closed()) {
      R.Outcome.Detail = "server is shutting down";
    } else {
      R.Overloaded = true;
      R.Outcome.Detail = "admission queue is full";
      StatShed.increment();
    }
    NewJob->Result.set_value(std::move(R));
  }
  return Future;
}

void Scheduler::finishJob(std::unique_ptr<Job> JobPtr,
                          const RunOutcome &Outcome, bool Publish) {
  // Deadline outcomes are belt-and-braces excluded: deadline jobs carry
  // UseCache=false, and even a mislabeled one must never memoize a
  // timing-dependent result.
  if (Publish && JobPtr->UseCache && Outcome.ModelLoaded &&
      !Outcome.DeadlineExceeded)
    Cache.insert(JobPtr->Key, Outcome);
  ServeResult R;
  R.Outcome = Outcome;
  R.ModelHash = JobPtr->ModelHash;
  JobPtr->Result.set_value(std::move(R));
}

void Scheduler::dispatchLoop() {
  // Folds the scheduler-side slices of \p J, dispatched (or failed fast)
  // at \p NowNs, into an outcome's breakdown.
  auto FoldServeSlices = [](PhaseBreakdown &Ph, const Job &J,
                            uint64_t NowNs) {
    Ph.Populated = true;
    Ph.QueueWaitMs = static_cast<double>(NowNs - J.AdmitNs) / 1e6;
    Ph.CacheProbeMs = J.CacheProbeMs;
    Ph.ModelLoadMs = J.ModelLoadMs;
  };
  // A job deferred out of the previous batch (duplicate certificate
  // path); it leads the next batch.
  std::unique_ptr<Job> Carry;
  for (;;) {
    std::unique_ptr<Job> FirstJob;
    if (Carry) {
      FirstJob = std::move(Carry);
    } else {
      std::optional<std::unique_ptr<Job>> First = Queue.pop();
      if (!First)
        return; // Closed and drained.
      FirstJob = std::move(*First);
    }

    // Natural batching: take everything already admitted, up to the cap.
    // No admission timer — a lone query dispatches immediately; under
    // load the queue is non-empty and batches grow on their own.
    std::vector<std::unique_ptr<Job>> Batch;
    Batch.push_back(std::move(FirstJob));

    // Two queries naming one witness file must never share a batch:
    // parallelForIndex would run them concurrently and their
    // saveCertificate calls would race on the file (the one-shot CLI
    // rejects such batches up front; serve serializes them instead —
    // batches execute one after another, so deferring the duplicate to
    // the next batch is a strict happens-after). Only the first
    // conflict defers; anything behind it stays queued.
    auto conflictsWithBatch = [&Batch](const Job &J) {
      if (J.Spec.CertificatePath.empty())
        return false;
      for (const std::unique_ptr<Job> &B : Batch)
        if (B->Spec.CertificatePath == J.Spec.CertificatePath)
          return true;
      return false;
    };
    std::unique_ptr<Job> Next;
    while (Batch.size() < Opts.MaxBatch && Queue.tryPop(Next)) {
      if (conflictsWithBatch(*Next)) {
        Carry = std::move(Next);
        break;
      }
      Batch.push_back(std::move(Next));
    }

    // Jobs whose budget the queue wait already consumed fail fast here
    // instead of occupying a verification worker the engine would give
    // back at its first iteration boundary anyway.
    {
      std::vector<std::unique_ptr<Job>> Keep;
      Keep.reserve(Batch.size());
      for (std::unique_ptr<Job> &J : Batch) {
        if (!J->DeadlineAt.expired()) {
          Keep.push_back(std::move(J));
          continue;
        }
        StatDeadlineExpired.increment();
        RunOutcome Out;
        Out.ModelLoaded = true;
        Out.DeadlineExceeded = true;
        Out.Detail = "deadline exceeded before dispatch";
        // The engine never ran: the whole story is the queue wait.
        if (telemetry::timingEnabled())
          FoldServeSlices(Out.Phases, *J, telemetry::monotonicNanos());
        finishJob(std::move(J), Out);
      }
      Batch.swap(Keep);
    }
    if (Batch.empty())
      continue;

    // Injected dispatch failure: every job of the batch reports an error
    // outcome, and nothing is cached (the failure is synthetic).
    if (fault::at("sched.dispatch") == fault::Action::Fail) {
      RunOutcome Out;
      Out.ModelLoaded = true;
      Out.Error = true;
      Out.Detail = "injected fault: dispatch failed";
      for (std::unique_ptr<Job> &J : Batch)
        finishJob(std::move(J), Out, /*Publish=*/false);
      continue;
    }

    std::vector<VerificationSpec> Specs;
    std::vector<const MonDeq *> Models;
    std::vector<RunControl> Controls(Batch.size());
    Specs.reserve(Batch.size());
    Models.reserve(Batch.size());
    for (size_t I = 0; I < Batch.size(); ++I) {
      Specs.push_back(Batch[I]->Spec);
      Models.push_back(Batch[I]->Model);
      Controls[I].DeadlineAt = Batch[I]->DeadlineAt;
    }

    const bool Timing = telemetry::timingEnabled();
    const uint64_t DispatchNs = telemetry::monotonicNanos();
    if (Timing)
      for (const std::unique_ptr<Job> &J : Batch)
        QueueWaitHist.observe(DispatchNs - J->AdmitNs);
    QueueDepthGauge.set(static_cast<int64_t>(Queue.size()));

    TRACE_SPAN("serve.batch");
    std::vector<RunOutcome> Outcomes =
        runSpecBatchLoaded(Specs, Models, Opts.Jobs, Controls);

    StatBatches.increment();
    StatExecuted.add(Batch.size());
    MaxBatchGauge.noteMax(static_cast<int64_t>(Batch.size()));
    for (const RunOutcome &Out : Outcomes)
      if (Out.DeadlineExceeded)
        StatDeadlineExpired.increment();

    for (size_t I = 0; I < Batch.size(); ++I) {
      // Cache hits never reach this path — a stored outcome is returned
      // verbatim, payload byte-identical to the first answer.
      if (Timing)
        FoldServeSlices(Outcomes[I].Phases, *Batch[I], DispatchNs);
      finishJob(std::move(Batch[I]), Outcomes[I]);
    }
  }
}

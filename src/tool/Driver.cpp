//===- tool/Driver.cpp ----------------------------------------------------===//

#include "tool/Driver.h"

#include "attack/Pgd.h"
#include "cert/Certify.h"
#include "cert/Checker.h"
#include "core/LipschitzCert.h"
#include "core/SplitEngine.h"
#include "core/UnrolledCrown.h"
#include "core/Verifier.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"

#include <cstdio>
#include <map>
#include <optional>

using namespace craft;

namespace {

CraftConfig configFor(const VerificationSpec &Spec) {
  CraftConfig Cfg;
  // The `box` engine keyword predates the pluggable-domain portfolio and
  // is kept as shorthand for craft-on-intervals; otherwise the spec's
  // `domain` directive picks the domain the engine runs in.
  if (Spec.Verifier == SpecVerifier::Box)
    Cfg.Domain = VerifierDomain::Box;
  else
    Cfg.Domain = Spec.Domain;
  if (Spec.Alpha1 > 0.0)
    Cfg.Alpha1 = Spec.Alpha1;
  if (Spec.Alpha2 > 0.0)
    Cfg.Alpha2 = Spec.Alpha2;
  if (Spec.MaxIterations > 0)
    Cfg.MaxIterations = Spec.MaxIterations;
  if (Spec.LambdaOptLevel >= 0)
    Cfg.LambdaOptLevel = Spec.LambdaOptLevel;
  Cfg.InputClampLo = Spec.ClampLo;
  Cfg.InputClampHi = Spec.ClampHi;
  return Cfg;
}

/// Loads \p Spec's model; a failure is reported in \p Out.
template <typename Outcome>
std::optional<MonDeq> loadModel(const VerificationSpec &Spec, Outcome &Out) {
  std::optional<MonDeq> Model = MonDeq::load(Spec.ModelPath);
  Out.ModelLoaded = Model.has_value();
  if (!Model)
    Out.Detail = "cannot load model '" + Spec.ModelPath + "'";
  return Model;
}

/// False, with \p Out flagged as an error, when \p Spec's input region
/// does not have \p Model's input dimension. Spec/model mismatches are
/// errors, not verdicts: the query never ran, and reporting it
/// "undecided" would hide a broken pipeline (exit 3 instead of 2 from the
/// CLI).
template <typename Outcome>
bool inputFits(const VerificationSpec &Spec, const MonDeq &Model,
               Outcome &Out) {
  if (Spec.InLo.size() == Model.inputDim())
    return true;
  Out.Error = true;
  Out.Detail = "input region has dimension " +
               std::to_string(Spec.InLo.size()) + " but the model takes " +
               std::to_string(Model.inputDim());
  return false;
}

/// Milliseconds this thread spent in \p P since \p Before was taken.
double msSince(const telemetry::PhaseTotals &Before, telemetry::Phase P) {
  return static_cast<double>(telemetry::phaseTotals().of(P) - Before.of(P)) /
         1e6;
}

/// Runs \p Spec against an already-loaded model. The model is shared and
/// strictly read-only here: the batch driver hands one instance to several
/// workers (its lazy alpha-bound cache is warmed before fan-out).
/// \p Control is polled by the engines at iteration/wave boundaries; when
/// it fires before a verdict is reached, the outcome reports
/// DeadlineExceeded instead of plain "undecided".
RunOutcome runSpecOn(const VerificationSpec &Spec, const MonDeq &Model,
                     const RunControl &Control = {}) {
  RunOutcome Out;
  Out.ModelLoaded = true;
  if (!inputFits(Spec, Model, Out))
    return Out;
  if (Spec.TargetClass < 0 ||
      Spec.TargetClass >= (int)Model.outputDim()) {
    Out.Error = true;
    Out.Detail = "target class " + std::to_string(Spec.TargetClass) +
                 " out of range [0, " +
                 std::to_string(Model.outputDim()) + ")";
    return Out;
  }

  // Budget already spent (e.g. the job waited it out in the admission
  // queue): answer without paying for an engine run that would stop at
  // its first iteration boundary anyway.
  if (Control.stopRequested()) {
    Out.DeadlineExceeded = true;
    Out.Detail = "deadline exceeded before verification started";
    return Out;
  }

  // The engines poll Control through their config at every iteration /
  // wave boundary; the CraftConfig built by configFor carries it down.
  CraftConfig Cfg = configFor(Spec);
  Cfg.Control = Control;

  // Phase attribution: engines accumulate per-thread phase time
  // (PhaseTimer); the query's slice is the before/after delta on this
  // thread. Observational only — with timing disabled the breakdown
  // stays zero and nothing else changes.
  const bool Timing = telemetry::timingEnabled();
  const telemetry::PhaseTotals PhasesBefore = telemetry::phaseTotals();
  uint64_t SolverIterations = 0;
  TRACE_SPAN("driver.query");

  // Opt-in whole-ball PGD refutation: an uncertified l-inf query may still
  // be concretely disproved. The seed comes from the spec or, in a batch,
  // from the task's index (see runSpecBatch), so outcomes never depend on
  // which worker thread ran the query. Split runs own their refutation
  // probes (per-leaf PGD), so the whole-ball pass would only re-attack the
  // same space at extra cost. The attack's first restart runs inside the
  // craft engine, between phase 1 and phase 2 (BeforePhase2 below): a
  // counterexample there makes tightening moot. The remaining restarts
  // run after the engine, only for a query that stayed uncertified.
  const bool WholeBallAttack = Spec.Attack && Spec.SplitDepth <= 0 &&
                               !Spec.Center.empty() && Spec.Epsilon > 0.0;
  PgdOptions AttackOpts;
  AttackOpts.Epsilon = Spec.Epsilon;
  AttackOpts.InputLo = Spec.ClampLo;
  AttackOpts.InputHi = Spec.ClampHi;
  AttackOpts.Seed = Spec.AttackSeed != 0
                        ? Spec.AttackSeed
                        : taskSeed(BatchOptions().BaseSeed, 0);
  std::optional<FixpointSolver> Concrete;
  std::optional<PgdAttack> Attack;
  // Runs \p Restarts more restarts under the Pgd phase; true once the
  // attack holds a counterexample.
  auto attack = [&](int Restarts) {
    telemetry::PhaseTimer PgdPhase(telemetry::Phase::Pgd);
    if (!Attack) {
      Concrete.emplace(Model, Splitting::PeacemanRachford);
      Attack.emplace(Model, *Concrete, Spec.Center, Spec.TargetClass,
                     AttackOpts);
    }
    const PgdResult &Adv = Attack->run(Restarts);
    return Adv.FoundAdversarial &&
           Concrete->predict(Adv.Adversarial) != Spec.TargetClass;
  };
  bool AttackRefuted = false;
  // PGD time spent inside the engine's Solver phase, which solver_ms
  // excludes.
  double PgdInSolverMs = 0.0;
  bool FirstRestartAsked = false;
  auto BeforePhase2 = [&] {
    if (!WholeBallAttack || FirstRestartAsked)
      return false;
    FirstRestartAsked = true;
    if (Control.stopRequested())
      return false;
    const telemetry::PhaseTotals Before = telemetry::phaseTotals();
    AttackRefuted = attack(1);
    PgdInSolverMs += msSince(Before, telemetry::Phase::Pgd);
    return AttackRefuted;
  };

  WallTimer Clock;
  switch (Spec.Verifier) {
  case SpecVerifier::Craft:
  case SpecVerifier::Box: {
    // One engine run in the spec's domain, or, when split-depth is set,
    // the split engine instead.
    if (Spec.SplitDepth <= 0) {
      CraftVerifier Ver(Model, Cfg);
      CraftResult Res = [&] {
        telemetry::PhaseTimer SolverPhase(telemetry::Phase::Solver);
        return Ver.verifyRegion(Spec.InLo, Spec.InHi, Spec.TargetClass,
                                BeforePhase2);
      }();
      SolverIterations += static_cast<uint64_t>(Res.TotalIterations);
      Out.Certified = Res.Certified;
      Out.Containment = Res.Containment;
      Out.MarginLower = Res.BestMargin;
      Out.Detail = Res.Containment ? "abstract post-fixpoint found"
                                   : "no containment within budget";
    } else {
      SplitOptions Split;
      Split.MaxDepth = Spec.SplitDepth;
      Split.Jobs = Spec.SplitJobs == 0 ? -1 : Spec.SplitJobs;
      Split.TargetClass = Spec.TargetClass;
      if (Spec.Attack) {
        // PGD probes on undecided leaves, each seeded by its region path
        // from the spec seed (or the batch driver's per-index seed), so
        // outcomes depend only on spec content and batch position.
        Split.PgdProbes = true;
        Split.Pgd.InputLo = Spec.ClampLo;
        Split.Pgd.InputHi = Spec.ClampHi;
        Split.Pgd.Steps = 20;
        Split.Pgd.Restarts = 2;
        Split.ProbeSeedBase = Spec.AttackSeed != 0
                                  ? Spec.AttackSeed
                                  : taskSeed(BatchOptions().BaseSeed, 0);
      }
      SplitResult Res = [&] {
        telemetry::PhaseTimer SplitPhase(telemetry::Phase::Split);
        return runSplitEngine(Model, Cfg, Spec.InLo, Spec.InHi, Split);
      }();
      SolverIterations += Res.NumVerifierCalls;
      Out.Certified = Res.Certified;
      Out.Containment = Res.NumVerifierCalls > 0;
      Out.MarginLower = Res.Certified ? 0.0 : -1.0;
      Out.Refuted = Res.Refuted;
      if (Res.NumPgdProbes > 0 || Res.RefutedByPgd)
        Out.AttackSeed = Split.ProbeSeedBase;
      if (Res.Refuted) {
        Out.Counterexample = std::move(Res.Counterexample);
        Out.Detail = "refuted by a concrete counterexample";
        if (Res.RefutedByPgd)
          Out.Detail += " (PGD probe, seed " +
                        std::to_string(Res.PgdSeed) + ")";
        Out.Detail += " in region path " +
                      std::to_string(Res.CounterexamplePath);
      } else {
        Out.Detail = "split verification: " +
                     std::to_string(Res.NumVerifierCalls) + " calls, " +
                     std::to_string(Res.NumWaves) + " waves, " +
                     std::to_string(Res.CertifiedFraction * 100.0) +
                     "% volume certified";
      }
    }
    break;
  }
  case SpecVerifier::Crown: {
    CrownOptions Opts;
    Opts.InputClampLo = Spec.ClampLo;
    Opts.InputClampHi = Spec.ClampHi;
    if (Spec.Alpha2 > 0.0)
      Opts.Alpha = Spec.Alpha2;
    if (Spec.MaxIterations > 0)
      Opts.UnrollSteps = Spec.MaxIterations;
    CrownVerifier Ver(Model, Opts);
    CrownResult Res = [&] {
      telemetry::PhaseTimer SolverPhase(telemetry::Phase::Solver);
      return Ver.verifyRegion(Spec.InLo, Spec.InHi, Spec.TargetClass);
    }();
    Out.Certified = Res.Certified;
    Out.MarginLower = Res.MarginLower;
    Out.Detail = "contraction " + std::to_string(Res.Contraction);
    break;
  }
  case SpecVerifier::Lipschitz: {
    if (Spec.Center.empty() || Spec.Epsilon <= 0.0) {
      Out.Error = true;
      Out.Detail = "the lipschitz engine needs an 'input linf' region";
      return Out;
    }
    LipschitzCertifier Ver(Model);
    {
      telemetry::PhaseTimer SolverPhase(telemetry::Phase::Solver);
      Out.Certified =
          Ver.certify(Spec.Center, Spec.TargetClass, Spec.Epsilon);
    }
    Out.MarginLower = Out.Certified ? 0.0 : -1.0;
    Out.Detail =
        "latent l2 Lipschitz " + std::to_string(Ver.latentLipschitz2());
    break;
  }
  }

  // The attack's remaining restarts (all of them when the engine never
  // asked for the first one). A counterexample found inside the engine
  // stands even if the stop has landed since.
  if (WholeBallAttack && !Out.Certified && !Out.Refuted &&
      (AttackRefuted || !Control.stopRequested())) {
    Out.AttackSeed = AttackOpts.Seed;
    if (AttackRefuted || attack(AttackOpts.Restarts)) {
      Out.Refuted = true;
      Out.Counterexample = Attack->result().Adversarial;
      Out.Detail += "; refuted by PGD (class " +
                    std::to_string(Attack->result().AdversarialClass) +
                    ", seed " + std::to_string(AttackOpts.Seed) + ")";
    } else {
      Out.Detail += "; PGD found no counterexample (seed " +
                    std::to_string(AttackOpts.Seed) + ")";
    }
  }

  // A sound verdict reached before the stop landed stands — only a query
  // that was actually cut short without one reports DeadlineExceeded.
  if (Control.stopRequested() && !Out.Certified && !Out.Refuted &&
      !Out.Error) {
    Out.DeadlineExceeded = true;
    Out.Detail = Out.Detail.empty()
                     ? "deadline exceeded"
                     : "deadline exceeded (" + Out.Detail + ")";
  }
  Out.TimeSeconds = Clock.seconds();

  if (Out.Certified && !Spec.CertificatePath.empty()) {
    telemetry::PhaseTimer CertPhase(telemetry::Phase::Certificate);
    if (Spec.Verifier != SpecVerifier::Craft) {
      Out.Detail += "; certificates require the craft engine";
    } else if (Spec.SplitDepth > 0) {
      // A split certification is a tree of per-region proofs; the witness
      // format holds exactly one region, and re-proving the unsplit box
      // with certifyRegion would predictably fail (splitting ran because
      // the root alone does not certify). Diagnose instead of re-running.
      Out.Detail += "; certificates are not yet supported for split runs";
    } else {
      // Cfg carries the query's RunControl: a deadline that lands during
      // the witness search stops it.
      if (auto Cert = certifyRegion(Model, Spec.InLo, Spec.InHi,
                                    Spec.TargetClass, Cfg)) {
        Out.CertificateWritten =
            saveCertificate(*Cert, Spec.CertificatePath);
        if (!Out.CertificateWritten)
          Out.Detail += "; failed to write certificate";
      } else if (Control.stopRequested()) {
        Out.Detail += "; certificate skipped: deadline exceeded";
      } else {
        Out.Detail += "; witness construction failed";
      }
    }
  }

  if (Timing) {
    Out.Phases.Populated = true;
    for (const PhaseRow &Row : PhaseRows)
      if (Row.Phase)
        Out.Phases.*Row.Ms = msSince(PhasesBefore, *Row.Phase);
    Out.Phases.SolverMs -= PgdInSolverMs;
    Out.Phases.SolverIterations = SolverIterations;
  }
  return Out;
}

} // namespace

RunOutcome craft::runSpec(const VerificationSpec &Spec) {
  RunOutcome Out;
  std::optional<MonDeq> Model = loadModel(Spec, Out);
  return Model ? runSpecOn(Spec, *Model) : Out;
}

RunOutcome craft::runSpecLoaded(const VerificationSpec &Spec,
                                const MonDeq &Model) {
  return runSpecOn(Spec, Model);
}

std::vector<RunOutcome>
craft::runSpecBatchLoaded(const std::vector<VerificationSpec> &Specs,
                          const std::vector<const MonDeq *> &Models,
                          int Jobs, const std::vector<RunControl> &Controls) {
  std::vector<RunOutcome> Outcomes(Specs.size());
  parallelForIndex(Specs.size(), Jobs, [&](size_t I) {
    const MonDeq *Model = I < Models.size() ? Models[I] : nullptr;
    if (!Model) {
      Outcomes[I].Detail =
          "cannot load model '" + Specs[I].ModelPath + "'";
      return;
    }
    const RunControl Control =
        I < Controls.size() ? Controls[I] : RunControl{};
    Outcomes[I] = runSpecOn(Specs[I], *Model, Control);
  });
  return Outcomes;
}

std::vector<RunOutcome>
craft::runSpecBatch(const std::vector<VerificationSpec> &Specs,
                    const BatchOptions &Opts) {
  // Load each distinct model once and share the read-only instance across
  // workers; a multi-input spec would otherwise reload its model per query.
  std::map<std::string, std::optional<MonDeq>> Loaded;
  for (const VerificationSpec &Spec : Specs)
    Loaded.emplace(Spec.ModelPath, std::nullopt);
  for (auto &Entry : Loaded) {
    Entry.second = MonDeq::load(Entry.first);
    if (Entry.second)
      Entry.second->fbAlphaBound(); // Warm the lazy cache before fan-out.
  }

  std::vector<VerificationSpec> Seeded = Specs;
  std::vector<const MonDeq *> Models(Specs.size());
  for (size_t I = 0; I < Specs.size(); ++I) {
    // Per-task RNG seeding: keyed by batch position, not by worker, so the
    // batch outcome is identical for every job count.
    if (Seeded[I].Attack && Seeded[I].AttackSeed == 0)
      Seeded[I].AttackSeed = taskSeed(Opts.BaseSeed, I);
    const std::optional<MonDeq> &Model = Loaded.at(Specs[I].ModelPath);
    Models[I] = Model ? &*Model : nullptr;
  }

  // One budget shared by the whole batch: every worker polls the same
  // deadline, so a long batch degrades to DeadlineExceeded on the specs
  // that were still unresolved when it expired.
  RunControl Control;
  Control.DeadlineAt = Deadline(Opts.DeadlineMs);
  return runSpecBatchLoaded(Seeded, Models, Opts.Jobs,
                            std::vector<RunControl>(Specs.size(), Control));
}

SplitRunOutcome craft::runSplitCertification(const VerificationSpec &Spec,
                                             int Jobs, int MaxDepth) {
  SplitRunOutcome Out;
  std::optional<MonDeq> Model = loadModel(Spec, Out);
  if (!Model || !inputFits(Spec, *Model, Out))
    return Out;
  SplitOptions Opts; // Global mode: TargetClass stays < 0.
  Opts.MaxDepth = MaxDepth;
  Opts.Jobs = Jobs;
  WallTimer Clock;
  Out.Split = runSplitEngine(*Model, configFor(Spec), Spec.InLo, Spec.InHi,
                             Opts);
  Out.TimeSeconds = Clock.seconds();
  return Out;
}

bool craft::printModelInfo(const std::string &ModelPath) {
  std::optional<MonDeq> Model = MonDeq::load(ModelPath);
  if (!Model) {
    std::printf("error: cannot load model '%s'\n", ModelPath.c_str());
    return false;
  }
  std::printf("model        %s\n", ModelPath.c_str());
  std::printf("input dim    %zu\n", Model->inputDim());
  std::printf("latent dim   %zu\n", Model->latentDim());
  std::printf("classes      %zu\n", Model->outputDim());
  std::printf("activation   %s\n", activationName(Model->activation()));
  std::printf("monotonicity %.4f\n", Model->monotonicity());
  std::printf("fb alpha     < %.6f (concrete convergence bound)\n",
              Model->fbAlphaBound());
  std::printf("hash         %016llx\n",
              (unsigned long long)hashModel(*Model));
  return true;
}

bool craft::runCheck(const std::string &ModelPath,
                     const std::string &CertPath) {
  std::optional<MonDeq> Model = MonDeq::load(ModelPath);
  if (!Model) {
    std::printf("error: cannot load model '%s'\n", ModelPath.c_str());
    return false;
  }
  std::optional<RobustnessCertificate> Cert = loadCertificate(CertPath);
  if (!Cert) {
    std::printf("error: cannot load certificate '%s'\n", CertPath.c_str());
    return false;
  }
  CheckReport Report = checkCertificate(*Model, *Cert);
  std::printf("certificate  %s\n", CertPath.c_str());
  std::printf("domain       %s\n", verifierDomainName(Cert->Domain));
  std::printf("verdict      %s (stage: %s)\n",
              Report.Ok ? "ACCEPTED" : "REJECTED", Report.Stage);
  std::printf("inverse      residual %.3e\n", Report.InverseResidual);
  std::printf("containment  slack %.6f (<= 1 required)\n",
              Report.ContainmentSlack);
  std::printf("margin       rigorous lower bound %.6f\n",
              Report.MarginLower);
  return Report.Ok;
}

//===- core/Verifier.cpp --------------------------------------------------===//

#include "core/Verifier.h"

#include "support/Telemetry.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <deque>
#include <iterator>
#include <memory>
#include <numeric>
#include <optional>
#include <utility>

using namespace craft;

CraftVerifier::CraftVerifier(const MonDeq &Model, CraftConfig Config)
    : Model(Model), Config(Config) {
  assert(!(Config.Phase1Method == Splitting::ForwardBackward &&
           Config.Phase2Method == Splitting::PeacemanRachford) &&
         "FB-then-PR is unsupported: the PR auxiliary set U* would be "
         "unknown (Section 6.3)");
}

CraftResult CraftVerifier::verifyRobustness(const Vector &X, int TargetClass,
                                            double Epsilon) const {
  Vector Lo(X.size()), Hi(X.size());
  for (size_t I = 0; I < X.size(); ++I) {
    Lo[I] = std::max(X[I] - Epsilon, Config.InputClampLo);
    Hi[I] = std::min(X[I] + Epsilon, Config.InputClampHi);
  }
  return verifyRegion(Lo, Hi, TargetClass);
}

CraftResult
CraftVerifier::verifyRegion(const Vector &InLo, const Vector &InHi,
                            int TargetClass,
                            const std::function<bool()> &BeforePhase2,
                            const Phase2Start *Start) const {
  return withDomain(Config.Domain, [&](auto Dom) {
    return verifyImpl<decltype(Dom)>(InLo, InHi, TargetClass, BeforePhase2,
                                     Start);
  });
}

namespace {

/// Iterations-to-containment distribution across every verifyRegion call
/// that ran phase 1 in the process (the paper's Table 2 N column as a
/// live metric). Counts regardless of whether timing is enabled.
const telemetry::Histogram IterationsHist =
    telemetry::histogramMetric("craft.iterations");
/// verifyRegion calls that started phase 2 from a parent's Phase2Start
/// (they run no phase 1, so craft.iterations leaves them out).
const telemetry::Counter InheritedStarts =
    telemetry::counterMetric("split.inherited_starts");
/// Phase-2 steps per verifyRegion call: the line-search probes, the main
/// run and the lambda runs its folds kept (0 when phase 2 did not run).
/// Items a helped section cut past its stop do not count, so the series
/// is the same at every worker count.
const telemetry::Histogram Phase2StepsHist =
    telemetry::histogramMetric("craft.phase2_steps");
/// Probes the alpha line search folded per search, the first certifying
/// or first worse one included (folds are in order, so the series is the
/// same at every worker count).
const telemetry::Histogram LineSearchProbesHist =
    telemetry::histogramMetric("craft.line_search_probes");

/// Why a main phase-2 run (Box's phase-2 loop included) ended.
enum class Phase2Stop { Certified, Stalled, Capped, WidthAbort, Stopped };
/// One count per verifyRegion call that ran a main phase-2 run, indexed by
/// Phase2Stop.
const telemetry::Counter Phase2Stops[] = {
    telemetry::counterMetric("craft.phase2_end.certified"),
    telemetry::counterMetric("craft.phase2_end.stalled"),
    telemetry::counterMetric("craft.phase2_end.capped"),
    telemetry::counterMetric("craft.phase2_end.width_abort"),
    telemetry::counterMetric("craft.phase2_end.stopped"),
};
void countPhase2Stop(Phase2Stop Why) {
  Phase2Stops[static_cast<size_t>(Why)].increment();
}

/// Shared phase-2 bookkeeping: best margin, certification flag, and the
/// no-progress abortion window of App. C.
class MarginTracker {
public:
  MarginTracker(int WindowSteps) : WindowSteps(WindowSteps) {}

  /// Returns true when phase 2 should stop (certified or stalled).
  bool update(const Vector &Margins, const IntervalVector &Hull) {
    double MinMargin = 1e300;
    for (double M : Margins)
      MinMargin = std::min(MinMargin, M);
    if (MinMargin > Best + 1e-12) {
      Best = MinMargin;
      BestHull = Hull;
      SinceImprovement = 0;
    } else {
      ++SinceImprovement;
    }
    Certified = Certified || MinMargin > 0.0;
    return Certified || SinceImprovement >= WindowSteps;
  }

  double best() const { return Best; }
  bool certified() const { return Certified; }
  const IntervalVector &bestHull() const { return BestHull; }

private:
  int WindowSteps;
  int SinceImprovement = 0;
  double Best = -1e300;
  bool Certified = false;
  IntervalVector BestHull;
};

/// Error-term ids one item of a helped section may mint: an item is at
/// most 40 abstract steps, each minting a few times the state dimension.
constexpr uint64_t ItemIdRange = uint64_t(1) << 26;

/// helpedForIndex (support/ThreadPool.h) for items that mint error-term
/// ids. Item I mints from (Base + I R, Base + (I + 1) R], Base being the
/// caller's counter at entry and R = ItemIdRange, on whichever thread runs
/// it, and the caller resumes past every range. So ids order as in the
/// plain loop: an item's ids follow every id it inherits, and the
/// caller's later ids follow every item's.
void helpedWithIdRanges(size_t N, const std::function<void(size_t)> &Fn,
                        const std::function<bool(size_t)> &StopAfter) {
  const uint64_t Base = errorTermIdMark();
  helpedForIndex(
      N,
      [&](size_t I) {
        struct Restore {
          uint64_t Mark = errorTermIdMark();
          ~Restore() { setErrorTermIdMark(Mark); }
        } Own;
        setErrorTermIdMark(Base + I * ItemIdRange);
        Fn(I);
        assert(errorTermIdMark() <= Base + (I + 1) * ItemIdRange &&
               "a helped item overran its error-term id range");
      },
      StopAfter);
  setErrorTermIdMark(Base + N * ItemIdRange);
}

/// Dom::consolidate under the Consolidation phase timer, which also
/// records the craft.consolidate span when tracing is armed.
template <class Dom, class... Args> auto timedConsolidate(Args &&...A) {
  telemetry::PhaseTimer ConsolidatePhase(telemetry::Phase::Consolidation);
  return Dom::consolidate(std::forward<Args>(A)...);
}

/// Phase 1 of Algorithm 1: abstract iteration from \p S until s-step
/// containment (Thm 3.1 / B.1), a width abort, MaxIterations or a stop.
/// Domains with consolidation machinery (the zonotope family) consolidate
/// every r-th iteration and remember proper states; Box remembers plain
/// state copies every iteration — its containment check is exact and
/// needs no order reduction. Sets Res's Containment,
/// ContainmentIteration and TotalIterations; \p S ends as the last state.
template <class Dom>
void runPhase1(const CraftConfig &Config, const AbstractSolver &Solver1,
               typename Dom::State &S, CraftResult &Res) {
  ConsolidationBasis Basis(Solver1.stateDim(), PcaRefreshEvery);
  std::deque<typename Dom::HistoryEntry> History;

  double WMul = 0.0, WAdd = 0.0;
  if (Config.Expansion != ExpansionSchedule::None) {
    WMul = Config.WMul;
    WAdd = Config.WAdd;
  }
  [[maybe_unused]] int Consolidations = 0;
  for (int N = 1; N <= Config.MaxIterations && !Res.Containment; ++N) {
    if (Config.Control.stopRequested())
      break; // Deadline/cancel: give up containment search, stay sound.
    Res.TotalIterations = N;
    if constexpr (Dom::HasConsolidation) {
      if ((N - 1) % Config.ConsolidateEvery == 0) {
        typename Dom::HistoryEntry PS =
            timedConsolidate<Dom>(S, Basis, WMul, WAdd);
        S = PS.Z;
        History.push_front(std::move(PS));
        if (History.size() > static_cast<size_t>(HistorySize))
          History.pop_back();
        if (Config.Expansion == ExpansionSchedule::Exponential &&
            ++Consolidations % 2 == 0) {
          WMul *= 1.1;
          WAdd *= 1.2;
        }
      }
    } else {
      History.push_front(S);
      if (History.size() > static_cast<size_t>(HistorySize))
        History.pop_back();
    }
    S = Dom::step(Solver1, S, 1.0);
    if (N % Config.ContainmentCheckEvery == 0) {
      for (const typename Dom::HistoryEntry &Prev : History)
        if (Dom::contains(Prev, S)) {
          Res.Containment = true;
          Res.ContainmentIteration = N;
          break;
        }
    }
    if (Dom::widthInf(S) > Config.AbortWidth)
      break;
  }
}

/// One phase-2 tightening run (Thm 3.3 / Thm 5.1) from the contained
/// state or an inherited Phase2Start, advanced in installments: it holds
/// its state, consolidation basis, margin tracker and step index, so
/// advancing it to N steps and then to M is the same run as advancing it
/// to M at once. The line-search
/// probes, the main run (the best probe, continued) and the lambda runs
/// are all instances. The solver is borrowed.
template <class Dom> class Phase2Run {
public:
  Phase2Run(const MonDeq &Model, const CraftConfig &Config, int TargetClass,
            const AbstractSolver &Solver, typename Dom::State Entry,
            double LambdaScale)
      : Model(&Model), Config(&Config), TargetClass(TargetClass),
        Solver(&Solver), S(std::move(Entry)), LambdaScale(LambdaScale),
        Basis(Solver.stateDim(), PcaRefreshEvery),
        Track(3 * Config.Phase2Window) {}

  /// Steps until \p MaxSteps steps have run in total, the run has stopped
  /// (certified, stalled or width abort), Control fires, or \p Cut is set
  /// (the run is an item past the stop of a helped section's fold).
  void advanceTo(int MaxSteps, const std::atomic<bool> *Cut = nullptr) {
    TRACE_SPAN("craft.phase2");
    while (!Stopped && Step < MaxSteps) {
      if (Config->Control.stopRequested() || (Cut && *Cut))
        break; // Stop tightening; the best margin so far stands.
      bool UsableForCertification = true;
      if (Config->SameIterationContainment) {
        // Ablation: certify only from states contained in their
        // consolidated predecessor.
        typename Dom::HistoryEntry PS =
            timedConsolidate<Dom>(S, Basis, 0.0, 0.0);
        typename Dom::State Next = Dom::step(*Solver, PS.Z, LambdaScale);
        UsableForCertification = Dom::contains(PS, Next);
        S = std::move(Next);
      } else {
        if (Step > 0 && Step % Config->ConsolidateEvery == 0)
          S = timedConsolidate<Dom>(S, Basis, 0.0, 0.0).Z;
        S = Dom::step(*Solver, S, LambdaScale);
      }
      ++Step;
      if (Dom::widthInf(S) > Config->AbortWidth) {
        Stopped = WidthAborted = true;
      } else if (UsableForCertification) {
        typename Dom::State Z = Dom::zPart(*Solver, S);
        Stopped =
            Track.update(classificationMarginsIn<Dom>(*Model, Z, TargetClass),
                         Dom::hull(Z));
      }
    }
  }

  const MarginTracker &tracker() const { return Track; }
  /// Steps run so far.
  int steps() const { return Step; }
  /// Why the run ended, once advanceTo(\p MaxSteps) has returned.
  Phase2Stop stop(int MaxSteps) const {
    if (WidthAborted)
      return Phase2Stop::WidthAbort;
    if (Stopped)
      return Track.certified() ? Phase2Stop::Certified : Phase2Stop::Stalled;
    return Step >= MaxSteps ? Phase2Stop::Capped : Phase2Stop::Stopped;
  }
  /// The state the run stands at.
  typename Dom::State takeState() && { return std::move(S); }

private:
  const MonDeq *Model;
  const CraftConfig *Config;
  int TargetClass;
  const AbstractSolver *Solver;
  typename Dom::State S;
  double LambdaScale;
  ConsolidationBasis Basis;
  MarginTracker Track;
  int Step = 0;
  bool Stopped = false;
  bool WidthAborted = false;
};

} // namespace

template <class Dom>
CraftResult
CraftVerifier::verifyImpl(const Vector &InLo, const Vector &InHi,
                          int TargetClass,
                          const std::function<bool()> &BeforePhase2,
                          const Phase2Start *Start) const {
  static_assert(AbstractDomain<Dom, AbstractSolver>,
                "domain traits must satisfy the portfolio concept");
  WallTimer Timer;
  TRACE_SPAN("craft.verify");
  CraftResult Res;
  uint64_t Phase2Steps = 0;
  auto finish = [&] {
    Res.TimeSeconds = Timer.seconds();
    Phase2StepsHist.observe(Phase2Steps);
  };

  // PR phase 2 must keep its phase-1 alpha (preservation only holds for
  // fixed alpha), and the same-iteration ablation certifies only from
  // states contained in their predecessor: neither can start from a
  // parent's state, nor leaves one.
  const bool Phase2IsPr = Config.Phase2Method == Splitting::PeacemanRachford;
  const bool CanInherit = Dom::HasConsolidation && !Phase2IsPr &&
                          !Config.SameIterationContainment;
  const bool Inherited = Start && CanInherit;
  if (Inherited) {
    // The inherited ids are 1..k: mint this call's above them.
    setErrorTermIdMark(std::max<uint64_t>(errorTermIdMark(),
                                          Start->Z.numGenerators()));
    InheritedStarts.increment();
  }
  CHZonotope X = CHZonotope::fromBox(InLo, InHi);

  // Phase 1, from the concrete center fixpoint; an inherited start is
  // contained already.
  std::optional<AbstractSolver> Solver1;
  typename Dom::State S;
  if (!Inherited) {
    Vector Center = 0.5 * (InLo + InHi);
    Vector ZStar =
        FixpointSolver(Model, Splitting::PeacemanRachford).solve(Center).Z;
    Solver1.emplace(Model, Config.Phase1Method, Config.Alpha1, X);
    S = Dom::initial(*Solver1, ZStar);
    runPhase1<Dom>(Config, *Solver1, S, Res);
    IterationsHist.observe(static_cast<uint64_t>(Res.TotalIterations));
    if (!Res.Containment) {
      finish();
      return Res;
    }
  }
  Res.Containment = true;

  const int Phase2Cap =
      std::min(Config.MaxIterations, Config.Phase2MaxIterations);
  if constexpr (!Dom::HasConsolidation) {
    // Phase 2 on the Box domain (PR phase-1 alpha retained; Box has no
    // consolidation or lambda choices).
    MarginTracker Track(3 * Config.Phase2Window);
    typename Dom::State Z = Dom::zPart(*Solver1, S);
    Track.update(classificationMarginsIn<Dom>(Model, Z, TargetClass),
                 Dom::hull(Z));
    const bool SkipPhase2 =
        !Track.certified() && BeforePhase2 && BeforePhase2();

    Phase2Stop Why = Phase2Stop::Capped;
    for (int Step = 0; Step < Phase2Cap && !SkipPhase2; ++Step) {
      if (Config.Control.stopRequested()) {
        Why = Phase2Stop::Stopped;
        break;
      }
      S = Dom::step(*Solver1, S, 1.0);
      ++Phase2Steps;
      if (Dom::widthInf(S) > Config.AbortWidth) {
        Why = Phase2Stop::WidthAbort;
        break;
      }
      typename Dom::State ZI = Dom::zPart(*Solver1, S);
      if (Track.update(classificationMarginsIn<Dom>(Model, ZI, TargetClass),
                       Dom::hull(ZI))) {
        Why = Track.certified() ? Phase2Stop::Certified : Phase2Stop::Stalled;
        break;
      }
    }
    if (!SkipPhase2)
      countPhase2Stop(Why);
    Res.BestMargin = Track.best();
    Res.Certified = Track.certified();
    Res.FixpointHull = Track.bestHull();
    finish();
    return Res;
  } else {
    typename Dom::State SEntry;
    if (Inherited) {
      SEntry = Start->Z;
    } else {
      // S provably contains the true fixpoint set. Seed the result with
      // its margins before tightening.
      typename Dom::State Z = Dom::zPart(*Solver1, S);
      MarginTracker Seed(1);
      Seed.update(classificationMarginsIn<Dom>(Model, Z, TargetClass),
                  Dom::hull(Z));
      Res.BestMargin = Seed.best();
      Res.Certified = Seed.certified();
      Res.FixpointHull = Seed.bestHull();
      if (Res.Certified) {
        finish();
        return Res;
      }
      SEntry = Phase2IsPr ? std::move(S) : std::move(Z);
    }

    if (BeforePhase2 && BeforePhase2()) {
      finish();
      return Res;
    }

    // Phase 2: fixpoint-set-preserving tightening (Thm 3.3 / 5.1).
    // PR keeps its phase-1 alpha; FB may use any alpha in [0,1]: the
    // parent's for an inherited start, else the configured one or, by
    // default, a line search.
    auto startRun = [&](const AbstractSolver &Solver2, double LambdaScale) {
      return Phase2Run<Dom>(Model, Config, TargetClass, Solver2, SEntry,
                            LambdaScale);
    };

    // The main run and the solver it uses; the lambda runs share it.
    std::unique_ptr<AbstractSolver> Solver2Storage;
    const AbstractSolver *Solver2 = nullptr;
    std::optional<Phase2Run<Dom>> Main;
    if (Phase2IsPr) {
      Solver2 = &*Solver1; // PR keeps phase 1's solver.
      Res.ChosenAlpha2 = Config.Phase1Method == Splitting::PeacemanRachford
                             ? Solver1->alpha()
                             : Config.Alpha2;
    } else {
      Res.ChosenAlpha2 = Inherited ? Start->Alpha2 : Config.Alpha2;
      if (Res.ChosenAlpha2 < 0.0) {
        // Adaptive line search over alpha in [0, 1] (Thm 5.1): a 6-step
        // probe per candidate, folded in order. Every alpha is sound, so
        // the first probe that certifies is the phase-2 result. The fold
        // also stops at the first probe whose best margin is below the
        // best probe's: the margin rises with alpha to a peak and then
        // collapses (on mnist_fc100 it peaks at 0.05 and is about twice as
        // negative at each later candidate), so later probes never win. The best probe
        // folded is the main run and continues where it stopped — the
        // run a fresh start at its alpha would repeat. Idle pool threads
        // may run later probes ahead of the fold; one past the stop stops
        // at its next step.
        static const double Candidates[] = {0.01, 0.02, 0.03, 0.05,
                                            0.08, 0.12, 0.2,  0.35};
        struct Probe {
          std::unique_ptr<AbstractSolver> Solver;
          std::optional<Phase2Run<Dom>> Run;
        };
        std::vector<Probe> Probes(std::size(Candidates));
        std::atomic<bool> Cut{false};
        double BestProbe = -1e300;
        uint64_t Folded = 0;
        helpedWithIdRanges(
            Probes.size(),
            [&](size_t I) {
              Probe &P = Probes[I];
              P.Solver = std::make_unique<AbstractSolver>(
                  Model, Splitting::ForwardBackward, Candidates[I], X);
              P.Run.emplace(startRun(*P.Solver, 1.0));
              P.Run->advanceTo(/*MaxSteps=*/6, &Cut);
            },
            [&](size_t I) {
              Probe &P = Probes[I];
              Phase2Steps += P.Run->steps();
              ++Folded;
              const double Best = P.Run->tracker().best();
              const bool Certifies = P.Run->tracker().certified();
              const bool Worse = Best < BestProbe;
              if (Certifies || Best > BestProbe) {
                BestProbe = Best;
                Main.emplace(std::move(*P.Run));
                Solver2Storage = std::move(P.Solver);
                Res.ChosenAlpha2 = Candidates[I];
              }
              P = Probe(); // Free it; a chosen probe has moved out.
              const bool Stop =
                  Certifies || Worse || Config.Control.stopRequested();
              Cut = Stop;
              return Stop;
            });
        LineSearchProbesHist.observe(Folded);
      }
      if (!Solver2Storage)
        Solver2Storage = std::make_unique<AbstractSolver>(
            Model, Splitting::ForwardBackward, Res.ChosenAlpha2, X);
      Solver2 = Solver2Storage.get();
    }
    // A run's best margin replaces the result's when it is higher.
    auto absorb = [&](const MarginTracker &Track) {
      if (Track.best() > Res.BestMargin) {
        Res.BestMargin = Track.best();
        Res.FixpointHull = Track.bestHull();
      }
      return Track.certified();
    };
    if (!Main)
      Main.emplace(startRun(*Solver2, 1.0));
    const int ProbeSteps = Main->steps(); // Counted with the probes.
    Main->advanceTo(Phase2Cap);
    Phase2Steps += Main->steps() - ProbeSteps;
    const Phase2Stop MainStop = Main->stop(Phase2Cap);
    countPhase2Stop(MainStop);
    Res.Certified = absorb(Main->tracker());

    // Lambda optimization (App. C): only for samples close to
    // certification.
    if (!Res.Certified && Config.LambdaOptLevel > 0 &&
        Res.BestMargin > -LambdaOptMarginWindow) {
      std::vector<double> Scales =
          Config.LambdaOptLevel >= 2
              ? std::vector<double>{0.8, 0.9, 0.95, 1.05, 1.1, 1.25}
              : std::vector<double>{0.9, 1.1};
      const int Steps =
          std::min(Config.LambdaOptLevel >= 2 ? 40 : 20, Phase2Cap);
      // The scales fold in order and the first that certifies ends the
      // search; idle pool threads may run later scales ahead of the
      // fold, and one past the certifying scale stops at its next step.
      std::vector<std::optional<MarginTracker>> Tracks(Scales.size());
      std::vector<int> RunSteps(Scales.size());
      std::atomic<bool> Cut{false};
      helpedWithIdRanges(
          Scales.size(),
          [&](size_t I) {
            Phase2Run<Dom> Run = startRun(*Solver2, Scales[I]);
            Run.advanceTo(Steps, &Cut);
            Tracks[I] = Run.tracker();
            RunSteps[I] = Run.steps();
          },
          [&](size_t I) {
            Phase2Steps += RunSteps[I];
            Res.Certified = absorb(*Tracks[I]);
            const bool Stop = Res.Certified || Config.Control.stopRequested();
            Cut = Stop;
            return Stop;
          });
    }

    // Hand the main run's last state to sub-regions, ids renumbered 1..k
    // in column order: a pure function of the run, whatever the thread's
    // counter stood at.
    if (CanInherit && !Res.Certified && MainStop != Phase2Stop::WidthAbort) {
      CHZonotope End = std::move(*Main).takeState();
      std::vector<uint64_t> Ids(End.numGenerators());
      std::iota(Ids.begin(), Ids.end(), uint64_t(1));
      Res.Phase2End = std::make_shared<const Phase2Start>(
          Phase2Start{std::move(End).withTermIds(std::move(Ids)),
                      Res.ChosenAlpha2});
    }

    finish();
    return Res;
  }
}

//===- core/Verifier.cpp --------------------------------------------------===//

#include "core/Verifier.h"

#include "support/Telemetry.h"
#include "support/Timer.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
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

CraftResult CraftVerifier::verifyRegion(const Vector &InLo, const Vector &InHi,
                                        int TargetClass) const {
  return withDomain(Config.Domain, [&](auto Dom) {
    return verifyImpl<decltype(Dom)>(InLo, InHi, TargetClass);
  });
}

namespace {

/// Iterations-to-containment distribution across every verifyRegion call
/// in the process (the paper's Table 2 N column as a live metric).
/// Counts regardless of whether timing is enabled.
const telemetry::Histogram IterationsHist =
    telemetry::histogramMetric("craft.iterations");

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

/// Dom::consolidate under the Consolidation phase timer, which also
/// records the craft.consolidate span when tracing is armed.
template <class Dom, class... Args> auto timedConsolidate(Args &&...A) {
  telemetry::PhaseTimer ConsolidatePhase(telemetry::Phase::Consolidation);
  return Dom::consolidate(std::forward<Args>(A)...);
}

} // namespace

template <class Dom>
CraftResult CraftVerifier::verifyImpl(const Vector &InLo, const Vector &InHi,
                                      int TargetClass) const {
  static_assert(AbstractDomain<Dom, AbstractSolver>,
                "domain traits must satisfy the portfolio concept");
  WallTimer Timer;
  TRACE_SPAN("craft.verify");
  CraftResult Res;

  CHZonotope X = CHZonotope::fromBox(InLo, InHi);
  Vector Center = 0.5 * (InLo + InHi);
  Vector ZStar =
      FixpointSolver(Model, Splitting::PeacemanRachford).solve(Center).Z;

  // Phase 1: abstract iteration until s-step containment (Thm 3.1 / B.1).
  // Domains with consolidation machinery (the zonotope family) consolidate
  // every r-th iteration and remember proper states; Box remembers plain
  // state copies every iteration — its containment check is exact and
  // needs no order reduction.
  AbstractSolver Solver1(Model, Config.Phase1Method, Config.Alpha1, X);
  typename Dom::State S = Dom::initial(Solver1, ZStar);
  ConsolidationBasis Basis(Solver1.stateDim(), Config.PcaRefreshEvery);
  std::deque<typename Dom::HistoryEntry> History;

  double WMul = 0.0, WAdd = 0.0;
  if (Config.Expansion != ExpansionSchedule::None) {
    WMul = Config.WMul;
    WAdd = Config.WAdd;
  }
  [[maybe_unused]] int Consolidations = 0;
  bool Contained = false;

  for (int N = 1; N <= Config.MaxIterations && !Contained; ++N) {
    if (Config.Control.stopRequested())
      break; // Deadline/cancel: give up containment search, stay sound.
    Res.TotalIterations = N;
    if constexpr (Dom::HasConsolidation) {
      if ((N - 1) % Config.ConsolidateEvery == 0) {
        typename Dom::HistoryEntry PS =
            timedConsolidate<Dom>(S, Basis, WMul, WAdd);
        S = PS.Z;
        History.push_front(std::move(PS));
        if (History.size() > static_cast<size_t>(Config.HistorySize))
          History.pop_back();
        if (Config.Expansion == ExpansionSchedule::Exponential &&
            ++Consolidations % 2 == 0) {
          WMul *= 1.1;
          WAdd *= 1.2;
        }
      }
    } else {
      History.push_front(S);
      if (History.size() > static_cast<size_t>(Config.HistorySize))
        History.pop_back();
    }
    S = Dom::step(Solver1, S, 1.0);
    if (N % Config.ContainmentCheckEvery == 0) {
      for (const typename Dom::HistoryEntry &Prev : History)
        if (Dom::contains(Prev, S)) {
          Contained = true;
          Res.ContainmentIteration = N;
          break;
        }
    }
    if (Dom::widthInf(S) > Config.AbortWidth)
      break;
  }
  IterationsHist.observe(static_cast<uint64_t>(Res.TotalIterations));

  Res.Containment = Contained;
  if (!Contained) {
    Res.TimeSeconds = Timer.seconds();
    return Res;
  }

  if constexpr (!Dom::HasConsolidation) {
    // Phase 2 on the Box domain (PR phase-1 alpha retained; Box has no
    // consolidation or lambda choices).
    MarginTracker Track(3 * Config.Phase2Window);
    typename Dom::State Z = Dom::zPart(Solver1, S);
    Track.update(classificationMarginsIn<Dom>(Model, Z, TargetClass),
                 Dom::hull(Z));

    for (int Step = 0; Step < Config.MaxIterations; ++Step) {
      if (Config.Control.stopRequested())
        break;
      S = Dom::step(Solver1, S, 1.0);
      if (Dom::widthInf(S) > Config.AbortWidth)
        break;
      typename Dom::State ZI = Dom::zPart(Solver1, S);
      if (Track.update(classificationMarginsIn<Dom>(Model, ZI, TargetClass),
                       Dom::hull(ZI)))
        break;
    }
    Res.BestMargin = Track.best();
    Res.Certified = Track.certified();
    Res.FixpointHull = Track.bestHull();
    Res.TimeSeconds = Timer.seconds();
    return Res;
  } else {
    // S provably contains the true fixpoint set. Seed the result with its
    // margins before tightening.
    {
      typename Dom::State Z = Dom::zPart(Solver1, S);
      MarginTracker Seed(1);
      Seed.update(classificationMarginsIn<Dom>(Model, Z, TargetClass),
                  Dom::hull(Z));
      Res.BestMargin = Seed.best();
      Res.Certified = Seed.certified();
      Res.FixpointHull = Seed.bestHull();
      if (Res.Certified) {
        Res.TimeSeconds = Timer.seconds();
        return Res;
      }
    }

    // Phase 2: fixpoint-set-preserving tightening (Thm 3.3 / 5.1).
    // PR must keep its phase-1 alpha (preservation only holds for fixed
    // alpha); FB may use any alpha in [0,1] and is line searched.
    auto runPhase2 = [&](const AbstractSolver &Solver2,
                         typename Dom::State S2, double LambdaScale,
                         int MaxSteps) -> MarginTracker {
      TRACE_SPAN("craft.phase2");
      MarginTracker Track(3 * Config.Phase2Window);
      ConsolidationBasis Basis2(Solver2.stateDim(), Config.PcaRefreshEvery);
      for (int Step = 0; Step < MaxSteps; ++Step) {
        if (Config.Control.stopRequested())
          break; // Stop tightening; the best margin so far stands.
        bool UsableForCertification = true;
        if (Config.SameIterationContainment) {
          // Ablation: certify only from states contained in their
          // consolidated predecessor.
          typename Dom::HistoryEntry PS =
              timedConsolidate<Dom>(S2, Basis2, 0.0, 0.0);
          typename Dom::State Next = Dom::step(Solver2, PS.Z, LambdaScale);
          UsableForCertification = Dom::contains(PS, Next);
          S2 = std::move(Next);
        } else {
          if (Step > 0 && Step % Config.ConsolidateEvery == 0)
            S2 = timedConsolidate<Dom>(S2, Basis2, 0.0, 0.0).Z;
          S2 = Dom::step(Solver2, S2, LambdaScale);
        }
        if (Dom::widthInf(S2) > Config.AbortWidth)
          break;
        if (!UsableForCertification)
          continue;
        typename Dom::State Z = Dom::zPart(Solver2, S2);
        if (Track.update(classificationMarginsIn<Dom>(Model, Z, TargetClass),
                         Dom::hull(Z)))
          break;
      }
      return Track;
    };

    bool Phase2IsPr = Config.Phase2Method == Splitting::PeacemanRachford;
    typename Dom::State SEntry = Phase2IsPr ? S : Dom::zPart(Solver1, S);

    double Alpha2 = Config.Alpha2;
    std::unique_ptr<AbstractSolver> Solver2Storage;
    const AbstractSolver *Solver2 = nullptr;
    if (Phase2IsPr && Config.Phase1Method == Splitting::PeacemanRachford) {
      Solver2 = &Solver1;
      Alpha2 = Solver1.alpha();
    } else if (Phase2IsPr) {
      Solver2 = &Solver1; // Phase 1 was PR too (ctor forbids FB-then-PR).
    } else {
      // FB tightening. Adaptive line search over alpha in [0, 1] (Thm 5.1)
      // when no fixed alpha was configured: probe a short unroll per
      // candidate and keep the best margin.
      if (Alpha2 < 0.0) {
        static const double Candidates[] = {0.01, 0.02, 0.03, 0.05,
                                            0.08, 0.12, 0.2,  0.35};
        double BestProbe = -1e300;
        for (double Cand : Candidates) {
          if (Config.Control.stopRequested())
            break;
          AbstractSolver Probe(Model, Splitting::ForwardBackward, Cand, X);
          MarginTracker Track =
              runPhase2(Probe, SEntry, 1.0, /*MaxSteps=*/6);
          if (Track.best() > BestProbe) {
            BestProbe = Track.best();
            Alpha2 = Cand;
          }
        }
      }
      Solver2Storage = std::make_unique<AbstractSolver>(
          Model, Splitting::ForwardBackward, Alpha2, X);
      Solver2 = Solver2Storage.get();
    }
    Res.ChosenAlpha2 = Alpha2;

    MarginTracker Main = runPhase2(
        *Solver2, SEntry, 1.0,
        std::min(Config.MaxIterations, Config.Phase2MaxIterations));
    if (Main.best() > Res.BestMargin) {
      Res.BestMargin = Main.best();
      Res.FixpointHull = Main.bestHull();
    }
    Res.Certified = Main.certified();

    // Lambda optimization (App. C): only for samples close to
    // certification.
    if (!Res.Certified && Config.LambdaOptLevel > 0 &&
        Res.BestMargin > -Config.LambdaOptMarginWindow) {
      std::vector<double> Scales =
          Config.LambdaOptLevel >= 2
              ? std::vector<double>{0.8, 0.9, 0.95, 1.05, 1.1, 1.25}
              : std::vector<double>{0.9, 1.1};
      int Steps = Config.LambdaOptLevel >= 2 ? 40 : 20;
      for (double Scale : Scales) {
        if (Config.Control.stopRequested())
          break;
        MarginTracker Track = runPhase2(*Solver2, SEntry, Scale, Steps);
        if (Track.best() > Res.BestMargin) {
          Res.BestMargin = Track.best();
          Res.FixpointHull = Track.bestHull();
        }
        if (Track.certified()) {
          Res.Certified = true;
          break;
        }
      }
    }

    Res.TimeSeconds = Timer.seconds();
    return Res;
  }
}

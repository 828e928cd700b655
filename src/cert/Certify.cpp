//===- cert/Certify.cpp ---------------------------------------------------===//

#include "cert/Certify.h"

#include "cert/Checker.h"
#include "core/AbstractSolver.h"
#include "domains/OrderReduction.h"

#include <algorithm>
#include <deque>

using namespace craft;

namespace {

/// Runs the verifier's phase 1 (containment search) and returns the state
/// at containment, or nullopt (also when Config.Control stops it).
std::optional<CHZonotope> findContainedState(const MonDeq &Model,
                                             const CraftConfig &Config,
                                             const CHZonotope &X,
                                             const Vector &ZStar) {
  AbstractSolver Solver1(Model, Config.Phase1Method, Config.Alpha1, X);
  CHZonotope S = Solver1.initialState(ZStar);
  ConsolidationBasis Basis(Solver1.stateDim(), PcaRefreshEvery);
  std::deque<ProperState> History;
  double WMul = Config.Expansion != ExpansionSchedule::None ? Config.WMul
                                                            : 0.0;
  double WAdd = Config.Expansion != ExpansionSchedule::None ? Config.WAdd
                                                            : 0.0;
  int Consolidations = 0;
  for (int N = 1; N <= Config.MaxIterations; ++N) {
    if (Config.Control.stopRequested())
      return std::nullopt;
    if ((N - 1) % Config.ConsolidateEvery == 0) {
      ProperState PS = consolidateProper(S, Basis, WMul, WAdd);
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
    S = Solver1.step(S, 1.0, absorbBoxFor(Config.Domain));
    for (const ProperState &PS : History)
      if (containsCH(PS.Z, PS.InvGens, S).Contained)
        return S;
    if (S.concretizationRadius().normInf() > Config.AbortWidth)
      break;
  }
  return std::nullopt;
}

} // namespace

std::optional<RobustnessCertificate>
craft::certifyRegion(const MonDeq &Model, const Vector &InLo,
                     const Vector &InHi, int TargetClass,
                     const CraftConfig &Config) {
  CHZonotope X = CHZonotope::fromBox(InLo, InHi);
  Vector Center = 0.5 * (InLo + InHi);
  Vector ZStar =
      FixpointSolver(Model, Splitting::PeacemanRachford).solve(Center).Z;

  std::optional<CHZonotope> Contained =
      findContainedState(Model, Config, X, ZStar);
  if (!Contained)
    return std::nullopt;

  // Self-contained witness: consolidate the contained state (with a little
  // expansion so the witness has slack to re-contract into) and find a
  // small step count whose image the checker will accept.
  AbstractSolver Solver1(Model, Config.Phase1Method, Config.Alpha1, X);
  ConsolidationBasis Basis(Solver1.stateDim(), PcaRefreshEvery);
  ProperState Witness = consolidateProper(
      *Contained, Basis, std::max(Config.WMul, 1e-3),
      std::max(Config.WAdd, 1e-3));

  RobustnessCertificate Cert;
  Cert.ModelHash = hashModel(Model);
  Cert.InLo = InLo;
  Cert.InHi = InHi;
  Cert.TargetClass = TargetClass;
  // The witness is a zonotope, so a Box-domain run (whose containment
  // search above already ran the CH machinery) records CH-Zonotope.
  Cert.Domain = Config.Domain == VerifierDomain::Box
                    ? VerifierDomain::CHZono
                    : Config.Domain;
  Cert.Outer = Witness.Z;
  Cert.Phase1Method = Config.Phase1Method;
  Cert.Alpha1 = Solver1.alpha();
  Cert.Phase2Method = Config.Phase2Method;
  Cert.LambdaScale = 1.0;

  // The checker re-derives everything from (Outer, recipe); search small
  // recipes and keep the first that self-checks. Alpha2 candidates mirror
  // the verifier's line-search grid (Thm 5.1 makes each sound).
  std::vector<double> Alpha2Candidates;
  if (Cert.Phase2Method == Splitting::PeacemanRachford)
    Alpha2Candidates = {Cert.Alpha1};
  else if (Config.Alpha2 > 0.0)
    Alpha2Candidates = {Config.Alpha2};
  else
    Alpha2Candidates = {0.02, 0.05, 0.12, 0.35};

  for (int ContainSteps : {1, 2, 3, 6}) {
    Cert.ContainSteps = ContainSteps;
    for (double Alpha2 : Alpha2Candidates) {
      Cert.Alpha2 = Alpha2;
      Cert.Phase2Steps = std::min(Config.Phase2MaxIterations, 120);
      if (Config.Control.stopRequested())
        return std::nullopt;
      CheckReport Report = checkCertificate(Model, Cert);
      if (Report.Ok) {
        // Trim the recipe to the certifying step for cheap re-checks.
        Cert.Phase2Steps = Report.CertifiedAtStep;
        return Cert;
      }
    }
  }
  return std::nullopt;
}

std::optional<RobustnessCertificate>
craft::certifyRobustness(const MonDeq &Model, const Vector &X,
                         int TargetClass, double Epsilon,
                         const CraftConfig &Config) {
  Vector Lo = X, Hi = X;
  for (size_t I = 0; I < X.size(); ++I) {
    Lo[I] = std::max(X[I] - Epsilon, Config.InputClampLo);
    Hi[I] = std::min(X[I] + Epsilon, Config.InputClampHi);
  }
  return certifyRegion(Model, Lo, Hi, TargetClass, Config);
}

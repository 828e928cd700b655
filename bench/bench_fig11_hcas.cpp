//===- bench/bench_fig11_hcas.cpp -----------------------------------------===//
//
// Reproduces the HCAS global certification experiment (Section 6.2 /
// Fig. 11): a monDEQ (FCx100) is trained on the MDP policy table and Craft
// + domain splitting exhaustively certify its advisories over the input
// slice theta in [-90.5deg, -89.5deg].
//
// Output: the certified fraction of the slice, plus ASCII maps of (left)
// the MDP table policy and (right) the certified monDEQ decision regions --
// '.' marks cells whose region is not certified. Expected shape: large
// certified areas away from decision boundaries, uncertified bands along
// them (paper: 82.8% certified overall).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "core/SplitEngine.h"
#include "data/Hcas.h"
#include "support/Timer.h"

#include <cmath>
#include <cstdlib>

using namespace craft;

namespace {
constexpr double Deg = 3.14159265358979323846 / 180.0;

/// Map a certified-region list back to the class at a query point.
int certifiedClassAt(const std::vector<SplitRegion> &Regions,
                     const Vector &Point) {
  for (const SplitRegion &Region : Regions) {
    bool Inside = true;
    for (size_t I = 0; I < Point.size() && Inside; ++I)
      Inside = Point[I] >= Region.Lo[I] - 1e-12 &&
               Point[I] <= Region.Hi[I] + 1e-12;
    if (Inside)
      return Region.CertifiedClass;
  }
  return -1;
}
} // namespace

int main() {
  std::printf("== Fig. 11: HCAS global certification by domain splitting "
              "==\n\n");

  const ModelSpec *Spec = findModelSpec("hcas_fc100");
  MonDeq Model = getOrTrainModel(*Spec);
  static const HcasMdp Mdp;

  Dataset Test = makeTestSet(*Spec, 400);
  double Acc = evaluateAccuracy(Model, Test);
  std::printf("monDEQ policy-table accuracy: %.1f%%\n\n", 100.0 * Acc);

  // Input slice: full (x, y) extent, theta in [-90.5, -89.5] degrees,
  // normalized to the network's [0,1]^3 input space.
  Vector SliceLo = HcasMdp::normalizeInput(HcasMdp::XMin, HcasMdp::YMin,
                                           -90.5 * Deg);
  Vector SliceHi = HcasMdp::normalizeInput(HcasMdp::XMax, HcasMdp::YMax,
                                           -89.5 * Deg);

  CraftConfig Config = craftConfigFor(*Spec);
  Config.LambdaOptLevel = 0; // Many small regions; keep each cheap.
  SplitOptions Opts; // Depth controls region count (not a sample count).
  if (const char *Env = std::getenv("CRAFT_SPLIT_DEPTH"))
    Opts.MaxDepth = std::max(1, std::atoi(Env));
  // CRAFT_JOBS fans the region waves out across workers (0 = all
  // hardware threads); the result is identical for every value.
  Opts.Jobs = benchJobs();
  WallTimer SplitClock;
  SplitResult Res = runSplitEngine(Model, Config, SliceLo, SliceHi, Opts);

  std::printf("certified fraction of the slice: %.1f%%  (%zu regions, %zu "
              "certified, %zu verifier calls, %zu waves, %.1f s)\n\n",
              100.0 * Res.CertifiedFraction, Res.Regions.size(),
              Res.NumCertified, Res.NumVerifierCalls, Res.NumWaves,
              SplitClock.seconds());

  // ASCII maps over the (x, y) plane at theta = -90 deg.
  const size_t Grid = 30;
  const char Glyphs[] = {'C', 'l', 'r', 'L', 'R'}; // COC WL WR SL SR.
  std::printf("MDP table policy (left) vs certified monDEQ advisories "
              "(right; '.' = uncertified)\n");
  std::printf("x: %.0f..%.0f kft, y: %.0f..%.0f kft, theta = -90 deg\n\n",
              HcasMdp::XMin, HcasMdp::XMax, HcasMdp::YMin, HcasMdp::YMax);
  for (size_t Row = 0; Row < Grid; ++Row) {
    double Y = HcasMdp::YMax -
               (HcasMdp::YMax - HcasMdp::YMin) * Row / (Grid - 1);
    std::string Left, Right;
    for (size_t Col = 0; Col < Grid; ++Col) {
      double X = HcasMdp::XMin +
                 (HcasMdp::XMax - HcasMdp::XMin) * Col / (Grid - 1);
      Left += Glyphs[Mdp.policyAction(X, Y, -90.0 * Deg)];
      int Cert = certifiedClassAt(Res.Regions,
                                  HcasMdp::normalizeInput(X, Y, -90.0 * Deg));
      Right += Cert < 0 ? '.' : Glyphs[Cert];
    }
    std::printf("%s   %s\n", Left.c_str(), Right.c_str());
  }
  std::printf("\nlegend: C=COC l=WL r=WR L=SL R=SR\n");
  return 0;
}

//===- examples/hcas_global.cpp - Global certification demo ---------------===//
//
// Global (whole-input-space) guarantees via domain splitting (Section 6.2):
// an HCAS advisory network is certified region-by-region so that every
// input in a certified region provably yields the same advisory.
//
// Run:  ./build/examples/hcas_global [max_split_depth] [jobs]
//
// jobs fans the split waves out over that many threads (0 = all hardware
// threads); the certified regions are identical for every value.
//
//===----------------------------------------------------------------------===//

#include "core/DomainSplitting.h"
#include "data/Hcas.h"
#include "nn/ModelZoo.h"
#include "nn/Training.h"

#include <cstdio>
#include <cstdlib>

using namespace craft;

int main(int Argc, char **Argv) {
  int MaxDepth = Argc > 1 ? std::atoi(Argv[1]) : 9;
  int Jobs = Argc > 2 ? std::atoi(Argv[2]) : 1;

  const ModelSpec *Spec = findModelSpec("hcas_fc100");
  MonDeq Model = getOrTrainModel(*Spec);
  Dataset Test = makeTestSet(*Spec, 300);
  std::printf("HCAS monDEQ accuracy vs the MDP policy table: %.1f%%\n",
              100.0 * evaluateAccuracy(Model, Test));

  // Certify a head-on encounter slice: intruder ahead-left, approaching.
  constexpr double Deg = 3.14159265358979323846 / 180.0;
  Vector Lo = HcasMdp::normalizeInput(0.0, -2.0, -91.0 * Deg);
  Vector Hi = HcasMdp::normalizeInput(10.0, 2.0, -89.0 * Deg);

  CraftConfig Config;
  Config.Alpha1 = 0.06;
  Config.LambdaOptLevel = 0;
  SplitResult Res =
      certifyByDomainSplitting(Model, Config, Lo, Hi, MaxDepth, Jobs);

  std::printf("certified %.1f%% of the encounter region "
              "(%zu regions, %zu certified)\n",
              100.0 * Res.CertifiedFraction, Res.Regions.size(),
              Res.NumCertified);

  // Advisory inventory over certified regions.
  size_t PerAction[HcasMdp::NumActions] = {};
  for (const SplitRegion &Region : Res.Regions)
    if (Region.CertifiedClass >= 0)
      ++PerAction[Region.CertifiedClass];
  std::printf("certified advisories: ");
  for (size_t A = 0; A < HcasMdp::NumActions; ++A)
    if (PerAction[A] > 0)
      std::printf("%s x%zu  ", HcasMdp::actionName(static_cast<int>(A)),
                  PerAction[A]);
  std::printf("\n");
  return 0;
}

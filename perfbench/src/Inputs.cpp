//===- perfbench/src/Inputs.cpp -------------------------------------------===//

#include "Inputs.h"

#include "data/GaussianMixture.h"
#include "nn/ModelZoo.h"
#include "nn/MonDeq.h"
#include "nn/Solvers.h"
#include "nn/Training.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

using namespace perfbench;
using namespace craft;
namespace fs = std::filesystem;

namespace {

/// Bump when the generated inputs change, so stale caches regenerate.
constexpr const char *InputsVersion = "perfbench-inputs 8";

std::string markerPath(const std::string &Dir) { return Dir + "/inputs.ok"; }

bool writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path, std::ios::binary);
  Out << Text;
  return static_cast<bool>(Out);
}

std::string vectorText(const Vector &V) {
  std::string S;
  for (size_t I = 0; I < V.size(); ++I) {
    S += ' ';
    S += exact(V[I]);
  }
  return S;
}

/// The bench_split / bench_cascade recipe: a 5-dim, latent-10, 3-class
/// monDEQ trained on a Gaussian mixture, small enough that one verifier
/// call takes about a millisecond. The recipe's own seeds are fixed: a
/// model trained per workload seed moved split-gmm's qps by 2x between
/// seeds, drowning any change under test.
MonDeq trainGmmModel(uint64_t DataSeed, uint64_t InitSeed, Dataset &Train) {
  Rng DataRng(DataSeed);
  Train = makeGaussianMixture(DataRng, 250, 5, 3);
  Rng InitRng(InitSeed);
  MonDeq Model = MonDeq::randomFc(InitRng, 5, 10, 3, 3.0);
  TrainOptions Opts;
  Opts.Epochs = 10;
  trainMonDeq(Model, Train, Opts);
  return Model;
}

/// verify-mnist: the zoo model mnist_fc100 (trained once per build tree,
/// next to the per-seed directories, by the zoo's own recipe) and a pool of
/// correctly classified centres from the synthetic MNIST test set, an equal
/// share at each radius of MnistRadii.
///
/// The centres are one fixed stratified draw; the workload seed sets each
/// query's PGD seed. A query that stays undecided costs 2 to 4 s against
/// 0.1 to 0.7 s for a certified one, and a per-seed draw of centres moved
/// the number of undecided queries, and with it the cost of a pass, by
/// about a fifth between seeds.
bool generateMnist(uint64_t Seed, const std::string &Dir) {
  const ModelSpec &Zoo = *findModelSpec("mnist_fc100");
  setenv("CRAFT_MODEL_DIR", fs::path(Dir).parent_path().c_str(), 1);
  const MonDeq Model = getOrTrainModel(Zoo, /*Verbose=*/false);
  if (!Model.save(modelPath(Dir)))
    return false;

  // Candidates: the correctly classified test samples (Table 2 counts only
  // those), each with a first-order estimate of its l-inf distance to the
  // decision boundary: logit margin over the l1 norm of the margin's input
  // gradient.
  constexpr uint64_t CentreSeed = 1;
  ModelSpec Centres = Zoo;
  Centres.Seed = taskSeed(CentreSeed, 1);
  const Dataset Test = makeTestSet(Centres, 1152);
  const FixpointSolver Solver(Model, Splitting::PeacemanRachford);
  std::vector<std::pair<double, size_t>> Ranked; // (distance, test index)
  for (size_t I = 0; I < Test.size(); ++I) {
    const Vector X = Test.input(I);
    const Vector Logits = Solver.logits(X);
    const size_t Label = size_t(Test.Labels[I]);
    size_t Runner = Label == 0 ? 1 : 0;
    for (size_t C = 0; C < Logits.size(); ++C)
      if (C != Label && Logits[C] > Logits[Runner])
        Runner = C;
    const double Margin = Logits[Label] - Logits[Runner];
    if (Margin <= 0)
      continue;
    Vector Coef(Logits.size());
    Coef[Label] = 1.0;
    Coef[Runner] = -1.0;
    const Vector G = inputGradient(Model, Solver, X, Coef);
    double L1 = 0.0;
    for (size_t J = 0; J < G.size(); ++J)
      L1 += std::abs(G[J]);
    Ranked.emplace_back(Margin / std::max(L1, 1e-12), I);
  }
  if (Ranked.size() < MnistPoolSize) {
    std::fprintf(stderr, "perfbench: only %zu correctly classified centres\n",
                 Ranked.size());
    return false;
  }
  std::sort(Ranked.begin(), Ranked.end());

  // Stratified draw: for each radius, one centre from each of PerRadius
  // equal strata of estimated distance, so the pool spans the difficulty
  // range evenly. The batch runs its hardest queries (smallest distance /
  // radius) first, so it does not wait on a late straggler.
  Rng Pick(taskSeed(CentreSeed, 2));
  constexpr size_t Radii = std::size(MnistRadii);
  constexpr size_t PerRadius = MnistPoolSize / Radii;
  struct Query {
    double Ease; // Estimated distance / radius.
    size_t Index, Radius;
  };
  std::vector<Query> Pool;
  for (size_t J = 0; J < Radii; ++J)
    for (size_t K = 0; K < PerRadius; ++K) {
      const size_t Lo = K * Ranked.size() / PerRadius,
                   Hi = (K + 1) * Ranked.size() / PerRadius;
      const auto &[Dist, I] =
          Ranked[Lo + size_t(Pick.uniformInt(0, int(Hi - Lo) - 1))];
      Pool.push_back({Dist / MnistRadii[J], I, J});
    }
  std::sort(Pool.begin(), Pool.end(),
            [](const Query &A, const Query &B) { return A.Ease < B.Ease; });
  for (size_t N = 0; N < Pool.size(); ++N) {
    const Query &Q = Pool[N];
    std::ostringstream S;
    S << "model " << modelPath(Dir) << "\n"
      << "input linf\n"
      << "  center" << vectorText(Test.input(Q.Index)) << "\n"
      << "  epsilon " << exact(MnistRadii[Q.Radius]) << "\n"
      << "  clamp 0 1\n"
      << "output robust " << Test.Labels[Q.Index] << "\n"
      << "verifier craft\n"
      << "alpha1 " << exact(MnistAlpha1) << "\n"
      << "attack on\n"
      << "seed " << taskSeed(Seed, 1000 + N) << "\n";
    char Name[32];
    std::snprintf(Name, sizeof(Name), "/q%03zu.spec", N);
    if (!writeFile(Dir + Name, S.str()))
      return false;
  }
  return true;
}

/// split-gmm: seeded sub-boxes of the GMM model's input space, each one
/// global certification at depth SplitDepth. The boxes are the first
/// SplitPoolSize cells of a 2^5 grid over [0.25, 0.75]^5, shifted as a
/// whole by a seeded offset of up to a tenth of a cell: every seed covers
/// about the same decision
/// boundaries, so the work per pass stays level (independently drawn boxes
/// moved it by 2x, a shift of a fifth of a cell by 10%).
bool generateSplit(uint64_t Seed, const std::string &Dir) {
  Dataset Train;
  MonDeq Model = trainGmmModel(91, 92, Train);
  if (!Model.save(modelPath(Dir)))
    return false;
  Rng ShiftRng(taskSeed(Seed, 4));
  Vector Shift(5);
  for (size_t J = 0; J < 5; ++J)
    Shift[J] = ShiftRng.uniform(-0.025, 0.025);
  for (size_t I = 0; I < SplitPoolSize; ++I) {
    Vector Lo(5), Hi(5);
    for (size_t J = 0; J < 5; ++J) {
      Lo[J] = 0.25 + 0.25 * double((I >> J) & 1) + Shift[J];
      Hi[J] = Lo[J] + 0.25;
    }
    std::ostringstream S;
    S << "model " << modelPath(Dir) << "\n"
      << "input box\n"
      << "  lo" << vectorText(Lo) << "\n"
      << "  hi" << vectorText(Hi) << "\n"
      << "output robust 0\n"
      << "verifier craft\n"
      << "alpha1 0.5\n"
      << "lambda-opt 0\n"
      << "split-depth " << SplitDepth << "\n"
      << "split-jobs 4\n";
    char Name[32];
    std::snprintf(Name, sizeof(Name), "/q%03zu.spec", I);
    if (!writeFile(Dir + Name, S.str()))
      return false;
  }
  return true;
}

/// serve-mixed: the model plus the correctly classified training samples
/// the request sequence is built around (ServeMixed.cpp derives the
/// sequence itself from the seed; it is cheap and never cached).
bool generateServe(const std::string &Dir) {
  Dataset Train;
  MonDeq Model = trainGmmModel(101, 102, Train);
  if (!Model.save(modelPath(Dir)))
    return false;
  std::ostringstream S;
  size_t Count = 0;
  for (size_t I = 0; I < Train.size() && Count < 64; ++I) {
    const Vector X = Train.input(I);
    if (predictClass(Model, X) != Train.Labels[I])
      continue;
    S << Train.Labels[I] << vectorText(X) << "\n";
    ++Count;
  }
  return Count >= 16 && writeFile(Dir + "/samples.txt", S.str());
}

} // namespace

std::string perfbench::exact(double V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string perfbench::modelPath(const std::string &Dir) {
  return Dir + "/model.bin";
}

bool perfbench::generateInputs(const std::string &Workload, uint64_t Seed,
                               const std::string &Dir) {
  {
    std::ifstream Marker(markerPath(Dir));
    std::string Line;
    if (Marker && std::getline(Marker, Line) && Line == InputsVersion)
      return true;
  }
  std::error_code Ec;
  fs::remove_all(Dir, Ec);
  fs::create_directories(Dir, Ec);
  if (Ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", Dir.c_str());
    return false;
  }
  bool Ok = false;
  if (Workload == "verify-mnist")
    Ok = generateMnist(Seed, Dir);
  else if (Workload == "split-gmm")
    Ok = generateSplit(Seed, Dir);
  else if (Workload == "serve-mixed")
    Ok = generateServe(Dir);
  if (!Ok) {
    std::fprintf(stderr, "perfbench: generating %s inputs failed\n",
                 Workload.c_str());
    return false;
  }
  return writeFile(markerPath(Dir), std::string(InputsVersion) + "\n");
}

std::optional<MonDeq>
perfbench::timeModelLoads(const std::string &Path, int Count,
                          std::vector<double> &Seconds) {
  std::optional<MonDeq> Model;
  for (int I = 0; I < Count; ++I) {
    const auto T0 = std::chrono::steady_clock::now();
    Model = MonDeq::load(Path);
    if (!Model)
      return std::nullopt;
    Model->fbAlphaBound();
    Seconds.push_back(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - T0)
                          .count());
  }
  return Model;
}

std::vector<std::string> perfbench::readSpecTexts(const std::string &Dir) {
  std::vector<std::string> Texts;
  for (size_t I = 0;; ++I) {
    char Name[32];
    std::snprintf(Name, sizeof(Name), "/q%03zu.spec", I);
    std::ifstream In(Dir + Name, std::ios::binary);
    if (!In)
      break;
    std::ostringstream S;
    S << In.rdbuf();
    Texts.push_back(S.str());
  }
  return Texts;
}

std::vector<Sample> perfbench::readSamples(const std::string &Dir) {
  std::vector<Sample> Samples;
  std::ifstream In(Dir + "/samples.txt");
  std::string Line;
  while (std::getline(In, Line)) {
    std::istringstream L(Line);
    Sample S;
    L >> S.Label;
    std::vector<double> Values;
    double V;
    while (L >> V)
      Values.push_back(V);
    S.Center = Vector(Values.size());
    for (size_t I = 0; I < Values.size(); ++I)
      S.Center[I] = Values[I];
    Samples.push_back(std::move(S));
  }
  return Samples;
}

//===- tests/test_cert.cpp - Certificate system tests ---------------------===//
//
// Tests for the proof-witness pipeline (cert/): rounded-interval
// bracketing, model hashing, certificate serialization round trips,
// end-to-end certify-then-check on trained and random models, and
// tamper rejection (wrong model, enlarged claims, corrupted witnesses,
// truncated files).
//
//===----------------------------------------------------------------------===//

#include "cert/Certify.h"
#include "cert/Checker.h"
#include "core/Verifier.h"
#include "data/GaussianMixture.h"
#include "nn/Training.h"
#include "support/RoundedInterval.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

using namespace craft;

//===----------------------------------------------------------------------===//
// RInterval
//===----------------------------------------------------------------------===//

TEST(RIntervalTest, OperationsBracketLongDoubleReference) {
  Rng R(51);
  for (int Trial = 0; Trial < 2000; ++Trial) {
    double A = R.uniform(-10.0, 10.0), B = R.uniform(-10.0, 10.0);
    RInterval IA(A), IB(B);
    {
      long double Exact = (long double)A + (long double)B;
      RInterval S = IA + IB;
      ASSERT_LE((long double)S.Lo, Exact);
      ASSERT_GE((long double)S.Hi, Exact);
    }
    {
      long double Exact = (long double)A * (long double)B;
      RInterval P = IA * IB;
      ASSERT_LE((long double)P.Lo, Exact);
      ASSERT_GE((long double)P.Hi, Exact);
    }
    {
      long double Exact = (long double)A - (long double)B;
      RInterval D = IA - IB;
      ASSERT_LE((long double)D.Lo, Exact);
      ASSERT_GE((long double)D.Hi, Exact);
    }
  }
}

TEST(RIntervalTest, AccumulationStaysSound) {
  // Summing many terms keeps the exact value inside despite widening.
  Rng R(52);
  RInterval Sum(0.0);
  long double Exact = 0.0;
  for (int I = 0; I < 10000; ++I) {
    double V = R.uniform(-1.0, 1.0);
    Sum = Sum + RInterval(V);
    Exact += (long double)V;
  }
  EXPECT_LE((long double)Sum.Lo, Exact);
  EXPECT_GE((long double)Sum.Hi, Exact);
  // And the widening stays tiny (ulp-scale per op).
  EXPECT_LT(Sum.Hi - Sum.Lo, 1e-9);
}

TEST(RIntervalTest, AbsAndMax0) {
  EXPECT_DOUBLE_EQ(RInterval(-3.0, 2.0).abs().Lo, 0.0);
  EXPECT_DOUBLE_EQ(RInterval(-3.0, 2.0).abs().Hi, 3.0);
  EXPECT_DOUBLE_EQ(RInterval(-3.0, -1.0).abs().Lo, 1.0);
  EXPECT_DOUBLE_EQ(RInterval(-2.0, -1.0).max0().Hi, 0.0);
  EXPECT_DOUBLE_EQ(RInterval(-1.0, 4.0).max0().Hi, 4.0);
}

TEST(RIntervalTest, DivisionByPositiveBrackets) {
  RInterval Q = RInterval(1.0, 2.0) / RInterval(4.0, 8.0);
  EXPECT_LE(Q.Lo, 0.125);
  EXPECT_GE(Q.Hi, 0.5);
  EXPECT_LT(Q.Hi, 0.5 + 1e-12);
}

//===----------------------------------------------------------------------===//
// Hashing and serialization
//===----------------------------------------------------------------------===//

TEST(CertificateTest, ModelHashBindsSemanticParameters) {
  Rng R(53);
  MonDeq A = MonDeq::randomFc(R, 6, 5, 3);
  MonDeq B = MonDeq::randomFc(R, 6, 5, 3);
  EXPECT_NE(hashModel(A), hashModel(B));
  // Activation participates in the hash.
  MonDeq C = A;
  C.setActivation(ActivationKind::Tanh);
  EXPECT_NE(hashModel(A), hashModel(C));
  // Hash is a pure function.
  EXPECT_EQ(hashModel(A), hashModel(A));
}

TEST(CertificateTest, SaveLoadRoundTrips) {
  Rng R(54);
  RobustnessCertificate Cert;
  Cert.ModelHash = 0xdeadbeefcafe1234ull;
  Cert.InLo = {0.1, 0.2, 0.3};
  Cert.InHi = {0.2, 0.3, 0.4};
  Cert.TargetClass = 2;
  Cert.Outer = CHZonotope::fromBox(Vector{0.0, 0.0}, Vector{1.0, 1.0});
  Cert.Phase1Method = Splitting::PeacemanRachford;
  Cert.Alpha1 = 0.75;
  Cert.ContainSteps = 3;
  Cert.Phase2Method = Splitting::ForwardBackward;
  Cert.Alpha2 = 0.0625;
  Cert.LambdaScale = 1.05;
  Cert.Phase2Steps = 17;

  const std::string Path = "/tmp/craft_cert_roundtrip.bin";
  ASSERT_TRUE(saveCertificate(Cert, Path));
  auto Loaded = loadCertificate(Path);
  ASSERT_TRUE(Loaded.has_value());
  EXPECT_EQ(Loaded->ModelHash, Cert.ModelHash);
  EXPECT_EQ(Loaded->TargetClass, 2);
  EXPECT_EQ(Loaded->ContainSteps, 3);
  EXPECT_EQ(Loaded->Phase2Steps, 17);
  EXPECT_DOUBLE_EQ(Loaded->Alpha2, 0.0625);
  EXPECT_DOUBLE_EQ(Loaded->LambdaScale, 1.05);
  EXPECT_EQ(Loaded->Outer.dim(), 2u);
  EXPECT_EQ(Loaded->Outer.numGenerators(), 2u);
  // Ids are re-minted on load (input decorrelation by construction).
  EXPECT_NE(Loaded->Outer.termIds()[0], Cert.Outer.termIds()[0]);
  std::remove(Path.c_str());
}

TEST(CertificateTest, TruncatedFileIsRejected) {
  RobustnessCertificate Cert;
  Cert.InLo = {0.1};
  Cert.InHi = {0.2};
  Cert.Outer = CHZonotope::fromBox(Vector{0.0}, Vector{1.0});
  const std::string Path = "/tmp/craft_cert_truncated.bin";
  ASSERT_TRUE(saveCertificate(Cert, Path));
  // Truncate to half.
  std::FILE *F = std::fopen(Path.c_str(), "rb+");
  std::fseek(F, 0, SEEK_END);
  long Size = std::ftell(F);
  std::fclose(F);
  ASSERT_EQ(truncate(Path.c_str(), Size / 2), 0);
  EXPECT_FALSE(loadCertificate(Path).has_value());
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// End-to-end certify + check
//===----------------------------------------------------------------------===//

namespace {

struct TrainedFixture {
  MonDeq Model;
  Dataset Test;
};

TrainedFixture &trainedModel() {
  static TrainedFixture *F = [] {
    auto *Out = new TrainedFixture;
    Rng DataRng(61);
    Dataset Train = makeGaussianMixture(DataRng, 250, 5, 3);
    Out->Test = makeGaussianMixture(DataRng, 25, 5, 3);
    Rng InitRng(62);
    Out->Model = MonDeq::randomFc(InitRng, 5, 10, 3, 3.0);
    TrainOptions Opts;
    Opts.Epochs = 10;
    Opts.Verbose = false;
    trainMonDeq(Out->Model, Train, Opts);
    return Out;
  }();
  return *F;
}

} // namespace

TEST(CertifyTest, EmittedCertificatesAlwaysCheck) {
  TrainedFixture &Fix = trainedModel();
  FixpointSolver Solver(Fix.Model, Splitting::PeacemanRachford);
  CraftConfig Cfg;
  Cfg.Alpha1 = 0.5;
  int Emitted = 0;
  for (size_t I = 0; I < Fix.Test.size() && Emitted < 8; ++I) {
    Vector X = Fix.Test.input(I);
    int Cls = Solver.predict(X);
    if (Cls != Fix.Test.Labels[I])
      continue;
    auto Cert = certifyRobustness(Fix.Model, X, Cls, 0.03, Cfg);
    if (!Cert)
      continue;
    ++Emitted;
    CheckReport Report = checkCertificate(Fix.Model, *Cert);
    ASSERT_TRUE(Report.Ok) << "stage " << Report.Stage;
    EXPECT_GT(Report.MarginLower, 0.0);
    EXPECT_LE(Report.ContainmentSlack, 1.0);
    EXPECT_LT(Report.InverseResidual, 1e-6);
  }
  EXPECT_GE(Emitted, 3) << "pipeline should certify easy GMM samples";
}

TEST(CertifyTest, StoppedSearchEmitsNothing) {
  // A query whose deadline has passed must not run the witness search:
  // the same sample certifies with a live RunControl and yields nothing
  // once the control has fired.
  TrainedFixture &Fix = trainedModel();
  FixpointSolver Solver(Fix.Model, Splitting::PeacemanRachford);
  CraftConfig Cfg;
  Cfg.Alpha1 = 0.5;
  CancelToken Stop;
  Stop.cancel();
  for (size_t I = 0; I < Fix.Test.size(); ++I) {
    Vector X = Fix.Test.input(I);
    int Cls = Solver.predict(X);
    if (Cls != Fix.Test.Labels[I] ||
        !certifyRobustness(Fix.Model, X, Cls, 0.03, Cfg))
      continue;
    CraftConfig Stopped = Cfg;
    Stopped.Control.Cancel = &Stop;
    EXPECT_FALSE(certifyRobustness(Fix.Model, X, Cls, 0.03, Stopped));
    Stopped.Control = RunControl{};
    Stopped.Control.DeadlineAt = Deadline(0.0);
    EXPECT_FALSE(certifyRobustness(Fix.Model, X, Cls, 0.03, Stopped));
    return;
  }
  FAIL() << "no certifiable sample";
}

TEST(CertifyTest, CertificatesSurviveSerialization) {
  TrainedFixture &Fix = trainedModel();
  FixpointSolver Solver(Fix.Model, Splitting::PeacemanRachford);
  CraftConfig Cfg;
  Cfg.Alpha1 = 0.5;
  for (size_t I = 0; I < Fix.Test.size(); ++I) {
    Vector X = Fix.Test.input(I);
    int Cls = Solver.predict(X);
    if (Cls != Fix.Test.Labels[I])
      continue;
    auto Cert = certifyRobustness(Fix.Model, X, Cls, 0.03, Cfg);
    if (!Cert)
      continue;
    const std::string Path = "/tmp/craft_cert_e2e.bin";
    ASSERT_TRUE(saveCertificate(*Cert, Path));
    auto Loaded = loadCertificate(Path);
    ASSERT_TRUE(Loaded.has_value());
    EXPECT_TRUE(checkCertificate(Fix.Model, *Loaded).Ok);
    std::remove(Path.c_str());
    return; // One round trip suffices.
  }
  GTEST_SKIP() << "no certifiable sample";
}

TEST(CertifyTest, SmoothActivationModelsAreCertifiable) {
  Rng R(63);
  MonDeq Model = MonDeq::randomFc(R, 6, 5, 3, 2.0);
  Model.setActivation(ActivationKind::Tanh);
  FixpointSolver Solver(Model, Splitting::PeacemanRachford);
  Vector X(6);
  for (double &V : X)
    V = R.uniform(0.2, 0.8);
  CraftConfig Cfg;
  Cfg.Alpha1 = 0.5;
  Cfg.LambdaOptLevel = 0;
  auto Cert = certifyRobustness(Model, X, Solver.predict(X), 0.01, Cfg);
  if (!Cert)
    GTEST_SKIP() << "random tanh model not certifiable at this radius";
  EXPECT_TRUE(checkCertificate(Model, *Cert).Ok);
}

//===----------------------------------------------------------------------===//
// Tamper rejection
//===----------------------------------------------------------------------===//

namespace {

std::optional<RobustnessCertificate> anyCertificate() {
  TrainedFixture &Fix = trainedModel();
  FixpointSolver Solver(Fix.Model, Splitting::PeacemanRachford);
  CraftConfig Cfg;
  Cfg.Alpha1 = 0.5;
  for (size_t I = 0; I < Fix.Test.size(); ++I) {
    Vector X = Fix.Test.input(I);
    int Cls = Solver.predict(X);
    if (Cls != Fix.Test.Labels[I])
      continue;
    if (auto Cert = certifyRobustness(Fix.Model, X, Cls, 0.03, Cfg))
      return Cert;
  }
  return std::nullopt;
}

} // namespace

TEST(TamperTest, WrongModelIsRejected) {
  auto Cert = anyCertificate();
  ASSERT_TRUE(Cert.has_value());
  Rng R(64);
  MonDeq Other = MonDeq::randomFc(R, 5, 10, 3, 3.0);
  CheckReport Report = checkCertificate(Other, *Cert);
  EXPECT_FALSE(Report.Ok);
  EXPECT_STREQ(Report.Stage, "model-hash");
}

TEST(TamperTest, ShrunkenWitnessFailsContainment) {
  // Shrinking the outer witness invalidates the containment premise: the
  // replayed image no longer fits inside.
  auto Cert = anyCertificate();
  ASSERT_TRUE(Cert.has_value());
  RobustnessCertificate Bad = *Cert;
  Matrix G = 0.2 * Bad.Outer.generators();
  Bad.Outer = CHZonotope(Bad.Outer.center(), std::move(G),
                         Bad.Outer.termIds(),
                         0.2 * Bad.Outer.boxRadius());
  CheckReport Report = checkCertificate(trainedModel().Model, Bad);
  EXPECT_FALSE(Report.Ok);
  EXPECT_STREQ(Report.Stage, "containment");
}

TEST(TamperTest, SingularWitnessFailsInverseValidation) {
  auto Cert = anyCertificate();
  ASSERT_TRUE(Cert.has_value());
  RobustnessCertificate Bad = *Cert;
  Matrix G = Bad.Outer.generators();
  for (size_t J = 0; J < G.cols(); ++J)
    G(0, J) = 0.0; // Rank-deficient outer.
  Bad.Outer = CHZonotope(Bad.Outer.center(), std::move(G),
                         Bad.Outer.termIds(), Bad.Outer.boxRadius());
  CheckReport Report = checkCertificate(trainedModel().Model, Bad);
  EXPECT_FALSE(Report.Ok);
  EXPECT_STREQ(Report.Stage, "inverse");
}

TEST(TamperTest, InflatedEpsilonClaimIsRejected) {
  // Enlarging the claimed input box without refreshing the witness must
  // fail: either the containment or the margins break.
  auto Cert = anyCertificate();
  ASSERT_TRUE(Cert.has_value());
  RobustnessCertificate Bad = *Cert;
  for (size_t I = 0; I < Bad.InLo.size(); ++I) {
    Bad.InLo[I] = std::max(0.0, Bad.InLo[I] - 0.5);
    Bad.InHi[I] = std::min(1.0, Bad.InHi[I] + 0.5);
  }
  CheckReport Report = checkCertificate(trainedModel().Model, Bad);
  EXPECT_FALSE(Report.Ok);
}

TEST(TamperTest, IllegalPhase2RecipeIsRejected) {
  auto Cert = anyCertificate();
  ASSERT_TRUE(Cert.has_value());
  // FB with alpha > 1 is outside the Thm 5.1 preservation range.
  RobustnessCertificate Bad = *Cert;
  Bad.Phase2Method = Splitting::ForwardBackward;
  Bad.Alpha2 = 1.5;
  CheckReport Report = checkCertificate(trainedModel().Model, Bad);
  EXPECT_FALSE(Report.Ok);
  EXPECT_STREQ(Report.Stage, "recipe");
  // PR with a step size different from phase 1's is not preserving.
  Bad = *Cert;
  Bad.Phase2Method = Splitting::PeacemanRachford;
  Bad.Alpha2 = Bad.Alpha1 * 2.0;
  Report = checkCertificate(trainedModel().Model, Bad);
  EXPECT_FALSE(Report.Ok);
  EXPECT_STREQ(Report.Stage, "recipe");
}

TEST(TamperTest, WrongTargetClassFailsMargins) {
  auto Cert = anyCertificate();
  ASSERT_TRUE(Cert.has_value());
  RobustnessCertificate Bad = *Cert;
  Bad.TargetClass = (Bad.TargetClass + 1) % 3;
  CheckReport Report = checkCertificate(trainedModel().Model, Bad);
  EXPECT_FALSE(Report.Ok);
}

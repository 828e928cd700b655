//===- tests/test_tool.cpp - Spec parser and driver tests -----------------===//
//
// Tests for the CLI layer (tool/): spec parsing (both input forms, all
// knobs, fill broadcasting), diagnostics with line/column positions for
// every malformed construct, and end-to-end driver runs (verify + emit
// certificate + re-check) against a temporary trained model.
//
//===----------------------------------------------------------------------===//

#include "attack/Pgd.h"
#include "cert/Checker.h"
#include "core/Verifier.h"
#include "data/GaussianMixture.h"
#include "nn/Training.h"
#include "tool/Driver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>

using namespace craft;

namespace {

/// Asserts a single diagnostic whose message contains \p Needle and
/// reports it at \p Line.
void expectOneError(const std::string &Source, const std::string &Needle,
                    int Line) {
  SpecParseResult R = parseSpec(Source);
  ASSERT_FALSE(R.ok()) << Source;
  ASSERT_GE(R.Diagnostics.size(), 1u);
  EXPECT_NE(R.Diagnostics[0].Message.find(Needle), std::string::npos)
      << "got: " << R.Diagnostics[0].Message;
  EXPECT_EQ(R.Diagnostics[0].Line, Line);
}

} // namespace

//===----------------------------------------------------------------------===//
// Parsing
//===----------------------------------------------------------------------===//

TEST(SpecParserTest, ParsesLinfForm) {
  SpecParseResult R = parseSpec("model m.bin\n"
                                "input linf\n"
                                "  center 0.1 0.2 0.3\n"
                                "  epsilon 0.05\n"
                                "  clamp 0 1\n"
                                "output robust 2\n");
  ASSERT_TRUE(R.ok());
  const VerificationSpec &S = *R.Spec;
  EXPECT_EQ(S.ModelPath, "m.bin");
  EXPECT_EQ(S.TargetClass, 2);
  ASSERT_EQ(S.InLo.size(), 3u);
  EXPECT_DOUBLE_EQ(S.InLo[0], 0.05);
  EXPECT_DOUBLE_EQ(S.InHi[0], 0.15);
  // Clamping kicks in near the range edge.
  EXPECT_DOUBLE_EQ(S.InLo[2], 0.25);
  EXPECT_DOUBLE_EQ(S.Epsilon, 0.05);
}

TEST(SpecParserTest, ParsesBoxFormAndKnobs) {
  SpecParseResult R = parseSpec("model m.bin\n"
                                "input box\n"
                                "lo 0 0\n"
                                "hi 1 0.5\n"
                                "output robust 0\n"
                                "verifier crown\n"
                                "alpha1 0.25\n"
                                "alpha2 0.0625\n"
                                "max-iterations 77\n"
                                "lambda-opt 1\n");
  ASSERT_TRUE(R.ok());
  const VerificationSpec &S = *R.Spec;
  EXPECT_EQ(S.Verifier, SpecVerifier::Crown);
  EXPECT_DOUBLE_EQ(S.Alpha1, 0.25);
  EXPECT_DOUBLE_EQ(S.Alpha2, 0.0625);
  EXPECT_EQ(S.MaxIterations, 77);
  EXPECT_EQ(S.LambdaOptLevel, 1);
  EXPECT_DOUBLE_EQ(S.InHi[1], 0.5);
}

TEST(SpecParserTest, FillBroadcastsConstants) {
  SpecParseResult R = parseSpec("model m.bin\n"
                                "input linf\n"
                                "center fill 0.5 784\n"
                                "epsilon 0.01\n"
                                "output robust 3\n");
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Spec->Center.size(), 784u);
  EXPECT_DOUBLE_EQ(R.Spec->Center[500], 0.5);
}

TEST(SpecParserTest, CommentsAndBlankLinesAreIgnored) {
  SpecParseResult R = parseSpec("# header comment\n"
                                "\n"
                                "model m.bin # trailing comment\n"
                                "input box\n"
                                "lo 0\n"
                                "hi 1\n"
                                "output robust 0\n");
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Spec->ModelPath, "m.bin");
}

//===----------------------------------------------------------------------===//
// Diagnostics
//===----------------------------------------------------------------------===//

TEST(SpecParserTest, DiagnosesUnknownDirective) {
  expectOneError("model m.bin\nbogus 1\ninput box\nlo 0\nhi 1\n"
                 "output robust 0\n",
                 "unknown directive 'bogus'", 2);
}

TEST(SpecParserTest, DiagnosesBadNumber) {
  expectOneError("model m.bin\ninput linf\ncenter 0.1 abc\nepsilon 0.1\n"
                 "output robust 0\n",
                 "expected a number", 3);
}

TEST(SpecParserTest, SplitDepthIsBoundedByTheEngine) {
  // The engine cannot account deeper trees exactly; the parser must
  // refuse them rather than let the engine clamp silently (the serve cache
  // key would otherwise split one computation across two entries).
  const std::string Head = "model m.bin\ninput box\nlo 0\nhi 1\n"
                           "output robust 0\n";
  SpecParseResult R = parseSpec(
      Head + "split-depth " + std::to_string(MaxSupportedSplitDepth) + "\n");
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Spec->SplitDepth, MaxSupportedSplitDepth);
  expectOneError(Head + "split-depth " +
                     std::to_string(MaxSupportedSplitDepth + 1) + "\n",
                 "expected an integer >= 0 and <= 62", 6);
}

TEST(SpecParserTest, DiagnosesMissingModel) {
  expectOneError("input box\nlo 0\nhi 1\noutput robust 0\n",
                 "missing 'model'", 4);
}

TEST(SpecParserTest, DiagnosesMissingInputBlock) {
  expectOneError("model m.bin\noutput robust 0\n", "missing 'input", 2);
}

TEST(SpecParserTest, DiagnosesEmptyBox) {
  expectOneError("model m.bin\ninput box\nlo 1\nhi 0\noutput robust 0\n",
                 "empty input box", 5);
}

TEST(SpecParserTest, DiagnosesMismatchedBoxLengths) {
  expectOneError("model m.bin\ninput box\nlo 0 0\nhi 1\noutput robust 0\n",
                 "different lengths", 5);
}

TEST(SpecParserTest, DiagnosesBadVerifier) {
  expectOneError("model m.bin\ninput box\nlo 0\nhi 1\noutput robust 0\n"
                 "verifier sdp\n",
                 "unknown verifier 'sdp'", 6);
}

TEST(SpecParserTest, DiagnosesNegativeEpsilon) {
  expectOneError("model m.bin\ninput linf\ncenter 0.5\nepsilon -0.1\n"
                 "output robust 0\n",
                 "epsilon must be nonnegative", 4);
}

TEST(SpecParserTest, DiagnosesBadFill) {
  expectOneError("model m.bin\ninput linf\ncenter fill 0.5\nepsilon 0.1\n"
                 "output robust 0\n",
                 "'fill' needs a value and a count", 3);
}

//===----------------------------------------------------------------------===//
// Hardening: duplicates, silent accepts, malformed values
//===----------------------------------------------------------------------===//

TEST(SpecParserTest, DiagnosesDuplicateDirectives) {
  expectOneError("model a.bin\nmodel b.bin\ninput box\nlo 0\nhi 1\n"
                 "output robust 0\n",
                 "duplicate 'model'", 2);
  expectOneError("model m.bin\noutput robust 0\noutput robust 1\n"
                 "input box\nlo 0\nhi 1\n",
                 "duplicate 'output'", 3);
  expectOneError("model m.bin\nverifier craft\nverifier box\n"
                 "input box\nlo 0\nhi 1\noutput robust 0\n",
                 "duplicate 'verifier'", 3);
  expectOneError("model m.bin\nalpha1 0.5\nalpha1 0.25\ninput box\n"
                 "lo 0\nhi 1\noutput robust 0\n",
                 "duplicate 'alpha1'", 3);
  expectOneError("model m.bin\ncertificate a.cert\ncertificate b.cert\n"
                 "input box\nlo 0\nhi 1\noutput robust 0\n",
                 "duplicate 'certificate'", 3);
  expectOneError("model m.bin\nseed 1\nseed 2\ninput box\nlo 0\nhi 1\n"
                 "output robust 0\n",
                 "duplicate 'seed'", 3);
}

TEST(SpecParserTest, DiagnosesDuplicateRegionLines) {
  expectOneError("model m.bin\nepsilon 0.1\nepsilon 0.2\ninput linf\n"
                 "center 0.5\noutput robust 0\n",
                 "duplicate file-wide 'epsilon'", 3);
  expectOneError("model m.bin\ninput linf\ncenter 0.5\ncenter 0.6\n"
                 "epsilon 0.1\noutput robust 0\n",
                 "duplicate 'center' in this input block", 4);
  expectOneError("model m.bin\ninput box\nlo 0\nlo 0.5\nhi 1\n"
                 "output robust 0\n",
                 "duplicate 'lo' in this input block", 4);
  expectOneError("model m.bin\ninput linf\ncenter 0.5\nepsilon 0.1\n"
                 "epsilon 0.2\noutput robust 0\n",
                 "duplicate 'epsilon' in this input block", 5);
  expectOneError("model m.bin\ninput linf\ncenter 0.5\nepsilon 0.1\n"
                 "clamp 0 1\nclamp 0 2\noutput robust 0\n",
                 "duplicate 'clamp' in this input block", 6);
}

TEST(SpecParserTest, DiagnosesRegionLinesOfTheWrongKind) {
  // These were silently accepted (and silently ignored) before.
  expectOneError("model m.bin\ninput box\ncenter 0.5\nlo 0\nhi 1\n"
                 "output robust 0\n",
                 "'center' applies to 'input linf'", 3);
  expectOneError("model m.bin\ninput box\nlo 0\nhi 1\nepsilon 0.1\n"
                 "output robust 0\n",
                 "'epsilon' applies to 'input linf'", 5);
  expectOneError("model m.bin\ninput linf\ncenter 0.5\nepsilon 0.1\n"
                 "lo 0\noutput robust 0\n",
                 "'lo' applies to 'input box'", 5);
  expectOneError("model m.bin\ninput linf\ncenter 0.5\nepsilon 0.1\n"
                 "hi 1\noutput robust 0\n",
                 "'hi' applies to 'input box'", 5);
}

TEST(SpecParserTest, DiagnosesValuelessKnobs) {
  // A bare `alpha1` / `epsilon` used to be silently dropped.
  expectOneError("model m.bin\nalpha1\ninput box\nlo 0\nhi 1\n"
                 "output robust 0\n",
                 "'alpha1' takes one number", 2);
  expectOneError("model m.bin\nepsilon\ninput linf\ncenter 0.5\n"
                 "output robust 0\n",
                 "'epsilon' takes one number", 2);
}

TEST(SpecParserTest, DiagnosesNonFiniteNumbers) {
  // 1e999 overflows to inf under strtod; inf/nan spellings parse too.
  expectOneError("model m.bin\ninput linf\ncenter 0.5\nepsilon 1e999\n"
                 "output robust 0\n",
                 "out of range", 4);
  expectOneError("model m.bin\ninput linf\ncenter inf\nepsilon 0.1\n"
                 "output robust 0\n",
                 "out of range", 3);
  expectOneError("model m.bin\ninput box\nlo nan\nhi 1\n"
                 "output robust 0\n",
                 "out of range", 3);
}

TEST(SpecParserTest, DiagnosesIntegersOutOfRange) {
  // Finite doubles outside int's range are diagnosed before any cast.
  expectOneError("model m.bin\ninput linf\ncenter 0.5\nepsilon 0.1\n"
                 "output robust 0\nsplit-jobs 1e300\n",
                 "expected an integer >= 0", 6);
  expectOneError("model m.bin\nmax-iterations 1e300\ninput linf\n"
                 "center 0.5\nepsilon 0.1\noutput robust 0\n",
                 "expected an integer >= 1", 2);
  expectOneError("model m.bin\nsplit-depth -1e300\ninput linf\n"
                 "center 0.5\nepsilon 0.1\noutput robust 0\n",
                 "expected an integer >= 0", 2);
  expectOneError("model m.bin\nsplit-jobs 2147483648\ninput linf\n"
                 "center 0.5\nepsilon 0.1\noutput robust 0\n",
                 "expected an integer >= 0", 2);
  expectOneError("model m.bin\nmax-iterations 2.5\ninput linf\n"
                 "center 0.5\nepsilon 0.1\noutput robust 0\n",
                 "expected an integer >= 1", 2);
  SpecParseResult Max = parseSpec("model m.bin\nsplit-jobs 2147483647\n"
                                  "input linf\ncenter 0.5\nepsilon 0.1\n"
                                  "output robust 0\n");
  ASSERT_TRUE(Max.ok());
  EXPECT_EQ(Max.Spec->SplitJobs, 2147483647);
}

TEST(SpecParserTest, DiagnosesTruncatedSpecs) {
  // EOF mid-spec must produce a clean diagnostic, never a
  // default-initialized spec.
  expectOneError("", "missing 'model'", 1);
  expectOneError("model m.bin\n", "missing 'output", 1);
  expectOneError("model m.bin\noutput robust 0\ninput linf\ncenter 0.5",
                 "needs an 'epsilon' line", 4);
  expectOneError("model m.bin\noutput robust 0\ninput box\nlo 0 1",
                 "needs 'lo' and 'hi' lines", 4);
  SpecParseResult R = parseSpec("model"); // Truncated mid-directive.
  ASSERT_FALSE(R.ok());
}

TEST(SpecParserTest, DiagnosticsNeverYieldSpecs) {
  // Every diagnostic path must leave Specs empty: a spec file with any
  // error contributes no queries (no partially-parsed execution).
  for (const char *Bad :
       {"model a.bin\nmodel b.bin\ninput box\nlo 0\nhi 1\n"
        "output robust 0\n",
        "model m.bin\ninput box\nlo 0\nhi 1\noutput robust 0\n"
        "epsilon 1e999\n",
        "model m.bin\ninput linf\ncenter 0.5\n"}) {
    SpecParseResult R = parseSpec(Bad);
    EXPECT_FALSE(R.ok()) << Bad;
    EXPECT_TRUE(R.Specs.empty()) << Bad;
    EXPECT_FALSE(R.Spec.has_value()) << Bad;
    EXPECT_FALSE(R.Diagnostics.empty()) << Bad;
  }
}

TEST(SpecParserTest, DiagnosticRenderingIncludesPosition) {
  SpecParseResult R = parseSpec("model a b\n");
  ASSERT_FALSE(R.ok());
  std::string Rendered = R.Diagnostics[0].render("my.spec");
  EXPECT_NE(Rendered.find("my.spec:1:1"), std::string::npos) << Rendered;
}

TEST(SpecParserTest, UnreadableFileYieldsDiagnostic) {
  SpecParseResult R = parseSpecFile("/nonexistent/craft.spec");
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.Diagnostics[0].Message.find("cannot open"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Driver end-to-end
//===----------------------------------------------------------------------===//

namespace {

struct ToolFixture {
  std::string ModelPath = "/tmp/craft_tool_model.bin";
  Vector Sample;
  int SampleClass = -1;
};

ToolFixture &toolFixture() {
  static ToolFixture *F = [] {
    auto *Out = new ToolFixture;
    Rng DataRng(71);
    Dataset Train = makeGaussianMixture(DataRng, 250, 5, 3);
    Rng InitRng(72);
    MonDeq Model = MonDeq::randomFc(InitRng, 5, 10, 3, 3.0);
    TrainOptions Opts;
    Opts.Epochs = 10;
    Opts.Verbose = false;
    trainMonDeq(Model, Train, Opts);
    Model.save(Out->ModelPath);
    FixpointSolver Solver(Model, Splitting::PeacemanRachford);
    for (size_t I = 0; I < Train.size(); ++I)
      if (Solver.predict(Train.input(I)) == Train.Labels[I]) {
        Out->Sample = Train.input(I);
        Out->SampleClass = Train.Labels[I];
        break;
      }
    return Out;
  }();
  return *F;
}

std::string sampleSpec(const ToolFixture &Fix, const std::string &Extra,
                       double Epsilon = 0.02) {
  std::string S = "model " + Fix.ModelPath + "\ninput linf\ncenter";
  char Buf[32];
  for (size_t I = 0; I < Fix.Sample.size(); ++I) {
    snprintf(Buf, sizeof(Buf), " %.17g", Fix.Sample[I]);
    S += Buf;
  }
  snprintf(Buf, sizeof(Buf), "%.17g", Epsilon);
  S += "\nepsilon " + std::string(Buf) + "\noutput robust " +
       std::to_string(Fix.SampleClass) + "\n" + Extra;
  return S;
}

} // namespace

TEST(DriverTest, CraftEngineCertifiesTrainedSample) {
  ToolFixture &Fix = toolFixture();
  ASSERT_GE(Fix.SampleClass, 0);
  SpecParseResult R = parseSpec(sampleSpec(Fix, "alpha1 0.5\n"));
  ASSERT_TRUE(R.ok());
  RunOutcome Out = runSpec(*R.Spec);
  ASSERT_TRUE(Out.ModelLoaded) << Out.Detail;
  EXPECT_TRUE(Out.Containment);
  EXPECT_TRUE(Out.Certified);
}

TEST(DriverTest, AllEnginesRunTheSameSpec) {
  ToolFixture &Fix = toolFixture();
  for (const char *Engine : {"craft", "box", "crown", "lipschitz"}) {
    SpecParseResult R = parseSpec(
        sampleSpec(Fix, std::string("verifier ") + Engine + "\n"));
    ASSERT_TRUE(R.ok()) << Engine;
    RunOutcome Out = runSpec(*R.Spec);
    EXPECT_TRUE(Out.ModelLoaded) << Engine << ": " << Out.Detail;
  }
}

TEST(DriverTest, EmitsCheckableCertificate) {
  ToolFixture &Fix = toolFixture();
  const std::string CertPath = "/tmp/craft_tool_cert.bin";
  SpecParseResult R = parseSpec(
      sampleSpec(Fix, "alpha1 0.5\ncertificate " + CertPath + "\n"));
  ASSERT_TRUE(R.ok());
  RunOutcome Out = runSpec(*R.Spec);
  ASSERT_TRUE(Out.Certified) << Out.Detail;
  ASSERT_TRUE(Out.CertificateWritten) << Out.Detail;

  auto Model = MonDeq::load(Fix.ModelPath);
  auto Cert = loadCertificate(CertPath);
  ASSERT_TRUE(Model && Cert);
  EXPECT_TRUE(checkCertificate(*Model, *Cert).Ok);
  std::remove(CertPath.c_str());
}

TEST(DriverTest, ReportsMissingModelGracefully) {
  SpecParseResult R = parseSpec("model /nonexistent/model.bin\n"
                                "input box\nlo 0\nhi 1\n"
                                "output robust 0\n");
  ASSERT_TRUE(R.ok());
  RunOutcome Out = runSpec(*R.Spec);
  EXPECT_FALSE(Out.ModelLoaded);
  EXPECT_NE(Out.Detail.find("cannot load model"), std::string::npos);
}

TEST(DriverTest, ReportsDimensionMismatch) {
  ToolFixture &Fix = toolFixture();
  SpecParseResult R = parseSpec("model " + Fix.ModelPath +
                                "\ninput box\nlo 0 0\nhi 1 1\n"
                                "output robust 0\n");
  ASSERT_TRUE(R.ok());
  RunOutcome Out = runSpec(*R.Spec);
  ASSERT_TRUE(Out.ModelLoaded);
  EXPECT_FALSE(Out.Certified);
  EXPECT_NE(Out.Detail.find("dimension"), std::string::npos);
}

TEST(SpecParserTest, ParsesSplitDepth) {
  SpecParseResult R = parseSpec("model m.bin\ninput box\nlo 0\nhi 1\n"
                                "output robust 0\nsplit-depth 4\n");
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Spec->SplitDepth, 4);
}

TEST(DriverTest, SplitDepthEngagesBranchAndBound) {
  ToolFixture &Fix = toolFixture();
  // A radius plain Craft may or may not certify; with splits the driver
  // must report either a certificate, a refutation, or partial volume —
  // and never crash.
  SpecParseResult R = parseSpec(
      sampleSpec(Fix, "alpha1 0.5\nsplit-depth 3\n"));
  ASSERT_TRUE(R.ok());
  RunOutcome Out = runSpec(*R.Spec);
  ASSERT_TRUE(Out.ModelLoaded);
  EXPECT_NE(Out.Detail.find(Out.Certified ? "split verification"
                                          : "e"), // any detail present
            std::string::npos);
}

TEST(DriverTest, FirstPgdRestartRefutesBeforePhase2AndIsTimedOnce) {
  telemetry::setTimingEnabledForTest(true);
  ToolFixture &Fix = toolFixture();
  ASSERT_GE(Fix.SampleClass, 0);
  std::optional<MonDeq> Model = MonDeq::load(Fix.ModelPath);
  ASSERT_TRUE(Model);
  FixpointSolver Concrete(*Model, Splitting::PeacemanRachford);
  PgdOptions Opts;
  Opts.Seed = 7;

  // The first radius (fixed model and seed, so always the same one) at
  // which phase 1 reaches containment without certifying and PGD's first
  // restart refutes. Its phase-1 result is what the driver must report.
  double Epsilon = -1.0;
  CraftResult Phase1;
  for (double E : {0.2, 0.3, 0.4, 0.5, 0.6}) {
    Vector Lo(Fix.Sample.size()), Hi(Fix.Sample.size());
    for (size_t I = 0; I < Fix.Sample.size(); ++I) {
      Lo[I] = std::max(Fix.Sample[I] - E, 0.0);
      Hi[I] = std::min(Fix.Sample[I] + E, 1.0);
    }
    CraftConfig Cfg;
    Cfg.Alpha1 = 0.5;
    bool Asked = false;
    CraftResult Res = CraftVerifier(*Model, Cfg).verifyRegion(
        Lo, Hi, Fix.SampleClass, [&] { return Asked = true; });
    Opts.Epsilon = E;
    if (Asked && PgdAttack(*Model, Concrete, Fix.Sample, Fix.SampleClass,
                           Opts)
                     .run(1)
                     .FoundAdversarial) {
      Epsilon = E;
      Phase1 = Res;
      break;
    }
  }
  ASSERT_GT(Epsilon, 0.0) << "no radius refutes in PGD's first restart";

  SpecParseResult R = parseSpec(
      sampleSpec(Fix, "alpha1 0.5\nattack on\nseed 7\n", Epsilon));
  ASSERT_TRUE(R.ok());
  RunOutcome Out = runSpec(*R.Spec);
  ASSERT_TRUE(Out.Refuted) << Out.Detail;
  EXPECT_TRUE(Out.Containment);
  EXPECT_FALSE(Out.Certified);
  EXPECT_EQ(Out.AttackSeed, 7u);
  EXPECT_EQ(0, std::memcmp(&Out.MarginLower, &Phase1.BestMargin,
                           sizeof(double)))
      << "a refuted query reports its phase-1 margin";

  // The restart ran inside the engine's Solver phase; pgd_ms owns it.
  ASSERT_TRUE(Out.Phases.Populated);
  EXPECT_GT(Out.Phases.PgdMs, 0.0);
  EXPECT_LE(Out.Phases.SolverMs + Out.Phases.PgdMs, Out.TimeSeconds * 1e3);

  // The counterexample is the one-shot attack's, byte for byte.
  PgdResult OneShot =
      pgdAttack(*Model, Concrete, Fix.Sample, Fix.SampleClass, Opts);
  ASSERT_TRUE(OneShot.FoundAdversarial);
  ASSERT_EQ(Out.Counterexample.size(), OneShot.Adversarial.size());
  EXPECT_EQ(0, std::memcmp(Out.Counterexample.data(),
                           OneShot.Adversarial.data(),
                           OneShot.Adversarial.size() * sizeof(double)));
}

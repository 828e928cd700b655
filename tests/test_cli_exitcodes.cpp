//===- tests/test_cli_exitcodes.cpp - CLI exit code contract --------------===//
//
// Pins the documented `craft verify` exit codes by running the real
// binary: 0 = every query certified, 1 = refuted, 2 = usage/IO error,
// 3 = undecided (not certified, not refuted), with error > refuted >
// undecided precedence across a batch. Spec/model mismatches (wrong input
// dimension, target class out of range) are errors, not verdicts. The
// fixture directory (CliSmoke) provides a certifiable spec (smoke.spec),
// an undecidable one (unknown.spec: hopeless radius, no attack), a
// refutable one (refuted.spec: hopeless radius, PGD enabled under a
// pinned seed) and a degenerate-box split spec (degenerate.spec:
// lo == hi dimensions, split-depth 2, certifiable).
//
// Usage: test_cli_exitcodes <path-to-craft-binary> <fixture-dir>
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fcntl.h>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

namespace {

std::string CraftBinary;
std::string FixtureDir;

/// Runs the craft binary with \p Args, output discarded; returns the
/// exit code (-1 on spawn failure).
int craftExit(const std::vector<std::string> &Args) {
  pid_t Pid = ::fork();
  if (Pid < 0)
    return -1;
  if (Pid == 0) {
    int Null = ::open("/dev/null", O_WRONLY);
    if (Null >= 0) {
      ::dup2(Null, STDOUT_FILENO);
      ::dup2(Null, STDERR_FILENO);
      ::close(Null);
    }
    std::vector<char *> Argv;
    Argv.push_back(const_cast<char *>(CraftBinary.c_str()));
    for (const std::string &A : Args)
      Argv.push_back(const_cast<char *>(A.c_str()));
    Argv.push_back(nullptr);
    ::execv(Argv[0], Argv.data());
    _exit(127);
  }
  int Status = 0;
  if (::waitpid(Pid, &Status, 0) != Pid)
    return -1;
  return WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
}

std::string fixture(const char *Name) { return FixtureDir + "/" + Name; }

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream Text;
  Text << In.rdbuf();
  return Text.str();
}

void writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream(Path) << Text;
}

/// `craft verify <spec>` output with the wall-time lines dropped (the
/// one part of the output that is not deterministic).
std::string verifyOutput(const std::string &Spec) {
  const std::string OutPath = FixtureDir + "/verify_out.txt";
  const std::string Cmd =
      "'" + CraftBinary + "' verify '" + Spec + "' > '" + OutPath + "' 2>&1";
  EXPECT_NE(std::system(Cmd.c_str()), -1);
  std::istringstream Lines(readFile(OutPath));
  std::string Kept, Line;
  while (std::getline(Lines, Line))
    if (Line.rfind("time ", 0) != 0)
      Kept += Line + "\n";
  return Kept;
}

} // namespace

TEST(CliExitCodeTest, AllCertifiedExitsZero) {
  EXPECT_EQ(craftExit({"verify", fixture("smoke.spec")}), 0);
}

TEST(CliExitCodeTest, UndecidedExitsThree) {
  EXPECT_EQ(craftExit({"verify", fixture("unknown.spec")}), 3);
}

TEST(CliExitCodeTest, RefutedExitsOne) {
  EXPECT_EQ(craftExit({"verify", fixture("refuted.spec")}), 1);
}

TEST(CliExitCodeTest, RefutedOutranksUndecided) {
  // A batch with certified + undecided + refuted queries: refuted wins.
  EXPECT_EQ(craftExit({"verify", fixture("smoke.spec"),
                       fixture("unknown.spec"), fixture("refuted.spec")}),
            1);
  // Certified + undecided (no refutation): undecided wins.
  EXPECT_EQ(craftExit({"verify", fixture("smoke.spec"),
                       fixture("unknown.spec")}),
            3);
}

TEST(CliExitCodeTest, UsageAndIoErrorsExitTwo) {
  EXPECT_EQ(craftExit({}), 2);                        // No subcommand.
  EXPECT_EQ(craftExit({"verify"}), 2);                // No spec files.
  EXPECT_EQ(craftExit({"frobnicate"}), 2);            // Unknown command.
  EXPECT_EQ(craftExit({"verify", "/nonexistent.spec"}), 2);
  EXPECT_EQ(craftExit({"verify", "--jobs", "x", fixture("smoke.spec")}),
            2);

  // A spec whose model is missing: model-load error dominates verdicts.
  const std::string BadModel = FixtureDir + "/bad_model.spec";
  std::FILE *F = std::fopen(BadModel.c_str(), "w");
  ASSERT_NE(F, nullptr);
  std::fprintf(F, "model /nonexistent/model.bin\ninput box\nlo 0\nhi 1\n"
                  "output robust 0\n");
  std::fclose(F);
  EXPECT_EQ(craftExit({"verify", BadModel}), 2);
  EXPECT_EQ(craftExit({"verify", BadModel, fixture("refuted.spec")}), 2)
      << "error must outrank refuted";
}

TEST(CliExitCodeTest, DegenerateSplitSpecExitsZero) {
  // A box with degenerate (lo == hi) dimensions must certify through the
  // split path: the fixture's degenerate.spec sets split-depth 2 and
  // split-jobs 2 around a certifiable sample. The old volume accounting
  // computed a 0/0 certified fraction and exited 3 here.
  EXPECT_EQ(craftExit({"verify", fixture("degenerate.spec")}), 0);
}

TEST(CliExitCodeTest, SpecModelMismatchExitsTwo) {
  // Input-dimension mismatch: the query never ran, so reporting exit 3
  // ("undecided") would hide a broken pipeline.
  const std::string WrongDim = FixtureDir + "/wrong_dim.spec";
  std::FILE *F = std::fopen(WrongDim.c_str(), "w");
  ASSERT_NE(F, nullptr);
  std::fprintf(F, "model %s/model.bin\ninput box\nlo 0 0\nhi 1 1\n"
                  "output robust 0\n",
               FixtureDir.c_str());
  std::fclose(F);
  EXPECT_EQ(craftExit({"verify", WrongDim}), 2);

  // Target class past the model's output dimension.
  const std::string BadClass = FixtureDir + "/bad_class.spec";
  F = std::fopen(BadClass.c_str(), "w");
  ASSERT_NE(F, nullptr);
  std::fprintf(F, "model %s/model.bin\ninput box\n"
                  "lo 0 0 0 0 0\nhi 1 1 1 1 1\noutput robust 99\n",
               FixtureDir.c_str());
  std::fclose(F);
  EXPECT_EQ(craftExit({"verify", BadClass}), 2);

  // Mismatches outrank refutations, like load failures do.
  EXPECT_EQ(craftExit({"verify", BadClass, fixture("refuted.spec")}), 2);
}

TEST(CliExitCodeTest, SplitSubcommandContract) {
  // Global certification: 0 = the whole box certified, 2 = errors.
  EXPECT_EQ(craftExit({"split", fixture("degenerate.spec")}), 0);
  EXPECT_EQ(craftExit({"split"}), 2);
  EXPECT_EQ(craftExit({"split", "/nonexistent.spec"}), 2);
  EXPECT_EQ(craftExit({"split", "--depth", "0", fixture("degenerate.spec")}),
            2);
}

TEST(CliExitCodeTest, DomainAndCascadeDirectivesAreValidated) {
  // Unknown domain name: diagnosed with file:line, exit 2.
  const std::string BadDomain = FixtureDir + "/bad_domain.spec";
  std::FILE *F = std::fopen(BadDomain.c_str(), "w");
  ASSERT_NE(F, nullptr);
  std::fprintf(F, "model %s/model.bin\ndomain hexagon\n"
                  "input box\nlo 0 0 0 0 0\nhi 1 1 1 1 1\noutput robust 0\n",
               FixtureDir.c_str());
  std::fclose(F);
  EXPECT_EQ(craftExit({"verify", BadDomain}), 2);

  // Duplicate domain directive.
  const std::string DupDomain = FixtureDir + "/dup_domain.spec";
  F = std::fopen(DupDomain.c_str(), "w");
  ASSERT_NE(F, nullptr);
  std::fprintf(F, "model %s/model.bin\ndomain box\ndomain zono\n"
                  "input box\nlo 0 0 0 0 0\nhi 1 1 1 1 1\noutput robust 0\n",
               FixtureDir.c_str());
  std::fclose(F);
  EXPECT_EQ(craftExit({"verify", DupDomain}), 2);

  // `domain` requires the craft engine.
  const std::string CrownDomain = FixtureDir + "/crown_domain.spec";
  F = std::fopen(CrownDomain.c_str(), "w");
  ASSERT_NE(F, nullptr);
  std::fprintf(F, "model %s/model.bin\nverifier crown\ndomain box\n"
                  "input box\nlo 0 0 0 0 0\nhi 1 1 1 1 1\noutput robust 0\n",
               FixtureDir.c_str());
  std::fclose(F);
  EXPECT_EQ(craftExit({"verify", CrownDomain}), 2);

  // The cascade directive takes only off, adapt or full: rung lists and
  // unknown words are parse errors.
  const std::string BadCascade = FixtureDir + "/bad_cascade.spec";
  for (const char *Policy : {"box,zono", "box,hexagon"}) {
    writeFile(BadCascade, "model " + FixtureDir + "/model.bin\ncascade " +
                              Policy +
                              "\ninput box\nlo 0 0 0 0 0\nhi 1 1 1 1 1\n"
                              "output robust 0\n");
    EXPECT_EQ(craftExit({"verify", BadCascade}), 2) << Policy;
  }

  const std::string CrownCascade = FixtureDir + "/crown_cascade.spec";
  F = std::fopen(CrownCascade.c_str(), "w");
  ASSERT_NE(F, nullptr);
  std::fprintf(F, "model %s/model.bin\nverifier crown\ncascade full\n"
                  "input box\nlo 0 0 0 0 0\nhi 1 1 1 1 1\noutput robust 0\n",
               FixtureDir.c_str());
  std::fclose(F);
  EXPECT_EQ(craftExit({"verify", CrownCascade}), 2);

  // The accepted policies do nothing: the output is byte-identical to the
  // same spec without the directive. Both runs use one path, since the
  // output names the spec file.
  const std::string Copy = FixtureDir + "/cascade_copy.spec";
  for (const char *Name : {"smoke.spec", "unknown.spec", "refuted.spec"}) {
    const std::string Source = readFile(fixture(Name));
    ASSERT_FALSE(Source.empty()) << Name;
    writeFile(Copy, Source);
    const std::string Want = verifyOutput(Copy);
    EXPECT_NE(Want.find("verdict"), std::string::npos) << Want;
    for (const char *Policy : {"off", "adapt", "full"}) {
      writeFile(Copy, "cascade " + std::string(Policy) + "\n" + Source);
      EXPECT_EQ(verifyOutput(Copy), Want) << Name << " cascade " << Policy;
    }
  }
}

TEST(CliExitCodeTest, DomainFlagIsValidated) {
  // A bad flag value is a usage error.
  EXPECT_EQ(craftExit({"verify", "--domain", "hexagon",
                       fixture("smoke.spec")}),
            2);
  EXPECT_EQ(craftExit({"verify", "--domain", "zono", fixture("smoke.spec")}),
            0);
}

TEST(CliExitCodeTest, ParseDiagnosticsExitTwo) {
  const std::string Bad = FixtureDir + "/bad_syntax.spec";
  std::FILE *F = std::fopen(Bad.c_str(), "w");
  ASSERT_NE(F, nullptr);
  std::fprintf(F, "model a.bin\nmodel b.bin\n"); // Duplicate directive.
  std::fclose(F);
  EXPECT_EQ(craftExit({"verify", Bad}), 2);
}

int main(int argc, char **argv) {
  ::testing::InitGoogleTest(&argc, argv);
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: test_cli_exitcodes <craft-binary> <fixture-dir>\n");
    return 2;
  }
  CraftBinary = argv[1];
  FixtureDir = argv[2];
  return RUN_ALL_TESTS();
}

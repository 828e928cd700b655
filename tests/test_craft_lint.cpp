//===- tests/test_craft_lint.cpp - craft-lint rule engine tests -----------===//
//
// Rule-positive / rule-negative fixtures for every invariant rule, the
// suppression grammar (line-scoped, file-wide, justification required,
// unknown rules rejected), the JSON output schema, and the CLI exit-code
// contract (0 clean / 1 violations / 2 usage error).
//
// Every forbidden construct below lives inside a string literal, which
// the linter's lexer skips — so this file itself lints clean.
//
//===----------------------------------------------------------------------===//

#include "Lint.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

using namespace craft::lint;

namespace {

/// Lints \p Src as file \p RelPath and returns the result.
LintResult lintSnippet(const std::string &RelPath, const std::string &Src) {
  LintResult R;
  lintBuffer(RelPath, RelPath, Src, {}, R);
  return R;
}

/// Unsuppressed diagnostics of rule \p Rule.
int countRule(const LintResult &R, const std::string &Rule) {
  int N = 0;
  for (const Diagnostic &D : R.Diagnostics)
    if (D.Rule == Rule && !D.Suppressed)
      ++N;
  return N;
}

int countSuppressed(const LintResult &R, const std::string &Rule) {
  int N = 0;
  for (const Diagnostic &D : R.Diagnostics)
    if (D.Rule == Rule && D.Suppressed)
      ++N;
  return N;
}

//===----------------------------------------------------------------------===//
// Determinism rules
//===----------------------------------------------------------------------===//

TEST(DetSeed, FlagsRawRandomnessInSrc) {
  LintResult R = lintSnippet("src/core/A.cpp",
                             "int f() { return rand(); }\n"
                             "long g() { return time(nullptr); }\n"
                             "#include <random>\n");
  EXPECT_EQ(countRule(R, "det-seed"), 3);
}

TEST(DetSeed, FlagsStdEngines) {
  LintResult R = lintSnippet(
      "src/nn/B.cpp", "std::mt19937 G(42);\nstd::random_device Dev;\n");
  EXPECT_EQ(countRule(R, "det-seed"), 2);
}

TEST(DetSeed, AllowedInRngTU) {
  LintResult R = lintSnippet("src/support/Rng.h",
                             "#include <random>\nstd::mt19937_64 Engine;\n");
  EXPECT_EQ(countRule(R, "det-seed"), 0);
}

TEST(DetSeed, MemberNamedTimeIsNotACall) {
  LintResult R = lintSnippet("src/core/A.cpp",
                             "double t = Timer.time(3); int u = x->time(1);\n"
                             "int timestep = 4; int mytime = timestep;\n");
  EXPECT_EQ(countRule(R, "det-seed"), 0);
}

TEST(DetSeed, LiteralsAndCommentsNeverMatch) {
  LintResult R = lintSnippet(
      "src/core/A.cpp",
      "// calling rand() would be bad\nconst char *S = \"rand()\";\n");
  EXPECT_EQ(countRule(R, "det-seed"), 0);
}

TEST(DetTime, FlagsChronoInSrcOnly) {
  const std::string Src =
      "#include <chrono>\nauto T = std::chrono::steady_clock::now();\n";
  EXPECT_EQ(countRule(lintSnippet("src/nn/C.cpp", Src), "det-time"), 2);
  // Tests and benches time and sleep legitimately: out of scope.
  EXPECT_EQ(countRule(lintSnippet("tests/t.cpp", Src), "det-time"), 0);
  EXPECT_EQ(countRule(lintSnippet("bench/b.cpp", Src), "det-time"), 0);
}

TEST(DetTime, AllowedInTimer) {
  LintResult R = lintSnippet("src/support/Timer.h",
                             "#include <chrono>\n"
                             "using C = std::chrono::steady_clock;\n");
  EXPECT_EQ(countRule(R, "det-time"), 0);
}

TEST(DetTime, AllowedInTelemetryImplOnly) {
  const std::string Src =
      "#include <chrono>\nauto T = std::chrono::steady_clock::now();\n";
  // The telemetry implementation is the second sanctioned clock TU.
  EXPECT_EQ(countRule(lintSnippet("src/support/Telemetry.cpp", Src),
                      "det-time"),
            0);
  // The header is included everywhere, so it stays in scope: clock
  // access must live behind monotonicNanos() in the .cpp.
  EXPECT_EQ(countRule(lintSnippet("src/support/Telemetry.h", Src),
                      "det-time"),
            2);
}

TEST(DetTime, InstrumentationMacrosInCoreAreClean) {
  // Regression: instrumenting a core TU with spans, counters, and phase
  // timers must not trip det-time — the macros expand to registry calls,
  // never to chrono tokens.
  LintResult R = lintSnippet(
      "src/core/Instrumented.cpp",
      "#include \"support/Telemetry.h\"\n"
      "void f() {\n"
      "  TRACE_SPAN(\"kleene.iterate\");\n"
      "  telemetry::PhaseTimer T(telemetry::Phase::Solver);\n"
      "  static const telemetry::Counter C =\n"
      "      telemetry::counterMetric(\"core.calls\");\n"
      "  C.increment();\n"
      "}\n");
  EXPECT_EQ(countRule(R, "det-time"), 0);
}

TEST(DetUnorderedIter, FlagsRangeForOverUnorderedMap) {
  LintResult R = lintSnippet(
      "src/serve/D.cpp",
      "std::unordered_map<std::string, int> Counts;\n"
      "void dump() { for (const auto &KV : Counts) { use(KV); } }\n");
  EXPECT_EQ(countRule(R, "det-unordered-iter"), 1);
}

TEST(DetUnorderedIter, FlagsIteratorWalk) {
  LintResult R = lintSnippet(
      "src/core/E.cpp",
      "std::unordered_set<int> Seen;\n"
      "auto It = Seen.begin();\nwhile (It != Seen.end()) ++It;\n");
  EXPECT_EQ(countRule(R, "det-unordered-iter"), 2);
}

TEST(DetUnorderedIter, KeyedLookupsAreFine) {
  LintResult R = lintSnippet(
      "src/serve/F.cpp",
      "std::unordered_map<std::string, int> Index;\n"
      "int get(const std::string &K) { return Index.find(K)->second; }\n"
      "void put(const std::string &K) { Index.emplace(K, 1); }\n");
  EXPECT_EQ(countRule(R, "det-unordered-iter"), 0);
}

TEST(DetUnorderedIter, OrderedContainersAndOtherDirsAreFine) {
  // std::map iterates in key order: deterministic, allowed.
  LintResult R1 = lintSnippet("src/core/G.cpp",
                              "std::map<int, int> M;\n"
                              "void f() { for (auto &KV : M) use(KV); }\n");
  EXPECT_EQ(countRule(R1, "det-unordered-iter"), 0);
  // Outside the result-path directories the rule does not apply.
  LintResult R2 = lintSnippet(
      "src/nn/H.cpp", "std::unordered_map<int, int> M;\n"
                      "void f() { for (auto &KV : M) use(KV); }\n");
  EXPECT_EQ(countRule(R2, "det-unordered-iter"), 0);
}

//===----------------------------------------------------------------------===//
// Soundness rules
//===----------------------------------------------------------------------===//

TEST(SoundFma, FlagsFmaOutsideKernelTUs) {
  const std::string Src = "double f(double a, double b, double c) {\n"
                          "  return std::fma(a, b, c);\n}\n"
                          "double g(double a) { return __builtin_fma(a, a, a); }\n";
  EXPECT_EQ(countRule(lintSnippet("src/core/I.cpp", Src), "sound-fma"), 2);
  EXPECT_EQ(
      countRule(lintSnippet("src/linalg/KernelsAvx2.cpp", Src), "sound-fma"),
      0);
}

TEST(SoundFma, SimilarNamesAreFine) {
  LintResult R = lintSnippet("src/core/J.cpp",
                             "int fmap(int x) { return x; }\n"
                             "int y = fmap(3); int fma = 0; fma = 1;\n");
  EXPECT_EQ(countRule(R, "sound-fma"), 0);
}

TEST(SoundFastmath, FlagsContractOnButNotOff) {
  EXPECT_EQ(countRule(lintSnippet("src/core/K.cpp",
                                  "#pragma STDC FP_CONTRACT ON\n"),
                      "sound-fastmath"),
            1);
  EXPECT_EQ(countRule(lintSnippet("src/core/K.cpp",
                                  "#pragma STDC FP_CONTRACT OFF\n"),
                      "sound-fastmath"),
            0);
  // No exemption anywhere — kernel TUs included.
  EXPECT_EQ(countRule(lintSnippet("src/linalg/KernelsAvx512.cpp",
                                  "#pragma GCC optimize (\"fast-math\")\n"),
                      "sound-fastmath"),
            1);
}

TEST(SoundRounding, CentralizedInRoundedInterval) {
  const std::string Src = "#include <cfenv>\n"
                          "void f() { fesetround(FE_UPWARD); }\n"
                          "double g(double x) { return nextafter(x, 1.0); }\n";
  // Include + fesetround + FE_UPWARD + nextafter.
  EXPECT_EQ(countRule(lintSnippet("src/lp/L.cpp", Src), "sound-rounding"), 4);
  EXPECT_EQ(countRule(lintSnippet("src/support/RoundedInterval.h", Src),
                      "sound-rounding"),
            0);
  // Tests build fixtures with nextafter (ulp separation): out of scope.
  EXPECT_EQ(countRule(lintSnippet("tests/t.cpp", Src), "sound-rounding"), 0);
}

//===----------------------------------------------------------------------===//
// Hot-path allocation
//===----------------------------------------------------------------------===//

TEST(HotAlloc, FlagsAllocationInKernelBodies) {
  LintResult R = lintSnippet(
      "src/linalg/KernelsGeneric.h",
      "namespace craft {\n"
      "inline void kern(double *Dst, size_t N) {\n"
      "  double *Tmp = new double[N];\n"
      "  std::vector<double> Buf(N);\n"
      "  std::string Label;\n"
      "  use(Tmp, Buf, Label, Dst);\n"
      "}\n"
      "} // namespace craft\n");
  EXPECT_EQ(countRule(R, "hot-alloc"), 3);
}

TEST(HotAlloc, SignaturesAndOtherFilesAreFine) {
  // Outside a function body (a declaration's return/param types) the
  // tokens are part of the API, not a hot-path allocation.
  LintResult R1 = lintSnippet("src/linalg/Kernels.h",
                              "namespace craft {\n"
                              "void gemm(MatrixView A, MatrixView B);\n"
                              "}\n");
  EXPECT_EQ(countRule(R1, "hot-alloc"), 0);
  // Non-kernel linalg files may allocate.
  LintResult R2 = lintSnippet(
      "src/linalg/Matrix.cpp",
      "Matrix::Matrix(size_t N) { Data = new double[N]; }\n");
  EXPECT_EQ(countRule(R2, "hot-alloc"), 0);
}

//===----------------------------------------------------------------------===//
// Concurrency hygiene
//===----------------------------------------------------------------------===//

TEST(ConcDetach, FlagsDetachEverywhere) {
  EXPECT_EQ(countRule(lintSnippet("src/serve/M.cpp", "T.detach();\n"),
                      "conc-detach"),
            1);
  EXPECT_EQ(countRule(lintSnippet("tests/t.cpp", "Worker->detach();\n"),
                      "conc-detach"),
            1);
  // An unrelated method named detachable is fine.
  EXPECT_EQ(countRule(lintSnippet("src/serve/M.cpp", "T.detachable();\n"),
                      "conc-detach"),
            0);
}

TEST(ConcVolatile, FlagsVolatile) {
  EXPECT_EQ(countRule(lintSnippet("src/core/N.cpp",
                                  "volatile bool Ready = false;\n"),
                      "conc-volatile"),
            1);
}

TEST(ConcThread, NakedThreadOnlyInSupport) {
  const std::string Src = "std::thread T([] {});\n";
  EXPECT_EQ(countRule(lintSnippet("src/serve/O.cpp", Src), "conc-thread"), 1);
  EXPECT_EQ(countRule(lintSnippet("src/support/Pool.cpp", Src), "conc-thread"),
            0);
  // Tests/bench drive real threads deliberately: out of scope.
  EXPECT_EQ(countRule(lintSnippet("tests/t.cpp", Src), "conc-thread"), 0);
  // std::thread::id etc. is a type mention, not a spawn.
  EXPECT_EQ(countRule(lintSnippet("src/serve/O.cpp",
                                  "std::thread::id Who;\n"),
                      "conc-thread"),
            0);
}

//===----------------------------------------------------------------------===//
// Suppressions
//===----------------------------------------------------------------------===//

TEST(Suppression, LineScopedCoversNextLine) {
  LintResult R = lintSnippet(
      "src/core/P.cpp",
      "// craft-lint: allow(det-seed) — fixture generator, outcome-neutral\n"
      "int x = rand();\n"
      "int y = rand();\n"); // Third line: out of the suppression window.
  EXPECT_EQ(countRule(R, "det-seed"), 1);
  EXPECT_EQ(countSuppressed(R, "det-seed"), 1);
}

TEST(Suppression, WrappedCommentCoversLineBelowBlock) {
  LintResult R = lintSnippet(
      "src/core/Q.cpp",
      "// craft-lint: allow(det-seed) — a justification long enough to\n"
      "// wrap onto a second comment line before the code.\n"
      "int x = rand();\n");
  EXPECT_EQ(countRule(R, "det-seed"), 0);
  EXPECT_EQ(countSuppressed(R, "det-seed"), 1);
  ASSERT_FALSE(R.Diagnostics.empty());
  // The wrapped text is folded into one justification string.
  for (const Diagnostic &D : R.Diagnostics) {
    if (D.Suppressed) {
      EXPECT_NE(D.Justification.find("second comment line"),
                std::string::npos);
    }
  }
}

TEST(Suppression, FileWideCoversWholeFile) {
  LintResult R = lintSnippet(
      "src/core/R.cpp",
      "// craft-lint: allow-file(det-seed) — generator module, seeds are\n"
      "// fed from taskSeed by every caller.\n"
      "int x = rand();\n\n\nint y = rand();\n");
  EXPECT_EQ(countRule(R, "det-seed"), 0);
  EXPECT_EQ(countSuppressed(R, "det-seed"), 2);
}

TEST(Suppression, JustificationIsRequired) {
  LintResult R = lintSnippet("src/core/S.cpp",
                             "// craft-lint: allow(det-seed)\n"
                             "int x = rand();\n");
  // The bare waiver is itself a violation and does not suppress.
  EXPECT_EQ(countRule(R, "lint-suppression"), 1);
  EXPECT_EQ(countRule(R, "det-seed"), 1);
}

TEST(Suppression, UnknownRuleIsRejected) {
  LintResult R = lintSnippet(
      "src/core/T.cpp",
      "// craft-lint: allow(no-such-rule) — misspelled rule id\n");
  EXPECT_EQ(countRule(R, "lint-suppression"), 1);
}

TEST(Suppression, UnusedSuppressionWarnsButDoesNotFail) {
  LintResult R = lintSnippet(
      "src/core/U.cpp",
      "// craft-lint: allow(det-seed) — nothing here actually violates\n"
      "int x = 3;\n");
  EXPECT_EQ(countRule(R, "unused-suppression"), 1);
  EXPECT_EQ(R.unsuppressedErrors(), 0u); // Warning severity: exit stays 0.
}

TEST(Suppression, ProseMentionIsNotADirective) {
  LintResult R = lintSnippet(
      "src/core/V.cpp",
      "// This module is checked by craft-lint: allow nothing here.\n"
      "int x = 3;\n");
  EXPECT_EQ(countRule(R, "lint-suppression"), 0);
}

TEST(Suppression, MetaRuleIsNotWaivable) {
  LintResult R = lintSnippet(
      "src/core/W.cpp",
      "// craft-lint: allow-file(lint-suppression) — trying to silence\n"
      "// the suppression checker itself\n"
      "// craft-lint: allow(det-seed)\n"
      "int x = rand();\n");
  // The unjustified allow(det-seed) still reports.
  EXPECT_GE(countRule(R, "lint-suppression"), 1);
}

//===----------------------------------------------------------------------===//
// JSON schema
//===----------------------------------------------------------------------===//

TEST(Json, SchemaFields) {
  LintResult R = lintSnippet(
      "src/core/X.cpp",
      "int x = rand();\n"
      "// craft-lint: allow(conc-volatile) — optimization sink only\n"
      "volatile int V = 0;\n");
  std::string J = toJson(R);
  EXPECT_NE(J.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(J.find("\"files_scanned\": 1"), std::string::npos);
  EXPECT_NE(J.find("\"errors\": 1"), std::string::npos);
  EXPECT_NE(J.find("\"suppressed\": 1"), std::string::npos);
  EXPECT_NE(J.find("\"rule\": \"det-seed\""), std::string::npos);
  EXPECT_NE(J.find("\"severity\": \"error\""), std::string::npos);
  EXPECT_NE(J.find("\"suppressed\": true"), std::string::npos);
  EXPECT_NE(J.find("\"justification\": \"optimization sink only\""),
            std::string::npos);
  // Line/col are 1-based integers.
  EXPECT_NE(J.find("\"line\": 1"), std::string::npos);
}

TEST(Json, EmptyResultIsValid) {
  LintResult R = lintSnippet("src/core/Y.cpp", "int x = 3;\n");
  std::string J = toJson(R);
  EXPECT_NE(J.find("\"errors\": 0"), std::string::npos);
  EXPECT_NE(J.find("\"diagnostics\": []"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// CLI exit-code contract
//===----------------------------------------------------------------------===//

class LintCli : public ::testing::Test {
protected:
  void SetUp() override {
    Dir = std::filesystem::path(::testing::TempDir()) / "craft_lint_cli";
    std::filesystem::create_directories(Dir / "src" / "core");
  }
  void TearDown() override { std::filesystem::remove_all(Dir); }

  void write(const std::string &Rel, const std::string &Contents) {
    std::ofstream Out(Dir / Rel);
    Out << Contents;
  }

  int run(std::vector<std::string> Args, std::string &Out) {
    Args.insert(Args.begin(), {"--root", Dir.string()});
    return lintMain(Args, Out);
  }

  std::filesystem::path Dir;
};

TEST_F(LintCli, CleanTreeExitsZero) {
  write("src/core/clean.cpp", "int f() { return 3; }\n");
  std::string Out;
  EXPECT_EQ(run({(Dir / "src").string()}, Out), 0);
  EXPECT_NE(Out.find("0 violations"), std::string::npos);
}

TEST_F(LintCli, ViolationsExitOne) {
  write("src/core/bad.cpp", "int f() { return rand(); }\n");
  std::string Out;
  EXPECT_EQ(run({(Dir / "src").string()}, Out), 1);
  EXPECT_NE(Out.find("[det-seed]"), std::string::npos);
}

TEST_F(LintCli, SuppressedViolationExitsZero) {
  write("src/core/ok.cpp",
        "// craft-lint: allow(det-seed) — demo fixture for the exit test\n"
        "int f() { return rand(); }\n");
  std::string Out;
  EXPECT_EQ(run({(Dir / "src").string()}, Out), 0);
  EXPECT_NE(Out.find("1 suppressed"), std::string::npos);
}

TEST_F(LintCli, UsageErrorsExitTwo) {
  std::string Out;
  EXPECT_EQ(lintMain({}, Out), 2);                        // No inputs.
  EXPECT_EQ(lintMain({"--bogus-flag"}, Out), 2);          // Unknown flag.
  EXPECT_EQ(lintMain({"--rule"}, Out), 2);                // Missing value.
  EXPECT_EQ(lintMain({"--rule", "no-such", "x"}, Out), 2); // Unknown rule.
  EXPECT_EQ(lintMain({(Dir / "missing.cpp").string()}, Out), 2);
}

TEST_F(LintCli, RuleFilterRestrictsChecking) {
  write("src/core/two.cpp", "volatile int V = 0;\nint x = rand();\n");
  std::string Out;
  EXPECT_EQ(run({"--rule", "conc-volatile", (Dir / "src").string()}, Out), 1);
  EXPECT_NE(Out.find("[conc-volatile]"), std::string::npos);
  EXPECT_EQ(Out.find("[det-seed]"), std::string::npos);
}

TEST_F(LintCli, JsonFlagEmitsSchema) {
  write("src/core/j.cpp", "int x = rand();\n");
  std::string Out;
  EXPECT_EQ(run({"--json", (Dir / "src").string()}, Out), 1);
  EXPECT_NE(Out.find("\"schema_version\": 1"), std::string::npos);
}

TEST_F(LintCli, ListRulesDocumentsEveryRule) {
  std::string Out;
  EXPECT_EQ(lintMain({"--list-rules"}, Out), 0);
  for (const RuleInfo &R : allRules()) {
    EXPECT_NE(Out.find(R.Id), std::string::npos) << R.Id;
    EXPECT_NE(Out.find("protects:"), std::string::npos);
  }
}

} // namespace

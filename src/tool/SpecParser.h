//===- tool/SpecParser.h - Verification spec files --------------*- C++ -*-===//
//
// Part of the Craft reproduction (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parser for the `craft` CLI's verification spec files: a small line-based
/// format describing one query — model, input region, postcondition, and
/// verifier knobs. Example:
///
///   # Robustness of a test image.
///   model models/mnist_fc40.bin
///   input linf
///     center fill 0.5 784
///     epsilon 0.05
///     clamp 0 1
///   output robust 3
///   verifier craft
///   alpha1 0.1
///   split-depth 4
///   certificate out.cert
///
/// `input box` with explicit `lo .../hi ...` vectors is the general form;
/// `center fill <value> <n>` broadcasts a constant, `center <v1> <v2> ...`
/// lists values. Diagnostics carry line/column and a message; parsing
/// never exits the process (library-friendly).
///
/// A spec file may contain several `input` blocks; each becomes one query
/// sharing the file's model, postcondition, and verifier knobs — the batch
/// form the parallel driver (`runSpecBatch`, `craft verify --jobs N`) fans
/// out across workers. `attack on` enables PGD refutation of uncertified
/// l-inf queries and `seed <n>` pins its RNG seed (0 or absent = a
/// deterministic per-query seed derived from the query's index).
/// `split-depth <n>` engages the branch-and-bound split engine and
/// `split-jobs <n>` fans its region waves out over n threads (0 = all
/// hardware threads) without changing any outcome.
///
/// `domain <box|zono|chzono>` selects the abstract domain the craft
/// engine runs in. `cascade <off|adapt|full>` is accepted and ignored, so
/// specs written for the retired domain cascade still parse. Both require
/// the craft engine.
///
//===----------------------------------------------------------------------===//

#ifndef CRAFT_TOOL_SPECPARSER_H
#define CRAFT_TOOL_SPECPARSER_H

#include "domains/DomainConcept.h"
#include "linalg/Matrix.h"

#include <optional>
#include <string>
#include <vector>

namespace craft {

/// Which engine executes the query.
enum class SpecVerifier { Craft, Box, Crown, Lipschitz };

/// A parsed verification query.
struct VerificationSpec {
  std::string ModelPath;
  /// Input region, always normalized to a box.
  Vector InLo, InHi;
  /// l-inf form metadata (kept for reporting; empty center = box form).
  Vector Center;
  double Epsilon = 0.0;
  double ClampLo = 0.0, ClampHi = 1.0;
  int TargetClass = -1;
  SpecVerifier Verifier = SpecVerifier::Craft;
  /// Abstract domain the craft engine runs in (`domain` directive /
  /// --domain; the `box` engine shorthand pins it to Box).
  VerifierDomain Domain = VerifierDomain::CHZono;
  /// Knob overrides (< 0 / 0 = library default).
  double Alpha1 = -1.0;
  double Alpha2 = -1.0;
  int MaxIterations = 0;
  int LambdaOptLevel = -1;
  /// Branch-and-bound split budget for the craft engine (0 = no splits,
  /// at most MaxSupportedSplitDepth).
  int SplitDepth = 0;
  /// Threads per split-engine wave, the caller included (0 = all hardware
  /// threads; capped like every fan-out, see support/ThreadPool.h). A
  /// pure performance knob: split outcomes are byte-identical for every
  /// value, so it is excluded from the canonical spec form.
  int SplitJobs = 1;
  /// Emit a proof witness here when non-empty (Craft only). Multi-input
  /// specs write one file per query (".<index>" suffix after the first).
  std::string CertificatePath;
  /// Attempt PGD refutation when a query is not certified (l-inf only).
  bool Attack = false;
  /// PGD seed; 0 = derive per task from the batch index (see runSpecBatch).
  uint64_t AttackSeed = 0;
};

/// A parse diagnostic (1-based line and column).
struct SpecDiagnostic {
  int Line = 0;
  int Column = 0;
  std::string Message;
  std::string render(const std::string &FileName) const;
};

/// Parse result: the parsed queries or diagnostics (never both empty).
struct SpecParseResult {
  /// The first query — the whole spec for single-input files.
  std::optional<VerificationSpec> Spec;
  /// Every query, one per `input` block, in file order.
  std::vector<VerificationSpec> Specs;
  std::vector<SpecDiagnostic> Diagnostics;
  bool ok() const { return Spec.has_value(); }
};

/// Parses spec text (\p Source). \p FileName is used in diagnostics only.
SpecParseResult parseSpec(const std::string &Source,
                          const std::string &FileName = "<spec>");

/// Reads and parses a spec file; an unreadable file yields a diagnostic.
SpecParseResult parseSpecFile(const std::string &Path);

} // namespace craft

#endif // CRAFT_TOOL_SPECPARSER_H

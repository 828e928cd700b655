//===- cert/Certificate.h - Robustness proof witnesses ----------*- C++ -*-===//
//
// Part of the Craft reproduction (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Machine-checkable certificates for Craft verdicts. A certificate makes a
/// robustness verdict *auditable*: instead of trusting the verifier's whole
/// search (consolidation schedules, expansion, history, line searches), a
/// small independent checker re-establishes the verdict from a
/// self-contained witness:
///
///   1. a proper CH-Zonotope `Outer` (input-decorrelated by construction:
///      the checker re-mints its noise-symbol ids on load),
///   2. a phase-1 recipe: `ContainSteps` abstract solver steps whose result
///      must be contained in Outer — re-validated by the checker with
///      *rigorous directed-rounding arithmetic* (the Thm 4.2 inequality is
///      exactly where a half-ulp can flip soundness),
///   3. a phase-2 recipe (method, step size, ReLU-lambda scale, step
///      count) whose replayed states must rigorously certify the margins.
///
/// Soundness requires no provenance for Outer: if one abstract step maps a
/// nonempty closed set into itself (per input slice), every concrete
/// trajectory started inside it stays inside, and the concrete convergence
/// guarantee puts the true fixpoints in the closure (Thm 3.1's argument,
/// applied to the witness directly). The trusted base of a check is thus:
/// the CH-Zonotope transformers, the checker's own step composition, and
/// the rounded-interval layer — not the verifier.
///
//===----------------------------------------------------------------------===//

#ifndef CRAFT_CERT_CERTIFICATE_H
#define CRAFT_CERT_CERTIFICATE_H

#include "domains/CHZonotope.h"
#include "domains/DomainConcept.h"
#include "nn/Solvers.h"

#include <optional>
#include <string>

namespace craft {

/// A self-contained robustness proof witness (see file comment).
struct RobustnessCertificate {
  /// Binding to the verified model (FNV-1a over the semantic parameters).
  uint64_t ModelHash = 0;
  /// The verified query: box precondition and target class.
  Vector InLo, InHi;
  int TargetClass = 0;
  /// Zonotope-family domain the checker replays the recipe in (the spec's
  /// domain). Box never appears: the witness machinery is zonotope-based,
  /// so Box certifications re-prove in CH-Zonotope.
  VerifierDomain Domain = VerifierDomain::CHZono;

  /// Phase-1 witness: ContainSteps applications of (Phase1Method, Alpha1)
  /// starting from Outer must land inside Outer.
  CHZonotope Outer;
  Splitting Phase1Method = Splitting::PeacemanRachford;
  double Alpha1 = 1.0;
  int ContainSteps = 1;

  /// Phase-2 recipe: after containment, Phase2Steps applications of
  /// (Phase2Method, Alpha2) with the given ReLU lambda scale; the margins
  /// must certify at some step (including step 0).
  Splitting Phase2Method = Splitting::ForwardBackward;
  double Alpha2 = 0.05;
  double LambdaScale = 1.0;
  int Phase2Steps = 0;
};

/// Semantic model hash: covers W, U, b_z, V, b_y, m, and the activation
/// (everything the checker's replay depends on), not the raw P/Q
/// parametrization or file layout.
uint64_t hashModel(const MonDeq &Model);

/// Binary serialization (versioned). Returns false on I/O failure.
bool saveCertificate(const RobustnessCertificate &Cert,
                     const std::string &Path);
std::optional<RobustnessCertificate>
loadCertificate(const std::string &Path);

} // namespace craft

#endif // CRAFT_CERT_CERTIFICATE_H

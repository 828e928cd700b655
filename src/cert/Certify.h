//===- cert/Certify.h - Certificate construction ----------------*- C++ -*-===//
//
// Part of the Craft reproduction (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds RobustnessCertificates for queries the Craft verifier can
/// certify. Construction reruns a compact certifying pipeline (phase-1
/// containment, witness consolidation, phase-2 recipe replay) and then
/// *self-checks* the result with the independent checker, so an emitted
/// certificate is guaranteed to validate. Certification is on-demand: it
/// roughly doubles the verification cost, which is why the verifier itself
/// does not emit witnesses.
///
//===----------------------------------------------------------------------===//

#ifndef CRAFT_CERT_CERTIFY_H
#define CRAFT_CERT_CERTIFY_H

#include "cert/Certificate.h"
#include "core/Verifier.h"

#include <optional>

namespace craft {

/// Attempts to build a self-contained certificate that the (clamped)
/// Epsilon-ball around \p X is classified as \p TargetClass. Returns
/// nullopt when verification or witness construction fails (the query may
/// still be verifiable by CraftVerifier with other schedules; a missing
/// certificate is not a refutation), or when Config.Control fires: the
/// search polls it every phase-1 iteration and before each self-check.
std::optional<RobustnessCertificate>
certifyRobustness(const MonDeq &Model, const Vector &X, int TargetClass,
                  double Epsilon, const CraftConfig &Config = {});

/// Box-precondition variant.
std::optional<RobustnessCertificate>
certifyRegion(const MonDeq &Model, const Vector &InLo, const Vector &InHi,
              int TargetClass, const CraftConfig &Config = {});

} // namespace craft

#endif // CRAFT_CERT_CERTIFY_H

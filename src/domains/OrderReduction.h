//===- domains/OrderReduction.h - PCA consolidation basis -------*- C++ -*-===//
//
// Part of the Craft reproduction (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Consolidation-basis management for CH-Zonotope order reduction. The paper
/// uses the PCA basis of the error matrix (Kopetzki et al. 2017) and, per
/// App. C, only recomputes it every 30 consolidations, reusing the cached
/// basis in between.
///
//===----------------------------------------------------------------------===//

#ifndef CRAFT_DOMAINS_ORDERREDUCTION_H
#define CRAFT_DOMAINS_ORDERREDUCTION_H

#include "domains/CHZonotope.h"
#include "linalg/Matrix.h"

namespace craft {

/// Caches the PCA consolidation basis and its inverse, refreshing it every
/// \c RefreshEvery requests. PCA bases are orthogonal, so the inverse is the
/// transpose. The PCA of an empty generator matrix is the identity, so a
/// run that starts from a point consolidates in the identity basis until
/// the first refresh over a non-empty generator matrix; consolidateProper
/// and containsCH then take absProductRowSums' diagonal path. That is a
/// speed-up only: soundness holds for any basis (Thm 4.1).
class ConsolidationBasis {
public:
  /// \p Dim is the state dimensionality p; \p RefreshEvery the number of
  /// consolidations between PCA recomputations (paper: 30).
  explicit ConsolidationBasis(size_t Dim, int RefreshEvery = 30);

  /// Readies the basis for the next consolidation (read it through
  /// basis() and basisInv()), recomputing the PCA of \p Generators when
  /// the refresh counter expires.
  void refresh(const Matrix &Generators);

  const Matrix &basis() const { return Basis; }
  const Matrix &basisInv() const { return BasisInv; }

  /// Forces a PCA recomputation at the next \ref refresh call.
  void invalidate() { Counter = 0; }

private:
  Matrix Basis;
  Matrix BasisInv;
  int RefreshEvery;
  int Counter = 0;
};

/// A proper CH-Zonotope together with the inverse of its generator matrix,
/// the pair the Thm 4.2 containment check consumes.
struct ProperState {
  CHZonotope Z;
  Matrix InvGens;
};

/// Consolidates \p Z (Thm 4.1) with expansion (Eq. 10) against the cached
/// basis of \p Basis (refreshing it on schedule) and returns the proper
/// result with its generator inverse. Because the PCA basis is orthogonal,
/// the inverse is diag(1/c) * Basis^T — no LU factorization needed.
ProperState consolidateProper(const CHZonotope &Z, ConsolidationBasis &Basis,
                              double WMul = 0.0, double WAdd = 0.0);

} // namespace craft

#endif // CRAFT_DOMAINS_ORDERREDUCTION_H

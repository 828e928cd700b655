//===- domains/CHZonotope.h - The CH-Zonotope abstract domain ---*- C++ -*-===//
//
// Part of the Craft reproduction (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Containing-Hybrid-Zonotope (CH-Zonotope) abstract domain of Section 4:
///
///   Z = A nu + diag(b) eta + a,   nu in [-1,1]^k, eta in [-1,1]^p,
///
/// i.e. a zonotope with generator matrix A (the "error matrix"), an
/// axis-aligned Box error vector b, and center a. A CH-Zonotope is "proper"
/// when A is square and invertible, which is what enables the O(p^3)
/// containment check of Thm 4.2. A standard Zonotope is the special case
/// b = 0, so this single class also implements the plain Zonotope domain
/// used by the Kleene baseline and the Householder case study.
///
/// Generator columns carry globally unique error-term ids. Shared ids across
/// abstract values denote the same underlying noise symbol; linearCombine
/// merges coefficients for shared ids, which is how the abstract solver
/// iteration g#(X, S) keeps the state correlated with the input region
/// across iterations.
///
//===----------------------------------------------------------------------===//

#ifndef CRAFT_DOMAINS_CHZONOTOPE_H
#define CRAFT_DOMAINS_CHZONOTOPE_H

#include "domains/Interval.h"
#include "linalg/Kernels.h"
#include "linalg/Matrix.h"
#include "linalg/Views.h"

#include <cstdint>
#include <span>
#include <utility>

namespace craft {

/// Mints a fresh error-term id: this thread's counter plus one.
uint64_t freshErrorTermId();
/// This thread's counter: the last id it minted.
uint64_t errorTermIdMark();
/// Sets this thread's counter, so the next id minted is \p Mark + 1 (test
/// isolation, and the per-item id ranges of core/Verifier.cpp's helped
/// sections).
void setErrorTermIdMark(uint64_t Mark);

/// Controls how the Box error component participates in affine maps.
enum class BoxPolicy {
  /// Cast Box errors to fresh generator columns before the map (the paper's
  /// transformer): precise, grows k by the number of nonzero box entries.
  CastToGenerators,
  /// Map the Box radius through |M| (interval-style): sound and size
  /// preserving but ignores rotation of the box.
  IntervalMap,
};

/// A CH-Zonotope abstract value.
class CHZonotope {
public:
  CHZonotope() = default;

  /// Degenerate abstraction of a single concrete point.
  static CHZonotope point(const Vector &Center);

  /// Abstraction of an axis-aligned box, one fresh generator column per
  /// dimension with nonzero radius (so correlations with this region are
  /// trackable through shared ids).
  static CHZonotope fromBox(const Vector &Lo, const Vector &Hi);

  /// Builds a CH-Zonotope from raw parts (ids must be unique).
  CHZonotope(Vector Center, Matrix Generators, std::vector<uint64_t> TermIds,
             Vector BoxRadius);

  size_t dim() const { return Center.size(); }
  size_t numGenerators() const { return Generators.cols(); }

  const Vector &center() const { return Center; }
  const Matrix &generators() const { return Generators; }
  const std::vector<uint64_t> &termIds() const { return TermIds; }
  const Vector &boxRadius() const { return BoxRadius; }

  /// Per-dimension concretization radius: |A| 1 + b.
  Vector concretizationRadius() const;
  /// Destination-passing form of \ref concretizationRadius (\p Out must
  /// have size dim()); the per-iteration checks of the Kleene loop use
  /// this with workspace scratch.
  void concretizationRadiusInto(VectorView Out) const;
  Vector lowerBounds() const;
  Vector upperBounds() const;
  /// Interval hull of the concretization.
  IntervalVector intervalHull() const;
  /// Mean per-dimension width of the concretization (Fig. 13 metric).
  double meanWidth() const;

  /// Affine image M * this + T.
  CHZonotope affine(const Matrix &M, const Vector &T,
                    BoxPolicy Policy = BoxPolicy::CastToGenerators) const;

  /// Sum_i M_i * Z_i + Offset with error-term-id alignment: columns with the
  /// same id across operands are summed into a single output column. This is
  /// the key precision-preserving operation of the abstract solver step
  /// g#(X, S) = ... W S + U X ...
  ///
  /// Column order: output columns are assigned to distinct ids in first
  /// occurrence order across the terms, followed by the cast Box columns
  /// of each term in term order. A first term with distinct ids (every
  /// CH-Zonotope's) therefore owns columns [0, k) in its own order, and
  /// its product is written straight into them; later terms add their
  /// columns into the shared result row by row. Each output element
  /// receives its contributions in term order, as one column-at-a-time
  /// accumulation from +0.0 would give them.
  ///
  /// A null matrix pointer denotes the identity map (the operand must
  /// already have the output dimension): the hot solver step adds its
  /// precomputed input contribution this way without materializing — or
  /// multiplying by — a p x p identity.
  ///
  /// \p Hint describes the density of the map matrices and is forwarded
  /// to the generator gemms. The abstract solver step passes Dense — its
  /// maps are the monDEQ state matrices, and skipping the probe saves a
  /// per-call density scan.
  static CHZonotope
  linearCombine(std::span<const std::pair<const Matrix *, const CHZonotope *>>
                    Terms,
                const Vector &Offset,
                BoxPolicy Policy = BoxPolicy::CastToGenerators,
                kernels::DensityHint Hint = kernels::DensityHint::Probe);

  /// ReLU transformer applied to dimensions [0, Count); remaining dimensions
  /// pass through. Per-dimension relaxation slopes can be overridden via
  /// \p LambdaOverride (empty = minimal-area default u/(u-l), scaled by
  /// \p LambdaScale and clamped to [0,1] — the knob the paper's lambda
  /// optimization tunes, App. C). If \p AbsorbIntoBox, new relaxation error
  /// goes to the Box component (the CH-Zonotope transformer — representation
  /// size stays constant); otherwise each unstable dimension appends a fresh
  /// generator column (the classic Zonotope transformer).
  CHZonotope reluPrefix(size_t Count, const Vector &LambdaOverride = Vector(),
                        bool AbsorbIntoBox = true,
                        double LambdaScale = 1.0) const &;
  /// The same transformer rectifying this value's storage in place (the
  /// solver step hands over its pre-activation value, whose p x k
  /// generator matrix would otherwise be copied only to be dropped). The
  /// const & overload copies its operand and calls this one, so both give
  /// the same bytes.
  CHZonotope reluPrefix(size_t Count, const Vector &LambdaOverride = Vector(),
                        bool AbsorbIntoBox = true,
                        double LambdaScale = 1.0) &&;

  /// Error consolidation (Thm 4.1) with expansion (Eq. 10): replaces the
  /// generator matrix by Basis * diag(c) with
  /// c = (1+WMul) |Basis^{-1} A| 1 + WAdd, minting fresh ids. \p BasisInv
  /// must be the inverse of \p Basis. The result is proper whenever all
  /// consolidation coefficients are positive; zero coefficients are floored
  /// (a sound enlargement) to retain invertibility.
  CHZonotope consolidate(const Matrix &Basis, const Matrix &BasisInv,
                         double WMul = 0.0, double WAdd = 0.0) const;

  /// Casts the Box component into axis-aligned generator columns with fresh
  /// ids (exact). Useful before consolidation when the Box carries most of
  /// the radius, so the consolidated generators cover the full set.
  CHZonotope boxCastToGenerators() const;

  /// Keeps dimensions [First, First+Count) (column slicing of the state,
  /// e.g. extracting Z from S = [Z; U]).
  CHZonotope slice(size_t First, size_t Count) const;

  /// Vertical concatenation with id alignment (shared ids stay shared).
  /// Operands with identical id lists (the PR step stacks u_next on
  /// itself) skip the alignment and copy their generator row blocks.
  static CHZonotope stack(const CHZonotope &Top, const CHZonotope &Bottom);

  /// This value with the Box error vector replaced (rvalue-only: reuses the
  /// center/generator storage — the Kleene widening step rewrites the Box
  /// every iteration and must not copy the generator matrix to do so).
  CHZonotope withBoxRadius(Vector NewBox) &&;

  /// This value with its error-term ids replaced (one per generator
  /// column, unique; rvalue-only like withBoxRadius). A split child's
  /// inherited phase-2 state is renumbered this way (core/Verifier.h,
  /// Phase2Start).
  CHZonotope withTermIds(std::vector<uint64_t> NewIds) &&;

  /// Sound quasi-join for the Kleene baseline (non-lattice domain, per Gange
  /// et al. 2013): averages coefficients of shared ids, drops unshared
  /// columns into a covering Box residual.
  static CHZonotope join(const CHZonotope &A, const CHZonotope &B);

private:
  Vector Center;
  Matrix Generators; ///< p x k error matrix A.
  std::vector<uint64_t> TermIds;
  Vector BoxRadius; ///< Box error vector b >= 0 (size p).
};

/// Result of the approximate containment check.
struct ContainmentResult {
  bool Contained = false;
  /// max_i of the Thm 4.2 left-hand side; <= 1 means contained. Useful as a
  /// tightness diagnostic (Fig. 18).
  double Slack = 0.0;
};

/// Out[i] = sum_j |(L R)(i, j)|, the |A^{-1} A'| 1 that consolidation
/// (Thm 4.1) and the containment check (Thm 4.2) both reduce. A diagonal
/// \p L skips the gemm: row i is sum_j |L(i,i) R(i,j)| in ascending j from
/// +0.0, the bytes kernels::gemm then kernels::rowAbsSumsInto produce on
/// finite data (every other product of the dense row is an exact zero).
/// Identity-basis consolidations and their diag(1/c) inverses take this
/// path (see ConsolidationBasis); the scan for it stops at the first
/// off-diagonal nonzero, so dense (PCA) operands pay almost nothing.
void absProductRowSums(VectorView Out, const Matrix &L, const Matrix &R);

/// CH-Zonotope containment check (Thm 4.2): is \p Inner contained in the
/// proper CH-Zonotope \p Outer? \p OuterInvGens must be the inverse of
/// Outer's generator matrix. Sound but incomplete; O(p^2 (p + k)).
ContainmentResult containsCH(const CHZonotope &Outer,
                             const Matrix &OuterInvGens,
                             const CHZonotope &Inner);

} // namespace craft

#endif // CRAFT_DOMAINS_CHZONOTOPE_H

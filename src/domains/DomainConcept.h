//===- domains/DomainConcept.h - Abstract-domain portfolio seam -*- C++ -*-===//
//
// Part of the Craft reproduction (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pluggable abstract-domain seam the iterator machinery (CraftVerifier,
/// KleeneVerifier, UnrolledCrown, SplitEngine) is generic over. Each domain
/// is a stateless vtable-free traits type satisfying \ref AbstractDomain:
/// a `State` (the abstract value), a `HistoryEntry` (what the s-step
/// containment check of Thm B.1 compares against), and the operations the
/// fixpoint iterators actually use — initial state, one abstract solver
/// step, z-part extraction, consolidation, containment, join, widening,
/// concretize-to-box, width, and margin lower bounds.
///
/// Three domains form the portfolio. CH-Zonotope is the verifier's domain;
/// Box and Zono are the paper's ablations, selected with `domain`:
///
///  - \ref BoxDomain     — interval vectors (the paper's "No Zono
///                         component" ablation, Table 4). O(p^2) per step.
///  - \ref ZonoDomain    — classic Zonotope: CH-Zonotope machinery with
///                         the box component off, so the ReLU mints fresh
///                         error columns ("No Box component" ablation).
///  - \ref CHZonoDomain  — the paper's CH-Zonotope (Section 4).
///
/// The solver-facing operations (initial/step/zPart) are templated on the
/// solver type so this header stays a pure domains/ citizen — core/ depends
/// on domains/, never the other way around.
///
//===----------------------------------------------------------------------===//

#ifndef CRAFT_DOMAINS_DOMAINCONCEPT_H
#define CRAFT_DOMAINS_DOMAINCONCEPT_H

#include "domains/CHZonotope.h"
#include "domains/Interval.h"
#include "domains/OrderReduction.h"

#include <concepts>
#include <optional>
#include <string_view>
#include <utility>

namespace craft {

/// Abstract domain selector (Table 1 / Fig. 13 comparisons and the Table 4
/// ablations). CHZono and Box keep their historic enum values; Zono
/// replaces the old `UseBoxComponent = false` ablation flag.
enum class VerifierDomain {
  CHZono, ///< CH-Zonotope (the paper's domain).
  Box,    ///< Interval domain ("No Zono component" ablation).
  Zono,   ///< Classic Zonotope ("No Box component" ablation).
};

/// Canonical lowercase spelling used by the spec `domain` directive,
/// SpecCanon keys, and telemetry series names.
inline const char *verifierDomainName(VerifierDomain D) {
  switch (D) {
  case VerifierDomain::CHZono:
    return "chzono";
  case VerifierDomain::Box:
    return "box";
  case VerifierDomain::Zono:
    return "zono";
  }
  return "chzono";
}

/// Parses a \ref verifierDomainName spelling; nullopt on anything else.
inline std::optional<VerifierDomain> parseVerifierDomain(std::string_view S) {
  if (S == "chzono")
    return VerifierDomain::CHZono;
  if (S == "box")
    return VerifierDomain::Box;
  if (S == "zono")
    return VerifierDomain::Zono;
  return std::nullopt;
}

/// Whether the CH-Zonotope ReLU absorbs new error terms into the box
/// component for this domain (the knob the old UseBoxComponent bool
/// toggled). Box never reaches the CH-Zonotope ReLU.
constexpr bool absorbBoxFor(VerifierDomain D) {
  return D != VerifierDomain::Zono;
}

//===----------------------------------------------------------------------===//
// BoxDomain
//===----------------------------------------------------------------------===//

/// Interval-vector domain. No consolidation machinery: history entries are
/// plain state copies and containment is the componentwise interval check.
struct BoxDomain {
  using State = IntervalVector;
  using HistoryEntry = IntervalVector;
  static constexpr VerifierDomain Kind = VerifierDomain::Box;
  static constexpr bool HasConsolidation = false;
  static constexpr const char *Name = "box";

  template <class Solver>
  static State initial(const Solver &S, const Vector &ZStar) {
    return S.initialStateInterval(ZStar);
  }
  template <class Solver>
  static State step(const Solver &S, const State &X, double /*LambdaScale*/) {
    return S.stepInterval(X);
  }
  template <class Solver> static State zPart(const Solver &S, const State &X) {
    return S.zPartInterval(X);
  }

  static bool contains(const HistoryEntry &Outer, const State &Inner) {
    return Outer.contains(Inner);
  }
  static double widthInf(const State &X) { return X.radius().normInf(); }
  static IntervalVector hull(const State &X) { return X; }
  static State fromHull(const IntervalVector &H) { return H; }
  static State join(const State &A, const State &B) {
    return IntervalVector::join(A, B);
  }
  /// Kleene widening: grow each radius multiplicatively (plus a floor) so
  /// the ascending chain stabilizes.
  static State widen(const State &X, double Factor) {
    Vector R = X.radius();
    for (size_t I = 0; I < R.size(); ++I)
      R[I] += Factor * R[I] + 1e-9;
    return IntervalVector(X.center(), std::move(R));
  }
  /// Lower bounds of the margin system D z + Off (interval evaluation).
  static Vector marginLowerBounds(const State &Z, const Matrix &D,
                                  const Vector &Off) {
    return Z.affine(D, Off).lowerBounds();
  }
};

//===----------------------------------------------------------------------===//
// Zonotope family (classic Zonotope and CH-Zonotope)
//===----------------------------------------------------------------------===//

/// The two zonotope-backed domains share every operation except the ReLU's
/// box-absorption policy (\p AbsorbBox), i.e. exactly the old
/// UseBoxComponent ablation axis.
template <bool AbsorbBox> struct ZonotopeFamilyDomain {
  using State = CHZonotope;
  using HistoryEntry = ProperState;
  static constexpr VerifierDomain Kind =
      AbsorbBox ? VerifierDomain::CHZono : VerifierDomain::Zono;
  static constexpr bool HasConsolidation = true;
  static constexpr const char *Name = AbsorbBox ? "chzono" : "zono";

  template <class Solver>
  static State initial(const Solver &S, const Vector &ZStar) {
    return S.initialState(ZStar);
  }
  template <class Solver>
  static State step(const Solver &S, const State &X, double LambdaScale) {
    return S.step(X, LambdaScale, AbsorbBox);
  }
  template <class Solver> static State zPart(const Solver &S, const State &X) {
    return S.zPart(X);
  }

  /// Thm 4.1 consolidation with Eq. 10 expansion; the returned proper
  /// state carries the generator inverse the Thm 4.2 check consumes.
  static HistoryEntry consolidate(const State &X, ConsolidationBasis &Basis,
                                  double WMul, double WAdd) {
    return consolidateProper(X, Basis, WMul, WAdd);
  }
  static bool contains(const HistoryEntry &Outer, const State &Inner) {
    return containsCH(Outer.Z, Outer.InvGens, Inner).Contained;
  }
  static double widthInf(const State &X) {
    return X.concretizationRadius().normInf();
  }
  static IntervalVector hull(const State &X) { return X.intervalHull(); }
  /// Box-shaped zonotope over the hull (no generators — what the Kleene
  /// interval-hull accumulator rebuilds each join).
  static State fromHull(const IntervalVector &H) {
    return CHZonotope(H.center(), Matrix(H.dim(), 0), {}, H.radius());
  }
  static State join(const State &A, const State &B) {
    return CHZonotope::join(A, B);
  }
  /// Kleene widening: grow the Box component by a fraction of the full
  /// concretization radius (plus a floor).
  static State widen(const State &X, double Factor) {
    Vector Widened = X.boxRadius();
    Vector Radius = X.concretizationRadius();
    for (size_t I = 0; I < Widened.size(); ++I)
      Widened[I] += Factor * Radius[I] + 1e-9;
    State Copy = X;
    return std::move(Copy).withBoxRadius(std::move(Widened));
  }
  /// Lower bounds of the margin system D z + Off, evaluated exactly as one
  /// affine map on the zonotope (the precision the portfolio pays for).
  static Vector marginLowerBounds(const State &Z, const Matrix &D,
                                  const Vector &Off) {
    return Z.affine(D, Off, BoxPolicy::IntervalMap).lowerBounds();
  }
};

using CHZonoDomain = ZonotopeFamilyDomain</*AbsorbBox=*/true>;
using ZonoDomain = ZonotopeFamilyDomain</*AbsorbBox=*/false>;

//===----------------------------------------------------------------------===//
// Concept and dispatch
//===----------------------------------------------------------------------===//

/// The contract the iterator machinery compiles against. \p Solver is the
/// abstract transformer type (core/AbstractSolver in production; tests may
/// substitute fakes), kept a parameter so domains/ never names core/ types.
template <class D, class Solver>
concept AbstractDomain = requires(const Solver &S, const typename D::State &X,
                                  const typename D::HistoryEntry &H,
                                  const IntervalVector &IV, const Vector &V,
                                  const Matrix &M) {
  typename D::State;
  typename D::HistoryEntry;
  { D::Kind } -> std::convertible_to<VerifierDomain>;
  { D::HasConsolidation } -> std::convertible_to<bool>;
  { D::initial(S, V) } -> std::same_as<typename D::State>;
  { D::step(S, X, double{}) } -> std::same_as<typename D::State>;
  { D::zPart(S, X) } -> std::same_as<typename D::State>;
  { D::contains(H, X) } -> std::same_as<bool>;
  { D::widthInf(X) } -> std::convertible_to<double>;
  { D::hull(X) } -> std::same_as<IntervalVector>;
  { D::fromHull(IV) } -> std::same_as<typename D::State>;
  { D::join(X, X) } -> std::same_as<typename D::State>;
  { D::widen(X, double{}) } -> std::same_as<typename D::State>;
  { D::marginLowerBounds(X, M, V) } -> std::same_as<Vector>;
};

/// Runtime-to-compile-time domain dispatch: invokes \p F with a value of
/// the traits type selected by \p Kind.
template <class Fn> decltype(auto) withDomain(VerifierDomain Kind, Fn &&F) {
  switch (Kind) {
  case VerifierDomain::Box:
    return std::forward<Fn>(F)(BoxDomain{});
  case VerifierDomain::Zono:
    return std::forward<Fn>(F)(ZonoDomain{});
  case VerifierDomain::CHZono:
    break;
  }
  return std::forward<Fn>(F)(CHZonoDomain{});
}

} // namespace craft

#endif // CRAFT_DOMAINS_DOMAINCONCEPT_H

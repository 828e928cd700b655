//===- nn/Solvers.h - Concrete operator splitting solvers -------*- C++ -*-===//
//
// Part of the Craft reproduction (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Concrete fixpoint solvers for monDEQs (Section 5.1):
///
///  - Forward-Backward splitting (Eq. 8):
///      s_{n+1} = ReLU((1-a) s_n + a (W s_n + U x + b)),
///    convergent for 0 < a < 2m / ||I - W||_2^2.
///  - Peaceman-Rachford splitting (Eq. 9), convergent for any a > 0, using
///    the cached factorization of M = I + a (I - W).
///
/// One product per input: the input drive U x is the largest matrix
/// product of a solve (U is latent x input), and it does not change across
/// iterations. A solve computes it once and carries it out in \ref
/// FixpointResult::InputProduct; continuing that result to a tighter
/// tolerance reuses it, and so does the implicit-function gradient
/// (nn/Training.h), whose activation pattern is W z + U x + b. A continued
/// solve must therefore be given the same input as the solve it continues.
/// `concrete.input_products` counts the products computed.
///
/// The solver keeps U^T and, for PR, M^{-1 T}, and multiplies by them
/// through the transposed gemv (linalg/Kernels.h), whose loads are
/// contiguous rows; each product is bitwise gemv with U or M^{-1}.
///
//===----------------------------------------------------------------------===//

#ifndef CRAFT_NN_SOLVERS_H
#define CRAFT_NN_SOLVERS_H

#include "linalg/Lu.h"
#include "linalg/Views.h"
#include "nn/MonDeq.h"

namespace craft {

/// Iteration cap of \ref FixpointSolver::solve and \ref
/// FixpointSolver::logits when the caller gives none.
inline constexpr int DefaultSolveMaxIter = 2000;

/// Tolerance of \ref FixpointSolver::logits and \ref FixpointSolver::predict
/// when the caller gives none.
inline constexpr double DefaultLogitsTol = 1e-9;

/// Operator splitting method selector.
enum class Splitting {
  ForwardBackward,
  PeacemanRachford,
};

/// Result of iterating a solver to convergence.
struct FixpointResult {
  Vector Z;            ///< Fixpoint estimate z_n ~ z*(x).
  Vector U;            ///< Auxiliary PR state u_n (empty for FB).
  Vector InputProduct; ///< U x of the solved input (see the file comment).
  int Iterations = 0;  ///< Iterations actually performed.
  bool Converged = false;
  double Residual = 0.0; ///< Final ||z_n - z_{n-1}||_2.
};

/// Concrete fixpoint solver bound to one model and one splitting
/// configuration; PR precomputes the LU factorization of I + a(I - W).
class FixpointSolver {
public:
  /// \p Alpha <= 0 selects a default: 0.9 * fbAlphaBound() for FB, and
  /// for PR the rate-optimal 1 / sqrt(m L) of Ryu & Boyd (2016), with m the
  /// monotonicity and L = ||I - W||_2.
  FixpointSolver(const MonDeq &Model, Splitting Method, double Alpha = -1.0);

  double alpha() const { return Alpha; }
  Splitting method() const { return Method; }

  /// One FB step on state z (computes the input drive U x + b itself).
  Vector fbStep(const Vector &X, const Vector &Z) const;

  /// One PR step on state (z, u); returns the new pair (computes the input
  /// drive a (U x + b) itself).
  std::pair<Vector, Vector> prStep(const Vector &X, const Vector &Z,
                                   const Vector &U) const;

  /// Iterates from s_0 = 0 until ||z_n - z_{n-1}|| < Tol or MaxIter
  /// iterations. The input drive U x + b is constant across iterations, so
  /// it is computed once per solve (and U x kept in the result); every
  /// iterate is bitwise the one \ref fbStep / \ref prStep would produce.
  FixpointResult solve(const Vector &X, double Tol = 1e-10,
                       int MaxIter = DefaultSolveMaxIter) const;

  /// Continues \p Res, the result of an earlier solve of the same \p X at a
  /// tolerance no tighter than \p Tol and a cap no larger than \p MaxIter,
  /// and leaves in it bitwise the result of solve(X, Tol, MaxIter). The
  /// looser run's iterates are a prefix of the tighter run's: it stopped at
  /// the first residual below its own tolerance (or at its cap), and no
  /// earlier residual met the tighter one. So if its last residual already
  /// meets \p Tol it is marked converged as is; otherwise iteration resumes
  /// from its state, and MaxIter counts the iterations of both runs. The
  /// drive is built from Res.InputProduct, which is computed only when it
  /// is empty, so \p X must be the input \p Res was solved for.
  void solve(const Vector &X, FixpointResult &Res, double Tol,
             int MaxIter) const;

  /// Fixpoint followed by the output layer (reuses this solver's cached
  /// factorization, unlike the free function \ref forwardLogits).
  Vector logits(const Vector &X, double Tol = DefaultLogitsTol) const;

  /// Argmax class of \ref logits.
  int predict(const Vector &X) const;

private:
  /// U x, through U^T.
  Vector inputProduct(const Vector &X) const;
  /// Drive = U x + b (FB) or a (U x + b) (PR), from \p UX = U x.
  void inputDriveInto(VectorView Drive, ConstVectorView UX) const;
  /// One FB step from z into \p ZNext, given the FB input drive.
  void fbStepInto(VectorView ZNext, ConstVectorView Drive,
                  ConstVectorView Z) const;
  /// One PR step from (z, u): the new z into \p ZNext, u updated in place,
  /// given the PR input drive.
  void prStepInto(VectorView ZNext, VectorView U, ConstVectorView Drive,
                  ConstVectorView Z) const;

  const MonDeq &Model;
  Splitting Method;
  double Alpha;
  Matrix UT;    ///< U^T.
  Matrix MInvT; ///< ((I + a (I - W))^{-1})^T, PR only.
};

/// Full forward pass: fixpoint via PR (robust default), then output layer.
Vector forwardLogits(const MonDeq &Model, const Vector &X,
                     double Tol = DefaultLogitsTol);

/// Argmax class of \ref forwardLogits.
int predictClass(const MonDeq &Model, const Vector &X);

} // namespace craft

#endif // CRAFT_NN_SOLVERS_H

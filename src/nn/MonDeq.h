//===- nn/MonDeq.h - Monotone operator deep equilibrium models --*- C++ -*-===//
//
// Part of the Craft reproduction (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Monotone Operator Deep Equilibrium Models (monDEQs, Winston & Kolter
/// 2020), the evaluation subject of the paper (Section 5.1):
///
///   z* = f(x, z*) = ReLU(W z* + U x + b),   y = V z* + v,
///
/// with W = (1 - m) I - P^T P + Q - Q^T for monotonicity parameter m > 0,
/// which guarantees existence and uniqueness of the fixpoint z*(x).
///
//===----------------------------------------------------------------------===//

#ifndef CRAFT_NN_MONDEQ_H
#define CRAFT_NN_MONDEQ_H

#include "linalg/Matrix.h"
#include "support/Rng.h"

#include <optional>
#include <string>

namespace craft {

/// Activation of the equilibrium layer. ReLU is the paper's main setting;
/// Sigmoid/Tanh exercise the App. B.6 pipeline (both are proximal operators
/// of CCP functions, so the Winston & Kolter convergence guarantees carry
/// over with prox_{a f} in place of ReLU in the splitting iterations).
enum class ActivationKind : uint8_t { ReLU = 0, Sigmoid = 1, Tanh = 2 };

/// Human-readable activation name.
const char *activationName(ActivationKind Act);

/// A monDEQ classifier/regressor. Owns the raw parametrization (P, Q, U, b,
/// V, v, m) and caches the derived iteration matrix W.
class MonDeq {
public:
  MonDeq() = default;

  /// Builds a monDEQ from its raw parameters; W is derived.
  MonDeq(double Monotonicity, Matrix P, Matrix Q, Matrix U, Vector BiasZ,
         Matrix V, Vector BiasY);

  /// Builds a monDEQ directly from W (for hand-constructed examples such as
  /// the paper's running example Eq. (1), where W is given). The caller is
  /// responsible for W satisfying the monotonicity condition.
  static MonDeq fromW(double Monotonicity, Matrix W, Matrix U, Vector BiasZ,
                      Matrix V, Vector BiasY);

  /// Random fully connected monDEQ: latent dim \p P, input dim \p Q,
  /// \p NumClasses outputs, monotonicity \p M (paper default: 20).
  static MonDeq randomFc(Rng &R, size_t InputDim, size_t LatentDim,
                         size_t NumClasses, double M = 20.0);

  /// Random convolution-structured monDEQ: the input map U has the sparsity
  /// pattern of a strided 2-D convolution over a (Channels x Height x Width)
  /// image while P/Q stay dense (see DESIGN.md substitution 3). The latent
  /// dimension is OutChannels * ceil(H/Stride) * ceil(W/Stride).
  static MonDeq randomConv(Rng &R, size_t Channels, size_t Height,
                           size_t Width, size_t OutChannels, size_t Kernel,
                           size_t Stride, size_t NumClasses, double M = 20.0);

  size_t inputDim() const { return U.cols(); }
  size_t latentDim() const { return W.rows(); }
  size_t outputDim() const { return V.rows(); }

  double monotonicity() const { return M; }
  /// Equilibrium-layer activation (ReLU unless overridden; App. B.6).
  ActivationKind activation() const { return Act; }
  /// Switches the activation. Affects the iteration semantics, the solvers
  /// and the abstract transformers; existing fixpoints become stale.
  void setActivation(ActivationKind NewAct) { Act = NewAct; }
  const Matrix &weightW() const { return W; }
  const Matrix &weightU() const { return U; }
  const Vector &biasZ() const { return BZ; }
  const Matrix &weightV() const { return V; }
  const Vector &biasY() const { return BY; }
  const Matrix &paramP() const { return P; }
  const Matrix &paramQ() const { return Q; }

  /// True if the model carries a raw (P, Q) parametrization (trainable);
  /// models built via fromW do not.
  bool hasRawParams() const { return P.rows() > 0; }

  /// Mutates the raw parameters (training); recomputes W.
  void applyParamUpdate(const Matrix &DeltaP, const Matrix &DeltaQ,
                        const Matrix &DeltaU, const Vector &DeltaBZ,
                        const Matrix &DeltaV, const Vector &DeltaBY);

  /// Output layer y = V z + v.
  Vector output(const Vector &Z) const { return V * Z + BY; }

  /// One application of the raw iteration f(x, z) = ReLU(W z + U x + b).
  Vector iterateF(const Vector &X, const Vector &Z) const;

  /// Upper bound on the FB step size with concrete convergence guarantees:
  /// 2 m / ||I - W||_2^2 (cached after first call).
  double fbAlphaBound() const;

  /// Serialization (binary, versioned). Returns false on I/O failure.
  bool save(const std::string &Path) const;
  /// Loads a model file, or nothing if it is unreadable, truncated, sizes
  /// a matrix larger than the bytes it has left, or has inconsistent
  /// shapes (W p x p, U p x q, b_z p, V r x p, b_y r, P and Q p x p or
  /// empty) or a monotonicity m that is not finite and positive.
  static std::optional<MonDeq> load(const std::string &Path);

private:
  void rebuildW();

  double M = 1.0;
  ActivationKind Act = ActivationKind::ReLU;
  Matrix P, Q;  ///< Raw parametrization (may be empty for fromW models).
  Matrix W;     ///< (1-m) I - P^T P + Q - Q^T.
  Matrix U;
  Vector BZ;
  Matrix V;
  Vector BY;
  mutable double CachedAlphaBound = -1.0;
};

} // namespace craft

#endif // CRAFT_NN_MONDEQ_H

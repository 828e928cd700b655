//===- nn/Training.h - monDEQ training via implicit diff --------*- C++ -*-===//
//
// Part of the Craft reproduction (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// monDEQ training with implicit differentiation (Winston & Kolter 2020,
/// App. D.1 of the paper): the fixpoint z* = ReLU(W z* + U x + b) is
/// differentiated through the implicit function theorem,
///
///   dz* = (I - D W)^{-1} D (dW z* + dU x + db),   D = diag(1{pre > 0}),
///
/// so one linear solve per sample yields exact gradients without unrolling.
/// The same machinery provides input gradients for the PGD attack. The
/// original artifact used pretrained PyTorch models; training from scratch
/// here replaces that substrate (DESIGN.md substitution 2).
///
//===----------------------------------------------------------------------===//

#ifndef CRAFT_NN_TRAINING_H
#define CRAFT_NN_TRAINING_H

#include "data/Dataset.h"
#include "nn/Solvers.h"

#include <cstdint>
#include <optional>

namespace craft {

/// Knobs for \ref trainMonDeq.
struct TrainOptions {
  int Epochs = 10;
  /// Minibatch size. The paper (App. D.1) uses 128 on the full 60k-sample
  /// MNIST; the synthetic substitutes are 1-2 orders smaller, so a smaller
  /// batch keeps the optimizer step count adequate.
  size_t BatchSize = 32;
  double LearningRate = 0.01; ///< Adam step size.
  double SolverTol = 1e-7;
  int SolverMaxIter = 300;
  uint64_t Seed = 1234;
  bool Verbose = false;
  /// Jacobian-free backprop (Fung et al. 2022): approximates the implicit
  /// solve (I - W^T D)^{-1} by the identity. Exact gradients need an O(p^3)
  /// LU per activation pattern (about one per sample), which is prohibitive for the conv-sized latents (p ~ 800)
  /// on this single-core substrate; JFB trains DEQs well in practice and is
  /// used for the conv models only (see DESIGN.md substitution 2).
  bool JacobianFree = false;
};

/// Per-epoch training diagnostics.
struct TrainStats {
  std::vector<double> EpochLoss;
  double FinalTrainAccuracy = 0.0;
};

/// Trains \p Model in place with minibatch SGD and cross-entropy loss.
TrainStats trainMonDeq(MonDeq &Model, const Dataset &Train,
                       const TrainOptions &Opts);

/// Fraction of samples in \p Data classified correctly.
double evaluateAccuracy(const MonDeq &Model, const Dataset &Data);

/// The adjoint system (I - W^T D) Lambda = DeltaZ of the implicit function
/// theorem, for one weight matrix W and a diagonal activation derivative D
/// per solve. It keeps the LU factorization of the last D it was given and
/// factorizes again only when a solve's D differs from that one bitwise; a
/// kept factorization solves bitwise as a fresh one would. Holds a
/// reference to W, which must outlive it and must not change while it is
/// in use (training builds one per batch, the PGD attack one per restart).
class AdjointSolver {
public:
  explicit AdjointSolver(const Matrix &W) : W(W) {}

  /// Solves (I - W^T diag(\p D)) Lambda = \p DeltaZ.
  Vector solve(const Vector &D, const Vector &DeltaZ);

  const Matrix &weight() const { return W; }
  /// LU factorizations run so far: solves minus reuses.
  uint64_t factorizations() const { return Factorizations; }

private:
  const Matrix &W;
  Vector LastD; ///< The D behind Lu.
  std::optional<LuDecomposition> Lu;
  uint64_t Factorizations = 0;
};

/// Tolerance and iteration cap of the fixpoint solve behind the
/// solver-taking \ref inputGradient.
inline constexpr double InputGradientTol = 1e-8;
inline constexpr int InputGradientMaxIter = 500;

/// Gradient of the scalar OutCoef^T y(x) with respect to the input x,
/// computed via the implicit function theorem at the fixpoint for \p X.
/// \p Solver must be a PR solver for \p Model (reused across calls for its
/// cached factorization); it solves to InputGradientTol within
/// InputGradientMaxIter iterations. \p NeumannTerms < 0 solves the adjoint
/// system exactly by LU: through \p Adjoint (bound to \p Model's W), which
/// factorizes only when the activation pattern changes, or, without one,
/// with one fresh O(p^3) factorization. Otherwise the inverse is
/// approximated by that many CGNE iterations (cheap matvecs; adequate for
/// attack gradients on the conv-sized latents) and \p Adjoint is unused.
Vector inputGradient(const MonDeq &Model, const FixpointSolver &Solver,
                     const Vector &X, const Vector &OutCoef,
                     int NeumannTerms = -1, AdjointSolver *Adjoint = nullptr);

/// The same gradient at a fixpoint estimate \p Z for an input x the caller
/// already solved for, given \p InputProduct = U x (the solve's \ref
/// FixpointResult::InputProduct), so one solve and one U x serve both the
/// gradient and the logits.
Vector inputGradient(const MonDeq &Model, const Vector &Z,
                     const Vector &InputProduct, const Vector &OutCoef,
                     int NeumannTerms = -1, AdjointSolver *Adjoint = nullptr);

} // namespace craft

#endif // CRAFT_NN_TRAINING_H

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
  /// solve (I - W^T D)^{-1} by the identity. Exact gradients need one O(p^3)
  /// LU per sample, which is prohibitive for the conv-sized latents (p ~ 800)
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

/// Tolerance and iteration cap of the fixpoint solve behind the
/// solver-taking \ref inputGradient.
inline constexpr double InputGradientTol = 1e-8;
inline constexpr int InputGradientMaxIter = 500;

/// Gradient of the scalar OutCoef^T y(x) with respect to the input x,
/// computed via the implicit function theorem at the fixpoint for \p X.
/// \p Solver must be a PR solver for \p Model (reused across calls for its
/// cached factorization); it solves to InputGradientTol within
/// InputGradientMaxIter iterations. \p NeumannTerms < 0 solves the adjoint
/// system exactly (one O(p^3) LU); otherwise the inverse is approximated
/// by that many CGNE iterations (cheap matvecs; adequate for attack
/// gradients on the conv-sized latents).
Vector inputGradient(const MonDeq &Model, const FixpointSolver &Solver,
                     const Vector &X, const Vector &OutCoef,
                     int NeumannTerms = -1);

/// The same gradient at a fixpoint estimate \p Z for \p X that the caller
/// already solved for (e.g. to share one solve between the gradient and
/// the logits).
Vector inputGradient(const MonDeq &Model, const Vector &X, const Vector &Z,
                     const Vector &OutCoef, int NeumannTerms = -1);

} // namespace craft

#endif // CRAFT_NN_TRAINING_H

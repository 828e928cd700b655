//===- nn/Solvers.cpp -----------------------------------------------------===//

#include "nn/Solvers.h"

#include "domains/Activations.h"
#include "linalg/Kernels.h"
#include "linalg/Workspace.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cmath>
#include <utility>

using namespace craft;

FixpointSolver::FixpointSolver(const MonDeq &Model, Splitting Method,
                               double Alpha)
    : Model(Model), Method(Method), Alpha(Alpha),
      UT(Model.weightU().transpose()) {
  if (this->Alpha <= 0.0) {
    if (Method == Splitting::ForwardBackward) {
      this->Alpha = 0.9 * Model.fbAlphaBound();
    } else {
      // PR converges for any a > 0; the rate-optimal choice for an
      // m-strongly-monotone, L-Lipschitz operator is a = 1/sqrt(m L)
      // (Ryu & Boyd 2016). L = ||I - W||_2 is recovered from the cached
      // FB bound 2m/L^2.
      double L = std::sqrt(2.0 * Model.monotonicity() /
                           Model.fbAlphaBound());
      this->Alpha = 1.0 / std::sqrt(Model.monotonicity() * L);
    }
  }
  if (Method == Splitting::PeacemanRachford) {
    const size_t P = Model.latentDim();
    Matrix M = Matrix::identity(P) +
               this->Alpha * (Matrix::identity(P) - Model.weightW());
    LuDecomposition Lu(M);
    assert(!Lu.isSingular() &&
           "I + a(I - W) is always invertible for monotone W");
    MInvT = Lu.inverse().transpose();
  }
}

namespace {

const telemetry::Histogram ConcreteIterationsHist =
    telemetry::histogramMetric("concrete.iterations");
const telemetry::Counter ConcreteInputProducts =
    telemetry::counterMetric("concrete.input_products");

/// Applies the splitting's resolvent to the pre-activation in place: ReLU
/// for the paper's main setting (prox is scaling-invariant), prox_{a f}
/// for the smooth App. B.6 activations.
void applyResolventInPlace(const MonDeq &Model, double Alpha, VectorView Pre) {
  switch (Model.activation()) {
  case ActivationKind::ReLU:
    for (size_t I = 0; I < Pre.size(); ++I)
      Pre[I] = std::max(Pre[I], 0.0);
    return;
  case ActivationKind::Sigmoid:
    for (size_t I = 0; I < Pre.size(); ++I)
      Pre[I] = proxActivation(SmoothActivation::Sigmoid, Alpha, Pre[I]);
    return;
  case ActivationKind::Tanh:
    for (size_t I = 0; I < Pre.size(); ++I)
      Pre[I] = proxActivation(SmoothActivation::Tanh, Alpha, Pre[I]);
    return;
  }
}

} // namespace

Vector FixpointSolver::inputProduct(const Vector &X) const {
  assert(X.size() == Model.inputDim() && "input size mismatch");
  Vector UX(Model.latentDim());
  kernels::gemvTransposed(UX, UT, X);
  ConcreteInputProducts.increment();
  return UX;
}

void FixpointSolver::inputDriveInto(VectorView Drive,
                                    ConstVectorView UX) const {
  // Bitwise gemv(Drive = b, U, x, 1, 1): acc * 1, then acc + 1 * b.
  const Vector &B = Model.biasZ();
  for (size_t I = 0; I < Drive.size(); ++I)
    Drive[I] = UX[I] + B[I];
  if (Method == Splitting::PeacemanRachford)
    kernels::scale(Drive, Alpha);
}

void FixpointSolver::fbStepInto(VectorView ZNext, ConstVectorView Drive,
                                ConstVectorView Z) const {
  // ReLU((1-a) z + a (W z + U x + b)).
  kernels::gemv(ZNext, Model.weightW(), Z);
  kernels::scale(ZNext, Alpha);
  kernels::axpy(ZNext, Alpha, Drive);
  kernels::axpy(ZNext, 1.0 - Alpha, Z);
  applyResolventInPlace(Model, Alpha, ZNext);
}

void FixpointSolver::prStepInto(VectorView ZNext, VectorView U,
                                ConstVectorView Drive,
                                ConstVectorView Z) const {
  // Eq. (9). The intermediates live in workspace scratch: the concrete
  // solver runs hundreds of iterations per forward pass (training, PGD,
  // prediction), so per-step temporaries dominated its heap traffic.
  const size_t P = Model.latentDim();
  WorkspaceScope WS;
  VectorView UHalf = WS.vector(P);
  VectorView Sum = WS.vector(P);
  for (size_t I = 0; I < P; ++I) {
    UHalf[I] = 2.0 * Z[I] - U[I];
    Sum[I] = UHalf[I] + Drive[I];
  }
  VectorView ZHalf = WS.vector(P);
  kernels::gemvTransposed(ZHalf, MInvT, Sum);
  for (size_t I = 0; I < P; ++I) {
    U[I] = 2.0 * ZHalf[I] - UHalf[I];
    ZNext[I] = U[I];
  }
  applyResolventInPlace(Model, Alpha, ZNext);
}

Vector FixpointSolver::fbStep(const Vector &X, const Vector &Z) const {
  WorkspaceScope WS;
  VectorView Drive = WS.vector(Model.latentDim());
  inputDriveInto(Drive, inputProduct(X));
  Vector ZNext(Model.latentDim());
  fbStepInto(ZNext, Drive, Z);
  return ZNext;
}

std::pair<Vector, Vector> FixpointSolver::prStep(const Vector &X,
                                                 const Vector &Z,
                                                 const Vector &U) const {
  WorkspaceScope WS;
  VectorView Drive = WS.vector(Model.latentDim());
  inputDriveInto(Drive, inputProduct(X));
  Vector ZNext(Model.latentDim());
  Vector UNext = U;
  prStepInto(ZNext, UNext, Drive, Z);
  return {std::move(ZNext), std::move(UNext)};
}

FixpointResult FixpointSolver::solve(const Vector &X, double Tol,
                                     int MaxIter) const {
  const size_t P = Model.latentDim();
  FixpointResult Res;
  Res.Z = Vector(P, 0.0);
  Res.U = Method == Splitting::PeacemanRachford ? Vector(P, 0.0) : Vector();
  solve(X, Res, Tol, MaxIter);
  return Res;
}

void FixpointSolver::solve(const Vector &X, FixpointResult &Res, double Tol,
                           int MaxIter) const {
  assert(X.size() == Model.inputDim() && "input size mismatch");
  if (Res.InputProduct.empty())
    Res.InputProduct = inputProduct(X);
  const int Start = Res.Iterations;
  // A run that stops at Tol stops at the first iterate whose residual is
  // below it, so an earlier looser stop that already meets Tol is where a
  // from-zero run at Tol stops too.
  Res.Converged = Res.Iterations > 0 && Res.Residual < Tol;
  if (!Res.Converged && Res.Iterations < MaxIter) {
    const size_t P = Model.latentDim();
    WorkspaceScope WS;
    VectorView Drive = WS.vector(P); // Constant across iterations.
    inputDriveInto(Drive, Res.InputProduct);
    Vector ZNext(P);
    for (int It = Res.Iterations; It < MaxIter; ++It) {
      if (Method == Splitting::ForwardBackward)
        fbStepInto(ZNext, Drive, Res.Z);
      else
        prStepInto(ZNext, Res.U, Drive, Res.Z);
      double Sq = 0.0; // ||z_n - z_{n-1}||_2, summed in index order.
      for (size_t I = 0; I < P; ++I) {
        const double D = ZNext[I] - Res.Z[I];
        Sq += D * D;
      }
      Res.Residual = std::sqrt(Sq);
      std::swap(Res.Z, ZNext);
      Res.Iterations = It + 1;
      if (Res.Residual < Tol) {
        Res.Converged = true;
        break;
      }
    }
  }
  ConcreteIterationsHist.observe(static_cast<uint64_t>(Res.Iterations - Start));
}

Vector FixpointSolver::logits(const Vector &X, double Tol) const {
  return Model.output(solve(X, Tol, DefaultSolveMaxIter).Z);
}

int FixpointSolver::predict(const Vector &X) const {
  Vector Y = logits(X);
  return static_cast<int>(std::max_element(Y.begin(), Y.end()) - Y.begin());
}

Vector craft::forwardLogits(const MonDeq &Model, const Vector &X, double Tol) {
  FixpointSolver Solver(Model, Splitting::PeacemanRachford);
  FixpointResult Res = Solver.solve(X, Tol);
  return Model.output(Res.Z);
}

int craft::predictClass(const MonDeq &Model, const Vector &X) {
  Vector Y = forwardLogits(Model, X);
  return static_cast<int>(
      std::max_element(Y.begin(), Y.end()) - Y.begin());
}

//===- core/AbstractSolver.cpp --------------------------------------------===//

#include "core/AbstractSolver.h"

#include "domains/Activations.h"

#include "linalg/Lu.h"

#include <cmath>

using namespace craft;

/// FB state matrix (1-a) I + a W.
static Matrix stateMatrixFb(const MonDeq &Model, double A) {
  const size_t P = Model.latentDim();
  Matrix S = A * Model.weightW();
  for (size_t I = 0; I < P; ++I)
    S(I, I) += 1.0 - A;
  return S;
}

AbstractSolver::AbstractSolver(const MonDeq &Model, Splitting Method,
                               double Alpha, const CHZonotope &InputAbs)
    : LatentDim(Model.latentDim()), Method(Method), Alpha(Alpha),
      Act(Model.activation()) {
  assert(InputAbs.dim() == Model.inputDim() && "input abstraction dimension");
  const size_t P = LatentDim;
  if (this->Alpha <= 0.0)
    this->Alpha = FixpointSolver(Model, Method, -1.0).alpha();
  const double A = this->Alpha;

  Matrix InputMatrix; // p x q.
  if (Method == Splitting::ForwardBackward) {
    // s' = ReLU(((1-a) I + a W) s + a U x + a b).
    StateMatrix = stateMatrixFb(Model, A);
    InputMatrix = A * Model.weightU();
    Offset = A * Model.biasZ();
  } else {
    // u_next = T (2 z - u) + 2 a M^{-1} (U x + b), T = 2 M^{-1} - I,
    // applied to s = [z; u] as the row block [2T, -T].
    Matrix M = Matrix::identity(P) +
               A * (Matrix::identity(P) - Model.weightW());
    Matrix MInv = LuDecomposition(M).inverse();
    Matrix T = 2.0 * MInv - Matrix::identity(P);
    StateMatrix = Matrix(P, 2 * P);
    for (size_t I = 0; I < P; ++I)
      for (size_t J = 0; J < P; ++J) {
        StateMatrix(I, J) = 2.0 * T(I, J);
        StateMatrix(I, P + J) = -T(I, J);
      }
    InputMatrix = (2.0 * A) * (MInv * Model.weightU());
    Offset = (2.0 * A) * (MInv * Model.biasZ());
  }

  // Map the input region into the p pre-activation rows once; every step
  // reuses it with shared ids (see file comment).
  InputContrib = InputAbs.affine(InputMatrix, Vector(P, 0.0));
  InputContribIv =
      InputAbs.intervalHull().affine(InputMatrix, Vector(P, 0.0));
}

CHZonotope AbstractSolver::initialState(const Vector &ZStar) const {
  assert(ZStar.size() == LatentDim && "fixpoint dimension mismatch");
  if (Method == Splitting::ForwardBackward)
    return CHZonotope::point(ZStar);
  Vector S(2 * LatentDim);
  for (size_t I = 0; I < LatentDim; ++I) {
    S[I] = ZStar[I];
    S[LatentDim + I] = ZStar[I];
  }
  return CHZonotope::point(S);
}

IntervalVector AbstractSolver::initialStateInterval(const Vector &ZStar) const {
  if (Method == Splitting::ForwardBackward)
    return IntervalVector::point(ZStar);
  Vector S(2 * LatentDim);
  for (size_t I = 0; I < LatentDim; ++I) {
    S[I] = ZStar[I];
    S[LatentDim + I] = ZStar[I];
  }
  return IntervalVector::point(S);
}

CHZonotope AbstractSolver::step(const CHZonotope &State, double LambdaScale,
                                bool AbsorbBox) const {
  assert(State.dim() == stateDim() && "state dimension mismatch");
  // The input contribution is already in pre-activation space: combine it
  // under the identity map (null matrix — shared-id merge is what matters
  // here, and materializing a p x p identity every iteration would put a
  // p^2 k multiply on the hot path for nothing).
  std::pair<const Matrix *, const CHZonotope *> Terms[] = {
      {&StateMatrix, &State}, {nullptr, &InputContrib}};
  // The only map here is the dense monDEQ state matrix: skip the density
  // probe so the gemm goes straight to the dense kernel.
  CHZonotope Pre = CHZonotope::linearCombine(
      Terms, Offset, BoxPolicy::CastToGenerators, kernels::DensityHint::Dense);
  // PR: s' = [ReLU(u_next); u_next]. Both halves are the one u_next, so
  // stacking it on itself is the image of the 2p-row map [2T, -T; 2T, -T]
  // bit for bit: same ids in the same order, and a column is zero in the
  // stack exactly when it is zero in u_next.
  if (Method == Splitting::PeacemanRachford)
    Pre = CHZonotope::stack(Pre, Pre);
  switch (Act) {
  case ActivationKind::ReLU:
    return std::move(Pre).reluPrefix(LatentDim, Vector(), AbsorbBox,
                                     LambdaScale);
  case ActivationKind::Sigmoid:
    // Lambda optimization is a ReLU-relaxation knob; smooth resolvents use
    // their own secant/tangent relaxation (App. B.6).
    return applyProxActivationPrefix(Pre, SmoothActivation::Sigmoid, Alpha,
                                     LatentDim);
  case ActivationKind::Tanh:
    return applyProxActivationPrefix(Pre, SmoothActivation::Tanh, Alpha,
                                     LatentDim);
  }
  return Pre;
}

IntervalVector AbstractSolver::stepInterval(const IntervalVector &State) const {
  IntervalVector Pre = State.affine(StateMatrix, Offset) + InputContribIv;
  if (Method == Splitting::PeacemanRachford)
    Pre = IntervalVector::stack(Pre, Pre);
  if (Act == ActivationKind::ReLU)
    return Pre.reluPrefix(LatentDim);
  // Smooth resolvents are monotone: endpoint images are exact bounds.
  SmoothActivation SA = Act == ActivationKind::Sigmoid
                            ? SmoothActivation::Sigmoid
                            : SmoothActivation::Tanh;
  Vector Lo = Pre.lowerBounds(), Hi = Pre.upperBounds();
  for (size_t I = 0; I < LatentDim; ++I) {
    Lo[I] = proxActivation(SA, Alpha, Lo[I]);
    Hi[I] = proxActivation(SA, Alpha, Hi[I]);
  }
  return IntervalVector::fromBounds(Lo, Hi);
}

CHZonotope AbstractSolver::zPart(const CHZonotope &State) const {
  if (Method == Splitting::ForwardBackward)
    return State;
  return State.slice(0, LatentDim);
}

IntervalVector AbstractSolver::zPartInterval(const IntervalVector &State) const {
  if (Method == Splitting::ForwardBackward)
    return State;
  return State.slice(0, LatentDim);
}

void craft::classificationMarginSystem(const MonDeq &Model, int TargetClass,
                                       Matrix &D, Vector &Off) {
  const size_t R = Model.outputDim();
  const size_t P = Model.latentDim();
  assert(R >= 2 && "classification margins need at least two classes; "
                   "encode scalar-score models with two logits");
  assert(TargetClass >= 0 && static_cast<size_t>(TargetClass) < R &&
         "target class out of range");
  D = Matrix(R - 1, P);
  Off = Vector(R - 1);
  size_t Row = 0;
  for (size_t I = 0; I < R; ++I) {
    if (static_cast<int>(I) == TargetClass)
      continue;
    for (size_t J = 0; J < P; ++J)
      D(Row, J) = Model.weightV()(TargetClass, J) - Model.weightV()(I, J);
    Off[Row] = Model.biasY()[TargetClass] - Model.biasY()[I];
    ++Row;
  }
}

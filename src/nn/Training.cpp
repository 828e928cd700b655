//===- nn/Training.cpp ----------------------------------------------------===//

#include "nn/Training.h"

#include "domains/Activations.h"

#include "linalg/Kernels.h"
#include "linalg/Lu.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>

using namespace craft;

namespace {

/// Softmax probabilities of logits \p Y (numerically stabilized).
Vector softmax(const Vector &Y) {
  double Max = -1e300;
  for (double V : Y)
    Max = std::max(Max, V);
  Vector P(Y.size());
  double Sum = 0.0;
  for (size_t I = 0; I < Y.size(); ++I) {
    P[I] = std::exp(Y[I] - Max);
    Sum += P[I];
  }
  for (double &V : P)
    V /= Sum;
  return P;
}

/// M^T V through the transposed-product kernel: no copy of M^T, and
/// bitwise the product with the explicit transpose.
Vector transposeTimes(const Matrix &M, const Vector &V) {
  Vector Out(M.cols());
  kernels::gemvTransposed(Out, M, V);
  return Out;
}

/// Adds the rank-1 update Scale * U V^T to \p Acc.
void addOuter(Matrix &Acc, const Vector &U, const Vector &V,
              double Scale = 1.0) {
  for (size_t I = 0; I < U.size(); ++I) {
    double Ui = Scale * U[I];
    if (Ui == 0.0)
      continue;
    double *Row = Acc.rowData(I);
    for (size_t J = 0; J < V.size(); ++J)
      Row[J] += Ui * V[J];
  }
}

/// Per-dimension activation derivative at the pre-activation (the diagonal
/// D of the implicit-function linearization): the ReLU active-set
/// indicator, or sigma' for the smooth App. B.6 activations.
Vector activationDerivativeAt(const MonDeq &Model, const Vector &Pre) {
  Vector D(Pre.size());
  switch (Model.activation()) {
  case ActivationKind::ReLU:
    for (size_t I = 0; I < Pre.size(); ++I)
      D[I] = Pre[I] > 0.0 ? 1.0 : 0.0;
    return D;
  case ActivationKind::Sigmoid:
    for (size_t I = 0; I < Pre.size(); ++I)
      D[I] = evalActivationDerivative(SmoothActivation::Sigmoid, Pre[I]);
    return D;
  case ActivationKind::Tanh:
    for (size_t I = 0; I < Pre.size(); ++I)
      D[I] = evalActivationDerivative(SmoothActivation::Tanh, Pre[I]);
    return D;
  }
  return D;
}

} // namespace

Vector AdjointSolver::solve(const Vector &D, const Vector &DeltaZ) {
  const size_t P = W.rows();
  assert(D.size() == P && DeltaZ.size() == P);
  if (!Lu || std::memcmp(LastD.data(), D.data(), P * sizeof(double)) != 0) {
    Matrix A = Matrix::identity(P);
    for (size_t I = 0; I < P; ++I)
      for (size_t J = 0; J < P; ++J)
        if (D[J] != 0.0)
          A(I, J) -= W(J, I) * D[J]; // (W^T D)_{ij} = W_{ji} D_j.
    Lu.emplace(A);
    assert(!Lu->isSingular() &&
           "adjoint system singular despite monotonicity");
    LastD = D;
    ++Factorizations;
  }
  return Lu->solve(DeltaZ);
}

namespace {

/// Adam optimizer state for one parameter tensor. Plain SGD is unusable for
/// monDEQs: the fixpoint scales like 1/m, so raw gradient magnitudes differ
/// by orders between V and U; Adam's per-coordinate normalization absorbs
/// that (the original artifact trains with Adam-family optimizers too).
class AdamParam {
public:
  AdamParam(size_t Rows, size_t Cols)
      : M1(Rows, Cols, 0.0), M2(Rows, Cols, 0.0) {}

  /// Returns the update to add to the parameter for gradient \p Grad.
  Matrix step(const Matrix &Grad, double Lr, int T) {
    constexpr double B1 = 0.9, B2 = 0.999, Eps = 1e-8;
    Matrix Update(Grad.rows(), Grad.cols());
    double C1 = 1.0 - std::pow(B1, T), C2 = 1.0 - std::pow(B2, T);
    for (size_t R = 0; R < Grad.rows(); ++R)
      for (size_t C = 0; C < Grad.cols(); ++C) {
        double G = Grad(R, C);
        M1(R, C) = B1 * M1(R, C) + (1.0 - B1) * G;
        M2(R, C) = B2 * M2(R, C) + (1.0 - B2) * G * G;
        double MHat = M1(R, C) / C1;
        double VHat = M2(R, C) / C2;
        Update(R, C) = -Lr * MHat / (std::sqrt(VHat) + Eps);
      }
    return Update;
  }

private:
  Matrix M1, M2;
};

/// Wraps a vector gradient as a 1-column matrix for AdamParam.
Matrix asColumn(const Vector &V) {
  Matrix M(V.size(), 1);
  for (size_t I = 0; I < V.size(); ++I)
    M(I, 0) = V[I];
  return M;
}

Vector asVector(const Matrix &M) {
  Vector V(M.rows());
  for (size_t I = 0; I < M.rows(); ++I)
    V[I] = M(I, 0);
  return V;
}

} // namespace

TrainStats craft::trainMonDeq(MonDeq &Model, const Dataset &Train,
                              const TrainOptions &Opts) {
  assert(Model.hasRawParams() && "training needs the raw parametrization");
  assert(Train.size() > 0 && "empty training set");
  const size_t P = Model.latentDim();
  const size_t Q = Model.inputDim();
  const size_t R = Model.outputDim();

  Rng Rand(Opts.Seed);
  std::vector<int> Order(Train.size());
  std::iota(Order.begin(), Order.end(), 0);

  AdamParam AdamP(P, P), AdamQ(P, P), AdamU(P, Q), AdamV(R, P);
  AdamParam AdamBZ(P, 1), AdamBY(R, 1);
  int AdamT = 0;

  TrainStats Stats;
  for (int Epoch = 0; Epoch < Opts.Epochs; ++Epoch) {
    Rand.shuffle(Order);
    double EpochLoss = 0.0;

    for (size_t Start = 0; Start < Train.size(); Start += Opts.BatchSize) {
      size_t End = std::min(Train.size(), Start + Opts.BatchSize);
      size_t Batch = End - Start;

      // PR and adjoint solvers for the current weights (W changes after
      // every update).
      FixpointSolver Solver(Model, Splitting::PeacemanRachford);
      AdjointSolver Adjoint(Model.weightW());

      Matrix GradW(P, P), GradU(P, Q), GradV(R, P);
      Vector GradBZ(P), GradBY(R);

      for (size_t S = Start; S < End; ++S) {
        Vector X = Train.input(static_cast<size_t>(Order[S]));
        int Label = Train.Labels[static_cast<size_t>(Order[S])];

        FixpointResult Fix =
            Solver.solve(X, Opts.SolverTol, Opts.SolverMaxIter);
        const Vector &Z = Fix.Z;
        Vector Pre = Model.weightW() * Z + Fix.InputProduct + Model.biasZ();
        Vector DAct = activationDerivativeAt(Model, Pre);

        Vector Y = Model.output(Z);
        Vector Prob = softmax(Y);
        EpochLoss += -std::log(std::max(Prob[Label], 1e-12));

        Vector DY = Prob;
        DY[Label] -= 1.0;

        addOuter(GradV, DY, Z);
        GradBY += DY;

        Vector DeltaZ = transposeTimes(Model.weightV(), DY);
        Vector Lambda =
            Opts.JacobianFree ? DeltaZ : Adjoint.solve(DAct, DeltaZ);
        for (size_t I = 0; I < P; ++I)
          Lambda[I] *= DAct[I]; // u = D lambda.

        addOuter(GradW, Lambda, Z);
        addOuter(GradU, Lambda, X);
        GradBZ += Lambda;
      }

      // Chain GradW through W = (1-m)I - P^T P + Q - Q^T once per batch.
      Matrix GradWT = GradW.transpose();
      Matrix GradP = -1.0 * (Model.paramP() * (GradW + GradWT));
      Matrix GradQ = GradW - GradWT;

      double Inv = 1.0 / static_cast<double>(Batch);
      ++AdamT;
      Model.applyParamUpdate(
          AdamP.step(Inv * GradP, Opts.LearningRate, AdamT),
          AdamQ.step(Inv * GradQ, Opts.LearningRate, AdamT),
          AdamU.step(Inv * GradU, Opts.LearningRate, AdamT),
          asVector(AdamBZ.step(Inv * asColumn(GradBZ), Opts.LearningRate,
                               AdamT)),
          AdamV.step(Inv * GradV, Opts.LearningRate, AdamT),
          asVector(AdamBY.step(Inv * asColumn(GradBY), Opts.LearningRate,
                               AdamT)));
    }

    Stats.EpochLoss.push_back(EpochLoss / static_cast<double>(Train.size()));
    if (Opts.Verbose)
      std::printf("  epoch %d: loss %.4f\n", Epoch + 1,
                  Stats.EpochLoss.back());
  }

  Stats.FinalTrainAccuracy = evaluateAccuracy(Model, Train);
  return Stats;
}

double craft::evaluateAccuracy(const MonDeq &Model, const Dataset &Data) {
  if (Data.size() == 0)
    return 0.0;
  FixpointSolver Solver(Model, Splitting::PeacemanRachford);
  size_t Correct = 0;
  for (size_t I = 0; I < Data.size(); ++I)
    if (Solver.predict(Data.input(I)) == Data.Labels[I])
      ++Correct;
  return static_cast<double>(Correct) / static_cast<double>(Data.size());
}

Vector craft::inputGradient(const MonDeq &Model, const FixpointSolver &Solver,
                            const Vector &X, const Vector &OutCoef,
                            int NeumannTerms, AdjointSolver *Adjoint) {
  FixpointResult Fix = Solver.solve(X, InputGradientTol, InputGradientMaxIter);
  return inputGradient(Model, Fix.Z, Fix.InputProduct, OutCoef, NeumannTerms,
                       Adjoint);
}

Vector craft::inputGradient(const MonDeq &Model, const Vector &Z,
                            const Vector &InputProduct, const Vector &OutCoef,
                            int NeumannTerms, AdjointSolver *Adjoint) {
  const size_t P = Model.latentDim();
  assert(InputProduct.size() == P && "input product size mismatch");
  Vector Pre = Model.weightW() * Z + InputProduct + Model.biasZ();
  Vector DAct = activationDerivativeAt(Model, Pre);

  Vector DeltaZ = transposeTimes(Model.weightV(), OutCoef);
  Vector Lambda;
  if (NeumannTerms < 0) {
    assert((!Adjoint || &Adjoint->weight() == &Model.weightW()) &&
           "adjoint solver bound to another model");
    Lambda = Adjoint ? Adjoint->solve(DAct, DeltaZ)
                     : AdjointSolver(Model.weightW()).solve(DAct, DeltaZ);
  } else {
    // Iterative solve of A lambda = dz with A = I - W^T D via CG on the
    // normal equations (A^T A lambda = A^T dz). A plain Neumann series
    // diverges here because ||W|| ~ m for monDEQs; CGNE converges for any
    // nonsingular A at ~2 matvecs per iteration.
    auto ApplyA = [&](const Vector &V) {
      Vector Masked = V;
      for (size_t I = 0; I < P; ++I)
        Masked[I] *= DAct[I];
      return V - transposeTimes(Model.weightW(), Masked);
    };
    auto ApplyAT = [&](const Vector &V) {
      Vector WV = Model.weightW() * V;
      for (size_t I = 0; I < P; ++I)
        WV[I] *= DAct[I];
      return V - WV;
    };
    Lambda = Vector(P, 0.0);
    Vector Res = ApplyAT(DeltaZ); // A^T b - A^T A x0, x0 = 0.
    Vector Dir = Res;
    double RhoOld = dot(Res, Res);
    for (int K = 0; K < NeumannTerms && RhoOld > 1e-24; ++K) {
      Vector ADir = ApplyA(Dir);
      Vector AtADir = ApplyAT(ADir);
      double Denom = dot(Dir, AtADir);
      if (Denom <= 0.0)
        break;
      double Step = RhoOld / Denom;
      Lambda += Step * Dir;
      Res -= Step * AtADir;
      double RhoNew = dot(Res, Res);
      Dir = Res + (RhoNew / RhoOld) * Dir;
      RhoOld = RhoNew;
    }
  }
  for (size_t I = 0; I < P; ++I)
    Lambda[I] *= DAct[I];
  return transposeTimes(Model.weightU(), Lambda);
}

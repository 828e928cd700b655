//===- nn/MonDeq.cpp ------------------------------------------------------===//

#include "nn/MonDeq.h"

#include "domains/Activations.h"
#include "linalg/Eig.h"
#include "linalg/Kernels.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>

using namespace craft;

MonDeq::MonDeq(double Monotonicity, Matrix P, Matrix Q, Matrix U, Vector BiasZ,
               Matrix V, Vector BiasY)
    : M(Monotonicity), P(std::move(P)), Q(std::move(Q)), U(std::move(U)),
      BZ(std::move(BiasZ)), V(std::move(V)), BY(std::move(BiasY)) {
  assert(Monotonicity > 0.0 && "monotonicity parameter must be positive");
  rebuildW();
  assert(this->U.rows() == W.rows() && "U row count must match latent dim");
  assert(this->BZ.size() == W.rows() && "bias size must match latent dim");
  assert(this->V.cols() == W.rows() && "V column count must match latent dim");
}

MonDeq MonDeq::fromW(double Monotonicity, Matrix W, Matrix U, Vector BiasZ,
                     Matrix V, Vector BiasY) {
  MonDeq Model;
  Model.M = Monotonicity;
  Model.W = std::move(W);
  Model.U = std::move(U);
  Model.BZ = std::move(BiasZ);
  Model.V = std::move(V);
  Model.BY = std::move(BiasY);
  assert(Model.W.rows() == Model.W.cols() && "W must be square");
  return Model;
}

void MonDeq::rebuildW() {
  const size_t N = P.rows();
  assert(P.rows() == P.cols() && Q.rows() == Q.cols() && P.rows() == Q.rows() &&
         "P and Q must be square and equally sized");
  W = (1.0 - M) * Matrix::identity(N) - P.transpose() * P + Q - Q.transpose();
  CachedAlphaBound = -1.0;
}

MonDeq MonDeq::randomFc(Rng &R, size_t InputDim, size_t LatentDim,
                        size_t NumClasses, double M) {
  auto Gaussian = [&R](size_t Rows, size_t Cols, double Scale) {
    Matrix Out(Rows, Cols);
    for (size_t I = 0; I < Rows; ++I)
      for (size_t J = 0; J < Cols; ++J)
        Out(I, J) = R.gaussian(0.0, Scale);
    return Out;
  };
  double LatentScale = 1.0 / std::sqrt(static_cast<double>(LatentDim));
  double InputScale = 1.0 / std::sqrt(static_cast<double>(InputDim));
  return MonDeq(M, Gaussian(LatentDim, LatentDim, LatentScale),
                Gaussian(LatentDim, LatentDim, LatentScale),
                Gaussian(LatentDim, InputDim, InputScale), Vector(LatentDim),
                Gaussian(NumClasses, LatentDim, LatentScale),
                Vector(NumClasses));
}

MonDeq MonDeq::randomConv(Rng &R, size_t Channels, size_t Height, size_t Width,
                          size_t OutChannels, size_t Kernel, size_t Stride,
                          size_t NumClasses, double M) {
  assert(Height >= Kernel && Width >= Kernel && "kernel larger than image");
  // Valid (unpadded) strided convolution output extent.
  const size_t OutH = (Height - Kernel) / Stride + 1;
  const size_t OutW = (Width - Kernel) / Stride + 1;
  const size_t LatentDim = OutChannels * OutH * OutW;
  const size_t InputDim = Channels * Height * Width;

  // U: strided conv lowered to a dense matrix with the conv sparsity
  // pattern and shared-ish statistics (weights are drawn independently per
  // tap here; the verifier only sees the lowered matrix either way).
  Matrix U(LatentDim, InputDim, 0.0);
  double KScale = 1.0 / std::sqrt(static_cast<double>(Kernel * Kernel *
                                                      Channels));
  for (size_t Oc = 0; Oc < OutChannels; ++Oc)
    for (size_t Oy = 0; Oy < OutH; ++Oy)
      for (size_t Ox = 0; Ox < OutW; ++Ox) {
        size_t Row = (Oc * OutH + Oy) * OutW + Ox;
        for (size_t Ic = 0; Ic < Channels; ++Ic)
          for (size_t Ky = 0; Ky < Kernel; ++Ky)
            for (size_t Kx = 0; Kx < Kernel; ++Kx) {
              size_t Iy = Oy * Stride + Ky;
              size_t Ix = Ox * Stride + Kx;
              if (Iy >= Height || Ix >= Width)
                continue;
              size_t Col = (Ic * Height + Iy) * Width + Ix;
              U(Row, Col) = R.gaussian(0.0, KScale);
            }
      }

  auto Gaussian = [&R](size_t Rows, size_t Cols, double Scale) {
    Matrix Out(Rows, Cols);
    for (size_t I = 0; I < Rows; ++I)
      for (size_t J = 0; J < Cols; ++J)
        Out(I, J) = R.gaussian(0.0, Scale);
    return Out;
  };
  double LatentScale = 1.0 / std::sqrt(static_cast<double>(LatentDim));
  return MonDeq(M, Gaussian(LatentDim, LatentDim, LatentScale),
                Gaussian(LatentDim, LatentDim, LatentScale), std::move(U),
                Vector(LatentDim),
                Gaussian(NumClasses, LatentDim, LatentScale),
                Vector(NumClasses));
}

void MonDeq::applyParamUpdate(const Matrix &DeltaP, const Matrix &DeltaQ,
                              const Matrix &DeltaU, const Vector &DeltaBZ,
                              const Matrix &DeltaV, const Vector &DeltaBY) {
  assert(hasRawParams() && "cannot train a fromW model");
  P += DeltaP;
  Q += DeltaQ;
  U += DeltaU;
  BZ += DeltaBZ;
  V += DeltaV;
  BY += DeltaBY;
  rebuildW();
}

const char *craft::activationName(ActivationKind Act) {
  switch (Act) {
  case ActivationKind::ReLU:
    return "relu";
  case ActivationKind::Sigmoid:
    return "sigmoid";
  case ActivationKind::Tanh:
    return "tanh";
  }
  return "unknown";
}

Vector MonDeq::iterateF(const Vector &X, const Vector &Z) const {
  // W z + U x + b via destination-passing kernels: one allocation. U is a
  // lowered convolution for the conv models — structurally sparse — but
  // gemv has no zero-skip either way; the dense row walk wins on a vector.
  Vector Pre(latentDim());
  kernels::gemv(Pre, W, Z);
  kernels::gemv(Pre, U, X, 1.0, 1.0);
  kernels::axpy(Pre, 1.0, BZ);
  switch (Act) {
  case ActivationKind::ReLU:
    for (double &V : Pre)
      V = std::max(V, 0.0);
    return Pre;
  case ActivationKind::Sigmoid:
    for (double &V : Pre)
      V = evalActivation(SmoothActivation::Sigmoid, V);
    return Pre;
  case ActivationKind::Tanh:
    for (double &V : Pre)
      V = evalActivation(SmoothActivation::Tanh, V);
    return Pre;
  }
  return Pre;
}

double MonDeq::fbAlphaBound() const {
  if (CachedAlphaBound < 0.0) {
    double Norm = spectralNorm(Matrix::identity(W.rows()) - W);
    CachedAlphaBound = 2.0 * M / (Norm * Norm);
  }
  return CachedAlphaBound;
}

//===----------------------------------------------------------------------===//
// Serialization
//===----------------------------------------------------------------------===//

namespace {
constexpr uint32_t FileMagic = 0x43524654; // "CRFT"
// Version 2 appends the activation byte; version-1 files load as ReLU.
constexpr uint32_t FileVersion = 2;

bool writeMatrix(std::FILE *F, const Matrix &M) {
  uint64_t Dims[2] = {M.rows(), M.cols()};
  if (std::fwrite(Dims, sizeof(Dims), 1, F) != 1)
    return false;
  for (size_t R = 0; R < M.rows(); ++R)
    if (M.cols() > 0 &&
        std::fwrite(M.rowData(R), sizeof(double), M.cols(), F) != M.cols())
      return false;
  return true;
}

/// Doubles that fit in the bytes \p F has left of its \p FileSize. The
/// readers bound every size from the file by it before allocating, so a
/// corrupt header cannot size an allocation the file cannot fill.
uint64_t doublesLeft(std::FILE *F, uint64_t FileSize) {
  long Pos = std::ftell(F);
  if (Pos < 0 || static_cast<uint64_t>(Pos) > FileSize)
    return 0;
  return (FileSize - static_cast<uint64_t>(Pos)) / sizeof(double);
}

bool readMatrix(std::FILE *F, uint64_t FileSize, Matrix &M) {
  uint64_t Dims[2] = {0, 0};
  if (std::fread(Dims, sizeof(Dims), 1, F) != 1 ||
      (Dims[0] != 0 && Dims[1] > doublesLeft(F, FileSize) / Dims[0]))
    return false;
  M = Matrix(Dims[0], Dims[1]);
  const size_t N = M.rows() * M.cols();
  return N == 0 || std::fread(M.rowData(0), sizeof(double), N, F) == N;
}

bool writeVector(std::FILE *F, const Vector &V) {
  uint64_t N = V.size();
  if (std::fwrite(&N, sizeof(N), 1, F) != 1)
    return false;
  return V.empty() || std::fwrite(V.data(), sizeof(double), N, F) == N;
}

bool readVector(std::FILE *F, uint64_t FileSize, Vector &V) {
  uint64_t N = 0;
  if (std::fread(&N, sizeof(N), 1, F) != 1 || N > doublesLeft(F, FileSize))
    return false;
  V = Vector(N);
  return V.empty() || std::fread(V.data(), sizeof(double), N, F) == N;
}

/// The shapes and monotonicity a loaded model must have: W p x p, U p x q,
/// b_z of length p, V r x p, b_y of length r with p, q, r >= 1; P and Q
/// p x p or both empty; m finite and positive.
bool wellFormed(double M, const Matrix &P, const Matrix &Q, const Matrix &W,
                const Matrix &U, const Vector &BZ, const Matrix &V,
                const Vector &BY) {
  const size_t Latent = W.rows();
  auto IsLatentSquare = [&](const Matrix &A) {
    return A.rows() == Latent && A.cols() == Latent;
  };
  auto IsEmpty = [](const Matrix &A) { return A.rows() == 0 && A.cols() == 0; };
  return std::isfinite(M) && M > 0.0 && Latent > 0 && IsLatentSquare(W) &&
         U.rows() == Latent && U.cols() > 0 && BZ.size() == Latent &&
         V.rows() > 0 && V.cols() == Latent && BY.size() == V.rows() &&
         ((IsLatentSquare(P) && IsLatentSquare(Q)) ||
          (IsEmpty(P) && IsEmpty(Q)));
}
} // namespace

bool MonDeq::save(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return false;
  uint8_t ActByte = static_cast<uint8_t>(Act);
  bool Ok = std::fwrite(&FileMagic, sizeof(FileMagic), 1, F) == 1 &&
            std::fwrite(&FileVersion, sizeof(FileVersion), 1, F) == 1 &&
            std::fwrite(&M, sizeof(M), 1, F) == 1 &&
            std::fwrite(&ActByte, sizeof(ActByte), 1, F) == 1 &&
            writeMatrix(F, P) && writeMatrix(F, Q) && writeMatrix(F, W) &&
            writeMatrix(F, U) && writeVector(F, BZ) && writeMatrix(F, V) &&
            writeVector(F, BY);
  std::fclose(F);
  return Ok;
}

std::optional<MonDeq> MonDeq::load(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return std::nullopt;
  long End = -1;
  if (std::fseek(F, 0, SEEK_END) == 0)
    End = std::ftell(F);
  if (End < 0 || std::fseek(F, 0, SEEK_SET) != 0) {
    std::fclose(F);
    return std::nullopt;
  }
  const uint64_t Size = static_cast<uint64_t>(End);
  MonDeq Model;
  uint32_t Magic = 0, Version = 0;
  bool Ok = std::fread(&Magic, sizeof(Magic), 1, F) == 1 &&
            std::fread(&Version, sizeof(Version), 1, F) == 1 &&
            Magic == FileMagic && (Version == 1 || Version == FileVersion) &&
            std::fread(&Model.M, sizeof(Model.M), 1, F) == 1;
  if (Ok && Version >= 2) {
    uint8_t ActByte = 0;
    Ok = std::fread(&ActByte, sizeof(ActByte), 1, F) == 1 && ActByte <= 2;
    Model.Act = static_cast<ActivationKind>(ActByte);
  }
  Ok = Ok && readMatrix(F, Size, Model.P) && readMatrix(F, Size, Model.Q) &&
       readMatrix(F, Size, Model.W) && readMatrix(F, Size, Model.U) &&
       readVector(F, Size, Model.BZ) && readMatrix(F, Size, Model.V) &&
       readVector(F, Size, Model.BY);
  std::fclose(F);
  if (!Ok || !wellFormed(Model.M, Model.P, Model.Q, Model.W, Model.U,
                         Model.BZ, Model.V, Model.BY))
    return std::nullopt;
  return Model;
}

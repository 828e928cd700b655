//===- domains/OrderReduction.cpp -----------------------------------------===//

#include "domains/OrderReduction.h"

#include "linalg/Pca.h"
#include "linalg/Workspace.h"

#include <algorithm>

using namespace craft;

ConsolidationBasis::ConsolidationBasis(size_t Dim, int RefreshEvery)
    : Basis(Matrix::identity(Dim)), BasisInv(Matrix::identity(Dim)),
      RefreshEvery(RefreshEvery) {}

void ConsolidationBasis::refresh(const Matrix &Generators) {
  if (Counter > 0) {
    --Counter;
    return;
  }
  Basis = pcaBasis(Generators);
  BasisInv = Basis.transpose();
  Counter = RefreshEvery - 1;
}

ProperState craft::consolidateProper(const CHZonotope &Z,
                                     ConsolidationBasis &Basis, double WMul,
                                     double WAdd) {
  const size_t P = Z.dim();
  Basis.refresh(Z.generators());
  const Matrix &B = Basis.basis();
  const Matrix &BInv = Basis.basisInv();

  // Consolidation coefficients (Thm 4.1) with expansion (Eq. 10) and the
  // positivity floor that keeps the result proper.
  WorkspaceScope WS;
  VectorView C = WS.vector(P);
  absProductRowSums(C, BInv, Z.generators());
  for (size_t I = 0; I < P; ++I)
    C[I] = std::max((1.0 + WMul) * C[I] + WAdd, 1e-12);

  Matrix Gens(P, P);
  Matrix Inv(P, P);
  std::vector<uint64_t> Ids(P);
  for (size_t J = 0; J < P; ++J) {
    Ids[J] = freshErrorTermId();
    for (size_t R = 0; R < P; ++R) {
      Gens(R, J) = B(R, J) * C[J];
      Inv(J, R) = BInv(J, R) / C[J]; // (B diag(c))^{-1} = diag(1/c) B^T.
    }
  }
  ProperState Out;
  Out.Z = CHZonotope(Z.center(), std::move(Gens), std::move(Ids),
                     Z.boxRadius());
  Out.InvGens = std::move(Inv);
  return Out;
}

//===- domains/CHZonotope.cpp ---------------------------------------------===//

#include "domains/CHZonotope.h"

#include "linalg/Kernels.h"
#include "linalg/Workspace.h"

#include <algorithm>
#include <cmath>

using namespace craft;

namespace {

/// Open-addressing error-term-id -> column map with thread-reused storage:
/// the id alignment of linearCombine/stack/join runs every solver
/// iteration, and a per-call unordered_map costs a node allocation per
/// distinct id. Ids are minted starting at 1, so 0 is a free empty marker.
/// Only lookup speed depends on the table; insertion order (and with it
/// every output) is tracked by the caller, so results are identical to the
/// hash-map version. At most one instance may be live per thread at a time
/// (instances share the thread-local storage).
class IdColumnMap {
public:
  /// \p MaxEntries bounds the number of distinct ids inserted.
  explicit IdColumnMap(size_t MaxEntries) : Table(buffer()) {
    assert(!inUse() && "one live IdColumnMap per thread (shared storage)");
#ifndef NDEBUG
    inUse() = true;
#endif
    size_t Cap = 16;
    while (Cap < 2 * MaxEntries)
      Cap <<= 1;
    Mask = Cap - 1;
    // assign() reuses the thread-local capacity once warmed up.
    Table.assign(Cap, {0, 0});
  }

#ifndef NDEBUG
  ~IdColumnMap() { inUse() = false; }
#endif

  /// Inserts Id -> Col if absent; returns the id's column (\p Col when
  /// newly inserted).
  size_t emplace(uint64_t Id, size_t Col) {
    assert(Id != 0 && "error-term ids start at 1");
    size_t Slot = probe(Id);
    if (Table[Slot].first == Id)
      return Table[Slot].second;
    Table[Slot] = {Id, Col};
    return Col;
  }

  /// Column of a present id.
  size_t at(uint64_t Id) const {
    size_t Slot = probe(Id);
    assert(Table[Slot].first == Id && "id not present");
    return Table[Slot].second;
  }

  /// Column of \p Id, or SIZE_MAX when absent.
  size_t find(uint64_t Id) const {
    size_t Slot = probe(Id);
    return Table[Slot].first == Id ? Table[Slot].second : SIZE_MAX;
  }

private:
  size_t probe(uint64_t Id) const {
    size_t Slot = static_cast<size_t>(Id * 0x9E3779B97F4A7C15ULL) & Mask;
    while (Table[Slot].first != 0 && Table[Slot].first != Id)
      Slot = (Slot + 1) & Mask;
    return Slot;
  }

  static std::vector<std::pair<uint64_t, size_t>> &buffer() {
    static thread_local std::vector<std::pair<uint64_t, size_t>> TLS;
    return TLS;
  }

#ifndef NDEBUG
  static bool &inUse() {
    static thread_local bool Live = false;
    return Live;
  }
#endif

  std::vector<std::pair<uint64_t, size_t>> &Table;
  size_t Mask;
};

/// Output column of every operand generator column of one linearCombine
/// call, reused across calls like IdColumnMap's table (linearCombine is
/// its only user and does not nest).
std::vector<size_t> &generatorColumnBuffer() {
  static thread_local std::vector<size_t> TLS;
  return TLS;
}

} // namespace

// thread_local: fan-outs run independent analyses on whatever thread
// claims them, and a pool worker keeps its counter from one fan-out, and
// one query, to the next. Ids only need to be unique among zonotopes that
// are combined with each other. One analysis may run items of a helped section
// on other threads (core/Verifier.cpp): each item mints from its own range
// past the owner's counter, and the owner resumes past every range, so
// per-thread counters stay race-free, ids stay unique within the analysis,
// and each item's id stream is the same on any thread. Results depend only
// on which ids are equal and on their relative order, never on their
// values or on where a thread's counter stood when the analysis started
// (ConfigTest.ResultDoesNotDependOnErrorTermIdValues pins this).
static thread_local uint64_t ErrorTermCounter = 0;

uint64_t craft::freshErrorTermId() { return ++ErrorTermCounter; }
uint64_t craft::errorTermIdMark() { return ErrorTermCounter; }
void craft::setErrorTermIdMark(uint64_t Mark) { ErrorTermCounter = Mark; }

CHZonotope::CHZonotope(Vector Center, Matrix Generators,
                       std::vector<uint64_t> TermIds, Vector BoxRadius)
    : Center(std::move(Center)), Generators(std::move(Generators)),
      TermIds(std::move(TermIds)), BoxRadius(std::move(BoxRadius)) {
  assert(this->Generators.cols() == this->TermIds.size() &&
         "one id per generator column");
  assert((this->Generators.cols() == 0 ||
          this->Generators.rows() == this->Center.size()) &&
         "generator row count must match dimension");
  assert(this->BoxRadius.size() == this->Center.size() &&
         "box radius size mismatch");
}

CHZonotope CHZonotope::point(const Vector &Center) {
  return CHZonotope(Center, Matrix(Center.size(), 0), {},
                    Vector(Center.size(), 0.0));
}

CHZonotope CHZonotope::fromBox(const Vector &Lo, const Vector &Hi) {
  assert(Lo.size() == Hi.size() && "bounds size mismatch");
  const size_t P = Lo.size();
  Vector Center(P);
  std::vector<size_t> NonZero;
  for (size_t I = 0; I < P; ++I) {
    assert(Lo[I] <= Hi[I] && "empty box");
    Center[I] = 0.5 * (Lo[I] + Hi[I]);
    if (Hi[I] > Lo[I])
      NonZero.push_back(I);
  }
  Matrix Gens(P, NonZero.size());
  std::vector<uint64_t> Ids(NonZero.size());
  for (size_t J = 0; J < NonZero.size(); ++J) {
    size_t I = NonZero[J];
    Gens(I, J) = 0.5 * (Hi[I] - Lo[I]);
    Ids[J] = freshErrorTermId();
  }
  return CHZonotope(std::move(Center), std::move(Gens), std::move(Ids),
                    Vector(P, 0.0));
}

Vector CHZonotope::concretizationRadius() const {
  Vector R(dim());
  concretizationRadiusInto(R);
  return R;
}

void CHZonotope::concretizationRadiusInto(VectorView Out) const {
  assert(Out.size() == dim() && "radius output size mismatch");
  kernels::copyInto(Out, BoxRadius);
  if (Generators.cols() > 0)
    kernels::rowAbsSumsInto(Out, Generators, 1.0);
}

Vector CHZonotope::lowerBounds() const {
  return Center - concretizationRadius();
}

Vector CHZonotope::upperBounds() const {
  return Center + concretizationRadius();
}

IntervalVector CHZonotope::intervalHull() const {
  return IntervalVector(Center, concretizationRadius());
}

double CHZonotope::meanWidth() const {
  if (dim() == 0)
    return 0.0;
  Vector R = concretizationRadius();
  double Sum = 0.0;
  for (double V : R)
    Sum += 2.0 * V;
  return Sum / static_cast<double>(dim());
}

CHZonotope CHZonotope::affine(const Matrix &M, const Vector &T,
                              BoxPolicy Policy) const {
  const std::pair<const Matrix *, const CHZonotope *> Term{&M, this};
  return linearCombine({&Term, 1}, T, Policy);
}

/// True if generator column \p J is exactly zero.
static bool isZeroColumn(const Matrix &Gens, size_t J) {
  for (size_t R = 0, P = Gens.rows(); R < P; ++R)
    if (Gens(R, J) != 0.0)
      return false;
  return true;
}

/// Drops exactly-zero generator columns (an exact simplification; a zero
/// coefficient for an error term is semantically identical to its absence).
/// Allocation-free when nothing needs pruning — the common case on the
/// solver hot path.
static void pruneZeroColumns(Matrix &Gens, std::vector<uint64_t> &Ids) {
  const size_t P = Gens.rows(), K = Gens.cols();
  size_t Kept = 0;
  for (size_t J = 0; J < K; ++J)
    Kept += !isZeroColumn(Gens, J);
  if (Kept == K)
    return;
  Matrix NewGens(P, Kept);
  std::vector<uint64_t> NewIds(Kept);
  size_t Out = 0;
  for (size_t J = 0; J < K; ++J) {
    if (isZeroColumn(Gens, J))
      continue;
    NewIds[Out] = Ids[J];
    for (size_t R = 0; R < P; ++R)
      NewGens(R, Out) = Gens(R, J);
    ++Out;
  }
  Gens = std::move(NewGens);
  Ids = std::move(NewIds);
}

/// Out = M * G by column scaling when every column of \p G holds at most
/// one nonzero (a box's diagonal generators): column j is 0.0 + M(:, i) *
/// G(i, j), the exact sum kernels::gemm accumulates from +0.0, so the bytes
/// match — +0.0 included where the product is -0.0. Returns false, having
/// written nothing, at the first column that holds a second nonzero.
static bool scaleSingleNonzeroColumns(MatrixView Out, const Matrix &M,
                                      const Matrix &G) {
  const size_t P = G.rows(), K = G.cols();
  if (P == 0)
    return false;
  // Dense operands exit here, at column 0's second nonzero, before any
  // scratch is allocated.
  for (size_t R = 0, Nonzeros = 0; R < P; ++R)
    if (G(R, 0) != 0.0 && ++Nonzeros == 2)
      return false;
  // Entry j is column j's one nonzero; an empty column keeps {0, 0.0},
  // whose product is a zero the +0.0 start absorbs, as in the gemm.
  struct Entry {
    size_t Row = 0;
    double Value = 0.0;
  };
  std::vector<Entry> Entries(K);
  for (size_t R = 0; R < P; ++R)
    for (size_t J = 0; J < K; ++J) {
      if (G(R, J) == 0.0)
        continue;
      if (Entries[J].Value != 0.0)
        return false;
      Entries[J] = {R, G(R, J)};
    }
  for (size_t R = 0, POut = M.rows(); R < POut; ++R) {
    double *OutRow = Out.row(R);
    for (size_t J = 0; J < K; ++J)
      OutRow[J] = 0.0 + M(R, Entries[J].Row) * Entries[J].Value;
  }
  return true;
}

/// Appends the cast Box columns of one term — column B_i * M(:, i) per
/// nonzero Box entry, with a fresh id — starting at \p NextBoxCol.
/// \p M == nullptr is the identity map (a single entry at row i).
static void castBoxColumns(Matrix &Gens, std::vector<uint64_t> &OutIds,
                           size_t &NextBoxCol, const Matrix *M,
                           const CHZonotope &Z) {
  const size_t POut = Gens.rows();
  for (size_t I = 0, P = Z.dim(); I < P; ++I) {
    double B = Z.boxRadius()[I];
    if (B <= 0.0)
      continue;
    if (M) {
      for (size_t R = 0; R < POut; ++R)
        Gens(R, NextBoxCol) = B * (*M)(R, I);
    } else {
      Gens(I, NextBoxCol) = B;
    }
    OutIds.push_back(freshErrorTermId());
    ++NextBoxCol;
  }
}

/// Gens(:, Cols[j]) += Src(:, j) for every column j of \p Src, row by row
/// over Src's contiguous rows. Each element still receives one addition
/// per column, in ascending j, as a column-at-a-time scatter would give
/// it. Columns that land on one ascending run of output columns (the
/// solver step's input term) add each row segment with one axpy, whose
/// y + 1.0 * x is the same y + x.
static void addColumns(MatrixView Gens, ConstMatrixView Src,
                       std::span<const size_t> Cols) {
  const size_t K = Src.cols();
  bool OneRun = true;
  for (size_t J = 1; J < K && OneRun; ++J)
    OneRun = Cols[J] == Cols[0] + J;
  for (size_t R = 0, P = Src.rows(); R < P; ++R) {
    const double *SrcRow = Src.row(R);
    double *DstRow = Gens.row(R);
    if (OneRun) {
      kernels::axpy(VectorView(DstRow + Cols[0], K), 1.0,
                    ConstVectorView(SrcRow, K));
      continue;
    }
    for (size_t J = 0; J < K; ++J)
      DstRow[Cols[J]] += SrcRow[J];
  }
}

CHZonotope CHZonotope::linearCombine(
    std::span<const std::pair<const Matrix *, const CHZonotope *>> Terms,
    const Vector &Offset, BoxPolicy Policy, kernels::DensityHint Hint) {
  assert(!Terms.empty() && "linearCombine needs at least one term");
  const size_t POut = Terms.front().first ? Terms.front().first->rows()
                                          : Terms.front().second->dim();
#ifndef NDEBUG
  for (const auto &[M, Z] : Terms) {
    assert((!M || M->rows() == POut) && "output dimension mismatch");
    assert((M ? M->cols() : POut) == Z->dim() &&
           "matrix/operand dimension mismatch");
  }
#endif

  // Cast Box columns across all terms (paid only under CastToGenerators).
  size_t NumBoxCols = 0;
  if (Policy == BoxPolicy::CastToGenerators)
    for (const auto &[M, Z] : Terms) {
      (void)M;
      for (size_t I = 0, P = Z->dim(); I < P; ++I)
        if (Z->BoxRadius[I] > 0.0)
          ++NumBoxCols;
    }

  // Single-term fast path (every affine map lands here): output columns
  // are the operand's columns in order, so no id-to-column hashing is
  // needed and the generator product writes straight into the result.
  if (Terms.size() == 1) {
    const auto &[M, Z] = Terms.front();
    const size_t K = Z->numGenerators();
    Vector Center = Offset;
    Matrix Gens(POut, K + NumBoxCols);
    std::vector<uint64_t> OutIds;
    OutIds.reserve(K + NumBoxCols);
    OutIds.insert(OutIds.end(), Z->TermIds.begin(), Z->TermIds.end());
    Vector Box(POut, 0.0);
    MatrixView GensV(Gens);
    if (M) {
      kernels::gemv(Center, *M, Z->Center, 1.0, 1.0);
      // A box operand (one nonzero per generator column, e.g. the input
      // region every AbstractSolver maps) needs no gemm. Otherwise the map
      // is whatever the caller built — dense solver updates and
      // diagonal/selection maps both land here, so the caller's hint
      // (default: the kernel's density probe) picks the path.
      if (K > 0 &&
          !scaleSingleNonzeroColumns(GensV.colRange(0, K), *M, Z->Generators))
        kernels::gemmAuto(GensV.colRange(0, K), *M, Z->Generators, 1.0, 0.0,
                          Hint);
    } else {
      kernels::axpy(Center, 1.0, Z->Center);
      if (K > 0)
        kernels::copyInto(GensV.colRange(0, K), Z->Generators);
    }
    if (Policy == BoxPolicy::CastToGenerators) {
      size_t NextBoxCol = K;
      castBoxColumns(Gens, OutIds, NextBoxCol, M, *Z);
      assert(NextBoxCol == K + NumBoxCols && "box column miscount");
    } else if (M) {
      kernels::gemvAbs(Box, *M, Z->BoxRadius, 1.0, 1.0);
    } else {
      kernels::axpy(Box, 1.0, Z->BoxRadius);
    }
    pruneZeroColumns(Gens, OutIds);
    return CHZonotope(std::move(Center), std::move(Gens), std::move(OutIds),
                      std::move(Box));
  }

  // General path: assign output columns to distinct error-term ids in
  // first-occurrence order (for determinism), recording each operand
  // column's output column as it is assigned.
  size_t NumTermCols = 0;
  for (const auto &[M, Z] : Terms) {
    (void)M;
    NumTermCols += Z->numGenerators();
  }
  IdColumnMap ColumnOf(NumTermCols);
  std::vector<size_t> &ColumnOfGen = generatorColumnBuffer();
  ColumnOfGen.resize(NumTermCols);
  std::vector<uint64_t> OutIds;
  OutIds.reserve(NumTermCols + NumBoxCols);
  size_t Pos = 0;
  for (const auto &[M, Z] : Terms) {
    (void)M;
    for (uint64_t Id : Z->TermIds) {
      const size_t Col = ColumnOf.emplace(Id, OutIds.size());
      if (Col == OutIds.size())
        OutIds.push_back(Id);
      ColumnOfGen[Pos++] = Col;
    }
  }
  // A first term with distinct ids owns output columns [0, K) in its own
  // order (the first-occurrence rule), so its product needs no scatter.
  // Its last column lands at K - 1 exactly when every id before it was
  // new.
  const size_t FirstK = Terms.front().second->numGenerators();
  const bool FirstOwnsPrefix =
      FirstK > 0 && ColumnOfGen[FirstK - 1] == FirstK - 1;

  const size_t NumShared = OutIds.size();
  Matrix Gens(POut, NumShared + NumBoxCols);
  MatrixView GensV(Gens);
  Vector Center = Offset;
  Vector Box(POut, 0.0);
  size_t NextBoxCol = NumShared;

  WorkspaceScope WS;
  Pos = 0;
  for (size_t T = 0; T < Terms.size(); ++T) {
    const auto &[M, Z] = Terms[T];
    const size_t K = Z->numGenerators();
    if (M)
      kernels::gemv(Center, *M, Z->Center, 1.0, 1.0);
    else
      kernels::axpy(Center, 1.0, Z->Center);

    // Generator contribution. A mapped first term that owns the column
    // prefix is multiplied straight into it: the gemm sums from +0.0 and
    // never stores -0.0, so its y equals the 0.0 + y an add into the
    // zeroed result would leave. Every other term adds its (mapped)
    // columns into their id-mapped output columns. Structured maps
    // (diagonal/selection) are common here but dense combinations land
    // here too, so the caller's hint (default: the kernel's density probe)
    // picks the gemm path.
    if (K > 0) {
      if (T == 0 && M && FirstOwnsPrefix) {
        kernels::gemmAuto(GensV.colRange(0, K), *M, Z->Generators, 1.0, 0.0,
                          Hint);
      } else {
        ConstMatrixView Mapped = Z->Generators;
        if (M) {
          // Workspace scratch: amortized to zero heap traffic across
          // solver iterations.
          MatrixView Scratch = WS.matrix(POut, K);
          kernels::gemmAuto(Scratch, *M, Z->Generators, 1.0, 0.0, Hint);
          Mapped = Scratch;
        }
        addColumns(GensV, Mapped, {ColumnOfGen.data() + Pos, K});
      }
    }
    Pos += K;

    // Box contribution.
    if (Policy == BoxPolicy::CastToGenerators) {
      castBoxColumns(Gens, OutIds, NextBoxCol, M, *Z);
    } else if (M) {
      kernels::gemvAbs(Box, *M, Z->BoxRadius, 1.0, 1.0);
    } else {
      kernels::axpy(Box, 1.0, Z->BoxRadius);
    }
  }
  assert(NextBoxCol == NumShared + NumBoxCols && "box column miscount");

  pruneZeroColumns(Gens, OutIds);
  return CHZonotope(std::move(Center), std::move(Gens), std::move(OutIds),
                    std::move(Box));
}

CHZonotope CHZonotope::reluPrefix(size_t Count, const Vector &LambdaOverride,
                                  bool AbsorbIntoBox,
                                  double LambdaScale) const & {
  return CHZonotope(*this).reluPrefix(Count, LambdaOverride, AbsorbIntoBox,
                                      LambdaScale);
}

CHZonotope CHZonotope::reluPrefix(size_t Count, const Vector &LambdaOverride,
                                  bool AbsorbIntoBox, double LambdaScale) && {
  assert(Count <= dim() && "relu prefix out of range");
  assert((LambdaOverride.empty() || LambdaOverride.size() >= Count) &&
         "lambda override must cover all rectified dimensions");
  // Concretization bounds in workspace scratch: this runs once per solver
  // iteration and must not add heap traffic.
  WorkspaceScope WS;
  VectorView Radius = WS.vector(dim());
  concretizationRadiusInto(Radius);
  VectorView Lo = WS.vector(dim()), Hi = WS.vector(dim());
  for (size_t I = 0, P = dim(); I < P; ++I) {
    Lo[I] = Center[I] - Radius[I];
    Hi[I] = Center[I] + Radius[I];
  }

  // Fresh columns for the classic Zonotope transformer (one per unstable
  // dimension), appended at the end.
  std::vector<std::pair<size_t, double>> FreshCols;

  // Row I is rewritten in place: each update reads only row I's old
  // values, and the bounds above were taken before any update.
  for (size_t I = 0; I < Count; ++I) {
    double L = Lo[I], U = Hi[I];
    if (U <= 0.0) {
      // Definitely inactive: the dimension collapses to 0.
      Center[I] = 0.0;
      BoxRadius[I] = 0.0;
      for (size_t J = 0, K = Generators.cols(); J < K; ++J)
        Generators(I, J) = 0.0;
      continue;
    }
    if (L >= 0.0)
      continue; // Definitely active: identity.

    // Unstable: apply the lambda relaxation y in lambda*x + mu*(1 + eta).
    double LambdaMin = U / (U - L); // Minimal-area slope.
    double Lambda = std::clamp(LambdaScale * LambdaMin, 0.0, 1.0);
    if (!LambdaOverride.empty())
      Lambda = std::clamp(LambdaOverride[I], 0.0, 1.0);
    double Mu = Lambda <= LambdaMin ? 0.5 * (1.0 - Lambda) * U
                                    : -0.5 * Lambda * L;
    Center[I] = Lambda * Center[I] + Mu;
    for (size_t J = 0, K = Generators.cols(); J < K; ++J)
      Generators(I, J) *= Lambda;
    if (AbsorbIntoBox) {
      BoxRadius[I] = Lambda * BoxRadius[I] + Mu;
    } else {
      BoxRadius[I] = Lambda * BoxRadius[I];
      if (Mu > 0.0)
        FreshCols.push_back({I, Mu});
    }
  }

  if (!FreshCols.empty()) {
    Matrix Extra(dim(), FreshCols.size());
    for (size_t J = 0; J < FreshCols.size(); ++J) {
      Extra(FreshCols[J].first, J) = FreshCols[J].second;
      TermIds.push_back(freshErrorTermId());
    }
    Generators = Matrix::hcat(Generators, Extra);
  }
  return std::move(*this);
}

CHZonotope CHZonotope::consolidate(const Matrix &Basis, const Matrix &BasisInv,
                                   double WMul, double WAdd) const {
  const size_t P = dim();
  assert(Basis.rows() == P && Basis.cols() == P && "basis must be p x p");
  assert(BasisInv.rows() == P && BasisInv.cols() == P &&
         "basis inverse must be p x p");

  // Consolidation coefficients c = |Basis^{-1} A| 1 (Thm 4.1), with the
  // expansion of Eq. 10 applied on top.
  Vector C(P);
  absProductRowSums(C, BasisInv, Generators);
  for (size_t I = 0; I < P; ++I) {
    C[I] = (1.0 + WMul) * C[I] + WAdd;
    // Floor zero coefficients: enlarging a generator is sound, and a
    // strictly positive diag(c) keeps Basis * diag(c) invertible (proper).
    C[I] = std::max(C[I], 1e-12);
  }

  Matrix NewGens(P, P);
  std::vector<uint64_t> NewIds(P);
  for (size_t J = 0; J < P; ++J) {
    NewIds[J] = freshErrorTermId();
    for (size_t R = 0; R < P; ++R)
      NewGens(R, J) = Basis(R, J) * C[J];
  }
  return CHZonotope(Center, std::move(NewGens), std::move(NewIds), BoxRadius);
}

CHZonotope CHZonotope::boxCastToGenerators() const {
  const size_t P = dim();
  size_t NumBoxCols = 0;
  for (size_t I = 0; I < P; ++I)
    if (BoxRadius[I] > 0.0)
      ++NumBoxCols;
  if (NumBoxCols == 0)
    return *this;
  Matrix Extra(P, NumBoxCols);
  std::vector<uint64_t> Ids = TermIds;
  size_t Col = 0;
  for (size_t I = 0; I < P; ++I) {
    if (BoxRadius[I] <= 0.0)
      continue;
    Extra(I, Col++) = BoxRadius[I];
    Ids.push_back(freshErrorTermId());
  }
  return CHZonotope(Center, Matrix::hcat(Generators, Extra), std::move(Ids),
                    Vector(P, 0.0));
}

CHZonotope CHZonotope::slice(size_t First, size_t Count) const {
  assert(First + Count <= dim() && "slice out of range");
  Vector NewCenter(Count), NewBox(Count);
  Matrix NewGens(Count, numGenerators());
  for (size_t I = 0; I < Count; ++I) {
    NewCenter[I] = Center[First + I];
    NewBox[I] = BoxRadius[First + I];
    for (size_t J = 0, K = numGenerators(); J < K; ++J)
      NewGens(I, J) = Generators(First + I, J);
  }
  std::vector<uint64_t> NewIds = TermIds;
  pruneZeroColumns(NewGens, NewIds);
  return CHZonotope(std::move(NewCenter), std::move(NewGens),
                    std::move(NewIds), std::move(NewBox));
}

CHZonotope CHZonotope::stack(const CHZonotope &Top, const CHZonotope &Bottom) {
  const size_t PT = Top.dim(), PB = Bottom.dim();
  std::vector<uint64_t> Ids;
  Matrix Gens;
  if (Top.TermIds == Bottom.TermIds) {
    // Same ids in the same order (the PR step stacks u_next on itself):
    // ids are unique, so the merged columns are the operands' own and the
    // generator matrix is their two row blocks.
    Ids = Top.TermIds;
    Gens = Matrix(PT + PB, Ids.size());
    if (!Ids.empty()) {
      MatrixView GensV(Gens);
      kernels::copyInto(GensV.rowRange(0, PT), Top.Generators);
      kernels::copyInto(GensV.rowRange(PT, PB), Bottom.Generators);
    }
  } else {
    IdColumnMap ColumnOf(Top.TermIds.size() + Bottom.TermIds.size());
    Ids.reserve(Top.TermIds.size() + Bottom.TermIds.size());
    for (uint64_t Id : Top.TermIds)
      if (ColumnOf.emplace(Id, Ids.size()) == Ids.size())
        Ids.push_back(Id);
    for (uint64_t Id : Bottom.TermIds)
      if (ColumnOf.emplace(Id, Ids.size()) == Ids.size())
        Ids.push_back(Id);

    Gens = Matrix(PT + PB, Ids.size());
    for (size_t J = 0; J < Top.numGenerators(); ++J) {
      size_t Col = ColumnOf.at(Top.TermIds[J]);
      for (size_t R = 0; R < PT; ++R)
        Gens(R, Col) = Top.Generators(R, J);
    }
    for (size_t J = 0; J < Bottom.numGenerators(); ++J) {
      size_t Col = ColumnOf.at(Bottom.TermIds[J]);
      for (size_t R = 0; R < PB; ++R)
        Gens(PT + R, Col) = Bottom.Generators(R, J);
    }
  }

  Vector Center(PT + PB), Box(PT + PB);
  for (size_t I = 0; I < PT; ++I) {
    Center[I] = Top.Center[I];
    Box[I] = Top.BoxRadius[I];
  }
  for (size_t I = 0; I < PB; ++I) {
    Center[PT + I] = Bottom.Center[I];
    Box[PT + I] = Bottom.BoxRadius[I];
  }
  return CHZonotope(std::move(Center), std::move(Gens), std::move(Ids),
                    std::move(Box));
}

CHZonotope CHZonotope::withBoxRadius(Vector NewBox) && {
  assert(NewBox.size() == dim() && "box radius size mismatch");
  return CHZonotope(std::move(Center), std::move(Generators),
                    std::move(TermIds), std::move(NewBox));
}

CHZonotope CHZonotope::withTermIds(std::vector<uint64_t> NewIds) && {
  return CHZonotope(std::move(Center), std::move(Generators),
                    std::move(NewIds), std::move(BoxRadius));
}

CHZonotope CHZonotope::join(const CHZonotope &A, const CHZonotope &B) {
  assert(A.dim() == B.dim() && "join dimension mismatch");
  const size_t P = A.dim();

  // Shared error terms keep a column with the averaged coefficients.
  IdColumnMap BCol(B.numGenerators());
  for (size_t J = 0; J < B.numGenerators(); ++J)
    BCol.emplace(B.TermIds[J], J);

  std::vector<std::pair<size_t, size_t>> Shared; // (col in A, col in B)
  for (size_t J = 0; J < A.numGenerators(); ++J) {
    size_t Col = BCol.find(A.TermIds[J]);
    if (Col != SIZE_MAX)
      Shared.push_back({J, Col});
  }

  Vector Center = 0.5 * (A.Center + B.Center);
  Matrix Gens(P, Shared.size());
  std::vector<uint64_t> Ids(Shared.size());
  for (size_t S = 0; S < Shared.size(); ++S) {
    auto [JA, JB] = Shared[S];
    Ids[S] = A.TermIds[JA];
    for (size_t R = 0; R < P; ++R)
      Gens(R, S) = 0.5 * (A.Generators(R, JA) + B.Generators(R, JB));
  }

  // Residual per operand: per-dimension bound on (operand - joined zonotope)
  // choosing equal shared error values; the Box must cover the larger one.
  auto residual = [&](const CHZonotope &Z,
                      const std::vector<size_t> &SharedCols) -> Vector {
    Vector R = (Z.Center - Center).abs() + Z.BoxRadius;
    std::vector<bool> IsShared(Z.numGenerators(), false);
    for (size_t S = 0; S < Shared.size(); ++S) {
      size_t Col = SharedCols[S];
      IsShared[Col] = true;
      for (size_t I = 0; I < P; ++I)
        R[I] += std::fabs(Z.Generators(I, Col) - Gens(I, S));
    }
    for (size_t J = 0; J < Z.numGenerators(); ++J) {
      if (IsShared[J])
        continue;
      for (size_t I = 0; I < P; ++I)
        R[I] += std::fabs(Z.Generators(I, J));
    }
    return R;
  };

  std::vector<size_t> ACols(Shared.size()), BCols(Shared.size());
  for (size_t S = 0; S < Shared.size(); ++S) {
    ACols[S] = Shared[S].first;
    BCols[S] = Shared[S].second;
  }
  Vector Box = cwiseMax(residual(A, ACols), residual(B, BCols));
  pruneZeroColumns(Gens, Ids);
  return CHZonotope(std::move(Center), std::move(Gens), std::move(Ids),
                    std::move(Box));
}

/// True when the square matrix \p M has no nonzero off its diagonal. The
/// scan stops at the first off-diagonal nonzero.
static bool isDiagonal(const Matrix &M) {
  for (size_t I = 0, P = M.rows(); I < P; ++I)
    for (size_t J = 0; J < P; ++J)
      if (I != J && M(I, J) != 0.0)
        return false;
  return true;
}

void craft::absProductRowSums(VectorView Out, const Matrix &L,
                              const Matrix &R) {
  assert(L.rows() == L.cols() && L.cols() == R.rows() &&
         Out.size() == L.rows() && "absProductRowSums shape mismatch");
  const size_t P = R.rows(), K = R.cols();
  if (K == 0) {
    kernels::fill(Out, 0.0);
    return;
  }
  if (isDiagonal(L)) {
    for (size_t I = 0; I < P; ++I) {
      const double S = L(I, I);
      double Acc = 0.0;
      for (size_t J = 0; J < K; ++J)
        Acc = Acc + std::fabs(S * R(I, J));
      Out[I] = Acc;
    }
    return;
  }
  // The p x k product is workspace scratch: both callers run every few
  // Kleene iterations, and this temporary dominated their heap traffic.
  WorkspaceScope WS;
  MatrixView Mapped = WS.matrix(P, K);
  kernels::gemm(Mapped, L, R);
  kernels::rowAbsSumsInto(Out, Mapped);
}

ContainmentResult craft::containsCH(const CHZonotope &Outer,
                                    const Matrix &OuterInvGens,
                                    const CHZonotope &Inner) {
  assert(Outer.dim() == Inner.dim() && "containment dimension mismatch");
  assert(Outer.generators().rows() == Outer.generators().cols() &&
         "outer CH-Zonotope must be proper (square generator matrix)");
  const size_t P = Outer.dim();

  // Thm 4.2: |A^{-1} A'| 1 + |A^{-1} diag(d)| 1 <= 1 with
  // d = max(0, |a' - a| + b' - b). Every intermediate lives in workspace
  // scratch: this check runs once per Kleene iteration against each
  // history state.
  WorkspaceScope WS;
  VectorView Lhs = WS.vector(P);
  absProductRowSums(Lhs, OuterInvGens, Inner.generators());

  VectorView D = WS.vector(P);
  for (size_t I = 0; I < P; ++I)
    D[I] = std::max(std::fabs(Inner.center()[I] - Outer.center()[I]) +
                        Inner.boxRadius()[I] - Outer.boxRadius()[I],
                    0.0);
  kernels::gemvAbs(Lhs, OuterInvGens, D, 1.0, 1.0);

  ContainmentResult Result;
  Result.Slack = kernels::normInf(Lhs);
  Result.Contained = Result.Slack <= 1.0;
  return Result;
}

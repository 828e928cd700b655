//===- linalg/Workspace.h - Per-thread scratch arena ------------*- C++ -*-===//
//
// Part of the Craft reproduction (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A per-thread bump arena for kernel scratch buffers. The Kleene/abstract
/// solver hot loops need the same temporaries (mapped generator matrices,
/// consolidation coefficients, row-abs-sum accumulators) on every
/// iteration; routing them through the arena amortizes the heap traffic to
/// zero after the first iteration instead of reallocating per call.
///
/// Lifetime contract:
///  - Scratch is only handed out through a WorkspaceScope. Destroying the
///    scope rewinds the arena to where it was at scope entry, invalidating
///    every buffer the scope handed out. Scopes nest like stack frames
///    (strict LIFO, enforced by construction order in C++ scopes).
///  - Views obtained from a scope must not escape it: never store them in a
///    returned object, and never resize/reallocate around them.
///  - Arena blocks are never freed or moved while the thread lives, so a
///    buffer stays valid (and stays at the same address) for the whole
///    lifetime of the scope that produced it, even when inner scopes grow
///    the arena with fresh blocks.
///  - Workspace::threadLocal() hands each thread (a fan-out's caller or a
///    pool worker) its own arena, so fan-out items never contend or share
///    scratch. A pool worker keeps its arena across fan-outs and queries.
///
//===----------------------------------------------------------------------===//

#ifndef CRAFT_LINALG_WORKSPACE_H
#define CRAFT_LINALG_WORKSPACE_H

#include "linalg/Views.h"

#include <cstddef>
#include <memory>
#include <vector>

namespace craft {

class WorkspaceScope;

/// A growable bump arena of double buffers. Use via WorkspaceScope.
class Workspace {
public:
  Workspace() = default;
  Workspace(const Workspace &) = delete;
  Workspace &operator=(const Workspace &) = delete;

  /// The calling thread's arena (one per thread, created on first use).
  static Workspace &threadLocal();

  /// Total doubles reserved across all blocks (diagnostics/tests).
  size_t capacity() const;
  /// High-water mark of live doubles (diagnostics/tests).
  size_t highWater() const { return HighWater; }

private:
  friend class WorkspaceScope;

  struct Block {
    std::unique_ptr<double[]> Data;
    size_t Capacity = 0;
  };

  /// Bump-allocates \p Count doubles (uninitialized).
  double *allocate(size_t Count);

  std::vector<Block> Blocks;
  size_t CurBlock = 0; ///< Block the bump pointer lives in.
  size_t CurUsed = 0;  ///< Doubles used in the current block.
  size_t LiveDoubles = 0;
  size_t HighWater = 0;
};

/// RAII scratch frame: buffers handed out by this scope are valid until the
/// scope is destroyed. See the file comment for the full lifetime contract.
class WorkspaceScope {
public:
  explicit WorkspaceScope(Workspace &W = Workspace::threadLocal())
      : W(W), SavedBlock(W.CurBlock), SavedUsed(W.CurUsed),
        SavedLive(W.LiveDoubles) {}
  ~WorkspaceScope() {
    W.CurBlock = SavedBlock;
    W.CurUsed = SavedUsed;
    W.LiveDoubles = SavedLive;
  }
  WorkspaceScope(const WorkspaceScope &) = delete;
  WorkspaceScope &operator=(const WorkspaceScope &) = delete;

  /// Uninitialized scratch of \p Count doubles.
  double *alloc(size_t Count) { return W.allocate(Count); }

  /// Uninitialized scratch vector.
  VectorView vector(size_t Size) {
    return VectorView(W.allocate(Size), Size);
  }
  /// Zero-initialized scratch vector.
  VectorView zeroVector(size_t Size) {
    VectorView V = vector(Size);
    for (size_t I = 0; I < Size; ++I)
      V[I] = 0.0;
    return V;
  }

  /// Uninitialized scratch matrix (contiguous, stride == cols).
  MatrixView matrix(size_t Rows, size_t Cols) {
    return MatrixView(W.allocate(Rows * Cols), Rows, Cols);
  }
  /// Zero-initialized scratch matrix.
  MatrixView zeroMatrix(size_t Rows, size_t Cols) {
    MatrixView M = matrix(Rows, Cols);
    double *D = M.data();
    for (size_t I = 0, E = Rows * Cols; I < E; ++I)
      D[I] = 0.0;
    return M;
  }

private:
  Workspace &W;
  size_t SavedBlock;
  size_t SavedUsed;
  size_t SavedLive;
};

} // namespace craft

#endif // CRAFT_LINALG_WORKSPACE_H

#ifndef UMVSC_MVSC_SOLVE_HOOKS_H_
#define UMVSC_MVSC_SOLVE_HOOKS_H_

#include <vector>

#include "common/status.h"
#include "la/matrix.h"
#include "la/sym_eigen.h"

namespace umvsc::mvsc {

/// Reusable per-solve temporaries for the joint alternation loop. Every
/// outer iteration recomputes the same-shaped products (the F-step's
/// right-hand side, the Procrustes input, the per-block partials of the
/// indicator products); routing them through one scratch block turns
/// those allocations into none after the first iteration. A job executor
/// hands each job its worker's scratch (reused across the jobs that worker
/// runs); solves without one allocate locally, same results. Not
/// thread-safe — one scratch belongs to exactly one solve at a time.
struct SolveScratch {
  la::Matrix b;    ///< rows × c right-hand side of the F-step GPI
  la::Matrix ctc;  ///< c × c Procrustes input FᵀŶ
  /// One partial per kKc-row block of BᵀŶ / FᵀŶ (cluster::IndicatorTMul).
  std::vector<double> block_partials;

  /// Shapes `m` to r × c, reusing storage when the shape already matches
  /// (the steady state after iteration one; contents are overwritten by
  /// the Into-style producers, so no zeroing here).
  static la::Matrix& Ensure(la::Matrix& m, std::size_t r, std::size_t c) {
    if (m.rows() != r || m.cols() != c) m = la::Matrix(r, c);
    return m;
  }
};

/// Replacement for the small dense solves inside an alternation (c × c
/// Procrustes, the basis Gram eigensolve). An implementation must return
/// results bitwise identical to ProcrustesRotation / SymmetricEigen and be
/// safe for concurrent calls. The library ships none.
class SmallSolveBatcher {
 public:
  virtual ~SmallSolveBatcher() = default;
  virtual StatusOr<la::Matrix> Procrustes(const la::Matrix& m) = 0;
  virtual StatusOr<la::SymEigenResult> SymEigen(const la::Matrix& a) = 0;
};

/// Optional substrate hooks threaded into the unified/reduced solvers by
/// the job executor (exec/executor.h). Both pointers are non-owning and
/// default to null — a default-constructed SolveHooks is the plain serial
/// path. Scratch only changes where results are stored, never their
/// values, so hooked and unhooked solves agree bitwise.
struct SolveHooks {
  /// Small-solve replacement. Null (as everywhere in the library) = call
  /// the serial kernel directly.
  SmallSolveBatcher* batcher = nullptr;
  /// Reusable temporaries for the alternation loop. Null = allocate per
  /// iteration as before.
  SolveScratch* scratch = nullptr;
};

}  // namespace umvsc::mvsc

#endif  // UMVSC_MVSC_SOLVE_HOOKS_H_

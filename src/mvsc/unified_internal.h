#ifndef UMVSC_MVSC_UNIFIED_INTERNAL_H_
#define UMVSC_MVSC_UNIFIED_INTERNAL_H_

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "la/lanczos.h"
#include "la/matrix.h"
#include "la/sparse.h"
#include "mvsc/reduced_solve.h"
#include "mvsc/unified.h"

namespace umvsc::mvsc::internal {

/// Shared building blocks of the unified solver: the exact n-row path
/// (unified.cc) and the reduced anchor and streaming paths
/// (reduced_solve.cc) run one alternation loop over them. Nothing outside
/// mvsc/ should include this header.

/// Per-view traces Tr(Fᵀ L_v F), fanned out across views into
/// write-disjoint slots; bitwise deterministic.
std::vector<double> ViewTraces(const std::vector<la::CsrMatrix>& laplacians,
                               const la::Matrix& f);

/// Per-view smoothness h_v = traces[v] − offsets[v], floored away from
/// zero.
std::vector<double> ViewSmoothness(const std::vector<double>& traces,
                                   const std::vector<double>& offsets);

/// Smallest-eigenpairs dispatch through the block/single shape rule.
StatusOr<la::SymEigenResult> SmallestEigenpairsSparse(
    const la::CsrMatrix& lap, std::size_t c, double spectral_bound,
    const la::LanczosOptions& options, la::EigensolveMode mode);

/// ĉ_v per view: the sum of the c smallest eigenvalues of L_v. Requires
/// every L_v spectrum within [0, 2] (normalized Laplacians and their
/// reduced-space compressions both satisfy this).
StatusOr<std::vector<double>> SpectralFloors(
    const std::vector<la::CsrMatrix>& laplacians, std::size_t c,
    const la::LanczosOptions& lanczos, la::EigensolveMode block_lanczos,
    std::size_t* matvec_total);

/// {normalized α for reporting, Laplacian combination coefficients}.
struct Weights {
  std::vector<double> alpha;
  std::vector<double> coefficients;
};

/// Closed-form α-step for every weighting mode, with the small-coefficient
/// floor that keeps fragmented views from absorbing the whole null space.
Weights UpdateWeights(const std::vector<double>& h, ViewWeighting mode,
                      double gamma);

/// The one G/R/Y/α + polish alternation behind both solvers: spectral
/// floors (kExcess) → init alternations → G/R/Y/α loop → optional polish,
/// with Y held as labels throughout. `basis` is the reduced path's
/// orthonormal B (n × p, F = B·G, each laplacians[v] p × p); null is the
/// exact path's implicit identity (F = G, each laplacians[v] n × n).
/// `mass_normalized_warmups` routes the init alternations' combination
/// through MassNormalizedCombination (the exact path's rule). Callers
/// validate shapes. Fills `result` as SolveReducedAlternation documents.
StatusOr<ReducedSolveState> SolveAlternation(
    const std::vector<la::CsrMatrix>& laplacians, const la::Matrix* basis,
    bool mass_normalized_warmups, const UnifiedOptions& options,
    const ReducedSolveControls& controls, UnifiedResult* result);

}  // namespace umvsc::mvsc::internal

#endif  // UMVSC_MVSC_UNIFIED_INTERNAL_H_

#ifndef UMVSC_MVSC_UNIFIED_INTERNAL_H_
#define UMVSC_MVSC_UNIFIED_INTERNAL_H_

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "la/lanczos.h"
#include "la/matrix.h"
#include "la/sparse.h"
#include "mvsc/unified.h"

namespace umvsc::mvsc::internal {

/// Shared building blocks of the unified solver, used by BOTH the exact
/// n-row path (unified.cc) and the reduced anchor path (anchor_unified.cc).
/// The two paths must keep identical update semantics — α-step, floors,
/// discretization repair — so the blocks live here instead of being
/// duplicated. Nothing outside mvsc/ should include this header.

/// Per-view smoothness h_v = Tr(Fᵀ L_v F) − offsets[v], floored away from
/// zero. View-parallel with write-disjoint slots; bitwise deterministic.
std::vector<double> ViewSmoothness(const std::vector<la::CsrMatrix>& laplacians,
                                   const la::Matrix& f,
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

/// Row-argmax discretization with empty-cluster repair (ties keep the
/// smaller column index; an empty column steals the best row among clusters
/// that keep >= 2 members).
std::vector<std::size_t> DiscretizeRows(const la::Matrix& fr,
                                        std::size_t num_clusters);

}  // namespace umvsc::mvsc::internal

#endif  // UMVSC_MVSC_UNIFIED_INTERNAL_H_

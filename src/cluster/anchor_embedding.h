#ifndef UMVSC_CLUSTER_ANCHOR_EMBEDDING_H_
#define UMVSC_CLUSTER_ANCHOR_EMBEDDING_H_

#include <cstddef>
#include <cstdint>

#include "common/status.h"
#include "la/lanczos.h"
#include "la/matrix.h"
#include "la/sparse.h"
#include "la/vector.h"

namespace umvsc::cluster {

/// Options for the anchor-graph spectral embedding.
struct AnchorEmbeddingOptions {
  /// Embedding dimension k (number of top singular directions kept).
  std::size_t dims = 2;
  /// Eigensolver routing for the m × m reduced problem when it exceeds the
  /// dense-direct ceiling (small m always solves directly — exact on the
  /// degenerate spectra disconnected anchor graphs produce). kAuto routes
  /// large m to the PANEL solver, whose width-k blocks capture a k-fold
  /// eigenvalue multiplicity that a single Krylov sequence provably misses;
  /// kForceSingle remains available for A/B measurements.
  la::EigensolveMode mode = la::EigensolveMode::kAuto;
  std::uint64_t seed = 19;
  /// When non-null, accumulates Lanczos operator applications (in Krylov
  /// directions, matching la::LanczosOptions::matvec_count).
  std::size_t* matvec_count = nullptr;
};

/// Result of an anchor-graph spectral embedding.
struct AnchorEmbeddingResult {
  /// n × k top singular directions of the normalized bipartite graph —
  /// approximate eigenvectors of the implicit n × n affinity Ẑ·Ẑᵀ.
  /// Orthonormal columns up to the eigensolve tolerance.
  la::Matrix embedding;
  /// Eigenvalues of Ẑᵀ·Ẑ (= squared singular values of Ẑ), descending, in
  /// [0, 1] when Z is row-stochastic. The graph-Laplacian smoothness of
  /// direction t is 1 − eigenvalues[t].
  la::Vector eigenvalues;
  /// m × k out-of-sample extension map: embedding == Z · anchor_map, and a
  /// NEW point extends to its embedding row by building its own s-sparse
  /// anchor row z (graph::BuildAnchorAffinity's row rule) and taking
  /// z · anchor_map — O(s·k) per point, no training data needed.
  la::Matrix anchor_map;
  /// Column masses λ_j = Σ_i z_ij of the bipartite graph (the anchor
  /// "degrees" absorbed into the normalization) — diagnostics: a zero entry
  /// means anchor j attracted no weight and its direction was truncated.
  la::Vector anchor_mass;
};

/// Spectral embedding from a bipartite anchor graph Z (n × m, row-stochastic,
/// s-sparse rows — the output of graph::BuildAnchorAffinity) via the m × m
/// reduced eigenproblem. This is the SVD-of-normalized-Z route of anchor-graph
/// / Nyström spectral clustering:
///
///   Ẑ = Z·Λ^{−1/2},  Λ = diag(colsum Z)   (degree normalization)
///   M = ẐᵀẐ  (m × m)  →  top-k eigenpairs (V, Σ²)
///   embedding U = Ẑ·V·Σ^{−1}  (the left singular vectors of Ẑ)
///
/// U's columns are the top eigenvectors of the implicit affinity ẐẐᵀ — the
/// spectral embedding of an n-point graph — obtained in O(n·s² + n·s·k)
/// plus one m × m eigensolve, never touching an n × n matrix. The
/// eigensolve is dense-direct up to a ceiling (~512 anchors) because the
/// reduced spectrum is degenerate by construction when the anchor graph
/// splits into components (λ = 1 once per component) and the direct solve
/// is exact on repeated eigenvalues; beyond the ceiling it routes through
/// la::LanczosLargestAuto on a dense operator with the panel (block) path,
/// whose width-k blocks capture that multiplicity. Eigenvalues within
/// 1e-12·λ_max of
/// zero are truncated (their anchor_map columns are zeroed) — rank-deficient
/// anchor sets degrade gracefully instead of dividing by ~0.
///
/// Deterministic: the accumulation of M runs serially in row order, the
/// eigensolve is seeded, and the final SpMM is the row-parallel
/// deterministic kernel — bitwise identical at every thread count.
/// Requires 1 <= dims <= m <= n and nonnegative Z entries.
StatusOr<AnchorEmbeddingResult> AnchorSpectralEmbedding(
    const la::CsrMatrix& z, const AnchorEmbeddingOptions& options);

}  // namespace umvsc::cluster

#endif  // UMVSC_CLUSTER_ANCHOR_EMBEDDING_H_

#include "cluster/anchor_embedding.h"

#include <algorithm>
#include <cmath>

#include "la/ops.h"
#include "la/sym_eigen.h"

namespace umvsc::cluster {

namespace {

// Cushion under which the Krylov route cannot beat the dense direct solver:
// a Lanczos basis of k + cushion columns already costs as much as the full
// m × m decomposition when k is within a few columns of m.
constexpr std::size_t kDenseCushion = 2;

// Below this anchor count the dense direct solver runs unconditionally.
// The reduced spectrum is degenerate BY CONSTRUCTION whenever the anchor
// graph splits into components (ẐẐᵀ is doubly stochastic per component, so
// λ = 1 appears once per component — the well-separated-cluster regime this
// embedding exists for), and a single Krylov sequence sees one copy per
// eigenspace: it can return an interior eigenvalue in place of a missed
// copy and silently break the embedding. The direct solve is exact on
// repeated eigenvalues and its O(m³) is dwarfed by the O(n·s²) Gram
// accumulation at any realistic n/m ratio.
constexpr std::size_t kDenseDirectCeiling = 512;

}  // namespace

StatusOr<AnchorEmbeddingResult> AnchorSpectralEmbedding(
    const la::CsrMatrix& z, const AnchorEmbeddingOptions& options) {
  const std::size_t n = z.rows();
  const std::size_t m = z.cols();
  const std::size_t k = options.dims;
  if (n == 0 || m == 0) {
    return Status::InvalidArgument(
        "AnchorSpectralEmbedding requires a non-empty bipartite graph");
  }
  if (k < 1 || k > m) {
    return Status::InvalidArgument(
        "AnchorSpectralEmbedding requires 1 <= dims <= anchors");
  }
  if (m > n) {
    return Status::InvalidArgument(
        "AnchorSpectralEmbedding requires anchors <= points");
  }

  const std::vector<std::size_t>& offsets = z.row_offsets();
  const std::vector<std::size_t>& cols = z.col_indices();
  const std::vector<double>& vals = z.values();

  // Column masses λ_j = Σ_i z_ij, accumulated serially in storage order.
  la::Vector mass(m, 0.0);
  for (std::size_t e = 0; e < vals.size(); ++e) {
    if (vals[e] < 0.0) {
      return Status::InvalidArgument(
          "AnchorSpectralEmbedding requires nonnegative affinities");
    }
    mass[cols[e]] += vals[e];
  }
  la::Vector inv_sqrt_mass(m, 0.0);
  for (std::size_t j = 0; j < m; ++j) {
    inv_sqrt_mass[j] = mass[j] > 0.0 ? 1.0 / std::sqrt(mass[j]) : 0.0;
  }

  // M = ẐᵀẐ accumulated row by row: each s-sparse row contributes the outer
  // product of its normalized entries, O(n·s²) total. Serial row order keeps
  // the sums bitwise identical at every thread count.
  la::Matrix gram(m, m);
  std::vector<double> zhat_row;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t lo = offsets[i], hi = offsets[i + 1];
    zhat_row.resize(hi - lo);
    for (std::size_t e = lo; e < hi; ++e) {
      zhat_row[e - lo] = vals[e] * inv_sqrt_mass[cols[e]];
    }
    for (std::size_t a = lo; a < hi; ++a) {
      const double za = zhat_row[a - lo];
      double* grow = gram.RowPtr(cols[a]);
      for (std::size_t b = lo; b < hi; ++b) {
        grow[cols[b]] += za * zhat_row[b - lo];
      }
    }
  }

  // Top-k eigenpairs of the m × m reduced problem. Dense direct solve up to
  // the ceiling (exact on the degenerate spectra disconnected components
  // produce — see kDenseDirectCeiling); above it the auto dispatcher with
  // kAuto pinned to the PANEL solver, whose width-k blocks capture a k-fold
  // eigenvalue multiplicity per iteration where a single Krylov sequence
  // sees one copy (kForceSingle still honored for A/B measurements).
  la::SymEigenResult eig;
  bool solved = false;
  if (k + kDenseCushion < m && m > kDenseDirectCeiling) {
    la::LanczosOptions lopts;
    lopts.seed = options.seed;
    lopts.max_subspace =
        std::min(m, std::max<std::size_t>(12 * k + 100, 250));
    lopts.matvec_count = options.matvec_count;
    const la::EigensolveMode mode = options.mode == la::EigensolveMode::kAuto
                                        ? la::EigensolveMode::kForceBlock
                                        : options.mode;
    StatusOr<la::SymEigenResult> krylov = la::LanczosLargestAuto(
        [&](const la::Matrix& x, la::Matrix& y) {
          la::MatMulAddInto(gram, x, y);
        },
        m, k, lopts, mode);
    if (krylov.ok()) {
      eig = std::move(*krylov);
      solved = true;
    }
  }
  if (!solved) {
    StatusOr<la::SymEigenResult> dense = la::LargestEigenpairs(gram, k);
    if (!dense.ok()) return dense.status();
    eig = std::move(*dense);
  }

  // anchor_map = Λ^{−1/2}·V·Σ^{−1}; directions with eigenvalue ≈ 0 (rank
  // deficiency) are truncated to zero columns instead of blowing up.
  double max_eig = 0.0;
  for (std::size_t t = 0; t < k; ++t) {
    max_eig = std::max(max_eig, eig.eigenvalues[t]);
  }
  const double tol = 1e-12 * std::max(max_eig, 1.0);
  la::Matrix anchor_map(m, k);
  for (std::size_t t = 0; t < k; ++t) {
    const double lambda = eig.eigenvalues[t];
    const double inv_sigma = lambda > tol ? 1.0 / std::sqrt(lambda) : 0.0;
    for (std::size_t j = 0; j < m; ++j) {
      anchor_map(j, t) = inv_sqrt_mass[j] * eig.eigenvectors(j, t) * inv_sigma;
    }
  }

  AnchorEmbeddingResult out;
  out.embedding = la::Matrix(n, k);
  z.MultiplyInto(anchor_map, out.embedding);
  out.eigenvalues = std::move(eig.eigenvalues);
  out.anchor_map = std::move(anchor_map);
  out.anchor_mass = std::move(mass);
  return out;
}

}  // namespace umvsc::cluster

#include "graph/anchors.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "graph/distance.h"
#include "la/gemm_kernel.h"

namespace umvsc::graph {

namespace {

// Squared Euclidean distance between a candidate row and a center row,
// accumulated in ascending-feature order (the determinism convention of
// every distance kernel in this library).
double RowSquaredDistance(const double* a, const double* b, std::size_t d) {
  double s = 0.0;
  for (std::size_t p = 0; p < d; ++p) {
    const double diff = a[p] - b[p];
    s += diff * diff;
  }
  return s;
}

// k-means++ seeding + a few Lloyd sweeps over a bounded candidate subsample.
// Entirely serial and driven by `rng`, so the anchors are a pure function of
// (x, options) — never the thread count.
la::Matrix KmeansppRefineAnchors(const la::Matrix& x,
                                 const AnchorOptions& options, Rng& rng) {
  const std::size_t n = x.rows();
  const std::size_t d = x.cols();
  const std::size_t m = options.num_anchors;
  const std::size_t num_candidates = std::min(
      n, std::max<std::size_t>(options.candidate_factor * m, 1024));

  la::Matrix candidates(num_candidates, d);
  {
    const std::vector<std::size_t> ids =
        rng.SampleWithoutReplacement(n, num_candidates);
    for (std::size_t i = 0; i < num_candidates; ++i) {
      candidates.SetRow(i, x.Row(ids[i]));
    }
  }

  // Seeding: first center uniform, each next center drawn with probability
  // proportional to the candidate's squared distance to its nearest chosen
  // center. When every remaining candidate coincides with a chosen center
  // (total weight 0 — duplicated data), fall back to the smallest unchosen
  // candidate index so exactly m centers always come back.
  la::Matrix centers(m, d);
  std::vector<double> min_d2(num_candidates, 0.0);
  std::vector<bool> chosen(num_candidates, false);
  std::size_t first = static_cast<std::size_t>(rng.UniformInt(num_candidates));
  centers.SetRow(0, candidates.Row(first));
  chosen[first] = true;
  for (std::size_t i = 0; i < num_candidates; ++i) {
    min_d2[i] =
        RowSquaredDistance(candidates.RowPtr(i), centers.RowPtr(0), d);
  }
  for (std::size_t t = 1; t < m; ++t) {
    double total = 0.0;
    for (double w : min_d2) total += w;
    std::size_t pick = num_candidates;
    if (total > 0.0) {
      pick = rng.SampleDiscrete(min_d2);
    } else {
      for (std::size_t i = 0; i < num_candidates; ++i) {
        if (!chosen[i]) {
          pick = i;
          break;
        }
      }
      if (pick == num_candidates) pick = t % num_candidates;
    }
    centers.SetRow(t, candidates.Row(pick));
    chosen[pick] = true;
    for (std::size_t i = 0; i < num_candidates; ++i) {
      const double d2 =
          RowSquaredDistance(candidates.RowPtr(i), centers.RowPtr(t), d);
      if (d2 < min_d2[i]) min_d2[i] = d2;
    }
  }

  // Lloyd refinement restricted to the candidate subsample. Assignment ties
  // keep the smaller center index; an empty cluster keeps its previous
  // center (it stays a valid landmark).
  std::vector<std::size_t> assign(num_candidates, 0);
  la::Matrix sums(m, d);
  std::vector<std::size_t> counts(m, 0);
  for (std::size_t sweep = 0; sweep < options.refine_iterations; ++sweep) {
    for (std::size_t i = 0; i < num_candidates; ++i) {
      double best = RowSquaredDistance(candidates.RowPtr(i),
                                       centers.RowPtr(0), d);
      std::size_t best_j = 0;
      for (std::size_t j = 1; j < m; ++j) {
        const double d2 =
            RowSquaredDistance(candidates.RowPtr(i), centers.RowPtr(j), d);
        if (d2 < best) {
          best = d2;
          best_j = j;
        }
      }
      assign[i] = best_j;
    }
    sums.Fill(0.0);
    std::fill(counts.begin(), counts.end(), 0);
    for (std::size_t i = 0; i < num_candidates; ++i) {
      double* srow = sums.RowPtr(assign[i]);
      const double* crow = candidates.RowPtr(i);
      for (std::size_t p = 0; p < d; ++p) srow[p] += crow[p];
      counts[assign[i]]++;
    }
    for (std::size_t j = 0; j < m; ++j) {
      if (counts[j] == 0) continue;
      const double inv = 1.0 / static_cast<double>(counts[j]);
      double* crow = centers.RowPtr(j);
      const double* srow = sums.RowPtr(j);
      for (std::size_t p = 0; p < d; ++p) crow[p] = srow[p] * inv;
    }
  }
  return centers;
}

// x·y on la::kernel::GemmAdd's accumulation grid: a serial ascending partial
// per kKc block, partials added in ascending block order — bitwise equal to
// a zero-initialized GemmAdd element with inner dimension k.
double BlockedDot(const double* x, const double* y, std::size_t k) {
  double acc = 0.0;
  for (std::size_t kk = 0; kk < k; kk += la::kernel::kKc) {
    const std::size_t kcb = std::min(la::kernel::kKc, k - kk);
    double partial = 0.0;
    for (std::size_t q = 0; q < kcb; ++q) partial += x[kk + q] * y[kk + q];
    acc += partial;
  }
  return acc;
}

// The selection and weighting half of AnchorRows for one dense row of m
// squared distances.
void SelectAnchorRow(const double* d2, std::size_t m, std::size_t s,
                     std::size_t* cols, double* weights) {
  // Bounded s-best insertion; `weights` holds the kept squared distances in
  // rank (ascending-distance) order until they are turned into weights.
  // Strict comparisons on both the skip and the shift keep ties on the
  // smaller anchor index.
  std::size_t filled = 0;
  for (std::size_t j = 0; j < m; ++j) {
    const double v = d2[j];
    if (filled == s && v >= weights[s - 1]) continue;
    std::size_t q = filled < s ? filled : s - 1;
    while (q > 0 && weights[q - 1] > v) {
      weights[q] = weights[q - 1];
      cols[q] = cols[q - 1];
      --q;
    }
    weights[q] = v;
    cols[q] = j;
    if (filled < s) ++filled;
  }
  // Self-tuning bandwidth = the worst kept distance; weights accumulate in
  // rank order (a fixed order per row, independent of anchor indices).
  const double sigma2 = std::max(weights[s - 1], 1e-300);
  double sum = 0.0;
  for (std::size_t r = 0; r < s; ++r) {
    weights[r] = std::exp(-weights[r] / sigma2);
    sum += weights[r];
  }
  const double inv = 1.0 / sum;  // sum >= exp(-1) by construction
  for (std::size_t r = 0; r < s; ++r) weights[r] *= inv;
  // Insertion sort to ascending anchor order (s is small), weights ride
  // along — the CSR column invariant.
  for (std::size_t r = 1; r < s; ++r) {
    const std::size_t cr = cols[r];
    const double wr = weights[r];
    std::size_t q = r;
    while (q > 0 && cols[q - 1] > cr) {
      cols[q] = cols[q - 1];
      weights[q] = weights[q - 1];
      --q;
    }
    cols[q] = cr;
    weights[q] = wr;
  }
}

}  // namespace

void AnchorRows(const double* x, std::size_t rows, const la::Matrix& anchors,
                const la::Vector& anchor_sq_norms, std::size_t s,
                std::size_t* cols, double* weights) {
  const std::size_t m = anchors.rows();
  const std::size_t d = anchors.cols();
  std::vector<double> dots(rows * m, 0.0);
  if (rows == 1) {
    // Packing the anchor panel would cost more than one row's dots; these
    // sit on the GEMM's kc grid, so the bits are the same.
    for (std::size_t j = 0; j < m; ++j) {
      dots[j] = BlockedDot(x, anchors.RowPtr(j), d);
    }
  } else {
    // dots(i, j) = x_i·a_j, the anchors read as a transposed operand.
    la::kernel::GemmAdd(m, d, {x, d, false}, {anchors.data(), d, true},
                        dots.data(), m, 0, rows);
  }
  for (std::size_t i = 0; i < rows; ++i) {
    const double* xi = x + i * d;
    double nx = 0.0;
    for (std::size_t p = 0; p < d; ++p) nx += xi[p] * xi[p];
    double* d2 = dots.data() + i * m;
    for (std::size_t j = 0; j < m; ++j) {
      d2[j] = std::max(0.0, nx + anchor_sq_norms[j] - 2.0 * d2[j]);
    }
    SelectAnchorRow(d2, m, s, cols + i * s, weights + i * s);
  }
}

StatusOr<la::Matrix> SelectAnchors(const la::Matrix& x,
                                   const AnchorOptions& options) {
  const std::size_t n = x.rows();
  const std::size_t m = options.num_anchors;
  if (n == 0 || x.cols() == 0) {
    return Status::InvalidArgument("SelectAnchors requires non-empty features");
  }
  if (m < 1 || m > n) {
    return Status::InvalidArgument(
        "SelectAnchors requires 1 <= num_anchors <= n");
  }
  Rng rng(options.seed);
  if (options.selection == AnchorSelection::kUniform) {
    const std::vector<std::size_t> ids = rng.SampleWithoutReplacement(n, m);
    la::Matrix anchors(m, x.cols());
    for (std::size_t i = 0; i < m; ++i) anchors.SetRow(i, x.Row(ids[i]));
    return anchors;
  }
  return KmeansppRefineAnchors(x, options, rng);
}

StatusOr<la::CsrMatrix> BuildAnchorAffinity(const la::Matrix& x,
                                            const la::Matrix& anchors,
                                            const AnchorGraphOptions& options) {
  const std::size_t n = x.rows();
  const std::size_t m = anchors.rows();
  const std::size_t s = options.anchor_neighbors;
  if (n == 0 || x.cols() == 0 || m == 0) {
    return Status::InvalidArgument(
        "BuildAnchorAffinity requires non-empty points and anchors");
  }
  if (x.cols() != anchors.cols()) {
    return Status::InvalidArgument(
        "points and anchors must share a feature dimension");
  }
  if (s < 1 || s > m) {
    return Status::InvalidArgument(
        "BuildAnchorAffinity requires 1 <= anchor_neighbors <= anchors");
  }

  const la::Vector a_norms = RowSquaredNorms(anchors);
  const std::size_t tile = std::max<std::size_t>(1, options.tile_rows);
  std::vector<std::size_t> row_offsets(n + 1);
  for (std::size_t i = 0; i <= n; ++i) row_offsets[i] = i * s;
  std::vector<std::size_t> cols(n * s);
  std::vector<double> vals(n * s);
  // Chunk boundaries are multiples of `tile`, so every AnchorRows call is
  // one whole tile (the last may be short) whatever the thread count.
  ParallelFor(0, n, tile, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t r0 = lo; r0 < hi; r0 += tile) {
      const std::size_t rows = std::min(tile, hi - r0);
      AnchorRows(x.RowPtr(r0), rows, anchors, a_norms, s,
                 cols.data() + r0 * s, vals.data() + r0 * s);
    }
  });
  return la::CsrMatrix::FromParts(n, m, std::move(row_offsets),
                                  std::move(cols), std::move(vals));
}

}  // namespace umvsc::graph

#include "cluster/rotation.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/parallel.h"
#include "common/rng.h"
#include "la/gemm_kernel.h"
#include "la/ops.h"
#include "la/qr.h"
#include "la/svd.h"

namespace umvsc::cluster {

void LabelIndicator::Recount(std::size_t num_clusters, bool scale_indicator) {
  counts.assign(num_clusters, 0);
  for (std::size_t label : labels) {
    UMVSC_CHECK(label < num_clusters, "label exceeds cluster count");
    ++counts[label];
  }
  Rescale(scale_indicator);
}

void LabelIndicator::Rescale(bool scale_indicator) {
  scales.resize(counts.size());
  for (std::size_t j = 0; j < counts.size(); ++j) {
    // A column's squared norm is its count, exact in double.
    scales[j] = counts[j] == 0 ? 0.0
                : scale_indicator
                    ? 1.0 / std::sqrt(static_cast<double>(counts[j]))
                    : 1.0;
  }
}

namespace {

// acc (q × c, row-major) += rows [lo, hi) of Xᵀ·Ŷ, serially in ascending
// row order. Only a row's own column is touched: on the dense Ŷ the other
// columns add x·0 = ±0, which leaves every partial unchanged.
void AccumulateIndicatorRows(const la::Matrix& x, const LabelIndicator& y,
                             std::size_t lo, std::size_t hi, double* acc) {
  const std::size_t q = x.cols(), c = y.scales.size();
  for (std::size_t i = lo; i < hi; ++i) {
    const std::size_t label = y.labels[i];
    const double s = y.scales[label];
    const double* xi = x.RowPtr(i);
    for (std::size_t t = 0; t < q; ++t) acc[t * c + label] += xi[t] * s;
  }
}

}  // namespace

void IndicatorTMul(const la::Matrix& x, const LabelIndicator& y,
                   la::Matrix& out, std::vector<double>& block_partials) {
  const std::size_t n = x.rows(), q = x.cols(), c = y.scales.size();
  UMVSC_CHECK(y.labels.size() == n, "IndicatorTMul row-count mismatch");
  if (out.rows() != q || out.cols() != c) out = la::Matrix(q, c);
  const std::size_t stride = q * c;
  const std::size_t blocks = (n + la::kernel::kKc - 1) / la::kernel::kKc;
  block_partials.resize(blocks * stride);
  double* partials = block_partials.data();
  ParallelFor(0, blocks, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t block = lo; block < hi; ++block) {
      double* acc = partials + block * stride;
      std::fill(acc, acc + stride, 0.0);
      const std::size_t first = block * la::kernel::kKc;
      AccumulateIndicatorRows(x, y, first, std::min(n, first + la::kernel::kKc),
                              acc);
    }
  });
  // GemmAdd's C starts at zero and takes the block partials in ascending
  // block order.
  out.Fill(0.0);
  double* dst = out.data();
  for (std::size_t block = 0; block < blocks; ++block) {
    const double* acc = partials + block * stride;
    for (std::size_t e = 0; e < stride; ++e) dst[e] += acc[e];
  }
}

std::size_t RowArgmax(const double* row, std::size_t c) {
  double best = -std::numeric_limits<double>::infinity();
  std::size_t arg = 0;
  for (std::size_t j = 0; j < c; ++j) {
    if (row[j] > best) {
      best = row[j];
      arg = j;
    }
  }
  return arg;
}

double IndicatorResidualNorm(const la::Matrix& f, const la::Matrix& r,
                             const LabelIndicator& y) {
  UMVSC_CHECK(y.labels.size() == f.rows(),
              "IndicatorResidualNorm row-count mismatch");
  const std::size_t c = r.cols();
  std::vector<double> fr(c);
  la::ScaledSumOfSquares sum;
  for (std::size_t i = 0; i < f.rows(); ++i) {
    la::RowMatMul(f.RowPtr(i), r, fr.data());
    const std::size_t label = y.labels[i];
    for (std::size_t j = 0; j < c; ++j) {
      sum.Add(j == label ? y.scales[label] - fr[j] : -fr[j]);
    }
  }
  return sum.Norm();
}

namespace {

// The initialization of Yu & Shi's discretization code: build R's columns
// from c rows of F chosen to be maximally mutually orthogonal (first row
// arbitrary, then repeatedly the row least explained by the picks so far),
// then orthonormalize. Rows of a good spectral embedding concentrate near c
// distinct directions, so this lands extremely close to the optimum.
la::Matrix YuShiInitialRotation(const la::Matrix& f, Rng& rng) {
  const std::size_t n = f.rows(), c = f.cols();
  la::Matrix r(c, c);
  std::size_t pick = static_cast<std::size_t>(rng.UniformInt(n));
  r.SetCol(0, f.Row(pick));
  la::Vector accum(n);
  for (std::size_t j = 1; j < c; ++j) {
    // accum_i += |F_i · r_{j−1}| measures how well row i is already covered.
    for (std::size_t i = 0; i < n; ++i) {
      double dot = 0.0;
      for (std::size_t p = 0; p < c; ++p) dot += f(i, p) * r(p, j - 1);
      accum[i] += std::fabs(dot);
    }
    std::size_t best = 0;
    for (std::size_t i = 1; i < n; ++i) {
      if (accum[i] < accum[best]) best = i;
    }
    r.SetCol(j, f.Row(best));
  }
  return la::Orthonormalize(r);
}

// Work of one restart iteration (n·c², the F·R row passes) from which
// DiscretizeEmbedding runs its restarts in parallel.
constexpr std::size_t kParallelRestartMinWork = std::size_t{1} << 15;

// One restart, serial, with Y held as labels: per iteration a row pass for
// the argmax and a row pass for the objective and FᵀŶ — O(n) labels (in
// the buffer `out->labels` brings), the FᵀŶ block partials and O(c²)
// scratch, no n × c buffer.
Status RunOnce(const la::Matrix& f, const RotationOptions& options,
               la::Matrix r, std::vector<double>& block_partials,
               RotationResult* out) {
  const std::size_t n = f.rows(), c = f.cols();
  LabelIndicator y;
  y.labels = std::move(out->labels);
  y.labels.resize(n);
  std::vector<double> fr(c);
  la::Matrix fty(c, c);
  double prev_obj = std::numeric_limits<double>::infinity();

  std::size_t iter = 0;
  for (; iter < options.max_iterations; ++iter) {
    // Y-step: each row of F·R independently picks its largest coordinate.
    for (std::size_t i = 0; i < n; ++i) {
      la::RowMatMul(f.RowPtr(i), r, fr.data());
      y.labels[i] = RowArgmax(fr.data(), c);
    }
    y.Recount(c, options.scale_indicator);

    // Objective ‖Ŷ − F·R‖²_F.
    const double obj = IndicatorResidualNorm(f, r, y);
    const double obj2 = obj * obj;

    // R-step: orthogonal Procrustes, R = U·Vᵀ of FᵀŶ.
    IndicatorTMul(f, y, fty, block_partials);
    StatusOr<la::Matrix> next_r = la::ProcrustesRotation(fty);
    if (!next_r.ok()) return next_r.status();
    r = std::move(*next_r);

    if (iter > 0 &&
        prev_obj - obj2 <= options.tolerance * std::max(prev_obj, 1e-300)) {
      prev_obj = std::min(prev_obj, obj2);
      ++iter;
      break;
    }
    prev_obj = obj2;
  }

  out->labels = std::move(y.labels);
  out->rotation = std::move(r);
  out->objective = prev_obj;
  out->iterations = iter;
  return Status::OK();
}

}  // namespace

StatusOr<RotationResult> DiscretizeEmbedding(const la::Matrix& f,
                                             const RotationOptions& options) {
  const std::size_t c = f.cols();
  if (c < 1 || f.rows() < c) {
    return Status::InvalidArgument(
        "DiscretizeEmbedding requires an n × c embedding with n >= c >= 1");
  }
  if (options.restarts < 1) {
    return Status::InvalidArgument("restarts must be >= 1");
  }

  // Every restart's stream is split serially, in attempt order, before any
  // restart runs — the same streams a serial loop would draw.
  const std::size_t restarts = options.restarts;
  Rng root(options.seed);
  std::vector<Rng> rngs;
  rngs.reserve(restarts);
  for (std::size_t attempt = 0; attempt < restarts; ++attempt) {
    rngs.push_back(root.Split());
  }
  std::vector<RotationResult> runs(restarts);
  // Each restart's buffers come from the calling thread: allocated on pool
  // workers, freed buffers would stay resident in per-thread malloc arenas
  // after the call.
  const std::size_t blocks = (f.rows() + la::kernel::kKc - 1) / la::kernel::kKc;
  std::vector<std::vector<double>> block_partials(restarts);
  for (std::size_t attempt = 0; attempt < restarts; ++attempt) {
    runs[attempt].labels.resize(f.rows());
    block_partials[attempt].resize(blocks * c * c);
  }
  std::vector<Status> statuses(restarts, Status::OK());
  // Restarts of a small embedding run serially on the calling thread: their
  // work is below the cost of waking the pool. Scheduling only — every
  // restart computes the same bits either way.
  const std::size_t grain =
      f.size() * c >= kParallelRestartMinWork ? 1 : restarts;
  ParallelFor(0, restarts, grain, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t attempt = lo; attempt < hi; ++attempt) {
      // The first attempts use the Yu–Shi most-orthogonal-rows seeding
      // (with different random first rows); later attempts fall back to
      // fully random rotations for diversity.
      la::Matrix r0 =
          (attempt < (restarts + 1) / 2)
              ? YuShiInitialRotation(f, rngs[attempt])
              : la::Orthonormalize(
                    la::Matrix::RandomGaussian(c, c, rngs[attempt]));
      statuses[attempt] = RunOnce(f, options, std::move(r0),
                                  block_partials[attempt], &runs[attempt]);
    }
  });

  // Lowest objective wins; the strict comparison in attempt order keeps
  // the lowest index on ties.
  RotationResult best;
  best.objective = std::numeric_limits<double>::infinity();
  Status last_error = Status::OK();
  bool any_ok = false;
  for (std::size_t attempt = 0; attempt < restarts; ++attempt) {
    if (!statuses[attempt].ok()) {
      last_error = statuses[attempt];
      continue;
    }
    any_ok = true;
    if (runs[attempt].objective < best.objective) {
      best = std::move(runs[attempt]);
    }
  }
  if (!any_ok) return last_error;
  return best;
}

}  // namespace umvsc::cluster

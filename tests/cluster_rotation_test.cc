#include "cluster/rotation.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/rng.h"
#include "eval/metrics.h"
#include "la/ops.h"
#include "la/qr.h"
#include "la/svd.h"
#include "test_util.h"

namespace umvsc::cluster {
namespace {

// ---------------------------------------------------------------- reference
//
// The dense discretization DiscretizeEmbedding replaced: Y materialized as
// an n × c matrix, rebuilt every iteration, restarts run one after another.
// Kept here as the bitwise oracle of the label-held, restart-parallel
// implementation.
namespace dense {

std::vector<std::size_t> IndicatorToLabels(const la::Matrix& y) {
  std::vector<std::size_t> labels(y.rows(), 0);
  for (std::size_t i = 0; i < y.rows(); ++i) {
    double best = -std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < y.cols(); ++j) {
      if (y(i, j) > best) {
        best = y(i, j);
        labels[i] = j;
      }
    }
  }
  return labels;
}

la::Matrix LabelsToIndicator(const std::vector<std::size_t>& labels,
                             std::size_t num_clusters) {
  la::Matrix y(labels.size(), num_clusters);
  for (std::size_t i = 0; i < labels.size(); ++i) y(i, labels[i]) = 1.0;
  return y;
}

la::Matrix ScaledIndicator(const la::Matrix& y) {
  la::Matrix scaled = y;
  for (std::size_t j = 0; j < y.cols(); ++j) {
    double count = 0.0;
    for (std::size_t i = 0; i < y.rows(); ++i) count += y(i, j) * y(i, j);
    if (count > 0.0) {
      const double inv = 1.0 / std::sqrt(count);
      for (std::size_t i = 0; i < y.rows(); ++i) scaled(i, j) *= inv;
    }
  }
  return scaled;
}

la::Matrix YuShiInitialRotation(const la::Matrix& f, Rng& rng) {
  const std::size_t n = f.rows(), c = f.cols();
  la::Matrix r(c, c);
  std::size_t pick = static_cast<std::size_t>(rng.UniformInt(n));
  r.SetCol(0, f.Row(pick));
  la::Vector accum(n);
  for (std::size_t j = 1; j < c; ++j) {
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

RotationResult RunOnce(const la::Matrix& f, const RotationOptions& options,
                       la::Matrix r) {
  const std::size_t c = f.cols();
  RotationResult out;
  double prev_obj = std::numeric_limits<double>::infinity();
  la::Matrix y;
  std::size_t iter = 0;
  for (; iter < options.max_iterations; ++iter) {
    la::Matrix fr = la::MatMul(f, r);
    y = LabelsToIndicator(IndicatorToLabels(fr), c);
    la::Matrix y_hat = options.scale_indicator ? ScaledIndicator(y) : y;
    const double obj = la::Add(y_hat, fr, -1.0).FrobeniusNorm();
    const double obj2 = obj * obj;
    StatusOr<la::Matrix> next_r = la::ProcrustesRotation(la::MatTMul(f, y_hat));
    UMVSC_CHECK(next_r.ok(), "reference Procrustes failed");
    r = std::move(*next_r);
    if (iter > 0 &&
        prev_obj - obj2 <= options.tolerance * std::max(prev_obj, 1e-300)) {
      prev_obj = std::min(prev_obj, obj2);
      ++iter;
      break;
    }
    prev_obj = obj2;
  }
  out.labels = IndicatorToLabels(y);
  out.rotation = std::move(r);
  out.objective = prev_obj;
  out.iterations = iter;
  return out;
}

RotationResult Discretize(const la::Matrix& f, const RotationOptions& options) {
  const std::size_t c = f.cols();
  Rng root(options.seed);
  RotationResult best;
  best.objective = std::numeric_limits<double>::infinity();
  for (std::size_t attempt = 0; attempt < options.restarts; ++attempt) {
    Rng rng = root.Split();
    la::Matrix r0 =
        (attempt < (options.restarts + 1) / 2)
            ? YuShiInitialRotation(f, rng)
            : la::Orthonormalize(la::Matrix::RandomGaussian(c, c, rng));
    RotationResult run = RunOnce(f, options, std::move(r0));
    if (run.objective < best.objective) best = std::move(run);
  }
  return best;
}

}  // namespace dense

void ExpectBitwiseEqual(const RotationResult& got, const RotationResult& want) {
  EXPECT_EQ(got.labels, want.labels);
  EXPECT_EQ(got.objective, want.objective);
  EXPECT_EQ(got.iterations, want.iterations);
  ASSERT_EQ(got.rotation.rows(), want.rotation.rows());
  ASSERT_EQ(got.rotation.cols(), want.rotation.cols());
  for (std::size_t e = 0; e < want.rotation.size(); ++e) {
    EXPECT_EQ(got.rotation.data()[e], want.rotation.data()[e]) << "entry " << e;
  }
}

// A noisy spectral embedding of `c` planted clusters: row i sits near the
// rotated scaled-indicator row of its cluster.
la::Matrix NoisyEmbedding(std::size_t n, std::size_t c, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::size_t> labels(n);
  for (std::size_t i = 0; i < n; ++i) labels[i] = i % c;
  la::Matrix y_hat =
      dense::ScaledIndicator(dense::LabelsToIndicator(labels, c));
  la::Matrix f = la::MatMulT(y_hat, test::RandomOrthonormal(c, c, seed + 1));
  la::Matrix noise = la::Matrix::RandomGaussian(n, c, rng);
  f.Add(noise, 0.3 / std::sqrt(static_cast<double>(n)));
  return la::Orthonormalize(f);
}

// Rows concentrated on two of three directions: every restart leaves one
// column of the indicator empty.
la::Matrix TwoDirectionEmbedding(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  la::Matrix f(n, 3);
  for (std::size_t i = 0; i < n; ++i) {
    f(i, i % 2) = 1.0;
    for (std::size_t j = 0; j < 3; ++j) f(i, j) += 0.01 * rng.Gaussian();
  }
  return f;
}

// ------------------------------------------------------------------- tests

TEST(LabelIndicatorTest, CountsAndScales) {
  LabelIndicator y;
  y.labels = {0, 0, 0, 0, 1};
  y.Recount(3, /*scale_indicator=*/true);
  EXPECT_EQ(y.counts, (std::vector<std::size_t>{4, 1, 0}));
  EXPECT_EQ(y.scales[0], 0.5);  // 1/√4
  EXPECT_EQ(y.scales[1], 1.0);
  EXPECT_EQ(y.scales[2], 0.0);  // empty column holds no entry
  y.Rescale(/*scale_indicator=*/false);
  EXPECT_EQ(y.scales, (std::vector<double>{1.0, 1.0, 0.0}));
}

TEST(LabelIndicatorTest, RowMatMulMatchesMatMulAcrossKcBlocks) {
  // k = 600 spans three kKc blocks of the GEMM accumulation grid.
  for (std::size_t k : {std::size_t{5}, std::size_t{600}}) {
    Rng rng(k);
    la::Matrix a = la::Matrix::RandomGaussian(7, k, rng);
    la::Matrix b = la::Matrix::RandomGaussian(k, 9, rng);
    la::Matrix want = la::MatMul(a, b);
    std::vector<double> row(9);
    for (std::size_t i = 0; i < 7; ++i) {
      la::RowMatMul(a.RowPtr(i), b, row.data());
      for (std::size_t j = 0; j < 9; ++j) {
        EXPECT_EQ(row[j], want(i, j)) << "k=" << k << " (" << i << "," << j
                                      << ")";
      }
    }
  }
}

TEST(LabelIndicatorTest, RowArgmaxTiesKeepTheSmallerIndex) {
  const std::vector<double> scores = {0.5, 2.0, 2.0, -1.0};
  EXPECT_EQ(RowArgmax(scores.data(), scores.size()), 1u);
  const std::vector<double> flat = {3.0, 3.0, 3.0};
  EXPECT_EQ(RowArgmax(flat.data(), flat.size()), 0u);
}

TEST(LabelIndicatorTest, ProductsMatchTheDenseIndicator) {
  // n = 1000 spans four kKc row blocks; one column stays empty.
  const std::size_t n = 1000, q = 6, c = 4;
  Rng rng(5);
  la::Matrix x = la::Matrix::RandomGaussian(n, q, rng);
  la::Matrix f = la::Matrix::RandomGaussian(n, c, rng);
  la::Matrix r = test::RandomOrthonormal(c, c, 6);
  LabelIndicator y;
  y.labels.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    y.labels[i] = static_cast<std::size_t>(rng.UniformInt(c - 1));
  }
  for (bool scaled : {true, false}) {
    y.Recount(c, scaled);
    la::Matrix dense_y = dense::LabelsToIndicator(y.labels, c);
    if (scaled) dense_y = dense::ScaledIndicator(dense_y);

    const la::Matrix want = la::MatTMul(x, dense_y);
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      ScopedNumThreads scoped(threads);
      la::Matrix got;
      std::vector<double> partials;
      IndicatorTMul(x, y, got, partials);
      for (std::size_t e = 0; e < want.size(); ++e) {
        EXPECT_EQ(got.data()[e], want.data()[e])
            << "threads=" << threads << " entry " << e;
      }
    }
    EXPECT_EQ(IndicatorResidualNorm(f, r, y),
              la::Add(dense_y, la::MatMul(f, r), -1.0).FrobeniusNorm());
  }
}

// Builds an embedding that IS a rotated scaled indicator: discretization
// must recover the planted clusters exactly.
TEST(DiscretizeTest, RecoversPlantedRotatedIndicator) {
  const std::size_t n = 60, c = 4;
  Rng rng(40);
  std::vector<std::size_t> labels(n);
  for (std::size_t i = 0; i < n; ++i) {
    labels[i] = static_cast<std::size_t>(rng.UniformInt(c));
  }
  // Guarantee every cluster is non-empty.
  for (std::size_t j = 0; j < c; ++j) labels[j] = j;
  la::Matrix y_hat =
      dense::ScaledIndicator(dense::LabelsToIndicator(labels, c));
  la::Matrix rot = test::RandomOrthonormal(c, c, 41);
  la::Matrix f = la::MatMulT(y_hat, rot);  // F = Ŷ·Rᵀ, so F·R = Ŷ

  RotationOptions options;
  options.seed = 42;
  StatusOr<RotationResult> result = DiscretizeEmbedding(f, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  StatusOr<double> acc = eval::ClusteringAccuracy(result->labels, labels);
  ASSERT_TRUE(acc.ok());
  EXPECT_DOUBLE_EQ(*acc, 1.0);
  EXPECT_LT(la::OrthonormalityError(result->rotation), 1e-9);
}

TEST(DiscretizeTest, LabelsAreOnePerRowInRange) {
  la::Matrix f = test::RandomOrthonormal(30, 3, 43);
  RotationOptions options;
  options.seed = 1;
  StatusOr<RotationResult> result = DiscretizeEmbedding(f, options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->labels.size(), 30u);
  for (std::size_t label : result->labels) EXPECT_LT(label, 3u);
}

TEST(DiscretizeTest, MatchesTheDenseReferenceBitForBit) {
  // Several seeds and shapes, both indicator conventions; n = 7000 spans
  // 28 kKc row blocks and is large enough for the restarts to run in
  // parallel.
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    for (bool scaled : {true, false}) {
      const std::size_t c = 3 + seed % 3;
      la::Matrix f = NoisyEmbedding(7000, c, 100 + seed);
      RotationOptions options;
      options.seed = seed;
      options.restarts = 8;
      options.scale_indicator = scaled;
      StatusOr<RotationResult> got = DiscretizeEmbedding(f, options);
      ASSERT_TRUE(got.ok());
      SCOPED_TRACE(testing::Message()
                   << "seed=" << seed << " scaled=" << scaled);
      ExpectBitwiseEqual(*got, dense::Discretize(f, options));
    }
  }
}

TEST(DiscretizeTest, MatchesTheDenseReferenceWithAnEmptyColumn) {
  la::Matrix f = TwoDirectionEmbedding(300, 9);
  for (bool scaled : {true, false}) {
    RotationOptions options;
    options.seed = 5;
    options.restarts = 6;
    options.scale_indicator = scaled;
    const RotationResult want = dense::Discretize(f, options);
    std::vector<std::size_t> counts(3, 0);
    for (std::size_t label : want.labels) ++counts[label];
    ASSERT_EQ(std::count(counts.begin(), counts.end(), 0u), 1)
        << "the fixture must leave exactly one column empty";
    StatusOr<RotationResult> got = DiscretizeEmbedding(f, options);
    ASSERT_TRUE(got.ok());
    SCOPED_TRACE(testing::Message() << "scaled=" << scaled);
    ExpectBitwiseEqual(*got, want);
  }
}

TEST(DiscretizeTest, IdenticalAtEveryThreadCount) {
  // 7000 × 5 is above the work from which the restarts run in parallel.
  la::Matrix f = NoisyEmbedding(7000, 5, 77);
  RotationOptions options;
  options.seed = 31;
  options.restarts = 8;
  RotationResult reference;
  {
    ScopedNumThreads serial(1);
    StatusOr<RotationResult> got = DiscretizeEmbedding(f, options);
    ASSERT_TRUE(got.ok());
    reference = *std::move(got);
  }
  for (std::size_t threads : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    ScopedNumThreads scoped(threads);
    StatusOr<RotationResult> got = DiscretizeEmbedding(f, options);
    ASSERT_TRUE(got.ok());
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    ExpectBitwiseEqual(*got, reference);
  }
}

TEST(DiscretizeTest, MoreRestartsNeverWorseObjective) {
  la::Matrix f = test::RandomOrthonormal(40, 4, 44);
  RotationOptions one;
  one.restarts = 1;
  one.seed = 7;
  RotationOptions many = one;
  many.restarts = 10;
  StatusOr<RotationResult> r1 = DiscretizeEmbedding(f, one);
  StatusOr<RotationResult> r10 = DiscretizeEmbedding(f, many);
  ASSERT_TRUE(r1.ok() && r10.ok());
  EXPECT_LE(r10->objective, r1->objective + 1e-9);
}

TEST(DiscretizeTest, InvalidInputsRejected) {
  EXPECT_FALSE(DiscretizeEmbedding(la::Matrix(2, 3), {}).ok());  // n < c
  RotationOptions zero_restarts;
  zero_restarts.restarts = 0;
  EXPECT_FALSE(
      DiscretizeEmbedding(la::Matrix(5, 2), zero_restarts).ok());
}

}  // namespace
}  // namespace umvsc::cluster

// Parameterized property sweeps across module boundaries: each suite checks
// one invariant over a grid of problem shapes, catching size-dependent bugs
// that single-shape unit tests miss.

#include <algorithm>
#include <cmath>
#include <tuple>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "graph/distance.h"
#include "graph/kernels.h"
#include "graph/knn_graph.h"
#include "graph/laplacian.h"
#include "la/lanczos.h"
#include "la/ops.h"
#include "la/svd.h"
#include "la/sym_eigen.h"
#include "mvsc/graphs.h"
#include "mvsc/unified.h"
#include "test_util.h"

namespace umvsc {
namespace {

// ------------------------------------------------------------------ metrics

// Property: every clustering metric is invariant under any relabeling
// (permutation of cluster ids) of the prediction.
class MetricPermutationSweep : public ::testing::TestWithParam<int> {};

TEST_P(MetricPermutationSweep, MetricsAreRelabelingInvariant) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 5);
  const std::size_t n = 60;
  const std::size_t k = 2 + GetParam() % 5;
  std::vector<std::size_t> truth(n), pred(n);
  for (std::size_t i = 0; i < n; ++i) {
    truth[i] = static_cast<std::size_t>(rng.UniformInt(k));
    pred[i] = static_cast<std::size_t>(rng.UniformInt(k));
  }
  // Densify ids so the permutation below is well defined.
  for (std::size_t c = 0; c < k; ++c) {
    truth[c % n] = c;
    pred[(c + 7) % n] = c;
  }
  // Random permutation of predicted ids.
  std::vector<std::size_t> perm(k);
  for (std::size_t c = 0; c < k; ++c) perm[c] = c;
  rng.Shuffle(perm);
  std::vector<std::size_t> relabeled(n);
  for (std::size_t i = 0; i < n; ++i) relabeled[i] = perm[pred[i]];

  auto before = eval::ScoreClustering(pred, truth);
  auto after = eval::ScoreClustering(relabeled, truth);
  ASSERT_TRUE(before.ok() && after.ok());
  EXPECT_NEAR(before->accuracy, after->accuracy, 1e-12);
  EXPECT_NEAR(before->nmi, after->nmi, 1e-12);
  EXPECT_NEAR(before->purity, after->purity, 1e-12);
  EXPECT_NEAR(before->ari, after->ari, 1e-12);
  EXPECT_NEAR(before->f_score, after->f_score, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricPermutationSweep,
                         ::testing::Range(0, 12));

// ------------------------------------------------------------------- graphs

// Property: for any data shape, the self-tuning kNN pipeline produces a
// symmetric nonnegative affinity whose symmetric Laplacian is PSD with
// spectrum in [0, 2].
class GraphPipelineSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GraphPipelineSweep, LaplacianSpectrumBounds) {
  auto [n, d, k] = GetParam();
  Rng rng(static_cast<std::uint64_t>(n * 100 + d * 10 + k));
  la::Matrix x = la::Matrix::RandomGaussian(n, d, rng);
  la::Matrix sq = graph::PairwiseSquaredDistances(x);
  auto kernel = graph::SelfTuningKernel(sq, k);
  ASSERT_TRUE(kernel.ok());
  auto w = graph::BuildKnnGraph(*kernel, k);
  ASSERT_TRUE(w.ok());
  EXPECT_TRUE(w->IsSymmetric(1e-12));
  for (double v : w->values()) EXPECT_GE(v, 0.0);
  auto lap = graph::Laplacian(*w, graph::LaplacianKind::kSymmetric);
  ASSERT_TRUE(lap.ok());
  auto eig = la::SymmetricEigen(lap->ToDense());
  ASSERT_TRUE(eig.ok());
  EXPECT_GE(eig->eigenvalues[0], -1e-9);
  EXPECT_LE(eig->eigenvalues[static_cast<std::size_t>(n) - 1], 2.0 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GraphPipelineSweep,
    ::testing::Values(std::tuple{12, 2, 3}, std::tuple{25, 5, 4},
                      std::tuple{40, 3, 8}, std::tuple{60, 10, 10},
                      std::tuple{30, 1, 5}));

// ------------------------------------------------------------------ lanczos

// Property: Lanczos extreme eigenvalues match the dense solver across k.
class LanczosKSweep : public ::testing::TestWithParam<int> {};

TEST_P(LanczosKSweep, MatchesDenseForAnyK) {
  const std::size_t k = static_cast<std::size_t>(GetParam());
  la::Matrix dense = test::RandomSymmetric(35, 7000 + GetParam());
  la::CsrMatrix sparse = la::CsrMatrix::FromDense(dense);
  auto full = la::SymmetricEigen(dense);
  auto lan = la::LanczosLargest(sparse, k);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(lan.ok()) << lan.status().ToString();
  for (std::size_t j = 0; j < k; ++j) {
    EXPECT_NEAR(lan->eigenvalues[j], full->eigenvalues[34 - j], 1e-7)
        << "k=" << k << " j=" << j;
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, LanczosKSweep, ::testing::Values(1, 2, 3, 5, 8,
                                                              13, 20));

// ------------------------------------------------------------------ unified

// Property: across (clusters, views) configurations, the unified solver
// produces structurally valid output (labels in range with no empty
// cluster, orthonormal F and R, simplex weights) and beats chance on
// well-separated data.
class UnifiedShapeSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(UnifiedShapeSweep, StructurallyValidAndBetterThanChance) {
  auto [c, v] = GetParam();
  data::MultiViewConfig config;
  config.num_samples = static_cast<std::size_t>(40 * c);
  config.num_clusters = static_cast<std::size_t>(c);
  for (int view = 0; view < v; ++view) {
    config.views.push_back(
        {8 + static_cast<std::size_t>(view) * 3,
         view + 1 == v && v > 1 ? data::ViewQuality::kNoisy
                                : data::ViewQuality::kInformative,
         0.6});
  }
  config.cluster_separation = 5.0;
  config.seed = static_cast<std::uint64_t>(c * 10 + v);
  auto dataset = data::MakeGaussianMultiView(config);
  ASSERT_TRUE(dataset.ok());
  auto graphs = mvsc::BuildGraphs(*dataset);
  ASSERT_TRUE(graphs.ok());

  mvsc::UnifiedOptions options;
  options.num_clusters = static_cast<std::size_t>(c);
  options.seed = 3;
  auto result = mvsc::UnifiedMVSC(options).Run(*graphs);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_LT(la::OrthonormalityError(result->embedding), 1e-7);
  EXPECT_LT(la::OrthonormalityError(result->rotation), 1e-8);
  double weight_sum = 0.0;
  for (double w : result->view_weights) {
    EXPECT_GE(w, 0.0);
    weight_sum += w;
  }
  EXPECT_NEAR(weight_sum, 1.0, 1e-9);
  test::ExpectValidLabels(result->labels, dataset->NumSamples(),
                          static_cast<std::size_t>(c));
  auto acc = eval::ClusteringAccuracy(result->labels, dataset->labels);
  ASSERT_TRUE(acc.ok());
  // Far above the 1/c chance level (capped: perfect accuracy must pass).
  EXPECT_GT(*acc, std::min(0.9, 2.0 / static_cast<double>(c)));
}

INSTANTIATE_TEST_SUITE_P(
    Configs, UnifiedShapeSweep,
    ::testing::Values(std::tuple{2, 1}, std::tuple{2, 3}, std::tuple{3, 2},
                      std::tuple{4, 4}, std::tuple{6, 3}));

// -------------------------------------------------------------- procrustes

// Property: for any shape, ProcrustesRotation(Qᵀ) recovers Q when Q is
// orthogonal, and StiefelProjection is idempotent.
class ProcrustesSweep : public ::testing::TestWithParam<int> {};

TEST_P(ProcrustesSweep, RecoversOrthogonalFactor) {
  const std::size_t c = static_cast<std::size_t>(GetParam());
  la::Matrix q = test::RandomOrthonormal(c, c, 900 + GetParam());
  auto r = la::ProcrustesRotation(q);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(la::AlmostEqual(*r, q, 1e-9));
  auto p = la::StiefelProjection(*r);
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(la::AlmostEqual(*p, *r, 1e-9));
}

INSTANTIATE_TEST_SUITE_P(Sizes, ProcrustesSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 12, 20));

}  // namespace
}  // namespace umvsc

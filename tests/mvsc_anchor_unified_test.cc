// Tests for the anchor (large-scale) mode of the unified solver: planted
// clusters recovered through the reduced space, label parity with the exact
// path on the same data, bitwise determinism across thread counts, output
// invariants, and the entry-point contract (anchor mode needs features, and
// leaving it disabled must not disturb the exact path).
#include "mvsc/anchor_unified.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "la/ops.h"
#include "mvsc/unified.h"
#include "test_util.h"

namespace umvsc::mvsc {
namespace {

data::MultiViewDataset MakeDataset(std::uint64_t seed, std::size_t n = 600,
                                   std::size_t c = 4) {
  data::MultiViewConfig config;
  config.num_samples = n;
  config.num_clusters = c;
  config.views = {{8, data::ViewQuality::kInformative, 1.0},
                  {6, data::ViewQuality::kInformative, 1.0}};
  config.cluster_separation = 10.0;
  config.seed = seed;
  auto dataset = data::MakeGaussianMultiView(config);
  UMVSC_CHECK(dataset.ok(), "dataset generation failed");
  return *std::move(dataset);
}

UnifiedOptions AnchorOptions(std::size_t c, std::size_t m = 48) {
  UnifiedOptions options;
  options.num_clusters = c;
  options.seed = 11;
  options.anchors.enabled = true;
  options.anchors.num_anchors = m;
  options.anchors.anchor_neighbors = 5;
  return options;
}

TEST(AnchorUnifiedTest, RecoversPlantedClusters) {
  data::MultiViewDataset dataset = MakeDataset(31);
  UnifiedMVSC solver(AnchorOptions(4));
  StatusOr<UnifiedResult> result = solver.Run(dataset);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  StatusOr<double> ari =
      eval::AdjustedRandIndex(result->labels, dataset.labels);
  ASSERT_TRUE(ari.ok());
  EXPECT_GT(*ari, 0.95);
}

TEST(AnchorUnifiedTest, AgreesWithTheExactPath) {
  data::MultiViewDataset dataset = MakeDataset(33);
  UnifiedOptions anchor_options = AnchorOptions(4);
  UnifiedOptions exact_options = anchor_options;
  exact_options.anchors.enabled = false;
  StatusOr<UnifiedResult> anchored = UnifiedMVSC(anchor_options).Run(dataset);
  StatusOr<UnifiedResult> exact = UnifiedMVSC(exact_options).Run(dataset);
  ASSERT_TRUE(anchored.ok()) << anchored.status().ToString();
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  StatusOr<double> parity =
      eval::AdjustedRandIndex(anchored->labels, exact->labels);
  ASSERT_TRUE(parity.ok());
  EXPECT_GE(*parity, 0.95);
}

TEST(AnchorUnifiedTest, OutputInvariantsHold) {
  data::MultiViewDataset dataset = MakeDataset(35);
  const std::size_t n = dataset.NumSamples();
  UnifiedMVSC solver(AnchorOptions(4));
  StatusOr<UnifiedResult> result = solver.Run(dataset);
  ASSERT_TRUE(result.ok());
  test::ExpectValidLabels(result->labels, n, 4);
  // F = B·G keeps orthonormal columns (B orthonormal, G orthonormal).
  ASSERT_EQ(result->embedding.rows(), n);
  ASSERT_EQ(result->embedding.cols(), 4u);
  EXPECT_LT(la::OrthonormalityError(result->embedding), 1e-6);
  EXPECT_LT(la::OrthonormalityError(result->rotation), 1e-9);
  double total = 0.0;
  for (double w : result->view_weights) {
    EXPECT_GE(w, 0.0);
    total += w;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  // The objective trace is finite and the run reports convergence state.
  ASSERT_FALSE(result->objective_trace.empty());
  EXPECT_GT(result->iterations, 0u);
}

// The reduced path's counterpart of the exact path's ObjectiveTraceSettles:
// the G/R/Y/α trace ends no higher than it starts, and a converged tail is
// stable.
TEST(AnchorUnifiedTest, ObjectiveTraceSettles) {
  data::MultiViewDataset dataset = MakeDataset(36);
  UnifiedOptions options = AnchorOptions(4);
  options.max_iterations = 40;
  StatusOr<UnifiedResult> result = UnifiedMVSC(options).Run(dataset);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::vector<double>& trace = result->objective_trace;
  ASSERT_GE(trace.size(), 2u);
  EXPECT_LE(trace.back(), trace.front() + 1e-9);
  if (result->converged) {
    const double last = trace[trace.size() - 1];
    const double prev = trace[trace.size() - 2];
    EXPECT_NEAR(last, prev, 1e-4 * std::max(1.0, std::abs(prev)));
  }
}

TEST(AnchorUnifiedTest, ThreadCountDoesNotChangeLabels) {
  data::MultiViewDataset dataset = MakeDataset(37, 400);
  UnifiedOptions options = AnchorOptions(4, 32);
  UnifiedResult reference;
  {
    ScopedNumThreads serial(1);
    StatusOr<UnifiedResult> got = UnifiedMVSC(options).Run(dataset);
    ASSERT_TRUE(got.ok());
    reference = *std::move(got);
  }
  for (std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    ScopedNumThreads scoped(threads);
    StatusOr<UnifiedResult> got = UnifiedMVSC(options).Run(dataset);
    ASSERT_TRUE(got.ok()) << "threads=" << threads;
    EXPECT_EQ(got->labels, reference.labels) << "threads=" << threads;
    EXPECT_EQ(std::memcmp(got->embedding.data(), reference.embedding.data(),
                          reference.embedding.rows() *
                              reference.embedding.cols() * sizeof(double)),
              0)
        << "threads=" << threads;
  }
}

TEST(AnchorUnifiedTest, GraphEntryPointRejectsAnchorMode) {
  data::MultiViewDataset dataset = MakeDataset(39, 200);
  StatusOr<MultiViewGraphs> graphs = BuildGraphs(dataset);
  ASSERT_TRUE(graphs.ok());
  UnifiedMVSC solver(AnchorOptions(4));
  StatusOr<UnifiedResult> result = solver.Run(*graphs);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("Run(dataset)"), std::string::npos);
}

TEST(AnchorUnifiedTest, ValidatesAnchorCounts) {
  data::MultiViewDataset dataset = MakeDataset(41, 100);
  UnifiedOptions options = AnchorOptions(4);
  options.anchors.num_anchors = 200;  // > n
  EXPECT_FALSE(UnifiedMVSC(options).Run(dataset).ok());
  options.anchors.num_anchors = 32;
  options.anchors.anchor_neighbors = 0;
  EXPECT_FALSE(UnifiedMVSC(options).Run(dataset).ok());
  options.anchors.anchor_neighbors = 40;  // > m
  EXPECT_FALSE(UnifiedMVSC(options).Run(dataset).ok());
}

TEST(AnchorUnifiedTest, ModelExposesTheServingChain) {
  data::MultiViewDataset dataset = MakeDataset(43, 300);
  UnifiedOptions options = AnchorOptions(4, 32);
  StatusOr<AnchorUnifiedResult> got =
      SolveUnifiedAnchors(dataset, options);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  const AnchorModel& model = got->model;
  ASSERT_EQ(model.views.size(), 2u);
  EXPECT_EQ(model.num_clusters, 4u);
  std::size_t total_dims = 0;
  for (const AnchorViewModel& view : model.views) {
    EXPECT_EQ(view.anchors.rows(), 32u);
    EXPECT_EQ(view.anchor_map.rows(), 32u);
    total_dims += view.anchor_map.cols();
  }
  EXPECT_EQ(model.assignment.rows(), total_dims);
  EXPECT_EQ(model.assignment.cols(), 4u);
}

}  // namespace
}  // namespace umvsc::mvsc

// Tests of the eigensolver shape rule: the resolution table, and — the
// property everything above the la layer leans on — that the two paths the
// rule switches between produce identical partitions, so the rule can only
// ever change wall time.

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "eval/metrics.h"
#include "la/lanczos.h"
#include "mvsc/unified.h"

namespace umvsc {
namespace {

la::EigensolveMode Auto(std::size_t n, std::size_t k) {
  return la::ResolveEigensolveMode(la::EigensolveMode::kAuto, n, k);
}

TEST(EigensolveRuleTest, BenchmarkShapesResolveByTheShapeRule) {
  // The (n, c) eigensolve shapes of the paper-scale datasets: only ORL's
  // 40 clusters reach the block path.
  struct Case {
    std::size_t n;
    std::size_t k;
    la::EigensolveMode expected;
  };
  const Case cases[] = {
      {14, 5, la::EigensolveMode::kForceSingle},
      {21, 5, la::EigensolveMode::kForceSingle},
      {36, 10, la::EigensolveMode::kForceSingle},
      {169, 6, la::EigensolveMode::kForceSingle},
      {210, 7, la::EigensolveMode::kForceSingle},
      {2000, 10, la::EigensolveMode::kForceSingle},
      {400, 40, la::EigensolveMode::kForceBlock},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(Auto(c.n, c.k), c.expected) << "n=" << c.n << " k=" << c.k;
  }
}

TEST(EigensolveRuleTest, BelowSixteenIsSingleAtAnySize) {
  for (const std::size_t n : {2u, 50u, 400u, 100000u, 10000000u}) {
    for (std::size_t k = 0; k <= 15; ++k) {
      EXPECT_EQ(Auto(n, k), la::EigensolveMode::kForceSingle)
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(EigensolveRuleTest, SixteenAndAboveIsBlock) {
  for (const std::size_t n : {16u, 400u, 100000u}) {
    for (const std::size_t k : {16u, 17u, 40u, 100u}) {
      EXPECT_EQ(Auto(n, k), la::EigensolveMode::kForceBlock)
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(EigensolveRuleTest, ExplicitRequestWins) {
  for (const std::size_t k : {1u, 5u, 15u, 16u, 40u}) {
    EXPECT_EQ(la::ResolveEigensolveMode(la::EigensolveMode::kForceBlock, 400,
                                        k),
              la::EigensolveMode::kForceBlock);
    EXPECT_EQ(la::ResolveEigensolveMode(la::EigensolveMode::kForceSingle, 400,
                                        k),
              la::EigensolveMode::kForceSingle);
  }
}

TEST(EigensolveRuleTest, AutoDispatchMatchesForcedPathBitwise) {
  // The auto entry points must be pure routers: under a pinned mode they
  // reproduce the corresponding direct solver bit for bit.
  data::MultiViewConfig config;
  config.num_samples = 90;
  config.num_clusters = 3;
  config.views = {{10, data::ViewQuality::kInformative, 0.4}};
  config.cluster_separation = 5.0;
  config.seed = 5;
  auto dataset = data::MakeGaussianMultiView(config);
  ASSERT_TRUE(dataset.ok());
  auto graphs = mvsc::BuildGraphs(*dataset);
  ASSERT_TRUE(graphs.ok());
  const la::CsrMatrix& lap = graphs->laplacians[0];

  la::LanczosOptions options;
  options.tolerance = 3e-6;
  for (const la::EigensolveMode mode :
       {la::EigensolveMode::kForceBlock, la::EigensolveMode::kForceSingle}) {
    StatusOr<la::SymEigenResult> via_auto =
        la::LanczosSmallestAuto(lap, 3, 2.0 + 1e-9, options, mode);
    StatusOr<la::SymEigenResult> direct =
        mode == la::EigensolveMode::kForceBlock
            ? la::BlockLanczosSmallest(lap, 3, 2.0 + 1e-9, options)
            : la::LanczosSmallest(lap, 3, 2.0 + 1e-9, options);
    ASSERT_TRUE(via_auto.ok()) << via_auto.status().ToString();
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(via_auto->eigenvalues[j], direct->eigenvalues[j]);
    }
    for (std::size_t i = 0; i < via_auto->eigenvectors.size(); ++i) {
      ASSERT_EQ(via_auto->eigenvectors.data()[i],
                direct->eigenvectors.data()[i]);
    }
  }
}

// Forced-block and forced-single runs of the full solver must land on the
// SAME partition (ARI exactly 1.0) — the guarantee that lets the shape
// rule choose on wall-time grounds alone. Shapes mirror the small
// paper datasets (3-Sources-scale and a 3-cluster problem).
TEST(EigensolveRuleTest, ForcedPathsProduceIdenticalPartitions) {
  struct Shape {
    std::size_t n;
    std::size_t c;
  };
  for (const Shape shape : {Shape{169, 6}, Shape{150, 3}}) {
    data::MultiViewConfig config;
    config.num_samples = shape.n;
    config.num_clusters = shape.c;
    config.views = {{12, data::ViewQuality::kInformative, 0.4},
                    {8, data::ViewQuality::kWeak, 1.0}};
    config.cluster_separation = 5.0;
    config.seed = 31;
    auto dataset = data::MakeGaussianMultiView(config);
    ASSERT_TRUE(dataset.ok());
    auto graphs = mvsc::BuildGraphs(*dataset);
    ASSERT_TRUE(graphs.ok());

    mvsc::UnifiedOptions options;
    options.num_clusters = shape.c;
    options.seed = 11;

    options.block_lanczos = la::EigensolveMode::kForceBlock;
    StatusOr<mvsc::UnifiedResult> block =
        mvsc::UnifiedMVSC(options).Run(*graphs);
    ASSERT_TRUE(block.ok()) << block.status().ToString();

    options.block_lanczos = la::EigensolveMode::kForceSingle;
    StatusOr<mvsc::UnifiedResult> single =
        mvsc::UnifiedMVSC(options).Run(*graphs);
    ASSERT_TRUE(single.ok()) << single.status().ToString();

    StatusOr<double> ari =
        eval::AdjustedRandIndex(block->labels, single->labels);
    ASSERT_TRUE(ari.ok());
    EXPECT_DOUBLE_EQ(*ari, 1.0)
        << "paths diverged at n=" << shape.n << " c=" << shape.c;
  }
}

}  // namespace
}  // namespace umvsc

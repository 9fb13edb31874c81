#include "mvsc/anchor_assign.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "cluster/anchor_embedding.h"
#include "common/rng.h"
#include "data/standardize.h"
#include "graph/anchors.h"
#include "graph/distance.h"
#include "la/matrix.h"

namespace umvsc::mvsc {
namespace {

la::Matrix RawFeatures(std::size_t n, std::size_t d, std::uint64_t seed) {
  Rng rng(seed);
  la::Matrix x(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      x(i, j) = rng.Gaussian((i % 3) * 2.0 + 0.01 * j, 1.0 + 0.5 * (j % 4));
    }
  }
  return x;
}

// One fitted view the way SolveUnifiedAnchors fits it: standardization,
// anchors, the training graph Z (multi-row GEMM tiles), the anchor map and
// the training embedding U = Z·anchor_map.
struct FittedView {
  la::Matrix raw;
  AnchorViewModel model;
  la::Vector anchor_norms;
  la::CsrMatrix z;
  la::Matrix embedding;
};

FittedView FitView(std::size_t d, std::size_t s) {
  FittedView fv;
  fv.raw = RawFeatures(150, d, 40 + d);
  data::ColumnStandardization(fv.raw, &fv.model.feature_means,
                              &fv.model.feature_inv_stds);
  const la::Matrix x = data::ApplyStandardization(
      fv.raw, fv.model.feature_means, fv.model.feature_inv_stds);
  graph::AnchorOptions aopts;
  aopts.num_anchors = 24;
  aopts.seed = 3;
  StatusOr<la::Matrix> anchors = graph::SelectAnchors(x, aopts);
  UMVSC_CHECK(anchors.ok(), "anchor selection failed");
  fv.model.anchors = std::move(*anchors);
  fv.anchor_norms = graph::RowSquaredNorms(fv.model.anchors);
  graph::AnchorGraphOptions gopts;
  gopts.anchor_neighbors = s;
  gopts.tile_rows = 32;
  StatusOr<la::CsrMatrix> z = graph::BuildAnchorAffinity(x, fv.model.anchors,
                                                         gopts);
  UMVSC_CHECK(z.ok(), "anchor affinity failed");
  fv.z = std::move(*z);
  cluster::AnchorEmbeddingOptions eopts;
  eopts.dims = 5;
  StatusOr<cluster::AnchorEmbeddingResult> emb =
      cluster::AnchorSpectralEmbedding(fv.z, eopts);
  UMVSC_CHECK(emb.ok(), "anchor embedding failed");
  fv.model.anchor_map = std::move(emb->anchor_map);
  fv.embedding = std::move(emb->embedding);
  return fv;
}

// A fitted point and the same point extended as a one-row tile (the serial
// dot branch of graph::AnchorRows) get the same z row and the same u row,
// bit for bit — including views wider than la::kernel's 256-wide kc block,
// where a plain serial dot would differ from the GEMM panel's.
TEST(AnchorAssignTest, TrainingRowsEqualOneRowExtensions) {
  const std::size_t s = 4;
  for (std::size_t d : {std::size_t{8}, std::size_t{300}, std::size_t{600}}) {
    const FittedView fv = FitView(d, s);
    const std::size_t k = fv.model.anchor_map.cols();
    std::vector<std::size_t> cols(s);
    std::vector<double> weights(s);
    std::vector<double> u(k);
    for (std::size_t i = 0; i < fv.raw.rows(); ++i) {
      ExtendAnchorRows(fv.model, fv.anchor_norms, s, fv.raw.RowPtr(i), 1,
                       cols.data(), weights.data(), u.data(), k);
      const std::size_t begin = fv.z.row_offsets()[i];
      for (std::size_t r = 0; r < s; ++r) {
        ASSERT_EQ(cols[r], fv.z.col_indices()[begin + r])
            << "d " << d << " row " << i;
      }
      ASSERT_EQ(std::memcmp(weights.data(), fv.z.values().data() + begin,
                            s * sizeof(double)),
                0)
          << "d " << d << " row " << i;
      ASSERT_EQ(std::memcmp(u.data(), fv.embedding.RowPtr(i),
                            k * sizeof(double)),
                0)
          << "d " << d << " row " << i;
    }
  }
}

// A many-row tile (the GEMM branch) writes the same z rows as the training
// graph, and u into a column block of wider rows, overwriting that block
// and nothing else: the layout of Predict's concatenated coordinates.
TEST(AnchorAssignTest, TileExtensionWritesAStridedBlock) {
  const std::size_t s = 3;
  const FittedView fv = FitView(300, s);
  const std::size_t n = fv.raw.rows();
  const std::size_t k = fv.model.anchor_map.cols();
  const std::size_t stride = k + 2;
  std::vector<std::size_t> cols(n * s);
  std::vector<double> weights(n * s);
  std::vector<double> u(n * stride, 7.0);
  ExtendAnchorRows(fv.model, fv.anchor_norms, s, fv.raw.data(), n,
                   cols.data(), weights.data(), u.data() + 1, stride);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(u[i * stride], 7.0);
    EXPECT_EQ(u[i * stride + k + 1], 7.0);
    EXPECT_EQ(std::memcmp(u.data() + i * stride + 1, fv.embedding.RowPtr(i),
                          k * sizeof(double)),
              0)
        << "row " << i;
    for (std::size_t r = 0; r < s; ++r) {
      EXPECT_EQ(cols[i * s + r], fv.z.col_indices()[i * s + r]);
      EXPECT_EQ(weights[i * s + r], fv.z.values()[i * s + r]);
    }
  }
}

}  // namespace
}  // namespace umvsc::mvsc

// Determinism and memory tests for the bipartite anchor-graph builder:
// SelectAnchors is a pure function of (x, options) regardless of threads,
// and BuildAnchorAffinity emits a CSR bitwise identical at every tile size
// and thread count (the same contract graph_tiled_test pins for the square
// builders). The allocation hook then proves the builder never touches an
// n × n — or even n × m — dense buffer at n = 20,000.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/rng.h"
#include "graph/anchors.h"
#include "graph/distance.h"

namespace {

std::atomic<bool> g_track{false};
std::atomic<std::size_t> g_max_alloc{0};

void Record(std::size_t size) {
  if (!g_track.load(std::memory_order_relaxed)) return;
  std::size_t prev = g_max_alloc.load(std::memory_order_relaxed);
  while (size > prev &&
         !g_max_alloc.compare_exchange_weak(prev, size,
                                            std::memory_order_relaxed)) {
  }
}

}  // namespace

void* operator new(std::size_t size) {
  Record(size);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) {
  Record(size);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new(std::size_t size, std::align_val_t align) {
  Record(size);
  void* p = nullptr;
  const std::size_t a = static_cast<std::size_t>(align);
  if (posix_memalign(&p, a < sizeof(void*) ? sizeof(void*) : a,
                     size == 0 ? 1 : size) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace umvsc::graph {
namespace {

la::Matrix ClusteredFeatures(std::size_t n, std::size_t d,
                             std::uint64_t seed) {
  Rng rng(seed);
  la::Matrix x(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      x(i, j) = rng.Gaussian((i % 4) * 3.0, 1.0);
    }
  }
  return x;
}

void ExpectBitwiseEqual(const la::CsrMatrix& a, const la::CsrMatrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  ASSERT_EQ(a.row_offsets(), b.row_offsets());
  ASSERT_EQ(a.col_indices(), b.col_indices());
  ASSERT_EQ(a.values().size(), b.values().size());
  EXPECT_EQ(std::memcmp(a.values().data(), b.values().data(),
                        a.values().size() * sizeof(double)),
            0);
}

void ExpectBitwiseEqual(const la::Matrix& a, const la::Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        a.rows() * a.cols() * sizeof(double)),
            0);
}

class AllocationScope {
 public:
  AllocationScope() {
    g_max_alloc.store(0, std::memory_order_relaxed);
    g_track.store(true, std::memory_order_relaxed);
  }
  ~AllocationScope() { g_track.store(false, std::memory_order_relaxed); }
  std::size_t max_single_allocation() const {
    return g_max_alloc.load(std::memory_order_relaxed);
  }
};

TEST(AnchorSelectionTest, ValidatesAndShapes) {
  la::Matrix x = ClusteredFeatures(40, 3, 5);
  AnchorOptions options;
  options.num_anchors = 0;
  EXPECT_FALSE(SelectAnchors(x, options).ok());
  options.num_anchors = 41;
  EXPECT_FALSE(SelectAnchors(x, options).ok());
  options.num_anchors = 8;
  for (AnchorSelection sel :
       {AnchorSelection::kUniform, AnchorSelection::kKmeansppRefine}) {
    options.selection = sel;
    StatusOr<la::Matrix> anchors = SelectAnchors(x, options);
    ASSERT_TRUE(anchors.ok());
    EXPECT_EQ(anchors->rows(), 8u);
    EXPECT_EQ(anchors->cols(), 3u);
  }
}

TEST(AnchorSelectionTest, ThreadCountDoesNotChangeAnchors) {
  la::Matrix x = ClusteredFeatures(300, 4, 9);
  AnchorOptions options;
  options.num_anchors = 16;
  options.seed = 21;
  la::Matrix reference;
  {
    ScopedNumThreads serial(1);
    StatusOr<la::Matrix> got = SelectAnchors(x, options);
    ASSERT_TRUE(got.ok());
    reference = *got;
  }
  for (std::size_t threads : {std::size_t{2}, std::size_t{5}, std::size_t{8}}) {
    ScopedNumThreads scoped(threads);
    StatusOr<la::Matrix> got = SelectAnchors(x, options);
    ASSERT_TRUE(got.ok()) << "threads=" << threads;
    ExpectBitwiseEqual(reference, *got);
  }
}

TEST(AnchorSelectionTest, SeedChangesTheDraw) {
  la::Matrix x = ClusteredFeatures(200, 3, 13);
  AnchorOptions options;
  options.num_anchors = 12;
  options.selection = AnchorSelection::kUniform;
  options.seed = 1;
  StatusOr<la::Matrix> a = SelectAnchors(x, options);
  options.seed = 2;
  StatusOr<la::Matrix> b = SelectAnchors(x, options);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(std::memcmp(a->data(), b->data(),
                        a->rows() * a->cols() * sizeof(double)),
            0);
}

TEST(AnchorAffinityTest, RowsAreStochasticSortedAndSparse) {
  la::Matrix x = ClusteredFeatures(150, 4, 17);
  AnchorOptions selection;
  selection.num_anchors = 20;
  StatusOr<la::Matrix> anchors = SelectAnchors(x, selection);
  ASSERT_TRUE(anchors.ok());
  AnchorGraphOptions options;
  options.anchor_neighbors = 6;
  StatusOr<la::CsrMatrix> z = BuildAnchorAffinity(x, *anchors, options);
  ASSERT_TRUE(z.ok());
  EXPECT_EQ(z->rows(), 150u);
  EXPECT_EQ(z->cols(), 20u);
  for (std::size_t i = 0; i < z->rows(); ++i) {
    const std::size_t begin = z->row_offsets()[i];
    const std::size_t end = z->row_offsets()[i + 1];
    ASSERT_EQ(end - begin, 6u);
    double sum = 0.0;
    for (std::size_t p = begin; p < end; ++p) {
      if (p > begin) {
        EXPECT_LT(z->col_indices()[p - 1], z->col_indices()[p]);
      }
      EXPECT_GT(z->values()[p], 0.0);
      sum += z->values()[p];
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(AnchorAffinityTest, TileSizeDoesNotChangeTheGraph) {
  // d = 600 spans three of la::kernel's kc blocks, and tile size 1 runs
  // every row through AnchorRows' serial-dot branch: its bits must match
  // the GEMM panel of every other tiling.
  for (std::size_t d : {std::size_t{3}, std::size_t{600}}) {
    la::Matrix x = ClusteredFeatures(83, d, 19);
    AnchorOptions selection;
    selection.num_anchors = 14;
    StatusOr<la::Matrix> anchors = SelectAnchors(x, selection);
    ASSERT_TRUE(anchors.ok());
    AnchorGraphOptions reference_options;
    StatusOr<la::CsrMatrix> reference =
        BuildAnchorAffinity(x, *anchors, reference_options);
    ASSERT_TRUE(reference.ok());
    for (std::size_t tile : {std::size_t{1}, std::size_t{7}, std::size_t{32},
                             std::size_t{64}, std::size_t{4096}}) {
      AnchorGraphOptions options;
      options.tile_rows = tile;
      StatusOr<la::CsrMatrix> got = BuildAnchorAffinity(x, *anchors, options);
      ASSERT_TRUE(got.ok()) << "d=" << d << " tile=" << tile;
      ExpectBitwiseEqual(*reference, *got);
    }
  }
}

// Reference row rule, written the straightforward way: full argsort by
// (distance, anchor index), bandwidth from the s-th nearest, Gaussian
// weights in rank order scaled by the reciprocal of their sum, emitted in
// ascending anchor order. (std::sort, not std::stable_sort: this binary
// replaces operator new, and stable_sort's nothrow buffer would be freed
// through the replacement.)
void ReferenceRow(const std::vector<double>& d2, std::size_t s,
                  std::vector<std::size_t>* cols,
                  std::vector<double>* weights) {
  std::vector<std::size_t> order(d2.size());
  for (std::size_t j = 0; j < order.size(); ++j) order[j] = j;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return d2[a] != d2[b] ? d2[a] < d2[b] : a < b;
  });
  order.resize(s);
  const double sigma2 = std::max(d2[order[s - 1]], 1e-300);
  std::vector<double> w(s);
  double sum = 0.0;
  for (std::size_t r = 0; r < s; ++r) {
    w[r] = std::exp(-d2[order[r]] / sigma2);
    sum += w[r];
  }
  const double inv = 1.0 / sum;
  for (std::size_t r = 0; r < s; ++r) w[r] *= inv;
  std::vector<std::size_t> rank(s);
  for (std::size_t r = 0; r < s; ++r) rank[r] = r;
  std::sort(rank.begin(), rank.end(),
            [&](std::size_t a, std::size_t b) { return order[a] < order[b]; });
  cols->clear();
  weights->clear();
  for (std::size_t r : rank) {
    cols->push_back(order[r]);
    weights->push_back(w[r]);
  }
}

TEST(AnchorRowsTest, MatchesTheReferenceRuleUnderTies) {
  // One feature on a quarter grid: every Gram-expansion distance is exact,
  // and equal distances (ties) are common.
  Rng rng(99);
  for (std::size_t trial = 0; trial < 50; ++trial) {
    const std::size_t m = 5 + trial % 40;
    const std::size_t s = 1 + trial % std::min<std::size_t>(m, 8);
    const std::size_t rows = 1 + trial % 6;
    la::Matrix anchors(m, 1);
    for (std::size_t j = 0; j < m; ++j) {
      anchors(j, 0) = std::floor(rng.Uniform() * 8.0) * 0.25;
    }
    std::vector<double> x(rows);
    for (double& v : x) v = std::floor(rng.Uniform() * 8.0) * 0.25;
    std::vector<std::size_t> cols(rows * s), ref_cols;
    std::vector<double> weights(rows * s), ref_weights;
    AnchorRows(x.data(), rows, anchors, RowSquaredNorms(anchors), s,
               cols.data(), weights.data());
    for (std::size_t i = 0; i < rows; ++i) {
      std::vector<double> d2(m);
      for (std::size_t j = 0; j < m; ++j) {
        d2[j] = (x[i] - anchors(j, 0)) * (x[i] - anchors(j, 0));
      }
      ReferenceRow(d2, s, &ref_cols, &ref_weights);
      for (std::size_t r = 0; r < s; ++r) {
        EXPECT_EQ(cols[i * s + r], ref_cols[r])
            << "trial " << trial << " row " << i << " slot " << r;
        EXPECT_EQ(weights[i * s + r], ref_weights[r])
            << "trial " << trial << " row " << i << " slot " << r;
      }
    }
  }
}

TEST(AnchorRowsTest, TiesKeepTheSmallerIndex) {
  // Distances 2, 1, 1, 1, 3 from the origin: the two nearest are the tied
  // anchors 1 and 2, with equal weights of 1/2.
  la::Matrix anchors(5, 2);
  const double coords[5][2] = {{1.0, 1.0}, {1.0, 0.0}, {0.0, -1.0},
                               {-1.0, 0.0}, {1.0, std::sqrt(2.0)}};
  for (std::size_t j = 0; j < 5; ++j) {
    anchors(j, 0) = coords[j][0];
    anchors(j, 1) = coords[j][1];
  }
  const double x[2] = {0.0, 0.0};
  std::size_t cols[2];
  double weights[2];
  AnchorRows(x, 1, anchors, RowSquaredNorms(anchors), 2, cols, weights);
  EXPECT_EQ(cols[0], 1u);
  EXPECT_EQ(cols[1], 2u);
  EXPECT_DOUBLE_EQ(weights[0], 0.5);
  EXPECT_DOUBLE_EQ(weights[1], 0.5);
}

TEST(AnchorAffinityTest, ThreadCountDoesNotChangeTheGraph) {
  la::Matrix x = ClusteredFeatures(97, 5, 23);
  AnchorOptions selection;
  selection.num_anchors = 18;
  StatusOr<la::Matrix> anchors = SelectAnchors(x, selection);
  ASSERT_TRUE(anchors.ok());
  la::CsrMatrix reference;
  {
    ScopedNumThreads serial(1);
    AnchorGraphOptions options;
    options.tile_rows = 8;  // several tiles even at one thread
    StatusOr<la::CsrMatrix> got = BuildAnchorAffinity(x, *anchors, options);
    ASSERT_TRUE(got.ok());
    reference = *got;
  }
  for (std::size_t threads : {std::size_t{2}, std::size_t{5}, std::size_t{8}}) {
    ScopedNumThreads scoped(threads);
    AnchorGraphOptions options;
    options.tile_rows = 8;
    StatusOr<la::CsrMatrix> got = BuildAnchorAffinity(x, *anchors, options);
    ASSERT_TRUE(got.ok()) << "threads=" << threads;
    ExpectBitwiseEqual(reference, *got);
  }
}

TEST(AnchorAffinityTest, NearestAnchorDefinitionMatchesBruteForce) {
  la::Matrix x = ClusteredFeatures(60, 3, 29);
  AnchorOptions selection;
  selection.num_anchors = 10;
  StatusOr<la::Matrix> anchors = SelectAnchors(x, selection);
  ASSERT_TRUE(anchors.ok());
  AnchorGraphOptions options;
  options.anchor_neighbors = 4;
  StatusOr<la::CsrMatrix> z = BuildAnchorAffinity(x, *anchors, options);
  ASSERT_TRUE(z.ok());
  // Brute-force per row: the 4 smallest squared distances (ties to the
  // smaller anchor index) with the self-tuning Gaussian row rule.
  for (std::size_t i = 0; i < x.rows(); ++i) {
    std::vector<std::pair<double, std::size_t>> d2;
    for (std::size_t j = 0; j < anchors->rows(); ++j) {
      double s = 0.0;
      for (std::size_t p = 0; p < x.cols(); ++p) {
        const double diff = x(i, p) - (*anchors)(j, p);
        s += diff * diff;
      }
      d2.push_back({s, j});
    }
    std::sort(d2.begin(), d2.end());
    const double sigma2 = std::max(d2[3].first, 1e-300);
    double sum = 0.0;
    for (std::size_t r = 0; r < 4; ++r) {
      sum += std::exp(-d2[r].first / sigma2);
    }
    std::vector<std::pair<std::size_t, double>> expected;
    for (std::size_t r = 0; r < 4; ++r) {
      expected.push_back({d2[r].second, std::exp(-d2[r].first / sigma2) / sum});
    }
    std::sort(expected.begin(), expected.end());
    const std::size_t begin = z->row_offsets()[i];
    for (std::size_t r = 0; r < 4; ++r) {
      EXPECT_EQ(z->col_indices()[begin + r], expected[r].first) << "row " << i;
      EXPECT_NEAR(z->values()[begin + r], expected[r].second, 1e-12)
          << "row " << i;
    }
  }
}

TEST(AnchorMemoryTest, BuilderNeverAllocatesAQuadraticBuffer) {
  const std::size_t n = 20000;
  const std::size_t m = 128;
  la::Matrix x = ClusteredFeatures(n, 8, 31);
  AnchorOptions selection;
  selection.num_anchors = m;
  AnchorGraphOptions options;
  options.anchor_neighbors = 5;

  std::size_t peak = 0;
  {
    AllocationScope scope;
    StatusOr<la::Matrix> anchors = SelectAnchors(x, selection);
    ASSERT_TRUE(anchors.ok());
    StatusOr<la::CsrMatrix> z = BuildAnchorAffinity(x, *anchors, options);
    peak = scope.max_single_allocation();
    ASSERT_TRUE(z.ok());
    EXPECT_EQ(z->rows(), n);
  }
  // The largest legitimate block is the O(n·s) selection/output arrays
  // (a few MB); nothing within a factor 8 of an n × n — and nothing the
  // size of a dense n × m panel either (tile_rows = 128 tiles only).
  EXPECT_LT(peak, n * n * sizeof(double) / 8)
      << "anchor build allocated " << peak << " bytes in one block";
  EXPECT_LT(peak, n * m * sizeof(double) / 2)
      << "anchor build allocated " << peak << " bytes in one block";

  // Positive control on a smaller size: a dense pairwise matrix IS seen by
  // the hook, so a silently broken override cannot fake the bounds above.
  const std::size_t n_small = 1024;
  la::Matrix small = ClusteredFeatures(n_small, 4, 37);
  std::size_t dense_peak = 0;
  {
    AllocationScope scope;
    la::Matrix d2 = PairwiseSquaredDistances(small);
    dense_peak = scope.max_single_allocation();
    ASSERT_EQ(d2.rows(), n_small);
  }
  EXPECT_GE(dense_peak, n_small * n_small * sizeof(double));
}

}  // namespace
}  // namespace umvsc::graph

// Unit tests of the benchmark's own measurement rules.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

#include "common/parallel.h"
#include "data/synthetic.h"
#include "harness.h"
#include "mvsc/unified.h"

namespace perfbench {
namespace {

TEST(TailTest, MaximumBelowElevenSamples) {
  const TailStat tail = Tail({3.0, 9.0, 1.0, 4.0});
  EXPECT_EQ(tail.value, 9.0);
  EXPECT_EQ(tail.percentile, 100.0);
  EXPECT_EQ(tail.samples, 4u);
  EXPECT_EQ(Tail({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}).value, 10.0);
}

TEST(TailTest, LeavesTenSamplesAbove) {
  std::vector<double> values;
  for (int i = 100; i >= 1; --i) values.push_back(i);
  const TailStat tail = Tail(values);
  EXPECT_EQ(tail.value, 90.0);  // 91..100 lie above it
  EXPECT_DOUBLE_EQ(tail.percentile, 90.0);
  EXPECT_EQ(tail.samples, 100u);
  // Eleven samples: the smallest, the only value with ten above it.
  EXPECT_EQ(Tail({5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 4}).value, 4.0);
}

TEST(MedianTest, OddEvenAndEmpty) {
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
}

ScheduleSpec Spec() {
  ScheduleSpec spec;
  spec.rate_per_s = 200.0;
  spec.count = 6000;
  spec.batch_sizes = {1, 16, 256};
  spec.batch_shares = {0.6, 0.3, 0.1};
  spec.num_models = 2;
  return spec;
}

TEST(PoissonScheduleTest, SameSeedSameSchedule) {
  const auto a = PoissonSchedule(Spec(), 7);
  const auto b = PoissonSchedule(Spec(), 7);
  const auto c = PoissonSchedule(Spec(), 8);
  ASSERT_EQ(a.size(), b.size());
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].due_s, b[i].due_s);
    EXPECT_EQ(a[i].batch, b[i].batch);
    EXPECT_EQ(a[i].model, b[i].model);
    differs = differs || a[i].due_s != c[i].due_s;
  }
  EXPECT_TRUE(differs);
}

TEST(PoissonScheduleTest, RateAndMixAsRequested) {
  const ScheduleSpec spec = Spec();
  const auto list = PoissonSchedule(spec, 11);
  ASSERT_EQ(list.size(), spec.count);
  std::map<std::size_t, std::size_t> per_batch;
  std::map<std::pair<std::size_t, std::size_t>, std::size_t> per_cell;
  double previous = 0.0;
  for (const ScheduledRequest& r : list) {
    EXPECT_GT(r.due_s, previous);
    previous = r.due_s;
    ++per_batch[r.batch];
    ++per_cell[{r.batch, r.model}];
  }
  // The mix is exact, split evenly over the models.
  EXPECT_EQ(per_batch[1], 3600u);
  EXPECT_EQ(per_batch[16], 1800u);
  EXPECT_EQ(per_batch[256], 600u);
  EXPECT_EQ((per_cell[{256, 0}]), 300u);
  EXPECT_EQ((per_cell[{256, 1}]), 300u);
  // Mean gap 1/rate: 6000 exponential gaps have a relative standard error
  // of 1/sqrt(6000) ≈ 1.3%, so 5% is a 3.9-sigma band.
  const double rate = static_cast<double>(list.size()) / list.back().due_s;
  EXPECT_NEAR(rate, spec.rate_per_s, 0.05 * spec.rate_per_s);
}

TEST(PoissonScheduleTest, RoundingKeepsTheCount) {
  ScheduleSpec spec = Spec();
  spec.count = 7;
  EXPECT_EQ(PoissonSchedule(spec, 1).size(), 7u);
}

TEST(SelfSecondsTest, SpanMinusUnionOfChildren) {
  std::vector<Span> spans = {
      {"root", 0.0, 10.0, -1},
      {"a", 1.0, 4.0, 0},
      {"b", 3.0, 5.0, 0},    // overlaps a: union 1..5
      {"c", 9.0, 12.0, 0},   // clipped to the root: 9..10
      {"d", 2.0, 3.0, 1},    // grandchild: not a direct child of root
      {"other", 6.0, 8.0, -1},
  };
  EXPECT_DOUBLE_EQ(SelfSeconds(spans, 0), 10.0 - 4.0 - 1.0);
  EXPECT_DOUBLE_EQ(SelfSeconds(spans, 1), 3.0 - 1.0);
  EXPECT_DOUBLE_EQ(SelfSeconds(spans, 5), 2.0);
}

TEST(TraceTest, RecordsNestedSpans) {
  Trace trace;
  {
    ScopedSpan outer(&trace, "outer");
    ScopedSpan inner(&trace, "inner", outer.index());
  }
  const std::vector<Span> spans = trace.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_LE(spans[0].start, spans[1].start);
  EXPECT_GE(spans[0].end, spans[1].end);
  EXPECT_EQ(trace.Durations("inner").size(), 1u);
  ScopedSpan untraced(nullptr, "ignored");
  EXPECT_EQ(untraced.index(), -1);
}

TEST(DigestTest, OrderSensitiveAndChained) {
  const std::uint32_t ab = ExtendDigest(ExtendDigest(0, {0, 1}), {2});
  EXPECT_EQ(ab, ExtendDigest(0, {0, 1, 2}));
  EXPECT_NE(ExtendDigest(0, {0, 1, 2}), ExtendDigest(0, {0, 2, 1}));
}

// The digest of a solve's labels must not depend on the pool size.
std::uint32_t TinyAnchorDigest(std::size_t threads) {
  umvsc::ScopedNumThreads scope(threads);
  umvsc::data::MultiViewConfig config;
  config.name = "tiny";
  config.num_samples = 600;
  config.num_clusters = 4;
  config.cluster_separation = 5.0;
  config.views = {{6, umvsc::data::ViewQuality::kInformative, 1.0, 0.0},
                  {5, umvsc::data::ViewQuality::kInformative, 1.0, 0.0}};
  config.seed = 17;
  auto dataset = umvsc::data::MakeGaussianMultiView(config);
  EXPECT_TRUE(dataset.ok());
  umvsc::mvsc::UnifiedOptions options;
  options.num_clusters = 4;
  options.seed = 3;
  options.anchors.enabled = true;
  options.anchors.num_anchors = 64;
  auto result = umvsc::mvsc::UnifiedMVSC(options).Run(*dataset);
  EXPECT_TRUE(result.ok());
  return result.ok() ? ExtendDigest(0, result->labels) : 0;
}

TEST(DigestTest, SameAtPoolSizeOneAndNproc) {
  const std::uint32_t serial = TinyAnchorDigest(1);
  EXPECT_NE(serial, 0u);
  EXPECT_EQ(serial, TinyAnchorDigest(umvsc::HardwareThreads()));
}

}  // namespace
}  // namespace perfbench

// Large-scale multi-view clustering with the anchor mode of UnifiedMVSC:
// the exact solver builds an n × n k-NN graph per view (O(n²·d) to
// construct), while anchor mode summarizes each view by m anchors and runs
// every eigensolve and every F/R/α update in the m-dimensional space the
// bipartite n × m affinities span — per-point cost stays flat as n grows.
// This example compares the two on growing problem sizes.
//
//   ./large_scale [max_n]

#include <cstdio>
#include <cstdlib>

#include "common/stopwatch.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "mvsc/unified.h"

namespace {

using namespace umvsc;

struct Run {
  double seconds = -1.0;
  double accuracy = -1.0;
};

Run Solve(const data::MultiViewDataset& dataset,
          const mvsc::UnifiedOptions& options) {
  Run run;
  Stopwatch watch;
  StatusOr<mvsc::UnifiedResult> result =
      mvsc::UnifiedMVSC(options).Run(dataset);
  if (!result.ok()) {
    std::fprintf(stderr, "n=%zu %s: %s\n", dataset.NumSamples(),
                 options.anchors.enabled ? "anchor" : "exact",
                 result.status().ToString().c_str());
    return run;
  }
  run.seconds = watch.ElapsedSeconds();
  StatusOr<double> acc =
      eval::ClusteringAccuracy(result->labels, dataset.labels);
  run.accuracy = acc.ok() ? *acc : -1.0;
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t max_n =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 20000;
  const std::size_t k = 5;

  mvsc::UnifiedOptions exact;
  exact.num_clusters = k;
  exact.seed = 2;
  mvsc::UnifiedOptions anchor = exact;
  anchor.anchors.enabled = true;
  anchor.anchors.num_anchors = 256;  // m, regardless of n

  std::printf("%-8s %16s %10s %16s %10s\n", "n", "exact [s]", "ACC",
              "anchor [s]", "ACC");
  for (std::size_t n = 1000; n <= max_n; n *= 4) {
    data::MultiViewConfig config;
    config.name = "large_scale";
    config.num_samples = n;
    config.num_clusters = k;
    config.cluster_separation = 6.0;
    config.views = {{8, data::ViewQuality::kInformative, 1.0},
                    {6, data::ViewQuality::kWeak, 1.0}};
    config.seed = 7;
    StatusOr<data::MultiViewDataset> dataset =
        data::MakeGaussianMultiView(config);
    if (!dataset.ok()) {
      std::fprintf(stderr, "dataset: %s\n",
                   dataset.status().ToString().c_str());
      return 1;
    }

    // The exact path only while its quadratic graph construction stays
    // affordable.
    const Run exact_run = n <= 4000 ? Solve(*dataset, exact) : Run();
    const Run anchor_run = Solve(*dataset, anchor);
    if (anchor_run.seconds < 0.0) return 1;

    if (exact_run.seconds >= 0.0) {
      std::printf("%-8zu %16.2f %10.3f %16.2f %10.3f\n", n, exact_run.seconds,
                  exact_run.accuracy, anchor_run.seconds,
                  anchor_run.accuracy);
    } else {
      std::printf("%-8zu %16s %10s %16.2f %10.3f\n", n, "(skipped)", "-",
                  anchor_run.seconds, anchor_run.accuracy);
    }
  }
  std::printf("\nAnchor mode keeps per-point cost flat (O(n·m·d) per view)\n"
              "while the exact pipeline's graph construction grows "
              "quadratically.\n");
  return 0;
}

// perfbench: one workload per process.
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--workdir DIR]
//
// Prints the run's settings as one JSON line, then the result line
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Exits 1 when any
// operation or check failed, 2 on a usage error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/stopwatch.h"
#include "data/synthetic.h"
#include "mvsc/graphs.h"
#include "mvsc/unified.h"
#include "workloads.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload fit_large|paper_sweep|stream_drift|"
               "serve_mixed [--seed N] [--seconds S] [--trace 0|1] "
               "[--workdir DIR]\n",
               argv0);
  return 2;
}

// A tiny exact solve. The first one in a process pays the lazy start-up
// (thread pool, the eigensolver policy's timed calibration); an identical
// second one does not.
double WarmupSolveSeconds() {
  umvsc::Stopwatch watch;
  umvsc::data::MultiViewConfig config;
  config.name = "warmup";
  config.num_samples = 60;
  config.num_clusters = 3;
  config.cluster_separation = 6.0;
  config.views = {{4, umvsc::data::ViewQuality::kInformative, 1.0, 0.0},
                  {3, umvsc::data::ViewQuality::kInformative, 1.0, 0.0}};
  config.seed = 5;
  auto dataset = umvsc::data::MakeGaussianMultiView(config);
  if (dataset.ok()) {
    auto graphs = umvsc::mvsc::BuildGraphs(*dataset);
    umvsc::mvsc::UnifiedOptions options;
    options.num_clusters = 3;
    if (graphs.ok()) (void)umvsc::mvsc::UnifiedMVSC(options).Run(*graphs);
  }
  return watch.ElapsedSeconds();
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  config.workdir = "perfbench_work";
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(argv[0]);
    const char* value = argv[++i];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--workdir") {
      config.workdir = value;
    } else {
      return Usage(argv[0]);
    }
  }
  perfbench::Outcome (*run)(const perfbench::RunConfig&) = nullptr;
  if (workload == "fit_large") run = perfbench::RunFitLarge;
  if (workload == "paper_sweep") run = perfbench::RunPaperSweep;
  if (workload == "stream_drift") run = perfbench::RunStreamDrift;
  if (workload == "serve_mixed") run = perfbench::RunServeMixed;
  if (run == nullptr) return Usage(argv[0]);

  config.first_warmup_s = WarmupSolveSeconds();
  config.second_warmup_s = WarmupSolveSeconds();
  perfbench::Notes pool;
  perfbench::SpreadPool("start_", &pool);
  const perfbench::Outcome outcome = run(config);
  perfbench::NotePoolBurst("end_", &pool);

  perfbench::Notes header;
  header.AddString("workload", workload);
  header.AddNumber("seed", static_cast<double>(config.seed));
  header.AddNumber("seconds", config.seconds);
  header.AddNumber("trace", config.trace ? 1 : 0);
  header.Add("pool", pool.ToJson());
  header.Add("settings", outcome.notes.ToJson());
  std::printf("%s\n", header.ToJson().c_str());
  perfbench::PrintResult(stdout, outcome);
  return outcome.failed == 0 ? 0 : 1;
}

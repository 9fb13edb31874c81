// Metric assembly, settings notes and pool placement shared by every
// workload.

#if defined(__linux__)
#include <sched.h>
#endif

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "eval/metrics.h"
#include "la/gemm_kernel.h"
#include "la/lanczos.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

// Spins the calling thread until `seconds` have passed.
void BusyFor(double seconds) {
  const auto until =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(seconds));
  while (std::chrono::steady_clock::now() < until) {
  }
}

// Threads a pool-wide parallel region runs on: the caller and its workers.
std::size_t PoolThreads() {
  return std::min(umvsc::DefaultNumThreads(), umvsc::HardwareThreads());
}

// The CPU the calling thread runs on, -1 where the platform cannot tell.
int CurrentCpu() {
#if defined(__linux__)
  return sched_getcpu();
#else
  return -1;
#endif
}

// One pool-wide burst: a span of 2 ms busy work per pool thread. Returns
// its wall time in ms; `*distinct` is the number of CPUs the spans ran on
// (all of them where the platform cannot tell).
double PoolBurstMs(std::size_t* distinct) {
  const std::size_t threads = PoolThreads();
  std::vector<int> cpus(threads, -1);
  umvsc::Stopwatch watch;
  umvsc::ParallelFor(0, threads, 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      BusyFor(0.002);
      cpus[i] = CurrentCpu();
    }
  });
  const double ms = watch.ElapsedSeconds() * 1e3;
  std::sort(cpus.begin(), cpus.end());
  *distinct = cpus.front() < 0
                  ? threads
                  : static_cast<std::size_t>(
                        std::unique(cpus.begin(), cpus.end()) - cpus.begin());
  return ms;
}

// True when `bursts` bursts in a row each ran on as many CPUs as the pool
// has threads, in under 1.5× one span's time.
bool PoolSpread(int bursts) {
  for (int i = 0; i < bursts; ++i) {
    std::size_t distinct = 0;
    if (PoolBurstMs(&distinct) > 3.0 || distinct < PoolThreads()) {
      return false;
    }
  }
  return true;
}

}  // namespace

void NotePoolBurst(const std::string& prefix, Notes* notes) {
  std::size_t distinct = 0;
  notes->AddNumber("pool_burst_" + prefix + "ms", PoolBurstMs(&distinct));
  notes->AddNumber("pool_burst_" + prefix + "cpus",
                   static_cast<double>(distinct));
}

void SpreadPool(const std::string& prefix, Notes* notes) {
  NotePoolBurst(prefix + "cold_", notes);
  umvsc::Stopwatch watch;
  std::size_t rounds = 0;
  while (PoolThreads() > 1 && rounds < 4 &&
         (rounds == 0 || !PoolSpread(5))) {
    umvsc::ParallelFor(0, PoolThreads(), 1,
                       [](std::size_t begin, std::size_t end) {
                         for (std::size_t i = begin; i < end; ++i) {
                           BusyFor(1.0);
                         }
                       });
    ++rounds;
  }
  notes->AddNumber("pool_" + prefix + "spread_rounds",
                   static_cast<double>(rounds));
  notes->AddNumber("pool_" + prefix + "spread_s", watch.ElapsedSeconds());
  NotePoolBurst(prefix + "warm_", notes);
}

std::size_t Rounds(double seconds) {
  return static_cast<std::size_t>(
      std::max(1.0, std::floor(seconds / kNominalSeconds + 0.5)));
}

const std::vector<LayerMetric>& PerLayerMetrics() {
  static const std::vector<LayerMetric> kMetrics = {
      {"la.lazy_init_s", "s"},
      {"la.block_path_shapes", "count"},
      {"trace.untraced_throughput_per_s", "1/s"},
      {"trace.traced_throughput_per_s", "1/s"},
      {"data.standardize_s", "s"},
      {"graph.select_anchors_s", "s"},
      {"graph.anchor_affinity_s", "s"},
      {"cluster.anchor_embedding_s", "s"},
      {"mvsc.joint_basis_s", "s"},
      {"mvsc.reduced_solve_s", "s"},
      {"trace.stage_coverage", "ratio"},
      {"cluster.discretize_call_s", "s"},
      {"mvsc.iterations", "count"},
      {"mvsc.converged_fits", "count"},
      {"la.lanczos_matvecs", "count"},
      {"exec.queue_wait_ms", "ms"},
      {"exec.job_run_ms", "ms"},
      {"exec.stage_cache_hit_ratio", "ratio"},
      {"mvsc.build_graphs_s", "s"},
      {"mvsc.unified_run_s", "s"},
      {"stream.ingest_incremental_ms", "ms"},
      {"stream.ingest_full_ms", "ms"},
      {"stream.full_resolves", "count"},
      {"stream.stationary_resolves", "count"},
      {"stream.lanczos_matvecs", "count"},
      {"serve.registry_get_us", "us"},
      {"serve.assign_b1_us", "us"},
      {"serve.assign_point_us", "us"},
      {"serve.model_swap_ms", "ms"},
      {"serve.queue_wait_ms", "ms"},
      {"serve.generator_late_ms", "ms"},
  };
  return kMetrics;
}

double Ari(const std::vector<std::size_t>& labels,
           const std::vector<std::size_t>& truth) {
  umvsc::StatusOr<double> ari = umvsc::eval::AdjustedRandIndex(labels, truth);
  return ari.ok() ? *ari : 0.0;
}

bool LabelsValid(const std::vector<std::size_t>& labels, std::size_t n,
                 std::size_t num_clusters) {
  return labels.size() == n &&
         std::all_of(labels.begin(), labels.end(),
                     [&](std::size_t l) { return l < num_clusters; });
}

void Finish(const RunConfig& config, const Measured& measured,
            Outcome* outcome) {
  Notes& notes = outcome->notes;
  notes.AddNumber("nproc", static_cast<double>(umvsc::HardwareThreads()));
  notes.AddNumber("pool_threads",
                  static_cast<double>(umvsc::DefaultNumThreads()));
  notes.AddString("simd_backend", umvsc::la::kernel::ActiveBackendName());
  notes.AddString("build_type", PERFBENCH_BUILD_TYPE);
  std::string paths = "[";
  std::size_t block_shapes = 0;
  std::vector<std::pair<std::size_t, std::size_t>> shapes =
      measured.eigensolve_shapes;
  std::sort(shapes.begin(), shapes.end());
  shapes.erase(std::unique(shapes.begin(), shapes.end()), shapes.end());
  for (const auto& [n, k] : shapes) {
    const bool block = umvsc::la::ResolveEigensolveMode(
                           umvsc::la::EigensolveMode::kAuto, n, k) ==
                       umvsc::la::EigensolveMode::kForceBlock;
    block_shapes += block ? 1 : 0;
    if (paths.size() > 1) paths += ", ";
    paths += "{\"n\": " + std::to_string(n) + ", \"k\": " +
             std::to_string(k) + ", \"path\": \"" +
             (block ? "block" : "single") + "\"}";
  }
  notes.Add("eigensolve_paths", paths + "]");
  char digest[16];
  std::snprintf(digest, sizeof(digest), "%08x", outcome->digest);
  notes.AddString("label_digest", digest);
  notes.AddNumber("quality", measured.quality);

  const double throughput = measured.timed_seconds > 0.0
                                ? measured.work_units / measured.timed_seconds
                                : 0.0;
  if (!config.trace) {
    const TailStat tail = Tail(measured.latencies_ms);
    notes.AddNumber("latency_samples", static_cast<double>(tail.samples));
    notes.AddNumber("latency_tail_percentile", tail.percentile);
    notes.AddNumber("setup_repeats",
                    static_cast<double>(measured.setup_seconds.size()));
    outcome->Add("setup_s",
                 config.first_warmup_s + Median(measured.setup_seconds), "s");
    outcome->Add("peak_rss_mb", umvsc::bench::PeakRssKb() / 1024.0, "MB");
    outcome->Add("latency_p50_ms", Median(measured.latencies_ms), "ms");
    outcome->Add("latency_tail_ms", tail.value, "ms");
    outcome->Add("throughput_per_s", throughput, "1/s");
    outcome->Add("quality", measured.quality, "score");
    return;
  }
  LayerValues layers = measured.layers;
  layers["la.lazy_init_s"] = config.first_warmup_s - config.second_warmup_s;
  layers["la.block_path_shapes"] = static_cast<double>(block_shapes);
  layers["trace.untraced_throughput_per_s"] = throughput;
  const double traced = measured.traced_seconds > 0.0
                            ? measured.work_units / measured.traced_seconds
                            : 0.0;
  layers["trace.traced_throughput_per_s"] = traced;
  notes.AddNumber("tracing_overhead_pct",
                  throughput > 0.0 ? 100.0 * (throughput - traced) / throughput
                                   : 0.0);
  for (const LayerMetric& metric : PerLayerMetrics()) {
    const auto it = layers.find(metric.name);
    outcome->Add(metric.name, it != layers.end() ? it->second : 0.0,
                 metric.unit);
  }
}

}  // namespace perfbench

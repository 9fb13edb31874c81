// paper_sweep: a fig2-shaped grid of exact-path solves submitted all at
// once to exec::JobExecutor, with the simulation and per-view graphs of
// each (dataset, seed) computed once through the executor's StageCache.
// The only workload that exercises exec, the n × n kNN graphs and the
// n × n Lanczos/GPI path; ORL's c = 40 takes the block Lanczos path.
// Work unit: jobs. Latency: submit → done. Quality: mean ACC.

#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "exec/executor.h"
#include "mvsc/graphs.h"
#include "mvsc/unified.h"
#include "workloads.h"

namespace perfbench {

namespace {

using umvsc::Status;
using umvsc::StatusOr;
using Clock = std::chrono::steady_clock;
namespace mvsc = umvsc::mvsc;

// bench/multi_job's datasets plus ORL, at their published sizes.
const char* const kDatasets[] = {"MSRC-v1", "Handwritten", "3-Sources", "ORL"};
constexpr double kScale = 1.0;
constexpr std::size_t kDatasetSeedsPerRound = 2;
constexpr std::size_t kSetupRepeats = 3;

struct SweepJob {
  std::string dataset;
  std::uint64_t seed = 0;
  double beta = 1.0;
  double gamma = 2.0;
};

// The fig2 grid per (dataset, seed): a β sweep at γ = 2 and a γ sweep at
// β = 1 — 12 cells.
std::vector<SweepJob> MakeJobs(std::uint64_t workload_seed,
                               std::size_t rounds) {
  const double betas[] = {1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3};
  const double gammas[] = {1.2, 1.5, 3.0, 5.0, 8.0};
  std::vector<SweepJob> jobs;
  for (std::size_t s = 0; s < rounds * kDatasetSeedsPerRound; ++s) {
    const std::uint64_t seed = 1 + MixSeed(workload_seed, s) % 1000000000;
    for (const char* name : kDatasets) {
      for (double beta : betas) jobs.push_back({name, seed, beta, 2.0});
      for (double gamma : gammas) jobs.push_back({name, seed, 1.0, gamma});
    }
  }
  return jobs;
}

struct SweepStage {
  umvsc::data::MultiViewDataset dataset;
  mvsc::MultiViewGraphs graphs;
};

struct JobRecord {
  double submit = 0.0;  // seconds since the sweep started
  double start = 0.0;
  double end = 0.0;
  std::vector<std::size_t> labels;
  double accuracy = 0.0;
  std::size_t n = 0;
  std::size_t c = 0;
  std::size_t iterations = 0;
  std::size_t matvecs = 0;
  bool converged = false;
  bool ok = false;
};

struct SweepPass {
  std::vector<JobRecord> records;
  double seconds = 0.0;
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
};

std::shared_ptr<const SweepStage> BuildStage(const SweepJob& job, Trace* trace,
                                             int parent) {
  auto stage = std::make_shared<SweepStage>();
  StatusOr<umvsc::data::MultiViewDataset> dataset =
      umvsc::data::SimulateBenchmark(job.dataset, job.seed, kScale);
  if (!dataset.ok()) throw std::runtime_error(dataset.status().ToString());
  stage->dataset = *std::move(dataset);
  ScopedSpan span(trace, "mvsc.build_graphs", parent);
  StatusOr<mvsc::MultiViewGraphs> graphs = mvsc::BuildGraphs(stage->dataset);
  if (!graphs.ok()) throw std::runtime_error(graphs.status().ToString());
  stage->graphs = *std::move(graphs);
  return stage;
}

SweepPass RunSweep(const std::vector<SweepJob>& jobs, std::size_t workers,
                   std::size_t budget, Trace* trace) {
  SweepPass pass;
  pass.records.resize(jobs.size());
  const Clock::time_point origin = Clock::now();
  const auto since = [origin] {
    return std::chrono::duration<double>(Clock::now() - origin).count();
  };
  umvsc::exec::JobExecutor::Options options;
  options.num_workers = workers;
  umvsc::exec::JobExecutor executor(options);
  std::vector<umvsc::exec::JobHandle> handles;
  handles.reserve(jobs.size());
  for (std::size_t idx = 0; idx < jobs.size(); ++idx) {
    umvsc::exec::JobSpec spec;
    spec.name = jobs[idx].dataset;
    spec.thread_budget = budget;
    spec.work = [&jobs, &pass, &since, trace,
                 idx](umvsc::exec::JobContext& context) -> Status {
      const SweepJob& job = jobs[idx];
      JobRecord& record = pass.records[idx];
      record.start = since();
      ScopedSpan job_span(trace, "exec.job");
      const std::string key = job.dataset + "|" + std::to_string(job.seed);
      std::shared_ptr<const SweepStage> stage =
          context.stages().Get<SweepStage>(
              key, [&] { return BuildStage(job, trace, job_span.index()); });
      mvsc::UnifiedOptions solve;
      solve.num_clusters = stage->dataset.NumClusters();
      solve.beta = job.beta;
      solve.gamma = job.gamma;
      solve.seed = job.seed;
      solve.hooks = context.hooks();
      StatusOr<mvsc::UnifiedResult> result = [&] {
        ScopedSpan span(trace, "mvsc.unified_run", job_span.index());
        return mvsc::UnifiedMVSC(solve).Run(stage->graphs);
      }();
      record.end = since();
      if (!result.ok()) return result.status();
      record.n = stage->dataset.NumSamples();
      record.c = solve.num_clusters;
      record.iterations = result->iterations;
      record.matvecs = result->lanczos_matvecs;
      record.converged = result->converged;
      StatusOr<double> acc = umvsc::eval::ClusteringAccuracy(
          result->labels, stage->dataset.labels);
      record.accuracy = acc.ok() ? *acc : 0.0;
      record.ok = acc.ok() && LabelsValid(result->labels, record.n, record.c);
      record.labels = std::move(result->labels);
      return Status::OK();
    };
    pass.records[idx].submit = since();
    handles.push_back(executor.Submit(std::move(spec)));
  }
  for (std::size_t idx = 0; idx < handles.size(); ++idx) {
    if (!handles[idx].Await().ok()) pass.records[idx].ok = false;
  }
  pass.seconds = since();
  pass.cache_hits = executor.stages().hits();
  pass.cache_misses = executor.stages().misses();
  return pass;
}

}  // namespace

Outcome RunPaperSweep(const RunConfig& config) {
  Outcome outcome;
  Measured measured;
  const std::size_t nproc = umvsc::DefaultNumThreads();
  const std::size_t workers = nproc;
  const std::size_t budget = 1;
  outcome.notes.AddString("executor", std::to_string(workers) + " workers x " +
                                          std::to_string(budget) + " threads");

  // Set-up: the job list and an idle executor, several times. Simulation
  // and graphs are per-job work (StageCache misses), not set-up.
  std::vector<SweepJob> jobs;
  for (std::size_t rep = 0; rep < kSetupRepeats; ++rep) {
    const Clock::time_point t0 = Clock::now();
    jobs = MakeJobs(config.seed, Rounds(config.seconds));
    umvsc::exec::JobExecutor::Options options;
    options.num_workers = workers;
    { umvsc::exec::JobExecutor idle(options); }
    measured.setup_seconds.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
  }
  outcome.notes.AddNumber("jobs", static_cast<double>(jobs.size()));
  outcome.notes.AddString("loop", "all jobs submitted at once");

  const SweepPass pass = RunSweep(jobs, workers, budget, nullptr);
  measured.timed_seconds = pass.seconds;
  double acc_sum = 0.0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobRecord& record = pass.records[i];
    if (!outcome.Check(record.ok, "job " + std::to_string(i) + " (" +
                                      jobs[i].dataset + ") valid labels")) {
      continue;
    }
    measured.latencies_ms.push_back((record.end - record.submit) * 1e3);
    acc_sum += record.accuracy;
    outcome.digest = ExtendDigest(outcome.digest, record.labels);
    measured.work_units += 1.0;
    measured.eigensolve_shapes.emplace_back(record.n, record.c);
  }
  measured.quality = acc_sum / static_cast<double>(jobs.size());
  outcome.Check(measured.quality > 0.5, "mean ACC above 0.5");

  if (config.trace) {
    Trace trace;
    const SweepPass traced = RunSweep(jobs, workers, budget, &trace);
    measured.traced_seconds = traced.seconds;
    LayerValues& layers = measured.layers;
    std::vector<double> waits;
    std::vector<double> runs;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const JobRecord& record = traced.records[i];
      outcome.Check(record.ok && record.labels == pass.records[i].labels,
                    "job " + std::to_string(i) +
                        ": traced labels equal untraced");
      waits.push_back((record.start - record.submit) * 1e3);
      runs.push_back((record.end - record.start) * 1e3);
      layers["mvsc.iterations"] += static_cast<double>(record.iterations);
      layers["mvsc.converged_fits"] += record.converged ? 1.0 : 0.0;
      layers["la.lanczos_matvecs"] += static_cast<double>(record.matvecs);
    }
    layers["exec.queue_wait_ms"] = Median(waits);
    layers["exec.job_run_ms"] = Median(runs);
    layers["exec.stage_cache_hit_ratio"] =
        static_cast<double>(traced.cache_hits) /
        static_cast<double>(traced.cache_hits + traced.cache_misses);
    layers["mvsc.build_graphs_s"] = trace.Total("mvsc.build_graphs");
    layers["mvsc.unified_run_s"] = trace.Total("mvsc.unified_run");
  }
  Finish(config, measured, &outcome);
  return outcome;
}

}  // namespace perfbench

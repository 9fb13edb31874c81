// fit_large: a closed loop of back-to-back anchor-mode UnifiedMVSC::Run
// fits at n = 200 000 (2 views of dims 8 and 6, c = 5, 256 anchors, s = 5).
// Most of the time goes to graph, cluster and the reduced solve; exec,
// serve and stream are not called. Work unit: points clustered. Quality:
// mean ARI against the generator's ground truth.
//
// The traced run replays mvsc::SolveUnifiedAnchors stage by stage through
// the layers' public functions, with one span per stage, and checks the
// replay's labels against Run's bit for bit.

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "cluster/anchor_embedding.h"
#include "cluster/rotation.h"
#include "common/stopwatch.h"
#include "data/standardize.h"
#include "data/synthetic.h"
#include "graph/anchors.h"
#include "la/ops.h"
#include "mvsc/reduced_solve.h"
#include "mvsc/unified.h"
#include "workloads.h"

namespace perfbench {

namespace {

using umvsc::StatusOr;
using umvsc::Stopwatch;
namespace data = umvsc::data;
namespace la = umvsc::la;
namespace mvsc = umvsc::mvsc;

constexpr std::size_t kPoints = 200000;
constexpr std::size_t kClusters = 5;
// Generator seeds in every run: 200071 is the n = 200 000 seed of the scale
// sweep, which hits the 50-iteration cap unconverged at ARI 0.84 (ROADMAP
// item 4); 1–3 converge in a few iterations. Each round adds one seed
// derived from the workload seed.
constexpr std::uint64_t kReferenceSeeds[] = {200071, 1, 2, 3};
constexpr std::size_t kSetupRepeats = 3;

data::MultiViewDataset MakeDataset(std::uint64_t generator_seed) {
  data::MultiViewConfig config;
  config.name = "fit_large";
  config.num_samples = kPoints;
  config.num_clusters = kClusters;
  config.cluster_separation = 6.0;
  config.views = {{8, data::ViewQuality::kInformative, 1.0, 0.0},
                  {6, data::ViewQuality::kInformative, 1.0, 0.0}};
  config.seed = generator_seed;
  StatusOr<data::MultiViewDataset> dataset = data::MakeGaussianMultiView(config);
  return dataset.ok() ? *std::move(dataset) : data::MultiViewDataset{};
}

mvsc::UnifiedOptions FitOptions() {
  mvsc::UnifiedOptions options;
  options.num_clusters = kClusters;
  options.seed = 3;
  options.anchors.enabled = true;
  options.anchors.num_anchors = 256;
  options.anchors.anchor_neighbors = 5;
  return options;
}

// Ẑ = Z·Λ^{−1/2} on Z's sparsity pattern (anchor_unified.cc's private
// helper, restated from the public CSR accessors).
la::CsrMatrix NormalizeColumns(const la::CsrMatrix& z, const la::Vector& mass) {
  la::Vector inv_sqrt(z.cols(), 0.0);
  for (std::size_t j = 0; j < z.cols(); ++j) {
    inv_sqrt[j] = mass[j] > 0.0 ? 1.0 / std::sqrt(mass[j]) : 0.0;
  }
  std::vector<std::size_t> offsets = z.row_offsets();
  std::vector<std::size_t> cols = z.col_indices();
  std::vector<double> vals = z.values();
  for (std::size_t e = 0; e < vals.size(); ++e) vals[e] *= inv_sqrt[cols[e]];
  return la::CsrMatrix::FromParts(z.rows(), z.cols(), std::move(offsets),
                                  std::move(cols), std::move(vals));
}

// mvsc::SolveUnifiedAnchors (standardize on, as Run calls it) replayed
// through public calls with one span per stage under `parent`.
StatusOr<mvsc::UnifiedResult> StagedFit(const data::MultiViewDataset& dataset,
                                        const mvsc::UnifiedOptions& options,
                                        Trace* trace, int parent) {
  const std::size_t num_views = dataset.NumViews();
  const std::size_t c = options.num_clusters;
  const std::size_t m = options.anchors.num_anchors;
  const std::size_t k_view = std::min(c + 2, m);
  mvsc::UnifiedResult result;
  std::vector<la::Matrix> embeddings(num_views);
  std::vector<la::CsrMatrix> zhat(num_views);
  for (std::size_t v = 0; v < num_views; ++v) {
    la::Matrix x;
    {
      ScopedSpan span(trace, "data.standardize", parent);
      if (v == 0) UMVSC_RETURN_IF_ERROR(dataset.Validate());
      la::Vector means;
      la::Vector inv_stds;
      data::ColumnStandardization(dataset.views[v], &means, &inv_stds);
      x = data::ApplyStandardization(dataset.views[v], means, inv_stds);
    }
    StatusOr<la::Matrix> anchors = [&] {
      ScopedSpan span(trace, "graph.select_anchors", parent);
      umvsc::graph::AnchorOptions aopts;
      aopts.num_anchors = m;
      aopts.selection = options.anchors.selection;
      aopts.seed = options.seed + 211 * (v + 1);
      return umvsc::graph::SelectAnchors(x, aopts);
    }();
    if (!anchors.ok()) return anchors.status();
    StatusOr<la::CsrMatrix> z = [&] {
      ScopedSpan span(trace, "graph.anchor_affinity", parent);
      umvsc::graph::AnchorGraphOptions gopts;
      gopts.anchor_neighbors = options.anchors.anchor_neighbors;
      gopts.tile_rows = options.anchors.tile_rows;
      return umvsc::graph::BuildAnchorAffinity(x, *anchors, gopts);
    }();
    if (!z.ok()) return z.status();
    {
      ScopedSpan span(trace, "cluster.anchor_embedding", parent);
      umvsc::cluster::AnchorEmbeddingOptions eopts;
      eopts.dims = k_view;
      eopts.mode = options.block_lanczos;
      eopts.seed = options.seed + 17;
      eopts.matvec_count = &result.lanczos_matvecs;
      StatusOr<umvsc::cluster::AnchorEmbeddingResult> emb =
          umvsc::cluster::AnchorSpectralEmbedding(*z, eopts);
      if (!emb.ok()) return emb.status();
      embeddings[v] = std::move(emb->embedding);
      zhat[v] = NormalizeColumns(*z, emb->anchor_mass);
    }
  }
  std::vector<la::CsrMatrix> reduced(num_views);
  la::Matrix basis;
  {
    ScopedSpan span(trace, "mvsc.joint_basis", parent);
    const la::Matrix concat = la::HConcat(embeddings);
    embeddings.clear();
    la::Matrix mix;
    StatusOr<la::Matrix> basis_or = mvsc::JointOrthonormalBasis(
        concat, c, &mix, options.hooks.batcher);
    if (!basis_or.ok()) return basis_or.status();
    basis = std::move(*basis_or);
    const la::Matrix btb = la::Gram(basis);
    for (std::size_t v = 0; v < num_views; ++v) {
      const la::Matrix e = zhat[v].Transposed().Multiply(basis);
      la::Matrix h = la::Add(btb, la::Gram(e), -1.0);
      h.Symmetrize();
      reduced[v] = la::CsrMatrix::FromDense(h);
    }
    zhat.clear();
  }
  {
    ScopedSpan span(trace, "mvsc.reduced_solve", parent);
    StatusOr<mvsc::ReducedSolveState> state = mvsc::SolveReducedAlternation(
        reduced, basis, options, mvsc::ReducedSolveControls{}, &result);
    if (!state.ok()) return state.status();
  }
  return result;
}

}  // namespace

Outcome RunFitLarge(const RunConfig& config) {
  Outcome outcome;
  Measured measured;
  std::vector<std::uint64_t> generator_seeds(std::begin(kReferenceSeeds),
                                             std::end(kReferenceSeeds));
  const std::size_t rounds = Rounds(config.seconds);
  for (std::size_t r = 0; r < rounds; ++r) {
    generator_seeds.push_back(1000 + MixSeed(config.seed, r) % 1000000000);
  }
  std::string seed_list = "[";
  for (std::uint64_t s : generator_seeds) {
    seed_list += (seed_list.size() > 1 ? ", " : "") + std::to_string(s);
  }
  outcome.notes.Add("generator_seeds", seed_list + "]");
  outcome.notes.AddString("loop", "closed, 1 client");

  // Set-up: generate every dataset, several times; the last set is used.
  std::vector<data::MultiViewDataset> datasets(generator_seeds.size());
  for (std::size_t rep = 0; rep < kSetupRepeats; ++rep) {
    Stopwatch watch;
    for (std::size_t i = 0; i < generator_seeds.size(); ++i) {
      datasets[i] = MakeDataset(generator_seeds[i]);
    }
    measured.setup_seconds.push_back(watch.ElapsedSeconds());
  }

  const mvsc::UnifiedOptions options = FitOptions();
  const mvsc::UnifiedMVSC solver(options);
  std::vector<std::vector<std::size_t>> labels(datasets.size());
  // A traced run keeps each Run result for the per-layer counts and the
  // standalone discretization of its embedding.
  std::vector<mvsc::UnifiedResult> results(config.trace ? datasets.size()
                                                        : 0);
  double ari_sum = 0.0;
  for (std::size_t i = 0; i < datasets.size(); ++i) {
    Stopwatch watch;
    StatusOr<mvsc::UnifiedResult> fit = solver.Run(datasets[i]);
    const double seconds = watch.ElapsedSeconds();
    measured.timed_seconds += seconds;
    measured.latencies_ms.push_back(seconds * 1e3);
    const std::string what = "fit " + std::to_string(generator_seeds[i]);
    if (!outcome.Check(fit.ok() && LabelsValid(fit->labels, kPoints, kClusters),
                       what + " returned no valid labels")) {
      continue;
    }
    labels[i] = fit->labels;
    if (config.trace) results[i] = *std::move(fit);
    ari_sum += Ari(labels[i], datasets[i].labels);
    outcome.digest = ExtendDigest(outcome.digest, labels[i]);
    measured.work_units += static_cast<double>(kPoints);
  }
  measured.quality = ari_sum / static_cast<double>(datasets.size());
  outcome.Check(measured.quality > 0.5, "mean ARI above 0.5");
  std::string fit_ms = "[";
  for (double ms : measured.latencies_ms) {
    fit_ms += (fit_ms.size() > 1 ? ", " : "") + JsonNumber(ms);
  }
  outcome.notes.Add("fit_ms", fit_ms + "]");
  const std::size_t p = datasets.front().NumViews() * (kClusters + 2);
  measured.eigensolve_shapes = {{p, kClusters}};

  if (config.trace) {
    Trace trace;
    LayerValues& layers = measured.layers;
    for (std::size_t i = 0; i < datasets.size(); ++i) {
      if (labels[i].empty()) continue;  // the fit failed, already counted
      const std::string what = "fit " + std::to_string(generator_seeds[i]);
      const mvsc::UnifiedResult& run_result = results[i];
      layers["mvsc.iterations"] += static_cast<double>(run_result.iterations);
      layers["mvsc.converged_fits"] += run_result.converged ? 1.0 : 0.0;
      layers["la.lanczos_matvecs"] +=
          static_cast<double>(run_result.lanczos_matvecs);
      {
        ScopedSpan span(&trace, "cluster.discretize_call");
        umvsc::cluster::RotationOptions rotation;
        rotation.seed = options.seed + 31;
        rotation.restarts = 8;
        rotation.scale_indicator = options.scale_indicator;
        outcome.Check(
            umvsc::cluster::DiscretizeEmbedding(run_result.embedding, rotation)
                .ok(),
            what + ": standalone discretization");
      }
      StatusOr<mvsc::UnifiedResult> staged = [&] {
        ScopedSpan replica(&trace, "fit_replica");
        return StagedFit(datasets[i], options, &trace, replica.index());
      }();
      outcome.Check(staged.ok() && staged->labels == run_result.labels,
                    what + ": staged replay labels equal Run labels");
    }
    // Run itself is timed by the untraced pass, which has no spans inside.
    const double run_total = measured.timed_seconds;
    layers["mvsc.unified_run_s"] = run_total;
    double staged_total = 0.0;
    for (const char* stage :
         {"data.standardize", "graph.select_anchors", "graph.anchor_affinity",
          "cluster.anchor_embedding", "mvsc.joint_basis",
          "mvsc.reduced_solve"}) {
      const double seconds = trace.Total(stage);
      layers[std::string(stage) + "_s"] = seconds;
      staged_total += seconds;
    }
    // Coverage: the stage spans' share of each replay span, through the
    // self-time rule (span minus the union of its children).
    const std::vector<Span> spans = trace.spans();
    double replay_total = 0.0;
    double replay_self = 0.0;
    for (std::size_t s = 0; s < spans.size(); ++s) {
      if (spans[s].name != "fit_replica") continue;
      replay_total += spans[s].seconds();
      replay_self += SelfSeconds(spans, s);
    }
    const double coverage =
        replay_total > 0.0 ? 1.0 - replay_self / replay_total : 0.0;
    // The per-layer numbers are read off the staged replays, so the traced
    // throughput is the replays' rate: points per replay second.
    measured.traced_seconds = replay_total;
    layers["trace.stage_coverage"] = coverage;
    outcome.Check(coverage >= 0.95, "stage spans cover >= 95% of each fit");
    layers["cluster.discretize_call_s"] =
        Median(trace.Durations("cluster.discretize_call"));
    outcome.notes.AddNumber("replay_vs_run_wall",
                            replay_total / run_total);
    outcome.notes.AddNumber("stages_vs_run_wall",
                            staged_total / run_total);
  }
  Finish(config, measured, &outcome);
  return outcome;
}

}  // namespace perfbench

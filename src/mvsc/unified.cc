#include "mvsc/unified.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/parallel.h"
#include "la/lanczos.h"
#include "la/ops.h"
#include "mvsc/anchor_unified.h"
#include "mvsc/unified_internal.h"

namespace umvsc::mvsc {

namespace {

constexpr double kTraceFloor = 1e-12;

}  // namespace

// The shared solver blocks below are declared in unified_internal.h so the
// reduced anchor path (anchor_unified.cc) runs the SAME update semantics.
namespace internal {

// Per-view traces Tr(Fᵀ L_v F). Each view's trace is independent and lands
// in its own slot, so the fan-out is write-disjoint and deterministic. Runs
// every outer iteration — with one view per core this is the cheapest win
// of the whole solver. (Nested QuadraticTrace calls degrade to serial.)
std::vector<double> ViewTraces(const std::vector<la::CsrMatrix>& laplacians,
                               const la::Matrix& f) {
  std::vector<double> traces(laplacians.size());
  ParallelFor(0, laplacians.size(), 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t v = lo; v < hi; ++v) {
      traces[v] = la::QuadraticTrace(laplacians[v], f);
    }
  });
  return traces;
}

// Per-view smoothness h_v = Tr(Fᵀ L_v F) − offset_v, floored away from zero
// so the weight updates stay finite on views the embedding fits perfectly.
// With the kExcess normalization the offsets are each view's own spectral
// optimum, making the weights scale-invariant across views.
std::vector<double> ViewSmoothness(const std::vector<double>& traces,
                                   const std::vector<double>& offsets) {
  std::vector<double> h(traces.size());
  for (std::size_t v = 0; v < traces.size(); ++v) {
    h[v] = std::max(kTraceFloor, traces[v] - offsets[v]);
  }
  return h;
}

// Dispatches a smallest-eigenpairs solve through the block-Lanczos panel
// path or the single-vector path — resolved per shape by the static rule
// unless the caller forces one — same contract either way.
StatusOr<la::SymEigenResult> SmallestEigenpairsSparse(
    const la::CsrMatrix& lap, std::size_t c, double spectral_bound,
    const la::LanczosOptions& options, la::EigensolveMode mode) {
  return la::LanczosSmallestAuto(lap, c, spectral_bound, options, mode);
}

// ĉ_v per view: the sum of the c smallest eigenvalues of L_v (the best
// smoothness any orthonormal F could achieve on that view alone).
StatusOr<std::vector<double>> SpectralFloors(
    const std::vector<la::CsrMatrix>& laplacians, std::size_t c,
    const la::LanczosOptions& lanczos, la::EigensolveMode block_lanczos,
    std::size_t* matvec_total) {
  const std::size_t num_views = laplacians.size();
  std::vector<double> floors(num_views, 0.0);
  // Every view shares one shape (n, c), so the solver choice is resolved
  // once, up front.
  const la::EigensolveMode mode = la::ResolveEigensolveMode(
      block_lanczos, laplacians.empty() ? 0 : laplacians[0].rows(), c);
  // One Lanczos eigensolve per view, fanned out across views. Each solve is
  // seeded from the options, so its result does not depend on scheduling;
  // statuses are collected and checked in view order afterwards. Matvecs go
  // into per-view slots (the shared counter in `lanczos` would race) and are
  // summed in view order after the region.
  std::vector<std::optional<Status>> statuses(num_views);
  std::vector<std::size_t> matvecs(num_views, 0);
  ParallelFor(0, num_views, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t v = lo; v < hi; ++v) {
      la::LanczosOptions local = lanczos;
      local.matvec_count = &matvecs[v];
      StatusOr<la::SymEigenResult> eig = SmallestEigenpairsSparse(
          laplacians[v], c, 2.0 + 1e-9, local, mode);
      if (!eig.ok()) {
        statuses[v].emplace(eig.status());
        continue;
      }
      statuses[v].emplace(Status::OK());
      double sum = 0.0;
      for (std::size_t j = 0; j < c; ++j) {
        sum += std::max(0.0, eig->eigenvalues[j]);
      }
      floors[v] = sum;
    }
  });
  for (std::size_t v = 0; v < num_views; ++v) {
    if (!statuses[v]->ok()) return *statuses[v];
    if (matvec_total != nullptr) *matvec_total += matvecs[v];
  }
  return floors;
}

namespace {

// Floors combination coefficients at a fraction of their maximum. A view
// whose graph fragments into more than c components has Tr(FᵀL_vF) ≈ 0, so
// its raw coefficient explodes and the weighted Laplacian's null space grows
// past c dimensions — the eigensolver then returns arbitrary directions.
// Keeping every view at ≥ 1e-3 of the dominant one preserves the weight
// ordering while the other views' connectivity disambiguates the embedding.
constexpr double kCoefficientFloorRatio = 1e-3;

void FloorCoefficients(std::vector<double>& coefficients) {
  double cmax = 0.0;
  for (double c : coefficients) cmax = std::max(cmax, c);
  if (cmax <= 0.0) return;
  for (double& c : coefficients) {
    c = std::max(c, kCoefficientFloorRatio * cmax);
  }
}

}  // namespace

Weights UpdateWeights(const std::vector<double>& h, ViewWeighting mode,
                      double gamma) {
  const std::size_t num_views = h.size();
  Weights w;
  w.alpha.assign(num_views, 1.0 / static_cast<double>(num_views));
  w.coefficients.assign(num_views, 1.0 / static_cast<double>(num_views));
  switch (mode) {
    case ViewWeighting::kUniform:
      break;
    case ViewWeighting::kGammaPower: {
      // α_v ∝ h_v^{1/(1−γ)} minimizes Σ α_v^γ h_v over the simplex.
      const double exponent = 1.0 / (1.0 - gamma);
      double total = 0.0;
      for (std::size_t v = 0; v < num_views; ++v) {
        w.alpha[v] = std::pow(h[v], exponent);
        total += w.alpha[v];
      }
      for (std::size_t v = 0; v < num_views; ++v) {
        w.alpha[v] /= total;
        w.coefficients[v] = std::pow(w.alpha[v], gamma);
      }
      break;
    }
    case ViewWeighting::kAmgl: {
      // The derivative trick of AMGL: Σ√h_v is minimized by iterating with
      // coefficients 1/(2√h_v). Report the normalized coefficients as α.
      double total = 0.0;
      for (std::size_t v = 0; v < num_views; ++v) {
        w.coefficients[v] = 0.5 / std::sqrt(h[v]);
        total += w.coefficients[v];
      }
      for (std::size_t v = 0; v < num_views; ++v) {
        w.alpha[v] = w.coefficients[v] / total;
      }
      break;
    }
  }
  FloorCoefficients(w.coefficients);
  return w;
}

}  // namespace internal

StatusOr<UnifiedResult> UnifiedMVSC::Run(const MultiViewGraphs& graphs) const {
  const std::size_t num_views = graphs.laplacians.size();
  const std::size_t n = graphs.NumSamples();
  const std::size_t c = options_.num_clusters;
  if (options_.anchors.enabled) {
    return Status::InvalidArgument(
        "anchor mode selects anchors from raw features; call "
        "Run(dataset) instead of Run(graphs)");
  }
  if (num_views == 0) {
    return Status::InvalidArgument("UnifiedMVSC requires at least one view");
  }
  if (c < 2 || c >= n) {
    return Status::InvalidArgument("UnifiedMVSC requires 2 <= c < n");
  }
  if (options_.beta < 0.0) {
    return Status::InvalidArgument("beta must be nonnegative");
  }
  if (options_.weighting == ViewWeighting::kGammaPower &&
      options_.gamma <= 1.0) {
    return Status::InvalidArgument("gamma-power weighting requires gamma > 1");
  }

  // The exact path is the shared alternation with the implicit identity
  // basis (F = G over the n × n Laplacians): mass-normalized warm-ups, no
  // carried warm start, the (Y, R) polish at the end.
  UnifiedResult out;
  StatusOr<ReducedSolveState> state = internal::SolveAlternation(
      graphs.laplacians, /*basis=*/nullptr,
      /*mass_normalized_warmups=*/true, options_, ReducedSolveControls{},
      &out);
  if (!state.ok()) return state.status();
  return out;
}

StatusOr<UnifiedResult> UnifiedMVSC::Run(
    const data::MultiViewDataset& dataset,
    const GraphOptions& graph_options) const {
  if (options_.anchors.enabled) {
    // The large-scale reduced path: no O(n²) graphs, no n-row eigensolves.
    StatusOr<AnchorUnifiedResult> anchored =
        SolveUnifiedAnchors(dataset, options_, graph_options.standardize);
    if (!anchored.ok()) return anchored.status();
    return std::move(anchored->result);
  }
  StatusOr<MultiViewGraphs> graphs = BuildGraphs(dataset, graph_options);
  if (!graphs.ok()) return graphs.status();
  return Run(*graphs);
}

}  // namespace umvsc::mvsc

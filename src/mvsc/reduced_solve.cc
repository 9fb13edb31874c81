#include "mvsc/reduced_solve.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "cluster/gpi.h"
#include "cluster/rotation.h"
#include "common/parallel.h"
#include "la/lanczos.h"
#include "la/ops.h"
#include "la/svd.h"
#include "la/sym_eigen.h"
#include "mvsc/unified_internal.h"

namespace umvsc::mvsc {

StatusOr<la::Matrix> JointOrthonormalBasis(const la::Matrix& concat,
                                           std::size_t min_rank,
                                           la::Matrix* mix_out,
                                           SmallSolveBatcher* batcher) {
  UMVSC_CHECK(mix_out != nullptr, "mix sink is required");
  const std::size_t p_full = concat.cols();
  const la::Matrix gram = la::Gram(concat);
  StatusOr<la::SymEigenResult> gram_eig =
      batcher != nullptr ? batcher->SymEigen(gram) : la::SymmetricEigen(gram);
  if (!gram_eig.ok()) return gram_eig.status();
  double max_gram = 0.0;
  for (std::size_t j = 0; j < p_full; ++j) {
    max_gram = std::max(max_gram, gram_eig->eigenvalues[j]);
  }
  const double gram_tol = 1e-10 * std::max(max_gram, 1.0);
  std::vector<std::size_t> kept;
  for (std::size_t j = p_full; j > 0; --j) {  // descending eigenvalue order
    if (gram_eig->eigenvalues[j - 1] > gram_tol) kept.push_back(j - 1);
  }
  const std::size_t p = kept.size();
  if (p < min_rank) {
    return Status::InvalidArgument(
        "anchor basis rank fell below the cluster count; raise num_anchors "
        "or basis_per_view");
  }
  la::Matrix mix(p_full, p);
  for (std::size_t t = 0; t < p; ++t) {
    const std::size_t j = kept[t];
    const double inv_sqrt = 1.0 / std::sqrt(gram_eig->eigenvalues[j]);
    for (std::size_t r = 0; r < p_full; ++r) {
      mix(r, t) = gram_eig->eigenvectors(r, j) * inv_sqrt;
    }
  }
  la::Matrix basis = la::MatMul(concat, mix);  // n × p, BᵀB ≈ I
  *mix_out = std::move(mix);
  return basis;
}

namespace internal {

namespace {

// Row grain of the fused Y-step and F-step passes (scheduling only: every
// row's values are its own).
constexpr std::size_t kRowGrain = 256;

// Y-step as one row-parallel pass: F's row (B_i·G on the reduced path), the
// rotated row F_i·R and its argmax, keeping the (B·G)·R association of the
// dense products. Then the counts and the empty-cluster repair: an empty
// column j steals the row with the largest (F·R)(i, j) among rows whose
// cluster keeps >= 2 members, so the solver cannot silently collapse
// clusters (the K-means empty-cluster convention). Bitwise equal to the
// dense MatMul / row-argmax / repair sequence at every thread count.
void AssignRows(const la::Matrix* basis, const la::Matrix& g,
                const la::Matrix& rotation, bool scale_indicator,
                la::Matrix& f_full, cluster::LabelIndicator& y) {
  const la::Matrix& f = basis != nullptr ? f_full : g;
  const std::size_t n = f.rows(), c = rotation.cols();
  y.labels.resize(n);
  ParallelFor(0, n, kRowGrain, [&](std::size_t lo, std::size_t hi) {
    std::vector<double> fr(c);
    for (std::size_t i = lo; i < hi; ++i) {
      if (basis != nullptr) {
        la::RowMatMul(basis->RowPtr(i), g, f_full.RowPtr(i));
      }
      la::RowMatMul(f.RowPtr(i), rotation, fr.data());
      y.labels[i] = cluster::RowArgmax(fr.data(), c);
    }
  });
  y.Recount(c, scale_indicator);
  std::vector<double> fr(c);
  for (std::size_t j = 0; j < c; ++j) {
    if (y.counts[j] != 0) continue;
    double best = -std::numeric_limits<double>::infinity();
    std::size_t best_i = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (y.counts[y.labels[i]] < 2) continue;
      la::RowMatMul(f.RowPtr(i), rotation, fr.data());
      if (fr[j] > best) {
        best = fr[j];
        best_i = i;
      }
    }
    if (best_i < n) {
      y.counts[y.labels[best_i]]--;
      y.labels[best_i] = j;
      y.counts[j] = 1;
    }
  }
  y.Rescale(scale_indicator);
}

// The exact path's F-step right-hand side β·Ŷ·Rᵀ from labels: row i is
// β·s_l·R(:, l)ᵀ for l = labels[i]. `0.0 +` reproduces the +0 a GEMM
// accumulator gives an exactly-zero product, so the bits match
// MatMulTInto(Ŷ, R) followed by Scale(β).
void IndicatorTimesRotationT(const cluster::LabelIndicator& y,
                             const la::Matrix& rotation, double beta,
                             la::Matrix& b) {
  const std::size_t c = rotation.rows();
  ParallelFor(0, b.rows(), kRowGrain, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const std::size_t label = y.labels[i];
      const double s = y.scales[label];
      double* row = b.RowPtr(i);
      for (std::size_t j = 0; j < c; ++j) {
        row[j] = (0.0 + s * rotation(j, label)) * beta;
      }
    }
  });
}

}  // namespace

StatusOr<ReducedSolveState> SolveAlternation(
    const std::vector<la::CsrMatrix>& laplacians, const la::Matrix* basis,
    bool mass_normalized_warmups, const UnifiedOptions& options,
    const ReducedSolveControls& controls, UnifiedResult* result) {
  UMVSC_CHECK(result != nullptr, "result sink is required");
  const std::size_t num_views = laplacians.size();
  const std::size_t c = options.num_clusters;
  // q: rows of G — the basis width on the reduced path, n on the exact one.
  const std::size_t q = laplacians.front().rows();

  la::LanczosOptions lanczos;
  lanczos.seed = options.seed + 17;
  lanczos.max_subspace = std::min(q, std::max<std::size_t>(12 * c + 100, 250));
  lanczos.tolerance = 3e-6;
  std::vector<double> floors(num_views, 0.0);
  if (options.smoothness == SmoothnessNormalization::kExcess) {
    StatusOr<std::vector<double>> spectral =
        SpectralFloors(laplacians, c, lanczos, options.block_lanczos,
                       &result->lanczos_matvecs);
    if (!spectral.ok()) return spectral.status();
    floors = std::move(*spectral);
  }

  // Warm-start validity: every piece is checked against the CURRENT shapes.
  // A stale piece (p changed after an anchor re-selection, c changed after
  // a cluster-count update) silently degrades that piece to cold instead of
  // erroring — the caller asked for the best available start, not a crash.
  const ReducedWarmStart* warm = controls.warm;
  const bool warm_g = warm != nullptr && warm->g.rows() == q &&
                      warm->g.cols() == c;
  const bool warm_rotation = warm != nullptr && warm->rotation.rows() == c &&
                             warm->rotation.cols() == c;
  const bool warm_weights =
      warm != nullptr && warm->weight_coefficients.size() == num_views;

  // --- Initialization: warm-start with a few weight↔embedding alternations
  // (fresh eigensolves, no discrete coupling). A single embedding of the
  // uniform average is fragile — one adversarial view can wreck it, and the
  // Y↔F alternation below would then lock onto the bad partition. The
  // alternations let the auto-weighting suppress such views first.
  Weights weights;
  if (warm_weights) {
    weights.coefficients = warm->weight_coefficients;
  } else {
    weights.coefficients.assign(num_views,
                                1.0 / static_cast<double>(num_views));
  }
  la::Matrix g;
  if (warm_g) g = warm->g;
  // The per-view Laplacians are fixed for the whole run, so the union
  // sparsity pattern of their weighted combinations is too: plan it once,
  // and every alternation/iteration below refreshes values only.
  const la::CsrCombiner combiner = la::CsrCombiner::Plan(laplacians);
  std::vector<double> traces;
  std::vector<double> h;
  const std::size_t warmups =
      std::max<std::size_t>(1, options.init_alternations);
  for (std::size_t iter = 0; iter < warmups; ++iter) {
    la::CsrMatrix combined = combiner.Combine(laplacians, weights.coefficients);
    // Mass-renormalized on the exact path: exact eigenvectors of the plain
    // weighted sum on complete data, and a resolvable bottom eigengap on
    // incomplete data (see MassNormalizedCombination).
    if (mass_normalized_warmups) combined = MassNormalizedCombination(combined);
    la::LanczosOptions warm_lanczos = lanczos;
    warm_lanczos.matvec_count = &result->lanczos_matvecs;
    if (options.warm_start && g.rows() == q && g.cols() == c) {
      // Seed from the previous alternation's embedding: the combined
      // Laplacian moved only as far as the view weights did.
      warm_lanczos.warm_start = &g;
    }
    StatusOr<la::SymEigenResult> init_eig = SmallestEigenpairsSparse(
        combined, c, cluster::GershgorinUpperBound(combined) + 1e-9,
        warm_lanczos, options.block_lanczos);
    if (!init_eig.ok()) return init_eig.status();
    g = std::move(init_eig->eigenvectors);
    traces = ViewTraces(laplacians, g);
    h = ViewSmoothness(traces, floors);
    weights = UpdateWeights(h, options.weighting, options.gamma);
    double smoothness = 0.0;
    for (std::size_t v = 0; v < num_views; ++v) {
      smoothness += weights.coefficients[v] * h[v];
    }
    result->warmup_trace.push_back(smoothness);
  }

  // F = B·G reconstructed on the reduced path (n × c, refreshed by every
  // Y-step); the exact path's F is G itself.
  la::Matrix f_full;
  const la::Matrix& f = basis != nullptr ? f_full : g;

  // Objective Σ_v α_v^γ·Tr(FᵀL_vF) + β·‖Ŷ − F·R‖²_F at the current traces
  // (Tr(FᵀL_vF) = Tr(GᵀH_vG) on the reduced path); the residual is
  // evaluated on the reconstructed rows exactly.
  auto objective = [&](const la::Matrix& rot,
                       const cluster::LabelIndicator& y_cur) {
    double obj = 0.0;
    for (std::size_t v = 0; v < num_views; ++v) {
      obj += weights.coefficients[v] * traces[v];
    }
    const double r = cluster::IndicatorResidualNorm(f, rot, y_cur);
    return obj + options.beta * r * r;
  };

  // Executor hooks: scratch-backed temporaries. Hooked and unhooked solves
  // produce bitwise-identical iterates (solve_hooks.h).
  SolveScratch local_scratch;
  SolveScratch& scratch = options.hooks.scratch != nullptr
                              ? *options.hooks.scratch
                              : local_scratch;

  la::Matrix rotation;
  cluster::LabelIndicator y;
  if (warm_rotation) {
    // Warm entry: the carried rotation is already at (or near) the previous
    // solve's fixed point — the indicator falls straight out of a row-argmax
    // pass, no restart search.
    rotation = warm->rotation;
    if (basis != nullptr) f_full = la::Matrix(basis->rows(), c);
    AssignRows(basis, g, rotation, options.scale_indicator, f_full, y);
  } else {
    if (basis != nullptr) f_full = la::MatMul(*basis, g);
    cluster::RotationOptions rot_init;
    rot_init.seed = options.seed + 31;
    rot_init.restarts = 8;
    rot_init.scale_indicator = options.scale_indicator;
    StatusOr<cluster::RotationResult> init_disc =
        cluster::DiscretizeEmbedding(f, rot_init);
    if (!init_disc.ok()) return init_disc.status();
    rotation = std::move(init_disc->rotation);
    y.labels = std::move(init_disc->labels);
    y.Recount(c, options.scale_indicator);
  }
  // Reduced image P = BᵀŶ (p × c): the ONLY coupling the G- and R-steps
  // need from the n-row indicator on the reduced path.
  la::Matrix p_red;
  if (basis != nullptr) {
    cluster::IndicatorTMul(*basis, y, p_red, scratch.block_partials);
  }

  double prev_obj = std::numeric_limits<double>::infinity();
  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    // --- G-step: min Tr(GᵀAG) − 2β·Tr(Gᵀ·P·Rᵀ) on the Stiefel manifold,
    // P = BᵀŶ (the F-step compressed through F = B·G) or Ŷ itself. Value-
    // only combination over the precomputed union pattern; the GPI is
    // warm-started from the incumbent G.
    la::CsrMatrix a = combiner.Combine(laplacians, weights.coefficients);
    la::Matrix& b = SolveScratch::Ensure(scratch.b, q, c);
    if (basis != nullptr) {
      la::MatMulTInto(p_red, rotation, b);
      b.Scale(options.beta);
    } else {
      IndicatorTimesRotationT(y, rotation, options.beta, b);
    }
    cluster::GpiOptions gpi;
    gpi.max_iterations = options.gpi_iterations;
    StatusOr<cluster::GpiResult> gstep =
        cluster::GeneralizedPowerIteration(a, b, g, gpi);
    if (!gstep.ok()) return gstep.status();
    g = std::move(gstep->f);

    // --- R-step: orthogonal Procrustes on FᵀŶ = GᵀP (c × c, no n-row pass
    // on the reduced path).
    la::Matrix& ctc = SolveScratch::Ensure(scratch.ctc, c, c);
    if (basis != nullptr) {
      la::MatTMulInto(g, p_red, ctc);
    } else {
      cluster::IndicatorTMul(g, y, ctc, scratch.block_partials);
    }
    StatusOr<la::Matrix> rstep = options.hooks.batcher != nullptr
                                     ? options.hooks.batcher->Procrustes(ctc)
                                     : la::ProcrustesRotation(ctc);
    if (!rstep.ok()) return rstep.status();
    rotation = std::move(*rstep);

    // --- Y-step: labels are an n-point object, so the row-argmax of
    // F·R = (B·G)·R must see n rows — one fused pass, no n × c temporary.
    AssignRows(basis, g, rotation, options.scale_indicator, f_full, y);
    if (basis != nullptr) {
      cluster::IndicatorTMul(*basis, y, p_red, scratch.block_partials);
    }

    // --- α-step: closed form from the fresh smoothness values.
    traces = ViewTraces(laplacians, g);
    h = ViewSmoothness(traces, floors);
    weights = UpdateWeights(h, options.weighting, options.gamma);

    const double obj = objective(rotation, y);
    result->objective_trace.push_back(obj);
    result->iterations = iter + 1;
    if (iter > 0 &&
        std::fabs(prev_obj - obj) <=
            options.tolerance * std::max(std::fabs(prev_obj), 1e-12)) {
      result->converged = true;
      break;
    }
    prev_obj = obj;
  }

  ReducedSolveState state;
  state.objective = objective(rotation, y);
  if (controls.polish) {
    // Final polish: re-search the (Y, R) pair for the converged F with
    // fresh rotation restarts — the alternation only ever refined the
    // incumbent rotation, and a restarted search occasionally finds a
    // strictly better discretization. Accepted only when the full
    // objective improves.
    cluster::RotationOptions rot_final;
    rot_final.seed = options.seed + 97;
    rot_final.restarts = 8;
    rot_final.scale_indicator = options.scale_indicator;
    StatusOr<cluster::RotationResult> polished =
        cluster::DiscretizeEmbedding(f, rot_final);
    if (polished.ok()) {
      cluster::LabelIndicator polished_y;
      polished_y.labels = std::move(polished->labels);
      polished_y.Recount(c, options.scale_indicator);
      const double candidate = objective(polished->rotation, polished_y);
      if (candidate < state.objective) {
        rotation = std::move(polished->rotation);
        y = std::move(polished_y);
        state.objective = candidate;
      }
    }
  }

  state.smoothness = std::move(h);
  state.weight_coefficients = weights.coefficients;
  state.rotation = rotation;
  result->labels = std::move(y.labels);
  result->embedding = basis != nullptr ? std::move(f_full) : g;
  result->rotation = std::move(rotation);
  result->view_weights = std::move(weights.alpha);
  state.g = std::move(g);
  return state;
}

}  // namespace internal

StatusOr<ReducedSolveState> SolveReducedAlternation(
    const std::vector<la::CsrMatrix>& reduced, const la::Matrix& basis,
    const UnifiedOptions& options, const ReducedSolveControls& controls,
    UnifiedResult* result) {
  UMVSC_CHECK(result != nullptr, "result sink is required");
  const std::size_t c = options.num_clusters;
  const std::size_t p = basis.cols();
  if (reduced.empty()) {
    return Status::InvalidArgument("reduced solve needs at least one view");
  }
  for (const la::CsrMatrix& h : reduced) {
    if (h.rows() != p || h.cols() != p) {
      return Status::InvalidArgument(
          "reduced Laplacian shape does not match the basis");
    }
  }
  if (p < c) {
    return Status::InvalidArgument(
        "reduced dimension fell below the cluster count");
  }
  return internal::SolveAlternation(reduced, &basis,
                                    /*mass_normalized_warmups=*/false, options,
                                    controls, result);
}

}  // namespace umvsc::mvsc

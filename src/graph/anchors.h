#ifndef UMVSC_GRAPH_ANCHORS_H_
#define UMVSC_GRAPH_ANCHORS_H_

#include <cstddef>
#include <cstdint>

#include "common/status.h"
#include "la/matrix.h"
#include "la/sparse.h"
#include "la/vector.h"

namespace umvsc::graph {

/// How the m anchor rows are chosen from the n data rows.
enum class AnchorSelection {
  /// Deterministic uniform sample without replacement (seeded).
  kUniform,
  /// Seeded k-means++ seeding over a bounded candidate subsample, followed
  /// by a few Lloyd refinement sweeps restricted to that subsample. Spreads
  /// the anchors to cover the data far better than a uniform draw at
  /// essentially no cost: every step is O(candidates·m·d) with
  /// candidates = O(m), independent of n.
  kKmeansppRefine,
};

/// Options for per-view anchor selection.
struct AnchorOptions {
  /// Anchor count m. Accuracy and cost both grow with m; m ≈ 10–50 ×
  /// clusters is typical for the large-scale path.
  std::size_t num_anchors = 256;
  AnchorSelection selection = AnchorSelection::kKmeansppRefine;
  /// Lloyd sweeps over the candidate subsample (kKmeansppRefine only).
  std::size_t refine_iterations = 4;
  /// Candidate pool for the k-means++ stage: min(n, max(candidate_factor·m,
  /// 1024)) uniformly sampled rows. Bounds the whole selection at O(m²·d).
  std::size_t candidate_factor = 8;
  std::uint64_t seed = 0;
};

/// Selects m anchor points from the rows of `x` (n × d). Entirely serial and
/// seeded — the result is a pure function of (x, options), independent of
/// thread count. Requires 1 <= num_anchors <= n.
///
/// kUniform returns the sampled rows in draw order. kKmeansppRefine returns
/// the refined candidate-subset centroids (anchors need not coincide with
/// data rows after refinement — they are landmarks, not medoids); an empty
/// refinement cluster keeps its previous center, so exactly m anchors come
/// back in all cases.
StatusOr<la::Matrix> SelectAnchors(const la::Matrix& x,
                                   const AnchorOptions& options);

/// Options for the bipartite anchor-affinity builder.
struct AnchorGraphOptions {
  /// Nonzeros per row s: each point connects to its s nearest anchors.
  std::size_t anchor_neighbors = 5;
  /// Row-tile height of the tiled distance panels (memory/locality knob,
  /// never a semantics knob — the output is bitwise identical at every
  /// setting, exactly like TiledGraphOptions::tile_rows).
  std::size_t tile_rows = 128;
};

/// The anchor row rule, written once for training, streaming and serving.
/// For each of `rows` standardized points (row-major at `x`, stride
/// anchors.cols()) it selects the s nearest anchors (ties keep the smaller
/// anchor index), weights them exp(−d²_ij / σ²_i) with the self-tuning
/// bandwidth σ²_i = the s-th-nearest squared distance (floored at 1e-300),
/// normalizes the weights to sum to 1 (summed in rank order, scaled by the
/// reciprocal), and writes the s columns and weights of row i at
/// cols/weights + i·s in ascending anchor order — ready to drop into a CSR
/// row.
///
/// Distances use the Gram expansion max(0, ‖x‖² + ‖a_j‖² − 2·x·a_j) with
/// ‖x‖² summed in ascending-feature order (the RowSquaredNorms convention)
/// and `anchor_sq_norms` = RowSquaredNorms(anchors). The dots of a tile come
/// from one la::kernel::GemmAdd panel; a one-row tile takes serial dots on
/// the same kc grid instead (packing the anchor panel for one row costs more
/// than the dots). Every dot therefore has one bit pattern whatever tile it
/// lands in, so any tiling of the same points gives bitwise-identical rows.
/// Serial: the inner kernel of tile-parallel loops. Requires
/// 1 <= s <= anchors.rows().
void AnchorRows(const double* x, std::size_t rows, const la::Matrix& anchors,
                const la::Vector& anchor_sq_norms, std::size_t s,
                std::size_t* cols, double* weights);

/// Builds the bipartite anchor affinity Z (n × m CSR, s nonzeros per row):
/// row i is AnchorRows applied to point i, so Z is row-stochastic, columns
/// ascend within each row, and the implicit affinity Ẑ·Ẑᵀ has spectrum in
/// [0, 1].
///
/// Runs AnchorRows over tile_rows-high tiles in parallel: peak auxiliary
/// memory is O(tile_rows·m) per participating thread plus the O(n·s) output
/// — never an n × m dense buffer — and the result is bitwise identical at
/// every tile size and thread count. Requires 1 <= anchor_neighbors <=
/// anchors.rows() and matching feature dims.
StatusOr<la::CsrMatrix> BuildAnchorAffinity(
    const la::Matrix& x, const la::Matrix& anchors,
    const AnchorGraphOptions& options = {});

}  // namespace umvsc::graph

#endif  // UMVSC_GRAPH_ANCHORS_H_

#ifndef UMVSC_CLUSTER_ROTATION_H_
#define UMVSC_CLUSTER_ROTATION_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "la/matrix.h"

namespace umvsc::cluster {

/// Options for Yu–Shi spectral rotation / discretization.
struct RotationOptions {
  std::size_t max_iterations = 100;
  /// Stop when the discretization objective ‖Ŷ − F·R‖²_F improves by less
  /// than this (relative).
  double tolerance = 1e-9;
  /// Column-normalize the indicator to Ŷ = Y·(YᵀY)^{−1/2} before the
  /// Procrustes step (the scaled-indicator convention of Yu & Shi).
  bool scale_indicator = true;
  /// Random restarts over the initial rotation; best objective wins.
  std::size_t restarts = 5;
  std::uint64_t seed = 0;
};

/// Result of discretizing a continuous spectral embedding.
struct RotationResult {
  /// Hard labels, one per row of F — the discrete indicator Y held as
  /// labels (Y(i, j) = 1 iff labels[i] == j).
  std::vector<std::size_t> labels;
  /// The learned orthogonal rotation (c × c).
  la::Matrix rotation;
  /// Final value of ‖Ŷ − F·R‖²_F.
  double objective = 0.0;
  std::size_t iterations = 0;
};

/// The indicator Ŷ held as labels plus per-cluster counts, never as an
/// n × c matrix: Ŷ(i, j) = scales[j] when labels[i] == j, else 0. Scaled
/// (Ŷ = Y·(YᵀY)^{−1/2}), scales[j] = 1/√counts[j]; unscaled, 1. An empty
/// column has scale 0 — it holds no entry either way.
struct LabelIndicator {
  std::vector<std::size_t> labels;
  std::vector<std::size_t> counts;
  std::vector<double> scales;

  /// Recounts `labels` into `num_clusters` columns and sets the scales.
  void Recount(std::size_t num_clusters, bool scale_indicator);
  /// Sets the scales from the current counts.
  void Rescale(bool scale_indicator);
};

/// Index of the largest of row[0..c); ties (and NaNs) keep the smaller
/// index — the Y-step's row rule.
std::size_t RowArgmax(const double* row, std::size_t c);

/// out = Xᵀ·Ŷ (x.cols() × c, overwritten; reshaped if needed) as
/// per-cluster segmented row sums — bitwise equal to la::MatTMul(x, Ŷ) on
/// the dense Ŷ: every row sum runs serially inside GemmAdd's kKc-row blocks
/// and the block partials add in ascending order. The blocks run in
/// parallel (serially when nested in a parallel region) into
/// `block_partials`, resized to one partial per block and reusable across
/// calls; the result is identical at every thread count.
void IndicatorTMul(const la::Matrix& x, const LabelIndicator& y,
                   la::Matrix& out, std::vector<double>& block_partials);

/// ‖Ŷ − F·R‖_F with each F·R row recomputed on the fly (la::RowMatMul) —
/// bitwise equal to la::Add(Ŷ, la::MatMul(F, R), −1).FrobeniusNorm() on
/// the dense Ŷ, in O(c) memory. Serial: the norm's scaled recurrence is
/// taken in row-major order.
double IndicatorResidualNorm(const la::Matrix& f, const la::Matrix& r,
                             const LabelIndicator& y);

/// Yu–Shi discretization: alternately solve
///   Y ← argmin ‖Ŷ − F·R‖²  (row-wise argmax of F·R)
///   R ← argmin ‖Ŷ − F·R‖²  (orthogonal Procrustes on FᵀŶ)
/// until the objective stalls. F must have orthonormal (or at least
/// well-conditioned) columns; requires F.cols() >= 1. The restarts run in
/// parallel, each serial inside and holding Y as labels; the lowest
/// objective wins, ties to the lowest restart index — so the result is
/// identical at every thread count.
StatusOr<RotationResult> DiscretizeEmbedding(const la::Matrix& f,
                                             const RotationOptions& options);

}  // namespace umvsc::cluster

#endif  // UMVSC_CLUSTER_ROTATION_H_

#ifndef UMVSC_MVSC_ANCHOR_ASSIGN_H_
#define UMVSC_MVSC_ANCHOR_ASSIGN_H_

#include <cstddef>

#include "la/vector.h"
#include "mvsc/anchor_unified.h"

// Extending raw points through one view of a fitted anchor model — the one
// helper OutOfSampleModel::Predict (and so serve::BatchAssigner) and
// StreamingUnifiedMVSC's frozen-model ingest share. The anchor row itself is
// graph::AnchorRows, the same kernel graph::BuildAnchorAffinity runs at
// training time, so a point gets the same z row, bit for bit, whether it is
// fitted, streamed or served, at every tile size and thread count.
// docs/SERVING.md spells out the full determinism contract.

namespace umvsc::mvsc {

/// Row height of the extension tiles Predict and the streaming ingest run
/// in parallel: a 256-point serving batch is four tiles, one per thread of
/// a 4-core pool. A layout choice only — rows are bitwise independent of
/// it.
inline constexpr std::size_t kAnchorTileRows = 64;

/// Extends `rows` raw points of one view (row-major at `raw`, stride
/// view.anchors.cols()): standardizes them with the view's statistics, runs
/// graph::AnchorRows against the view's anchors (`anchor_sq_norms` =
/// graph::RowSquaredNorms(view.anchors)), and writes row i's s anchor
/// columns and weights at cols/weights + i·s, and u_i = z_i·anchor_map at
/// u + i·u_stride (k = anchor_map.cols() entries; the rest of a wider row
/// is untouched), accumulated from zero in ascending anchor order — the
/// element order of CsrMatrix::MultiplyInto, so u equals the training
/// embedding Z·anchor_map bitwise. Serial.
void ExtendAnchorRows(const AnchorViewModel& view,
                      const la::Vector& anchor_sq_norms, std::size_t s,
                      const double* raw, std::size_t rows, std::size_t* cols,
                      double* weights, double* u, std::size_t u_stride);

}  // namespace umvsc::mvsc

#endif  // UMVSC_MVSC_ANCHOR_ASSIGN_H_

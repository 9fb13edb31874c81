#include "mvsc/anchor_assign.h"

#include <algorithm>
#include <vector>

#include "data/standardize.h"
#include "graph/anchors.h"

namespace umvsc::mvsc {

void ExtendAnchorRows(const AnchorViewModel& view,
                      const la::Vector& anchor_sq_norms, std::size_t s,
                      const double* raw, std::size_t rows, std::size_t* cols,
                      double* weights, double* u, std::size_t u_stride) {
  const std::size_t d = view.anchors.cols();
  const std::size_t k = view.anchor_map.cols();
  std::vector<double> x(rows * d);
  for (std::size_t i = 0; i < rows; ++i) {
    data::ApplyStandardizationRow(raw + i * d, d, view.feature_means,
                                  view.feature_inv_stds, x.data() + i * d);
  }
  graph::AnchorRows(x.data(), rows, view.anchors, anchor_sq_norms, s, cols,
                    weights);
  for (std::size_t i = 0; i < rows; ++i) {
    double* u_row = u + i * u_stride;
    std::fill(u_row, u_row + k, 0.0);
    for (std::size_t r = 0; r < s; ++r) {
      const double w = weights[i * s + r];
      const double* map_row = view.anchor_map.RowPtr(cols[i * s + r]);
      for (std::size_t t = 0; t < k; ++t) u_row[t] += w * map_row[t];
    }
  }
}

}  // namespace umvsc::mvsc

#ifndef UMVSC_SERVE_BATCH_ASSIGN_H_
#define UMVSC_SERVE_BATCH_ASSIGN_H_

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"
#include "serve/registry.h"

namespace umvsc::serve {

/// Out-of-sample assignment against a registry-held model: one Assign call
/// labels a whole b-point batch. It is OutOfSampleModel::Predict, which
/// already runs anchor models in parallel 64-point tiles (one GEMM dot
/// panel per tile and view, a one-point tile on serial dots of the same
/// bits) and exact-path models through their affinity vote — so labels are
/// bitwise identical to Predict at every batch size and thread count.
///
/// Thread safety: Assign is const and touches only immutable model state —
/// safe to call concurrently on one BatchAssigner.
class BatchAssigner {
 public:
  /// `model` must be non-null (UMVSC_CHECK); typically ModelRegistry::Get.
  /// The assigner shares ownership, so the model outlives registry swaps.
  explicit BatchAssigner(ModelHandle model);

  /// Labels for every point of `batch`, in row order.
  StatusOr<std::vector<std::size_t>> Assign(
      const data::MultiViewDataset& batch) const;

  const ModelHandle& model() const { return model_; }

 private:
  ModelHandle model_;
};

}  // namespace umvsc::serve

#endif  // UMVSC_SERVE_BATCH_ASSIGN_H_

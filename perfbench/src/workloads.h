#ifndef UMVSC_PERFBENCH_WORKLOADS_H_
#define UMVSC_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  /// Scratch directory for files a workload writes (serve_mixed's models).
  std::string workdir;
  /// Wall time of the first tiny warm-up solve of the process: thread-pool
  /// start-up plus the eigensolver policy's timed calibration, and the
  /// same solve run again. Their difference is la.lazy_init_s.
  double first_warmup_s = 0.0;
  double second_warmup_s = 0.0;
};

/// Operation-list repeats for a --seconds budget. Each workload's list is
/// sized for kNominalSeconds on a 4-core host; a longer budget repeats it
/// with fresh sub-seeds. Work is a pure function of (seed, seconds) —
/// never of elapsed time — so every run of one command does the same
/// operations.
constexpr double kNominalSeconds = 20.0;
std::size_t Rounds(double seconds);

/// Brings the thread pool's workers onto distinct CPUs; call it right
/// before a timed section.
///
/// On a 4-vCPU VM a woken pool worker was often placed on the waking
/// thread's CPU. After some short parallel bursts the workers then share
/// one CPU, and they keep sharing it: a burst of nproc 2 ms spans takes
/// nproc × 2 ms, and a process lands in that state or not by chance (a
/// batch-256 Assign took ~3.5 ms in some processes and 7-10 ms in others).
/// About a second of busy work on every pool thread lets the load balancer
/// spread them. This runs one such round, and up to three more until five
/// bursts in a row run spread. `notes` gets a burst before and after, keys
/// prefixed by `prefix`.
void SpreadPool(const std::string& prefix, Notes* notes);

/// Notes one pool-wide burst of 2 ms per thread: its wall time in ms and
/// the number of CPUs it ran on, keys prefixed by `prefix`.
void NotePoolBurst(const std::string& prefix, Notes* notes);

/// Per-layer values a traced run measured, by metric name. Names missing
/// here are layers the workload never calls; they report 0.
using LayerValues = std::map<std::string, double>;

/// The end-to-end and per-layer metrics of one workload run.
struct Measured {
  std::vector<double> setup_seconds;  ///< one per repeated set-up
  std::vector<double> latencies_ms;   ///< one per timed operation
  double work_units = 0.0;
  double timed_seconds = 0.0;         ///< untraced pass
  double traced_seconds = 0.0;        ///< traced pass (trace mode only)
  double quality = 0.0;
  LayerValues layers;
  /// (n, k) shapes of the workload's kAuto eigensolves.
  std::vector<std::pair<std::size_t, std::size_t>> eigensolve_shapes;
};

/// Fills `outcome` with every end-to-end (trace off) or per-layer (trace
/// on) metric, and the settings notes shared by all workloads.
void Finish(const RunConfig& config, const Measured& measured,
            Outcome* outcome);

/// The per-layer metric table: name and unit, in report order.
struct LayerMetric {
  const char* name;
  const char* unit;
};
const std::vector<LayerMetric>& PerLayerMetrics();

Outcome RunFitLarge(const RunConfig& config);
Outcome RunPaperSweep(const RunConfig& config);
Outcome RunStreamDrift(const RunConfig& config);
Outcome RunServeMixed(const RunConfig& config);

/// ARI of `labels` against `truth`; 0 when undefined.
double Ari(const std::vector<std::size_t>& labels,
           const std::vector<std::size_t>& truth);

/// True when every label is below `num_clusters` and the count matches.
bool LabelsValid(const std::vector<std::size_t>& labels, std::size_t n,
                 std::size_t num_clusters);

}  // namespace perfbench

#endif  // UMVSC_PERFBENCH_WORKLOADS_H_

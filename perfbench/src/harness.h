#ifndef UMVSC_PERFBENCH_HARNESS_H_
#define UMVSC_PERFBENCH_HARNESS_H_

// Measurement plumbing shared by every perfbench workload: sample
// statistics, the seeded open-loop schedule, the label digest, in-memory
// spans with self time, and the one-line JSON result.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

// --- Seeds ---------------------------------------------------------------

/// SplitMix64 of (seed, stream): derives independent sub-seeds from the
/// workload seed, identically on every platform.
std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t stream);

// --- Sample statistics ---------------------------------------------------

/// Median (mean of the two middle values for an even count); 0 when empty.
double Median(std::vector<double> values);

/// The tail rule: the highest percentile that still has at least ten
/// samples above it. With n >= 11 sorted samples that is the value of rank
/// n - 10 (nearest rank), the 100·(n − 10)/n-th percentile; below 11
/// samples it is the maximum.
struct TailStat {
  double value = 0.0;
  double percentile = 100.0;
  std::size_t samples = 0;
};
TailStat Tail(std::vector<double> values);

// --- Open-loop request schedule ------------------------------------------

struct ScheduledRequest {
  double due_s = 0.0;     ///< send time, seconds after the phase starts
  std::size_t batch = 0;  ///< points in the request
  std::size_t model = 0;  ///< model index in [0, num_models)
};

struct ScheduleSpec {
  double rate_per_s = 100.0;  ///< Poisson arrival rate
  std::size_t count = 0;      ///< requests in the list
  std::vector<std::size_t> batch_sizes;
  /// Share of requests per batch size (same length; need not sum to 1).
  /// The list holds exactly round(count · share) requests of each size,
  /// spread evenly over the models, in a seeded shuffle — so the work in a
  /// list is the same for every seed and only its order and timing vary.
  std::vector<double> batch_shares;
  std::size_t num_models = 1;
};

/// Seeded request list: exact batch/model mix, shuffled, with exponential
/// inter-arrival gaps of mean 1/rate. Pure function of (spec, seed).
std::vector<ScheduledRequest> PoissonSchedule(const ScheduleSpec& spec,
                                              std::uint64_t seed);

// --- Label digest --------------------------------------------------------

/// Folds a label vector into a running CRC-32 (common/crc32), each label
/// as a 4-byte little-endian value. Start from 0; chaining the digests of
/// every operation in list order gives the workload digest.
std::uint32_t ExtendDigest(std::uint32_t digest,
                           const std::vector<std::size_t>& labels);

// --- Spans ---------------------------------------------------------------

struct Span {
  std::string name;
  double start = 0.0;  ///< seconds since the trace was created
  double end = 0.0;
  int parent = -1;     ///< index of the enclosing span, -1 for a root
  double seconds() const { return end - start; }
};

/// Seconds of spans[index] not covered by the union of its direct
/// children's intervals (children clipped to the parent).
double SelfSeconds(const std::vector<Span>& spans, std::size_t index);

/// In-memory span recorder. Thread-safe: executor jobs record from worker
/// threads. A null Trace* everywhere means "untraced".
class Trace {
 public:
  Trace();
  /// Opens a span and returns its index.
  int Open(std::string name, int parent = -1);
  void Close(int index);
  /// Snapshot of every span recorded so far.
  std::vector<Span> spans() const;
  /// Durations of the closed spans called `name`, in open order.
  std::vector<double> Durations(std::string_view name) const;
  /// Sum of Durations(name).
  double Total(std::string_view name) const;

 private:
  double Now() const;
  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op when `trace` is null.
class ScopedSpan {
 public:
  ScopedSpan(Trace* trace, std::string name, int parent = -1)
      : trace_(trace),
        index_(trace != nullptr ? trace->Open(std::move(name), parent) : -1) {}
  ~ScopedSpan() {
    if (trace_ != nullptr) trace_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int index() const { return index_; }

 private:
  Trace* trace_;
  int index_;
};

// --- Results -------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Ordered key → raw-JSON-value pairs for the settings line.
class Notes {
 public:
  void Add(const std::string& key, const std::string& raw_json);
  void AddNumber(const std::string& key, double value);
  void AddString(const std::string& key, const std::string& value);
  std::string ToJson() const;

 private:
  std::vector<std::pair<std::string, std::string>> items_;
};

std::string JsonString(const std::string& s);
std::string JsonNumber(double value);

/// What a workload run produced: the metrics of its mode, the operation
/// counts, the label digest and the settings it ran under.
struct Outcome {
  std::vector<Metric> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::uint32_t digest = 0;
  Notes notes;

  /// Counts one operation; returns `ok`. Logs `what` on failure.
  bool Check(bool ok, const std::string& what);
  /// Counts `attempted` operations of which `failed` failed.
  void Count(std::size_t attempted_ops, std::size_t failed_ops,
             const std::string& what);
  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// The final stdout line: {"correct", "attempted", "failed", "metrics"}.
void PrintResult(std::FILE* out, const Outcome& outcome);

}  // namespace perfbench

#endif  // UMVSC_PERFBENCH_HARNESS_H_

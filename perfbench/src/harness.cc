#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "bench_common.h"
#include "common/crc32.h"

namespace perfbench {

std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

TailStat Tail(std::vector<double> values) {
  TailStat tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n < 11) {
    tail.value = values.back();
    tail.percentile = 100.0;
  } else {
    tail.value = values[n - 11];
    tail.percentile = 100.0 * static_cast<double>(n - 10) /
                      static_cast<double>(n);
  }
  return tail;
}

namespace {

// Uniform double in [0, 1) from a SplitMix64 stream.
class UnitRng {
 public:
  explicit UnitRng(std::uint64_t seed) : seed_(seed) {}
  std::uint64_t Next() { return MixSeed(seed_, counter_++); }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t seed_;
  std::uint64_t counter_ = 0;
};

}  // namespace

std::vector<ScheduledRequest> PoissonSchedule(const ScheduleSpec& spec,
                                              std::uint64_t seed) {
  std::vector<ScheduledRequest> list;
  if (spec.count == 0 || spec.batch_sizes.empty() || spec.num_models == 0) {
    return list;
  }
  double share_total = 0.0;
  for (double share : spec.batch_shares) share_total += share;
  // Exact counts per batch size; the largest share absorbs the rounding so
  // the list holds exactly `count` requests.
  std::vector<std::size_t> counts(spec.batch_sizes.size(), 0);
  std::size_t assigned = 0;
  std::size_t largest = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    const double share =
        b < spec.batch_shares.size() && share_total > 0.0
            ? spec.batch_shares[b] / share_total
            : 0.0;
    counts[b] = static_cast<std::size_t>(
        std::llround(share * static_cast<double>(spec.count)));
    assigned += counts[b];
    if (counts[b] > counts[largest]) largest = b;
  }
  if (assigned > spec.count) {
    counts[largest] -= std::min(counts[largest], assigned - spec.count);
  } else {
    counts[largest] += spec.count - assigned;
  }
  for (std::size_t b = 0; b < counts.size(); ++b) {
    for (std::size_t i = 0; i < counts[b]; ++i) {
      list.push_back({0.0, spec.batch_sizes[b], i % spec.num_models});
    }
  }
  UnitRng rng(MixSeed(seed, 0x5EED));
  for (std::size_t i = list.size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(rng.Next() % i);
    std::swap(list[i - 1], list[j]);
  }
  double t = 0.0;
  for (ScheduledRequest& request : list) {
    t += -std::log1p(-rng.Uniform()) / spec.rate_per_s;
    request.due_s = t;
  }
  return list;
}

std::uint32_t ExtendDigest(std::uint32_t digest,
                           const std::vector<std::size_t>& labels) {
  std::vector<unsigned char> bytes(labels.size() * 4);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    const auto v = static_cast<std::uint32_t>(labels[i]);
    for (int b = 0; b < 4; ++b) {
      bytes[4 * i + b] = static_cast<unsigned char>(v >> (8 * b));
    }
  }
  return umvsc::Crc32(bytes.data(), bytes.size(), digest);
}

double SelfSeconds(const std::vector<Span>& spans, std::size_t index) {
  const Span& parent = spans[index];
  std::vector<std::pair<double, double>> covered;
  for (const Span& span : spans) {
    if (span.parent != static_cast<int>(index)) continue;
    const double lo = std::max(span.start, parent.start);
    const double hi = std::min(span.end, parent.end);
    if (hi > lo) covered.emplace_back(lo, hi);
  }
  std::sort(covered.begin(), covered.end());
  double union_seconds = 0.0;
  double reach = parent.start;
  for (const auto& [lo, hi] : covered) {
    const double from = std::max(lo, reach);
    if (hi > from) union_seconds += hi - from;
    reach = std::max(reach, hi);
  }
  return parent.seconds() - union_seconds;
}

Trace::Trace() : origin_(std::chrono::steady_clock::now()) {}

double Trace::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

int Trace::Open(std::string name, int parent) {
  const double now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({std::move(name), now, now, parent});
  return static_cast<int>(spans_.size() - 1);
}

void Trace::Close(int index) {
  const double now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(index)].end = now;
}

std::vector<Span> Trace::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<double> Trace::Durations(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back(span.seconds());
  }
  return out;
}

double Trace::Total(std::string_view name) const {
  double total = 0.0;
  for (double seconds : Durations(name)) total += seconds;
  return total;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  out += umvsc::bench::JsonEscape(s);
  out += '"';
  return out;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void Notes::Add(const std::string& key, const std::string& raw_json) {
  items_.emplace_back(key, raw_json);
}

void Notes::AddNumber(const std::string& key, double value) {
  Add(key, JsonNumber(value));
}

void Notes::AddString(const std::string& key, const std::string& value) {
  Add(key, JsonString(value));
}

std::string Notes::ToJson() const {
  std::string out = "{";
  for (std::size_t i = 0; i < items_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(items_[i].first) + ": " + items_[i].second;
  }
  return out + "}";
}

bool Outcome::Check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
  return ok;
}

void Outcome::Count(std::size_t attempted_ops, std::size_t failed_ops,
                    const std::string& what) {
  attempted += attempted_ops;
  failed += failed_ops;
  if (failed_ops > 0) {
    std::fprintf(stderr, "perfbench: %zu of %zu failed: %s\n", failed_ops,
                 attempted_ops, what.c_str());
  }
}

void PrintResult(std::FILE* out, const Outcome& outcome) {
  std::string line = "{\"correct\": ";
  line += outcome.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(outcome.attempted);
  line += ", \"failed\": " + std::to_string(outcome.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    if (i > 0) line += ", ";
    line += JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": " + JsonString(m.unit) + "}";
  }
  line += "}}\n";
  std::fputs(line.c_str(), out);
  std::fflush(out);
}

}  // namespace perfbench

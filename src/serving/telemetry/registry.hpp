// Counter/histogram registry: the "what happened" half of the telemetry
// subsystem (the tracer in tracer.hpp is the "where did time go" half).
//
// Components register named instruments once at construction and keep the
// returned handles; the hot path then records through plain pointers — no
// name lookup, no hashing, no allocation. A counter is one relaxed atomic
// add, safe to record from concurrent tasks (the cluster runs each link's
// slot work as one task on its executor, and the links record their
// "link<k>/" counters from there); histograms stay deliberately
// single-threaded — each has one writer, its link's task or the serial
// slot prefix — so a histogram record is a bit_width + two adds.
//
// Histograms are log2-bucketed: bucket 0 holds values < 1, bucket b >= 1
// holds [2^(b-1), 2^b). Percentiles report the owning bucket's lower bound,
// so a data set made of exact powers of two yields *exact* percentiles
// (the telemetry tests exploit this), and any data set's reported quantile
// is at most 2x below the true one — the usual log-bucket contract.
//
// One registry serves a whole run: the links' tasks share it through the
// atomic counters, so there is no per-thread shard to merge. The registry's
// instrument storage is a deque so handles stay stable across
// registrations. Iteration order is registration order, which keeps exported
// tables deterministic.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>

#include "common/csv.hpp"

namespace arvis {

class PhaseTracer;      // tracer.hpp
class FlightRecorder;   // flight_recorder.hpp

/// A named monotonic counter. add() only; no reset (a run owns its registry).
/// add() is a relaxed atomic fetch-add: counters are the one instrument
/// concurrent writers may share (they are recorded from the cluster's link
/// tasks), so concurrent adds must never tear or drop. Relaxed is enough —
/// there is no ordering to protect, only the sum — and value() is
/// meaningful at phase barriers (slot boundaries and export time), which is
/// when the runtime reads it.
class TelemetryCounter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// A log2-bucketed histogram for latency/size samples. O(1) record.
class TelemetryHistogram {
 public:
  /// Bucket count: bucket 0 = [0, 1), buckets 1..63 = [2^(b-1), 2^b), so
  /// the full uint64 sample range maps without clamping surprises.
  static constexpr std::size_t kBuckets = 64;

  void record(double value) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  /// 0 when empty.
  [[nodiscard]] double min() const noexcept { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return count_ ? max_ : 0.0; }
  [[nodiscard]] double mean() const noexcept {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }

  /// Lower bound of the bucket holding the p-th percentile sample
  /// (p in (0, 100]; rank = ceil(p/100 * count), nearest-rank). 0 when empty.
  [[nodiscard]] double percentile(double p) const noexcept;

  /// Bucket index a value lands in (see class comment for the bounds).
  [[nodiscard]] static std::size_t bucket_index(double value) noexcept;
  /// Inclusive lower bound of bucket b (0 for b = 0, else 2^(b-1)).
  [[nodiscard]] static double bucket_lower_bound(std::size_t b) noexcept;

  [[nodiscard]] std::uint64_t bucket_count(std::size_t b) const noexcept {
    return buckets_[b];
  }

 private:
  std::uint64_t buckets_[kBuckets] = {};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// The per-run instrument registry. get-or-create by name; handles stay
/// valid for the registry's lifetime. Not thread-safe (one registry per
/// run, registration at construction time only).
class TelemetryRegistry {
 public:
  /// Returns the counter named `name`, creating it (at 0) on first use.
  TelemetryCounter& counter(std::string_view name);
  /// Returns the histogram named `name`, creating it (empty) on first use.
  TelemetryHistogram& histogram(std::string_view name);

  /// Looks a counter up without creating it; nullptr when absent.
  [[nodiscard]] const TelemetryCounter* find_counter(
      std::string_view name) const noexcept;
  [[nodiscard]] const TelemetryHistogram* find_histogram(
      std::string_view name) const noexcept;

  [[nodiscard]] std::size_t counter_count() const noexcept {
    return counters_.size();
  }

  /// Flat iteration in registration order, for export.
  template <typename Fn>  // Fn(const std::string&, const TelemetryCounter&)
  void for_each_counter(Fn&& fn) const {
    for (const auto& entry : counters_) fn(entry.name, entry.instrument);
  }
  template <typename Fn>  // Fn(const std::string&, const TelemetryHistogram&)
  void for_each_histogram(Fn&& fn) const {
    for (const auto& entry : histograms_) fn(entry.name, entry.instrument);
  }

  /// (counter, value) rows in registration order.
  [[nodiscard]] CsvTable counters_table() const;
  /// (histogram, count, min, max, mean, p50, p95, p99) rows.
  [[nodiscard]] CsvTable histograms_table() const;
  /// The whole registry as one JSON object:
  /// {"counters":{...},"histograms":{name:{count,min,max,mean,p50,p95,p99}}}.
  [[nodiscard]] std::string to_json() const;

 private:
  template <typename T>
  struct Entry {
    std::string name;
    T instrument;
  };

  std::deque<Entry<TelemetryCounter>> counters_;
  std::deque<Entry<TelemetryHistogram>> histograms_;
};

/// How much the runtime records. Each tier includes the previous one.
enum class TelemetryMode : std::uint8_t {
  /// Nothing: the instrumentation points reduce to predictable null checks
  /// and a handful of plain uint64 adds per *slot* (never per session), and
  /// allocate nothing (the allocation probes run in this mode).
  kOff,
  /// Registry counters + histograms, flushed at slot boundaries and
  /// lifecycle edges.
  kCounters,
  /// Counters plus slot-phase spans into the tracer's ring buffer.
  kFullTrace,
};

const char* to_string(TelemetryMode mode) noexcept;

/// Telemetry wiring, embedded in ServingConfig and DriverConfig. The caller
/// owns the registry/tracer (they must outlive the runtime); copying a
/// config into K links shares both, with `tid` telling streams apart.
struct TelemetryConfig {
  TelemetryMode mode = TelemetryMode::kOff;
  /// Required (non-null) when mode >= kCounters.
  TelemetryRegistry* registry = nullptr;
  /// Required (non-null) when mode == kFullTrace.
  PhaseTracer* tracer = nullptr;
  /// Trace lane / counter-name prefix id. SessionManager uses it as the
  /// link id ("link<tid>/..." counters, Chrome tid <tid>); EdgeCluster
  /// assigns each link its index.
  std::uint32_t tid = 0;
  /// Flight-recorder wiring — the one always-on telemetry layer: null
  /// means "record lifecycle events into the process-global ring" (see
  /// flight_recorder.hpp for why that is free enough). Point it at a
  /// caller-owned recorder to isolate a run. Resolved once at runtime
  /// construction by resolve_flight_recorder().
  FlightRecorder* flight = nullptr;

  [[nodiscard]] bool counters_on() const noexcept {
    return mode >= TelemetryMode::kCounters && registry != nullptr;
  }
  [[nodiscard]] bool trace_on() const noexcept {
    return mode == TelemetryMode::kFullTrace && tracer != nullptr;
  }
};

/// Validates the mode/pointer pairing (throws std::invalid_argument with
/// `who` as the message prefix when a required pointer is missing).
void validate_telemetry(const TelemetryConfig& config, const char* who);

}  // namespace arvis

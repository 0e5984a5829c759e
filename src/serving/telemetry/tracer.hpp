// Slot-phase tracer: scoped RAII spans over the serving runtime's slot
// phases (begin_slot / decide / schedule / drain / finish) and the driver's
// event batches, recorded into a preallocated ring buffer with steady-clock
// timestamps.
//
// Cost model: a span is two steady_clock reads plus one relaxed fetch-add
// (the ring slot claim) and one ring store when the tracer is live and
// sampling this slot; when the caller's tracer pointer is null (telemetry
// off or counters-only) constructing a PhaseSpan is a single predictable
// branch — which is what lets the spans live permanently in the hot path
// without violating the zero-overhead-when-off contract.
//
// Writers: the cluster runs each link's slot work as one task on its
// executor, so with threads > 1 several links record at once. The slot
// claim makes that safe; spans from different links of one slot may then
// interleave in the ring, each record's fields unchanged.
//
// Export: chrome_trace_json() renders the ring as Chrome trace_event JSON
// ("X" complete events, microsecond timestamps) loadable by chrome://tracing
// and Perfetto; rollup_table() aggregates wall time per phase (optionally
// per tid lane) so a bench can print where slot time went without leaving
// the terminal.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/csv.hpp"

namespace arvis {

/// The traced phases. The first four are the slot loop (the names CI greps
/// for in the smoke trace); kFinish is the end-of-run bookkeeping; kPlace is
/// the cluster's arrival placement; kEvents is a driver calendar batch.
enum class Phase : std::uint8_t {
  kBeginSlot,
  kDecide,
  kSchedule,
  kDrain,
  kFinish,
  kPlace,
  kEvents,
};

inline constexpr std::size_t kPhaseCount = 7;

const char* to_string(Phase phase) noexcept;

/// Chrome-trace lane ids for the non-link actors (links use their index).
inline constexpr std::uint32_t kClusterTid = 998;
inline constexpr std::uint32_t kDriverTid = 999;

/// One recorded span. Timestamps are nanoseconds since the tracer's epoch
/// (its construction time, steady clock).
struct SpanRecord {
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::size_t slot = 0;
  std::uint32_t tid = 0;
  Phase phase = Phase::kBeginSlot;
};

struct TracerConfig {
  /// Ring capacity in spans; once full, the oldest spans are overwritten
  /// (dropped() reports how many). Preallocated at construction.
  std::size_t capacity = 1 << 16;
};

class PhaseTracer {
 public:
  /// Throws std::invalid_argument on zero capacity.
  explicit PhaseTracer(const TracerConfig& config = {});

  [[nodiscard]] std::size_t capacity() const noexcept { return ring_.size(); }

  /// Nanoseconds since the tracer's epoch (steady clock).
  [[nodiscard]] std::uint64_t now_ns() const noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  /// Stores one span (overwrites the oldest once the ring is full). The
  /// slot claim is a relaxed fetch-add, as in FlightRecorder::record, so
  /// concurrent writers land in distinct ring slots; the payload stores are
  /// plain (readers consume the ring only at quiescent points).
  void record(Phase phase, std::size_t slot, std::uint32_t tid,
              std::uint64_t start_ns, std::uint64_t end_ns) noexcept {
    const std::uint64_t n = total_.fetch_add(1, std::memory_order_relaxed);
    SpanRecord& r = ring_[static_cast<std::size_t>(n % ring_.size())];
    r.start_ns = start_ns;
    r.dur_ns = end_ns >= start_ns ? end_ns - start_ns : 0;
    r.slot = slot;
    r.tid = tid;
    r.phase = phase;
  }

  /// Spans currently held (min(recorded_total, capacity)).
  [[nodiscard]] std::size_t size() const noexcept {
    const std::uint64_t total = recorded_total();
    return total < ring_.size() ? static_cast<std::size_t>(total)
                                : ring_.size();
  }
  /// Spans ever recorded, including overwritten ones.
  [[nodiscard]] std::uint64_t recorded_total() const noexcept {
    return total_.load(std::memory_order_relaxed);
  }
  /// Spans lost to ring wraparound.
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    const std::uint64_t total = recorded_total();
    return total > ring_.size() ? total - ring_.size() : 0;
  }

  /// i-th held span, oldest first (i < size()).
  [[nodiscard]] const SpanRecord& at(std::size_t i) const noexcept {
    const std::uint64_t total = recorded_total();
    if (total <= ring_.size()) return ring_[i];
    return ring_[static_cast<std::size_t>((total + i) % ring_.size())];
  }

  /// The held spans as Chrome trace_event JSON ({"traceEvents":[...]},
  /// "X" complete events, ts/dur in microseconds, pid 1, tid = span lane,
  /// args.slot = the slot). Loadable by chrome://tracing and Perfetto.
  [[nodiscard]] std::string chrome_trace_json() const;

  /// Wall time per phase over the held spans: (phase, spans, total_us,
  /// mean_us, share_pct) where share is of the summed span time. With
  /// `per_tid` a leading tid column splits the rollup by lane.
  [[nodiscard]] CsvTable rollup_table(bool per_tid = false) const;

 private:
  std::vector<SpanRecord> ring_;
  std::atomic<std::uint64_t> total_{0};
  std::chrono::steady_clock::time_point epoch_;
};

/// RAII span: measures from construction to destruction and records into the
/// tracer. A null tracer reduces the whole object to one branch — no clock
/// reads.
class PhaseSpan {
 public:
  PhaseSpan(PhaseTracer* tracer, Phase phase, std::size_t slot,
            std::uint32_t tid) noexcept
      : tracer_(tracer) {
    if (tracer_ != nullptr) {
      phase_ = phase;
      slot_ = slot;
      tid_ = tid;
      start_ns_ = tracer_->now_ns();
    }
  }

  ~PhaseSpan() {
    if (tracer_ != nullptr) {
      tracer_->record(phase_, slot_, tid_, start_ns_, tracer_->now_ns());
    }
  }

  PhaseSpan(const PhaseSpan&) = delete;
  PhaseSpan& operator=(const PhaseSpan&) = delete;

 private:
  PhaseTracer* tracer_;
  Phase phase_ = Phase::kBeginSlot;
  std::size_t slot_ = 0;
  std::uint32_t tid_ = 0;
  std::uint64_t start_ns_ = 0;
};

}  // namespace arvis

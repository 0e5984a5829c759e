// A 64-bit fingerprint of one serving run, for golden pins: a test commits
// the digest of a reference run and asserts the runtime still reproduces it.
//
// The digest folds, in order: every session's id, admitted flag and window
// (arrival, departure), then each decoded step's depth, service and
// backlog_end; then the fleet aggregates and the admission counters. Doubles
// enter by bit pattern, so any change in the arithmetic changes the digest.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#include "serving/admission.hpp"
#include "serving/metrics.hpp"
#include "serving/session_manager.hpp"

namespace arvis_test {

/// FNV-1a over 64-bit words.
class RunDigest {
 public:
  void add(std::uint64_t word) noexcept {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xFFU;
      hash_ *= 0x100000001B3ULL;
    }
  }
  void add(double value) noexcept { add(std::bit_cast<std::uint64_t>(value)); }
  void add(int value) noexcept {
    add(static_cast<std::uint64_t>(static_cast<std::int64_t>(value)));
  }
  void add(bool value) noexcept { add(std::uint64_t{value ? 1U : 0U}); }

  void add(const arvis::SessionOutcome& s) {
    add(s.id);
    add(s.admitted);
    add(s.arrival_slot);
    add(s.departure_slot);
    add(s.trace.size());
    for (const arvis::StepRecord& r : s.trace.steps()) {
      add(r.depth);
      add(r.service);
      add(r.backlog_end);
    }
  }

  void add(const arvis::FleetMetrics& f) {
    add(f.sessions_submitted);
    add(f.sessions_admitted);
    add(f.sessions_rejected);
    add(f.quality_fairness);
    add(f.mean_quality);
    add(f.total_time_average_backlog);
    add(f.peak_backlog);
    add(f.divergent_sessions);
    add(f.partial_summary_sessions);
    add(f.capacity_offered);
    add(f.capacity_used);
    add(f.peak_concurrency);
  }

  void add(const arvis::AdmissionStats& a) {
    add(a.attempts);
    add(a.accepted);
    add(a.rejected);
  }

  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

}  // namespace arvis_test

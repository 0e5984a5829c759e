// Fleet-level serving metrics: the aggregates the operator dashboards care
// about (fairness, backlog, capacity utilization, admission counts), kept as
// running sums the serving runtime folds slot by slot and session by
// session. No per-session record is stored here: the one outcome per session
// is ClusterSessionOutcome (cluster.hpp). Home of jain_fairness_index, which
// moved here from net/edge when the edge scenario became a thin wrapper over
// the serving runtime.
#pragma once

#include <cstddef>
#include <vector>

#include "sim/trace.hpp"

namespace arvis {

/// Jain's fairness index: (Σx)² / (n·Σx²); 1 when all values are equal
/// (including the all-zero fleet — nobody is favoured), → 1/n when one
/// session dominates. Empty input returns 0 (no fleet, no fairness).
double jain_fairness_index(const std::vector<double>& values);
/// The same index from n values' running sum and sum of squares.
double jain_fairness_index(std::size_t n, double sum, double sum_sq);

/// Fleet aggregates over one serving run.
struct FleetMetrics {
  std::size_t sessions_submitted = 0;
  std::size_t sessions_admitted = 0;
  std::size_t sessions_rejected = 0;
  // The quality/backlog aggregates below cover every admitted session that
  // streamed at least one slot (sessions active < 8 slots contribute via
  // partial summaries); only the stability verdict count is restricted to
  // full summaries, since the classifier needs a tail.
  /// Jain index over summarized sessions' time-average quality.
  double quality_fairness = 0.0;
  /// Mean over summarized sessions of time-average quality.
  double mean_quality = 0.0;
  /// Sum over summarized sessions of time-average backlog (bytes).
  double total_time_average_backlog = 0.0;
  /// Largest instantaneous backlog any summarized session reached (bytes).
  double peak_backlog = 0.0;
  /// Fully-summarized (>= 8 slot) sessions whose verdict was divergent.
  std::size_t divergent_sessions = 0;
  /// Admitted sessions whose summary is partial (active 1..7 slots).
  std::size_t partial_summary_sessions = 0;
  /// Σ over slots of link capacity offered (bytes).
  double capacity_offered = 0.0;
  /// Σ over slots of capacity that actually drained queues (bytes).
  double capacity_used = 0.0;
  /// Most sessions simultaneously active in any slot.
  std::size_t peak_concurrency = 0;

  /// Fraction of offered capacity used, in [0, 1]; 0 when nothing offered.
  [[nodiscard]] double utilization() const noexcept {
    return capacity_offered > 0.0 ? capacity_used / capacity_offered : 0.0;
  }
};

/// Running aggregates the serving runtime feeds slot by slot and session by
/// session; fleet() turns them into FleetMetrics. Sums fold in call order,
/// so the same sessions recorded in the same order give bit-identical means.
class ServerMetrics {
 public:
  /// Records one slot's link-level outcome.
  void record_slot(double capacity_offered, double capacity_used,
                   std::size_t active_sessions);

  /// Folds one submitted session into the running sums. `arrived` is false
  /// when the run ended before its arrival slot (admission never saw it, so
  /// it counts as neither admitted nor rejected). `summary` is null unless
  /// the session was admitted and streamed at least one slot.
  void record_session(bool arrived, bool admitted,
                      const TraceSummary* summary);

  // Running slot totals, readable mid-run (the event-driven driver samples
  // them for its periodic metrics snapshots; fleet() stays an end-of-run
  // aggregate).
  [[nodiscard]] double capacity_offered_total() const noexcept {
    return sums_.capacity_offered;
  }
  [[nodiscard]] double capacity_used_total() const noexcept {
    return sums_.capacity_used;
  }

  /// The fleet aggregates over everything recorded so far.
  [[nodiscard]] FleetMetrics fleet() const;

 private:
  /// Counts, slot totals and backlog aggregates; fleet() adds the quality
  /// mean and fairness from the sums below.
  FleetMetrics sums_;
  std::size_t summarized_ = 0;
  double quality_sum_ = 0.0;
  double quality_sq_sum_ = 0.0;
};

}  // namespace arvis

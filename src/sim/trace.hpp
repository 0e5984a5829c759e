// Per-slot simulation records and their summaries — the raw material of
// every figure in the paper.
#pragma once

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "common/csv.hpp"
#include "queueing/stability.hpp"

namespace arvis {

/// What happened in one simulation slot.
struct StepRecord {
  std::size_t t = 0;
  int depth = 0;               // control action d(t)
  double arrivals = 0.0;       // a(d(t)) enqueued this slot
  double service = 0.0;        // b(t) available this slot
  double backlog_begin = 0.0;  // Q(t) observed by the controller
  double backlog_end = 0.0;    // Q(t+1)
  double quality = 0.0;        // p_a(d(t))
};

/// Scalar summary of a finished run.
struct TraceSummary {
  double time_average_quality = 0.0;
  double time_average_backlog = 0.0;
  double final_backlog = 0.0;
  double peak_backlog = 0.0;
  double mean_depth = 0.0;
  double mean_arrivals = 0.0;
  double mean_service = 0.0;
  /// True when the trace was too short (< 8 slots) for stability analysis:
  /// the means above are valid, but `stability` holds only peak/average and
  /// its verdict must not be trusted (report it as "too-short").
  bool partial = false;
  StabilityReport stability;
};

/// The one summary definition, over any sized forward range of StepRecord
/// values: the summation order and the stability thresholds behind
/// Trace::summarize_partial, shared by record types that decode into
/// StepRecords (the serving runtime's SessionTrace) so their summaries stay
/// bit-identical. The stability report reuses this pass's backlog peak and
/// time average and keeps only the Q(t) tail the fit reads, so it equals
/// analyze_stability over the whole series for the non-negative backlogs a
/// queue produces. Throws std::logic_error on an empty range.
template <class Steps>
TraceSummary summarize_steps(const Steps& steps) {
  const std::size_t count = steps.size();
  if (count == 0) {
    throw std::logic_error("summarize_partial: empty trace");
  }
  const bool analyzed = count >= 8;
  constexpr double kTailFraction = 1.0 / 3.0;
  const std::size_t tail_start =
      analyzed ? count - stability_tail_length(count, kTailFraction) : count;
  TraceSummary summary;
  double q_sum = 0.0, b_sum = 0.0, d_sum = 0.0, a_sum = 0.0, s_sum = 0.0;
  std::vector<double> tail;  // Q(t) over the stability fit's tail
  tail.reserve(count - tail_start);
  std::size_t t = 0;
  for (const StepRecord& s : steps) {
    q_sum += s.quality;
    b_sum += s.backlog_begin;
    d_sum += s.depth;
    a_sum += s.arrivals;
    s_sum += s.service;
    summary.peak_backlog = std::max(summary.peak_backlog, s.backlog_begin);
    summary.final_backlog = s.backlog_end;
    if (t++ >= tail_start) tail.push_back(s.backlog_begin);
  }
  const auto n = static_cast<double>(count);
  summary.time_average_quality = q_sum / n;
  summary.time_average_backlog = b_sum / n;
  summary.mean_depth = d_sum / n;
  summary.mean_arrivals = a_sum / n;
  summary.mean_service = s_sum / n;
  if (!analyzed) {
    // Too short for the regression-based stability classifier: report the
    // observables we do have and flag the summary partial so consumers show
    // "too-short" instead of a fabricated verdict.
    summary.partial = true;
    summary.stability.peak = summary.peak_backlog;
    summary.stability.time_average = summary.time_average_backlog;
    summary.stability.tail_mean = summary.time_average_backlog;
    return summary;
  }
  // Scale-relative thresholds: a stable queue still holds up to one slot of
  // arrivals at the observation instant (Lindley order: serve, then admit),
  // so "converged to zero" means "at most ~a couple of slots of arrivals";
  // genuine divergence grows by a macroscopic fraction of the arrival rate
  // every slot.
  const double zero_threshold = std::max(1.0, 2.0 * summary.mean_arrivals);
  const double divergence_slope = std::max(1.0, 0.02 * summary.mean_arrivals);
  summary.stability = classify_stability(
      tail, tail_start, summary.peak_backlog, summary.time_average_backlog,
      divergence_slope, zero_threshold);
  return summary;
}

/// An append-only run record.
class Trace {
 public:
  void add(const StepRecord& record) { steps_.push_back(record); }
  void reserve(std::size_t n) { steps_.reserve(n); }

  [[nodiscard]] std::size_t size() const noexcept { return steps_.size(); }
  [[nodiscard]] bool empty() const noexcept { return steps_.empty(); }
  [[nodiscard]] const StepRecord& at(std::size_t i) const {
    return steps_.at(i);
  }
  [[nodiscard]] const std::vector<StepRecord>& steps() const noexcept {
    return steps_;
  }

  /// Q(t) series (backlog at slot start), one entry per slot.
  [[nodiscard]] std::vector<double> backlog_series() const;
  /// d(t) series.
  [[nodiscard]] std::vector<int> depth_series() const;
  /// p_a(d(t)) series.
  [[nodiscard]] std::vector<double> quality_series() const;

  /// Computes all summary scalars (throws std::logic_error on an empty
  /// trace; stability analysis needs >= 8 slots).
  [[nodiscard]] TraceSummary summarize() const;

  /// summarize() that degrades instead of throwing on short traces: with
  /// >= 8 slots it returns the full summary, otherwise a partial one
  /// (means/peaks valid, `partial` set, no stability verdict). Short-lived
  /// churned sessions still throw on an *empty* trace — there is nothing
  /// to summarize.
  [[nodiscard]] TraceSummary summarize_partial() const;

  /// Full per-slot CSV (t, depth, arrivals, service, backlog, quality).
  [[nodiscard]] CsvTable to_csv_table() const;

 private:
  std::vector<StepRecord> steps_;
};

}  // namespace arvis

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

/// The one summary definition, as an accumulator over one record of `count`
/// steps: the summation order and the stability thresholds behind
/// Trace::summarize_partial. Pass 1 feeds every step in slot order (add);
/// pass 2 feeds Q(t) of the stability tail's steps again, in order
/// (add_tail), once pass 1 is done. summarize_steps runs it over a range;
/// the serving runtime's finish() feeds many records' steps interleaved, in
/// the order their chunks lie in memory. Either way each record's sums are
/// added in the same order, so the summaries are bit-identical. The
/// stability report reuses pass 1's backlog peak and time average and fits
/// only the Q(t) tail, so it equals analyze_stability over the whole series
/// for the non-negative backlogs a queue produces.
class SummaryAccumulator {
 public:
  /// Throws std::logic_error on an empty record.
  explicit SummaryAccumulator(std::size_t count);

  /// Index of the first step of the stability tail (`count` when the record
  /// is too short to analyze).
  [[nodiscard]] std::size_t tail_start() const noexcept { return tail_start_; }

  /// Pass 1: the next step. True when it lies in the stability tail.
  bool add(double quality, double backlog_begin, int depth, double arrivals,
           double service, double backlog_end) noexcept {
    q_sum_ += quality;
    b_sum_ += backlog_begin;
    d_sum_ += depth;
    a_sum_ += arrivals;
    s_sum_ += service;
    peak_ = std::max(peak_, backlog_begin);
    final_ = backlog_end;
    if (seen_++ < tail_start_) return false;
    fit_.add_first(backlog_begin);
    return true;
  }
  bool add(const StepRecord& s) noexcept {
    return add(s.quality, s.backlog_begin, s.depth, s.arrivals, s.service,
               s.backlog_end);
  }
  /// Pass 2: Q(t) of the next tail step.
  void add_tail(double backlog_begin) noexcept {
    fit_.add_second(backlog_begin);
  }

  /// The summary, once both passes are done.
  [[nodiscard]] TraceSummary summary() const noexcept;

 private:
  std::size_t count_;
  std::size_t tail_start_;
  std::size_t seen_ = 0;
  double q_sum_ = 0.0, b_sum_ = 0.0, d_sum_ = 0.0, a_sum_ = 0.0, s_sum_ = 0.0;
  double peak_ = 0.0;
  double final_ = 0.0;
  TailFit fit_;
};

/// SummaryAccumulator over any sized forward range of StepRecord values, in
/// one pass that keeps the tail's Q(t) for the second: the summary of
/// Trace::summarize_partial and of every record type that decodes into
/// StepRecords (the serving runtime's SessionTrace). Throws
/// std::logic_error on an empty range.
template <class Steps>
TraceSummary summarize_steps(const Steps& steps) {
  SummaryAccumulator sums(steps.size());
  std::vector<double> tail;  // Q(t) over the stability fit's tail
  tail.reserve(steps.size() - sums.tail_start());
  for (const StepRecord& s : steps) {
    if (sums.add(s)) tail.push_back(s.backlog_begin);
  }
  for (const double q : tail) sums.add_tail(q);
  return sums.summary();
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

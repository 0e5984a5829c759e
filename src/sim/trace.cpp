#include "sim/trace.hpp"

#include <stdexcept>

namespace arvis {

namespace {
constexpr double kTailFraction = 1.0 / 3.0;
}  // namespace

SummaryAccumulator::SummaryAccumulator(std::size_t count)
    : count_(count),
      tail_start_(count >= 8 ? count - stability_tail_length(count,
                                                             kTailFraction)
                             : count) {
  if (count == 0) {
    throw std::logic_error("summarize_partial: empty trace");
  }
  fit_ = TailFit(tail_start_, count - tail_start_);
}

TraceSummary SummaryAccumulator::summary() const noexcept {
  TraceSummary summary;
  const auto n = static_cast<double>(count_);
  summary.time_average_quality = q_sum_ / n;
  summary.time_average_backlog = b_sum_ / n;
  summary.mean_depth = d_sum_ / n;
  summary.mean_arrivals = a_sum_ / n;
  summary.mean_service = s_sum_ / n;
  summary.peak_backlog = peak_;
  summary.final_backlog = final_;
  if (tail_start_ == count_) {
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
  summary.stability =
      fit_.report(summary.peak_backlog, summary.time_average_backlog,
                  divergence_slope, zero_threshold);
  return summary;
}

std::vector<double> Trace::backlog_series() const {
  std::vector<double> out;
  out.reserve(steps_.size());
  for (const StepRecord& s : steps_) out.push_back(s.backlog_begin);
  return out;
}

std::vector<int> Trace::depth_series() const {
  std::vector<int> out;
  out.reserve(steps_.size());
  for (const StepRecord& s : steps_) out.push_back(s.depth);
  return out;
}

std::vector<double> Trace::quality_series() const {
  std::vector<double> out;
  out.reserve(steps_.size());
  for (const StepRecord& s : steps_) out.push_back(s.quality);
  return out;
}

TraceSummary Trace::summarize() const {
  if (steps_.size() < 8) {
    throw std::logic_error("Trace::summarize: need >= 8 slots");
  }
  return summarize_partial();
}

TraceSummary Trace::summarize_partial() const {
  return summarize_steps(steps_);
}

CsvTable Trace::to_csv_table() const {
  CsvTable table({"t", "depth", "arrivals", "service", "backlog", "quality"});
  for (const StepRecord& s : steps_) {
    table.add_row({static_cast<std::int64_t>(s.t),
                   static_cast<std::int64_t>(s.depth), s.arrivals, s.service,
                   s.backlog_begin, s.quality});
  }
  return table;
}

}  // namespace arvis

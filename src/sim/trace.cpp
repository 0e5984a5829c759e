#include "sim/trace.hpp"

#include <stdexcept>

namespace arvis {

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

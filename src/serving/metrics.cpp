#include "serving/metrics.hpp"

#include <algorithm>

namespace arvis {

double jain_fairness_index(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0, sum_sq = 0.0;
  for (double v : values) {
    sum += v;
    sum_sq += v * v;
  }
  // All-zero fleet: every session got the same (zero) outcome — perfectly
  // fair, not maximally unfair (the seed returned 0 here, which made an
  // idle fleet look pathological).
  if (sum_sq <= 0.0) return 1.0;
  return sum * sum / (static_cast<double>(values.size()) * sum_sq);
}

void ServerMetrics::record_slot(double capacity_offered, double capacity_used,
                                std::size_t active_sessions) {
  capacity_offered_ += capacity_offered;
  capacity_used_ += capacity_used;
  peak_concurrency_ = std::max(peak_concurrency_, active_sessions);
}

void ServerMetrics::record_session(SessionMetrics metrics) {
  sessions_.push_back(std::move(metrics));
}

FleetMetrics ServerMetrics::fleet() const {
  FleetMetrics fleet;
  fleet.sessions_submitted = sessions_.size();
  fleet.capacity_offered = capacity_offered_;
  fleet.capacity_used = capacity_used_;
  fleet.peak_concurrency = peak_concurrency_;

  std::vector<double> qualities;
  qualities.reserve(sessions_.size());
  for (const SessionMetrics& s : sessions_) {
    if (!s.arrived) continue;  // admission never saw it
    if (!s.admitted) {
      ++fleet.sessions_rejected;
      continue;
    }
    ++fleet.sessions_admitted;
    if (!s.has_summary) continue;
    qualities.push_back(s.summary.time_average_quality);
    fleet.mean_quality += s.summary.time_average_quality;
    fleet.total_time_average_backlog += s.summary.time_average_backlog;
    fleet.peak_backlog = std::max(fleet.peak_backlog, s.summary.peak_backlog);
    if (s.summary.partial) {
      // Too short for a stability verdict, but its quality/backlog means are
      // real — excluding them made churn-heavy fleets under-report.
      ++fleet.partial_summary_sessions;
    } else if (s.summary.stability.verdict == StabilityVerdict::kDivergent) {
      ++fleet.divergent_sessions;
    }
  }
  if (!qualities.empty()) {
    fleet.mean_quality /= static_cast<double>(qualities.size());
  }
  fleet.quality_fairness = jain_fairness_index(qualities);
  return fleet;
}

}  // namespace arvis

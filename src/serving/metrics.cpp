#include "serving/metrics.hpp"

#include <algorithm>

namespace arvis {

double jain_fairness_index(const std::vector<double>& values) {
  double sum = 0.0, sum_sq = 0.0;
  for (double v : values) {
    sum += v;
    sum_sq += v * v;
  }
  return jain_fairness_index(values.size(), sum, sum_sq);
}

double jain_fairness_index(std::size_t n, double sum, double sum_sq) {
  if (n == 0) return 0.0;
  // All-zero fleet: every session got the same (zero) outcome — perfectly
  // fair, not maximally unfair (the seed returned 0 here, which made an
  // idle fleet look pathological).
  if (sum_sq <= 0.0) return 1.0;
  return sum * sum / (static_cast<double>(n) * sum_sq);
}

void ServerMetrics::record_slot(double capacity_offered, double capacity_used,
                                std::size_t active_sessions) {
  sums_.capacity_offered += capacity_offered;
  sums_.capacity_used += capacity_used;
  sums_.peak_concurrency = std::max(sums_.peak_concurrency, active_sessions);
}

void ServerMetrics::record_session(bool arrived, bool admitted,
                                   const TraceSummary* summary) {
  ++sums_.sessions_submitted;
  if (!arrived) return;  // admission never saw it
  if (!admitted) {
    ++sums_.sessions_rejected;
    return;
  }
  ++sums_.sessions_admitted;
  if (summary == nullptr) return;
  const double quality = summary->time_average_quality;
  ++summarized_;
  quality_sum_ += quality;
  quality_sq_sum_ += quality * quality;
  sums_.total_time_average_backlog += summary->time_average_backlog;
  sums_.peak_backlog = std::max(sums_.peak_backlog, summary->peak_backlog);
  if (summary->partial) {
    // Too short for a stability verdict, but its quality/backlog means are
    // real — excluding them made churn-heavy fleets under-report.
    ++sums_.partial_summary_sessions;
  } else if (summary->stability.verdict == StabilityVerdict::kDivergent) {
    ++sums_.divergent_sessions;
  }
}

FleetMetrics ServerMetrics::fleet() const {
  FleetMetrics fleet = sums_;
  if (summarized_ != 0) {
    fleet.mean_quality = quality_sum_ / static_cast<double>(summarized_);
  }
  fleet.quality_fairness =
      jain_fairness_index(summarized_, quality_sum_, quality_sq_sum_);
  return fleet;
}

}  // namespace arvis

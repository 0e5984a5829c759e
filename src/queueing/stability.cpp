#include "queueing/stability.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace arvis {

const char* to_string(StabilityVerdict verdict) noexcept {
  switch (verdict) {
    case StabilityVerdict::kDivergent: return "divergent";
    case StabilityVerdict::kConvergentToZero: return "convergent-to-zero";
    case StabilityVerdict::kBoundedPositive: return "bounded-positive";
  }
  return "?";
}

StabilityReport analyze_stability(const std::vector<double>& backlog,
                                  double tail_fraction, double divergence_slope,
                                  double zero_threshold) {
  if (backlog.size() < 8) {
    throw std::invalid_argument("analyze_stability: need >= 8 samples");
  }
  if (tail_fraction <= 0.0 || tail_fraction > 1.0) {
    throw std::invalid_argument("analyze_stability: tail_fraction in (0, 1]");
  }
  const double peak = *std::max_element(backlog.begin(), backlog.end());
  const double time_average =
      std::accumulate(backlog.begin(), backlog.end(), 0.0) /
      static_cast<double>(backlog.size());
  const std::size_t tail_len =
      stability_tail_length(backlog.size(), tail_fraction);
  const std::size_t start = backlog.size() - tail_len;
  return classify_stability(std::span<const double>(backlog).subspan(start),
                            start, peak, time_average, divergence_slope,
                            zero_threshold);
}

std::size_t stability_tail_length(std::size_t n,
                                  double tail_fraction) noexcept {
  return std::max<std::size_t>(
      4, static_cast<std::size_t>(static_cast<double>(n) * tail_fraction));
}

StabilityReport classify_stability(std::span<const double> tail,
                                   std::size_t start, double peak,
                                   double time_average,
                                   double divergence_slope,
                                   double zero_threshold) {
  TailFit fit(start, tail.size());
  for (const double q : tail) fit.add_first(q);
  for (const double q : tail) fit.add_second(q);
  return fit.report(peak, time_average, divergence_slope, zero_threshold);
}

StabilityReport TailFit::report(double peak, double time_average,
                                double divergence_slope,
                                double zero_threshold) const noexcept {
  StabilityReport report;
  report.peak = peak;
  report.time_average = time_average;

  // Least-squares slope of the tail against t: fit_linear's sums, in its
  // order, without materializing the (t, q) vectors. The tail sum is
  // fit_linear's y sum, so the tail mean is its y mean.
  const auto n = static_cast<double>(length_);
  report.tail_mean = sy_ / n;
  report.tail_slope = sxx_ <= 0.0 ? 0.0 : sxy_ / sxx_;

  // First-half tail mean vs second-half tail mean: still growing?
  const double first_half = first_half_ / static_cast<double>(half_);
  const double second_half =
      second_half_ / static_cast<double>(length_ - half_);

  if (report.tail_slope > divergence_slope && second_half > first_half) {
    report.verdict = StabilityVerdict::kDivergent;
  } else if (report.tail_mean < zero_threshold) {
    report.verdict = StabilityVerdict::kConvergentToZero;
  } else {
    report.verdict = StabilityVerdict::kBoundedPositive;
  }
  return report;
}

int max_sustainable_depth(const std::vector<double>& arrivals_at_depth,
                          double mean_service, int d_min, int d_max) {
  if (d_min > d_max) {
    throw std::invalid_argument("max_sustainable_depth: d_min > d_max");
  }
  int best = d_min - 1;
  for (int d = d_min; d <= d_max; ++d) {
    const auto idx = static_cast<std::size_t>(d);
    if (idx >= arrivals_at_depth.size()) break;
    if (arrivals_at_depth[idx] <= mean_service) best = d;
  }
  return best;
}

}  // namespace arvis

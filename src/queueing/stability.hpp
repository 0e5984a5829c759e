// Stability diagnostics over a backlog time series.
//
// The paper's Fig. 2(a) distinguishes three behaviours: divergence
// (max-depth), convergence to ~0 (min-depth), and bounded oscillation
// (proposed). These tests classify a series into those regimes.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace arvis {

enum class StabilityVerdict {
  /// Backlog grows without bound (sustained positive drift).
  kDivergent,
  /// Backlog settles to (near) zero.
  kConvergentToZero,
  /// Backlog stays bounded but non-trivial (rate-stable operation point).
  kBoundedPositive,
};

const char* to_string(StabilityVerdict verdict) noexcept;

/// Result of analyzing a backlog series.
struct StabilityReport {
  StabilityVerdict verdict = StabilityVerdict::kBoundedPositive;
  /// Least-squares backlog growth per slot over the analyzed tail.
  double tail_slope = 0.0;
  /// Mean backlog over the analyzed tail.
  double tail_mean = 0.0;
  /// Peak backlog over the whole series.
  double peak = 0.0;
  /// Time-average backlog over the whole series.
  double time_average = 0.0;
};

/// Analyzes `backlog[t]` for t = 0..n-1. The tail is the last `tail_fraction`
/// of the series (default: final third). A series is kDivergent when the tail
/// slope exceeds `divergence_slope` (work units/slot) AND the tail mean keeps
/// growing; kConvergentToZero when the tail mean is below `zero_threshold`.
/// Preconditions: backlog.size() >= 8, fractions in (0, 1].
StabilityReport analyze_stability(const std::vector<double>& backlog,
                                  double tail_fraction = 1.0 / 3.0,
                                  double divergence_slope = 1.0,
                                  double zero_threshold = 1.0);

/// Length of the tail analyze_stability fits for an `n`-sample series: the
/// last `tail_fraction` of it, at least 4 samples.
std::size_t stability_tail_length(std::size_t n, double tail_fraction) noexcept;

/// The verdict half of analyze_stability, for a caller that already holds
/// the series' `peak` and `time_average` (Trace summaries sum them on their
/// one pass): `tail` is the series' last stability_tail_length() samples,
/// the first of them at index `start`. The tail is read in place with
/// fit_linear's arithmetic in fit_linear's order, so the report is
/// bit-identical to analyze_stability's on the whole series.
StabilityReport classify_stability(std::span<const double> tail,
                                   std::size_t start, double peak,
                                   double time_average,
                                   double divergence_slope,
                                   double zero_threshold);

/// The stability region boundary of the depth-control system: with constant
/// frame workload a(d) and mean service b̄, depth d is sustainable iff
/// a(d) <= b̄. Returns the largest sustainable depth in [d_min, d_max], or
/// d_min - 1 when none is sustainable.
int max_sustainable_depth(const std::vector<double>& arrivals_at_depth,
                          double mean_service, int d_min, int d_max);

}  // namespace arvis

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

/// The one definition of the stability fit over a tail of `length` samples,
/// the first of them at series index `start`: fit_linear's least-squares
/// sums in fit_linear's order, as two passes over the samples. Pass 1
/// (add_first, every sample in order) sums t, Q and the first and second
/// halves' Q; pass 2 (add_second, the same samples again in order, after
/// pass 1 saw them all) sums dx² and dx·dy around pass 1's means. A caller
/// that sees the samples one at a time, interleaved with other series,
/// feeds the same sums in the same order as classify_stability.
class TailFit {
 public:
  TailFit() = default;
  TailFit(std::size_t start, std::size_t length) noexcept
      : start_(start), length_(length), half_(length / 2) {}

  void add_first(double q) noexcept {
    sx_ += static_cast<double>(start_ + first_seen_);
    sy_ += q;
    (first_seen_ < half_ ? first_half_ : second_half_) += q;
    if (++first_seen_ == length_) {
      const auto n = static_cast<double>(length_);
      mx_ = sx_ / n;
      my_ = sy_ / n;
    }
  }
  void add_second(double q) noexcept {
    const double dx = static_cast<double>(start_ + second_seen_++) - mx_;
    const double dy = q - my_;
    sxx_ += dx * dx;
    sxy_ += dx * dy;
  }

  /// The report over both passes, with the series' `peak` and
  /// `time_average` copied in.
  [[nodiscard]] StabilityReport report(double peak, double time_average,
                                       double divergence_slope,
                                       double zero_threshold) const noexcept;

 private:
  std::size_t start_ = 0;
  std::size_t length_ = 0;
  std::size_t half_ = 0;
  std::size_t first_seen_ = 0;
  std::size_t second_seen_ = 0;
  double sx_ = 0.0, sy_ = 0.0;  // Σt and ΣQ
  double first_half_ = 0.0, second_half_ = 0.0;
  double mx_ = 0.0, my_ = 0.0;  // pass 1's means
  double sxx_ = 0.0, sxy_ = 0.0;
};

/// The verdict half of analyze_stability, for a caller that already holds
/// the series' `peak` and `time_average` (Trace summaries sum them on their
/// one pass): `tail` is the series' last stability_tail_length() samples,
/// the first of them at index `start`. Runs both TailFit passes over the
/// tail in place, so the report is bit-identical to analyze_stability's on
/// the whole series.
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

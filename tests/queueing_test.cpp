// Tests for discrete-time queues, arrival processes and stability analysis.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "queueing/arrival_process.hpp"
#include "queueing/queue.hpp"
#include "queueing/stability.hpp"
#include "sim/trace.hpp"

namespace arvis {
namespace {

// -------------------------------------------------------- DiscreteQueue ----

TEST(DiscreteQueueTest, LindleyRecursion) {
  DiscreteQueue q;
  EXPECT_DOUBLE_EQ(q.backlog(), 0.0);
  EXPECT_DOUBLE_EQ(q.step(10.0, 3.0), 10.0);   // empty queue: nothing served
  EXPECT_DOUBLE_EQ(q.step(5.0, 3.0), 12.0);    // 10 - 3 + 5
  EXPECT_DOUBLE_EQ(q.step(0.0, 20.0), 0.0);    // over-service floors at zero
  EXPECT_EQ(q.time(), 3U);
}

TEST(DiscreteQueueTest, LastServedReportsDrainedBytesOnly) {
  DiscreteQueue q;
  EXPECT_DOUBLE_EQ(q.last_served(), 0.0);  // nothing stepped yet
  q.step(10.0, 8.0);
  // Same-slot arrivals enter after service: an empty queue drains nothing
  // even though 8 bytes of service met 10 bytes of demand.
  EXPECT_DOUBLE_EQ(q.last_served(), 0.0);
  q.step(5.0, 8.0);
  EXPECT_DOUBLE_EQ(q.last_served(), 8.0);  // backlog 10, service 8
  q.step(0.0, 100.0);
  EXPECT_DOUBLE_EQ(q.last_served(), 7.0);  // only the 7 left could drain
  q.reset();
  EXPECT_DOUBLE_EQ(q.last_served(), 0.0);
}

TEST(DiscreteQueueTest, NegativeInputsClamped) {
  DiscreteQueue q;
  q.step(-5.0, -3.0);
  EXPECT_DOUBLE_EQ(q.backlog(), 0.0);
  EXPECT_DOUBLE_EQ(q.total_arrivals(), 0.0);
}

TEST(DiscreteQueueTest, InitialBacklogRespected) {
  DiscreteQueue q(100.0);
  EXPECT_DOUBLE_EQ(q.backlog(), 100.0);
  q.step(0.0, 40.0);
  EXPECT_DOUBLE_EQ(q.backlog(), 60.0);
}

TEST(DiscreteQueueTest, TimeAverageUsesSlotStartSamples) {
  DiscreteQueue q;
  q.step(10.0, 0.0);  // observed Q=0
  q.step(10.0, 0.0);  // observed Q=10
  q.step(10.0, 0.0);  // observed Q=20
  EXPECT_DOUBLE_EQ(q.time_average_backlog(), 10.0);
  EXPECT_DOUBLE_EQ(q.backlog_stats().mean(), 10.0);
  EXPECT_DOUBLE_EQ(q.backlog_stats().max(), 20.0);
}

TEST(DiscreteQueueTest, ConservationAccounting) {
  DiscreteQueue q;
  q.step(10.0, 4.0);
  q.step(2.0, 4.0);
  q.step(0.0, 100.0);
  EXPECT_DOUBLE_EQ(q.total_arrivals(), 12.0);
  EXPECT_DOUBLE_EQ(q.total_service_used() + q.backlog(), 12.0);
  EXPECT_GT(q.total_service_wasted(), 0.0);
}

TEST(DiscreteQueueTest, ResetClearsEverything) {
  DiscreteQueue q;
  q.step(10.0, 0.0);
  q.reset(5.0);
  EXPECT_DOUBLE_EQ(q.backlog(), 5.0);
  EXPECT_EQ(q.time(), 0U);
  EXPECT_DOUBLE_EQ(q.time_average_backlog(), 0.0);
}

TEST(DiscreteQueueTest, StableWhenServiceExceedsArrivals) {
  DiscreteQueue q;
  for (int t = 0; t < 10'000; ++t) q.step(5.0, 6.0);
  EXPECT_LE(q.backlog(), 5.0);  // bounded by one slot's arrivals
}

TEST(DiscreteQueueTest, DivergesWhenArrivalsExceedService) {
  DiscreteQueue q;
  for (int t = 0; t < 1'000; ++t) q.step(6.0, 5.0);
  EXPECT_NEAR(q.backlog(), 1'000.0, 10.0);  // drift = 1/slot
}

// ------------------------------------------------------------ QueueBank ----

TEST(QueueBankTest, AggregatesAcrossQueues) {
  QueueBank bank(3);
  bank.queue(0).step(10.0, 0.0);
  bank.queue(1).step(4.0, 0.0);
  bank.queue(2).step(0.0, 0.0);
  EXPECT_DOUBLE_EQ(bank.total_backlog(), 14.0);
  EXPECT_DOUBLE_EQ(bank.max_backlog(), 10.0);
  EXPECT_THROW(QueueBank(0), std::invalid_argument);
  EXPECT_THROW((void)bank.queue(3), std::out_of_range);
}

// --------------------------------------------------------- VirtualQueue ----

TEST(VirtualQueueTest, GrowsOnlyAboveBudget) {
  VirtualQueue z(5.0);
  z.step(3.0);  // under budget
  EXPECT_DOUBLE_EQ(z.backlog(), 0.0);
  z.step(9.0);  // 4 over
  EXPECT_DOUBLE_EQ(z.backlog(), 4.0);
  z.step(5.0);  // at budget: no change
  EXPECT_DOUBLE_EQ(z.backlog(), 4.0);
  EXPECT_NEAR(z.average_usage(), 17.0 / 3.0, 1e-12);
  EXPECT_THROW(VirtualQueue(-1.0), std::invalid_argument);
}

TEST(VirtualQueueTest, StableWhenAverageMeetsBudget) {
  VirtualQueue z(5.0);
  // Alternate 8 and 2: average 5 == budget, so Z stays bounded.
  for (int t = 0; t < 10'000; ++t) z.step(t % 2 == 0 ? 8.0 : 2.0);
  EXPECT_LE(z.backlog(), 8.0);
}

// ------------------------------------------------------ ArrivalProcess ----

TEST(ArrivalProcessTest, ConstantAndValidation) {
  ConstantArrivals a(7.0);
  EXPECT_DOUBLE_EQ(a.next_arrivals(), 7.0);
  EXPECT_DOUBLE_EQ(a.mean_rate(), 7.0);
  EXPECT_THROW(ConstantArrivals(-1.0), std::invalid_argument);
}

TEST(ArrivalProcessTest, PoissonMeanMatches) {
  PoissonArrivals a(12.0, Rng(7));
  RunningStats stats;
  for (int i = 0; i < 50'000; ++i) stats.add(a.next_arrivals());
  EXPECT_NEAR(stats.mean(), 12.0, 0.1);
}

TEST(ArrivalProcessTest, BurstyLongRunRate) {
  // pi_on = p_off_on / (p_on_off + p_off_on) = 0.25 -> mean = 0.25 * 20.
  BurstyArrivals a(20.0, 0.3, 0.1, Rng(8));
  EXPECT_NEAR(a.mean_rate(), 5.0, 1e-9);
  RunningStats stats;
  for (int i = 0; i < 200'000; ++i) stats.add(a.next_arrivals());
  EXPECT_NEAR(stats.mean(), 5.0, 0.25);
}

TEST(ArrivalProcessTest, SinusoidModulationShapesTheRate) {
  SinusoidModulatedArrivals a(10.0, 0.8, 100, Rng(9));
  EXPECT_DOUBLE_EQ(a.mean_rate(), 10.0);
  // The deterministic rate curve peaks a quarter period in and bottoms out
  // at three quarters; the long-run draw average matches the base.
  EXPECT_NEAR(a.rate_at(25), 18.0, 1e-9);
  EXPECT_NEAR(a.rate_at(75), 2.0, 1e-9);
  EXPECT_NEAR(a.rate_at(0), 10.0, 1e-9);
  RunningStats stats;
  for (int i = 0; i < 100'000; ++i) stats.add(a.next_arrivals());
  EXPECT_NEAR(stats.mean(), 10.0, 0.15);

  EXPECT_THROW(SinusoidModulatedArrivals(-1.0, 0.5, 100, Rng(1)),
               std::invalid_argument);
  EXPECT_THROW(SinusoidModulatedArrivals(1.0, 1.5, 100, Rng(1)),
               std::invalid_argument);
  EXPECT_THROW(SinusoidModulatedArrivals(1.0, 0.5, 0, Rng(1)),
               std::invalid_argument);
}

TEST(ArrivalProcessTest, FlashCrowdSpikesOnlyInsideItsWindow) {
  FlashCrowdArrivals a(2.0, 25.0, 100, 50, Rng(10));
  EXPECT_DOUBLE_EQ(a.mean_rate(), 2.0);  // the spike is a transient
  EXPECT_NEAR(a.rate_at(99), 2.0, 1e-9);
  EXPECT_NEAR(a.rate_at(100), 50.0, 1e-9);
  EXPECT_NEAR(a.rate_at(149), 50.0, 1e-9);
  EXPECT_NEAR(a.rate_at(150), 2.0, 1e-9);
  double before = 0.0, inside = 0.0, after = 0.0;
  for (int t = 0; t < 300; ++t) {
    const double n = a.next_arrivals();
    if (t < 100) {
      before += n;
    } else if (t < 150) {
      inside += n;
    } else {
      after += n;
    }
  }
  // ~200 draws at rate 2 outside vs ~2500 inside the 50-slot spike.
  EXPECT_GT(inside, 3.0 * (before + after));

  EXPECT_THROW(FlashCrowdArrivals(-1.0, 2.0, 0, 10, Rng(1)),
               std::invalid_argument);
  EXPECT_THROW(FlashCrowdArrivals(1.0, -2.0, 0, 10, Rng(1)),
               std::invalid_argument);
}

// ------------------------------------------------------------ Stability ----

std::vector<double> make_series(std::size_t n, double (*f)(std::size_t)) {
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = f(i);
  return out;
}

TEST(StabilityTest, DetectsDivergence) {
  const auto series =
      make_series(800, [](std::size_t t) { return 500.0 * static_cast<double>(t); });
  const StabilityReport report = analyze_stability(series);
  EXPECT_EQ(report.verdict, StabilityVerdict::kDivergent);
  EXPECT_NEAR(report.tail_slope, 500.0, 1.0);
}

TEST(StabilityTest, DetectsConvergenceToZero) {
  const auto series = make_series(800, [](std::size_t t) {
    return t < 50 ? 100.0 - 2.0 * static_cast<double>(t) : 0.0;
  });
  const StabilityReport report = analyze_stability(series);
  EXPECT_EQ(report.verdict, StabilityVerdict::kConvergentToZero);
}

TEST(StabilityTest, DetectsBoundedPositive) {
  const auto series = make_series(800, [](std::size_t t) {
    return 5'000.0 + 500.0 * ((t % 16) < 8 ? 1.0 : -1.0);
  });
  const StabilityReport report = analyze_stability(series);
  EXPECT_EQ(report.verdict, StabilityVerdict::kBoundedPositive);
  EXPECT_NEAR(report.tail_mean, 5'000.0, 600.0);
}

TEST(StabilityTest, ValidatesInput) {
  EXPECT_THROW(analyze_stability({1, 2, 3}), std::invalid_argument);
  const auto series = make_series(100, [](std::size_t) { return 1.0; });
  EXPECT_THROW(analyze_stability(series, 0.0), std::invalid_argument);
  EXPECT_THROW(analyze_stability(series, 1.5), std::invalid_argument);
}

/// The stability definition the in-place paths must reproduce: peak and
/// time average rescanned over the whole series, the tail copied into (t, q)
/// vectors and fitted with fit_linear.
StabilityReport reference_stability(const std::vector<double>& backlog,
                                    double tail_fraction,
                                    double divergence_slope,
                                    double zero_threshold) {
  StabilityReport report;
  report.peak = *std::max_element(backlog.begin(), backlog.end());
  report.time_average =
      std::accumulate(backlog.begin(), backlog.end(), 0.0) /
      static_cast<double>(backlog.size());
  const std::size_t tail_len = std::max<std::size_t>(
      4, static_cast<std::size_t>(static_cast<double>(backlog.size()) *
                                  tail_fraction));
  const std::size_t start = backlog.size() - tail_len;
  std::vector<double> t(tail_len);
  std::vector<double> q(tail_len);
  double tail_sum = 0.0;
  for (std::size_t i = 0; i < tail_len; ++i) {
    t[i] = static_cast<double>(start + i);
    q[i] = backlog[start + i];
    tail_sum += q[i];
  }
  report.tail_mean = tail_sum / static_cast<double>(tail_len);
  report.tail_slope = fit_linear(t, q).slope;
  const std::size_t half = tail_len / 2;
  const double first_half =
      std::accumulate(q.begin(), q.begin() + static_cast<std::ptrdiff_t>(half),
                      0.0) / static_cast<double>(half);
  const double second_half =
      std::accumulate(q.begin() + static_cast<std::ptrdiff_t>(half), q.end(),
                      0.0) / static_cast<double>(tail_len - half);
  if (report.tail_slope > divergence_slope && second_half > first_half) {
    report.verdict = StabilityVerdict::kDivergent;
  } else if (report.tail_mean < zero_threshold) {
    report.verdict = StabilityVerdict::kConvergentToZero;
  } else {
    report.verdict = StabilityVerdict::kBoundedPositive;
  }
  return report;
}

::testing::AssertionResult reports_bit_equal(const StabilityReport& got,
                                             const StabilityReport& want) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  if (bits(got.tail_slope) != bits(want.tail_slope)) {
    return ::testing::AssertionFailure()
           << "tail_slope " << got.tail_slope << " vs " << want.tail_slope;
  }
  if (bits(got.tail_mean) != bits(want.tail_mean)) {
    return ::testing::AssertionFailure()
           << "tail_mean " << got.tail_mean << " vs " << want.tail_mean;
  }
  if (bits(got.peak) != bits(want.peak)) {
    return ::testing::AssertionFailure()
           << "peak " << got.peak << " vs " << want.peak;
  }
  if (bits(got.time_average) != bits(want.time_average)) {
    return ::testing::AssertionFailure() << "time_average " << got.time_average
                                         << " vs " << want.time_average;
  }
  if (got.verdict != want.verdict) {
    return ::testing::AssertionFailure()
           << "verdict " << to_string(got.verdict) << " vs "
           << to_string(want.verdict);
  }
  return ::testing::AssertionSuccess();
}

TEST(StabilityTest, InPlaceTailFitMatchesMaterializedFitBitForBit) {
  // analyze_stability and the trace summary read the tail in place, and the
  // summary hands over the peak and time average of its own pass; every
  // field must equal the materialized definition's bit for bit. Random
  // series of 8-200 samples in four shapes: noise, constants (zero
  // included), noise with an all-zero tail, and noisy ramps.
  Rng rng(2026);
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t n = 8 + static_cast<std::size_t>(rng.next_u64() % 193);
    const double level = 1e4 * rng.next_double();
    const double slope = 50.0 * rng.next_double();
    std::vector<double> series(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double noise = level * rng.next_double();
      switch (trial % 4) {
        case 0: series[i] = noise; break;
        case 1: series[i] = trial % 8 == 1 ? 0.0 : level; break;
        case 2: series[i] = i < n / 2 ? noise : 0.0; break;
        default: series[i] = slope * static_cast<double>(i) + noise; break;
      }
    }
    SCOPED_TRACE("trial " + std::to_string(trial) + ", n " +
                 std::to_string(n));
    const double divergence_slope = 0.5 + 10.0 * rng.next_double();
    const double zero_threshold = level * rng.next_double();
    const StabilityReport want = reference_stability(
        series, 1.0 / 3.0, divergence_slope, zero_threshold);
    EXPECT_TRUE(reports_bit_equal(
        analyze_stability(series, 1.0 / 3.0, divergence_slope,
                          zero_threshold),
        want));

    // The summary's one pass: a running max from zero, a left-to-right sum,
    // and only the tail kept.
    double peak = 0.0, sum = 0.0;
    for (const double q : series) {
      peak = std::max(peak, q);
      sum += q;
    }
    const std::size_t start = n - stability_tail_length(n, 1.0 / 3.0);
    EXPECT_TRUE(reports_bit_equal(
        classify_stability(std::span<const double>(series).subspan(start),
                           start, peak, sum / static_cast<double>(n),
                           divergence_slope, zero_threshold),
        want));

    // The same through Trace::summarize_partial, whose thresholds follow
    // the mean arrivals.
    Trace trace;
    for (std::size_t i = 0; i < n; ++i) {
      StepRecord r;
      r.t = i;
      r.backlog_begin = series[i];
      r.arrivals = 100.0 * rng.next_double();
      trace.add(r);
    }
    const TraceSummary summary = trace.summarize_partial();
    EXPECT_TRUE(reports_bit_equal(
        summary.stability,
        reference_stability(series, 1.0 / 3.0,
                            std::max(1.0, 0.02 * summary.mean_arrivals),
                            std::max(1.0, 2.0 * summary.mean_arrivals))));
  }
}

TEST(StabilityTest, VerdictToString) {
  EXPECT_STREQ(to_string(StabilityVerdict::kDivergent), "divergent");
  EXPECT_STREQ(to_string(StabilityVerdict::kConvergentToZero),
               "convergent-to-zero");
  EXPECT_STREQ(to_string(StabilityVerdict::kBoundedPositive),
               "bounded-positive");
}

TEST(MaxSustainableDepthTest, FindsBoundary) {
  // arrivals by depth: index = depth.
  const std::vector<double> arrivals{1, 8, 64, 512, 4096, 32'768};
  EXPECT_EQ(max_sustainable_depth(arrivals, 600.0, 1, 5), 3);
  EXPECT_EQ(max_sustainable_depth(arrivals, 1e9, 1, 5), 5);
  EXPECT_EQ(max_sustainable_depth(arrivals, 0.5, 1, 5), 0);  // none: d_min-1
  EXPECT_THROW(max_sustainable_depth(arrivals, 10.0, 5, 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace arvis

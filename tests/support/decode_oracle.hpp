// Independent checks of the serving runtime's decoded records.
//
// SessionTrace stores a share and a candidate index per slot and decodes the
// rest from its decide table. These helpers recompute what a decoded segment
// must hold from the content profile alone — the view-level depth tables,
// the drift-plus-penalty argmax and the reference DiscreteQueue — so a
// decoder that starts at the wrong frame row or backlog, or maps a candidate
// index to the wrong depth, fails here even when every run decodes the same
// wrong way.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>

#include "queueing/queue.hpp"
#include "sim/frame_stats_cache.hpp"
#include "sim/trace.hpp"

namespace arvis_test {

/// Succeeds when `trace` is exactly the segment the controller produces from
/// the profile: step k plays frame (first_frame + k) mod frames, opens with
/// the queue at `first_backlog` stepped by every earlier record's arrivals
/// and share, and picks the strict argmax of V·log10(points(d)) − Q·bytes(d)
/// over the first `limit` candidates, reporting that frame's bytes and
/// log-points for the pick.
inline ::testing::AssertionResult decodes_from_profile(
    const arvis::Trace& trace, const arvis::FrameStatsCache& cache,
    std::span<const int> candidates, double v, std::size_t first_frame,
    double first_backlog, std::size_t limit) {
  arvis::DiscreteQueue queue(first_backlog);
  for (std::size_t k = 0; k < trace.size(); ++k) {
    const arvis::StepRecord& r = trace.at(k);
    const arvis::FrameWorkload& frame = cache.workload(first_frame + k);
    const auto utility = [&frame](int depth) {
      const double points = frame.points(depth);
      return points >= 1.0 ? std::log10(points) : 0.0;
    };
    const double q = queue.backlog();
    std::size_t best = 0;
    double best_objective =
        v * utility(candidates[0]) - q * frame.bytes(candidates[0]);
    for (std::size_t c = 1; c < limit; ++c) {
      const double objective =
          v * utility(candidates[c]) - q * frame.bytes(candidates[c]);
      if (objective > best_objective) {
        best = c;
        best_objective = objective;
      }
    }
    const int depth = candidates[best];
    const double arrivals = frame.bytes(depth);
    const double backlog_end = queue.step(arrivals, r.service);
    if (r.backlog_begin != q || r.depth != depth || r.arrivals != arrivals ||
        r.quality != utility(depth) || r.backlog_end != backlog_end) {
      return ::testing::AssertionFailure()
             << "step " << k << " (t=" << r.t << "): decoded depth " << r.depth
             << " arrivals " << r.arrivals << " backlog " << r.backlog_begin
             << "->" << r.backlog_end << ", profile says depth " << depth
             << " arrivals " << arrivals << " backlog " << q << "->"
             << backlog_end;
    }
  }
  return ::testing::AssertionSuccess();
}

/// Succeeds when every field of two summaries is bit-identical.
inline ::testing::AssertionResult summaries_bit_equal(
    const arvis::TraceSummary& a, const arvis::TraceSummary& b) {
  const auto same = [](double x, double y) {
    return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
  };
  const struct {
    const char* name;
    double a, b;
  } fields[] = {
      {"time_average_quality", a.time_average_quality, b.time_average_quality},
      {"time_average_backlog", a.time_average_backlog, b.time_average_backlog},
      {"final_backlog", a.final_backlog, b.final_backlog},
      {"peak_backlog", a.peak_backlog, b.peak_backlog},
      {"mean_depth", a.mean_depth, b.mean_depth},
      {"mean_arrivals", a.mean_arrivals, b.mean_arrivals},
      {"mean_service", a.mean_service, b.mean_service},
      {"stability.tail_slope", a.stability.tail_slope, b.stability.tail_slope},
      {"stability.tail_mean", a.stability.tail_mean, b.stability.tail_mean},
      {"stability.peak", a.stability.peak, b.stability.peak},
      {"stability.time_average", a.stability.time_average,
       b.stability.time_average},
  };
  for (const auto& f : fields) {
    if (!same(f.a, f.b)) {
      return ::testing::AssertionFailure()
             << f.name << ": " << f.a << " vs " << f.b;
    }
  }
  if (a.partial != b.partial) {
    return ::testing::AssertionFailure() << "partial flag differs";
  }
  if (a.stability.verdict != b.stability.verdict) {
    return ::testing::AssertionFailure() << "stability verdict differs";
  }
  return ::testing::AssertionSuccess();
}

}  // namespace arvis_test

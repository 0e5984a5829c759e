// Trace replay: a WorkloadTrace driven through a K-link EdgeCluster by the
// EventLoop.
//
// The replayer is the subsystem's front door: it binds a content-agnostic
// trace to concrete bytes-per-slot profiles (FrameStatsCache table), feeds
// every row into the calendar as an arrival event (plus a departure marker
// for its known close), runs the loop open-ended — the run lasts exactly as
// long as the churn does, no horizon declared anywhere — and reports the
// cluster outcome, the driver's snapshot series, and a per-QoS-tier rollup.
// A scenario generator's churn replays as replay_trace(config,
// generator.generate(), ...).
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "serving/cluster.hpp"
#include "serving/driver/event_loop.hpp"
#include "serving/driver/trace.hpp"
#include "sim/frame_stats_cache.hpp"

namespace arvis {

struct ReplayConfig {
  /// Per-link runtime + placement. `cluster.serving.steps` is not read: the
  /// calendar, not a horizon, bounds the run.
  ClusterConfig cluster;
  DriverConfig driver;
  /// Optional hard stop: halt before this slot even if sessions remain
  /// active (kNoSlot = run until the churn drains).
  std::size_t stop_slot = kNoSlot;
  /// Fault plan scheduled alongside the workload (validated against the
  /// link count). Composes with a trace's own fault schedule — the trace's
  /// faults fire first on slot ties — and with every scenario generator's
  /// trace, which is how "flash crowd × link outage" style runs are
  /// expressed.
  FaultPlan faults;
};

/// Outcomes sliced by QoS tier (indexed by QosClass). `arrivals` counts
/// sessions that actually reached placement — a stop event may end the run
/// before a trace row's slot, and such rows count nowhere — so
/// arrivals == admitted + rejected always holds per tier.
struct QosOutcome {
  std::size_t arrivals = 0;
  std::size_t admitted = 0;
  std::size_t rejected = 0;
};

struct ReplayResult {
  ClusterResult cluster;
  DriverReport report;
  std::array<QosOutcome, kQosClassCount> per_qos{};
};

/// The SessionSpec a trace event denotes: profile id resolved against
/// `profiles`, departure = arrival + duration (kNeverDeparts for duration
/// 0). The row `index` does not enter the spec. Throws
/// std::invalid_argument on a profile id out of range.
SessionSpec trace_session_spec(const TraceEvent& event, std::size_t index,
                               const std::vector<const FrameStatsCache*>& profiles);

/// Replays `trace` through a fresh EdgeCluster with one channel per link
/// (all non-null; admission calibrates on each channel's mean). Row i's
/// session id is report.arrival_ids[i]: ids follow firing order, and a
/// retry takes the next id when it fires. Throws std::invalid_argument on
/// an invalid trace (validate_workload_trace against profiles.size()),
/// empty or null profiles/channels, or a bad cluster config.
ReplayResult replay_trace(const ReplayConfig& config,
                          const WorkloadTrace& trace,
                          const std::vector<const FrameStatsCache*>& profiles,
                          const std::vector<ChannelModel*>& channels);

}  // namespace arvis

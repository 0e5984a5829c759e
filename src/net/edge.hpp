// Multi-device edge scenario: N AR devices stream through one shared edge
// link, each running its own (purely local) Lyapunov controller. Exercises
// the paper's §II claim that the algorithm "can be computed in a distributed
// manner ... with no side information": no device observes another's queue,
// yet the ensemble must remain stable whenever the aggregate cheapest-depth
// load fits the link.
#pragma once

#include <memory>
#include <vector>

#include "lyapunov/depth_controller.hpp"
#include "net/channel.hpp"
#include "serving/metrics.hpp"
#include "sim/frame_stats_cache.hpp"
#include "sim/trace.hpp"

namespace arvis {

/// How the shared link divides among devices each slot.
enum class SharePolicy {
  /// capacity / N to every device, unused share wasted (TDMA-like).
  kEqual,
  /// Equal split, but shares unused by empty queues are redistributed to
  /// backlogged devices (work-conserving scheduler).
  kWorkConserving,
};

struct EdgeConfig {
  std::size_t steps = 800;
  std::vector<int> candidates{5, 6, 7, 8, 9, 10};
  SharePolicy share = SharePolicy::kWorkConserving;
  double v = 0.0;  // tradeoff knob of every device's controller
};

/// Per-device outcome plus ensemble statistics.
struct EdgeResult {
  std::vector<Trace> device_traces;
  /// Jain's fairness index over per-device time-average quality, in (0, 1];
  /// 1 = perfectly equal.
  double quality_fairness = 0.0;
  /// Sum over devices of time-average backlog (bytes).
  double total_time_average_backlog = 0.0;
};

/// Runs the scenario. `caches[i]` supplies device i's frames (one entry per
/// device; devices may share a cache pointer for identical content).
/// Controllers are created internally (one LyapunovDepthController per
/// device with the configured V).
///
/// This is a thin wrapper over the serving runtime (serving/cluster.hpp), run
/// as one link: all devices arrive at slot 0, never depart, admission is
/// disabled, and SharePolicy maps onto the pluggable SchedulerPolicy. New
/// code should use run_cluster_scenario directly.
/// jain_fairness_index also lives with the serving metrics now
/// (serving/metrics.hpp, re-exported by the include above).
EdgeResult run_edge_scenario(const EdgeConfig& config,
                             const std::vector<const FrameStatsCache*>& caches,
                             ChannelModel& shared_channel);

}  // namespace arvis

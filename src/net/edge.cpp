#include "net/edge.hpp"

#include <stdexcept>
#include <utility>

#include "serving/cluster.hpp"

namespace arvis {

// The edge scenario predates the serving runtime and survives as its
// simplest special case: one link (a K = 1 cluster) where every device is a
// session arriving at slot 0 and staying to the end, admission disabled,
// serial execution. The SharePolicy enum maps onto the pluggable scheduler
// policies.
EdgeResult run_edge_scenario(const EdgeConfig& config,
                             const std::vector<const FrameStatsCache*>& caches,
                             ChannelModel& shared_channel) {
  if (caches.empty()) {
    throw std::invalid_argument("run_edge_scenario: need >= 1 device");
  }

  ClusterConfig cluster;
  ServingConfig& serving = cluster.serving;
  serving.steps = config.steps;
  serving.candidates = config.candidates;
  serving.v = config.v;
  serving.policy = config.share == SharePolicy::kWorkConserving
                       ? SchedulerPolicy::kWorkConserving
                       : SchedulerPolicy::kEqualShare;
  serving.admission.enabled = false;
  serving.threads = 1;

  std::vector<SessionSpec> specs;
  specs.reserve(caches.size());
  for (const FrameStatsCache* cache : caches) {
    SessionSpec spec;
    spec.cache = cache;
    specs.push_back(spec);
  }

  const ClusterResult served =
      run_cluster_scenario(cluster, specs, {&shared_channel});

  EdgeResult result;
  result.device_traces.reserve(served.sessions.size());
  std::vector<double> per_device_quality;
  per_device_quality.reserve(served.sessions.size());
  double total_backlog = 0.0;
  for (const ClusterSessionOutcome& placed : served.sessions) {
    const SessionOutcome& session = placed.session;
    Trace trace = session.trace.to_trace();
    // The serving runtime degrades to partial summaries for short sessions;
    // this scenario's contract (inherited from the seed) is to fail loudly
    // instead, so re-summarize then (std::logic_error when steps < 8).
    const TraceSummary summary =
        session.has_summary && !session.summary.partial ? session.summary
                                                        : trace.summarize();
    per_device_quality.push_back(summary.time_average_quality);
    total_backlog += summary.time_average_backlog;
    result.device_traces.push_back(std::move(trace));
  }
  result.quality_fairness = jain_fairness_index(per_device_quality);
  result.total_time_average_backlog = total_backlog;
  return result;
}

}  // namespace arvis

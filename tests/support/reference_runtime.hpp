// The reference runtime: the serving slot loop re-simulated the way the
// pre-SoA runtime computed it — one object per session, per-slot non-owning
// views over the frame cache (ByteWorkloadView / LogPointQualityView), the
// virtual-dispatch LyapunovDepthController, a per-session DiscreteQueue, and
// one demand struct per session, the link shared out by the policy's
// reference algorithm (support/reference_scheduler.hpp) where the runtime
// runs the policy's kernel over its SoA spans in place.
//
// The runtime's flattened decide kernel, SoA layout, span plumbing and
// scheduler kernels change cost, never behaviour. Each check below runs
// the runtime, replays the same sessions through this path, and succeeds
// only when every record matches bit for bit; a failure names the first
// session and slot that differ.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "datasets/catalog.hpp"
#include "delay/workload.hpp"
#include "lyapunov/depth_controller.hpp"
#include "net/channel.hpp"
#include "net/streaming.hpp"
#include "quality/quality_model.hpp"
#include "queueing/queue.hpp"
#include "serving/admission.hpp"
#include "serving/cluster.hpp"
#include "serving/scheduler.hpp"
#include "serving/session_manager.hpp"
#include "sim/frame_stats_cache.hpp"
#include "sim/trace.hpp"
#include "support/reference_scheduler.hpp"

namespace arvis_test {

/// The content profile every reference regime streams.
inline const arvis::FrameStatsCache& oracle_cache() {
  static const arvis::FrameStatsCache cache(*arvis::open_test_subject(17), 8,
                                            16);
  return cache;
}

/// The serving config the regimes start from: candidates {3..6}, V
/// calibrated to four depth-5 frames of backlog, work-conserving, one
/// thread, admission up to full utilization.
inline arvis::ServingConfig oracle_config(std::size_t steps) {
  arvis::ServingConfig config;
  config.steps = steps;
  config.candidates = {3, 4, 5, 6};
  config.v = arvis::calibrate_streaming_v(
      oracle_cache(), config.candidates,
      4.0 * oracle_cache().workload(0).bytes(5));
  config.policy = arvis::SchedulerPolicy::kWorkConserving;
  config.threads = 1;
  config.admission.utilization_target = 1.0;
  return config;
}

struct OracleSession {
  OracleSession(double v, std::size_t arrival_in, std::size_t departure_in,
                double weight_in)
      : controller(v),
        arrival(arrival_in),
        departure(departure_in),
        weight(weight_in) {}
  arvis::LyapunovDepthController controller;
  arvis::DiscreteQueue queue;
  std::size_t arrival;
  std::size_t departure;  // kNeverDeparts = stays to the end
  double weight;
  double ewma = 0.0;
  std::vector<arvis::StepRecord> steps;
};

/// One oracle session's lifecycle; arrivals must be submitted in
/// non-decreasing arrival order so the oracle's live list mirrors the
/// runtime's admission order.
struct OracleSpec {
  std::size_t arrival = 0;
  std::size_t departure = arvis::kNeverDeparts;
  double weight = 1.0;
};

/// Simulates `specs` through the view-based path on one link of constant
/// `capacity` and compares against the runtime records in `sessions`
/// (indexed by oracle position). Lifecycle per slot mirrors the runtime:
/// departures (departure <= t) leave before arrivals (arrival == t) join,
/// the live list keeps arrival order, frame time is session-local.
inline ::testing::AssertionResult oracle_replay_matches(
    arvis::SchedulerPolicy policy, double pf_window, double v,
    const std::vector<int>& candidates, double capacity, std::size_t steps,
    const std::vector<OracleSpec>& specs,
    const std::vector<const arvis::SessionOutcome*>& sessions) {
  using namespace arvis;
  ReferenceScheduler scheduler(policy);
  const bool pf = pf_window > 0.0;
  const double alpha = pf ? 1.0 / pf_window : 0.0;
  const std::size_t n = specs.size();
  std::vector<OracleSession> oracle;
  oracle.reserve(n);
  for (const OracleSpec& s : specs) {
    oracle.emplace_back(v, s.arrival, s.departure, s.weight);
  }
  std::vector<std::size_t> live;
  std::size_t next_arrival = 0;
  std::vector<SchedulerDemand> demands;
  std::vector<double> shares;
  for (std::size_t t = 0; t < steps; ++t) {
    std::erase_if(live,
                  [&](std::size_t i) { return oracle[i].departure <= t; });
    while (next_arrival < n && oracle[next_arrival].arrival <= t) {
      live.push_back(next_arrival++);
    }
    demands.resize(live.size());
    for (std::size_t j = 0; j < live.size(); ++j) {
      OracleSession& s = oracle[live[j]];
      const FrameWorkload& frame = oracle_cache().workload(t - s.arrival);
      const ByteWorkloadView workload(frame.bytes_at_depth);
      const LogPointQualityView quality(frame.points_at_depth);
      DepthContext context;
      context.queue_backlog = s.queue.backlog();
      context.quality = &quality;
      context.workload = &workload;
      StepRecord record;
      record.t = t;
      record.backlog_begin = s.queue.backlog();
      record.depth = s.controller.decide(candidates, context);
      record.arrivals = workload.arrivals(record.depth);
      record.quality = quality.quality(record.depth);
      s.steps.push_back(record);
      demands[j] = {record.backlog_begin, record.arrivals, s.weight,
                    pf ? s.ewma : -1.0};
    }
    scheduler.allocate(capacity, demands, shares);
    for (std::size_t j = 0; j < live.size(); ++j) {
      OracleSession& s = oracle[live[j]];
      StepRecord& record = s.steps.back();
      record.service = shares[j];
      record.backlog_end = s.queue.step(record.arrivals, shares[j]);
      if (pf) s.ewma = (1.0 - alpha) * s.ewma + alpha * s.queue.last_served();
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    const SessionOutcome* got_session = sessions[i];
    const std::vector<StepRecord>& want = oracle[i].steps;
    if (got_session == nullptr || !got_session->admitted ||
        got_session->trace.size() != want.size()) {
      return ::testing::AssertionFailure()
             << "oracle session " << i << ": record shape differs";
    }
    const Trace got = got_session->trace.to_trace();
    for (std::size_t t = 0; t < want.size(); ++t) {
      const StepRecord& a = got.at(t);
      const StepRecord& b = want[t];
      if (a.depth != b.depth || a.arrivals != b.arrivals ||
          a.service != b.service || a.backlog_begin != b.backlog_begin ||
          a.backlog_end != b.backlog_end || a.quality != b.quality) {
        return ::testing::AssertionFailure()
               << "session " << got_session->id << " slot " << t
               << ": runtime (depth " << a.depth << ", service " << a.service
               << ", backlog_end " << a.backlog_end << ") vs oracle (depth "
               << b.depth << ", service " << b.service << ", backlog_end "
               << b.backlog_end << ")";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// Single-link oracle over a one-link server (K = 1 cluster) of `n`
/// sessions, weights alternating 1 and 2. `churn` staggers arrivals across
/// the first half of the window with finite lifetimes, so the active list
/// changes every few slots; without it every session arrives at 0 and stays
/// (dense steady state). The link carries `headroom` times the cheapest
/// depth's load per session. Every 16 slots the link's SoA mirrors must also
/// match its cold slab (validate_stores).
inline ::testing::AssertionResult oracle_matches(arvis::SchedulerPolicy policy,
                                                 double pf_window,
                                                 std::size_t n,
                                                 std::size_t steps, bool churn,
                                                 double headroom = 2.0) {
  using namespace arvis;
  ClusterConfig cluster;
  cluster.serving = oracle_config(steps);
  ServingConfig& config = cluster.serving;
  config.policy = policy;
  config.pf_ewma_window = pf_window;
  const double load = AdmissionController::cheapest_depth_load(
      oracle_cache(), config.candidates);
  const double capacity = static_cast<double>(n) * load * headroom;

  EdgeCluster server(cluster, {capacity});
  std::vector<OracleSpec> specs(n);
  for (std::size_t i = 0; i < n; ++i) {
    SessionSpec spec;
    spec.cache = &oracle_cache();
    spec.weight = (i % 2 == 0) ? 1.0 : 2.0;
    if (churn) {
      spec.arrival_slot = i * steps / (2 * n);  // non-decreasing
      spec.departure_slot = spec.arrival_slot + steps / 3 + 7 * (i % 3);
    }
    specs[i] = {spec.arrival_slot,
                churn ? spec.departure_slot : kNeverDeparts, spec.weight};
    server.submit(spec);
  }
  const std::vector<double> caps{capacity};
  for (std::size_t t = 0; t < steps; ++t) {
    server.step(caps);
    if ((t & 15) == 0) {
      const Status store_ok = server.validate_stores();
      if (!store_ok.ok()) {
        return ::testing::AssertionFailure()
               << "slot " << t << ": " << store_ok.to_string();
      }
    }
  }
  const ClusterResult result = server.finish();

  std::vector<const SessionOutcome*> sessions(n);
  for (std::size_t i = 0; i < n; ++i) sessions[i] = &result.sessions[i].session;
  // A session retired by the run's end keeps its full declared window; one
  // still live at `steps` was cut there — mirror that in the oracle.
  for (OracleSpec& s : specs) s.departure = std::min(s.departure, steps);
  return oracle_replay_matches(policy, pf_window, config.v, config.candidates,
                               capacity, steps, specs, sessions);
}

/// K>1 cluster oracle: `n` sessions (weight 2 for every third, else 1)
/// placed round-robin over `links` links of distinct constant capacities,
/// then every link's session subset (in placement order, which is id order)
/// re-simulated through the view-based path with that link's capacity.
inline ::testing::AssertionResult cluster_oracle_matches(
    arvis::SchedulerPolicy policy, std::size_t links, std::size_t n,
    std::size_t steps) {
  using namespace arvis;
  const auto weight_of = [](std::size_t i) {
    return (i % 3 == 0) ? 2.0 : 1.0;
  };
  ClusterConfig config;
  config.serving = oracle_config(steps);
  config.serving.policy = policy;
  config.placement = PlacementPolicy::kRoundRobin;
  const double load = AdmissionController::cheapest_depth_load(
      oracle_cache(), config.serving.candidates);
  std::vector<double> capacities;
  std::vector<ConstantChannel> channels;
  std::vector<ChannelModel*> channel_ptrs;
  channels.reserve(links);
  for (std::size_t k = 0; k < links; ++k) {
    // Distinct per-link capacities so a link mix-up cannot cancel out.
    capacities.push_back(static_cast<double>(n) / static_cast<double>(links) *
                         load * (2.0 + 0.4 * static_cast<double>(k)));
    channels.emplace_back(capacities.back());
  }
  for (auto& c : channels) channel_ptrs.push_back(&c);
  std::vector<SessionSpec> specs(n);
  for (std::size_t i = 0; i < n; ++i) {
    specs[i].cache = &oracle_cache();
    specs[i].weight = weight_of(i);
  }
  const ClusterResult result =
      run_cluster_scenario(config, specs, channel_ptrs);

  for (std::size_t k = 0; k < links; ++k) {
    std::vector<OracleSpec> link_specs;
    std::vector<const SessionOutcome*> link_sessions;
    for (std::size_t i = 0; i < n; ++i) {
      const ClusterSessionOutcome& s = result.sessions[i];
      if (!s.session.admitted) {
        return ::testing::AssertionFailure()
               << "session " << i << " not admitted";
      }
      if (static_cast<std::size_t>(s.link) != k) continue;
      link_specs.push_back({0, steps, weight_of(i)});
      link_sessions.push_back(&s.session);
    }
    const ::testing::AssertionResult link_ok = oracle_replay_matches(
        policy, 0.0, config.serving.v, config.serving.candidates,
        capacities[k], steps, link_specs, link_sessions);
    if (!link_ok) {
      return ::testing::AssertionFailure()
             << "link " << k << ", " << link_ok.message();
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace arvis_test

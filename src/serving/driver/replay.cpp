#include "serving/driver/replay.hpp"

#include <stdexcept>
#include <string>

#include "serving/telemetry/registry.hpp"

namespace arvis {

namespace {

void validate_profiles(const std::vector<const FrameStatsCache*>& profiles) {
  if (profiles.empty()) {
    throw std::invalid_argument("replay_trace: need >= 1 profile");
  }
  for (const FrameStatsCache* profile : profiles) {
    if (profile == nullptr) {
      throw std::invalid_argument("replay_trace: null profile");
    }
  }
}

/// The per-tier rollup: each row joins the session its arrival received
/// (DriverReport::arrival_ids; a retry fires under the next id, so a row
/// index is not an id). Rows the run never reached count nowhere, mirroring
/// fleet accounting, so each tier's books balance: arrivals == admitted +
/// rejected. Retry generations have no row of their own; the rollup covers
/// original arrivals only.
void roll_up_qos(ReplayResult& result, const WorkloadTrace& trace) {
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const std::size_t id = result.report.arrival_ids[i];
    if (id == kNoSlot) continue;
    const ClusterSessionOutcome& outcome = result.cluster.sessions[id];
    if (!outcome.arrived) continue;
    QosOutcome& tier =
        result.per_qos[static_cast<std::size_t>(trace.events[i].qos)];
    ++tier.arrivals;
    if (outcome.session.admitted) {
      ++tier.admitted;
    } else {
      ++tier.rejected;
    }
  }
}

/// Flushes the per-tier rollup into the registry ("qos/<tier>/..."): the
/// replay layer is the only place QoS class and admission outcome meet, so
/// the counters live here rather than in the runtime.
void flush_qos_counters(const ReplayResult& result,
                        const TelemetryConfig& telemetry) {
  if (!telemetry.counters_on()) return;
  TelemetryRegistry& reg = *telemetry.registry;
  for (std::size_t q = 0; q < kQosClassCount; ++q) {
    const QosOutcome& tier = result.per_qos[q];
    const std::string prefix =
        std::string("qos/") + to_string(static_cast<QosClass>(q)) + "/";
    reg.counter(prefix + "arrivals").add(tier.arrivals);
    reg.counter(prefix + "admitted").add(tier.admitted);
    reg.counter(prefix + "rejected").add(tier.rejected);
  }
}

}  // namespace

// The runtime's raw tier index and the trace's QosClass must agree — the
// replayer is where the two layers meet.
static_assert(kQosClassCount == kSloTiers,
              "QosClass and the SLO tier set must stay in sync");

SessionSpec trace_session_spec(
    const TraceEvent& event, std::size_t /*index*/,
    const std::vector<const FrameStatsCache*>& profiles) {
  if (event.profile >= profiles.size()) {
    throw std::invalid_argument("trace_session_spec: profile id out of range");
  }
  SessionSpec spec;
  spec.cache = profiles[event.profile];
  spec.arrival_slot = event.t_arrive;
  spec.departure_slot =
      event.duration > 0 ? event.t_arrive + event.duration : kNeverDeparts;
  spec.weight = event.weight;
  spec.qos = static_cast<std::uint8_t>(event.qos);
  return spec;
}

ReplayResult replay_trace(const ReplayConfig& config,
                          const WorkloadTrace& trace,
                          const std::vector<const FrameStatsCache*>& profiles,
                          const std::vector<ChannelModel*>& channels) {
  validate_profiles(profiles);
  const std::vector<double> means =
      validated_channel_means(channels, "replay_trace");
  if (const Status status = validate_workload_trace(trace, profiles.size());
      !status.ok()) {
    throw std::invalid_argument("replay_trace: " + status.message());
  }
  // The trace's own validation could not know the cluster shape; here both
  // fault schedules check against the real link count.
  FaultPlan trace_faults;
  trace_faults.events = trace.faults;
  if (const Status status = validate_fault_plan(trace_faults, means.size());
      !status.ok()) {
    throw std::invalid_argument("replay_trace: " + status.message());
  }
  if (const Status status = validate_fault_plan(config.faults, means.size());
      !status.ok()) {
    throw std::invalid_argument("replay_trace: " + status.message());
  }

  EdgeCluster cluster(config.cluster, means);
  ClusterBackend backend(cluster, channels);
  EventLoop loop(config.driver, backend);
  // One reservation for the whole schedule burst: the calendar and the
  // payload store never reallocate while the trace streams in.
  loop.reserve(trace.events.size());
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const TraceEvent& event = trace.events[i];
    const SessionSpec spec = trace_session_spec(event, i, profiles);
    // Mid-stream abandonment closes the id this row's arrival receives.
    loop.schedule_arrival(event.t_arrive, spec,
                          event.t_close != 0 ? event.t_close : kNoSlot);
    if (spec.departure_slot != kNeverDeparts) {
      loop.schedule_departure_marker(spec.departure_slot);
    }
  }
  // Trace faults schedule before config faults, so on a slot tie the file's
  // own chaos fires first (calendar order is (slot, schedule-order)).
  loop.schedule_fault_plan(trace_faults);
  loop.schedule_fault_plan(config.faults);
  if (config.stop_slot != kNoSlot) loop.schedule_stop(config.stop_slot);

  ReplayResult result;
  result.report = loop.run();
  result.cluster = cluster.finish();
  roll_up_qos(result, trace);
  flush_qos_counters(result, config.driver.telemetry);
  return result;
}

}  // namespace arvis

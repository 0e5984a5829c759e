// Driver churn sweep: scenario generator × placement policy × K links, every
// configuration replayed from a seeded WorkloadTrace through the event-driven
// EventLoop. The per-link scheduler is deficit round-robin (the policy's
// bench registration) and arrival volume scales with the cluster so per-link
// pressure stays comparable across K. Reports arrivals, admissions, outright
// rejects, spills, peak concurrency, utilization, cross-link window fairness
// at the last snapshot, executed vs skipped slots, and wall time.
//
// Build & run:  ./build/bench/bench_driver_churn [--smoke] [--telemetry]
//                                                [--slo] [--faults]
//                                                [--handover]
//
// --telemetry re-runs the poisson and flash-crowd points with full
// tracing on, writes churn_<scenario>_trace.json (Chrome trace_event format,
// loadable in Perfetto / chrome://tracing) and prints the per-phase rollup
// plus the counter registry. --slo replays the flash crowd under
// deliberately tight SLOs, prints the transition log and an
// "SLO_SUMMARY breaches=N blips=M" line, and fails if nothing breached.
// --faults replays the flash crowd with a mid-spike single-link outage and
// retry/backoff on, checks the failover books reconcile exactly and the run
// is seed-stable, and prints a FAULTS_JSON line.
// --handover replays the flash crowd with graded mid-spike degradation and
// the handover policy live, checks the migration books are exact (>=1
// completed, zero stranded) and seed-stable, and prints a MIGRATION_JSON
// line.
//
// --smoke runs three hard invariants cheap enough for CI and exits non-zero
// on violation:
//   1. replay determinism: the same flash-crowd trace through the same
//      K = 2 cluster twice yields an identical snapshot series, bit for bit;
//   2. flash-crowd admission: rejects occur only inside the spike window
//      (plus the drain tail of sessions admitted during the spike);
//   3. trace round-trip: generate -> CSV -> parse -> identical events.
// A SMOKE_JSON line summarizing the key invariants is printed for CI diffing.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/csv.hpp"
#include "datasets/catalog.hpp"
#include "net/channel.hpp"
#include "net/streaming.hpp"
#include "serving/admission.hpp"
#include "serving/driver/event_loop.hpp"
#include "serving/driver/replay.hpp"
#include "serving/driver/scenario.hpp"
#include "serving/driver/trace.hpp"
#include "serving/telemetry/export.hpp"
#include "serving/telemetry/registry.hpp"
#include "serving/telemetry/tracer.hpp"

namespace {

const arvis::FrameStatsCache& churn_cache() {
  static const arvis::FrameStatsCache cache(*arvis::open_test_subject(17), 8,
                                            16);
  return cache;
}

struct SweepPoint {
  arvis::ScenarioKind kind = arvis::ScenarioKind::kPoisson;
  arvis::PlacementPolicy placement = arvis::PlacementPolicy::kLeastLoaded;
  std::size_t links = 2;
  std::size_t horizon = 1'500;
  std::size_t sessions_per_link = 3;
  /// Offered concurrency (rate * mean duration) as a multiple of what the
  /// cluster holds. The sweep runs over-subscribed (1.5) so placement and
  /// admission bite; the flash-crowd smoke runs light (0.5) so only the
  /// spike can cause rejects.
  double pressure = 1.5;
  double spike_multiplier = 8.0;
};

arvis::ScenarioConfig scenario_for(const SweepPoint& point) {
  arvis::ScenarioConfig config;
  config.horizon = point.horizon;
  config.mean_duration = 150.0;
  config.max_duration = 400;
  // Scaled with K so every link stays under comparable pressure at any size.
  config.base_rate =
      point.pressure *
      static_cast<double>(point.sessions_per_link * point.links) /
      config.mean_duration;
  config.profile_count = 1;
  config.seed = 42;
  config.spike_duration = 80;
  config.spike_multiplier = point.spike_multiplier;
  return config;
}

arvis::ReplayConfig replay_for(const SweepPoint& point) {
  using namespace arvis;
  ReplayConfig config;
  config.cluster.serving.candidates = {3, 4, 5, 6};
  config.cluster.serving.v =
      calibrate_streaming_v(churn_cache(), config.cluster.serving.candidates,
                            4.0 * churn_cache().workload(0).bytes(5));
  // Deficit round-robin on every link: the fifth policy's bench home.
  config.cluster.serving.policy = SchedulerPolicy::kDeficitRoundRobin;
  config.cluster.serving.admission.utilization_target = 1.0;
  config.cluster.placement = point.placement;
  config.driver.snapshot_period = 50;
  return config;
}

arvis::ReplayResult run_point(
    const SweepPoint& point, double& wall_ms,
    const arvis::TelemetryConfig* telemetry = nullptr,
    const arvis::SloConfig* slo = nullptr,
    const arvis::FaultPlan* faults = nullptr, bool retry = false,
    bool handover = false) {
  using namespace arvis;
  const WorkloadTrace trace =
      make_scenario(point.kind, scenario_for(point))->generate();
  ReplayConfig config = replay_for(point);
  if (telemetry != nullptr) {
    config.cluster.serving.telemetry = *telemetry;
    config.driver.telemetry = *telemetry;
  }
  if (slo != nullptr) config.driver.slo = *slo;
  if (faults != nullptr) config.faults = *faults;
  config.driver.retry.enabled = retry;
  if (handover) {
    config.cluster.handover.enabled = true;
    config.cluster.handover.delay_weight = 0.1;
    config.cluster.handover.rebalance_on_departure = true;
  }

  const double load = AdmissionController::cheapest_depth_load(
      churn_cache(), config.cluster.serving.candidates);
  const double per_link =
      (static_cast<double>(point.sessions_per_link) + 0.4) * load;
  std::vector<ConstantChannel> channels(point.links, ConstantChannel(per_link));
  std::vector<ChannelModel*> links;
  links.reserve(channels.size());
  for (auto& c : channels) links.push_back(&c);
  const std::vector<const FrameStatsCache*> profiles{&churn_cache()};

  const auto start = std::chrono::steady_clock::now();
  ReplayResult result = replay_trace(config, trace, profiles, links);
  const auto stop = std::chrono::steady_clock::now();
  wall_ms = std::chrono::duration<double, std::milli>(stop - start).count();
  return result;
}

std::size_t peak_active(const arvis::ReplayResult& result) {
  // The cluster samples active sessions every executed slot, so its peak is
  // already exact (snapshots are a subsample of the same series).
  return result.cluster.metrics.fleet.peak_concurrency;
}

int run_smoke() {
  using namespace arvis;
  int failures = 0;

  SweepPoint point;
  point.kind = ScenarioKind::kFlashCrowd;
  point.links = 2;
  point.horizon = 800;
  point.sessions_per_link = 2;
  point.pressure = 0.5;       // base churn fits comfortably...
  point.spike_multiplier = 20.0;  // ...the spike does not

  // Invariant 1: same seed => identical snapshot series, bit for bit.
  double ms = 0.0;
  const ReplayResult first = run_point(point, ms);
  const ReplayResult second = run_point(point, ms);
  bool deterministic = first.report.snapshots.size() ==
                       second.report.snapshots.size();
  if (deterministic) {
    for (std::size_t i = 0; i < first.report.snapshots.size(); ++i) {
      const MetricsSnapshot& a = first.report.snapshots[i];
      const MetricsSnapshot& b = second.report.snapshots[i];
      deterministic = deterministic && a.slot == b.slot &&
                      a.active_sessions == b.active_sessions &&
                      a.admitted_total == b.admitted_total &&
                      a.rejected_total == b.rejected_total &&
                      a.capacity_used_total == b.capacity_used_total &&
                      a.window_utilization == b.window_utilization &&
                      a.link_load_fairness == b.link_load_fairness;
    }
  }
  if (!deterministic) {
    std::printf("smoke FAIL: flash-crowd replay is not seed-stable\n");
    ++failures;
  } else {
    std::printf("smoke: flash-crowd replay seed-stable over %zu snapshots\n",
                first.report.snapshots.size());
  }

  // Invariant 2: rejects confined to the spike window plus its drain tail.
  const ScenarioConfig scenario = scenario_for(point);
  const std::size_t spike_start = scenario.resolved_spike_start();
  const std::size_t drain_end =
      spike_start + scenario.spike_duration + scenario.max_duration;
  std::size_t prev_rejects = 0, prev_slot = 0;
  bool confined = true;
  for (const MetricsSnapshot& s : first.report.snapshots) {
    const std::size_t delta = s.rejected_total - prev_rejects;
    if (delta > 0 && (s.slot <= spike_start || prev_slot >= drain_end)) {
      confined = false;
    }
    prev_rejects = s.rejected_total;
    prev_slot = s.slot;
  }
  const std::size_t rejects = first.cluster.metrics.placement_rejects;
  if (!confined || rejects == 0) {
    std::printf(
        "smoke FAIL: expected rejects only inside the spike window "
        "(got %zu rejects, confined=%d)\n",
        rejects, confined ? 1 : 0);
    ++failures;
  } else {
    std::printf("smoke: %zu rejects, all inside spike window [%zu, %zu)\n",
                rejects, spike_start, drain_end);
  }

  // Invariant 3: trace round-trip is exact.
  const WorkloadTrace trace = make_scenario(point.kind, scenario)->generate();
  const Result<CsvTable> csv = parse_csv(trace.to_table().to_string());
  bool round_trip = csv.ok();
  if (round_trip) {
    const Result<WorkloadTrace> loaded = parse_workload_trace(*csv);
    round_trip = loaded.ok() && loaded->events == trace.events;
  }
  if (!round_trip) {
    std::printf("smoke FAIL: trace round-trip mismatch\n");
    ++failures;
  } else {
    std::printf("smoke: %zu-event trace round-trips exactly\n",
                trace.events.size());
  }

  std::printf(
      "SMOKE_JSON {\"bench\":\"driver_churn\",\"deterministic\":%s,"
      "\"rejects\":%zu,\"rejects_confined_to_spike\":%s,"
      "\"trace_events\":%zu,\"round_trip_exact\":%s,"
      "\"admitted\":%zu,\"slots_executed\":%zu,\"failures\":%d}\n",
      deterministic ? "true" : "false", rejects, confined ? "true" : "false",
      trace.events.size(), round_trip ? "true" : "false",
      first.cluster.metrics.fleet.sessions_admitted,
      first.report.slots_executed, failures);
  std::printf(failures == 0 ? "smoke OK\n" : "smoke: %d failure(s)\n",
              failures);
  return failures == 0 ? 0 : 1;
}

/// Re-runs two sweep points with full tracing and counters on: a Chrome
/// trace JSON per scenario (Perfetto-loadable), the per-phase rollup, and
/// the flat counter registry. Exit code reflects export I/O.
int run_telemetry() {
  using namespace arvis;
  int failures = 0;
  for (ScenarioKind kind :
       {ScenarioKind::kPoisson, ScenarioKind::kFlashCrowd}) {
    SweepPoint point;
    point.kind = kind;

    TelemetryRegistry registry;
    PhaseTracer tracer(TracerConfig{});
    TelemetryConfig telemetry;
    telemetry.mode = TelemetryMode::kFullTrace;
    telemetry.registry = &registry;
    telemetry.tracer = &tracer;

    double ms = 0.0;
    const ReplayResult result = run_point(point, ms, &telemetry);
    const std::string stem = std::string("churn_") + to_string(kind);
    const std::string trace_path = stem + "_trace.json";
    if (const Status status = write_chrome_trace(tracer, trace_path);
        !status.ok()) {
      std::printf("telemetry FAIL: %s\n", status.to_string().c_str());
      ++failures;
    } else {
      std::printf("\nwrote %s (%zu spans, %zu dropped)\n", trace_path.c_str(),
                  tracer.size(), tracer.dropped());
    }
    bench::print_table(stem + ": per-phase rollup", tracer.rollup_table());
    bench::print_table(stem + ": counters", registry.counters_table());
    bench::print_table(stem + ": histograms", registry.histograms_table());
    std::printf("(%zu arrivals, %.2f ms wall with full tracing)\n",
                result.report.arrivals_injected, ms);
  }
  return failures == 0 ? 0 : 1;
}

/// Flash-crowd replay under deliberately tight SLOs: the spike must drive at
/// least one spec to breach, exercising the whole chain (per-tier sampling ->
/// window evaluation -> transition log -> report). Prints the transition
/// table and a final SLO_SUMMARY line; exits non-zero if nothing breached —
/// a silent SLO engine under a flash crowd means the sampling broke.
int run_slo() {
  using namespace arvis;
  SweepPoint point;
  point.kind = ScenarioKind::kFlashCrowd;

  SloConfig slo;
  slo.windows = {/*fast=*/2, /*slow=*/6};
  slo.specs = {
      {"accept-ratio", SloMetric::kAcceptRatio, 0.99, -1},
      {"queue-delay", SloMetric::kP95QueueDelay, 3.0, -1},
      {"reject-ratio", SloMetric::kRejectRatio, 0.01, -1},
  };

  double ms = 0.0;
  const ReplayResult result = run_point(point, ms, nullptr, &slo);
  std::printf("flash-crowd under tight SLOs (%.2f ms wall):\n%s\n", ms,
              result.report.slo_table().to_pretty_string().c_str());
  std::printf("SLO_SUMMARY breaches=%llu blips=%llu\n",
              static_cast<unsigned long long>(result.report.slo_breaches),
              static_cast<unsigned long long>(result.report.slo_blips));
  if (result.report.slo_breaches == 0) {
    std::printf("slo FAIL: flash crowd breached nothing\n");
    return 1;
  }
  std::printf("slo OK\n");
  return 0;
}

/// Flash crowd x single-link outage x retry storm: the chaos leg. Link 1
/// drops mid-spike while retry/backoff resubmits every reject, so the run
/// exercises failover re-placement and the retry calendar at once. Checks
/// that the failover books reconcile exactly (displaced == replaced +
/// evicted + closed — no session strands), that a retry storm actually
/// happened, and that a second identical run reproduces every fault counter
/// bit for bit.
int run_faults() {
  using namespace arvis;
  int failures = 0;

  SweepPoint point;
  point.kind = ScenarioKind::kFlashCrowd;
  point.links = 2;
  point.horizon = 800;
  point.sessions_per_link = 2;
  point.pressure = 0.5;
  point.spike_multiplier = 12.0;

  const ScenarioConfig scenario = scenario_for(point);
  const std::size_t spike_start = scenario.resolved_spike_start();
  FaultPlan faults;
  faults.outage(/*link=*/1, /*at=*/spike_start + 10, /*duration=*/40);

  double ms = 0.0;
  const ReplayResult first =
      run_point(point, ms, nullptr, nullptr, &faults, /*retry=*/true);
  const ReplayResult second =
      run_point(point, ms, nullptr, nullptr, &faults, /*retry=*/true);

  const ClusterMetrics& m = first.cluster.metrics;
  const bool books = m.failover_displaced ==
                     m.failover_replaced + m.fault_evicted + m.fault_closed;
  if (!books) {
    std::printf(
        "faults FAIL: books do not reconcile (displaced=%zu != "
        "replaced=%zu + evicted=%zu + closed=%zu)\n",
        m.failover_displaced, m.failover_replaced, m.fault_evicted,
        m.fault_closed);
    ++failures;
  } else {
    std::printf("faults: books reconcile (%zu displaced == %zu + %zu + %zu)\n",
                m.failover_displaced, m.failover_replaced, m.fault_evicted,
                m.fault_closed);
  }
  const std::size_t downs = m.fault_count(FaultKind::kLinkDown);
  const std::size_t ups = m.fault_count(FaultKind::kLinkUp);
  if (downs != 1 || ups != 1) {
    std::printf("faults FAIL: expected one outage cycle (downs=%zu ups=%zu)\n",
                downs, ups);
    ++failures;
  }
  if (first.report.retries_scheduled == 0) {
    std::printf("faults FAIL: spike x outage scheduled no retries\n");
    ++failures;
  } else {
    std::printf("faults: retry storm of %zu (%zu abandoned)\n",
                first.report.retries_scheduled,
                first.report.retries_abandoned);
  }

  const ClusterMetrics& n = second.cluster.metrics;
  const bool deterministic =
      first.report.faults_applied == second.report.faults_applied &&
      first.report.retries_scheduled == second.report.retries_scheduled &&
      first.report.retries_abandoned == second.report.retries_abandoned &&
      m.failover_displaced == n.failover_displaced &&
      m.failover_replaced == n.failover_replaced &&
      m.fault_evicted == n.fault_evicted &&
      m.fault_closed == n.fault_closed &&
      m.fleet.sessions_admitted == n.fleet.sessions_admitted &&
      m.fleet.utilization() == n.fleet.utilization() &&
      first.report.slots_executed == second.report.slots_executed;
  if (!deterministic) {
    std::printf("faults FAIL: fault path is not seed-stable\n");
    ++failures;
  } else {
    std::printf("faults: two runs of the same plan agree bit for bit\n");
  }

  std::printf(
      "FAULTS_JSON {\"bench\":\"driver_churn\",\"faults_applied\":%zu,"
      "\"failover_displaced\":%zu,\"failover_replaced\":%zu,"
      "\"fault_evicted\":%zu,\"fault_closed\":%zu,\"retries\":%zu,"
      "\"retries_abandoned\":%zu,\"books_reconcile\":%s,"
      "\"deterministic\":%s,\"failures\":%d}\n",
      first.report.faults_applied, m.failover_displaced, m.failover_replaced,
      m.fault_evicted, m.fault_closed, first.report.retries_scheduled,
      first.report.retries_abandoned, books ? "true" : "false",
      deterministic ? "true" : "false", failures);

  std::printf(failures == 0 ? "faults OK\n" : "faults: %d failure(s)\n",
              failures);
  return failures == 0 ? 0 : 1;
}

/// Flash crowd x graded link degradation x live handover: the migration leg.
/// Link 1 ramps down to 20% capacity (with a 3-slot reported delay) ten
/// slots into the spike and holds well past it, while the handover policy
/// drains its sessions onto link 0 mid-stream with hot state carried.
/// Checks that at least one migration completed, that the migration books
/// are exact (requested == completed + aborted, aborts on the displaced
/// path — zero stranded), that the failover books still reconcile, and that
/// a second identical run reproduces every counter bit for bit. Prints a
/// MIGRATION_JSON line.
int run_handover() {
  using namespace arvis;
  int failures = 0;

  SweepPoint point;
  point.kind = ScenarioKind::kFlashCrowd;
  point.links = 2;
  point.horizon = 800;
  point.sessions_per_link = 2;
  point.pressure = 0.5;
  point.spike_multiplier = 12.0;

  const ScenarioConfig scenario = scenario_for(point);
  const std::size_t spike_start = scenario.resolved_spike_start();
  FaultPlan faults;
  faults.degrade_pulse(/*link=*/1, /*at=*/spike_start + 10, /*ramp_slots=*/12,
                       /*floor_scale=*/0.2, /*delay=*/3.0,
                       /*hold_slots=*/150);

  double ms = 0.0;
  const ReplayResult first = run_point(point, ms, nullptr, nullptr, &faults,
                                       /*retry=*/true, /*handover=*/true);
  const ReplayResult second = run_point(point, ms, nullptr, nullptr, &faults,
                                        /*retry=*/true, /*handover=*/true);

  const ClusterMetrics& m = first.cluster.metrics;
  const std::size_t stranded =
      m.migrations_requested - m.migrations_completed - m.migrations_aborted;
  const bool books =
      m.migrations_requested ==
          m.migrations_completed + m.migrations_aborted &&
      m.failover_displaced ==
          m.failover_replaced + m.fault_evicted + m.fault_closed;
  if (!books || stranded != 0) {
    std::printf(
        "handover FAIL: books do not reconcile (requested=%zu != "
        "completed=%zu + aborted=%zu, stranded=%zu)\n",
        m.migrations_requested, m.migrations_completed, m.migrations_aborted,
        stranded);
    ++failures;
  } else {
    std::printf(
        "handover: books reconcile (%zu requested == %zu completed + %zu "
        "aborted, zero stranded)\n",
        m.migrations_requested, m.migrations_completed, m.migrations_aborted);
  }
  if (m.migrations_completed == 0) {
    std::printf("handover FAIL: degraded link handed nothing over\n");
    ++failures;
  } else {
    std::printf("handover: %zu sessions migrated off the degraded link "
                "(%zu degrade events)\n",
                m.migrations_completed,
                m.fault_count(FaultKind::kLinkDegrade));
  }

  const ClusterMetrics& n = second.cluster.metrics;
  const bool deterministic =
      first.report.faults_applied == second.report.faults_applied &&
      m.fault_events == n.fault_events &&
      m.migrations_requested == n.migrations_requested &&
      m.migrations_completed == n.migrations_completed &&
      m.migrations_aborted == n.migrations_aborted &&
      m.failover_displaced == n.failover_displaced &&
      m.fleet.sessions_admitted == n.fleet.sessions_admitted &&
      m.fleet.utilization() == n.fleet.utilization() &&
      first.report.slots_executed == second.report.slots_executed;
  if (!deterministic) {
    std::printf("handover FAIL: migration path is not seed-stable\n");
    ++failures;
  } else {
    std::printf("handover: two runs of the same plan agree bit for bit\n");
  }

  std::printf(
      "MIGRATION_JSON {\"bench\":\"driver_churn\",\"link_degrades\":%zu,"
      "\"migrations_requested\":%zu,\"migrations_completed\":%zu,"
      "\"migrations_aborted\":%zu,\"stranded\":%zu,"
      "\"failover_displaced\":%zu,\"fault_evicted\":%zu,"
      "\"books_reconcile\":%s,\"deterministic\":%s,\"failures\":%d}\n",
      m.fault_count(FaultKind::kLinkDegrade), m.migrations_requested,
      m.migrations_completed,
      m.migrations_aborted, stranded, m.failover_displaced, m.fault_evicted,
      books ? "true" : "false", deterministic ? "true" : "false", failures);

  std::printf(failures == 0 ? "handover OK\n" : "handover: %d failure(s)\n",
              failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace arvis;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return run_smoke();
    if (std::strcmp(argv[i], "--telemetry") == 0) return run_telemetry();
    if (std::strcmp(argv[i], "--slo") == 0) return run_slo();
    if (std::strcmp(argv[i], "--faults") == 0) return run_faults();
    if (std::strcmp(argv[i], "--handover") == 0) return run_handover();
  }

  CsvTable table({"scenario", "policy", "links", "arrivals", "admitted",
                  "rejected", "spills", "peak_active", "utilization",
                  "link_fairness", "slots_run", "slots_skipped", "wall_ms"});
  for (ScenarioKind kind :
       {ScenarioKind::kPoisson, ScenarioKind::kBursty, ScenarioKind::kDiurnal,
        ScenarioKind::kFlashCrowd}) {
    for (PlacementPolicy placement :
         {PlacementPolicy::kRoundRobin, PlacementPolicy::kLeastLoaded,
          PlacementPolicy::kBestFit}) {
      for (std::size_t links : {1U, 2U, 4U}) {
        SweepPoint point;
        point.kind = kind;
        point.placement = placement;
        point.links = links;
        double ms = 0.0;
        const ReplayResult result = run_point(point, ms);
        // Run-wide cross-link fairness (a tail snapshot window would only
        // see whichever link drains the last stragglers).
        const double fairness = result.cluster.metrics.link_load_fairness;
        table.add_row(
            {std::string(to_string(kind)), std::string(to_string(placement)),
             static_cast<std::int64_t>(links),
             static_cast<std::int64_t>(result.report.arrivals_injected),
             static_cast<std::int64_t>(
                 result.cluster.metrics.fleet.sessions_admitted),
             static_cast<std::int64_t>(
                 result.cluster.metrics.placement_rejects),
             static_cast<std::int64_t>(result.cluster.metrics.spills),
             static_cast<std::int64_t>(peak_active(result)),
             result.cluster.metrics.fleet.utilization(), fairness,
             static_cast<std::int64_t>(result.report.slots_executed),
             static_cast<std::int64_t>(result.report.slots_skipped), ms});
      }
    }
  }
  bench::print_table(
      "driver churn: scenario x placement x K, event-driven replay (DRR "
      "links)",
      table);
  std::printf(
      "\nNote: arrival volume scales with K (constant per-link pressure).\n"
      "flash-crowd rows show the admission wall: rejects cluster in the\n"
      "spike; bursty rows show skipped slots — the event loop fast-forwards\n"
      "the OFF-state gaps no fixed-horizon loop could.\n");
  return 0;
}

// Trace replay demo: the event-driven workload engine end to end.
//
// A seeded flash-crowd ScenarioGenerator synthesizes a session trace (sparse
// base churn, then a 60-slot arrival spike), the trace is written to CSV and
// loaded back — the same file could be hand-edited or produced by any other
// tool — and replayed through a two-link EdgeCluster under least-loaded
// placement. The EventLoop runs open-loop: no horizon anywhere, the run lasts
// exactly as long as the churn does, idle stretches are fast-forwarded, and
// periodic snapshots record the spike hitting the admission wall. A few
// sessions abandon mid-stream (the trace's t_close column), exercising the
// external-close path. A REPLAY_SUMMARY line reports each tier as
// <tier>=arrived/admitted/rejected plus the closes applied and ignored;
// CI compares it, and the other *_SUMMARY lines, with
// tests/golden/trace_replay_summaries.txt.
//
// --faults arms the fault plane: link 1 goes down mid-spike and recovers 30
// slots later, displaced sessions fail over to link 0, refused and evicted
// sessions retry with capped exponential backoff, and a final CHAOS_SUMMARY
// line reports the reconciled failover books per fault kind (CI greps it).
//
// --handover arms graded degradation instead of a hard outage: link 1 ramps
// down to 20% capacity with 3-slot reported delay ten slots into the spike
// and holds there long past it, the handover policy drains its sessions onto
// link 0 mid-stream (hot state carried — no session drops), and a final
// HANDOVER_SUMMARY line reports the exact migration books (CI greps it:
// >=1 completed, zero stranded).
//
// Build & run:  ./build/examples/trace_replay [--telemetry] [--slo-strict]
//                                             [--faults] [--handover]
//                                             [--out-dir DIR]
// Writes (under DIR, default trace_replay_out/):
//   events.csv, snapshots.csv
//   --telemetry adds trace.json (Chrome trace_event format, loadable in
//   Perfetto) plus telemetry_counters.csv / telemetry_histograms.csv and
//   prints the per-phase rollup
//   --slo-strict (or --slo) arms deliberately tight SLOs so the spike
//   breaches: prints the transition log and a final "SLO_SUMMARY breaches=N
//   blips=M" line, rewrites live_stats.json at every snapshot (watch it with
//   tools/arvis_top.py), exports metrics.prom (Prometheus text format), and
//   auto-dumps the flight recorder's black box to slo_black_box.json on the
//   first breach
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "datasets/catalog.hpp"
#include "net/streaming.hpp"
#include "serving/admission.hpp"
#include "serving/driver/replay.hpp"
#include "serving/driver/scenario.hpp"
#include "serving/driver/trace.hpp"
#include "serving/telemetry/export.hpp"
#include "serving/telemetry/flight_recorder.hpp"
#include "serving/telemetry/registry.hpp"
#include "serving/telemetry/slo.hpp"
#include "serving/telemetry/tracer.hpp"

int main(int argc, char** argv) {
  using namespace arvis;
  bool telemetry_on = false;
  bool slo_on = false;
  bool faults_on = false;
  bool handover_on = false;
  std::string out_dir = "trace_replay_out";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--telemetry") == 0) {
      telemetry_on = true;
    } else if (std::strcmp(argv[i], "--slo-strict") == 0 ||
               std::strcmp(argv[i], "--slo") == 0) {
      slo_on = true;
    } else if (std::strcmp(argv[i], "--faults") == 0) {
      faults_on = true;
    } else if (std::strcmp(argv[i], "--handover") == 0) {
      handover_on = true;
    } else if (std::strcmp(argv[i], "--out-dir") == 0 && i + 1 < argc) {
      out_dir = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--telemetry] [--slo-strict] [--faults] "
                   "[--handover] [--out-dir DIR]\n",
                   argv[0]);
      return 2;
    }
  }
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", out_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  const auto out = [&](const char* name) { return out_dir + "/" + name; };

  // Two content profiles: trace rows reference them by id, staying
  // content-agnostic until replay binds them.
  auto subject_a = open_subject("longdress", /*seed=*/5, /*scale=*/0.02);
  auto subject_b = open_subject("loot", /*seed=*/6, /*scale=*/0.02);
  if (!subject_a.ok() || !subject_b.ok()) {
    std::fprintf(stderr, "failed to open subjects\n");
    return 1;
  }
  const FrameStatsCache cache_a(**subject_a, /*octree_depth=*/9,
                                /*frame_limit=*/8);
  const FrameStatsCache cache_b(**subject_b, 9, 8);
  const std::vector<const FrameStatsCache*> profiles{&cache_a, &cache_b};

  // A flash crowd over sparse base churn.
  ScenarioConfig scenario;
  scenario.horizon = 1'200;
  scenario.base_rate = 0.004;
  scenario.mean_duration = 60.0;
  scenario.max_duration = 150;
  scenario.profile_count = profiles.size();
  scenario.best_effort_fraction = 0.25;
  scenario.premium_fraction = 0.15;
  scenario.spike_duration = 60;
  scenario.spike_multiplier = 100.0;
  scenario.seed = 2'022;
  WorkloadTrace generated =
      make_scenario(ScenarioKind::kFlashCrowd, scenario)->generate();

  // Every seventh long-enough session abandons 20 slots in: the trace's
  // t_close column end to end (serialized, reloaded, applied as external
  // closes — count them in `closes applied` below).
  for (std::size_t i = 0; i < generated.events.size(); i += 7) {
    TraceEvent& e = generated.events[i];
    if (e.duration > 40) e.t_close = e.t_arrive + 20;
  }

  // Round-trip through the CSV format, then replay the *loaded* file.
  const std::string trace_path = out("events.csv");
  if (!generated.write_csv_file(trace_path).ok()) {
    std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
    return 1;
  }
  const Result<WorkloadTrace> loaded = load_workload_trace(trace_path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "reload failed: %s\n",
                 loaded.status().to_string().c_str());
    return 1;
  }

  ReplayConfig config;
  config.cluster.serving.candidates = {4, 5, 6, 7, 8};
  config.cluster.serving.v =
      calibrate_streaming_v(cache_a, config.cluster.serving.candidates,
                            3.0 * cache_a.workload(0).bytes(5));
  config.cluster.serving.policy = SchedulerPolicy::kDeficitRoundRobin;
  config.cluster.serving.pf_ewma_window = 0.0;
  config.cluster.serving.admission.utilization_target = 0.95;
  config.cluster.placement = PlacementPolicy::kLeastLoaded;
  config.driver.snapshot_period = 60;

  const std::size_t spike_start = scenario.resolved_spike_start();
  if (faults_on) {
    // Link 1 fails ten slots into the spike and recovers 30 slots later —
    // the worst possible moment. Every active session on it fails over to
    // link 0 (or is evicted and retried); refused arrivals retry with
    // capped exponential backoff, so the outage feeds a retry storm back
    // into admission.
    config.faults.outage(1, spike_start + 10, 30);
    config.driver.retry.enabled = true;
  }
  if (handover_on) {
    // Graded degradation instead of (or on top of) the hard outage: link 1
    // ramps down to 20% capacity with a 3-slot reported delay ten slots into
    // the spike and holds well past it, so the handover policy has a long
    // window in which link 0 frees up and the drain completes mid-stream.
    config.cluster.handover.enabled = true;
    config.cluster.handover.delay_weight = 0.1;
    config.cluster.handover.rebalance_on_departure = true;
    config.faults.degrade_pulse(1, spike_start + 10, /*ramp_slots=*/12,
                                /*floor_scale=*/0.2, /*delay=*/3.0,
                                /*hold_slots=*/150);
    config.driver.retry.enabled = true;
  }

  // Full tracing on demand: one registry + tracer shared by both links and
  // the driver (the cluster assigns each link its tid). SLO mode turns
  // counters on so the black box carries a registry snapshot.
  TelemetryRegistry registry;
  PhaseTracer tracer(TracerConfig{});
  if (telemetry_on || slo_on) {
    TelemetryConfig telemetry;
    telemetry.mode =
        telemetry_on ? TelemetryMode::kFullTrace : TelemetryMode::kCounters;
    telemetry.registry = &registry;
    if (telemetry_on) telemetry.tracer = &tracer;
    config.cluster.serving.telemetry = telemetry;
    config.driver.telemetry = telemetry;
  }

  if (slo_on) {
    // Deliberately tight objectives: the flash crowd must breach them. The
    // same specs with honest thresholds are the production shape.
    config.driver.slo.windows = {/*fast=*/2, /*slow=*/5};
    config.driver.slo.specs = {
        {"accept-ratio", SloMetric::kAcceptRatio, 0.99, -1},
        {"premium-accept", SloMetric::kAcceptRatio, 0.99,
         static_cast<int>(QosClass::kPremium)},
        {"queue-delay", SloMetric::kP95QueueDelay, 4.0, -1},
    };
    config.driver.slo.black_box_path = out("slo_black_box.json");
    config.driver.live_stats_path = out("live_stats.json");
    config.driver.config_echo =
        "{\"run\":\"trace_replay --slo-strict\",\"links\":2,"
        "\"placement\":\"least-loaded\"}";
  }

  // Two links, each sized for about three cheapest-depth sessions: the base
  // churn fits with room to spare, the spike slams into the admission wall.
  const double load = AdmissionController::cheapest_depth_load(
      cache_a, config.cluster.serving.candidates);
  ConstantChannel link0(3.5 * load / 0.95);
  ConstantChannel link1(3.5 * load / 0.95);
  std::vector<ChannelModel*> channels{&link0, &link1};

  const ReplayResult result =
      replay_trace(config, *loaded, profiles, channels);

  std::printf(
      "replayed %zu sessions (%zu-slot arrival horizon, spike at [%zu, %zu))\n"
      "through K=%zu links, %s placement, deficit-round-robin link schedule:\n"
      "\n%s\n",
      loaded->events.size(), scenario.horizon, spike_start,
      spike_start + scenario.spike_duration, result.cluster.metrics.link_count,
      to_string(config.cluster.placement),
      result.report.snapshot_table().to_pretty_string().c_str());

  std::printf("per-QoS-tier outcome:\n");
  for (std::size_t q = 0; q < kQosClassCount; ++q) {
    const QosOutcome& tier = result.per_qos[q];
    std::printf("  %-11s  %3zu arrived  %3zu admitted  %3zu rejected\n",
                to_string(static_cast<QosClass>(q)), tier.arrivals,
                tier.admitted, tier.rejected);
  }
  std::printf(
      "\nfleet: %zu admitted, %zu refused outright (%zu spills rescued), "
      "utilization %.1f%%,\n"
      "       %zu mid-stream closes applied; run ended itself at slot %zu — "
      "%zu slots executed,\n"
      "       %zu idle slots skipped\n"
      "(the spike is the only stretch that rejects: watch the `rejected` "
      "column jump\n"
      "across it and stay flat everywhere else)\n",
      result.cluster.metrics.fleet.sessions_admitted,
      result.cluster.metrics.placement_rejects, result.cluster.metrics.spills,
      100.0 * result.cluster.metrics.fleet.utilization(),
      result.report.closes_applied,
      result.report.slots_executed + result.report.slots_skipped,
      result.report.slots_executed, result.report.slots_skipped);
  std::printf("REPLAY_SUMMARY");
  for (std::size_t q = 0; q < kQosClassCount; ++q) {
    const QosOutcome& tier = result.per_qos[q];
    std::printf(" %s=%zu/%zu/%zu", to_string(static_cast<QosClass>(q)),
                tier.arrivals, tier.admitted, tier.rejected);
  }
  std::printf(" closes_applied=%zu closes_ignored=%zu\n",
              result.report.closes_applied, result.report.closes_ignored);

  std::size_t recovers = 0;
  for (const SloTransition& t : result.report.slo_transitions) {
    if (t.to == SloState::kOk) ++recovers;
  }
  if (faults_on) {
    const ClusterMetrics& m = result.cluster.metrics;
    std::printf(
        "\nfault plane: link 1 down at slot %zu for 30 slots — "
        "%zu displaced -> %zu failed over,\n"
        "             %zu fault-evicted, %zu closed while displaced "
        "(books: %zu == %zu + %zu + %zu),\n"
        "             %zu retries scheduled, %zu abandoned\n",
        spike_start + 10, m.failover_displaced, m.failover_replaced,
        m.fault_evicted, m.fault_closed, m.failover_displaced,
        m.failover_replaced, m.fault_evicted, m.fault_closed,
        result.report.retries_scheduled, result.report.retries_abandoned);
    std::printf(
        "CHAOS_SUMMARY link_downs=%zu link_ups=%zu capacity_scales=%zu "
        "link_degrades=%zu failovers=%zu fault_evicted=%zu "
        "migrations_completed=%zu retries=%zu breaches=%llu recovers=%zu\n",
        m.fault_count(FaultKind::kLinkDown), m.fault_count(FaultKind::kLinkUp),
        m.fault_count(FaultKind::kCapacityScale),
        m.fault_count(FaultKind::kLinkDegrade),
        m.failover_replaced, m.fault_evicted, m.migrations_completed,
        result.report.retries_scheduled,
        static_cast<unsigned long long>(result.report.slo_breaches),
        recovers);
  }

  if (handover_on) {
    const ClusterMetrics& m = result.cluster.metrics;
    const std::size_t stranded =
        m.migrations_requested - m.migrations_completed - m.migrations_aborted;
    std::printf(
        "\nhandover plane: link 1 degraded to 20%% (+3-slot delay) at slot "
        "%zu for 150 slots —\n"
        "             %zu link-degrade events, %zu migrations requested -> "
        "%zu completed + %zu aborted\n"
        "             (aborts fell back to the displaced path: %zu displaced "
        "== %zu replaced + %zu evicted + %zu closed)\n",
        spike_start + 10, m.fault_count(FaultKind::kLinkDegrade),
        m.migrations_requested,
        m.migrations_completed, m.migrations_aborted, m.failover_displaced,
        m.failover_replaced, m.fault_evicted, m.fault_closed);
    std::printf(
        "HANDOVER_SUMMARY link_degrades=%zu migrations_requested=%zu "
        "migrations_completed=%zu migrations_aborted=%zu stranded=%zu "
        "fault_evicted=%zu breaches=%llu recovers=%zu\n",
        m.fault_count(FaultKind::kLinkDegrade), m.migrations_requested,
        m.migrations_completed, m.migrations_aborted, stranded, m.fault_evicted,
        static_cast<unsigned long long>(result.report.slo_breaches), recovers);
  }

  if (!result.report.snapshot_table().write_file(out("snapshots.csv")).ok()) {
    std::fprintf(stderr, "cannot write snapshots.csv\n");
    return 1;
  }
  std::printf("\nwrote %s (the replayable trace) and %s\n",
              trace_path.c_str(), out("snapshots.csv").c_str());

  if (slo_on) {
    std::printf("\nSLO transitions (tight thresholds — the spike *should* "
                "breach):\n%s\n",
                result.report.slo_table().to_pretty_string().c_str());
    if (!write_prometheus_text(registry, out("metrics.prom")).ok()) {
      std::fprintf(stderr, "cannot write metrics.prom\n");
      return 1;
    }
    std::printf("wrote %s (Prometheus text format) and %s (rewritten at "
                "every snapshot)\n",
                out("metrics.prom").c_str(), out("live_stats.json").c_str());
    if (result.report.slo_breaches > 0) {
      std::printf("black box auto-dumped to %s on the first breach "
                  "(last %zu flight events + registry + config echo)\n",
                  out("slo_black_box.json").c_str(),
                  global_flight_recorder().size());
    }
    std::printf("SLO_SUMMARY breaches=%llu blips=%llu\n",
                static_cast<unsigned long long>(result.report.slo_breaches),
                static_cast<unsigned long long>(result.report.slo_blips));
  }

  if (telemetry_on) {
    if (!write_chrome_trace(tracer, out("trace.json")).ok() ||
        !write_registry_csv(registry, out("telemetry")).ok()) {
      std::fprintf(stderr, "cannot write telemetry exports\n");
      return 1;
    }
    std::printf(
        "\nper-phase rollup (%zu spans, %zu dropped):\n%s\n"
        "wrote %s (open in Perfetto or chrome://tracing),\n"
        "%s_counters.csv and %s_histograms.csv\n",
        tracer.size(), tracer.dropped(),
        tracer.rollup_table().to_pretty_string().c_str(),
        out("trace.json").c_str(), out("telemetry").c_str(),
        out("telemetry").c_str());
  }
  return 0;
}

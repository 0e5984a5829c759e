// Tests for the fault-injection runtime: fault plans (builder verbs, seeded
// chaos, validation), trace fault columns (round-trip exactness, legacy
// byte-for-byte stability), failover re-placement bookkeeping (the
// displaced == replaced + evicted + closed identity; zero stranded sessions
// after an outage), downed-link capacity accounting, close-during-outage
// routing, retry/backoff storms, brownout degradation ceilings, and the
// observability spine under chaos (flight ring with fault kinds, black-box
// parse-back of an outage -> failover -> recover run, SLO breach + recover
// on an outage).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "datasets/catalog.hpp"
#include "net/channel.hpp"
#include "net/streaming.hpp"
#include "serving/admission.hpp"
#include "serving/cluster.hpp"
#include "serving/driver/event_loop.hpp"
#include "serving/driver/fault.hpp"
#include "serving/driver/replay.hpp"
#include "serving/driver/scenario.hpp"
#include "serving/driver/trace.hpp"
#include "serving/session_manager.hpp"
#include "serving/telemetry/flight_recorder.hpp"
#include "serving/telemetry/registry.hpp"
#include "support/decode_oracle.hpp"

namespace arvis {
namespace {

const FrameStatsCache& fault_cache() {
  static const FrameStatsCache cache(*open_test_subject(17), 8, 8);
  return cache;
}

double cheapest_load(const std::vector<int>& candidates) {
  return AdmissionController::cheapest_depth_load(fault_cache(), candidates);
}

ServingConfig base_serving() {
  ServingConfig config;
  config.steps = 200;
  config.candidates = {3, 4, 5, 6};
  config.v = calibrate_streaming_v(fault_cache(), config.candidates,
                                   4.0 * fault_cache().workload(0).bytes(5));
  config.admission.utilization_target = 1.0;
  return config;
}

SessionSpec session_spec(std::size_t arrival, std::size_t departure) {
  SessionSpec spec;
  spec.cache = &fault_cache();
  spec.arrival_slot = arrival;
  spec.departure_slot = departure;
  return spec;
}

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return {};
  std::string out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

// ------------------------------------------------------------ FaultPlan ----

TEST(FaultPlanTest, BuilderVerbsComposeSortedValidPlans) {
  FaultPlan plan;
  plan.outage(0, 50, 20)
      .brownout(1, 30, 40, 0.5)
      .radio_fade(1, 120, 20, 0.25, 10, /*steps=*/4)
      .correlated_flap({0, 1}, 200, 5, 20, 2);
  ASSERT_FALSE(plan.empty());
  EXPECT_TRUE(validate_fault_plan(plan, /*link_count=*/2).ok());
  for (std::size_t i = 1; i < plan.events.size(); ++i) {
    EXPECT_LE(plan.events[i - 1].slot, plan.events[i].slot) << i;
  }
  // The outage produced the matched down/up pair, the flap one pair per
  // link per repeat.
  std::size_t downs = 0, ups = 0;
  for (const FaultEvent& e : plan.events) {
    downs += e.kind == FaultKind::kLinkDown;
    ups += e.kind == FaultKind::kLinkUp;
  }
  EXPECT_EQ(downs, 1U + 2U * 2U);
  EXPECT_EQ(downs, ups);

  // duration == 0: the link never recovers (no matching up event).
  FaultPlan forever;
  forever.outage(0, 10, 0);
  ASSERT_EQ(forever.events.size(), 1U);
  EXPECT_EQ(forever.events[0].kind, FaultKind::kLinkDown);

  // merge keeps the combined stream sorted and valid.
  FaultPlan merged;
  merged.outage(0, 300, 10).merge(plan);
  EXPECT_TRUE(validate_fault_plan(merged, 2).ok());
  for (std::size_t i = 1; i < merged.events.size(); ++i) {
    EXPECT_LE(merged.events[i - 1].slot, merged.events[i].slot) << i;
  }
}

TEST(FaultPlanTest, SeededPlansAreDeterministic) {
  FaultPlanConfig config;
  config.seed = 0xC0FFEE;
  config.link_count = 4;
  config.horizon = 2'000;
  config.outages = 2;
  config.flaps = 1;
  config.fades = 1;
  config.brownouts = 1;
  const FaultPlan a = make_fault_plan(config);
  const FaultPlan b = make_fault_plan(config);
  EXPECT_EQ(a.events, b.events);
  EXPECT_TRUE(validate_fault_plan(a, config.link_count).ok());

  config.seed = 0xC0FFEF;
  const FaultPlan c = make_fault_plan(config);
  EXPECT_NE(a.events, c.events);
}

TEST(FaultPlanTest, DegradePulseRampsHoldsAndRecovers) {
  FaultPlan plan;
  plan.degrade_pulse(/*link=*/1, /*at=*/100, /*ramp_slots=*/30,
                     /*floor_scale=*/0.25, /*delay=*/4.0, /*hold_slots=*/20,
                     /*steps=*/3);
  EXPECT_TRUE(validate_fault_plan(plan, /*link_count=*/2).ok());
  // 3 down-ramp stages plus the single recovery event.
  ASSERT_EQ(plan.events.size(), 4U);
  for (const FaultEvent& e : plan.events) {
    EXPECT_EQ(e.kind, FaultKind::kLinkDegrade);
    EXPECT_EQ(e.link, 1U);
  }
  // Scale walks monotonically down to the floor, delay up to the cap; the
  // last event restores nominal.
  EXPECT_GT(plan.events[0].scale, plan.events[1].scale);
  EXPECT_GT(plan.events[1].scale, plan.events[2].scale);
  EXPECT_EQ(plan.events[2].scale, 0.25);
  EXPECT_EQ(plan.events[2].delay, 4.0);
  EXPECT_LT(plan.events[0].delay, plan.events[2].delay);
  EXPECT_EQ(plan.events[3].scale, 1.0);
  EXPECT_EQ(plan.events[3].delay, 0.0);
  EXPECT_EQ(plan.events[3].slot, 100U + 30U + 20U);

  // Degenerate inputs throw rather than emit malformed plans.
  FaultPlan bad;
  EXPECT_THROW(bad.degrade_pulse(0, 10, 2, 0.5, 1.0, 5, /*steps=*/4),
               std::invalid_argument);  // steps > ramp_slots
  EXPECT_THROW(bad.degrade_pulse(0, 10, 8, 1.5, 1.0, 5),
               std::invalid_argument);  // floor >= 1
  EXPECT_THROW(bad.degrade_pulse(0, 10, 8, 0.5, -1.0, 5),
               std::invalid_argument);  // negative delay
}

TEST(FaultPlanTest, HandoverWalkIsDeterministicAndValid) {
  FaultPlan a, b;
  a.handover_walk(/*seed=*/0xA11CE, /*link_count=*/3, /*walkers=*/4,
                  /*at=*/50, /*horizon=*/1'000, /*dwell_slots=*/40,
                  /*floor_scale=*/0.3, /*delay=*/2.0);
  b.handover_walk(0xA11CE, 3, 4, 50, 1'000, 40, 0.3, 2.0);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a.events, b.events);
  EXPECT_TRUE(validate_fault_plan(a, 3).ok());
  for (const FaultEvent& e : a.events) {
    EXPECT_EQ(e.kind, FaultKind::kLinkDegrade);
    EXPECT_LT(e.link, 3U);
  }

  FaultPlan c;
  c.handover_walk(0xD1FF, 3, 4, 50, 1'000, 40, 0.3, 2.0);
  EXPECT_NE(a.events, c.events);

  FaultPlan bad;
  EXPECT_THROW(bad.handover_walk(1, /*link_count=*/1, 2, 0, 100, 20, 0.3, 1.0),
               std::invalid_argument);
  EXPECT_THROW(bad.handover_walk(1, 3, 2, 0, 100, /*dwell_slots=*/1, 0.3, 1.0),
               std::invalid_argument);

  // The seeded-plan config grows the same verb: same seed, same walk.
  FaultPlanConfig config;
  config.seed = 0xBADD1E;
  config.link_count = 3;
  config.horizon = 1'500;
  config.walkers = 3;
  const FaultPlan x = make_fault_plan(config);
  const FaultPlan y = make_fault_plan(config);
  EXPECT_EQ(x.events, y.events);
  EXPECT_TRUE(validate_fault_plan(x, config.link_count).ok());
  std::size_t degrades = 0;
  for (const FaultEvent& e : x.events) {
    degrades += e.kind == FaultKind::kLinkDegrade;
  }
  EXPECT_GT(degrades, 0U);
}

TEST(FaultPlanTest, ValidationCatchesMalformedPlans) {
  // Out-of-order slots.
  FaultPlan unsorted;
  unsorted.events = {{100, FaultKind::kLinkDown, 0, 1.0},
                     {50, FaultKind::kLinkUp, 0, 1.0}};
  EXPECT_FALSE(validate_fault_plan(unsorted, 2).ok());

  // Link out of range — but only when the link count is known.
  FaultPlan far_link;
  far_link.events = {{10, FaultKind::kLinkDown, 7, 1.0}};
  EXPECT_FALSE(validate_fault_plan(far_link, 2).ok());
  EXPECT_TRUE(validate_fault_plan(far_link, 0).ok());

  // A non-scale event must carry exactly 1.0 (trace round-trip contract).
  FaultPlan dirty_scale;
  dirty_scale.events = {{10, FaultKind::kLinkDown, 0, 0.5}};
  EXPECT_FALSE(validate_fault_plan(dirty_scale, 2).ok());

  // Negative / non-finite scales.
  FaultPlan bad_scale;
  bad_scale.events = {{10, FaultKind::kCapacityScale, 0, -0.5}};
  EXPECT_FALSE(validate_fault_plan(bad_scale, 2).ok());

  // The scale bound is the validator's, for plans and single events alike.
  const FaultEvent huge{10, FaultKind::kLinkDegrade, 0, 2.0 * kMaxFaultScale};
  EXPECT_FALSE(validate_fault_event(huge).ok());
  EXPECT_FALSE(validate_fault_plan(FaultPlan{{huge}}, 2).ok());
  EXPECT_TRUE(validate_fault_event(
                  {10, FaultKind::kCapacityScale, 0, kMaxFaultScale})
                  .ok());

  FaultPlanConfig zero_links;
  zero_links.link_count = 0;
  EXPECT_THROW(make_fault_plan(zero_links), std::invalid_argument);
}

// --------------------------------------------------- trace fault columns ----

TEST(WorkloadTraceFaultTest, FaultColumnsRoundTripExactly) {
  WorkloadTrace trace;
  trace.events = {{0, 50, 0, 1.0, QosClass::kStandard},
                  {10, 0, 0, 2.0, QosClass::kPremium, 40}};
  // More faults than sessions: the tail rows are fault-only.
  trace.faults = {{5, FaultKind::kLinkDown, 1, 1.0},
                  {20, FaultKind::kCapacityScale, 0, 0.375},
                  {45, FaultKind::kLinkUp, 1, 1.0}};

  const std::string text = trace.to_table().to_string();
  const Result<CsvTable> csv = parse_csv(text);
  ASSERT_TRUE(csv.ok()) << csv.status().message();
  const Result<WorkloadTrace> loaded = parse_workload_trace(*csv);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(loaded->events, trace.events);
  EXPECT_EQ(loaded->faults, trace.faults);

  // And the full serialize -> parse -> serialize cycle is a fixed point.
  EXPECT_EQ(loaded->to_table().to_string(), text);
}

TEST(WorkloadTraceFaultTest, FaultFreeTraceKeepsLegacyFileByteForByte) {
  WorkloadTrace trace;
  trace.events = {{0, 50, 0, 1.0, QosClass::kStandard},
                  {10, 0, 0, 0.5, QosClass::kBestEffort}};
  const std::string text = trace.to_table().to_string();
  // The legacy five-column shape, no fault or close columns anywhere.
  EXPECT_EQ(text.substr(0, text.find('\n')),
            "t_arrive,duration,profile,weight,qos");
  EXPECT_EQ(text.find("fault"), std::string::npos);
  const Result<CsvTable> csv = parse_csv(text);
  ASSERT_TRUE(csv.ok());
  const Result<WorkloadTrace> loaded = parse_workload_trace(*csv);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->events, trace.events);
  EXPECT_TRUE(loaded->faults.empty());
}

TEST(WorkloadTraceFaultTest, ParserRejectsMalformedFaultRows) {
  const std::string header =
      "t_arrive,duration,profile,weight,qos,fault,f_link,f_slot,f_scale\n";
  // Unknown fault kind.
  {
    const Result<CsvTable> csv =
        parse_csv(header + "0,10,0,1.0,standard,meteor,0,5,\n");
    ASSERT_TRUE(csv.ok());
    EXPECT_FALSE(parse_workload_trace(*csv).ok());
  }
  // f_scale on a non-scale fault.
  {
    const Result<CsvTable> csv =
        parse_csv(header + "0,10,0,1.0,standard,link-down,0,5,0.5\n");
    ASSERT_TRUE(csv.ok());
    EXPECT_FALSE(parse_workload_trace(*csv).ok());
  }
  // Capacity scale without its scale.
  {
    const Result<CsvTable> csv =
        parse_csv(header + "0,10,0,1.0,standard,capacity-scale,0,5,\n");
    ASSERT_TRUE(csv.ok());
    EXPECT_FALSE(parse_workload_trace(*csv).ok());
  }
  // A partial fault (kind empty but link set) is neither empty nor full.
  {
    const Result<CsvTable> csv =
        parse_csv(header + "0,10,0,1.0,standard,,3,,\n");
    ASSERT_TRUE(csv.ok());
    EXPECT_FALSE(parse_workload_trace(*csv).ok());
  }
  // A fault-only row must leave every session cell empty.
  {
    const Result<CsvTable> csv =
        parse_csv(header + ",10,,,,link-down,0,5,\n");
    ASSERT_TRUE(csv.ok());
    EXPECT_FALSE(parse_workload_trace(*csv).ok());
  }
}

TEST(WorkloadTraceFaultTest, DegradeDelayColumnRoundTripsExactly) {
  WorkloadTrace trace;
  trace.events = {{0, 50, 0, 1.0, QosClass::kStandard}};
  // A degrade with delay, a degrade without, and a scale fault: f_delay must
  // appear (some fault carries a non-zero delay) but only degrade rows fill
  // it.
  trace.faults = {{5, FaultKind::kLinkDegrade, 1, 0.5, 3.25},
                  {20, FaultKind::kCapacityScale, 0, 0.375},
                  {40, FaultKind::kLinkDegrade, 1, 1.0, 0.0}};

  const std::string text = trace.to_table().to_string();
  EXPECT_NE(text.find("f_delay"), std::string::npos);
  const Result<CsvTable> csv = parse_csv(text);
  ASSERT_TRUE(csv.ok()) << csv.status().message();
  const Result<WorkloadTrace> loaded = parse_workload_trace(*csv);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(loaded->faults, trace.faults);
  EXPECT_EQ(loaded->to_table().to_string(), text);

  // Delay-free degrade plans keep the narrower fault header: no f_delay.
  WorkloadTrace no_delay;
  no_delay.events = trace.events;
  no_delay.faults = {{5, FaultKind::kLinkDegrade, 1, 0.5, 0.0}};
  const std::string narrow = no_delay.to_table().to_string();
  EXPECT_EQ(narrow.find("f_delay"), std::string::npos);
  const Result<CsvTable> narrow_csv = parse_csv(narrow);
  ASSERT_TRUE(narrow_csv.ok());
  const Result<WorkloadTrace> narrow_loaded = parse_workload_trace(*narrow_csv);
  ASSERT_TRUE(narrow_loaded.ok()) << narrow_loaded.status().message();
  EXPECT_EQ(narrow_loaded->faults, no_delay.faults);
}

TEST(WorkloadTraceFaultTest, ParserRejectsMalformedDelayCells) {
  const std::string header =
      "t_arrive,duration,profile,weight,qos,fault,f_link,f_slot,f_scale,"
      "f_delay\n";
  // A degrade row needs a numeric delay when the column exists.
  {
    const Result<CsvTable> csv =
        parse_csv(header + "0,10,0,1.0,standard,link-degrade,0,5,0.5,\n");
    ASSERT_TRUE(csv.ok());
    EXPECT_FALSE(parse_workload_trace(*csv).ok());
  }
  // Non-degrade faults must leave the delay cell empty.
  {
    const Result<CsvTable> csv =
        parse_csv(header + "0,10,0,1.0,standard,link-down,0,5,,2.0\n");
    ASSERT_TRUE(csv.ok());
    EXPECT_FALSE(parse_workload_trace(*csv).ok());
  }
  // A degrade also carries a scale (it is a scale-carrying fault).
  {
    const Result<CsvTable> csv =
        parse_csv(header + "0,10,0,1.0,standard,link-degrade,0,5,,1.0\n");
    ASSERT_TRUE(csv.ok());
    EXPECT_FALSE(parse_workload_trace(*csv).ok());
  }
  // Validation rejects a delay riding on a non-degrade fault kind.
  FaultPlan dirty;
  dirty.events = {{10, FaultKind::kCapacityScale, 0, 0.5, 2.0}};
  EXPECT_FALSE(validate_fault_plan(dirty, 2).ok());
  FaultPlan negative;
  negative.events = {{10, FaultKind::kLinkDegrade, 0, 0.5, -1.0}};
  EXPECT_FALSE(validate_fault_plan(negative, 2).ok());
}

// ------------------------------------------- failover + outage accounting ----

/// A 2-link cluster under a flash crowd with a mid-spike outage on link 1
/// and the retry loop on: the scenario every chaos invariant runs against.
struct ChaosRun {
  ReplayConfig config;
  ScenarioConfig scenario;
  std::size_t spike_start = 0;
};

ChaosRun chaos_run(FlightRecorder* flight = nullptr,
                   TelemetryRegistry* registry = nullptr) {
  ChaosRun run;
  run.config.cluster.serving = base_serving();
  run.config.cluster.placement = PlacementPolicy::kLeastLoaded;
  run.config.driver.snapshot_period = 25;
  run.config.driver.retry.enabled = true;

  run.scenario.horizon = 800;
  run.scenario.mean_duration = 150.0;
  run.scenario.max_duration = 400;
  run.scenario.base_rate = 0.5 * 4.0 / run.scenario.mean_duration;
  run.scenario.profile_count = 1;
  run.scenario.seed = 42;
  run.scenario.spike_duration = 80;
  run.scenario.spike_multiplier = 12.0;
  run.spike_start = run.scenario.resolved_spike_start();

  run.config.faults.outage(/*link=*/1, /*at=*/run.spike_start + 10,
                           /*duration=*/40);
  if (flight != nullptr) {
    TelemetryConfig telemetry;
    telemetry.flight = flight;
    if (registry != nullptr) {
      telemetry.mode = TelemetryMode::kCounters;
      telemetry.registry = registry;
    }
    run.config.cluster.serving.telemetry = telemetry;
    run.config.driver.telemetry = telemetry;
  }
  return run;
}

ReplayResult replay_chaos(const ChaosRun& run) {
  const double load = cheapest_load(run.config.cluster.serving.candidates);
  ConstantChannel a(2.4 * load), b(2.4 * load);
  std::vector<ChannelModel*> channels{&a, &b};
  const std::vector<const FrameStatsCache*> profiles{&fault_cache()};
  return replay_trace(
      run.config,
      make_scenario(ScenarioKind::kFlashCrowd, run.scenario)->generate(),
      profiles, channels);
}

TEST(FaultReplayTest, SameSeedSameFaultPlanIsBitIdenticalTwice) {
  const ChaosRun run = chaos_run();
  const ReplayResult first = replay_chaos(run);
  const ReplayResult second = replay_chaos(run);

  // The whole DriverReport snapshot series, bit for bit.
  ASSERT_EQ(first.report.snapshots.size(), second.report.snapshots.size());
  for (std::size_t i = 0; i < first.report.snapshots.size(); ++i) {
    const MetricsSnapshot& x = first.report.snapshots[i];
    const MetricsSnapshot& y = second.report.snapshots[i];
    EXPECT_EQ(x.slot, y.slot) << i;
    EXPECT_EQ(x.active_sessions, y.active_sessions) << i;
    EXPECT_EQ(x.admitted_total, y.admitted_total) << i;
    EXPECT_EQ(x.rejected_total, y.rejected_total) << i;
    EXPECT_EQ(x.capacity_offered_total, y.capacity_offered_total) << i;
    EXPECT_EQ(x.capacity_used_total, y.capacity_used_total) << i;
    EXPECT_EQ(x.window_utilization, y.window_utilization) << i;
    EXPECT_EQ(x.link_load_fairness, y.link_load_fairness) << i;
  }
  EXPECT_EQ(first.report.slots_executed, second.report.slots_executed);
  EXPECT_EQ(first.report.arrivals_injected, second.report.arrivals_injected);
  EXPECT_EQ(first.report.faults_applied, second.report.faults_applied);
  EXPECT_EQ(first.report.retries_scheduled, second.report.retries_scheduled);
  EXPECT_EQ(first.report.retries_abandoned, second.report.retries_abandoned);

  const ClusterMetrics& m = first.cluster.metrics;
  const ClusterMetrics& n = second.cluster.metrics;
  EXPECT_EQ(m.failover_displaced, n.failover_displaced);
  EXPECT_EQ(m.failover_replaced, n.failover_replaced);
  EXPECT_EQ(m.fault_evicted, n.fault_evicted);
  EXPECT_EQ(m.fault_closed, n.fault_closed);
  EXPECT_EQ(m.fleet.capacity_used, n.fleet.capacity_used);
  EXPECT_EQ(m.fleet.mean_quality, n.fleet.mean_quality);

  ASSERT_EQ(first.cluster.sessions.size(), second.cluster.sessions.size());
  for (std::size_t i = 0; i < first.cluster.sessions.size(); ++i) {
    EXPECT_EQ(first.cluster.sessions[i].link, second.cluster.sessions[i].link)
        << i;
    EXPECT_EQ(first.cluster.sessions[i].failovers,
              second.cluster.sessions[i].failovers)
        << i;
  }
}

TEST(FaultReplayTest, SingleLinkOutageLeavesNoStrandedSessions) {
  const ChaosRun run = chaos_run();
  const ReplayResult result = replay_chaos(run);
  const ClusterMetrics& m = result.cluster.metrics;

  // The outage cycle applied and displaced someone.
  EXPECT_EQ(m.fault_count(FaultKind::kLinkDown), 1U);
  EXPECT_EQ(m.fault_count(FaultKind::kLinkUp), 1U);
  ASSERT_GT(m.failover_displaced, 0U);

  // The books balance exactly: every displaced session was re-placed,
  // evicted, or closed — none stranded.
  EXPECT_EQ(m.failover_displaced,
            m.failover_replaced + m.fault_evicted + m.fault_closed);

  // Per-session outcomes agree with the fleet counters.
  std::size_t failover_sum = 0, evicted = 0;
  for (const ClusterSessionOutcome& outcome : result.cluster.sessions) {
    failover_sum += outcome.failovers;
    evicted += outcome.fault_evicted ? 1 : 0;
    if (outcome.fault_evicted) {
      // An evicted session still reports a coherent window and its last link.
      EXPECT_TRUE(outcome.session.admitted);
      EXPECT_LE(outcome.session.departure_slot, result.report.slots_executed +
                                                    result.report.slots_skipped);
    }
  }
  EXPECT_EQ(failover_sum, m.failover_replaced);
  EXPECT_EQ(evicted, m.fault_evicted);

  // Nothing is left active after finish(): every admitted session has a
  // departure bound within the run.
  for (const ClusterSessionOutcome& outcome : result.cluster.sessions) {
    if (!outcome.session.admitted) continue;
    EXPECT_NE(outcome.link, -1);
    EXPECT_LE(outcome.session.departure_slot,
              result.report.slots_executed + result.report.slots_skipped);
  }
}

TEST(ClusterFaultTest, UtilizationExcludesDownedLinkCapacity) {
  // No sessions at all: offered capacity is the only moving part, so the
  // accounting is pinned exactly. 2 links x 40 slots, link 1 down for 10.
  ClusterConfig config;
  config.serving = base_serving();
  const double cap = 1.0e5;
  const std::vector<double> means{cap, cap};

  EdgeCluster cluster(config, means);
  const std::vector<double> caps{cap, cap};
  for (std::size_t t = 0; t < 40; ++t) {
    if (t == 10) {
      ASSERT_TRUE(cluster.apply_fault({t, FaultKind::kLinkDown, 1}));
    }
    if (t == 20) {
      ASSERT_TRUE(cluster.apply_fault({t, FaultKind::kLinkUp, 1}));
    }
    cluster.step(caps);
  }
  const ClusterResult result = cluster.finish();
  // 40 slots of link 0 plus 30 of link 1: the 10 downed slots offer nothing.
  EXPECT_EQ(result.metrics.fleet.capacity_offered, cap * (40.0 + 30.0));
  // The per-link view agrees: link clocks stayed in lockstep, only the
  // downed window's capacity vanished.
  EXPECT_EQ(result.metrics.per_link[0].capacity_offered, cap * 40.0);
  EXPECT_EQ(result.metrics.per_link[1].capacity_offered, cap * 30.0);
}

TEST(ClusterFaultTest, CapacityScaleShrinksAdmissionHeadroom) {
  ClusterConfig config;
  config.serving = base_serving();
  const double load = cheapest_load(config.serving.candidates);
  const std::vector<double> means{4.0 * load};

  // At nominal capacity the link takes the session; at a deep fade the same
  // session is refused — admission and the capacity plane agree on scale.
  for (const double scale : {1.0, 0.05}) {
    EdgeCluster cluster(config, means);
    ASSERT_TRUE(cluster.apply_fault({0, FaultKind::kCapacityScale, 0, scale}));
    const std::size_t id = cluster.submit(session_spec(0, 20));
    cluster.step({means[0] * scale});
    const ClusterResult result = cluster.finish();
    EXPECT_EQ(result.sessions[id].session.admitted, scale == 1.0) << scale;
  }

  EdgeCluster cluster(config, means);
  EXPECT_FALSE(cluster.apply_fault({0, FaultKind::kCapacityScale, 0, -1.0}));
  // out of range
  EXPECT_FALSE(cluster.apply_fault({0, FaultKind::kCapacityScale, 1, 0.5}));
  EXPECT_FALSE(cluster.apply_fault({0, FaultKind::kLinkDown, 1}));
}

TEST(ClusterFaultTest, CloseDuringOutageRoutesToEvictionPathAndCounts) {
  // One link, one session. The link goes down (the session is displaced, no
  // surviving link exists yet to re-place it), then the external close fires
  // before the slot steps: request_close must route it to the fault-closed
  // books, and the driver must count the close as applied.
  ClusterConfig config;
  config.serving = base_serving();
  const double load = cheapest_load(config.serving.candidates);
  const std::vector<double> means{4.0 * load};

  EdgeCluster cluster(config, means);
  ConstantChannel channel(means[0]);
  ClusterBackend backend(cluster, {&channel});
  DriverConfig driver;
  driver.snapshot_period = 0;
  EventLoop loop(driver, backend);
  loop.schedule_arrival(0, session_spec(0, 60));
  // Same slot, scheduled after the outage: calendar order is (slot, seq),
  // so the close sees the *displaced* session.
  loop.schedule_fault_plan(FaultPlan{}.outage(/*link=*/0, /*at=*/10, 0));
  loop.schedule_close(10, 0);
  const DriverReport report = loop.run();

  EXPECT_EQ(report.faults_applied, 1U);
  EXPECT_EQ(report.closes_applied, 1U);
  EXPECT_EQ(report.closes_ignored, 0U);

  const ClusterResult result = cluster.finish();
  EXPECT_EQ(result.metrics.failover_displaced, 1U);
  EXPECT_EQ(result.metrics.fault_closed, 1U);
  EXPECT_EQ(result.metrics.failover_replaced, 0U);
  EXPECT_EQ(result.metrics.fault_evicted, 0U);
  // The closed session's window ends at the close slot, on its old link.
  EXPECT_TRUE(result.sessions[0].session.admitted);
  EXPECT_EQ(result.sessions[0].session.departure_slot, 10U);
  EXPECT_FALSE(result.sessions[0].fault_evicted);
}

TEST(ClusterFaultTest, OverlappingOutagesCountOneTransition) {
  // Two links, four long sessions, round-robin: two stream on each link.
  // Link 1 goes down at slot 10 and again at slot 15 (overlapping outages),
  // then recovers at 30. The second link-down is a no-op transition: the
  // backend accepts it, but it changes nothing and counts nothing.
  ClusterConfig config;
  config.serving = base_serving();
  const double load = cheapest_load(config.serving.candidates);
  const std::vector<double> means{8.0 * load, 8.0 * load};

  EdgeCluster cluster(config, means);
  ConstantChannel a(means[0]), b(means[1]);
  ClusterBackend backend(cluster, {&a, &b});
  EventLoop loop(DriverConfig{}, backend);
  for (std::uint64_t i = 0; i < 4; ++i) {
    loop.schedule_arrival(0, session_spec(0, 100));
  }
  FaultPlan plan;
  plan.outage(/*link=*/1, /*at=*/10, /*duration=*/20)
      .outage(/*link=*/1, /*at=*/15, /*duration=*/0);
  loop.schedule_fault_plan(plan);
  const DriverReport report = loop.run();

  EXPECT_EQ(report.faults_applied, 3U);
  EXPECT_EQ(report.faults_ignored, 0U);
  const ClusterResult result = cluster.finish();
  const ClusterMetrics& m = result.metrics;
  EXPECT_EQ(m.fault_count(FaultKind::kLinkDown), 1U);
  EXPECT_EQ(m.fault_count(FaultKind::kLinkUp), 1U);
  // Only the first outage drained link 1; both sessions re-placed on link 0.
  EXPECT_EQ(m.failover_displaced, 2U);
  EXPECT_EQ(m.failover_replaced, 2U);
  EXPECT_EQ(m.fault_evicted, 0U);
  EXPECT_EQ(m.fault_closed, 0U);
  for (const ClusterSessionOutcome& s : result.sessions) {
    EXPECT_EQ(s.link, 0);
  }
}

TEST(ClusterFaultTest, CompoundingScalesPastTheBoundAreIgnored) {
  // Each factor passes validation on its own (1000 and 2000 <= 1e6), but
  // their product would push the link's effective scale past the bound. The
  // second event is refused with the link untouched, and the driver counts
  // it as ignored instead of throwing mid-run.
  WorkloadTrace trace;
  trace.events = {{0, 40, 0, 1.0, QosClass::kStandard},
                  {2, 40, 0, 1.0, QosClass::kStandard}};
  trace.faults = {{5, FaultKind::kCapacityScale, 0, 1000.0},
                  {10, FaultKind::kLinkDegrade, 0, 2000.0, 1.0}};
  ASSERT_TRUE(validate_workload_trace(trace, 1).ok());

  ReplayConfig config;
  config.cluster.serving = base_serving();
  const double load = cheapest_load(config.cluster.serving.candidates);
  ConstantChannel a(4.0 * load), b(4.0 * load);
  const std::vector<const FrameStatsCache*> profiles{&fault_cache()};
  ReplayResult result;
  ASSERT_NO_THROW(result = replay_trace(config, trace, profiles, {&a, &b}));
  EXPECT_EQ(result.report.faults_applied, 1U);
  EXPECT_EQ(result.report.faults_ignored, 1U);
  const ClusterMetrics& m = result.cluster.metrics;
  EXPECT_EQ(m.fault_count(FaultKind::kCapacityScale), 1U);
  EXPECT_EQ(m.fault_count(FaultKind::kLinkDegrade), 0U);

  // The refused event leaves every field of the link's state as it was.
  EdgeCluster cluster(config.cluster, {4.0 * load});
  ASSERT_TRUE(cluster.apply_fault(trace.faults[0]));
  EXPECT_FALSE(cluster.apply_fault(trace.faults[1]));
  const LinkState& state = cluster.link_state(0);
  EXPECT_FALSE(state.down);
  EXPECT_EQ(state.scale, 1000.0);
  EXPECT_EQ(state.degrade, 1.0);
  EXPECT_EQ(state.delay, 0.0);
  EXPECT_EQ(state.effective, 1000.0);
  EXPECT_EQ(cluster.link(0).admission().capacity_scale(), 1000.0);
}

// -------------------------------------------------------- retry/backoff ----

TEST(RetryTest, StormSchedulesBacksOffAndAbandons) {
  const ChaosRun with_retry = chaos_run();
  const ReplayResult storm = replay_chaos(with_retry);
  // The spike x outage produced a storm, and abandoned lineages are
  // accounted (attempts exhausted or lifetime over).
  EXPECT_GT(storm.report.retries_scheduled, 0U);
  EXPECT_LE(storm.report.retries_abandoned, storm.report.retries_scheduled);

  ChaosRun no_retry = chaos_run();
  no_retry.config.driver.retry.enabled = false;
  const ReplayResult quiet = replay_chaos(no_retry);
  EXPECT_EQ(quiet.report.retries_scheduled, 0U);
  EXPECT_EQ(quiet.report.retries_abandoned, 0U);
  // Every retry arrival is an extra injected arrival beyond the trace.
  EXPECT_EQ(storm.report.arrivals_injected,
            quiet.report.arrivals_injected + storm.report.retries_scheduled);

  // Fewer attempts => no more retries than the generous config.
  ChaosRun one_shot = chaos_run();
  one_shot.config.driver.retry.max_attempts = 1;
  const ReplayResult capped = replay_chaos(one_shot);
  EXPECT_GT(capped.report.retries_scheduled, 0U);
  EXPECT_LE(capped.report.retries_scheduled, storm.report.retries_scheduled);
}

TEST(RetryTest, ConfigValidation) {
  ClusterConfig cluster_config;
  cluster_config.serving = base_serving();
  const std::vector<double> means{1.0e5};
  EdgeCluster cluster(cluster_config, means);
  ConstantChannel channel(means[0]);
  ClusterBackend backend(cluster, {&channel});

  DriverConfig bad = {};
  bad.retry.enabled = true;
  bad.retry.max_attempts = 0;
  EXPECT_THROW(EventLoop(bad, backend), std::invalid_argument);

  bad.retry.max_attempts = 3;
  bad.retry.base_backoff_slots = 0;
  EXPECT_THROW(EventLoop(bad, backend), std::invalid_argument);

  bad.retry.base_backoff_slots = 128;
  bad.retry.max_backoff_slots = 64;
  EXPECT_THROW(EventLoop(bad, backend), std::invalid_argument);
}

// ------------------------------------------------------------- brownout ----

TEST(BrownoutTest, EnterLowersQualityCeilingsAndExitRestores) {
  // One manager, capacity for ~4 sessions. A fault-plane capacity scale
  // drives utilization over the enter threshold; releasing it exits.
  FlightRecorder recorder({64});
  ServingConfig config = base_serving();
  config.steps = 60;
  config.degradation.enabled = true;
  config.degradation.enter_utilization = 0.90;
  config.degradation.exit_utilization = 0.50;
  config.telemetry.flight = &recorder;
  const double load = cheapest_load(config.candidates);

  // A bare link, driven the way EdgeCluster drives one: close departures,
  // place, evaluate brownout, then decide + schedule + drain.
  SessionManager manager(config, 4.0 * load);
  auto step = [&](bool place) {
    manager.begin_slot();
    for (std::size_t i = 0; place && i < 2; ++i) {
      SessionSpec spec = session_spec(0, 60);
      spec.qos = static_cast<std::uint8_t>(i);  // one best-effort, one standard
      ASSERT_TRUE(manager.try_place(spec, i).admitted);
    }
    manager.evaluate_brownout();
    manager.finish_slot(4.0 * load);
  };
  step(true);
  EXPECT_FALSE(manager.brownout_active());  // ~50% utilization: healthy

  // The fade shrinks the denominator: 2 sessions / 2-session capacity.
  manager.set_capacity_scale(0.5);
  step(false);
  EXPECT_TRUE(manager.brownout_active());
  EXPECT_EQ(manager.brownout_enters(), 1U);

  manager.set_capacity_scale(1.0);
  step(false);
  EXPECT_FALSE(manager.brownout_active());
  EXPECT_EQ(manager.brownout_enters(), 1U);

  bool saw_enter = false, saw_exit = false;
  for (std::size_t i = 0; i < recorder.size(); ++i) {
    saw_enter |= recorder.at(i).kind == FlightEventKind::kBrownoutEnter;
    saw_exit |= recorder.at(i).kind == FlightEventKind::kBrownoutExit;
  }
  EXPECT_TRUE(saw_enter);
  EXPECT_TRUE(saw_exit);
}

TEST(BrownoutTest, TierCeilingsBindPerTierDuringBrownout) {
  // Two identical specs on different tiers under a permanent brownout:
  // best-effort loses all headroom (pinned to the cheapest candidate),
  // premium keeps the full set — so decide must apply each session's tier
  // ceiling, not just its spec inputs.
  ServingConfig config = base_serving();
  config.steps = 40;
  config.degradation.enabled = true;
  config.degradation.enter_utilization = 0.01;  // brownout from slot 0
  config.degradation.exit_utilization = 0.005;
  config.degradation.tier_drop[0] = config.candidates.size();  // floor: 1
  config.degradation.tier_drop[1] = 2;
  config.degradation.tier_drop[2] = 0;  // premium untouched
  const double load = cheapest_load(config.candidates);

  SessionManager manager(config, 16.0 * load);
  SessionSpec best_effort = session_spec(0, kNeverDeparts);
  best_effort.qos = 0;
  SessionSpec standard = session_spec(0, kNeverDeparts);
  standard.qos = 1;
  SessionSpec premium = session_spec(0, kNeverDeparts);
  premium.qos = 2;
  const std::size_t be_id = 0, standard_id = 1, pr_id = 2;
  for (std::size_t t = 0; t < config.steps; ++t) {
    manager.begin_slot();
    if (t == 0) {
      ASSERT_TRUE(manager.try_place(best_effort, be_id).admitted);
      ASSERT_TRUE(manager.try_place(standard, standard_id).admitted);
      ASSERT_TRUE(manager.try_place(premium, pr_id).admitted);
    }
    manager.evaluate_brownout();
    manager.finish_slot(16.0 * load);
  }
  ASSERT_TRUE(manager.brownout_active());
  std::vector<SessionOutcome> outcomes(3);
  manager.finish([&](std::size_t id) { return &outcomes[id]; });
  // The best-effort session never left the floor candidate; the premium
  // session (identical spec otherwise) climbed above it.
  int be_peak = 0, pr_peak = 0;
  const Trace be = outcomes[be_id].trace.to_trace();
  const Trace pr = outcomes[pr_id].trace.to_trace();
  for (std::size_t t = 0; t < be.size(); ++t) {
    be_peak = std::max(be_peak, be.at(t).depth);
  }
  for (std::size_t t = 0; t < pr.size(); ++t) {
    pr_peak = std::max(pr_peak, pr.at(t).depth);
  }
  EXPECT_EQ(be_peak, config.candidates.front());
  EXPECT_GT(pr_peak, be_peak);

  // Each tier's record decodes from the profile under its own ceiling:
  // best-effort 1 candidate, standard width - 2, premium all of them.
  const std::size_t width = config.candidates.size();
  const Trace standard_trace = outcomes[standard_id].trace.to_trace();
  EXPECT_TRUE(arvis_test::decodes_from_profile(
      be, fault_cache(), config.candidates, config.v, 0, 0.0, 1));
  EXPECT_TRUE(arvis_test::decodes_from_profile(
      standard_trace, fault_cache(), config.candidates, config.v, 0, 0.0,
      width - 2));
  EXPECT_TRUE(arvis_test::decodes_from_profile(
      pr, fault_cache(), config.candidates, config.v, 0, 0.0, width));
  // The standard session is limited but not pinned: it uses more than one
  // of its candidates and never one past its ceiling.
  int standard_peak = 0;
  for (std::size_t t = 0; t < standard_trace.size(); ++t) {
    standard_peak = std::max(standard_peak, standard_trace.at(t).depth);
  }
  EXPECT_GT(standard_peak, config.candidates.front());
  EXPECT_LE(standard_peak, config.candidates[width - 3]);
}

// ------------------------------------------------- observability spine ----

TEST(FlightRingFaultTest, RingWrapKeepsMixedFaultKinds) {
  FlightRecorder recorder({6});
  // 3 full chaos cycles of 4 kinds = 12 events through a 6-slot ring.
  for (std::size_t cycle = 0; cycle < 3; ++cycle) {
    const std::size_t slot = cycle * 10;
    recorder.record(FlightEventKind::kFault, slot, 999, 1.0, 0.0);
    recorder.record(FlightEventKind::kFailover, slot + 1, 999, 5.0, 0.0);
    recorder.record(FlightEventKind::kRetry, slot + 2, 1000, 5.0, 1.0);
    recorder.record(FlightEventKind::kFault, slot + 3, 999, 1.0, 1.0);
  }
  EXPECT_EQ(recorder.recorded_total(), 12U);
  EXPECT_EQ(recorder.size(), 6U);
  EXPECT_EQ(recorder.dropped(), 6U);
  // The held window is the newest 6, oldest first, kinds intact.
  EXPECT_EQ(recorder.at(0).seq, 7U);
  EXPECT_EQ(recorder.at(0).kind, FlightEventKind::kRetry);
  EXPECT_EQ(recorder.at(5).kind, FlightEventKind::kFault);
  EXPECT_EQ(recorder.at(5).slot, 23U);
  EXPECT_EQ(recorder.at(5).b, 1.0);  // link-up code

  // The dump names the fault kinds.
  const std::string json = black_box_json(recorder, nullptr, "");
  EXPECT_NE(json.find("\"kind\":\"fault\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"failover\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"retry\""), std::string::npos);
}

TEST(BlackBoxFaultTest, OutageFailoverRecoverSequenceParsesBack) {
  FlightRecorder recorder({4096});
  TelemetryRegistry registry;
  const ChaosRun run = chaos_run(&recorder, &registry);
  const ReplayResult result = replay_chaos(run);
  ASSERT_GT(result.cluster.metrics.failover_replaced, 0U)
      << "scenario must produce at least one successful failover";

  // The ring holds the ordered incident tape: down -> failover -> up.
  std::size_t down_seq = 0, failover_seq = 0, up_seq = 0;
  for (std::size_t i = 0; i < recorder.size(); ++i) {
    const FlightEvent& e = recorder.at(i);
    if (e.kind == FlightEventKind::kFault && e.b == 0.0 && down_seq == 0) {
      down_seq = e.seq;
    }
    if (e.kind == FlightEventKind::kFailover && failover_seq == 0) {
      failover_seq = e.seq;
    }
    if (e.kind == FlightEventKind::kFault && e.b == 1.0 && up_seq == 0) {
      up_seq = e.seq;
    }
  }
  ASSERT_GT(down_seq, 0U);
  ASSERT_GT(failover_seq, 0U);
  ASSERT_GT(up_seq, 0U);
  EXPECT_LT(down_seq, failover_seq);
  EXPECT_LT(failover_seq, up_seq);

  // The black box carries the whole story in one parseable document.
  const std::string json =
      black_box_json(recorder, &registry, "{\"run\":\"chaos\"}");
  EXPECT_NE(json.find("\"kind\":\"fault\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"failover\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"retry\""), std::string::npos);
  EXPECT_NE(json.find("\"config\":{\"run\":\"chaos\"}"), std::string::npos);
}

TEST(SloFaultTest, OutageBreachesThenRecovers) {
  const std::string box_path = ::testing::TempDir() + "/fault_slo_box.json";
  std::remove(box_path.c_str());

  ChaosRun run = chaos_run();
  run.config.driver.slo.windows = {2, 6};
  run.config.driver.slo.specs = {
      {"accept-ratio", SloMetric::kAcceptRatio, 0.99, -1},
      {"reject-ratio", SloMetric::kRejectRatio, 0.01, -1},
  };
  run.config.driver.slo.black_box_path = box_path;
  run.config.driver.config_echo = "{\"test\":\"fault-slo\"}";

  const ReplayResult result = replay_chaos(run);
  EXPECT_GE(result.report.slo_breaches, 1U);
  bool breached = false, recovered_after_breach = false;
  for (const SloTransition& t : result.report.slo_transitions) {
    if (t.to == SloState::kBreach) breached = true;
    if (breached && t.to == SloState::kOk) recovered_after_breach = true;
  }
  EXPECT_TRUE(breached);
  EXPECT_TRUE(recovered_after_breach)
      << "the cluster must recover once the link comes back";

  // The breach auto-dumped the black box.
  const std::string box = read_file(box_path);
  ASSERT_FALSE(box.empty()) << "no black box at " << box_path;
  EXPECT_NE(box.find("\"kind\":\"slo_breach\""), std::string::npos);
  std::remove(box_path.c_str());
}

}  // namespace
}  // namespace arvis

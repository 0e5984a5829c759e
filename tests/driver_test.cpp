// Tests for the event-driven workload engine (serving/driver): trace CSV
// round-trip, scenario generator seed-stability, shape and golden digests,
// EventLoop determinism (same seed => identical snapshot series), idle
// fast-forward equivalence, the flash-crowd acceptance property (admission
// rejects confined to the spike window), the calendar queue's ordering
// contract, trace closes and the tier rollup past retries, and the
// driver-path allocation probe (EventLoop + EdgeCluster steady state
// between arrivals is heap-silent).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "datasets/catalog.hpp"
#include "net/channel.hpp"
#include "net/streaming.hpp"
#include "serving/admission.hpp"
#include "serving/driver/calendar.hpp"
#include "serving/driver/event_loop.hpp"
#include "serving/driver/replay.hpp"
#include "serving/driver/scenario.hpp"
#include "serving/driver/trace.hpp"
#include "serving/telemetry/registry.hpp"
#include "support/alloc_probe.hpp"

// The driver steady-state test asserts that extending a run's arrival-free
// tail adds zero allocations (probe shared with cluster_test).
using arvis_test::g_allocations;

namespace arvis {
namespace {

const FrameStatsCache& shared_cache() {
  static const FrameStatsCache cache(*open_test_subject(71), 8, 8);
  return cache;
}

const FrameStatsCache& second_cache() {
  static const FrameStatsCache cache(*open_test_subject(172), 8, 8);
  return cache;
}

double cheapest_load(const std::vector<int>& candidates) {
  return AdmissionController::cheapest_depth_load(shared_cache(), candidates);
}

ScenarioConfig base_scenario() {
  ScenarioConfig config;
  config.horizon = 1'000;
  config.base_rate = 0.02;
  config.mean_duration = 80.0;
  config.max_duration = 200;
  config.profile_count = 2;
  config.seed = 99;
  return config;
}

ClusterConfig replay_cluster_config(std::size_t sessions_per_link) {
  ClusterConfig config;
  config.serving.steps = 400;
  config.serving.candidates = {3, 4, 5, 6};
  config.serving.v =
      calibrate_streaming_v(shared_cache(), config.serving.candidates,
                            4.0 * shared_cache().workload(0).bytes(5));
  config.serving.admission.utilization_target = 1.0;
  config.placement = PlacementPolicy::kLeastLoaded;
  (void)sessions_per_link;
  return config;
}

// ----------------------------------------------------------- Trace I/O ----

WorkloadTrace sample_trace() {
  WorkloadTrace trace;
  trace.events = {
      {0, 40, 0, 1.0, QosClass::kStandard},
      {5, 0, 1, 2.0, QosClass::kPremium},
      {5, 12, 0, 0.5, QosClass::kBestEffort},
      {300, 7, 1, 1.0, QosClass::kStandard},
  };
  return trace;
}

TEST(WorkloadTraceTest, RoundTripsThroughCsvText) {
  const WorkloadTrace trace = sample_trace();
  const std::string csv = trace.to_table().to_string();
  const Result<CsvTable> table = parse_csv(csv);
  ASSERT_TRUE(table.ok()) << table.status().to_string();
  const Result<WorkloadTrace> loaded = parse_workload_trace(*table);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded->events, trace.events);
  EXPECT_EQ(loaded->arrival_horizon(), 301U);
}

TEST(WorkloadTraceTest, RoundTripsThroughFile) {
  const WorkloadTrace trace = sample_trace();
  const std::string path = "driver_trace_roundtrip_test.csv";
  ASSERT_TRUE(trace.write_csv_file(path).ok());
  const Result<WorkloadTrace> loaded = load_workload_trace(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded->events, trace.events);
}

TEST(WorkloadTraceTest, GeneratedTracesRoundTripExactly) {
  // The acceptance loop: generate -> write CSV -> load -> identical event
  // stream, for every scenario kind (weights survive shortest-round-trip
  // double formatting bit for bit).
  for (ScenarioKind kind :
       {ScenarioKind::kPoisson, ScenarioKind::kBursty, ScenarioKind::kDiurnal,
        ScenarioKind::kFlashCrowd}) {
    const WorkloadTrace trace = make_scenario(kind, base_scenario())->generate();
    ASSERT_FALSE(trace.events.empty()) << to_string(kind);
    const Result<CsvTable> table = parse_csv(trace.to_table().to_string());
    ASSERT_TRUE(table.ok()) << to_string(kind);
    const Result<WorkloadTrace> loaded = parse_workload_trace(*table);
    ASSERT_TRUE(loaded.ok()) << to_string(kind) << ": "
                             << loaded.status().to_string();
    EXPECT_EQ(loaded->events, trace.events) << to_string(kind);
  }
}

TEST(WorkloadTraceTest, ValidationCatchesStructuralErrors) {
  WorkloadTrace unsorted = sample_trace();
  std::swap(unsorted.events[0], unsorted.events[3]);
  EXPECT_FALSE(validate_workload_trace(unsorted).ok());

  WorkloadTrace negative = sample_trace();
  negative.events[1].weight = -1.0;
  EXPECT_FALSE(validate_workload_trace(negative).ok());

  // Profile range is only checkable against a profile table.
  const WorkloadTrace trace = sample_trace();
  EXPECT_TRUE(validate_workload_trace(trace).ok());
  EXPECT_TRUE(validate_workload_trace(trace, 2).ok());
  EXPECT_FALSE(validate_workload_trace(trace, 1).ok());

  EXPECT_TRUE(parse_qos_class("premium").ok());
  EXPECT_FALSE(parse_qos_class("platinum").ok());

  // A parsed trace is always structurally sound: bad rows fail the parse.
  CsvTable bad_qos({"t_arrive", "duration", "profile", "weight", "qos"});
  bad_qos.add_row({std::int64_t{0}, std::int64_t{5}, std::int64_t{0}, 1.0,
                   std::string("platinum")});
  EXPECT_FALSE(parse_workload_trace(bad_qos).ok());

  CsvTable wrong_header({"when", "how_long"});
  EXPECT_FALSE(parse_workload_trace(wrong_header).ok());
}

TEST(WorkloadTraceTest, CloseColumnRoundTripsAndStaysOptional) {
  // Without closes, serialization is the legacy five-column file byte for
  // byte — older tools keep parsing what we write.
  const WorkloadTrace legacy = sample_trace();
  const std::string five_cols = legacy.to_table().to_string();
  EXPECT_EQ(five_cols.find("t_close"), std::string::npos);
  EXPECT_EQ(five_cols.substr(0, five_cols.find('\n')),
            "t_arrive,duration,profile,weight,qos");

  // With a close anywhere, the sixth column rides for every row and the
  // events round-trip exactly (t_close == 0 rows included).
  WorkloadTrace closing = sample_trace();
  closing.events[1].t_close = 30;
  const std::string six_cols = closing.to_table().to_string();
  EXPECT_EQ(six_cols.substr(0, six_cols.find('\n')),
            "t_arrive,duration,profile,weight,qos,t_close");
  const Result<CsvTable> table = parse_csv(six_cols);
  ASSERT_TRUE(table.ok());
  const Result<WorkloadTrace> loaded = parse_workload_trace(*table);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded->events, closing.events);

  // The validator rejects a close at or before its arrival.
  WorkloadTrace too_early = sample_trace();
  too_early.events[3].t_close = too_early.events[3].t_arrive;
  EXPECT_FALSE(validate_workload_trace(too_early).ok());
  too_early.events[3].t_close = too_early.events[3].t_arrive + 1;
  EXPECT_TRUE(validate_workload_trace(too_early).ok());

  // And the parser runs the same validation on loaded files.
  CsvTable bad({"t_arrive", "duration", "profile", "weight", "qos",
                "t_close"});
  bad.add_row({std::int64_t{10}, std::int64_t{5}, std::int64_t{0}, 1.0,
               std::string("standard"), std::int64_t{10}});
  EXPECT_FALSE(parse_workload_trace(bad).ok());
}

TEST(EventLoopTest, TraceClosesEndSessionsEarly) {
  // Two sessions arriving together; one abandons at slot 20, far before its
  // nominal departure. The replayer must apply exactly one external close
  // and the cluster's books must show the shortened lifetime.
  WorkloadTrace trace;
  trace.events = {{0, 100, 0, 1.0, QosClass::kStandard, 20},
                  {0, 100, 0, 1.0, QosClass::kStandard, 0}};

  ReplayConfig config;
  config.cluster = replay_cluster_config(2);
  config.driver.snapshot_period = 50;
  const double capacity =
      3.0 * cheapest_load(config.cluster.serving.candidates);
  ConstantChannel channel(capacity);
  std::vector<ChannelModel*> channels{&channel};
  const std::vector<const FrameStatsCache*> profiles{&shared_cache()};
  const ReplayResult result = replay_trace(config, trace, profiles, channels);

  EXPECT_EQ(result.report.closes_applied, 1U);
  ASSERT_EQ(result.cluster.sessions.size(), 2U);
  EXPECT_TRUE(result.cluster.sessions[0].session.admitted);
  EXPECT_TRUE(result.cluster.sessions[1].session.admitted);
  // The abandoning session streamed ~20 slots; its sibling ran the full
  // 100-slot duration.
  EXPECT_LE(result.cluster.sessions[0].session.trace.size(), 21U);
  EXPECT_GT(result.cluster.sessions[1].session.trace.size(), 90U);
}

TEST(EventLoopTest, TraceClosesAndTierRollupFollowIdsPastRetries) {
  // One link with room for one session. Row 1 is refused and retried three
  // times, and each retry takes the next runtime id when it fires, so row
  // 2's arrival gets id 5, not its row index. Its close and its tier must
  // still find it.
  WorkloadTrace trace;
  trace.events = {{0, 40, 0, 1.0, QosClass::kStandard, 0},
                  {1, 100, 0, 1.0, QosClass::kStandard, 0},
                  {50, 100, 0, 0.5, QosClass::kBestEffort, 60}};

  ReplayConfig config;
  config.cluster = replay_cluster_config(1);
  config.driver.retry.enabled = true;
  config.stop_slot = 100;
  ConstantChannel channel(1.2 *
                          cheapest_load(config.cluster.serving.candidates));
  const ReplayResult result =
      replay_trace(config, trace, {&shared_cache()}, {&channel});

  EXPECT_EQ(result.report.retries_scheduled, 3U);
  EXPECT_EQ(result.report.retries_abandoned, 1U);
  EXPECT_EQ(result.report.arrival_ids,
            (std::vector<std::size_t>{0, 1, 5, 2, 3, 4}));
  EXPECT_EQ(result.report.closes_applied, 1U);
  EXPECT_EQ(result.report.closes_ignored, 0U);
  ASSERT_EQ(result.cluster.sessions.size(), 6U);
  EXPECT_TRUE(result.cluster.sessions[5].session.admitted);
  EXPECT_EQ(result.cluster.sessions[5].session.departure_slot, 60U);

  const QosOutcome& standard =
      result.per_qos[static_cast<std::size_t>(QosClass::kStandard)];
  EXPECT_EQ(standard.arrivals, 2U);
  EXPECT_EQ(standard.admitted, 1U);
  EXPECT_EQ(standard.rejected, 1U);
  const QosOutcome& best_effort =
      result.per_qos[static_cast<std::size_t>(QosClass::kBestEffort)];
  EXPECT_EQ(best_effort.arrivals, 1U);
  EXPECT_EQ(best_effort.admitted, 1U);
  EXPECT_EQ(best_effort.rejected, 0U);
}

// ----------------------------------------------------------- Generators ----

/// Order-sensitive digest of every field of every event.
std::uint64_t trace_digest(const WorkloadTrace& trace) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  const auto mix = [&h](std::uint64_t word) {
    h ^= word;
    h *= 0x100000001B3ULL;
  };
  for (const TraceEvent& e : trace.events) {
    mix(e.t_arrive);
    mix(e.duration);
    mix(e.profile);
    mix(std::bit_cast<std::uint64_t>(e.weight));
    mix(static_cast<std::uint64_t>(e.qos));
    mix(e.t_close);
  }
  return h;
}

TEST(ScenarioGeneratorTest, GenerateMatchesGoldenDigests) {
  // Pins generate()'s draw order for every kind: the arrival process takes
  // the seed's first split and the attributes its second; each arrival
  // draws its tier, duration and profile, in that order. Recorded from the
  // implementation that built the trace from a slot-by-slot stream.
  struct Golden {
    ScenarioKind kind;
    std::uint64_t seed;
    std::size_t events;
    std::uint64_t digest;
  };
  const Golden goldens[] = {
      {ScenarioKind::kPoisson, 3, 190, 0x7F5889D96BD7C608ULL},
      {ScenarioKind::kBursty, 5, 210, 0x36AC660DE42D308FULL},
      {ScenarioKind::kDiurnal, 7, 234, 0x868D73A99EC911B5ULL},
      {ScenarioKind::kFlashCrowd, 11, 208, 0xE78D8A43D9139BFAULL},
  };
  ScenarioConfig config = base_scenario();
  config.horizon = 4'000;
  config.base_rate = 0.05;
  for (const Golden& golden : goldens) {
    config.seed = golden.seed;
    const WorkloadTrace trace = make_scenario(golden.kind, config)->generate();
    EXPECT_EQ(trace.events.size(), golden.events) << to_string(golden.kind);
    EXPECT_EQ(trace_digest(trace), golden.digest)
        << to_string(golden.kind) << " 0x" << std::hex
        << trace_digest(trace);
  }
}

TEST(ScenarioGeneratorTest, SameSeedSameTraceDifferentSeedDifferentTrace) {
  for (ScenarioKind kind :
       {ScenarioKind::kPoisson, ScenarioKind::kBursty, ScenarioKind::kDiurnal,
        ScenarioKind::kFlashCrowd}) {
    ScenarioConfig config = base_scenario();
    const WorkloadTrace a = make_scenario(kind, config)->generate();
    const WorkloadTrace b = make_scenario(kind, config)->generate();
    EXPECT_EQ(a.events, b.events) << to_string(kind);
    config.seed = 100;
    const WorkloadTrace c = make_scenario(kind, config)->generate();
    EXPECT_NE(a.events, c.events) << to_string(kind);
  }
}

TEST(ScenarioGeneratorTest, PoissonCountTracksRate) {
  ScenarioConfig config = base_scenario();
  config.horizon = 20'000;
  const WorkloadTrace trace =
      make_scenario(ScenarioKind::kPoisson, config)->generate();
  const double expected = config.base_rate * static_cast<double>(config.horizon);
  EXPECT_GT(static_cast<double>(trace.events.size()), 0.7 * expected);
  EXPECT_LT(static_cast<double>(trace.events.size()), 1.3 * expected);
  // Attributes respect their knobs.
  for (const TraceEvent& e : trace.events) {
    EXPECT_LT(e.t_arrive, config.horizon);
    EXPECT_GE(e.duration, 1U);
    EXPECT_LE(e.duration, config.max_duration);
    EXPECT_LT(e.profile, config.profile_count);
    EXPECT_EQ(e.weight, default_qos_weight(e.qos));
  }
}

TEST(ScenarioGeneratorTest, DiurnalPeakHalfOutdrawsTroughHalf) {
  ScenarioConfig config = base_scenario();
  config.horizon = 10'000;
  config.diurnal_period = 1'000;
  config.diurnal_amplitude = 0.9;
  const WorkloadTrace trace =
      make_scenario(ScenarioKind::kDiurnal, config)->generate();
  // sin > 0 on the first half of each period: that half should hold clearly
  // more arrivals than the second.
  std::size_t peak = 0, trough = 0;
  for (const TraceEvent& e : trace.events) {
    if (e.t_arrive % config.diurnal_period < config.diurnal_period / 2) {
      ++peak;
    } else {
      ++trough;
    }
  }
  EXPECT_GT(peak, trough + trough / 2);
}

TEST(ScenarioGeneratorTest, FlashCrowdConcentratesInSpikeWindow) {
  ScenarioConfig config = base_scenario();
  config.horizon = 4'000;
  config.spike_duration = 100;
  config.spike_multiplier = 25.0;
  const WorkloadTrace trace =
      make_scenario(ScenarioKind::kFlashCrowd, config)->generate();
  const std::size_t spike_start = config.resolved_spike_start();
  const std::size_t spike_end = spike_start + config.spike_duration;
  std::size_t inside = 0;
  for (const TraceEvent& e : trace.events) {
    if (e.t_arrive >= spike_start && e.t_arrive < spike_end) ++inside;
  }
  const std::size_t outside = trace.events.size() - inside;
  // 100 spike slots at 25x the base rate carry more mass than the other
  // 3,900 slots combined (expected 50 vs 78; per-slot density ~25x).
  const double inside_density = static_cast<double>(inside) / 100.0;
  const double outside_density = static_cast<double>(outside) / 3'900.0;
  EXPECT_GT(inside_density, 10.0 * outside_density);
  EXPECT_GT(inside, 20U);
}

TEST(ScenarioGeneratorTest, BurstyAlternatesBurstsAndSilencePreservingMean) {
  ScenarioConfig config = base_scenario();
  config.horizon = 20'000;
  config.base_rate = 0.05;
  config.p_on_to_off = 0.1;
  config.p_off_to_on = 0.02;  // pi_on = 1/6 -> ON rate = 0.3
  const WorkloadTrace trace =
      make_scenario(ScenarioKind::kBursty, config)->generate();
  // Mean-preserving: the bursty kind offers the same long-run volume as a
  // stationary Poisson at base_rate, just clumped.
  const double expected = config.base_rate * static_cast<double>(config.horizon);
  EXPECT_GT(static_cast<double>(trace.events.size()), 0.6 * expected);
  EXPECT_LT(static_cast<double>(trace.events.size()), 1.4 * expected);
  // ON dwell ~10 slots at rate 0.3, OFF dwell ~50 slots: the trace must show
  // at least one inter-arrival gap far longer than the ON-state spacing.
  std::size_t max_gap = 0;
  for (std::size_t i = 1; i < trace.events.size(); ++i) {
    max_gap = std::max(max_gap,
                       trace.events[i].t_arrive - trace.events[i - 1].t_arrive);
  }
  EXPECT_GT(max_gap, 40U);

  config.p_off_to_on = 0.0;  // never ON: cannot deliver base_rate
  EXPECT_THROW(make_scenario(ScenarioKind::kBursty, config)->generate(),
               std::invalid_argument);
}

TEST(ScenarioGeneratorTest, ConfigValidation) {
  ScenarioConfig config = base_scenario();
  config.horizon = 0;
  EXPECT_THROW(PoissonScenario{config}, std::invalid_argument);
  config = base_scenario();
  config.base_rate = -0.1;
  EXPECT_THROW(PoissonScenario{config}, std::invalid_argument);
  config = base_scenario();
  config.mean_duration = 0.5;
  EXPECT_THROW(PoissonScenario{config}, std::invalid_argument);
  config = base_scenario();
  config.profile_count = 0;
  EXPECT_THROW(PoissonScenario{config}, std::invalid_argument);
  config = base_scenario();
  config.best_effort_fraction = 0.8;
  config.premium_fraction = 0.3;
  EXPECT_THROW(PoissonScenario{config}, std::invalid_argument);
}

// ------------------------------------------------------------ EventLoop ----

std::vector<const FrameStatsCache*> two_profiles() {
  return {&shared_cache(), &second_cache()};
}

/// A flash-crowd replay setup: K=2 links that comfortably fit the sparse
/// base churn, overwhelmed during the spike.
struct FlashCrowdFixture {
  ScenarioConfig scenario;
  ReplayConfig replay;
  WorkloadTrace trace;
  double per_link_capacity = 0.0;

  FlashCrowdFixture() {
    scenario = base_scenario();
    scenario.horizon = 2'000;
    scenario.base_rate = 0.002;
    scenario.mean_duration = 40.0;
    scenario.max_duration = 80;
    scenario.spike_duration = 60;
    scenario.spike_multiplier = 150.0;
    scenario.seed = 7;
    trace = make_scenario(ScenarioKind::kFlashCrowd, scenario)->generate();

    replay.cluster = replay_cluster_config(2);
    replay.driver.snapshot_period = 25;
    const double load = cheapest_load(replay.cluster.serving.candidates);
    per_link_capacity = 2.5 * load;  // two cheapest-depth sessions per link
  }

  [[nodiscard]] ReplayResult run() const {
    ConstantChannel a(per_link_capacity), b(per_link_capacity);
    std::vector<ChannelModel*> channels{&a, &b};
    return replay_trace(replay, trace, two_profiles(), channels);
  }
};

TEST(EventLoopTest, FlashCrowdReplayIsSeedStable) {
  const FlashCrowdFixture fixture;
  const ReplayResult first = fixture.run();
  const ReplayResult second = fixture.run();

  // Identical snapshot series, field for field, bit for bit.
  ASSERT_FALSE(first.report.snapshots.empty());
  ASSERT_EQ(first.report.snapshots.size(), second.report.snapshots.size());
  for (std::size_t i = 0; i < first.report.snapshots.size(); ++i) {
    const MetricsSnapshot& a = first.report.snapshots[i];
    const MetricsSnapshot& b = second.report.snapshots[i];
    EXPECT_EQ(a.slot, b.slot);
    EXPECT_EQ(a.active_sessions, b.active_sessions);
    EXPECT_EQ(a.admitted_total, b.admitted_total);
    EXPECT_EQ(a.rejected_total, b.rejected_total);
    EXPECT_EQ(a.capacity_offered_total, b.capacity_offered_total);
    EXPECT_EQ(a.capacity_used_total, b.capacity_used_total);
    EXPECT_EQ(a.window_utilization, b.window_utilization);
    EXPECT_EQ(a.link_load_fairness, b.link_load_fairness);
  }
  EXPECT_EQ(first.report.slots_executed, second.report.slots_executed);
  EXPECT_EQ(first.cluster.metrics.fleet.capacity_used,
            second.cluster.metrics.fleet.capacity_used);
  EXPECT_EQ(first.cluster.metrics.fleet.quality_fairness,
            second.cluster.metrics.fleet.quality_fairness);
}

TEST(EventLoopTest, FlashCrowdRejectsOnlyDuringSpikeWindow) {
  const FlashCrowdFixture fixture;
  const ReplayResult result = fixture.run();

  // The spike overloads the cluster: some sessions are refused outright.
  EXPECT_GT(result.cluster.metrics.placement_rejects, 0U);
  // All arrivals reached the cluster (no stop event) and the books balance.
  EXPECT_EQ(result.report.arrivals_injected, fixture.trace.events.size());
  std::size_t admitted = 0, rejected = 0, arrivals = 0;
  for (const QosOutcome& tier : result.per_qos) {
    arrivals += tier.arrivals;
    admitted += tier.admitted;
    rejected += tier.rejected;
  }
  EXPECT_EQ(arrivals, fixture.trace.events.size());
  EXPECT_EQ(admitted + rejected, arrivals);
  EXPECT_EQ(rejected, result.cluster.metrics.placement_rejects);

  // Rejects are confined to the spike: a session admitted during the spike
  // can hold its link for up to max_duration slots past the window, so the
  // tolerance band is [spike_start, spike_end + max_duration). Snapshot
  // windows entirely outside that band must show zero new rejects.
  const std::size_t spike_start = fixture.scenario.resolved_spike_start();
  const std::size_t spike_end =
      spike_start + fixture.scenario.spike_duration;
  const std::size_t drain_end = spike_end + fixture.scenario.max_duration;
  std::size_t prev_rejects = 0, prev_slot = 0;
  std::size_t rejects_in_band = 0;
  for (const MetricsSnapshot& s : result.report.snapshots) {
    const std::size_t delta = s.rejected_total - prev_rejects;
    const bool window_outside_band =
        s.slot <= spike_start || prev_slot >= drain_end;
    if (window_outside_band) {
      EXPECT_EQ(delta, 0U) << "rejects in (" << prev_slot << ", " << s.slot
                           << "]";
    } else {
      rejects_in_band += delta;
    }
    prev_rejects = s.rejected_total;
    prev_slot = s.slot;
  }
  EXPECT_EQ(rejects_in_band, result.cluster.metrics.placement_rejects);
}

TEST(EventLoopTest, SkipIdleMatchesDenseExecutionOnConstantChannels) {
  // One short session deep into an otherwise idle calendar: fast-forwarding
  // the idle stretch must not change a bit of what the session experiences
  // on a constant-capacity link — only how many empty slots burned.
  WorkloadTrace trace;
  trace.events = {{400, 20, 0, 1.0, QosClass::kStandard}};

  ReplayConfig config;
  config.cluster = replay_cluster_config(2);
  config.driver.snapshot_period = 100;
  const double capacity =
      3.0 * cheapest_load(config.cluster.serving.candidates);
  const std::vector<const FrameStatsCache*> profiles{&shared_cache()};

  config.driver.skip_idle = true;
  ConstantChannel skip_channel(capacity);
  std::vector<ChannelModel*> skip_channels{&skip_channel};
  const ReplayResult skipped =
      replay_trace(config, trace, profiles, skip_channels);

  config.driver.skip_idle = false;
  ConstantChannel dense_channel(capacity);
  std::vector<ChannelModel*> dense_channels{&dense_channel};
  const ReplayResult dense =
      replay_trace(config, trace, profiles, dense_channels);

  // The idle 400 slots were skipped, not served. 21 slots execute, not 20:
  // the departure itself closes inside slot 420's begin phase, so the final
  // slot runs (empty) to retire the session.
  EXPECT_EQ(skipped.report.slots_executed, 21U);
  EXPECT_EQ(skipped.report.slots_skipped, 400U);
  EXPECT_EQ(dense.report.slots_executed, 421U);
  EXPECT_EQ(dense.report.slots_skipped, 0U);
  EXPECT_EQ(skipped.report.arrivals_injected, 1U);
  EXPECT_EQ(skipped.report.departure_markers, 1U);

  // The session's run is bit-identical either way.
  ASSERT_EQ(skipped.cluster.sessions.size(), 1U);
  ASSERT_EQ(dense.cluster.sessions.size(), 1U);
  const Trace a = skipped.cluster.sessions[0].session.trace.to_trace();
  const Trace b = dense.cluster.sessions[0].session.trace.to_trace();
  ASSERT_EQ(a.size(), 20U);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t t = 0; t < a.size(); ++t) {
    EXPECT_EQ(a.at(t).depth, b.at(t).depth);
    EXPECT_EQ(a.at(t).service, b.at(t).service);
    EXPECT_EQ(a.at(t).backlog_end, b.at(t).backlog_end);
    EXPECT_EQ(a.at(t).quality, b.at(t).quality);
  }
  EXPECT_EQ(skipped.cluster.metrics.fleet.capacity_used,
            dense.cluster.metrics.fleet.capacity_used);
  // Skipped slots offered no capacity; dense ones drew the channel each slot.
  EXPECT_LT(skipped.cluster.metrics.fleet.capacity_offered,
            dense.cluster.metrics.fleet.capacity_offered);

  // Snapshots punctuated the idle gap on schedule (slots 100, 200, ...).
  ASSERT_GE(skipped.report.snapshots.size(), 4U);
  ASSERT_GE(dense.report.snapshots.size(), 4U);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(skipped.report.snapshots[i].slot, 100 * (i + 1));
    EXPECT_EQ(skipped.report.snapshots[i].rejected_total, 0U);
    // Both runs report utilization 0 across the gap; offered_bytes is what
    // tells them apart — the skipped run's windows offered nothing (idle),
    // the dense run executed the empty slots and drew capacity each one.
    EXPECT_EQ(skipped.report.snapshots[i].window_utilization, 0.0);
    EXPECT_EQ(skipped.report.snapshots[i].window_offered_bytes, 0.0);
    EXPECT_EQ(dense.report.snapshots[i].window_utilization, 0.0);
    EXPECT_GT(dense.report.snapshots[i].window_offered_bytes, 0.0);
  }
  // And the snapshot CSV is rectangular with the documented columns.
  const CsvTable table = skipped.report.snapshot_table();
  EXPECT_EQ(table.row_count(), skipped.report.snapshots.size());
  EXPECT_EQ(table.column_count(), 9U);
}

TEST(EventLoopTest, StopEventCutsTheTailAndKeepsAccountingConsistent) {
  // Three arrivals; a stop before the third's slot. The tail session is
  // neither admitted nor rejected — placement never saw it.
  WorkloadTrace trace;
  trace.events = {{0, 50, 0, 1.0, QosClass::kStandard},
                  {10, 50, 0, 1.0, QosClass::kPremium},
                  {600, 50, 0, 1.0, QosClass::kBestEffort}};
  ReplayConfig config;
  config.cluster = replay_cluster_config(2);
  config.stop_slot = 100;
  config.driver.skip_idle = false;  // dense: exactly 100 slots execute
  const double capacity =
      3.0 * cheapest_load(config.cluster.serving.candidates);
  ConstantChannel channel(capacity);
  std::vector<ChannelModel*> channels{&channel};
  const std::vector<const FrameStatsCache*> profiles{&shared_cache()};
  const ReplayResult result = replay_trace(config, trace, profiles, channels);

  EXPECT_EQ(result.report.slots_executed, 100U);
  EXPECT_EQ(result.report.arrivals_injected, 2U);
  std::size_t arrivals = 0, admitted = 0, rejected = 0;
  for (const QosOutcome& tier : result.per_qos) {
    arrivals += tier.arrivals;
    admitted += tier.admitted;
    rejected += tier.rejected;
  }
  // The cut-off row counts nowhere: the per-tier books balance on what the
  // cluster actually saw.
  EXPECT_EQ(arrivals, 2U);
  EXPECT_EQ(admitted, 2U);
  EXPECT_EQ(rejected, 0U);
  EXPECT_EQ(result.per_qos[static_cast<std::size_t>(QosClass::kBestEffort)]
                .arrivals,
            0U);
}

TEST(EventLoopTest, DrainedOpenLoopRunIgnoresAFarStopCeiling) {
  // In idle-skip mode a stop is only a ceiling: once the churn drains, the
  // run ends instead of skipping a phantom idle tail to the stop slot (and
  // padding the snapshot series with empty windows on the way).
  WorkloadTrace trace;
  trace.events = {{0, 20, 0, 1.0, QosClass::kStandard}};
  ReplayConfig config;
  config.cluster = replay_cluster_config(2);
  config.stop_slot = 10'000;
  config.driver.snapshot_period = 100;
  const double capacity =
      3.0 * cheapest_load(config.cluster.serving.candidates);
  ConstantChannel channel(capacity);
  std::vector<ChannelModel*> channels{&channel};
  const std::vector<const FrameStatsCache*> profiles{&shared_cache()};
  const ReplayResult result = replay_trace(config, trace, profiles, channels);

  EXPECT_EQ(result.report.slots_executed, 21U);
  EXPECT_EQ(result.report.slots_skipped, 0U);
  EXPECT_TRUE(result.report.snapshots.empty());  // drained before slot 100
  EXPECT_FALSE(result.report.hit_slot_cap);
}

TEST(EventLoopTest, ReplayValidatesItsInputs) {
  const WorkloadTrace trace = sample_trace();  // uses profile ids {0, 1}
  ReplayConfig config;
  config.cluster = replay_cluster_config(2);
  ConstantChannel channel(1e6);
  std::vector<ChannelModel*> channels{&channel};

  // Profile id out of range for the supplied table.
  const std::vector<const FrameStatsCache*> one_profile{&shared_cache()};
  EXPECT_THROW(replay_trace(config, trace, one_profile, channels),
               std::invalid_argument);
  EXPECT_THROW(replay_trace(config, trace, {}, channels),
               std::invalid_argument);
  EXPECT_THROW(replay_trace(config, trace, two_profiles(), {}),
               std::invalid_argument);
  std::vector<ChannelModel*> null_channel{nullptr};
  EXPECT_THROW(replay_trace(config, trace, two_profiles(), null_channel),
               std::invalid_argument);
}

TEST(EventLoopTest, PublicSchedulingIsClosedOnceRunStarts) {
  EdgeCluster cluster(replay_cluster_config(1), {1e6});
  ConstantChannel channel(1e6);
  ClusterBackend backend(cluster, {&channel});
  EventLoop loop(DriverConfig{}, backend);
  SessionSpec spec;
  spec.cache = &shared_cache();
  loop.schedule_arrival(0, spec);
  loop.schedule_stop(10);
  loop.run();
  // The whole public scheduling surface throws after run() — including
  // departure markers, which only the loop's own source feed may push
  // mid-run.
  EXPECT_THROW(loop.schedule_arrival(20, spec), std::logic_error);
  EXPECT_THROW(loop.schedule_departure_marker(20), std::logic_error);
  EXPECT_THROW(loop.schedule_stop(20), std::logic_error);
  EXPECT_THROW(loop.run(), std::logic_error);
}

// -------------------------------------------------------- EventCalendar ----

TEST(EventCalendarTest, DrainsInSlotSeqOrderLikeAPriorityQueue) {
  Rng rng(2024);
  EventCalendar calendar;
  std::vector<CalendarEvent> reference;
  std::vector<CalendarEvent> drained;
  std::vector<CalendarEvent> due;
  std::uint64_t seq = 0;
  std::size_t now = 0;

  // Bursty pushes against an advancing clock (enough volume to force
  // several rehash growths), drained exactly the way the EventLoop drains.
  for (int round = 0; round < 300; ++round) {
    const std::size_t pushes = rng.below(8);
    for (std::size_t p = 0; p < pushes; ++p) {
      CalendarEvent event;
      event.slot = now + rng.below(40);
      event.seq = seq++;
      event.kind = static_cast<std::uint8_t>(rng.below(4));
      event.payload = p;
      calendar.push(event);
      reference.push_back(event);
    }
    now += rng.below(3);
    calendar.pop_due(now, due);
    drained.insert(drained.end(), due.begin(), due.end());
  }

  // Flush the queued tail (slots reach at most now + 39).
  calendar.pop_due(now + 64, due);
  drained.insert(drained.end(), due.begin(), due.end());
  ASSERT_TRUE(calendar.empty());

  // Far-future event after a long idle gap: min_slot must find it without
  // a year's worth of bucket probes going wrong.
  CalendarEvent far;
  far.slot = now + 1'000'000;
  far.seq = seq++;
  calendar.push(far);
  reference.push_back(far);
  EXPECT_EQ(calendar.min_slot(), far.slot);
  calendar.pop_due(far.slot, due);
  drained.insert(drained.end(), due.begin(), due.end());
  EXPECT_TRUE(calendar.empty());
  EXPECT_EQ(calendar.min_slot(), EventCalendar::kNone);

  // The contract the priority_queue gave the loop: ascending (slot, seq).
  std::sort(reference.begin(), reference.end(),
            [](const CalendarEvent& a, const CalendarEvent& b) {
              if (a.slot != b.slot) return a.slot < b.slot;
              return a.seq < b.seq;
            });
  ASSERT_EQ(drained.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(drained[i].slot, reference[i].slot) << i;
    EXPECT_EQ(drained[i].seq, reference[i].seq) << i;
  }
}

TEST(EventCalendarTest, FarFutureEventsBeyondTheBucketHorizon) {
  // Ring starts at 64 buckets; an event whole ring-revolutions past the
  // floor can only be found by the fallback full scan. Interleave near and
  // far events and make sure min_slot()/pop_due() never lose or reorder one.
  EventCalendar calendar;
  std::vector<CalendarEvent> due;
  std::uint64_t seq = 0;
  calendar.push({5, seq++, 0, 0});
  calendar.push({5 + 64 * 1000, seq++, 0, 1});     // ~1000 revolutions out
  calendar.push({5 + 64 * 500 + 3, seq++, 0, 2});  // between the two
  EXPECT_EQ(calendar.min_slot(), 5u);

  calendar.pop_due(5, due);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].payload, 0u);
  // Next minimum is half a million slots away: the day-order probe gives up
  // after one revolution and the full scan must take over.
  EXPECT_EQ(calendar.min_slot(), 5u + 64 * 500 + 3);

  calendar.pop_due(5 + 64 * 1000, due);
  ASSERT_EQ(due.size(), 2u);
  EXPECT_EQ(due[0].payload, 2u);
  EXPECT_EQ(due[1].payload, 1u);
  EXPECT_TRUE(calendar.empty());

  // A push far below the current floor must still surface first.
  calendar.push({64 * 2000, seq++, 0, 3});
  calendar.push({7, seq++, 0, 4});
  EXPECT_EQ(calendar.min_slot(), 7u);
  calendar.pop_due(64 * 2000, due);
  ASSERT_EQ(due.size(), 2u);
  EXPECT_EQ(due[0].payload, 4u);
  EXPECT_EQ(due[1].payload, 3u);
}

TEST(EventCalendarTest, SameSlotOrderingSurvivesBucketWrap) {
  // Slots s, s+64, s+128 share one bucket of the initial 64-wide ring.
  // Within every slot, drain order must stay push order — including for
  // events pushed after the clock already wrapped the ring once, which
  // appends them behind older same-bucket events of *later* slots.
  EventCalendar calendar;
  std::vector<CalendarEvent> due;
  std::uint64_t seq = 0;
  const std::size_t s = 10;
  calendar.push({s + 64, seq++, 0, 100});   // future year, pushed first
  calendar.push({s, seq++, 0, 0});
  calendar.push({s, seq++, 0, 1});
  calendar.push({s + 128, seq++, 0, 200});  // two years out, same bucket

  calendar.pop_due(s, due);
  ASSERT_EQ(due.size(), 2u);
  EXPECT_EQ(due[0].payload, 0u);
  EXPECT_EQ(due[1].payload, 1u);

  // The clock wrapped the ring: new same-slot pushes at s+64 must drain in
  // push order behind nothing (the compaction preserved relative order).
  calendar.push({s + 64, seq++, 0, 101});
  calendar.push({s + 64, seq++, 0, 102});
  calendar.pop_due(s + 64, due);
  ASSERT_EQ(due.size(), 3u);
  EXPECT_EQ(due[0].payload, 100u);
  EXPECT_EQ(due[1].payload, 101u);
  EXPECT_EQ(due[2].payload, 102u);

  calendar.pop_due(s + 128, due);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].payload, 200u);
  EXPECT_TRUE(calendar.empty());
}

TEST(EventCalendarTest, ReserveThenBurstGrowthKeepsTheOrderingContract) {
  // reserve() sizes the ring for a burst; pushing well past the reservation
  // forces mid-stream rehash growth. Ordering must survive both the
  // reserved phase and every growth rehash.
  Rng rng(7);
  EventCalendar calendar;
  calendar.reserve(128);
  std::vector<CalendarEvent> reference;
  std::uint64_t seq = 0;
  for (std::size_t i = 0; i < 3'000; ++i) {  // ~23x the reservation
    CalendarEvent event;
    event.slot = rng.below(400);
    event.seq = seq++;
    event.payload = i;
    calendar.push(event);
    reference.push_back(event);
  }
  EXPECT_EQ(calendar.size(), reference.size());
  // A late reserve() on a populated calendar is a rehash too.
  calendar.reserve(8'192);

  std::vector<CalendarEvent> drained;
  std::vector<CalendarEvent> due;
  calendar.pop_due(400, due);
  drained.insert(drained.end(), due.begin(), due.end());
  ASSERT_TRUE(calendar.empty());

  std::sort(reference.begin(), reference.end(),
            [](const CalendarEvent& a, const CalendarEvent& b) {
              if (a.slot != b.slot) return a.slot < b.slot;
              return a.seq < b.seq;
            });
  ASSERT_EQ(drained.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    ASSERT_EQ(drained[i].slot, reference[i].slot) << i;
    ASSERT_EQ(drained[i].seq, reference[i].seq) << i;
  }
}

// ------------------------------------------------ external-close events ----

TEST(EventLoopTest, ExternalCloseEndsASessionMidStreamAndCancelsPending) {
  const std::vector<int> candidates{3, 4, 5, 6};
  ServingConfig config;
  config.steps = 64;
  config.candidates = candidates;
  config.v = calibrate_streaming_v(shared_cache(), candidates,
                                   4.0 * shared_cache().workload(0).bytes(5));
  config.admission.utilization_target = 1.0;
  const double capacity = 8.0 * cheapest_load(candidates);
  ConstantChannel channel(capacity);
  ClusterConfig one_link;
  one_link.serving = config;
  EdgeCluster cluster(one_link, {capacity});

  SessionSpec spec;
  spec.cache = &shared_cache();
  cluster.submit(spec);  // id 0: closed mid-stream at slot 30
  cluster.submit(spec);  // id 1: streams to the stop
  SessionSpec late = spec;
  late.arrival_slot = 40;
  cluster.submit(late);  // id 2: cancelled (close fires before it arrives)

  DriverConfig driver;
  ClusterBackend backend(cluster, {&channel});
  EventLoop loop(driver, backend);
  loop.schedule_close(30, 0);
  loop.schedule_close(20, 2);
  loop.schedule_close(15, 99);  // unknown id: counted, not fatal
  loop.schedule_stop(60);
  const DriverReport report = loop.run();
  EXPECT_EQ(report.closes_applied, 2u);
  EXPECT_EQ(report.closes_ignored, 1u);
  EXPECT_EQ(report.slots_executed, 60u);

  const ClusterResult result = cluster.finish();
  ASSERT_EQ(result.sessions.size(), 3u);
  // Mid-stream close: departed at the close slot, trace covers [0, 30).
  EXPECT_TRUE(result.sessions[0].session.admitted);
  EXPECT_EQ(result.sessions[0].session.departure_slot, 30u);
  EXPECT_EQ(result.sessions[0].session.trace.size(), 30u);
  // Untouched: streams the whole horizon.
  EXPECT_TRUE(result.sessions[1].session.admitted);
  EXPECT_EQ(result.sessions[1].session.trace.size(), 60u);
  // Cancelled before arrival: admission never saw it.
  EXPECT_FALSE(result.sessions[2].session.admitted);
  EXPECT_TRUE(result.sessions[2].session.trace.empty());
  EXPECT_EQ(result.metrics.per_link_admission[0].attempts, 2u);
}

TEST(EventLoopTest, ExternalCloseOnAClusterClosesOnTheOwningLink) {
  ClusterConfig config = replay_cluster_config(4);
  config.serving.steps = 48;
  const double capacity =
      6.0 * cheapest_load(config.serving.candidates);
  ConstantChannel a(capacity), b(capacity);
  EdgeCluster cluster(config, {capacity, capacity});

  // Id 0 is submitted first but *arrives last* (slot 6): placement creates
  // it on its link after ids 1..4, so the link's slab holds out-of-order
  // ids — the close lookup must not assume id-sorted slabs.
  SessionSpec late;
  late.cache = &shared_cache();
  late.arrival_slot = 6;
  cluster.submit(late);  // id 0
  SessionSpec spec;
  spec.cache = &shared_cache();
  for (int i = 0; i < 4; ++i) cluster.submit(spec);  // ids 1..4

  DriverConfig driver;
  ClusterBackend backend(cluster, {&a, &b});
  EventLoop loop(driver, backend);
  loop.schedule_close(12, 4);
  loop.schedule_close(20, 0);  // the out-of-order slab entry
  loop.schedule_stop(40);
  const DriverReport report = loop.run();
  EXPECT_EQ(report.closes_applied, 2u);
  EXPECT_EQ(report.closes_ignored, 0u);

  const ClusterResult result = cluster.finish();
  ASSERT_EQ(result.sessions.size(), 5u);
  EXPECT_TRUE(result.sessions[4].session.admitted);
  EXPECT_EQ(result.sessions[4].session.departure_slot, 12u);
  EXPECT_EQ(result.sessions[4].session.trace.size(), 12u);
  EXPECT_TRUE(result.sessions[0].session.admitted);
  EXPECT_EQ(result.sessions[0].session.arrival_slot, 6u);
  EXPECT_EQ(result.sessions[0].session.departure_slot, 20u);
  EXPECT_EQ(result.sessions[0].session.trace.size(), 14u);
  for (int i = 1; i < 4; ++i) {
    EXPECT_EQ(result.sessions[i].session.trace.size(), 40u) << i;
  }
}

// ------------------------------------------------- allocation freedom ----

/// Drives six never-departing sessions through an EventLoop + EdgeCluster
/// and returns the allocations the run() performed. Called with two stop
/// horizons: every heap allocation belongs to the arrival/warm-up phase
/// (including each link's first record-arena block, which six sessions
/// never fill), so the longer steady tail must add exactly zero. Each run
/// starts with an empty record free list, so both take their blocks from
/// the heap.
std::size_t driver_run_allocations(std::size_t stop_slot) {
  StepArena::release_free_blocks();
  ClusterConfig config = replay_cluster_config(2);
  const double load = cheapest_load(config.serving.candidates);
  const double capacity = 4.0 * load;
  EdgeCluster cluster(config, {capacity, capacity});
  ConstantChannel a(capacity), b(capacity);
  ClusterBackend backend(cluster, {&a, &b});

  DriverConfig driver;  // no snapshots: pure slot-loop steady state
  EventLoop loop(driver, backend);
  loop.reserve(6);
  for (std::size_t i = 0; i < 6; ++i) {
    SessionSpec spec;
    spec.cache = &shared_cache();
    spec.arrival_slot = i * 5;
    loop.schedule_arrival(spec.arrival_slot, spec);
  }
  loop.schedule_stop(stop_slot);

  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  loop.run();
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  static_cast<void>(cluster.finish());
  return after - before;
}

TEST(DriverAllocationProbeTest, SteadyStateBetweenArrivalsIsAllocationFree) {
  const std::size_t short_run = driver_run_allocations(150);
  const std::size_t long_run = driver_run_allocations(450);
  EXPECT_EQ(short_run, long_run)
      << "the 300 extra arrival-free driver slots performed "
      << (long_run - short_run) << " heap allocations";
}

}  // namespace
}  // namespace arvis

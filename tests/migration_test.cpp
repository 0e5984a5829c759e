// Tests for live session migration & handover resilience: explicit
// mid-stream migration with hot-state transfer (the migrated session's
// decide/drain sequence is bit-identical to an un-migrated oracle twin on an
// equivalent link), the exact migration books
// (requested == completed + aborted; aborts fall back to the displaced/
// failover path, nothing stranded), the graded kLinkDegrade fault verb
// composing with capacity scales, the HandoverPolicy (enter/exit
// hysteresis, per-session ping-pong budget, rebalance-on-departure), and
// policy-idle bit-identity (an enabled-but-quiet policy changes nothing).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <functional>
#include <span>
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
#include "serving/session_manager.hpp"
#include "serving/telemetry/flight_recorder.hpp"
#include "support/decode_oracle.hpp"

namespace arvis {
namespace {

const FrameStatsCache& migration_cache() {
  static const FrameStatsCache cache(*open_test_subject(17), 8, 8);
  return cache;
}

double cheapest_load(const std::vector<int>& candidates) {
  return AdmissionController::cheapest_depth_load(migration_cache(),
                                                  candidates);
}

/// A kLinkDegrade event for EdgeCluster::apply_fault or a FaultPlan.
FaultEvent degrade(std::uint32_t link, double scale, double delay,
                   std::size_t slot = 0) {
  return {slot, FaultKind::kLinkDegrade, link, scale, delay};
}

ServingConfig base_serving() {
  ServingConfig config;
  config.steps = 200;
  config.candidates = {3, 4, 5, 6};
  config.v = calibrate_streaming_v(migration_cache(), config.candidates,
                                   4.0 * migration_cache().workload(0).bytes(5));
  config.admission.utilization_target = 1.0;
  return config;
}

SessionSpec session_spec(std::size_t arrival, std::size_t departure) {
  SessionSpec spec;
  spec.cache = &migration_cache();
  spec.arrival_slot = arrival;
  spec.departure_slot = departure;
  return spec;
}

// ------------------------------------------------ explicit migration ----

/// One session, two equivalent links. Cluster A migrates it from link 0 to
/// link 1 at slot `at`; the twin cluster leaves it alone. Hot-state transfer
/// (backlog, EWMA, frame-row cursor) must make the migrated session's
/// per-slot records from the migration onward bit-identical to the twin's.
void expect_migration_matches_twin(std::size_t at) {
  SCOPED_TRACE("migration at slot " + std::to_string(at));
  ClusterConfig config;
  config.serving = base_serving();
  const double load = cheapest_load(config.serving.candidates);
  const std::vector<double> means{4.0 * load, 4.0 * load};
  const std::vector<double> caps{4.0 * load, 4.0 * load};

  EdgeCluster migrated(config, means);
  const std::size_t id = migrated.submit(session_spec(0, 60));
  for (std::size_t t = 0; t < at; ++t) migrated.step(caps);
  ASSERT_TRUE(migrated.migrate_session(id, 1));
  for (std::size_t t = at; t < 60; ++t) migrated.step(caps);
  const ClusterResult moved = migrated.finish();

  EdgeCluster oracle(config, means);
  const std::size_t twin = oracle.submit(session_spec(0, 60));
  for (std::size_t t = 0; t < 60; ++t) oracle.step(caps);
  const ClusterResult stayed = oracle.finish();

  EXPECT_EQ(moved.metrics.migrations_requested, 1U);
  EXPECT_EQ(moved.metrics.migrations_completed, 1U);
  EXPECT_EQ(moved.metrics.migrations_aborted, 0U);
  EXPECT_EQ(moved.sessions[id].migrations, 1U);
  EXPECT_EQ(moved.sessions[id].link, 1);
  EXPECT_EQ(moved.sessions[id].failovers, 0U);

  // The reported outcome is the target-link segment: starts at the
  // migration slot, runs to the departure.
  const Trace seg = moved.sessions[id].session.trace.to_trace();
  const Trace full = stayed.sessions[twin].session.trace.to_trace();
  ASSERT_EQ(full.size(), 60U);
  ASSERT_EQ(seg.size(), 60U - at);
  ASSERT_EQ(seg.at(0).t, at);
  // The first migrated record opens with the carried backlog: exactly the
  // twin's backlog at the same slot.
  EXPECT_EQ(seg.at(0).backlog_begin, full.at(at).backlog_begin);
  for (std::size_t i = 0; i < seg.size(); ++i) {
    const StepRecord& a = seg.at(i);
    const StepRecord& b = full.at(at + i);
    EXPECT_EQ(a.t, b.t) << i;
    EXPECT_EQ(a.depth, b.depth) << i;
    EXPECT_EQ(a.arrivals, b.arrivals) << i;
    EXPECT_EQ(a.service, b.service) << i;
    EXPECT_EQ(a.backlog_begin, b.backlog_begin) << i;
    EXPECT_EQ(a.backlog_end, b.backlog_end) << i;
    EXPECT_EQ(a.quality, b.quality) << i;
  }

  // Both decode from the profile alone. The segment starts mid-table with
  // the carried (non-zero) backlog and wraps past the last frame.
  const std::size_t frames = migration_cache().frame_count();
  ASSERT_NE(at % frames, 0U);
  ASSERT_GT(seg.size(), frames);
  ASSERT_GT(full.at(at).backlog_begin, 0.0);
  const std::vector<int>& candidates = config.serving.candidates;
  EXPECT_TRUE(arvis_test::decodes_from_profile(
      full, migration_cache(), candidates, config.serving.v, 0, 0.0,
      candidates.size()));
  EXPECT_TRUE(arvis_test::decodes_from_profile(
      seg, migration_cache(), candidates, config.serving.v, at,
      full.at(at).backlog_begin, candidates.size()));
}

TEST(MigrationTest, MigratedSessionMatchesOracleTwinBitForBit) {
  expect_migration_matches_twin(20);
  // At slot 13 the source segment fills exactly one 13-step chunk, and the
  // target segment opens a fresh chunk mid-frame with the carried backlog.
  expect_migration_matches_twin(13);
}

TEST(MigrationTest, ExplicitMigrationRecordsFlightEventAndRejectsBadInput) {
  FlightRecorder recorder({256});
  ClusterConfig config;
  config.serving = base_serving();
  config.serving.telemetry.flight = &recorder;
  const double load = cheapest_load(config.serving.candidates);
  const std::vector<double> means{4.0 * load, 4.0 * load};

  EdgeCluster cluster(config, means);
  const std::size_t id = cluster.submit(session_spec(0, 80));
  for (std::size_t t = 0; t < 10; ++t) cluster.step(means);

  // Invalid inputs refuse without touching the books.
  EXPECT_FALSE(cluster.migrate_session(id, 0));   // already there
  EXPECT_FALSE(cluster.migrate_session(id, 7));   // no such link
  EXPECT_FALSE(cluster.migrate_session(99, 1));   // no such session
  ASSERT_TRUE(cluster.apply_fault({10, FaultKind::kLinkDown, 1}));
  EXPECT_FALSE(cluster.migrate_session(id, 1));   // target down
  ASSERT_TRUE(cluster.apply_fault({10, FaultKind::kLinkUp, 1}));
  EXPECT_EQ(cluster.fault_books().migrations_requested, 0U);

  ASSERT_TRUE(cluster.migrate_session(id, 1));
  EXPECT_EQ(cluster.fault_books().migrations_requested, 1U);
  EXPECT_EQ(cluster.fault_books().migrations_completed, 1U);

  // The flight ring carries the migration: a = session id, b encodes
  // reason 2 (explicit), from link 0, to link 1.
  bool saw = false;
  for (std::size_t i = 0; i < recorder.size(); ++i) {
    const FlightEvent& e = recorder.at(i);
    if (e.kind != FlightEventKind::kMigration) continue;
    saw = true;
    EXPECT_EQ(e.a, static_cast<double>(id));
    EXPECT_EQ(e.b, 2.0 * 1048576.0 + 0.0 * 1024.0 + 1.0);
  }
  EXPECT_TRUE(saw);

  for (std::size_t t = 0; t < 10; ++t) cluster.step(means);
  const ClusterResult result = cluster.finish();
  EXPECT_EQ(result.sessions[id].link, 1);
  EXPECT_EQ(result.sessions[id].migrations, 1U);
}

TEST(MigrationTest, AbortedMigrationFallsBackToDisplacedPath) {
  // Link 1 is too small to admit the session: the migration aborts, the
  // session lands on the displaced path, and the next slot re-places it on
  // link 0 under the usual exact failover books. Nothing is stranded.
  ClusterConfig config;
  config.serving = base_serving();
  config.placement = PlacementPolicy::kLeastLoaded;
  const double load = cheapest_load(config.serving.candidates);
  const std::vector<double> means{4.0 * load, 0.1 * load};
  const std::vector<double> caps{4.0 * load, 0.1 * load};

  EdgeCluster cluster(config, means);
  const std::size_t id = cluster.submit(session_spec(0, 80));
  for (std::size_t t = 0; t < 10; ++t) cluster.step(caps);
  ASSERT_EQ(cluster.link(0).active_count(), 1U);

  EXPECT_FALSE(cluster.migrate_session(id, 1));
  EXPECT_EQ(cluster.fault_books().migrations_requested, 1U);
  EXPECT_EQ(cluster.fault_books().migrations_completed, 0U);
  EXPECT_EQ(cluster.fault_books().migrations_aborted, 1U);

  for (std::size_t t = 0; t < 10; ++t) cluster.step(caps);
  const ClusterResult result = cluster.finish();
  const ClusterMetrics& m = result.metrics;
  EXPECT_EQ(m.migrations_requested, m.migrations_completed +
                                        m.migrations_aborted);
  EXPECT_EQ(m.failover_displaced, 1U);
  EXPECT_EQ(m.failover_displaced,
            m.failover_replaced + m.fault_evicted + m.fault_closed);
  EXPECT_EQ(result.sessions[id].migrations, 0U);
  EXPECT_EQ(result.sessions[id].failovers, 1U);
  EXPECT_EQ(result.sessions[id].link, 0);
  EXPECT_FALSE(result.sessions[id].fault_evicted);
}

// -------------------------------------------------- kLinkDegrade verb ----

TEST(DegradeTest, DegradeShrinksAdmissionAndComposesWithCapacityScale) {
  ClusterConfig config;
  config.serving = base_serving();
  const double load = cheapest_load(config.serving.candidates);
  const std::vector<double> means{4.0 * load};

  // A deep degrade refuses the same session nominal capacity admits.
  for (const double scale : {1.0, 0.05}) {
    EdgeCluster cluster(config, means);
    ASSERT_TRUE(cluster.apply_fault(degrade(0, scale, 2.0)));
    const std::size_t id = cluster.submit(session_spec(0, 20));
    cluster.step({means[0] * scale});
    const ClusterResult result = cluster.finish();
    EXPECT_EQ(result.sessions[id].session.admitted, scale == 1.0) << scale;
    EXPECT_EQ(result.metrics.fault_count(FaultKind::kLinkDegrade), 1U);
  }

  // Degrade composes multiplicatively with the operator capacity scale on
  // the offered-capacity plane: 0.5 x 0.5 = 0.25 of the feed, exactly.
  EdgeCluster cluster(config, means);
  const double cap = 1.0e5;
  ASSERT_TRUE(cluster.apply_fault({0, FaultKind::kCapacityScale, 0, 0.5}));
  ASSERT_TRUE(cluster.apply_fault(degrade(0, 0.5, 1.0)));
  EXPECT_EQ(cluster.link_state(0).degrade, 0.5);
  EXPECT_EQ(cluster.link_state(0).delay, 1.0);
  for (std::size_t t = 0; t < 10; ++t) cluster.step({cap});
  const ClusterResult result = cluster.finish();
  EXPECT_EQ(result.metrics.fleet.capacity_offered, cap * 0.25 * 10.0);

  // Bad inputs refuse.
  EdgeCluster fresh(config, means);
  EXPECT_FALSE(fresh.apply_fault(degrade(0, -0.5, 0.0)));
  EXPECT_FALSE(fresh.apply_fault(degrade(0, 0.5, -1.0)));
  EXPECT_FALSE(fresh.apply_fault(degrade(1, 0.5, 0.0)));  // out of range
}

TEST(DegradeTest, DriverAppliesLinkDegradeEventsAndCounts) {
  ClusterConfig config;
  config.serving = base_serving();
  const double load = cheapest_load(config.serving.candidates);
  const std::vector<double> means{4.0 * load, 4.0 * load};
  EdgeCluster cluster(config, means);
  ConstantChannel a(means[0]), b(means[1]);
  ClusterBackend backend(cluster, {&a, &b});

  DriverConfig driver;
  EventLoop loop(driver, backend);
  loop.schedule_arrival(0, session_spec(0, 60));
  FaultPlan plan;
  plan.degrade_pulse(1, 10, 8, 0.3, 2.0, 10, /*steps=*/2);
  loop.schedule_fault_plan(plan);
  const DriverReport report = loop.run();

  EXPECT_EQ(report.faults_applied, 3U);  // 2 ramp stages + recovery
  EXPECT_EQ(cluster.fault_books().fault_count(FaultKind::kLinkDegrade), 3U);
  EXPECT_EQ(report.faults_ignored, 0U);
  EXPECT_EQ(cluster.link_state(1).degrade, 1.0);  // recovered by the end
  const ClusterResult result = cluster.finish();
  EXPECT_EQ(result.metrics.fault_count(FaultKind::kLinkDegrade), 3U);
}

// ------------------------------------------------------ HandoverPolicy ----

TEST(HandoverPolicyTest, HysteresisEntersAndExitsWithABand) {
  ClusterConfig config;
  config.serving = base_serving();
  config.handover.enabled = true;
  config.handover.enter_score = 0.5;
  config.handover.exit_score = 0.2;
  config.handover.delay_weight = 0.1;
  const double load = cheapest_load(config.serving.candidates);
  const std::vector<double> means{4.0 * load, 4.0 * load};
  const std::vector<double> caps{4.0 * load, 4.0 * load};

  EdgeCluster cluster(config, means);
  // Mid-band score (0.3 + 0.05 = 0.35 < enter): never enters.
  ASSERT_TRUE(cluster.apply_fault(degrade(0, 0.7, 0.5)));
  cluster.step(caps);
  EXPECT_FALSE(cluster.handover_active(0));
  // Deep degrade (0.7 + 0.1 = 0.8 >= enter): enters.
  ASSERT_TRUE(cluster.apply_fault(degrade(0, 0.3, 1.0)));
  cluster.step(caps);
  EXPECT_TRUE(cluster.handover_active(0));
  // Back to mid-band: above exit, stays in — the hysteresis band.
  ASSERT_TRUE(cluster.apply_fault(degrade(0, 0.7, 0.5)));
  cluster.step(caps);
  EXPECT_TRUE(cluster.handover_active(0));
  // Full recovery: exits.
  ASSERT_TRUE(cluster.apply_fault(degrade(0, 1.0, 0.0)));
  cluster.step(caps);
  EXPECT_FALSE(cluster.handover_active(0));
  cluster.finish();

  // enter <= exit is rejected at construction.
  ClusterConfig bad = config;
  bad.handover.enter_score = 0.2;
  bad.handover.exit_score = 0.5;
  EXPECT_THROW(EdgeCluster(bad, means), std::invalid_argument);
}

TEST(HandoverPolicyTest, OnlyTheDegradeScaleFeedsTheHandoverScore) {
  // Why LinkState keeps two scales: an operator capacity-scale of 0.2 (a
  // brownout) must not put a link into handover, a link-degrade of 0.2 (a
  // failing radio) must. Both shrink the effective capacity alike.
  ClusterConfig config;
  config.serving = base_serving();
  config.handover.enabled = true;  // enter_score 0.5
  const double load = cheapest_load(config.serving.candidates);
  const std::vector<double> means{4.0 * load, 4.0 * load};

  EdgeCluster cluster(config, means);
  ASSERT_TRUE(cluster.apply_fault({0, FaultKind::kCapacityScale, 0, 0.2}));
  cluster.step(means);
  EXPECT_FALSE(cluster.handover_active(0));
  EXPECT_EQ(cluster.link_state(0).effective, 0.2);

  ASSERT_TRUE(cluster.apply_fault({0, FaultKind::kCapacityScale, 0, 1.0}));
  ASSERT_TRUE(cluster.apply_fault(degrade(0, 0.2, 0.0)));
  cluster.step(means);
  EXPECT_TRUE(cluster.handover_active(0));
  EXPECT_EQ(cluster.link_state(0).effective, 0.2);
}

TEST(MigrationTest, ClusterRejectsLinkCountsPastTheFlightEncoding) {
  // kMigration packs from/to link indices into 10 bits each of its b field,
  // so a cluster past 1024 links would alias them.
  ClusterConfig config;
  config.serving = base_serving();
  try {
    EdgeCluster cluster(config, std::vector<double>(1025, 1.0e5));
    FAIL() << "1025 links accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("kMigration"), std::string::npos)
        << e.what();
  }
}

TEST(HandoverPolicyTest, DegradedLinkHandsSessionsOverAndBooksBalance) {
  // Two links, three long sessions spread across them, then link 0 degrades
  // hard: the policy migrates its sessions onto link 1 mid-stream and the
  // books reconcile exactly.
  ClusterConfig config;
  config.serving = base_serving();
  config.placement = PlacementPolicy::kLeastLoaded;
  config.handover.enabled = true;
  config.handover.delay_weight = 0.1;
  const double load = cheapest_load(config.serving.candidates);
  const std::vector<double> means{8.0 * load, 8.0 * load};

  EdgeCluster cluster(config, means);
  ConstantChannel a(means[0]), b(means[1]);
  ClusterBackend backend(cluster, {&a, &b});
  DriverConfig driver;
  EventLoop loop(driver, backend);
  for (std::size_t i = 0; i < 3; ++i) {
    loop.schedule_arrival(0, session_spec(0, 120));
  }
  FaultPlan plan;
  plan.events = {degrade(0, 0.2, 3.0, /*slot=*/40),   // score 1.1: enter
                 degrade(0, 1.0, 0.0, /*slot=*/80)};  // recover: exit
  loop.schedule_fault_plan(plan);
  loop.run();

  const FaultBooks& books = cluster.fault_books();
  EXPECT_GT(books.migrations_completed, 0U);
  EXPECT_EQ(books.migrations_requested,
            books.migrations_completed + books.migrations_aborted);

  const ClusterResult result = cluster.finish();
  const ClusterMetrics& m = result.metrics;
  EXPECT_EQ(m.migrations_requested,
            m.migrations_completed + m.migrations_aborted);
  EXPECT_EQ(m.failover_displaced,
            m.failover_replaced + m.fault_evicted + m.fault_closed);
  std::size_t migration_sum = 0;
  for (const ClusterSessionOutcome& s : result.sessions) {
    migration_sum += s.migrations;
    // Every session survived the degradation: no evictions, all on link 1
    // (or still link 1 after the drain).
    EXPECT_FALSE(s.fault_evicted);
    EXPECT_TRUE(s.session.admitted);
  }
  EXPECT_EQ(migration_sum, m.migrations_completed);
}

TEST(HandoverPolicyTest, SessionBudgetSuppressesPingPong) {
  // Alternating degradation between the two links tempts the policy to
  // bounce sessions back and forth every pulse; the per-session window
  // budget caps each session's migrations.
  ClusterConfig config;
  config.serving = base_serving();
  config.placement = PlacementPolicy::kLeastLoaded;
  config.handover.enabled = true;
  config.handover.delay_weight = 0.1;
  config.handover.session_budget = 1;
  config.handover.window_slots = 1'000'000;  // one budget for the whole run
  const double load = cheapest_load(config.serving.candidates);
  const std::vector<double> means{8.0 * load, 8.0 * load};

  auto run_with_budget = [&](std::size_t budget) {
    ClusterConfig c = config;
    c.handover.session_budget = budget;
    EdgeCluster cluster(c, means);
    ConstantChannel a(means[0]), b(means[1]);
    ClusterBackend backend(cluster, {&a, &b});
    DriverConfig driver;
    EventLoop loop(driver, backend);
    for (std::size_t i = 0; i < 4; ++i) {
      loop.schedule_arrival(0, session_spec(0, 400));
    }
    // Flap the degradation between the links every 40 slots.
    for (std::size_t round = 0; round < 4; ++round) {
      const std::size_t link = round % 2;
      const std::size_t at = 40 + round * 80;
      loop.schedule_fault_plan(FaultPlan{{degrade(link, 0.2, 3.0, at)}});
      loop.schedule_fault_plan(FaultPlan{{degrade(link, 1.0, 0.0, at + 40)}});
    }
    loop.run();
    return cluster.finish();
  };

  const ClusterResult tight = run_with_budget(1);
  EXPECT_GT(tight.metrics.migrations_completed, 0U);
  for (const ClusterSessionOutcome& s : tight.sessions) {
    EXPECT_LE(s.migrations, 1U);
  }

  // A looser budget admits more total migrations than the tight one.
  const ClusterResult loose = run_with_budget(8);
  EXPECT_GE(loose.metrics.migrations_completed,
            tight.metrics.migrations_completed);
  std::uint32_t worst = 0;
  for (const ClusterSessionOutcome& s : loose.sessions) {
    worst = std::max(worst, s.migrations);
  }
  EXPECT_GT(worst, 1U) << "the flap must actually ping-pong when allowed";
}

TEST(HandoverPolicyTest, RebalanceOnDepartureFillsFreedLink) {
  // Three sessions, least-loaded placement: two land on link 0, one on
  // link 1. When link 1's session departs, rebalance-on-departure pulls the
  // worst-served session off link 0 onto the freed link.
  ClusterConfig config;
  config.serving = base_serving();
  config.placement = PlacementPolicy::kLeastLoaded;
  config.handover.enabled = true;
  config.handover.rebalance_on_departure = true;
  const double load = cheapest_load(config.serving.candidates);
  const std::vector<double> means{4.0 * load, 4.0 * load};
  const std::vector<double> caps{4.0 * load, 4.0 * load};

  EdgeCluster cluster(config, means);
  const std::size_t s0 = cluster.submit(session_spec(0, 100));
  const std::size_t s1 = cluster.submit(session_spec(0, 30));
  const std::size_t s2 = cluster.submit(session_spec(0, 100));
  for (std::size_t t = 0; t < 60; ++t) cluster.step(caps);
  const ClusterResult result = cluster.finish();

  EXPECT_EQ(result.metrics.migrations_completed, 1U);
  EXPECT_EQ(result.metrics.migrations_requested, 1U);
  // The departing session never migrated; exactly one of the survivors
  // moved onto its link.
  EXPECT_EQ(result.sessions[s1].migrations, 0U);
  EXPECT_EQ(result.sessions[s0].migrations + result.sessions[s2].migrations,
            1U);
  const int moved_link = result.sessions[s0].migrations == 1
                             ? result.sessions[s0].link
                             : result.sessions[s2].link;
  EXPECT_EQ(moved_link, result.sessions[s1].link);
}

TEST(HandoverPolicyTest, QuietPolicyIsBitIdenticalToDisabled) {
  // An enabled policy with no degradation anywhere must not perturb the run:
  // same churn, same placement, same metrics, bit for bit.
  ScenarioConfig scenario;
  scenario.horizon = 400;
  scenario.mean_duration = 80.0;
  scenario.max_duration = 200;
  scenario.base_rate = 0.5 * 4.0 / scenario.mean_duration;
  scenario.profile_count = 1;
  scenario.seed = 99;

  auto run = [&](bool enabled) {
    ReplayConfig config;
    config.cluster.serving = base_serving();
    config.cluster.placement = PlacementPolicy::kLeastLoaded;
    config.cluster.handover.enabled = enabled;
    config.driver.snapshot_period = 25;
    const double load = cheapest_load(config.cluster.serving.candidates);
    ConstantChannel a(2.4 * load), b(2.4 * load);
    std::vector<ChannelModel*> channels{&a, &b};
    const std::vector<const FrameStatsCache*> profiles{&migration_cache()};
    return replay_trace(
        config, make_scenario(ScenarioKind::kFlashCrowd, scenario)->generate(),
        profiles, channels);
  };

  const ReplayResult off = run(false);
  const ReplayResult on = run(true);
  EXPECT_EQ(on.cluster.metrics.migrations_requested, 0U);
  EXPECT_EQ(on.cluster.metrics.fleet.capacity_used,
            off.cluster.metrics.fleet.capacity_used);
  EXPECT_EQ(on.cluster.metrics.fleet.mean_quality,
            off.cluster.metrics.fleet.mean_quality);
  ASSERT_EQ(on.cluster.sessions.size(), off.cluster.sessions.size());
  for (std::size_t i = 0; i < on.cluster.sessions.size(); ++i) {
    EXPECT_EQ(on.cluster.sessions[i].link, off.cluster.sessions[i].link) << i;
    EXPECT_EQ(on.cluster.sessions[i].session.departure_slot,
              off.cluster.sessions[i].session.departure_slot)
        << i;
  }
  ASSERT_EQ(on.report.snapshots.size(), off.report.snapshots.size());
  for (std::size_t i = 0; i < on.report.snapshots.size(); ++i) {
    EXPECT_EQ(on.report.snapshots[i].capacity_used_total,
              off.report.snapshots[i].capacity_used_total)
        << i;
  }
}

TEST(HandoverPolicyTest, DrainSkipsOverBudgetHeadAndBreaksBacklogTiesById) {
  // Round-robin over two links: sessions 0-5 arrive at slot 0 (0, 2 and 4 on
  // link 0) and 6-9 at slot 7 (6 and 8 on link 0). Link 1 gets no capacity
  // in slots 3-5; at slot 6 sessions 1 and 3 migrate onto link 0 with the
  // backlogs that built up, which spends their one-migration budget. Link 0
  // degrades at slot 8 and sheds two sessions a slot, in drain order:
  // backlog descending, then runtime id. The two spent migrants (runtime ids
  // 2^32 and 2^32 + 1, equal backlogs) head the order every slot and are
  // skipped. Sessions 6 and 8 tie on their first-slot burst and go at
  // slot 8. Deficit round-robin's rotating start leaves session 2's backlog
  // a rounding step above the equal backlogs of 0 and 4, so 2 and 0 go at
  // slot 9 — in neither id nor store order — and 4 at slot 10.
  FlightRecorder recorder({1024});
  ClusterConfig config;
  config.serving = base_serving();
  config.serving.policy = SchedulerPolicy::kDeficitRoundRobin;
  config.serving.telemetry.flight = &recorder;
  config.placement = PlacementPolicy::kRoundRobin;
  config.handover.enabled = true;
  config.handover.max_migrations_per_slot = 2;
  config.handover.session_budget = 1;
  config.handover.window_slots = 1'000'000;
  const double load = cheapest_load(config.serving.candidates);
  EdgeCluster cluster(config, {16.0 * load, 16.0 * load});
  for (std::size_t i = 0; i < 10; ++i) {
    cluster.submit(session_spec(i < 6 ? 0 : 7, 100));
  }

  constexpr std::size_t kSlots = 16;
  std::vector<std::vector<std::size_t>> migrated(kSlots);
  for (std::size_t t = 0; t < kSlots; ++t) {
    std::vector<double> caps(2, 100.0 * load);
    if (t >= 3 && t < 6) caps[1] = 0.0;
    if (t == 6) {
      ASSERT_TRUE(cluster.migrate_session(1, 0));
      ASSERT_TRUE(cluster.migrate_session(3, 0));
    }
    if (t == 8) {
      ASSERT_TRUE(cluster.apply_fault(degrade(0, 0.2, 3.0, t)));
      // The order's shape: the migrants tie at the head, 6 and 8 tie
      // next, then 2 alone above the tied 0 and 4.
      const std::span<const double> live = cluster.link(0).active_backlogs();
      std::vector<double> b(live.begin(), live.end());
      std::sort(b.begin(), b.end(), std::greater<>());
      ASSERT_EQ(b.size(), 7U);
      EXPECT_EQ(b[0], b[1]);
      EXPECT_GT(b[1], b[2]);
      EXPECT_EQ(b[2], b[3]);
      EXPECT_GT(b[3], b[4]);
      EXPECT_GT(b[4], b[5]);
      EXPECT_EQ(b[5], b[6]);
    }
    const std::size_t seen = recorder.size();
    cluster.step(caps);
    for (std::size_t i = seen; i < recorder.size(); ++i) {
      const FlightEvent& e = recorder.at(i);
      // b = reason 0 (handover) · 2^20 + from link 0 · 2^10 + to link 1.
      if (e.kind == FlightEventKind::kMigration && e.b == 1.0) {
        migrated[t].push_back(static_cast<std::size_t>(e.a));
      }
    }
  }
  ASSERT_EQ(recorder.dropped(), 0U);
  // Session ids; none of these had moved before, so each is also the
  // runtime id the drain order ranked it by.
  std::vector<std::vector<std::size_t>> expected(kSlots);
  expected[8] = {6, 8};
  expected[9] = {2, 0};
  expected[10] = {4};
  EXPECT_EQ(migrated, expected);

  const ClusterResult result = cluster.finish();
  EXPECT_EQ(result.metrics.migrations_completed, 7U);
  EXPECT_EQ(result.metrics.migrations_aborted, 0U);
  EXPECT_EQ(result.sessions[1].link, 0);
  EXPECT_EQ(result.sessions[3].link, 0);
}

TEST(HandoverPolicyTest, SnapshotAdmittedCountsSessionsNotSegments) {
  // Two least-loaded links with room for four sessions each, twelve
  // arrivals, an outage of link 1 (failover re-placements onto link 0) and
  // a degradation of link 0 (handover migrations onto link 1). A
  // re-placement or a migration admits a new segment on a link, not a new
  // session: every snapshot's admitted_total is the number of sessions
  // admitted at their arrival before the snapshot's slot.
  ClusterConfig config;
  config.serving = base_serving();
  config.placement = PlacementPolicy::kLeastLoaded;
  config.handover.enabled = true;
  const double load = cheapest_load(config.serving.candidates);
  const std::vector<double> means{4.0 * load, 4.0 * load};
  EdgeCluster cluster(config, means);
  ConstantChannel a(means[0]), b(means[1]);
  ClusterBackend backend(cluster, {&a, &b});
  DriverConfig driver;
  driver.snapshot_period = 5;
  EventLoop loop(driver, backend);
  std::vector<std::size_t> arrival(12);
  for (std::size_t i = 0; i < arrival.size(); ++i) {
    arrival[i] = 2 * i;
    loop.schedule_arrival(arrival[i],
                          session_spec(arrival[i], arrival[i] + 60));
  }
  loop.schedule_fault_plan(FaultPlan{{{10, FaultKind::kLinkDown, 1},
                                      {20, FaultKind::kLinkUp, 1},
                                      degrade(0, 0.5, 3.0, 30),
                                      degrade(0, 1.0, 0.0, 50)}});
  const DriverReport report = loop.run();
  const ClusterResult result = cluster.finish();
  const ClusterMetrics& m = result.metrics;
  ASSERT_GT(m.failover_replaced, 0U);
  ASSERT_GT(m.migrations_completed, 0U);
  ASSERT_GT(m.placement_rejects, 0U);

  ASSERT_FALSE(report.snapshots.empty());
  for (const MetricsSnapshot& snapshot : report.snapshots) {
    std::size_t admitted = 0;
    for (std::size_t i = 0; i < arrival.size(); ++i) {
      admitted += arrival[i] < snapshot.slot &&
                  result.sessions[report.arrival_ids[i]].session.admitted;
    }
    EXPECT_EQ(snapshot.admitted_total, admitted) << "slot " << snapshot.slot;
  }
  EXPECT_EQ(report.snapshots.back().admitted_total, m.fleet.sessions_admitted);
}

// ------------------------------------- churn x flapping degradation ----

TEST(MigrationChurnTest, BooksReconcileUnderChurnAndFlappingDegradation) {
  // Flash-crowd churn with a mobility walk flapping graded degradation
  // across both links and the handover policy live: the full stack —
  // placement, retries, migrations, displaced fallbacks — must keep every
  // book exact, twice over (the run is deterministic).
  ReplayConfig config;
  config.cluster.serving = base_serving();
  config.cluster.placement = PlacementPolicy::kLeastLoaded;
  config.cluster.handover.enabled = true;
  config.cluster.handover.delay_weight = 0.1;
  config.driver.snapshot_period = 25;
  config.driver.retry.enabled = true;

  ScenarioConfig scenario;
  scenario.horizon = 800;
  scenario.mean_duration = 150.0;
  scenario.max_duration = 400;
  scenario.base_rate = 0.5 * 4.0 / scenario.mean_duration;
  scenario.profile_count = 1;
  scenario.seed = 42;
  scenario.spike_duration = 80;
  scenario.spike_multiplier = 8.0;

  config.faults.handover_walk(/*seed=*/0xF00D, /*link_count=*/2,
                              /*walkers=*/2, /*at=*/100, /*horizon=*/600,
                              /*dwell_slots=*/60, /*floor_scale=*/0.2,
                              /*delay=*/3.0);

  auto run = [&] {
    const double load = cheapest_load(config.cluster.serving.candidates);
    ConstantChannel a(2.4 * load), b(2.4 * load);
    std::vector<ChannelModel*> channels{&a, &b};
    const std::vector<const FrameStatsCache*> profiles{&migration_cache()};
    return replay_trace(
        config, make_scenario(ScenarioKind::kFlashCrowd, scenario)->generate(),
        profiles, channels);
  };

  const ReplayResult result = run();
  const ClusterMetrics& m = result.cluster.metrics;
  EXPECT_GT(m.fault_count(FaultKind::kLinkDegrade), 0U);
  EXPECT_GT(m.migrations_completed, 0U);
  EXPECT_EQ(m.migrations_requested,
            m.migrations_completed + m.migrations_aborted);
  EXPECT_EQ(m.failover_displaced,
            m.failover_replaced + m.fault_evicted + m.fault_closed);
  std::size_t migration_sum = 0;
  for (const ClusterSessionOutcome& s : result.cluster.sessions) {
    migration_sum += s.migrations;
  }
  EXPECT_EQ(migration_sum, m.migrations_completed);
  // Every walk event was applied, and each one counts once, in the books.
  EXPECT_EQ(result.report.faults_applied,
            m.fault_count(FaultKind::kLinkDegrade));

  // Same seed, same walk, same books — bit for bit.
  const ReplayResult again = run();
  EXPECT_EQ(again.cluster.metrics.migrations_requested,
            m.migrations_requested);
  EXPECT_EQ(again.cluster.metrics.migrations_completed,
            m.migrations_completed);
  EXPECT_EQ(again.cluster.metrics.fleet.capacity_used,
            m.fleet.capacity_used);
  ASSERT_EQ(again.cluster.sessions.size(), result.cluster.sessions.size());
  for (std::size_t i = 0; i < again.cluster.sessions.size(); ++i) {
    EXPECT_EQ(again.cluster.sessions[i].migrations,
              result.cluster.sessions[i].migrations)
        << i;
    EXPECT_EQ(again.cluster.sessions[i].link, result.cluster.sessions[i].link)
        << i;
  }
}

}  // namespace
}  // namespace arvis

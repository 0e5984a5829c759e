// Thread-stress subset (ctest -L thread; the TSan preset runs exactly these).
//
// The contracts under deliberate contention. The cluster runs each link's
// slot work (decide, schedule, drain) as one task on its executor, so every
// cluster here has four links:
//   1. Four links as parallel tasks at 2-8 threads stay bit-for-bit
//      identical to the serial run (paper: distributed per-session
//      controllers must not observe the fan-out width).
//   2. The same run with full tracing: the link tasks record spans, flight
//      events and counters concurrently, and the tracer's ring claims, the
//      span counts and the per-link counters match the serial run exactly.
//   3. TelemetryCounter::add is safe to call concurrently (relaxed atomic):
//      hammered from every worker, the sum is exact, never torn or dropped.
//   4. The executor's own machinery (claim loop, exception funnel, pool
//      reuse) survives back-to-back jobs under TSan.
//   5. Failover under parallel links: links flap while the link tasks run
//      at 2-8 threads — displaced sessions re-enter placement between
//      fan-outs without racing (TSan) and without perturbing determinism
//      (bit-identical to the serial run).
//   6. Migration under parallel links: graded degradation roams across the
//      links and the handover policy moves hot sessions between stores
//      while the link tasks run at 2-8 threads — extract/inject of hot
//      state must be race-free and leave the run bit-identical to serial.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "datasets/catalog.hpp"
#include "net/channel.hpp"
#include "net/streaming.hpp"
#include "serving/admission.hpp"
#include "serving/cluster.hpp"
#include "serving/executor.hpp"
#include "serving/session_manager.hpp"
#include "serving/telemetry/registry.hpp"
#include "serving/telemetry/tracer.hpp"

namespace arvis {
namespace {

const FrameStatsCache& stress_cache() {
  static const FrameStatsCache cache(*open_test_subject(71), 8, 8);
  return cache;
}

ServingConfig stress_config(std::size_t threads) {
  ServingConfig config;
  config.steps = 160;
  config.candidates = {3, 4, 5, 6};
  config.v = calibrate_streaming_v(stress_cache(), config.candidates,
                                   4.0 * stress_cache().workload(0).bytes(5));
  // Least-loaded placement spreads sessions by reserved load, which only
  // admission books.
  config.admission.utilization_target = 1.0;
  config.threads = threads;
  return config;
}

std::vector<SessionSpec> churny_specs(std::size_t n, std::size_t steps) {
  std::vector<SessionSpec> specs(n);
  for (std::size_t i = 0; i < n; ++i) {
    specs[i].cache = &stress_cache();
    specs[i].weight = (i % 3 == 0) ? 2.0 : 1.0;
    // Staggered arrivals/departures so lifecycle edges land mid-run (the
    // compaction paths run while the executor is in use).
    specs[i].arrival_slot = (i % 5) * 7;
    specs[i].departure_slot = (i % 4 == 0) ? steps / 2 + i : kNeverDeparts;
  }
  return specs;
}

constexpr std::size_t kStressLinks = 4;

// Four links under least-loaded placement, each sized to host a quarter of
// the fleet: admission spreads the sessions evenly, so every link is a busy
// task in each slot's fan-out.
ClusterResult run_at(std::size_t threads, std::size_t n,
                     const TelemetryConfig& telemetry = {}) {
  ClusterConfig config;
  config.serving = stress_config(threads);
  config.serving.telemetry = telemetry;
  config.placement = PlacementPolicy::kLeastLoaded;
  const double load = AdmissionController::cheapest_depth_load(
      stress_cache(), config.serving.candidates);
  const double per_link = 1.1 * load * static_cast<double>(n) /
                          static_cast<double>(kStressLinks);
  std::vector<ConstantChannel> channels(kStressLinks,
                                        ConstantChannel(per_link));
  std::vector<ChannelModel*> links;
  for (ConstantChannel& c : channels) links.push_back(&c);
  return run_cluster_scenario(
      config, churny_specs(n, config.serving.steps), links);
}

TEST(ConcurrencyStressTest, ParallelFanOutBitIdenticalAcrossThreadCounts) {
  const std::size_t n = 96;
  const ClusterResult serial = run_at(1, n);
  // Everyone is admitted and every link hosts a share of the fleet.
  for (std::size_t k = 0; k < kStressLinks; ++k) {
    EXPECT_EQ(serial.metrics.per_link_admission[k].rejected, 0U) << k;
    EXPECT_GT(serial.metrics.per_link_admission[k].accepted, 0U) << k;
  }
  for (const std::size_t threads : {2UL, 4UL, 8UL}) {
    const ClusterResult parallel = run_at(threads, n);
    ASSERT_EQ(parallel.sessions.size(), serial.sessions.size()) << threads;
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(serial.sessions[i].link, parallel.sessions[i].link)
          << "threads=" << threads << " session=" << i;
      const SessionOutcome& a = serial.sessions[i].session;
      const SessionOutcome& b = parallel.sessions[i].session;
      ASSERT_EQ(a.trace.size(), b.trace.size())
          << "threads=" << threads << " session=" << i;
      const Trace ta = a.trace.to_trace();
      const Trace tb = b.trace.to_trace();
      for (std::size_t t = 0; t < ta.size(); ++t) {
        const StepRecord& x = ta.at(t);
        const StepRecord& y = tb.at(t);
        ASSERT_EQ(x.depth, y.depth)
            << "threads=" << threads << " session=" << i << " slot=" << t;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(x.backlog_end),
                  std::bit_cast<std::uint64_t>(y.backlog_end))
            << "threads=" << threads << " session=" << i << " slot=" << t;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(x.quality),
                  std::bit_cast<std::uint64_t>(y.quality))
            << "threads=" << threads << " session=" << i << " slot=" << t;
      }
    }
    EXPECT_EQ(parallel.metrics.fleet.capacity_used,
              serial.metrics.fleet.capacity_used);
  }
}

/// What a fully traced run recorded: the tracer's totals, spans per phase,
/// each link's slot counter, and the fleet's used capacity.
struct TracedRun {
  std::uint64_t recorded = 0;
  std::uint64_t dropped = 0;
  std::array<std::uint64_t, kPhaseCount> spans{};
  std::array<std::uint64_t, kStressLinks> link_slots{};
  double capacity_used = 0.0;
};

TracedRun run_traced(std::size_t threads, std::size_t n) {
  TelemetryRegistry registry;
  PhaseTracer tracer(TracerConfig{});  // 64k spans: this run drops none
  TelemetryConfig telemetry;
  telemetry.mode = TelemetryMode::kFullTrace;
  telemetry.registry = &registry;
  telemetry.tracer = &tracer;
  const ClusterResult result = run_at(threads, n, telemetry);

  TracedRun run;
  run.recorded = tracer.recorded_total();
  run.dropped = tracer.dropped();
  for (std::size_t i = 0; i < tracer.size(); ++i) {
    ++run.spans[static_cast<std::size_t>(tracer.at(i).phase)];
  }
  for (std::size_t k = 0; k < kStressLinks; ++k) {
    const std::string name = "link" + std::to_string(k) + "/slots";
    run.link_slots[k] = registry.counter(name).value();
  }
  run.capacity_used = result.metrics.fleet.capacity_used;
  return run;
}

TEST(ConcurrencyStressTest, TracedFanOutRecordsTheSerialSpansAtAnyThreadCount) {
  const std::size_t n = 96;
  const TracedRun serial = run_traced(1, n);
  ASSERT_EQ(serial.dropped, 0U);
  ASSERT_GT(serial.spans[static_cast<std::size_t>(Phase::kDecide)], 0U);
  ASSERT_GT(serial.link_slots[kStressLinks - 1], 0U);
  for (const std::size_t threads : {2UL, 4UL, 8UL}) {
    const TracedRun parallel = run_traced(threads, n);
    EXPECT_EQ(parallel.dropped, 0U) << threads;
    EXPECT_EQ(parallel.recorded, serial.recorded) << threads;
    for (std::size_t p = 0; p < kPhaseCount; ++p) {
      EXPECT_EQ(parallel.spans[p], serial.spans[p])
          << "threads=" << threads << " phase="
          << to_string(static_cast<Phase>(p));
    }
    for (std::size_t k = 0; k < kStressLinks; ++k) {
      EXPECT_EQ(parallel.link_slots[k], serial.link_slots[k])
          << "threads=" << threads << " link=" << k;
    }
    EXPECT_EQ(parallel.capacity_used, serial.capacity_used) << threads;
  }
}

TEST(ConcurrencyStressTest, ConcurrentCounterAddsAreExact) {
  TelemetryRegistry registry;
  // Handles registered up front (the registry itself is single-threaded);
  // only add() is exercised concurrently, per the instrument contract.
  TelemetryCounter& hits = registry.counter("stress/hits");
  TelemetryCounter& bytes = registry.counter("stress/bytes");
  const std::size_t iterations = 200'000;
  for (const std::size_t threads : {2UL, 4UL, 8UL}) {
    const std::uint64_t hits_before = hits.value();
    const std::uint64_t bytes_before = bytes.value();
    ParallelExecutor executor(threads);
    executor.parallel_for(iterations, [&](std::size_t i) {
      hits.add();
      bytes.add(i % 7 + 1);
    });
    std::uint64_t expect_bytes = 0;
    for (std::size_t i = 0; i < iterations; ++i) expect_bytes += i % 7 + 1;
    EXPECT_EQ(hits.value() - hits_before, iterations) << threads;
    EXPECT_EQ(bytes.value() - bytes_before, expect_bytes) << threads;
  }
}

TEST(ConcurrencyStressTest, ExecutorSurvivesContendedReuseAndExceptions) {
  ParallelExecutor executor(8);
  std::vector<std::atomic<std::uint32_t>> hits(4096);
  for (auto& h : hits) h = 0;
  // Many small back-to-back jobs: the pool's handoff (claim counter,
  // wakeup, completion barrier) is the contended surface, not the work.
  for (int round = 0; round < 50; ++round) {
    executor.parallel_for(hits.size(),
                          [&](std::size_t i) { ++hits[i]; });
  }
  for (const auto& h : hits) EXPECT_EQ(h.load(), 50U);

  // A throwing job must drain, propagate once, and leave the pool usable.
  std::atomic<std::uint32_t> ran{0};
  EXPECT_THROW(executor.parallel_for(512,
                                     [&](std::size_t i) {
                                       ++ran;
                                       if (i % 128 == 13) {
                                         throw std::runtime_error("boom");
                                       }
                                     }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 512U);
  executor.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 51U);
}

ClusterResult run_flapping_cluster(std::size_t threads) {
  ClusterConfig config;
  config.serving = stress_config(threads);
  config.placement = PlacementPolicy::kLeastLoaded;

  const double load = AdmissionController::cheapest_depth_load(
      stress_cache(), config.serving.candidates);
  const std::vector<double> means(kStressLinks, 8.4 * load);

  EdgeCluster cluster(config, means);
  for (const SessionSpec& spec : churny_specs(48, config.serving.steps)) {
    cluster.submit(spec);
  }
  // Two links flap on different cadences, so re-placement waves land while
  // earlier waves' sessions are still streaming on their fallback links.
  for (std::size_t t = 0; t < config.serving.steps; ++t) {
    if (t == 40) cluster.apply_fault({t, FaultKind::kLinkDown, 1});
    if (t == 60) cluster.apply_fault({t, FaultKind::kLinkDown, 2});
    if (t == 80) cluster.apply_fault({t, FaultKind::kLinkUp, 1});
    if (t == 100) cluster.apply_fault({t, FaultKind::kLinkUp, 2});
    if (t == 120) cluster.apply_fault({t, FaultKind::kLinkDown, 3});
    cluster.step(means);
  }
  return cluster.finish();
}

TEST(ConcurrencyStressTest, FailoverUnderParallelDecideMatchesSerial) {
  const ClusterResult serial = run_flapping_cluster(1);
  // The flaps actually displaced sessions, and the books reconcile: every
  // displaced session was re-placed, evicted, or closed.
  ASSERT_GT(serial.metrics.failover_displaced, 0U);
  EXPECT_EQ(serial.metrics.failover_displaced,
            serial.metrics.failover_replaced + serial.metrics.fault_evicted +
                serial.metrics.fault_closed);

  for (const std::size_t threads : {2UL, 4UL, 8UL}) {
    const ClusterResult parallel = run_flapping_cluster(threads);
    EXPECT_EQ(parallel.metrics.failover_displaced,
              serial.metrics.failover_displaced)
        << threads;
    EXPECT_EQ(parallel.metrics.failover_replaced,
              serial.metrics.failover_replaced)
        << threads;
    EXPECT_EQ(parallel.metrics.fault_evicted, serial.metrics.fault_evicted)
        << threads;
    EXPECT_EQ(parallel.metrics.fault_closed, serial.metrics.fault_closed)
        << threads;
    ASSERT_EQ(parallel.sessions.size(), serial.sessions.size()) << threads;
    for (std::size_t i = 0; i < serial.sessions.size(); ++i) {
      const ClusterSessionOutcome& a = serial.sessions[i];
      const ClusterSessionOutcome& b = parallel.sessions[i];
      ASSERT_EQ(a.link, b.link) << "threads=" << threads << " session=" << i;
      ASSERT_EQ(a.failovers, b.failovers)
          << "threads=" << threads << " session=" << i;
      ASSERT_EQ(a.fault_evicted, b.fault_evicted)
          << "threads=" << threads << " session=" << i;
      ASSERT_EQ(a.session.trace.size(), b.session.trace.size())
          << "threads=" << threads << " session=" << i;
      const Trace ta = a.session.trace.to_trace();
      const Trace tb = b.session.trace.to_trace();
      for (std::size_t t = 0; t < ta.size(); ++t) {
        const StepRecord& x = ta.at(t);
        const StepRecord& y = tb.at(t);
        ASSERT_EQ(x.depth, y.depth)
            << "threads=" << threads << " session=" << i << " slot=" << t;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(x.backlog_end),
                  std::bit_cast<std::uint64_t>(y.backlog_end))
            << "threads=" << threads << " session=" << i << " slot=" << t;
      }
    }
    EXPECT_EQ(parallel.metrics.fleet.capacity_used,
              serial.metrics.fleet.capacity_used)
        << threads;
  }
}

ClusterResult run_migrating_cluster(std::size_t threads) {
  ClusterConfig config;
  config.serving = stress_config(threads);
  config.placement = PlacementPolicy::kLeastLoaded;
  config.handover.enabled = true;
  config.handover.delay_weight = 0.1;
  config.handover.rebalance_on_departure = true;

  const double load = AdmissionController::cheapest_depth_load(
      stress_cache(), config.serving.candidates);
  const std::vector<double> means(kStressLinks, 8.4 * load);

  EdgeCluster cluster(config, means);
  for (const SessionSpec& spec : churny_specs(48, config.serving.steps)) {
    cluster.submit(spec);
  }
  // Graded degradation roams across the links (with one hard flap mixed in)
  // so the handover policy migrates sessions while the decide fan-out is
  // live: the hot-state extract/inject path must not race the executor and
  // must not perturb determinism.
  for (std::size_t t = 0; t < config.serving.steps; ++t) {
    constexpr FaultKind kDegrade = FaultKind::kLinkDegrade;
    if (t == 30) cluster.apply_fault({t, kDegrade, 0, 0.2, 3.0});
    if (t == 60) cluster.apply_fault({t, kDegrade, 0, 1.0, 0.0});
    if (t == 60) cluster.apply_fault({t, kDegrade, 2, 0.15, 4.0});
    if (t == 80) cluster.apply_fault({t, FaultKind::kLinkDown, 1});
    if (t == 100) cluster.apply_fault({t, FaultKind::kLinkUp, 1});
    if (t == 110) cluster.apply_fault({t, kDegrade, 2, 1.0, 0.0});
    if (t == 120) cluster.apply_fault({t, kDegrade, 3, 0.25, 2.0});
    cluster.step(means);
  }
  return cluster.finish();
}

TEST(ConcurrencyStressTest, MigrationUnderParallelDecideMatchesSerial) {
  const ClusterResult serial = run_migrating_cluster(1);
  // The degradation actually triggered migrations, and the books are exact.
  ASSERT_GT(serial.metrics.migrations_completed, 0U);
  EXPECT_EQ(serial.metrics.migrations_requested,
            serial.metrics.migrations_completed +
                serial.metrics.migrations_aborted);
  EXPECT_EQ(serial.metrics.failover_displaced,
            serial.metrics.failover_replaced + serial.metrics.fault_evicted +
                serial.metrics.fault_closed);

  for (const std::size_t threads : {2UL, 4UL, 8UL}) {
    const ClusterResult parallel = run_migrating_cluster(threads);
    EXPECT_EQ(parallel.metrics.migrations_requested,
              serial.metrics.migrations_requested)
        << threads;
    EXPECT_EQ(parallel.metrics.migrations_completed,
              serial.metrics.migrations_completed)
        << threads;
    EXPECT_EQ(parallel.metrics.migrations_aborted,
              serial.metrics.migrations_aborted)
        << threads;
    ASSERT_EQ(parallel.sessions.size(), serial.sessions.size()) << threads;
    for (std::size_t i = 0; i < serial.sessions.size(); ++i) {
      const ClusterSessionOutcome& a = serial.sessions[i];
      const ClusterSessionOutcome& b = parallel.sessions[i];
      ASSERT_EQ(a.link, b.link) << "threads=" << threads << " session=" << i;
      ASSERT_EQ(a.migrations, b.migrations)
          << "threads=" << threads << " session=" << i;
      ASSERT_EQ(a.failovers, b.failovers)
          << "threads=" << threads << " session=" << i;
      ASSERT_EQ(a.session.trace.size(), b.session.trace.size())
          << "threads=" << threads << " session=" << i;
      const Trace ta = a.session.trace.to_trace();
      const Trace tb = b.session.trace.to_trace();
      for (std::size_t t = 0; t < ta.size(); ++t) {
        const StepRecord& x = ta.at(t);
        const StepRecord& y = tb.at(t);
        ASSERT_EQ(x.depth, y.depth)
            << "threads=" << threads << " session=" << i << " slot=" << t;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(x.backlog_end),
                  std::bit_cast<std::uint64_t>(y.backlog_end))
            << "threads=" << threads << " session=" << i << " slot=" << t;
      }
    }
    EXPECT_EQ(parallel.metrics.fleet.capacity_used,
              serial.metrics.fleet.capacity_used)
        << threads;
  }
}

}  // namespace
}  // namespace arvis

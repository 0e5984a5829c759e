// Tests for the EdgeCluster serving runtime: the K = 1 case must reproduce
// the golden digests of the single-link runtime it replaced, placement
// policies must differ where they should (least-loaded rescues skewed bursts
// round-robin strands; best-fit packs tight links first), running the links
// as parallel tasks must be bit-identical to serial, the placement and
// failover books must add up (spill ratio, failover ids, admission counts),
// and the steady-state slot loop must be allocation-free (counting global
// operator new probe).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <stdexcept>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "datasets/catalog.hpp"
#include "net/channel.hpp"
#include "net/streaming.hpp"
#include "serving/admission.hpp"
#include "serving/cluster.hpp"
#include "serving/session_manager.hpp"
#include "serving/telemetry/flight_recorder.hpp"
#include "serving/telemetry/registry.hpp"
#include "serving/telemetry/slo.hpp"
#include "support/alloc_probe.hpp"
#include "support/decode_oracle.hpp"
#include "support/run_digest.hpp"

using arvis_test::g_allocations;

namespace arvis {
namespace {

const FrameStatsCache& shared_cache() {
  static const FrameStatsCache cache(*open_test_subject(71), 8, 8);
  return cache;
}

double cheapest_load(const std::vector<int>& candidates) {
  return AdmissionController::cheapest_depth_load(shared_cache(), candidates);
}

ServingConfig base_serving_config() {
  ServingConfig config;
  config.steps = 120;
  config.candidates = {3, 4, 5, 6};
  config.v = calibrate_streaming_v(shared_cache(), config.candidates,
                                   4.0 * shared_cache().workload(0).bytes(5));
  config.admission.utilization_target = 1.0;
  return config;
}

std::vector<SessionSpec> churn_specs(std::size_t n) {
  std::vector<SessionSpec> specs(n);
  for (std::size_t i = 0; i < n; ++i) {
    specs[i].cache = &shared_cache();
    specs[i].arrival_slot = 5 * i;
    specs[i].departure_slot = (i % 3 == 0) ? 5 * i + 70 : kNeverDeparts;
    specs[i].weight = (i % 2 == 0) ? 1.0 : 2.0;
  }
  return specs;
}

void expect_traces_bit_identical(const Trace& a, const Trace& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t t = 0; t < a.size(); ++t) {
    EXPECT_EQ(a.at(t).depth, b.at(t).depth);
    EXPECT_EQ(a.at(t).arrivals, b.at(t).arrivals);
    EXPECT_EQ(a.at(t).service, b.at(t).service);
    EXPECT_EQ(a.at(t).backlog_begin, b.at(t).backlog_begin);
    EXPECT_EQ(a.at(t).backlog_end, b.at(t).backlog_end);
    EXPECT_EQ(a.at(t).quality, b.at(t).quality);
  }
}

// --------------------------------------------- K = 1 golden digests ----

// A one-link server is a K = 1 cluster. These digests were recorded from the
// standalone single-link runtime (a SessionManager that queued its own
// arrivals and stepped itself) before EdgeCluster became the only serving
// runtime; the K = 1 cluster must reproduce them bit for bit. The brownout
// run also pins the brownout order: the single-link runtime evaluated
// brownout after admitting the slot's arrivals, so a cluster that evaluates
// it before placement misses the pin.
std::uint64_t k1_golden_digest(bool brownout) {
  ClusterConfig config;
  config.serving = base_serving_config();
  config.serving.steps = 150;
  config.serving.policy = SchedulerPolicy::kProportionalFair;
  auto specs = churn_specs(9);
  if (brownout) {
    config.serving.degradation.enabled = true;
    config.serving.degradation.enter_utilization = 0.5;
    config.serving.degradation.exit_utilization = 0.3;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      specs[i].qos = static_cast<std::uint8_t>(i % kSloTiers);
    }
  }
  TelemetryRegistry registry;
  config.serving.telemetry.mode = TelemetryMode::kCounters;
  config.serving.telemetry.registry = &registry;
  const double capacity = 6.0 * shared_cache().workload(0).bytes(4);
  GilbertElliottChannel channel(capacity, 0.4, 0.1, 0.3, Rng(42));
  const ClusterResult result = run_cluster_scenario(config, specs, {&channel});

  EXPECT_EQ(result.metrics.spills, 0U);
  // The brownout run must actually cross its thresholds, or its digest
  // would pin nothing the baseline does not.
  EXPECT_EQ(registry.counter("link0/brownout_transitions").value() > 0,
            brownout);
  arvis_test::RunDigest digest;
  for (const ClusterSessionOutcome& s : result.sessions) {
    if (s.session.admitted) {
      EXPECT_EQ(s.link, 0);
    }
    digest.add(s.session);
  }
  digest.add(result.metrics.fleet);
  digest.add(result.metrics.per_link_admission[0]);
  return digest.value();
}

TEST(EdgeClusterTest, K1ReproducesSingleLinkGoldenDigests) {
  EXPECT_EQ(k1_golden_digest(false), 0x87a49c3a45ec6262ULL);
  EXPECT_EQ(k1_golden_digest(true), 0x73a10c77d4565083ULL);
}

// ----------------------------------------------------- placement policy ----

// K = 4, every link fits exactly two cheapest-depth sessions. Eight initial
// sessions fill the cluster symmetrically (round-robin and least-loaded make
// identical choices). The four sessions on links 0 and 1 then depart, and a
// burst of four arrives: round-robin's rotation walks into the still-full
// links 2 and 3 and (with one spill) strands an arrival, while least-loaded
// steers the whole burst into the freed links.
std::vector<SessionSpec> skewed_burst_specs() {
  std::vector<SessionSpec> specs(12);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].cache = &shared_cache();
  }
  // Round-robin placement of the initial eight: i -> link i % 4. The
  // departing four are exactly those placed on links 0 and 1.
  for (std::size_t i : {0U, 1U, 4U, 5U}) specs[i].departure_slot = 40;
  for (std::size_t i = 8; i < 12; ++i) specs[i].arrival_slot = 50;
  return specs;
}

ClusterResult run_skewed_burst(PlacementPolicy placement) {
  ServingConfig serving = base_serving_config();
  serving.steps = 80;
  ClusterConfig config;
  config.serving = serving;
  config.placement = placement;

  const double load = cheapest_load(serving.candidates);
  std::vector<ConstantChannel> channels(4, ConstantChannel(2.5 * load));
  std::vector<ChannelModel*> links;
  for (auto& c : channels) links.push_back(&c);
  return run_cluster_scenario(config, skewed_burst_specs(), links);
}

TEST(EdgeClusterTest, LeastLoadedAdmitsMoreThanRoundRobinUnderSkewedBursts) {
  const ClusterResult rr = run_skewed_burst(PlacementPolicy::kRoundRobin);
  const ClusterResult ll = run_skewed_burst(PlacementPolicy::kLeastLoaded);

  // Both fill the initial symmetric wave...
  EXPECT_EQ(rr.metrics.fleet.sessions_admitted, 11U);
  EXPECT_EQ(rr.metrics.placement_rejects, 1U);
  EXPECT_EQ(rr.metrics.spills, 1U);  // one burst arrival rescued by spill
  // ...but only least-loaded lands the whole burst in the freed links.
  EXPECT_EQ(ll.metrics.fleet.sessions_admitted, 12U);
  EXPECT_EQ(ll.metrics.placement_rejects, 0U);
  EXPECT_GT(ll.metrics.fleet.sessions_admitted,
            rr.metrics.fleet.sessions_admitted);
}

TEST(EdgeClusterTest, BestFitPacksTightLinksAndAvoidsSpills) {
  ServingConfig serving = base_serving_config();
  serving.steps = 40;
  const double load = cheapest_load(serving.candidates);

  std::vector<SessionSpec> specs(4);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].cache = &shared_cache();
    specs[i].arrival_slot = i;  // sequential arrivals: placement sees each
  }

  ClusterConfig config;
  config.serving = serving;
  // Best-fit never needs a spill here, so every spill limit admits all four
  // — SIZE_MAX included, which must mean "try every link", not wrap to zero
  // attempts.
  for (const std::size_t spill_limit :
       {std::size_t{0}, std::size_t{1}, std::size_t{3},
        std::numeric_limits<std::size_t>::max()}) {
    config.placement = PlacementPolicy::kBestFit;
    config.spill_limit = spill_limit;
    ConstantChannel tight(1.3 * load);
    ConstantChannel roomy(3.0 * load);
    const ClusterResult best =
        run_cluster_scenario(config, specs, {&tight, &roomy});
    // First session fits both; the tight link is the tighter fit. Every
    // later session only fits the roomy link, and best-fit never has to
    // spill.
    EXPECT_EQ(best.sessions[0].link, 0) << spill_limit;
    for (std::size_t i = 1; i < 4; ++i) {
      EXPECT_EQ(best.sessions[i].link, 1) << i << " " << spill_limit;
      EXPECT_FALSE(best.sessions[i].spilled) << i << " " << spill_limit;
    }
    EXPECT_EQ(best.metrics.spills, 0U) << spill_limit;
    EXPECT_EQ(best.metrics.placement_rejects, 0U) << spill_limit;
    EXPECT_EQ(best.metrics.fleet.sessions_admitted, 4U) << spill_limit;
  }

  // Least-loaded walks into the full tight link and needs the spill to
  // recover — same admissions, worse placement work.
  for (const std::size_t spill_limit :
       {std::size_t{1}, std::numeric_limits<std::size_t>::max()}) {
    config.placement = PlacementPolicy::kLeastLoaded;
    config.spill_limit = spill_limit;
    ConstantChannel tight(1.3 * load);
    ConstantChannel roomy(3.0 * load);
    const ClusterResult least =
        run_cluster_scenario(config, specs, {&tight, &roomy});
    EXPECT_EQ(least.metrics.fleet.sessions_admitted, 4U) << spill_limit;
    EXPECT_GT(least.metrics.spills, 0U) << spill_limit;
  }
}

// --------------------------------------------------------- determinism ----

TEST(EdgeClusterTest, ParallelDecideFanOutMatchesSerialBitForBit) {
  // Three links, so the executor's per-link tasks meet fewer (2), as many
  // (3) and more (4, 8) workers than there are tasks. Proportional-fair
  // joins work-conserving as a second scheduler, and deficit round-robin
  // carries a rotation cursor across slots.
  const auto specs = churn_specs(12);
  const double capacity = 5.0 * shared_cache().workload(0).bytes(4);

  for (const SchedulerPolicy policy : {SchedulerPolicy::kWorkConserving,
                                       SchedulerPolicy::kProportionalFair,
                                       SchedulerPolicy::kDeficitRoundRobin}) {
    auto run_with_threads = [&](std::size_t threads) {
      ClusterConfig config;
      config.serving = base_serving_config();
      config.serving.steps = 100;
      config.serving.policy = policy;
      config.serving.threads = threads;
      config.placement = PlacementPolicy::kLeastLoaded;
      GilbertElliottChannel c0(capacity, 0.5, 0.1, 0.4, Rng(7));
      GilbertElliottChannel c1(capacity, 0.5, 0.1, 0.4, Rng(8));
      GilbertElliottChannel c2(capacity, 0.5, 0.1, 0.4, Rng(9));
      std::vector<ChannelModel*> links{&c0, &c1, &c2};
      return run_cluster_scenario(config, specs, links);
    };

    const ClusterResult serial = run_with_threads(1);
    for (const std::size_t threads : {2UL, 3UL, 4UL, 8UL}) {
      SCOPED_TRACE(std::string(to_string(policy)) +
                   " threads=" + std::to_string(threads));
      const ClusterResult parallel = run_with_threads(threads);
      ASSERT_EQ(serial.sessions.size(), parallel.sessions.size());
      for (std::size_t i = 0; i < serial.sessions.size(); ++i) {
        EXPECT_EQ(serial.sessions[i].link, parallel.sessions[i].link);
        EXPECT_EQ(serial.sessions[i].spilled, parallel.sessions[i].spilled);
        expect_traces_bit_identical(
            serial.sessions[i].session.trace.to_trace(),
            parallel.sessions[i].session.trace.to_trace());
      }
      EXPECT_EQ(serial.metrics.fleet.quality_fairness,
                parallel.metrics.fleet.quality_fairness);
      EXPECT_EQ(serial.metrics.fleet.total_time_average_backlog,
                parallel.metrics.fleet.total_time_average_backlog);
      EXPECT_EQ(serial.metrics.fleet.capacity_used,
                parallel.metrics.fleet.capacity_used);
      EXPECT_EQ(serial.metrics.link_load_fairness,
                parallel.metrics.link_load_fairness);
    }
  }
}

// ------------------------------------------------------ metrics rollup ----

TEST(EdgeClusterTest, MetricsRollUpAcrossLinks) {
  const ClusterResult result = run_skewed_burst(PlacementPolicy::kLeastLoaded);
  ASSERT_EQ(result.metrics.link_count, 4U);
  ASSERT_EQ(result.metrics.per_link.size(), 4U);
  ASSERT_EQ(result.metrics.per_link_admission.size(), 4U);

  double offered = 0.0, used = 0.0;
  std::size_t placed = 0;
  for (const FleetMetrics& link : result.metrics.per_link) {
    offered += link.capacity_offered;
    used += link.capacity_used;
    placed += link.sessions_admitted;
  }
  EXPECT_DOUBLE_EQ(result.metrics.fleet.capacity_offered, offered);
  EXPECT_DOUBLE_EQ(result.metrics.fleet.capacity_used, used);
  EXPECT_EQ(result.metrics.fleet.sessions_admitted, placed);
  EXPECT_GT(result.metrics.link_load_fairness, 0.0);
  EXPECT_LE(result.metrics.link_load_fairness, 1.0 + 1e-12);

  // Report tables, built on request: one row per session / per link, link
  // column populated for placed sessions.
  const CsvTable sessions = result.session_table();
  EXPECT_EQ(sessions.row_count(), result.sessions.size());
  EXPECT_EQ(result.link_table().row_count(), 4U);
  for (std::size_t i = 0; i < result.sessions.size(); ++i) {
    if (result.sessions[i].link >= 0) {
      EXPECT_EQ(std::get<std::int64_t>(sessions.at(i, 1)),
                result.sessions[i].link);
    } else {
      EXPECT_TRUE(std::holds_alternative<std::monostate>(sessions.at(i, 1)));
    }
  }
}

TEST(EdgeClusterTest, PerLinkRollupCountsEachSessionOnceUnderFailover) {
  // Three links, round-robin, room for six sessions each. Sessions 0-5
  // arrive at slot 0 (two per link) and 6-7 at slot 17 (links 0 and 1).
  // Link 1 goes down at slot 20: sessions 1, 4 and 7 fail over, 7 after a
  // 3-slot (partial) segment. Link 1 comes back at 30; session 0 migrates
  // onto it at 40 and session 7 at 45. Session 8 streams slots 60-62 only.
  // Each session's superseded segments stay in their links' books, but the
  // per-link rollup covers only the sessions whose final segment is there,
  // so it reconciles with the fleet view.
  ClusterConfig config;
  config.serving = base_serving_config();
  config.placement = PlacementPolicy::kRoundRobin;
  const double capacity = 6.5 * cheapest_load(config.serving.candidates);
  const std::vector<double> caps(3, capacity);
  EdgeCluster cluster(config, caps);
  for (std::size_t i = 0; i < 9; ++i) {
    SessionSpec spec;
    spec.cache = &shared_cache();
    if (i >= 6) spec.arrival_slot = 17;
    if (i == 8) {
      spec.arrival_slot = 60;
      spec.departure_slot = 63;
    }
    cluster.submit(spec);
  }
  for (std::size_t t = 0; t < 80; ++t) {
    if (t == 20) {
      ASSERT_TRUE(cluster.apply_fault({t, FaultKind::kLinkDown, 1}));
    }
    if (t == 30) {
      ASSERT_TRUE(cluster.apply_fault({t, FaultKind::kLinkUp, 1}));
    }
    if (t == 40) {
      ASSERT_TRUE(cluster.migrate_session(0, 1));
    }
    if (t == 45) {
      ASSERT_TRUE(cluster.migrate_session(7, 1));
    }
    cluster.step(caps);
  }
  const ClusterResult result = cluster.finish();
  const ClusterMetrics& m = result.metrics;
  ASSERT_EQ(m.failover_displaced, 3U);
  ASSERT_EQ(m.failover_replaced, 3U);
  ASSERT_EQ(m.migrations_completed, 2U);
  EXPECT_EQ(result.sessions[0].link, 1);
  EXPECT_EQ(result.sessions[7].link, 1);
  EXPECT_EQ(result.sessions[7].failovers, 1U);
  EXPECT_EQ(m.fleet.sessions_admitted, 9U);
  EXPECT_EQ(m.fleet.partial_summary_sessions, 1U);  // session 8 only

  std::size_t admitted = 0, divergent = 0, partial = 0;
  for (const FleetMetrics& link : m.per_link) {
    admitted += link.sessions_admitted;
    divergent += link.divergent_sessions;
    partial += link.partial_summary_sessions;
  }
  EXPECT_EQ(admitted, m.fleet.sessions_admitted);
  EXPECT_EQ(divergent, m.fleet.divergent_sessions);
  EXPECT_EQ(partial, m.fleet.partial_summary_sessions);

  // Each link's mean quality is the mean over the outcomes that ended there
  // (summed in submission order here, in placement order by the link).
  for (std::size_t k = 0; k < m.per_link.size(); ++k) {
    double sum = 0.0;
    std::size_t n = 0;
    for (const ClusterSessionOutcome& s : result.sessions) {
      if (s.link != static_cast<int>(k) || !s.session.has_summary) continue;
      sum += s.session.summary.time_average_quality;
      ++n;
    }
    ASSERT_GT(n, 0U) << "link " << k;
    EXPECT_EQ(m.per_link[k].sessions_admitted, n) << "link " << k;
    EXPECT_DOUBLE_EQ(m.per_link[k].mean_quality,
                     sum / static_cast<double>(n))
        << "link " << k;
  }
}

// ----------------------------------------------- finish in arena order ----

/// What the randomized runs below put into their records, summed over runs,
/// so the differential test can show it met every case.
struct FinishCoverage {
  std::size_t records = 0;
  std::size_t failovers = 0;
  std::size_t migrations = 0;
  std::size_t closes = 0;
  std::size_t short_records = 0;       // < 8 steps: a partial summary
  std::size_t chunk_edge_records = 0;  // ends within a step of a chunk end
  std::size_t alive_at_finish = 0;
  std::size_t most_link_chunks = 0;    // current segments' chunks, one link
  std::size_t recycled_chunks = 0;     // taken from a link's free list
  std::size_t out_of_bump_order = 0;   // records whose chain leaves bump order
  std::size_t reused_slots = 0;        // records placed before a lower slot's
  std::size_t migrated_then_evicted = 0;
  std::size_t migrated_back = 0;       // migrated onto a link it streamed on
};

/// Counts, before finish(), what the links' stores hold that the arena walk
/// must get right: recycled chunks, records whose chunks do not ascend in
/// bump order, and slab positions reused out of placement order.
void count_store_coverage(const EdgeCluster& cluster,
                          FinishCoverage& coverage) {
  for (std::size_t k = 0; k < cluster.link_count(); ++k) {
    const SessionStore& store = cluster.link(k).store();
    ASSERT_TRUE(store.validate().ok()) << store.validate().to_string();
    coverage.recycled_chunks += store.arena().recycled();
    std::unordered_map<const StepChunk*, std::size_t> bump_index;
    for (const std::span<const StepChunk> block : store.arena().blocks()) {
      for (const StepChunk& chunk : block) {
        bump_index.emplace(&chunk, bump_index.size());
      }
    }
    const std::vector<std::uint32_t> order = store.placement_order();
    for (std::size_t i = 0; i < order.size(); ++i) {
      if (i > 0 && order[i] < order[i - 1]) ++coverage.reused_slots;
      const ServingSession& s = store.session(order[i]);
      std::size_t last = 0;
      for (const StepChunk* c = s.trace.head(); c != nullptr; c = c->next) {
        const std::size_t at = bump_index.at(c);
        if (c != s.trace.head() && at < last) {
          ++coverage.out_of_bump_order;
          break;
        }
        last = at;
      }
    }
  }
}

/// Replays the flight ring of a finished run: the links each session was
/// admitted on, in order, and each link's admissions in placement order as
/// (session, index into that session's links). Arrivals admit under their
/// session id; every admitted failover or migration segment takes the next
/// failover id, and the cluster records a kFailover or kMigration event
/// naming its session right after the link's kAdmit.
struct PlacementLog {
  std::vector<std::vector<std::size_t>> session_links;
  /// Per session: the links it migrated onto that it had streamed on before.
  std::vector<std::size_t> migrated_back;
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> link_admits;
};

PlacementLog replay_placements(const FlightRecorder& recorder,
                               std::size_t sessions, std::size_t links) {
  constexpr std::uint64_t kFailoverBase = std::uint64_t{1} << 32;
  PlacementLog log;
  log.session_links.resize(sessions);
  log.migrated_back.resize(sessions);
  log.link_admits.resize(links);
  std::size_t pending_link = links;  // a failover id's link, until named
  for (std::size_t i = 0; i < recorder.size(); ++i) {
    const FlightEvent& e = recorder.at(i);
    const auto a = static_cast<std::uint64_t>(e.a);
    if (e.kind == FlightEventKind::kAdmit) {
      if (a < kFailoverBase) {
        log.link_admits[e.tid].emplace_back(a, log.session_links[a].size());
        log.session_links[a].push_back(e.tid);
      } else {
        pending_link = e.tid;
      }
    } else if (e.kind == FlightEventKind::kFailover ||
               e.kind == FlightEventKind::kMigration) {
      EXPECT_LT(pending_link, links);
      std::vector<std::size_t>& path = log.session_links[a];
      if (e.kind == FlightEventKind::kMigration &&
          std::find(path.begin(), path.end(), pending_link) != path.end()) {
        ++log.migrated_back[a];
      }
      log.link_admits[pending_link].emplace_back(a, path.size());
      path.push_back(pending_link);
      pending_link = links;
    }
  }
  return log;
}

/// One seeded run of `links` links: random arrivals and lifetimes (some
/// shorter than 8 slots, some streaming until finish), link outages,
/// degrades that drive handover, explicit migrations and closes.
/// `admit_all` turns admission and outages off, so every session streams
/// until it departs or is closed. finish() summarizes each link's records
/// in arena order; every summary must equal the record's own chain-walking
/// summarize_partial() and the decoded Trace's, bit for bit, and each
/// link's session aggregates must be the fold of the sessions that ended on
/// it in the order it placed them.
void check_random_cluster_finish(std::uint64_t seed, std::size_t links,
                                 std::size_t sessions, std::size_t slots,
                                 bool admit_all, FinishCoverage& coverage) {
  SCOPED_TRACE("seed " + std::to_string(seed) + ", K = " +
               std::to_string(links));
  Rng rng(seed);
  const auto below = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.next_u64() % n);
  };
  FlightRecorder recorder(FlightRecorderConfig{std::size_t{1} << 15});
  ClusterConfig config;
  config.serving = base_serving_config();
  config.serving.admission.enabled = !admit_all;
  config.serving.threads = seed % 2 == 0 ? links : 1;
  config.serving.telemetry.flight = &recorder;
  config.placement = static_cast<PlacementPolicy>(seed % 3);
  config.handover.enabled = links > 1 && seed % 2 == 0;
  config.handover.max_migrations_per_slot = 2;
  const std::vector<double> means(
      links, 5.0 * cheapest_load(config.serving.candidates));
  EdgeCluster cluster(config, means);
  for (std::size_t i = 0; i < sessions; ++i) {
    SessionSpec spec;
    spec.cache = &shared_cache();
    spec.arrival_slot = below(slots);
    spec.weight = 1.0 + static_cast<double>(below(3));
    switch (below(4)) {
      case 0: spec.departure_slot = spec.arrival_slot + 1 + below(7); break;
      case 1: spec.departure_slot = spec.arrival_slot + 8 + below(40); break;
      case 2: spec.departure_slot = spec.arrival_slot + 40 + below(slots); break;
      default: break;  // streams until finish
    }
    cluster.submit(spec);
  }
  std::vector<std::size_t> up_at(links, kNeverDeparts);
  std::vector<double> caps(links);
  for (std::size_t t = 0; t < slots; ++t) {
    for (std::size_t k = 0; k < links; ++k) {
      if (up_at[k] != t) continue;
      const auto link = static_cast<std::uint32_t>(k);
      ASSERT_TRUE(cluster.apply_fault({t, FaultKind::kLinkUp, link}));
      up_at[k] = kNeverDeparts;
    }
    const auto link = static_cast<std::uint32_t>(below(links));
    if (!admit_all && below(40) == 0 && up_at[link] == kNeverDeparts) {
      ASSERT_TRUE(cluster.apply_fault({t, FaultKind::kLinkDown, link}));
      up_at[link] = t + 3 + below(15);
    }
    if (below(20) == 0) {
      const double scale = 0.2 + 0.8 * rng.next_double();
      const auto delay = static_cast<double>(below(6));
      cluster.apply_fault({t, FaultKind::kLinkDegrade, link, scale, delay});
    }
    if (links > 1 && below(6) == 0) {
      cluster.migrate_session(below(sessions), below(links));
    }
    if (below(8) == 0 && cluster.request_close(below(sessions))) {
      ++coverage.closes;
    }
    for (std::size_t k = 0; k < links; ++k) {
      caps[k] = means[k] * (0.5 + rng.next_double());
    }
    cluster.step(caps);
  }
  count_store_coverage(cluster, coverage);
  const ClusterResult result = cluster.finish();

  std::vector<std::size_t> link_chunks(links, 0);
  for (const ClusterSessionOutcome& s : result.sessions) {
    coverage.failovers += s.failovers;
    coverage.migrations += s.migrations;
    const SessionOutcome& o = s.session;
    // A session a link admitted keeps the segment it ended on, whatever
    // ended it.
    EXPECT_EQ(o.admitted, s.link >= 0) << "session " << o.id;
    if (!o.has_summary) {
      EXPECT_TRUE(o.trace.empty()) << "session " << o.id;
      continue;
    }
    SCOPED_TRACE("session " + std::to_string(o.id));
    EXPECT_TRUE(arvis_test::summaries_bit_equal(
        o.summary, o.trace.summarize_partial()));
    EXPECT_TRUE(arvis_test::summaries_bit_equal(
        o.summary, o.trace.to_trace().summarize_partial()));
    const std::size_t end = o.trace.first() + o.trace.size();
    ++coverage.records;
    if (o.trace.size() < 8) ++coverage.short_records;
    const std::size_t edge = end % kStepsPerChunk;
    if (edge <= 1 || edge == kStepsPerChunk - 1) ++coverage.chunk_edge_records;
    if (o.departure_slot == slots) ++coverage.alive_at_finish;
    if (s.migrations > 0 && s.fault_evicted) ++coverage.migrated_then_evicted;
    link_chunks[static_cast<std::size_t>(s.link)] += end / kStepsPerChunk + 1;
  }
  for (const std::size_t chunks : link_chunks) {
    coverage.most_link_chunks = std::max(coverage.most_link_chunks, chunks);
  }

  ASSERT_EQ(recorder.dropped(), 0U);
  const PlacementLog log = replay_placements(recorder, sessions, links);
  for (const std::size_t back : log.migrated_back) {
    coverage.migrated_back += back;
  }
  for (std::size_t k = 0; k < links; ++k) {
    SCOPED_TRACE("link " + std::to_string(k));
    ServerMetrics folded;
    for (const auto& [id, segment] : log.link_admits[k]) {
      if (segment + 1 != log.session_links[id].size()) continue;  // superseded
      const SessionOutcome& o = result.sessions[id].session;
      folded.record_session(true, true, o.has_summary ? &o.summary : nullptr);
    }
    const FleetMetrics want = folded.fleet();
    const FleetMetrics& got = result.metrics.per_link[k];
    EXPECT_EQ(got.sessions_admitted, want.sessions_admitted);
    EXPECT_EQ(got.divergent_sessions, want.divergent_sessions);
    EXPECT_EQ(got.partial_summary_sessions, want.partial_summary_sessions);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.mean_quality),
              std::bit_cast<std::uint64_t>(want.mean_quality));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.quality_fairness),
              std::bit_cast<std::uint64_t>(want.quality_fairness));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.total_time_average_backlog),
              std::bit_cast<std::uint64_t>(want.total_time_average_backlog));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.peak_backlog),
              std::bit_cast<std::uint64_t>(want.peak_backlog));
  }
}

TEST(ClusterFinishTest, ArenaOrderSummariesMatchEachRecordBitForBit) {
  FinishCoverage coverage;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    check_random_cluster_finish(seed, 1 + seed % 4, 60, 240, false, coverage);
  }
  // A link that admits everyone, so its records fill more than one arena
  // block and records cross from one block into the next.
  check_random_cluster_finish(17, 1, 500, 1500, true, coverage);
  EXPECT_GT(coverage.records, 500U);
  EXPECT_GT(coverage.failovers, 0U);
  EXPECT_GT(coverage.migrations, 0U);
  EXPECT_GT(coverage.closes, 0U);
  EXPECT_GT(coverage.short_records, 0U);
  EXPECT_GT(coverage.chunk_edge_records, 0U);
  EXPECT_GT(coverage.alive_at_finish, 0U);
  EXPECT_GT(coverage.most_link_chunks, StepArena::kChunksPerBlock);
  EXPECT_GT(coverage.recycled_chunks, 0U);
  EXPECT_GT(coverage.out_of_bump_order, 0U);
  EXPECT_GT(coverage.reused_slots, 0U);
  EXPECT_GT(coverage.migrated_then_evicted, 0U);
  EXPECT_GT(coverage.migrated_back, 0U);
}

TEST(ClusterFinishTest, LinksHoldOnlyTheSegmentsSessionsEndedOn) {
  // Three links, every slot a migration to a random link, degrades that
  // drive handover, and outages that fail sessions over. Each superseded
  // segment goes back to its link's free lists at once, so at the end every
  // chunk a link's arena ever bumped is on the chain of a segment a session
  // ended on there or on the free list, and its slab holds records only for
  // those segments.
  Rng rng(2024);
  const auto below = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.next_u64() % n);
  };
  constexpr std::size_t kLinks = 3;
  constexpr std::size_t kSessions = 90;
  constexpr std::size_t kSlots = 400;
  ClusterConfig config;
  config.serving = base_serving_config();
  config.placement = PlacementPolicy::kLeastLoaded;
  config.handover.enabled = true;
  const std::vector<double> means(
      kLinks, 40.0 * cheapest_load(config.serving.candidates));
  EdgeCluster cluster(config, means);
  for (std::size_t i = 0; i < kSessions; ++i) {
    SessionSpec spec;
    spec.cache = &shared_cache();
    spec.arrival_slot = below(kSlots / 2);
    if (i % 3 == 0) spec.departure_slot = spec.arrival_slot + 20 + below(200);
    cluster.submit(spec);
  }
  std::vector<std::size_t> up_at(kLinks, kNeverDeparts);
  for (std::size_t t = 0; t < kSlots; ++t) {
    for (std::size_t k = 0; k < kLinks; ++k) {
      if (up_at[k] != t) continue;
      const auto link = static_cast<std::uint32_t>(k);
      ASSERT_TRUE(cluster.apply_fault({t, FaultKind::kLinkUp, link}));
      up_at[k] = kNeverDeparts;
    }
    const auto link = static_cast<std::uint32_t>(below(kLinks));
    if (below(50) == 0 && up_at[link] == kNeverDeparts) {
      ASSERT_TRUE(cluster.apply_fault({t, FaultKind::kLinkDown, link}));
      up_at[link] = t + 2 + below(6);
    }
    if (below(10) == 0) {
      cluster.apply_fault({t, FaultKind::kLinkDegrade, link,
                           0.2 + 0.8 * rng.next_double(), 0.0});
    }
    cluster.migrate_session(below(kSessions), below(kLinks));
    cluster.step(means);
  }
  std::vector<std::size_t> active(kLinks);
  for (std::size_t k = 0; k < kLinks; ++k) {
    active[k] = cluster.link(k).active_count();
  }
  const ClusterResult result = cluster.finish();
  ASSERT_GT(result.metrics.migrations_completed, 200U);
  ASSERT_GT(result.metrics.failover_replaced, 10U);

  std::vector<std::size_t> final_segments(kLinks, 0);
  std::vector<std::size_t> final_chunks(kLinks, 0);
  for (const ClusterSessionOutcome& s : result.sessions) {
    if (s.link < 0) continue;
    const auto k = static_cast<std::size_t>(s.link);
    ++final_segments[k];
    const SessionTrace& trace = s.session.trace;
    final_chunks[k] += (trace.first() + trace.size()) / kStepsPerChunk + 1;
  }
  for (std::size_t k = 0; k < kLinks; ++k) {
    SCOPED_TRACE("link " + std::to_string(k));
    const SessionStore& store = cluster.link(k).store();
    EXPECT_TRUE(store.validate().ok()) << store.validate().to_string();
    const StepArena& arena = store.arena();
    EXPECT_GT(arena.recycled(), 0U);
    EXPECT_EQ(arena.bumped(), final_chunks[k] + arena.free_chunks());
    // finish() closed the sessions active at the end: they are among the
    // final segments.
    EXPECT_LE(active[k], final_segments[k]);
    EXPECT_EQ(store.session_count() - store.free_slots(), final_segments[k]);
  }
}

// --------------------------------------------------------- validation ----

TEST(EdgeClusterTest, Validation) {
  ClusterConfig config;
  config.serving = base_serving_config();
  EXPECT_THROW(EdgeCluster(config, {}), std::invalid_argument);

  EdgeCluster cluster(config, {1e6, 1e6});
  SessionSpec bad;
  EXPECT_THROW(cluster.submit(bad), std::invalid_argument);  // null cache
  EXPECT_THROW(cluster.step({1e6}), std::invalid_argument);  // K mismatch

  SessionSpec ok;
  ok.cache = &shared_cache();
  cluster.submit(ok);
  cluster.step({1e6, 1e6});
  EXPECT_EQ(cluster.active_count(), 1U);
  EXPECT_EQ(cluster.slot(), 1U);
  const ClusterResult result = cluster.finish();
  EXPECT_EQ(result.sessions.size(), 1U);
  EXPECT_THROW(cluster.step({1e6, 1e6}), std::logic_error);
  EXPECT_THROW(static_cast<void>(cluster.submit(ok)), std::logic_error);
  EXPECT_THROW(static_cast<void>(cluster.finish()), std::logic_error);

  const std::vector<ChannelModel*> none;
  EXPECT_THROW(run_cluster_scenario(config, {}, none), std::invalid_argument);
  const std::vector<ChannelModel*> null_link{nullptr};
  EXPECT_THROW(run_cluster_scenario(config, {}, null_link),
               std::invalid_argument);
}

// -------------------------------------------------- SLO quality floor ----

TEST(EdgeClusterTest, SloQualityFloorIsEachActiveSessionsLastServedQuality) {
  // accumulate_slo's per-tier quality floor is the minimum, over the
  // sessions active at the sample, of the quality each was served in the
  // previous slot. A live record is sealed only when its session retires,
  // so the runtime reads that quality from the store's hot mirrors; this
  // checks it against the decoded records of the same run finished right
  // after the sample. Tiers are mixed; session 1's frame row wraps at slot 8
  // (the cache has 8 frames); session 0 migrates from link 0 to link 1 at
  // slot 6, ahead of session 2 in link 0's active list, so the sample taken
  // right after the migration reads a compacted list.
  ClusterConfig config;
  config.serving = base_serving_config();
  config.placement = PlacementPolicy::kRoundRobin;
  const double capacity = 6.0 * cheapest_load(config.serving.candidates);
  const std::vector<double> caps{capacity, capacity};
  struct Session {
    std::size_t arrival, departure;
    std::uint8_t qos;
  };
  const Session sessions[] = {
      {0, kNeverDeparts, 2},  // link 0, then link 1 from kMigrateAt
      {0, kNeverDeparts, 0},  // link 1
      {0, 17, 1},             // link 0
      {3, kNeverDeparts, 0},  // link 1
      {5, kNeverDeparts, 1},  // link 0
      {9, 20, 2},             // link 1
  };
  constexpr std::size_t kMigrateAt = 6;
  ASSERT_EQ(shared_cache().frame_count(), 8U);

  for (const std::size_t at : {1, 5, 6, 7, 8, 9, 13, 16, 17, 21}) {
    SCOPED_TRACE("sample at slot " + std::to_string(at));
    EdgeCluster cluster(config, caps);
    for (const Session& s : sessions) {
      SessionSpec spec;
      spec.cache = &shared_cache();
      spec.arrival_slot = s.arrival;
      spec.departure_slot = s.departure;
      spec.qos = s.qos;
      cluster.submit(spec);
    }
    for (std::size_t t = 0; t < at; ++t) {
      if (t == kMigrateAt) {
        ASSERT_TRUE(cluster.migrate_session(0, 1));
      }
      cluster.step(caps);
    }
    if (at == kMigrateAt) {
      ASSERT_TRUE(cluster.migrate_session(0, 1));
    }
    SloObservation observation;
    cluster.accumulate_slo(observation);
    const ClusterResult result = cluster.finish();
    EXPECT_EQ(result.sessions[2].link, 0);
    EXPECT_EQ(result.sessions[0].link, at >= kMigrateAt ? 1 : 0);

    // The reference: every session whose record ends at slot at - 1 was
    // active at the sample and was served that record's quality.
    SloTierSample want[kSloTiers];
    for (std::size_t id = 0; id < std::size(sessions); ++id) {
      const SessionTrace& trace = result.sessions[id].session.trace;
      if (trace.empty()) continue;
      const StepRecord last = trace.to_trace().steps().back();
      if (last.t + 1 != at) continue;
      SloTierSample& tier = want[sessions[id].qos];
      if (!tier.has_quality || last.quality < tier.min_quality) {
        tier.min_quality = last.quality;
        tier.has_quality = true;
      }
    }
    for (std::size_t t = 0; t < kSloTiers; ++t) {
      EXPECT_EQ(observation.tier[t].has_quality, want[t].has_quality)
          << "tier " << t;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(observation.tier[t].min_quality),
                std::bit_cast<std::uint64_t>(want[t].min_quality))
          << "tier " << t;
    }
  }
}

// ---------------------------------------- placement and failover books ----

TEST(EdgeClusterTest, SloSpillRatioIsOneWhenEveryAdmittedArrivalSpills) {
  // Least-loaded ranks the empty link 0 first for every arrival, but link 0
  // has no room for any session, so each arrival spills to link 1, which has
  // room for all six. `placed` counts the spilled sessions too, so the spill
  // ratio is spills / (placed + rejects) = 6 / 6.
  ClusterConfig config;
  config.serving = base_serving_config();
  config.placement = PlacementPolicy::kLeastLoaded;
  const double load = cheapest_load(config.serving.candidates);
  const std::vector<double> caps{0.5 * load, 6.5 * load};
  EdgeCluster cluster(config, caps);
  for (std::size_t i = 0; i < 6; ++i) {
    SessionSpec spec;
    spec.cache = &shared_cache();
    spec.arrival_slot = i;
    cluster.submit(spec);
  }
  for (std::size_t t = 0; t < 8; ++t) cluster.step(caps);

  SloObservation observation;
  cluster.accumulate_slo(observation);
  EXPECT_EQ(observation.placed, 6U);
  EXPECT_EQ(observation.spills, 6U);
  EXPECT_EQ(observation.placement_rejects, 0U);

  SloConfig slo;
  slo.specs = {{"spill", SloMetric::kSpillRatio, 0.75, -1}};
  slo.windows = {1, 1};
  SloMonitor monitor(slo);
  const std::vector<SloTransition> t = monitor.observe(observation);
  ASSERT_EQ(t.size(), 1U);
  EXPECT_EQ(t[0].to, SloState::kBreach);
  EXPECT_EQ(t[0].fast_value, 1.0);
}

TEST(EdgeClusterTest, FailoverIdsStayConsecutiveAcrossRefusals) {
  // Two round-robin links with room for three sessions each; sessions 0-3
  // arrive at slot 0 (0 and 2 on link 0, 1 and 3 on link 1). Link 0 goes
  // down at slot 5: session 0 re-places on link 1 and session 2, finding it
  // full, is evicted. Link 0 comes back at slot 10 with its admission budget
  // scaled to 0, so migrating session 1 there aborts and session 1
  // re-places on link 1 at once; with the budget restored, session 3
  // migrates to link 0 at slot 15. Each admitted segment takes the next
  // failover id; the refused re-placement and the aborted migration take
  // none.
  FlightRecorder recorder;
  ClusterConfig config;
  config.serving = base_serving_config();
  config.serving.telemetry.flight = &recorder;
  config.placement = PlacementPolicy::kRoundRobin;
  const double capacity = 3.5 * cheapest_load(config.serving.candidates);
  const std::vector<double> caps(2, capacity);
  EdgeCluster cluster(config, caps);
  for (std::size_t i = 0; i < 4; ++i) {
    SessionSpec spec;
    spec.cache = &shared_cache();
    cluster.submit(spec);
  }
  for (std::size_t t = 0; t < 20; ++t) {
    if (t == 5) {
      ASSERT_TRUE(cluster.apply_fault({t, FaultKind::kLinkDown, 0}));
    }
    if (t == 10) {
      ASSERT_TRUE(cluster.apply_fault({t, FaultKind::kLinkUp, 0}));
      ASSERT_TRUE(cluster.apply_fault({t, FaultKind::kCapacityScale, 0, 0.0}));
      EXPECT_FALSE(cluster.migrate_session(1, 0));
    }
    if (t == 15) {
      ASSERT_TRUE(cluster.apply_fault({t, FaultKind::kCapacityScale, 0, 1.0}));
      EXPECT_TRUE(cluster.migrate_session(3, 0));
    }
    cluster.step(caps);
  }
  const ClusterResult result = cluster.finish();
  const ClusterMetrics& m = result.metrics;
  ASSERT_EQ(m.failover_displaced, 3U);  // sessions 0 and 2, aborted 1
  ASSERT_EQ(m.failover_replaced, 2U);   // sessions 0 and 1
  ASSERT_EQ(m.fault_evicted, 1U);       // session 2: the refused re-placement
  ASSERT_EQ(m.migrations_aborted, 1U);
  ASSERT_EQ(m.migrations_completed, 1U);
  EXPECT_EQ(result.sessions[0].link, 1);
  EXPECT_EQ(result.sessions[1].link, 1);
  EXPECT_EQ(result.sessions[2].link, 0);
  EXPECT_EQ(result.sessions[3].link, 0);

  // Admitted failover and migration segments, as offsets from the first
  // failover id (2^32), in admission order.
  constexpr std::uint64_t kBase = std::uint64_t{1} << 32;
  std::vector<std::uint64_t> failover_admits;
  ASSERT_EQ(recorder.dropped(), 0U);
  for (std::size_t i = 0; i < recorder.size(); ++i) {
    const FlightEvent& e = recorder.at(i);
    const auto id = static_cast<std::uint64_t>(e.a);
    if (e.kind == FlightEventKind::kAdmit && id >= kBase) {
      failover_admits.push_back(id - kBase);
    }
  }
  EXPECT_EQ(failover_admits, (std::vector<std::uint64_t>{0, 1, 2}));
}

TEST(EdgeClusterTest, AdmissionStatsSumEachLinksTierCounts) {
  // Round-robin over link 0 (room for one session) and link 1 (room for
  // four). Six sessions arrive at slot 0: session 0 lands on link 0, 1 and 3
  // on link 1, 2 and 4 spill from link 0 to link 1, and both links refuse 5.
  // Session 0 departs at slot 5, and session 1 migrates onto the freed
  // link 0 at slot 8, a second admission in its tier.
  ClusterConfig config;
  config.serving = base_serving_config();
  config.placement = PlacementPolicy::kRoundRobin;
  const double load = cheapest_load(config.serving.candidates);
  const std::vector<double> caps{1.5 * load, 4.5 * load};
  EdgeCluster cluster(config, caps);
  const std::uint8_t qos[] = {0, 2, 1, 1, 0, 2};
  for (std::size_t i = 0; i < std::size(qos); ++i) {
    SessionSpec spec;
    spec.cache = &shared_cache();
    spec.qos = qos[i];
    if (i == 0) spec.departure_slot = 5;
    cluster.submit(spec);
  }
  for (std::size_t t = 0; t < 12; ++t) {
    if (t == 8) {
      ASSERT_TRUE(cluster.migrate_session(1, 0));
    }
    cluster.step(caps);
  }
  SloObservation observation;
  cluster.accumulate_slo(observation);
  const ClusterResult result = cluster.finish();
  const ClusterMetrics& m = result.metrics;
  EXPECT_EQ(m.spills, 2U);
  EXPECT_EQ(m.placement_rejects, 1U);
  EXPECT_EQ(m.migrations_completed, 1U);

  // Link 0 admitted 0 and the migrated 1 and refused 2, 4 and 5; link 1
  // admitted 1, 2, 3 and 4 and refused 5.
  ASSERT_EQ(m.per_link_admission.size(), 2U);
  const std::size_t want_accepted[] = {2, 4};
  const std::size_t want_rejected[] = {3, 1};
  for (std::size_t k = 0; k < 2; ++k) {
    const AdmissionStats& a = m.per_link_admission[k];
    EXPECT_EQ(a.accepted, want_accepted[k]) << "link " << k;
    EXPECT_EQ(a.rejected, want_rejected[k]) << "link " << k;
    EXPECT_EQ(a.attempts, a.accepted + a.rejected) << "link " << k;
  }
  // The SLO counters count sessions, not those ten admission tests: placed
  // are best-effort 0 and 4, standard 2 and 3 (spilled or not) and premium
  // 1 (its migration admits no new session); refused is premium 5.
  const std::uint64_t tier_accepted[] = {2, 2, 1};
  const std::uint64_t tier_rejected[] = {0, 0, 1};
  for (std::size_t t = 0; t < kSloTiers; ++t) {
    EXPECT_EQ(observation.tier[t].accepted, tier_accepted[t]) << "tier " << t;
    EXPECT_EQ(observation.tier[t].rejected, tier_rejected[t]) << "tier " << t;
  }
  EXPECT_EQ(observation.total.accepted, observation.placed);
  EXPECT_EQ(observation.total.rejected, observation.placement_rejects);
  EXPECT_EQ(observation.total.accepted, 5U);
  EXPECT_EQ(observation.total.rejected, 1U);
}

TEST(EdgeClusterTest, SloAcceptRatioCountsSessionsNotAdmissionTests) {
  // Round-robin over link 0 (room for one session) and link 1 (room for
  // four). Sessions 0-2 arrive at slot 0: 0 lands on link 0, 1 on link 1,
  // and 2 is refused by the full link 0 and spills to link 1. Every arrival
  // was placed, so the accept ratio is 3 / 3, though the links ran four
  // admission tests and refused one (3 / 4), and the spilled tier reads
  // 1 / 1 where its tests read 1 / 2.
  ClusterConfig config;
  config.serving = base_serving_config();
  config.placement = PlacementPolicy::kRoundRobin;
  const double load = cheapest_load(config.serving.candidates);
  const std::vector<double> caps{1.5 * load, 4.5 * load};
  EdgeCluster cluster(config, caps);
  for (std::uint8_t qos = 0; qos < 3; ++qos) {
    SessionSpec spec;
    spec.cache = &shared_cache();
    spec.qos = qos;
    cluster.submit(spec);
  }
  cluster.step(caps);
  ASSERT_EQ(cluster.placed(), 3U);

  SloObservation observation;
  cluster.accumulate_slo(observation);
  EXPECT_EQ(observation.spills, 1U);
  SloConfig slo;
  slo.specs = {{"accept", SloMetric::kAcceptRatio, 0.9, -1},
               {"accept-spilled-tier", SloMetric::kAcceptRatio, 0.9, 2},
               {"reject", SloMetric::kRejectRatio, 0.1, -1}};
  slo.windows = {1, 1};
  SloMonitor monitor(slo);
  EXPECT_TRUE(monitor.observe(observation).empty());
  for (std::size_t spec = 0; spec < slo.specs.size(); ++spec) {
    EXPECT_EQ(monitor.state(spec), SloState::kOk) << slo.specs[spec].name;
  }
  EXPECT_EQ(observation.total.accepted, 3U);
  EXPECT_EQ(observation.total.rejected, 0U);
  EXPECT_EQ(observation.tier[2].accepted, 1U);
  EXPECT_EQ(observation.tier[2].rejected, 0U);
  // The per-link ledger still counts every admission test.
  const AdmissionStats l0 = cluster.link(0).admission_stats();
  EXPECT_EQ(l0.accepted, 1U);
  EXPECT_EQ(l0.rejected, 1U);
}

// ------------------------------------------------- allocation freedom ----

TEST(AllocationProbeTest, SingleLinkSteadyStateStepIsAllocationFree) {
  ClusterConfig config;
  config.serving = base_serving_config();
  config.serving.steps = 120;
  config.serving.policy = SchedulerPolicy::kWorkConserving;
  config.serving.threads = 1;
  const double capacity = 6.0 * shared_cache().workload(0).bytes(4);
  EdgeCluster cluster(config, {capacity});
  for (std::size_t i = 0; i < 6; ++i) {
    SessionSpec spec;
    spec.cache = &shared_cache();
    cluster.submit(spec);
  }
  // Warm-up: admissions, the record arena's first block (six sessions never
  // fill it), scheduler scratch growth.
  const std::vector<double> caps{capacity};
  for (int t = 0; t < 30; ++t) cluster.step(caps);

  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (int t = 0; t < 60; ++t) cluster.step(caps);
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0U)
      << "steady-state slot loop performed " << (after - before)
      << " heap allocations over 60 slots";
  static_cast<void>(cluster.finish());
}

TEST(AllocationProbeTest, ClusterSteadyStateStepIsAllocationFree) {
  ClusterConfig config;
  config.serving = base_serving_config();
  config.serving.steps = 120;
  config.serving.threads = 1;
  const double capacity = 4.0 * shared_cache().workload(0).bytes(4);
  EdgeCluster cluster(config, {capacity, capacity});
  for (std::size_t i = 0; i < 6; ++i) {
    SessionSpec spec;
    spec.cache = &shared_cache();
    cluster.submit(spec);
  }
  std::vector<double> caps{capacity, capacity};
  for (int t = 0; t < 30; ++t) cluster.step(caps);

  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (int t = 0; t < 60; ++t) cluster.step(caps);
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0U)
      << "steady-state cluster loop performed " << (after - before)
      << " heap allocations over 60 slots";
  static_cast<void>(cluster.finish());
}

TEST(AllocationProbeTest, AdmissionTestAllocatesNothing) {
  // Room for one session's cheapest-depth load: the first test admits, the
  // second rejects. Neither touches the heap (a reject logs at info, which
  // would format a message, so the level is pinned to warn).
  const std::vector<int> candidates{3, 4, 5, 6};
  const double load = cheapest_load(candidates);
  AdmissionConfig config;
  config.utilization_target = 1.0;
  AdmissionController admission(config, 1.5 * load);
  const LogLevel level = log_level();
  set_log_level(LogLevel::kWarn);

  std::size_t before = g_allocations.load(std::memory_order_relaxed);
  const AdmissionDecision admit =
      admission.try_admit(shared_cache(), candidates);
  const std::size_t admit_allocations =
      g_allocations.load(std::memory_order_relaxed) - before;
  before = g_allocations.load(std::memory_order_relaxed);
  const AdmissionDecision reject =
      admission.try_admit(shared_cache(), candidates);
  const std::size_t reject_allocations =
      g_allocations.load(std::memory_order_relaxed) - before;
  set_log_level(level);

  EXPECT_TRUE(admit.admitted);
  EXPECT_FALSE(reject.admitted);
  EXPECT_EQ(admit_allocations, 0U);
  EXPECT_EQ(reject_allocations, 0U);
}

TEST(AllocationProbeTest, RecordArenaAllocatesOnlyWholeBlocks) {
  // Drain records every session·slot into its link's chunk arena: a session
  // takes a head chunk at activation, writing from a head offset the store
  // rotates per activation (0, 1, ..., 12, 0, ...), and one more chunk each
  // time its chain position reaches a multiple of 13; the arena takes a
  // block of chunks when its current block runs out. A window's allocations
  // are therefore at most the blocks the fleet's chunk count crossed in it —
  // nothing per session, per chunk or per slot — and exactly those blocks
  // when the free list of destroyed arenas' blocks is empty. 1000 sessions
  // streaming from slot 0 cross the first block boundary during slot 93.
  constexpr std::size_t kSessions = 1000;
  constexpr std::size_t kWarmup = 30;
  constexpr std::size_t kSlots = 120;
  ClusterConfig config;
  config.serving = base_serving_config();
  config.serving.steps = kSlots;
  config.serving.policy = SchedulerPolicy::kWorkConserving;
  config.serving.admission.enabled = false;
  config.serving.threads = 1;
  const double capacity =
      static_cast<double>(kSessions) * shared_cache().workload(0).bytes(4);
  // Heap allocations of slots kWarmup..kSlots of one run.
  const auto window_allocations = [&] {
    EdgeCluster cluster(config, {capacity});
    for (std::size_t i = 0; i < kSessions; ++i) {
      SessionSpec spec;
      spec.cache = &shared_cache();
      cluster.submit(spec);
    }
    // Warm-up: admissions, the arena's first block, scheduler scratch.
    const std::vector<double> caps{capacity};
    for (std::size_t t = 0; t < kWarmup; ++t) cluster.step(caps);
    const std::size_t before = g_allocations.load(std::memory_order_relaxed);
    for (std::size_t t = kWarmup; t < kSlots; ++t) cluster.step(caps);
    const std::size_t after = g_allocations.load(std::memory_order_relaxed);
    static_cast<void>(cluster.finish());
    return after - before;
  };
  // Arena blocks in use once every session has drained `slots` slots.
  const auto blocks_after = [](std::size_t slots) {
    std::size_t chunks = 0;
    for (std::size_t s = 0; s < kSessions; ++s) {
      chunks += 1 + (s % kStepsPerChunk + slots) / kStepsPerChunk;
    }
    return (chunks + StepArena::kChunksPerBlock - 1) /
           StepArena::kChunksPerBlock;
  };
  const std::size_t blocks = blocks_after(kSlots) - blocks_after(kWarmup);
  ASSERT_GT(blocks, 0U) << "the window must cross a block boundary";

  // Earlier runs in this process left blocks on the free list; start empty.
  StepArena::release_free_blocks();
  EXPECT_EQ(window_allocations(), blocks)
      << "slots " << kWarmup << ".." << kSlots << " of " << kSessions
      << " sessions: the arena grew by " << blocks << " block(s)";
  // The same run again takes every block back from the free list.
  EXPECT_EQ(window_allocations(), 0U);
  EXPECT_EQ(StepArena::release_free_blocks(), blocks_after(kSlots));
}

}  // namespace
}  // namespace arvis

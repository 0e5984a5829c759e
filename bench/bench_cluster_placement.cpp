// Cluster placement sweep: K links × placement policy × session count, under
// skewed arrival bursts with skewed departures — the regime where placement
// quality shows. Half the fleet arrives at slot 0 and fills the links
// symmetrically; the sessions on the lower half of the links then depart,
// and the other half of the fleet arrives as one burst. Round-robin's
// rotation walks the burst into the still-full upper links (one spill each
// is all the rescue it gets), least-loaded steers it into the freed links,
// best-fit packs by residual capacity. Reports admissions, spills, cross-link
// load fairness, utilization and wall time per configuration.
//
// Build & run:  ./build/bench/bench_cluster_placement [--smoke | --json]
//
// --smoke runs one small configuration plus two hard invariant checks
// (links as parallel tasks == serial bit-for-bit; least-loaded admits more
// than round-robin on the skewed burst) and exits non-zero on violation —
// cheap enough for CI, so the placement sweep cannot silently rot.
// --json additionally writes BENCH_cluster_placement.json (wall time per
// sweep point) — the bench's perf-trajectory record.
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
#include "serving/cluster.hpp"

namespace {

const arvis::FrameStatsCache& cluster_cache() {
  static const arvis::FrameStatsCache cache(*arvis::open_test_subject(17), 8,
                                            16);
  return cache;
}

struct SweepPoint {
  std::size_t links = 4;
  arvis::PlacementPolicy placement = arvis::PlacementPolicy::kRoundRobin;
  /// Sessions each link can hold (sizes both the wave and the capacity).
  std::size_t sessions_per_link = 2;
  std::size_t steps = 200;
  std::size_t threads = 1;

  /// Wave filling every link, then a burst sized to the capacity the skewed
  /// departures free — the regime where misplacement costs admissions.
  [[nodiscard]] std::size_t wave() const { return sessions_per_link * links; }
  [[nodiscard]] std::size_t burst() const { return wave() / 2; }
  [[nodiscard]] std::size_t total_sessions() const {
    return wave() + burst();
  }
};

/// Skewed churn: a wave at slot 0 fills the cluster symmetrically (both
/// round-robin and least-loaded place it as i -> link i mod K), the wave
/// sessions on the lower half of the links depart mid-run, and a burst
/// exactly matching the freed capacity arrives at 5/8 of the horizon.
/// Round-robin's rotation sends half the burst at the still-full upper
/// links, and one spill each cannot rescue all of them.
std::vector<arvis::SessionSpec> skewed_specs(const SweepPoint& point) {
  using namespace arvis;
  std::vector<SessionSpec> specs(point.total_sessions());
  const std::size_t wave = point.wave();
  const std::size_t lower_links = point.links > 1 ? point.links / 2 : 1;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].cache = &cluster_cache();
    if (i < wave) {
      if (i % point.links < lower_links) {
        specs[i].departure_slot = point.steps / 2;
      }
    } else {
      specs[i].arrival_slot = point.steps * 5 / 8;
    }
  }
  return specs;
}

arvis::ClusterResult run_point(const SweepPoint& point, double& wall_ms) {
  using namespace arvis;
  ServingConfig serving;
  serving.steps = point.steps;
  serving.candidates = {3, 4, 5, 6};
  serving.v = calibrate_streaming_v(cluster_cache(), serving.candidates,
                                    4.0 * cluster_cache().workload(0).bytes(5));
  serving.policy = SchedulerPolicy::kWorkConserving;
  serving.threads = point.threads;
  serving.admission.utilization_target = 1.0;

  ClusterConfig config;
  config.serving = serving;
  config.placement = point.placement;

  // Each link fits the initial wave's per-link share, with 0.4 sessions of
  // headroom — full enough that misplacing the burst costs admissions.
  const double load = AdmissionController::cheapest_depth_load(
      cluster_cache(), serving.candidates);
  const double per_link =
      (static_cast<double>(point.sessions_per_link) + 0.4) * load;
  std::vector<ConstantChannel> channels(point.links, ConstantChannel(per_link));
  std::vector<ChannelModel*> links;
  links.reserve(channels.size());
  for (auto& c : channels) links.push_back(&c);

  const auto start = std::chrono::steady_clock::now();
  ClusterResult result = run_cluster_scenario(config, skewed_specs(point), links);
  const auto stop = std::chrono::steady_clock::now();
  wall_ms = std::chrono::duration<double, std::milli>(stop - start).count();
  return result;
}

int run_smoke() {
  using namespace arvis;
  int failures = 0;

  // Invariant 1: the K = 4 skewed burst admits at least as many sessions
  // under least-loaded as under round-robin (strictly more in this regime).
  SweepPoint point;
  point.links = 4;
  point.sessions_per_link = 2;
  point.steps = 96;
  double ms = 0.0;
  point.placement = PlacementPolicy::kRoundRobin;
  const ClusterResult rr = run_point(point, ms);
  point.placement = PlacementPolicy::kLeastLoaded;
  const ClusterResult ll = run_point(point, ms);
  std::printf("smoke: round-robin admitted %zu, least-loaded admitted %zu\n",
              rr.metrics.fleet.sessions_admitted,
              ll.metrics.fleet.sessions_admitted);
  if (ll.metrics.fleet.sessions_admitted <=
      rr.metrics.fleet.sessions_admitted) {
    std::printf(
        "smoke FAIL: least-loaded should admit strictly more than "
        "round-robin on the skewed burst\n");
    ++failures;
  }

  // Invariant 2: the links as parallel executor tasks are bit-identical to
  // serial.
  point.placement = PlacementPolicy::kLeastLoaded;
  point.threads = 2;
  const ClusterResult parallel = run_point(point, ms);
  const bool bit_identical =
      parallel.metrics.fleet.capacity_used == ll.metrics.fleet.capacity_used &&
      parallel.metrics.fleet.quality_fairness ==
          ll.metrics.fleet.quality_fairness;
  if (!bit_identical) {
    std::printf("smoke FAIL: parallel run diverged from serial\n");
    ++failures;
  } else {
    std::printf("smoke: parallel (2 threads) bit-identical to serial\n");
  }

  // Machine-readable summary so CI can diff the key invariant numbers, not
  // just this binary's exit code.
  std::printf(
      "SMOKE_JSON {\"bench\":\"cluster_placement\",\"rr_admitted\":%zu,"
      "\"ll_admitted\":%zu,\"ll_beats_rr\":%s,\"rr_spills\":%zu,"
      "\"ll_link_fairness\":%.6f,\"parallel_bit_identical\":%s,"
      "\"failures\":%d}\n",
      rr.metrics.fleet.sessions_admitted, ll.metrics.fleet.sessions_admitted,
      ll.metrics.fleet.sessions_admitted > rr.metrics.fleet.sessions_admitted
          ? "true"
          : "false",
      rr.metrics.spills, ll.metrics.link_load_fairness,
      bit_identical ? "true" : "false", failures);
  std::printf(failures == 0 ? "smoke OK\n" : "smoke: %d failure(s)\n",
              failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace arvis;
  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) return run_smoke();
  const bool json = argc > 1 && std::strcmp(argv[1], "--json") == 0;

  CsvTable table({"links", "policy", "sessions", "admitted", "rejected",
                  "spills", "link_fairness", "utilization", "mean_quality",
                  "wall_ms"});
  std::vector<bench::BenchRecord> records;
  for (std::size_t links : {1U, 2U, 4U}) {
    for (std::size_t per_link : {2U, 4U, 8U}) {
      for (PlacementPolicy placement :
           {PlacementPolicy::kRoundRobin, PlacementPolicy::kLeastLoaded,
            PlacementPolicy::kBestFit}) {
        SweepPoint point;
        point.links = links;
        point.sessions_per_link = per_link;
        point.placement = placement;
        double ms = 0.0;
        const ClusterResult result = run_point(point, ms);
        table.add_row({static_cast<std::int64_t>(links),
                       std::string(to_string(placement)),
                       static_cast<std::int64_t>(point.total_sessions()),
                       static_cast<std::int64_t>(
                           result.metrics.fleet.sessions_admitted),
                       static_cast<std::int64_t>(
                           result.metrics.placement_rejects),
                       static_cast<std::int64_t>(result.metrics.spills),
                       result.metrics.link_load_fairness,
                       result.metrics.fleet.utilization(),
                       result.metrics.fleet.mean_quality, ms});
        char params[128];
        std::snprintf(params, sizeof params,
                      "{\"links\":%zu,\"policy\":\"%s\",\"sessions\":%zu}",
                      links, to_string(placement), point.total_sessions());
        records.push_back({"placement_sweep", params, ms * 1e6,
                           static_cast<double>(point.total_sessions()), 1});
      }
    }
  }
  bench::print_table(
      "cluster placement: K x policy x sessions, skewed bursts", table);
  if (json &&
      !bench::write_bench_json("cluster_placement", records,
                               "\"unit\":\"ns_per_sweep_point\"")) {
    return 1;
  }
  std::printf(
      "\nNote: K = 1 rows are the single-link special case (policies\n"
      "coincide); the round-robin vs least-loaded admission gap at K = 4 is\n"
      "the skewed-burst stranding effect described in the file header.\n");
  return 0;
}

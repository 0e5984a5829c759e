// Serving-scale sweep: session count (1 → 256) on one shared link whose
// capacity grows with the fleet so per-session load stays constant. Reports
// wall time, throughput in session-slots/s, and the fleet admission,
// quality/fairness, utilization and divergence metrics — the scaling story
// of the serving runtime. The one link is a K = 1 EdgeCluster
// (run_cluster_scenario with one channel). There is no thread sweep: the
// cluster's executor runs one task per link, so a one-link server always
// runs inline.
//
// Build & run:  ./build/bench/bench_serving_scale
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/csv.hpp"
#include "datasets/catalog.hpp"
#include "net/channel.hpp"
#include "net/streaming.hpp"
#include "serving/cluster.hpp"
#include "sim/frame_stats_cache.hpp"

namespace {

constexpr std::size_t kSteps = 300;

const arvis::FrameStatsCache& serving_cache() {
  static const arvis::FrameStatsCache cache(*arvis::open_test_subject(17), 8,
                                            16);
  return cache;
}

double run_once(std::size_t sessions, arvis::ClusterResult& result) {
  using namespace arvis;
  const auto& cache = serving_cache();

  ClusterConfig cluster;
  ServingConfig& config = cluster.serving;
  config.steps = kSteps;
  config.candidates = {3, 4, 5, 6, 7};
  config.v = calibrate_streaming_v(cache, config.candidates,
                                   4.0 * cache.workload(0).bytes(5));
  config.policy = SchedulerPolicy::kWorkConserving;
  config.admission.utilization_target = 0.95;

  std::vector<SessionSpec> specs(sessions);
  for (std::size_t i = 0; i < sessions; ++i) {
    specs[i].cache = &cache;
    // A tenth of the fleet churns: arrives staggered, leaves mid-run.
    if (i % 10 == 9) {
      specs[i].arrival_slot = i % kSteps / 2;
      specs[i].departure_slot = specs[i].arrival_slot + kSteps / 2;
    }
  }

  // Link fits the whole fleet around depth 5 (the middle candidate).
  ConstantChannel channel(static_cast<double>(sessions) *
                          cache.workload(0).bytes(5) * 1.2);

  const auto start = std::chrono::steady_clock::now();
  result = run_cluster_scenario(cluster, specs, {&channel});
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

}  // namespace

int main() {
  using namespace arvis;
  CsvTable table({"sessions", "wall_ms", "session_slots_per_s", "admitted",
                  "rejected", "fairness", "utilization", "divergent"});

  for (std::size_t sessions : {1U, 4U, 16U, 64U, 256U}) {
    ClusterResult result;
    const double ms = run_once(sessions, result);
    double slots = 0.0;
    for (const ClusterSessionOutcome& s : result.sessions) {
      slots += static_cast<double>(s.session.trace.size());
    }
    const AdmissionStats& admission = result.metrics.per_link_admission[0];
    const FleetMetrics& fleet = result.metrics.fleet;
    table.add_row({static_cast<std::int64_t>(sessions), ms,
                   slots / (ms / 1'000.0),
                   static_cast<std::int64_t>(admission.accepted),
                   static_cast<std::int64_t>(admission.rejected),
                   fleet.quality_fairness, fleet.utilization(),
                   static_cast<std::int64_t>(fleet.divergent_sessions)});
  }

  bench::print_table(
      "serving scale: sessions, one link, " + std::to_string(kSteps) + " slots",
      table);
  return 0;
}

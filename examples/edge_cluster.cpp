// Edge cluster demo: the serving runtime sharded across three links.
//
// Ten sessions across the four catalog subjects arrive at a three-link edge
// cluster in two waves. Least-loaded placement assigns each arrival to the
// link with the smallest reserved admission load, spilling to the next-best
// link when the first choice is full. Every admitted session still runs its
// own local Lyapunov controller; each link divides only its own capacity
// (work-conserving here), and the per-link fleets roll up into one cluster
// view with cross-link load fairness.
//
// Build & run:  ./build/examples/edge_cluster
#include <cstdio>
#include <memory>
#include <vector>

#include "datasets/catalog.hpp"
#include "net/streaming.hpp"
#include "serving/admission.hpp"
#include "serving/cluster.hpp"

int main() {
  using namespace arvis;

  std::vector<std::shared_ptr<FrameSource>> sources;
  std::vector<std::unique_ptr<FrameStatsCache>> caches;
  for (const SubjectInfo& info : catalog_subjects()) {
    auto source = open_subject(info.name, /*seed=*/5, /*scale=*/0.02);
    if (!source.ok()) {
      std::fprintf(stderr, "open_subject(%s) failed: %s\n", info.name.c_str(),
                   source.status().to_string().c_str());
      return 1;
    }
    sources.push_back(*source);
    caches.push_back(std::make_unique<FrameStatsCache>(
        **source, /*octree_depth=*/9, /*frame_limit=*/8));
  }

  ClusterConfig config;
  config.serving.steps = 1'200;
  config.serving.candidates = {5, 6, 7, 8, 9};
  config.serving.policy = SchedulerPolicy::kWorkConserving;
  config.serving.v =
      calibrate_streaming_v(*caches.front(), config.serving.candidates,
                            3.0 * caches.front()->workload(0).bytes(6));
  config.serving.admission.utilization_target = 0.95;
  config.placement = PlacementPolicy::kLeastLoaded;

  // Three links, each sized for about two cheapest-depth sessions: ten
  // arrivals over two waves keep every link under genuine pressure and
  // force at least one refusal.
  const double load = AdmissionController::cheapest_depth_load(
      *caches[0], config.serving.candidates);
  ConstantChannel link0(2.5 * load / 0.95);
  ConstantChannel link1(2.5 * load / 0.95);
  ConstantChannel link2(2.5 * load / 0.95);
  std::vector<ChannelModel*> channels{&link0, &link1, &link2};

  std::vector<SessionSpec> specs;
  for (std::size_t i = 0; i < 10; ++i) {
    SessionSpec spec;
    spec.cache = caches[i % caches.size()].get();
    spec.weight = (i % 4 == 0) ? 2.0 : 1.0;
    if (i >= 6) spec.arrival_slot = 400;  // second wave
    if (i < 2) spec.departure_slot = 350;  // early leavers free capacity
    specs.push_back(spec);
  }

  const ClusterResult result = run_cluster_scenario(config, specs, channels);

  std::printf("cluster of %zu links, %s placement, %zu slots:\n\n%s\n",
              result.metrics.link_count, to_string(config.placement),
              config.serving.steps,
              result.session_table().to_pretty_string().c_str());
  std::printf("per-link rollup:\n\n%s\n",
              result.link_table().to_pretty_string().c_str());
  std::printf(
      "fleet: %zu admitted, %zu refused (%zu spills rescued), "
      "link-load fairness %.3f,\n"
      "       mean quality %.3f, utilization %.1f%%, peak concurrency %zu\n"
      "(placement is the only cluster-central act — every controller still "
      "sees only its own queue)\n",
      result.metrics.fleet.sessions_admitted,
      result.metrics.placement_rejects, result.metrics.spills,
      result.metrics.link_load_fairness, result.metrics.fleet.mean_quality,
      100.0 * result.metrics.fleet.utilization(),
      result.metrics.fleet.peak_concurrency);
  return 0;
}

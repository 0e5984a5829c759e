// Edge server demo: a day in the life of the multi-session serving runtime.
//
// Six sessions across the four catalog subjects share one edge downlink:
// four are streaming from the start, one arrives mid-run once a departure
// has freed link capacity, and one greedy arrival is refused by admission
// control because its cheapest-depth load would tip the link past its
// stability region. Every admitted session runs its own local Lyapunov
// controller; the link divides capacity with the proportional-fair policy.
// A one-link server is a K = 1 EdgeCluster: run_cluster_scenario with one
// channel.
//
// Build & run:  ./build/examples/edge_server
#include <cstdio>
#include <memory>
#include <vector>

#include "analysis/report.hpp"
#include "datasets/catalog.hpp"
#include "net/streaming.hpp"
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

  ClusterConfig cluster;
  ServingConfig& config = cluster.serving;
  config.steps = 1'600;
  config.candidates = {5, 6, 7, 8, 9};
  config.policy = SchedulerPolicy::kProportionalFair;
  config.v = calibrate_streaming_v(*caches.front(), config.candidates,
                                   3.0 * caches.front()->workload(0).bytes(6));
  config.admission.utilization_target = 0.95;

  // Size the link so the four initial sessions fit the stability region at
  // their cheapest candidate depth with half a session of headroom: an edge
  // under genuine pressure, where the fifth concurrent arrival would tip the
  // link past stability and must be refused.
  double cheapest_sum = 0.0;
  std::vector<double> cheapest(caches.size());
  for (std::size_t i = 0; i < caches.size(); ++i) {
    cheapest[i] = AdmissionController::cheapest_depth_load(*caches[i],
                                                           config.candidates);
    cheapest_sum += cheapest[i];
  }
  ConstantChannel channel((cheapest_sum + 0.5 * cheapest[2]) /
                          config.admission.utilization_target);

  std::vector<SessionSpec> specs;
  // Four long-lived sessions, one per subject; the second leaves mid-run.
  for (std::size_t i = 0; i < caches.size(); ++i) {
    SessionSpec spec;
    spec.cache = caches[i].get();
    spec.weight = (i == 0) ? 2.0 : 1.0;  // subject 0 is a premium client
    if (i == 1) spec.departure_slot = 500;
    specs.push_back(spec);
  }
  // A mid-run arrival that fits once session 1 has left...
  SessionSpec late;
  late.cache = caches[0].get();
  late.arrival_slot = 600;
  specs.push_back(late);
  // ...and one that arrives while the link is still full: rejected.
  SessionSpec greedy;
  greedy.cache = caches[2].get();
  greedy.arrival_slot = 200;
  specs.push_back(greedy);

  const ClusterResult result = run_cluster_scenario(cluster, specs, {&channel});

  std::printf("per-session outcome after %zu slots (%s scheduler):\n\n%s\n",
              config.steps, to_string(config.policy),
              result.session_table().to_pretty_string().c_str());

  // The full-horizon traces feed the same report tooling the benches use
  // (summary_table wants equal-length runs, so churned sessions sit out).
  std::vector<Trace> traces;
  traces.reserve(result.sessions.size());  // labeled points into it
  std::vector<LabeledTrace> labeled;
  for (std::size_t i = 0; i < result.sessions.size(); ++i) {
    const SessionOutcome& s = result.sessions[i].session;
    if (s.admitted && s.trace.size() == config.steps) {
      traces.push_back(s.trace.to_trace());
      labeled.push_back({"session-" + std::to_string(i), &traces.back()});
    }
  }
  std::printf("trace summaries (analysis/report):\n\n%s\n",
              summary_table(labeled).to_pretty_string().c_str());

  const AdmissionStats& admission = result.metrics.per_link_admission[0];
  const FleetMetrics& fleet = result.metrics.fleet;
  std::printf(
      "admission: %zu attempts, %zu accepted, %zu rejected\n"
      "fleet: fairness %.3f, mean quality %.3f, total avg backlog %.0f B,\n"
      "       peak concurrency %zu, link utilization %.1f%%\n"
      "(every admitted controller used only its own queue — no side "
      "information)\n",
      admission.attempts, admission.accepted, admission.rejected,
      fleet.quality_fairness, fleet.mean_quality,
      fleet.total_time_average_backlog, fleet.peak_concurrency,
      100.0 * fleet.utilization());
  return 0;
}

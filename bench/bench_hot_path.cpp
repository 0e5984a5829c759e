// Hot-path microbench: steady-state slot-loop cost of the serving runtime,
// in ns per session·slot, at fleet sizes 1k / 10k / 100k — the perf
// trajectory anchor for the SoA session-store refactor. The runtime under
// the clock is a one-link server: a K = 1 EdgeCluster, stepped directly.
//
// Two regimes per fleet size:
//   dense  every session arrives at slot 0 and never departs: the measured
//          window is pure decide/schedule/drain, no lifecycle work;
//   churn  arrivals staggered across the window with finite lifetimes, so
//          every slot admits and retires sessions: begin_slot, the pending
//          list, placement, admission and active-list compaction are all on
//          the clock.
//
// Build & run:  ./build/bench/bench_hot_path [--smoke] [--json [--quick]]
//                                            [--telemetry] [--flight]
//
// --json appends a dated trajectory entry to BENCH_hot_path.json (run from
// the repo root to land it there); --quick shrinks the sweep for CI.
// --telemetry A/Bs dense@10k with telemetry off vs full tracing (counters +
// per-phase spans every slot), records the enabled overhead as a
// "slot_loop_dense_telemetry" trajectory record, and fails if the overhead
// exceeds 5%.
// --flight A/Bs dense@10k with the (default-on) flight recorder disarmed vs
// armed, records the armed cost as a "slot_loop_dense_flight" trajectory
// record, and fails if the overhead exceeds 25%.
// --smoke runs hard invariants cheap enough for CI and exits non-zero on
// violation:
//   1. oracle equivalence: the runtime's slot loop, re-simulated through the
//      original view-based controller path (ByteWorkloadView /
//      LogPointQualityView / LyapunovDepthController + the demand-struct
//      scheduler interface + a per-session DiscreteQueue), matches the
//      runtime's traces bit for bit. Covered regimes: a one-link server (a
//      K = 1 cluster) dense (every session streams from slot 0) and churned
//      (arrivals and departures change the active list every few slots),
//      and a K>1 cluster (each link's slot engine + the cluster placement
//      path) — the flattened decide kernel, the SoA layout and the
//      scheduler fast paths change cost, never behaviour;
//   2. executor determinism: the K = 3 cluster's links run as parallel
//      tasks at 2 and 4 threads, bit-identical to the serial run;
//   3. perf budget: dense@10k may not regress more than 25% against the
//      last committed BENCH_hot_path.json trajectory entry (override the
//      factor with BENCH_HOT_PATH_BUDGET_FACTOR for foreign hardware).
// A SMOKE_JSON line summarizes everything for CI diffing.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/csv.hpp"
#include "datasets/catalog.hpp"
#include "delay/workload.hpp"
#include "lyapunov/depth_controller.hpp"
#include "net/streaming.hpp"
#include "quality/quality_model.hpp"
#include "queueing/queue.hpp"
#include "serving/admission.hpp"
#include "serving/cluster.hpp"
#include "serving/scheduler.hpp"
#include "serving/session_manager.hpp"
#include "serving/telemetry/flight_recorder.hpp"
#include "serving/telemetry/registry.hpp"
#include "serving/telemetry/tracer.hpp"
#include "sim/frame_stats_cache.hpp"

namespace {

using namespace arvis;

// Measured baselines from this same harness on this container (single
// thread, Release), units ns per session·slot. The PR 3 layout is the
// pointer-chasing runtime before the SoA refactor (commit fcdeea9:
// unique_ptr session heap, per-slot view construction, demand-struct
// scheduler copy-in); the PR 4 numbers are the SoA + flat-table runtime
// (commit 20a7cf3), i.e. the baseline the incremental decide engine is
// measured against. Both survive as entries in BENCH_hot_path.json — these
// constants are the same numbers compiled in for the comparison printout.
constexpr double kPrePrDense10k = 173.33;
constexpr double kPrePrDense100k = 206.97;
constexpr double kPrePrChurn10k = 167.90;
constexpr double kPr4Dense10k = 76.807;
constexpr double kPr4Dense100k = 90.478;
constexpr double kPr4Churn10k = 72.204;

const FrameStatsCache& hot_cache() {
  static const FrameStatsCache cache(*open_test_subject(17), 8, 16);
  return cache;
}

ServingConfig base_config(std::size_t steps) {
  ServingConfig config;
  config.steps = steps;
  config.candidates = {3, 4, 5, 6};
  config.v = calibrate_streaming_v(hot_cache(), config.candidates,
                                   4.0 * hot_cache().workload(0).bytes(5));
  config.policy = SchedulerPolicy::kWorkConserving;
  config.threads = 1;
  config.admission.utilization_target = 1.0;
  return config;
}

/// A one-link server (K = 1 cluster) over base_config(steps).
ClusterConfig one_link_config(std::size_t steps) {
  ClusterConfig config;
  config.serving = base_config(steps);
  return config;
}

struct Measurement {
  double ns_per_session_slot = 0.0;
  double session_slots = 0.0;
};

/// Dense steady state: N sessions admitted at slot 0, none ever leave; the
/// clock covers only the measured window (warm-up absorbs admission and
/// scratch growth; the record arena still takes a block per 8192 chunks).
Measurement run_dense(std::size_t n, std::size_t warm, std::size_t measure,
                      const TelemetryConfig* telemetry = nullptr) {
  ClusterConfig config = one_link_config(warm + measure);
  if (telemetry != nullptr) config.serving.telemetry = *telemetry;
  const double load = AdmissionController::cheapest_depth_load(
      hot_cache(), config.serving.candidates);
  const double capacity = static_cast<double>(n) * load * 1.2;
  EdgeCluster server(config, {capacity});
  for (std::size_t i = 0; i < n; ++i) {
    SessionSpec spec;
    spec.cache = &hot_cache();
    server.submit(spec);
  }
  const std::vector<double> caps{capacity};
  for (std::size_t t = 0; t < warm; ++t) server.step(caps);

  bench::WallTimer timer;
  for (std::size_t t = 0; t < measure; ++t) server.step(caps);
  const double ns = timer.elapsed_ns();
  const ClusterResult result = server.finish();
  if (result.metrics.per_link_admission[0].accepted != n) {
    std::fprintf(stderr, "bench_hot_path: dense admission shortfall\n");
    std::abort();
  }
  const double slots =
      static_cast<double>(n) * static_cast<double>(measure);
  return {ns / slots, slots};
}

/// Churn-heavy: arrivals staggered over the window (non-decreasing due
/// slots), each session living `life` slots, so every measured slot runs the
/// full lifecycle — pending-list pops, admission, activation, departure
/// compaction — alongside decide/schedule/drain.
Measurement run_churn(std::size_t n, std::size_t warm, std::size_t measure) {
  const std::size_t span = warm + measure;  // arrival window
  const std::size_t life = std::max<std::size_t>(span / 2, 8);
  ClusterConfig config = one_link_config(span);
  const double load = AdmissionController::cheapest_depth_load(
      hot_cache(), config.serving.candidates);
  const double capacity = static_cast<double>(n) * load * 1.2;
  EdgeCluster server(config, {capacity});
  for (std::size_t i = 0; i < n; ++i) {
    SessionSpec spec;
    spec.cache = &hot_cache();
    spec.arrival_slot = i * span / n;  // non-decreasing: O(1) pending insert
    spec.departure_slot = spec.arrival_slot + life;
    server.submit(spec);
  }
  const std::vector<double> caps{capacity};
  for (std::size_t t = 0; t < warm; ++t) server.step(caps);

  bench::WallTimer timer;
  for (std::size_t t = 0; t < measure; ++t) server.step(caps);
  const double ns = timer.elapsed_ns();
  const ClusterResult result = server.finish();

  double slots = 0.0;  // session·slots inside the measured window
  for (const ClusterSessionOutcome& placed : result.sessions) {
    const SessionOutcome& s = placed.session;
    if (!s.admitted) continue;
    const std::size_t lo = std::max(s.arrival_slot, warm);
    const std::size_t hi = std::min(s.departure_slot, span);
    if (hi > lo) slots += static_cast<double>(hi - lo);
  }
  return {ns / slots, slots};
}

Measurement best_of(std::size_t reps, const auto& run) {
  Measurement best;
  for (std::size_t r = 0; r < reps; ++r) {
    const Measurement m = run();
    if (r == 0 || m.ns_per_session_slot < best.ns_per_session_slot) best = m;
  }
  return best;
}

// ------------------------------------------------------------- oracle ----
// Re-simulates the slot loop the way the pre-SoA runtime computed it: one
// object per session, per-slot non-owning views over the frame cache, the
// virtual-dispatch controller, a per-session DiscreteQueue, and the
// demand-struct scheduler interface (a copy of the demand set, where the
// runtime hands the scheduler its SoA spans in place). Any divergence
// between this and the runtime's traces means the flattened decide kernel,
// the SoA layout, or the span plumbing leaked into behaviour.

struct OracleSession {
  OracleSession(double v, std::size_t arrival_in, std::size_t departure_in,
                double weight_in)
      : controller(v),
        arrival(arrival_in),
        departure(departure_in),
        weight(weight_in) {}
  LyapunovDepthController controller;
  DiscreteQueue queue;
  std::size_t arrival;
  std::size_t departure;  // kNeverDeparts = stays to the end
  double weight;
  double ewma = 0.0;
  std::vector<StepRecord> steps;
};

/// One oracle session's lifecycle; arrivals must be submitted in
/// non-decreasing arrival order so the oracle's live list mirrors the
/// runtime's admission order.
struct OracleSpec {
  std::size_t arrival = 0;
  std::size_t departure = kNeverDeparts;
  double weight = 1.0;
};

/// Simulates `specs` through the view-based path on one link of constant
/// `capacity` and compares against the runtime traces in `sessions`
/// (indexed by oracle position). Lifecycle per slot mirrors the runtime:
/// departures (departure <= t) leave before arrivals (arrival == t) join,
/// the live list keeps arrival order, frame time is session-local.
bool oracle_replay_matches(SchedulerPolicy policy, double pf_window, double v,
                           const std::vector<int>& candidates, double capacity,
                           std::size_t steps,
                           const std::vector<OracleSpec>& specs,
                           const std::vector<const SessionOutcome*>& sessions,
                           const char* label) {
  const auto scheduler = make_scheduler(policy);
  const bool pf = pf_window > 0.0;
  const double alpha = pf ? 1.0 / pf_window : 0.0;
  const std::size_t n = specs.size();
  std::vector<OracleSession> oracle;
  oracle.reserve(n);
  for (const OracleSpec& s : specs) {
    oracle.emplace_back(v, s.arrival, s.departure, s.weight);
  }
  std::vector<std::size_t> live;
  std::size_t next_arrival = 0;
  std::vector<SchedulerDemand> demands;
  std::vector<double> shares;
  for (std::size_t t = 0; t < steps; ++t) {
    std::erase_if(live, [&](std::size_t i) { return oracle[i].departure <= t; });
    while (next_arrival < n && oracle[next_arrival].arrival <= t) {
      live.push_back(next_arrival++);
    }
    demands.resize(live.size());
    for (std::size_t j = 0; j < live.size(); ++j) {
      OracleSession& s = oracle[live[j]];
      const FrameWorkload& frame = hot_cache().workload(t - s.arrival);
      const ByteWorkloadView workload(frame.bytes_at_depth);
      const LogPointQualityView quality(frame.points_at_depth);
      DepthContext context;
      context.queue_backlog = s.queue.backlog();
      context.quality = &quality;
      context.workload = &workload;
      StepRecord record;
      record.t = t;
      record.backlog_begin = s.queue.backlog();
      record.depth = s.controller.decide(candidates, context);
      record.arrivals = workload.arrivals(record.depth);
      record.quality = quality.quality(record.depth);
      s.steps.push_back(record);
      demands[j] = {record.backlog_begin, record.arrivals, s.weight,
                    pf ? s.ewma : -1.0};
    }
    scheduler->allocate(capacity, demands, shares);
    for (std::size_t j = 0; j < live.size(); ++j) {
      OracleSession& s = oracle[live[j]];
      StepRecord& record = s.steps.back();
      record.service = shares[j];
      record.backlog_end = s.queue.step(record.arrivals, shares[j]);
      if (pf) s.ewma = (1.0 - alpha) * s.ewma + alpha * s.queue.last_served();
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    const SessionOutcome* got_session = sessions[i];
    const std::vector<StepRecord>& want = oracle[i].steps;
    if (got_session == nullptr || !got_session->admitted ||
        got_session->trace.size() != want.size()) {
      std::printf("oracle MISMATCH [%s]: session %zu trace shape\n", label, i);
      return false;
    }
    const Trace got = got_session->trace.to_trace();
    for (std::size_t t = 0; t < want.size(); ++t) {
      const StepRecord& a = got.at(t);
      const StepRecord& b = want[t];
      if (a.depth != b.depth || a.arrivals != b.arrivals ||
          a.service != b.service || a.backlog_begin != b.backlog_begin ||
          a.backlog_end != b.backlog_end || a.quality != b.quality) {
        std::printf("oracle MISMATCH [%s]: session %zu slot %zu\n", label, i,
                    t);
        return false;
      }
    }
  }
  return true;
}

/// Single-link oracle over a one-link server (K = 1 cluster). `churn`
/// staggers arrivals across the first half of the window with finite
/// lifetimes, so the active list changes every few slots; without it every
/// session arrives at 0 and stays (dense steady state).
bool oracle_matches(SchedulerPolicy policy, double pf_window, std::size_t n,
                    std::size_t steps, bool churn, const char* label) {
  ClusterConfig cluster = one_link_config(steps);
  ServingConfig& config = cluster.serving;
  config.policy = policy;
  config.pf_ewma_window = pf_window;
  const double load =
      AdmissionController::cheapest_depth_load(hot_cache(), config.candidates);
  const double capacity = static_cast<double>(n) * load * 2.0;

  EdgeCluster server(cluster, {capacity});
  std::vector<OracleSpec> specs(n);
  for (std::size_t i = 0; i < n; ++i) {
    SessionSpec spec;
    spec.cache = &hot_cache();
    spec.weight = (i % 2 == 0) ? 1.0 : 2.0;
    if (churn) {
      spec.arrival_slot = i * steps / (2 * n);  // non-decreasing
      spec.departure_slot = spec.arrival_slot + steps / 3 + 7 * (i % 3);
    }
    specs[i] = {spec.arrival_slot,
                churn ? spec.departure_slot : kNeverDeparts, spec.weight};
    server.submit(spec);
  }
  const std::vector<double> caps{capacity};
  for (std::size_t t = 0; t < steps; ++t) {
    server.step(caps);
    // Lifetime-checker cross-check: SoA mirrors must match the cold slab at
    // every checkpoint (cheap relative to the oracle replay; cadence chosen
    // to hit dense and churn regimes alike).
    if ((t & 15) == 0) {
      const Status store_ok = server.validate_stores();
      if (!store_ok.ok()) {
        std::printf("oracle MISMATCH [%s]: %s\n", label,
                    store_ok.to_string().c_str());
        return false;
      }
    }
  }
  const ClusterResult result = server.finish();

  std::vector<const SessionOutcome*> sessions(n);
  for (std::size_t i = 0; i < n; ++i) sessions[i] = &result.sessions[i].session;
  // A session retired by the run's end keeps its full declared window; one
  // still live at `steps` was cut there — mirror that in the oracle.
  for (OracleSpec& s : specs) s.departure = std::min(s.departure, steps);
  return oracle_replay_matches(policy, pf_window, config.v, config.candidates,
                               capacity, steps, specs, sessions, label);
}

/// Session i's weight in the K>1 cluster shape below.
double cluster_weight(std::size_t i) { return (i % 3 == 0) ? 2.0 : 1.0; }

/// The K>1 cluster shape of the oracles: `n` sessions, round-robin over
/// `links` links with distinct constant capacities (returned in
/// `capacities`), the links running as `threads`-wide executor tasks.
ClusterResult run_cluster(SchedulerPolicy policy, std::size_t links,
                          std::size_t n, std::size_t steps,
                          std::size_t threads,
                          std::vector<double>& capacities) {
  ClusterConfig config;
  config.serving = base_config(steps);
  config.serving.policy = policy;
  config.serving.threads = threads;
  config.placement = PlacementPolicy::kRoundRobin;
  const double load = AdmissionController::cheapest_depth_load(
      hot_cache(), config.serving.candidates);
  std::vector<ConstantChannel> channels;
  std::vector<ChannelModel*> channel_ptrs;
  capacities.clear();
  channels.reserve(links);
  for (std::size_t k = 0; k < links; ++k) {
    // Distinct per-link capacities so a link mix-up cannot cancel out.
    capacities.push_back(static_cast<double>(n) / static_cast<double>(links) *
                         load * (2.0 + 0.4 * static_cast<double>(k)));
    channels.emplace_back(capacities.back());
  }
  for (auto& c : channels) channel_ptrs.push_back(&c);

  std::vector<SessionSpec> specs(n);
  for (std::size_t i = 0; i < n; ++i) {
    specs[i].cache = &hot_cache();
    specs[i].weight = cluster_weight(i);
  }
  return run_cluster_scenario(config, specs, channel_ptrs);
}

/// K>1 cluster oracle: run a round-robin-placed cluster, then re-simulate
/// every link's session subset (in placement order, which is id order)
/// through the view-based path with that link's constant capacity.
bool cluster_oracle_matches(SchedulerPolicy policy, std::size_t links,
                            std::size_t n, std::size_t steps,
                            const char* label) {
  std::vector<double> capacities;
  const ClusterResult result =
      run_cluster(policy, links, n, steps, 1, capacities);
  const ServingConfig config = base_config(steps);

  for (std::size_t k = 0; k < links; ++k) {
    std::vector<OracleSpec> link_specs;
    std::vector<const SessionOutcome*> link_sessions;
    for (std::size_t i = 0; i < n; ++i) {
      const ClusterSessionOutcome& s = result.sessions[i];
      if (!s.session.admitted) {
        std::printf("oracle MISMATCH [%s]: session %zu not admitted\n", label,
                    i);
        return false;
      }
      if (static_cast<std::size_t>(s.link) != k) continue;
      link_specs.push_back({0, steps, cluster_weight(i)});
      link_sessions.push_back(&s.session);
    }
    if (!oracle_replay_matches(policy, 0.0, config.v, config.candidates,
                               capacities[k], steps, link_specs,
                               link_sessions, label)) {
      return false;
    }
  }
  return true;
}

// ------------------------------------------------------- budget guard ----
// CI perf-regression guard: dense@10k measured now must stay within a
// multiplicative budget of the last committed trajectory entry.

/// Last "slot_loop_dense" @10k ns_per_op in BENCH_hot_path.json, or 0 when
/// the file/record is absent (fresh checkout, foreign cwd).
double committed_dense_10k(const char* path) {
  const std::string content = arvis::bench::read_file_or_empty(path);
  // The trailing comma stops "sessions":10000 from matching the 100k point.
  const std::string needle =
      "\"name\":\"slot_loop_dense\",\"params\":{\"sessions\":10000,";
  std::size_t pos = std::string::npos;
  for (std::size_t at = content.find(needle); at != std::string::npos;
       at = content.find(needle, at + 1)) {
    pos = at;  // last occurrence = newest trajectory entry
  }
  if (pos == std::string::npos) return 0.0;
  const std::string key = "\"ns_per_op\":";
  const std::size_t val = content.find(key, pos);
  if (val == std::string::npos) return 0.0;
  return std::strtod(content.c_str() + val + key.size(), nullptr);
}

bool budget_ok(double* measured_out, double* budget_out) {
  const double committed = committed_dense_10k("BENCH_hot_path.json");
  double factor = 1.25;
  if (const char* env = std::getenv("BENCH_HOT_PATH_BUDGET_FACTOR")) {
    const double parsed = std::strtod(env, nullptr);
    if (parsed > 0.0) factor = parsed;
  }
  if (committed <= 0.0) {
    std::printf("budget: no committed BENCH_hot_path.json dense@10k record "
                "(skipping)\n");
    *measured_out = 0.0;
    *budget_out = 0.0;
    return true;
  }
  const Measurement m =
      best_of(2, [] { return run_dense(10'000, 4, 16); });
  *measured_out = m.ns_per_session_slot;
  *budget_out = committed * factor;
  std::printf("budget: dense@10k measured %.1f ns vs committed %.1f ns "
              "(budget %.1f, factor %.2f)\n",
              m.ns_per_session_slot, committed, *budget_out, factor);
  return m.ns_per_session_slot <= *budget_out;
}

/// The cluster-k3 oracle's cluster with its links as parallel tasks, at 2
/// (fewer workers than links) and 4 (more) threads, must be bit-identical
/// to serial.
bool parallel_matches_serial() {
  std::vector<double> capacities;
  const ClusterResult serial = run_cluster(SchedulerPolicy::kDeficitRoundRobin,
                                           3, 12, 160, 1, capacities);
  for (const std::size_t threads : {2UL, 4UL}) {
    const ClusterResult parallel =
        run_cluster(SchedulerPolicy::kDeficitRoundRobin, 3, 12, 160, threads,
                    capacities);
    if (serial.sessions.size() != parallel.sessions.size()) return false;
    for (std::size_t i = 0; i < serial.sessions.size(); ++i) {
      if (serial.sessions[i].link != parallel.sessions[i].link) return false;
      const Trace a = serial.sessions[i].session.trace.to_trace();
      const Trace b = parallel.sessions[i].session.trace.to_trace();
      if (a.size() != b.size()) return false;
      for (std::size_t t = 0; t < a.size(); ++t) {
        if (a.at(t).depth != b.at(t).depth ||
            a.at(t).service != b.at(t).service ||
            a.at(t).backlog_end != b.at(t).backlog_end) {
          return false;
        }
      }
    }
    if (serial.metrics.fleet.capacity_used !=
            parallel.metrics.fleet.capacity_used ||
        serial.metrics.fleet.quality_fairness !=
            parallel.metrics.fleet.quality_fairness) {
      return false;
    }
  }
  return true;
}

int run_smoke() {
  int failures = 0;
  const bool oracle_wc = oracle_matches(SchedulerPolicy::kWorkConserving, 0.0,
                                        8, 200, false, "work-conserving");
  if (!oracle_wc) ++failures;
  const bool oracle_pf =
      oracle_matches(SchedulerPolicy::kProportionalFair, 16.0, 6, 200, false,
                     "proportional-fair+ewma");
  if (!oracle_pf) ++failures;
  const bool oracle_drr = oracle_matches(SchedulerPolicy::kDeficitRoundRobin,
                                         0.0, 6, 200, false, "drr");
  if (!oracle_drr) ++failures;
  // Churn: arrivals/departures compact the active list every few slots;
  // weighted-priority additionally re-sorts a changing mixed-weight fleet
  // into tiers.
  const bool oracle_churn_wc =
      oracle_matches(SchedulerPolicy::kWorkConserving, 0.0, 10, 240, true,
                     "churn/work-conserving");
  if (!oracle_churn_wc) ++failures;
  const bool oracle_churn_wp =
      oracle_matches(SchedulerPolicy::kWeightedPriority, 0.0, 10, 240, true,
                     "churn/weighted-priority");
  if (!oracle_churn_wp) ++failures;
  const bool oracle_cluster = cluster_oracle_matches(
      SchedulerPolicy::kDeficitRoundRobin, 3, 12, 160, "cluster-k3/drr");
  if (!oracle_cluster) ++failures;
  const bool parallel_ok = parallel_matches_serial();
  if (!parallel_ok) ++failures;
  double budget_measured = 0.0, budget_limit = 0.0;
  const bool budget = budget_ok(&budget_measured, &budget_limit);
  if (!budget) ++failures;

  std::printf(
      "smoke: oracle wc=%d pf+ewma=%d drr=%d churn_wc=%d churn_wp=%d "
      "cluster=%d, parallel==serial=%d, budget=%d\n",
      oracle_wc ? 1 : 0, oracle_pf ? 1 : 0, oracle_drr ? 1 : 0,
      oracle_churn_wc ? 1 : 0, oracle_churn_wp ? 1 : 0, oracle_cluster ? 1 : 0,
      parallel_ok ? 1 : 0, budget ? 1 : 0);
  std::printf(
      "SMOKE_JSON {\"bench\":\"hot_path\",\"oracle_work_conserving\":%s,"
      "\"oracle_pf_ewma\":%s,\"oracle_drr\":%s,\"oracle_churn_wc\":%s,"
      "\"oracle_churn_wp\":%s,\"oracle_cluster_drr\":%s,"
      "\"parallel_bit_identical\":%s,\"budget_ok\":%s,"
      "\"budget_measured_ns\":%.3f,\"budget_limit_ns\":%.3f,"
      "\"failures\":%d}\n",
      oracle_wc ? "true" : "false", oracle_pf ? "true" : "false",
      oracle_drr ? "true" : "false", oracle_churn_wc ? "true" : "false",
      oracle_churn_wp ? "true" : "false", oracle_cluster ? "true" : "false",
      parallel_ok ? "true" : "false", budget ? "true" : "false",
      budget_measured, budget_limit, failures);
  std::printf(failures == 0 ? "smoke OK\n" : "smoke: %d failure(s)\n",
              failures);
  return failures == 0 ? 0 : 1;
}

// ------------------------------------------------------ telemetry A/B ----

/// Dense@10k with telemetry off vs full tracing. The off side is the
/// same run the trajectory anchors on; the on side pays counters plus four
/// phase spans (eight steady-clock reads) per slot — amortized over 10k
/// sessions the budget is <5% and the measured number lands in
/// BENCH_hot_path.json as its own record so the trajectory tracks it.
int run_telemetry_ab() {
  const std::size_t n = 10'000, warm = 8, measure = 64;
  TelemetryRegistry registry;
  PhaseTracer tracer(TracerConfig{});
  TelemetryConfig telemetry;
  telemetry.mode = TelemetryMode::kFullTrace;
  telemetry.registry = &registry;
  telemetry.tracer = &tracer;

  // Interleave off/on repetitions and keep the min of each: on a noisy
  // shared machine, run-to-run drift dwarfs the overhead under test, and
  // back-to-back A-then-B blocks would fold that drift into the delta.
  const std::size_t reps = 7;
  Measurement off, on;
  for (std::size_t r = 0; r < reps; ++r) {
    const Measurement a = run_dense(n, warm, measure);
    const Measurement b = run_dense(n, warm, measure, &telemetry);
    if (r == 0 || a.ns_per_session_slot < off.ns_per_session_slot) off = a;
    if (r == 0 || b.ns_per_session_slot < on.ns_per_session_slot) on = b;
  }

  const double overhead_pct =
      off.ns_per_session_slot > 0.0
          ? (on.ns_per_session_slot / off.ns_per_session_slot - 1.0) * 100.0
          : 0.0;
  std::printf(
      "telemetry A/B dense@10k: off %.3f ns, full-trace %.3f ns "
      "(overhead %+.2f%%, %zu spans recorded)\n",
      off.ns_per_session_slot, on.ns_per_session_slot, overhead_pct,
      tracer.recorded_total());
  arvis::bench::print_table("dense@10k full-trace: per-phase rollup",
                            tracer.rollup_table());

  std::vector<arvis::bench::BenchRecord> records;
  records.push_back({"slot_loop_dense_telemetry",
                     "{\"sessions\":10000,\"mode\":\"full_trace\"}",
                     on.ns_per_session_slot, on.session_slots, reps});
  char extra[256];
  std::snprintf(extra, sizeof extra,
                "\"unit\":\"ns_per_session_slot\","
                "\"telemetry_off_ns\":%.3f,\"telemetry_on_ns\":%.3f,"
                "\"telemetry_overhead_pct\":%.3f",
                off.ns_per_session_slot, on.ns_per_session_slot, overhead_pct);
  if (!arvis::bench::write_bench_json("hot_path", records, extra)) return 1;

  double limit = 5.0;  // BENCH_TELEMETRY_OVERHEAD_PCT overrides (noisy hosts)
  if (const char* env = std::getenv("BENCH_TELEMETRY_OVERHEAD_PCT")) {
    const double parsed = std::strtod(env, nullptr);
    if (parsed > 0.0) limit = parsed;
  }
  if (overhead_pct >= limit) {
    std::printf("telemetry FAIL: overhead %.2f%% >= %.1f%%\n", overhead_pct,
                limit);
    return 1;
  }
  std::printf("telemetry OK: overhead %.2f%% < %.1f%%\n", overhead_pct, limit);
  return 0;
}

// --------------------------------------------------- flight-recorder A/B ----

/// Dense@10k with the flight recorder disabled vs armed. The recorder is
/// default-on in production, so this measures what everyone pays: in dense
/// steady state the ring only takes writes at lifecycle edges (the 10k
/// admissions land during warm-up), leaving the measured window to show the
/// cost of carrying the armed pointer through the hot loop — which must stay
/// under the 25% budget with margin to spare. The measured number lands in
/// BENCH_hot_path.json as its own record so the trajectory tracks it.
int run_flight_ab() {
  const std::size_t n = 10'000, warm = 8, measure = 64;
  FlightRecorder recorder;  // isolated ring, same shape as the global one
  TelemetryConfig armed;
  armed.flight = &recorder;
  TelemetryConfig disarmed;
  disarmed.flight_off = true;

  // Interleaved repetitions, min of each side (see run_telemetry_ab).
  const std::size_t reps = 7;
  Measurement off, on;
  for (std::size_t r = 0; r < reps; ++r) {
    const Measurement a = run_dense(n, warm, measure, &disarmed);
    const Measurement b = run_dense(n, warm, measure, &armed);
    if (r == 0 || a.ns_per_session_slot < off.ns_per_session_slot) off = a;
    if (r == 0 || b.ns_per_session_slot < on.ns_per_session_slot) on = b;
  }

  const double overhead_pct =
      off.ns_per_session_slot > 0.0
          ? (on.ns_per_session_slot / off.ns_per_session_slot - 1.0) * 100.0
          : 0.0;
  std::printf(
      "flight-recorder A/B dense@10k: off %.3f ns, armed %.3f ns "
      "(overhead %+.2f%%, ring holds %zu events, %llu dropped)\n",
      off.ns_per_session_slot, on.ns_per_session_slot, overhead_pct,
      recorder.size(), static_cast<unsigned long long>(recorder.dropped()));

  std::vector<arvis::bench::BenchRecord> records;
  records.push_back({"slot_loop_dense_flight",
                     "{\"sessions\":10000,\"recorder\":\"armed\"}",
                     on.ns_per_session_slot, on.session_slots, reps});
  char extra[256];
  std::snprintf(extra, sizeof extra,
                "\"unit\":\"ns_per_session_slot\","
                "\"flight_off_ns\":%.3f,\"flight_on_ns\":%.3f,"
                "\"flight_overhead_pct\":%.3f",
                off.ns_per_session_slot, on.ns_per_session_slot, overhead_pct);
  if (!arvis::bench::write_bench_json("hot_path", records, extra)) return 1;

  double limit = 25.0;  // BENCH_FLIGHT_OVERHEAD_PCT overrides (noisy hosts)
  if (const char* env = std::getenv("BENCH_FLIGHT_OVERHEAD_PCT")) {
    const double parsed = std::strtod(env, nullptr);
    if (parsed > 0.0) limit = parsed;
  }
  if (overhead_pct >= limit) {
    std::printf("flight FAIL: overhead %.2f%% >= %.1f%%\n", overhead_pct,
                limit);
    return 1;
  }
  std::printf("flight OK: overhead %.2f%% < %.1f%%\n", overhead_pct, limit);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false, json = false, quick = false, telemetry = false;
  bool flight = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--json") == 0) json = true;
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--telemetry") == 0) telemetry = true;
    if (std::strcmp(argv[i], "--flight") == 0) flight = true;
  }
  if (smoke) return run_smoke();
  if (telemetry) return run_telemetry_ab();
  if (flight) return run_flight_ab();

  struct Point {
    std::size_t sessions, warm, measure, reps;
  };
  std::vector<Point> points{{1'000, 16, 256, 3}, {10'000, 8, 64, 3}};
  if (!quick) points.push_back({100'000, 4, 24, 2});

  CsvTable table({"case", "sessions", "measured_slots", "session_slots",
                  "ns_per_session_slot", "reps"});
  std::vector<arvis::bench::BenchRecord> records;
  double dense_10k = 0.0, dense_100k = 0.0, churn_10k = 0.0;
  for (const Point& p : points) {
    for (const bool churn : {false, true}) {
      const Measurement m = best_of(p.reps, [&] {
        return churn ? run_churn(p.sessions, p.warm, p.measure)
                     : run_dense(p.sessions, p.warm, p.measure);
      });
      const std::string name = churn ? "slot_loop_churn" : "slot_loop_dense";
      table.add_row({name, static_cast<std::int64_t>(p.sessions),
                     static_cast<std::int64_t>(p.measure), m.session_slots,
                     m.ns_per_session_slot,
                     static_cast<std::int64_t>(p.reps)});
      char params[96];
      std::snprintf(params, sizeof params,
                    "{\"sessions\":%zu,\"measured_slots\":%zu}", p.sessions,
                    p.measure);
      records.push_back({name, params, m.ns_per_session_slot, m.session_slots,
                         p.reps});
      if (!churn && p.sessions == 10'000) dense_10k = m.ns_per_session_slot;
      if (!churn && p.sessions == 100'000) dense_100k = m.ns_per_session_slot;
      if (churn && p.sessions == 10'000) churn_10k = m.ns_per_session_slot;
    }
  }

  arvis::bench::print_table("hot path: steady-state slot loop (ns per "
                            "session-slot)",
                            table);
  if (dense_10k > 0.0) {
    std::printf(
        "\nvs PR 3 pointer-chasing layout: dense@10k %.1f -> %.1f ns "
        "(%.2fx), churn@10k %.1f -> %.1f ns (%.2fx)\n",
        kPrePrDense10k, dense_10k, kPrePrDense10k / dense_10k, kPrePrChurn10k,
        churn_10k, churn_10k > 0.0 ? kPrePrChurn10k / churn_10k : 0.0);
    std::printf(
        "vs PR 4 SoA layout:            dense@10k %.1f -> %.1f ns (%.2fx), "
        "churn@10k %.1f -> %.1f ns (%.2fx)\n",
        kPr4Dense10k, dense_10k, kPr4Dense10k / dense_10k, kPr4Churn10k,
        churn_10k, churn_10k > 0.0 ? kPr4Churn10k / churn_10k : 0.0);
  }

  if (json) {
    char extra[768];
    if (quick) {
      // CI / foreign hardware: the compiled-in baselines were measured on
      // the reference container, so a cross-machine speedup ratio would be
      // noise dressed as signal — emit the measurements alone.
      std::snprintf(extra, sizeof extra, "\"unit\":\"ns_per_session_slot\"");
    } else {
      std::snprintf(
          extra, sizeof extra,
          "\"unit\":\"ns_per_session_slot\",\"baseline_pr3\":{\"layout\":"
          "\"pointer-chasing (commit fcdeea9)\",\"dense_10k\":%.3f,"
          "\"dense_100k\":%.3f,\"churn_10k\":%.3f},\"baseline_pr4\":{"
          "\"layout\":\"SoA + flat tables (commit 20a7cf3)\","
          "\"dense_10k\":%.3f,\"dense_100k\":%.3f,\"churn_10k\":%.3f},"
          "\"speedup_vs_pr4_dense_10k\":%.3f,"
          "\"speedup_vs_pr4_dense_100k\":%.3f,"
          "\"speedup_vs_pr4_churn_10k\":%.3f,"
          "\"speedup_vs_pr3_dense_10k\":%.3f",
          kPrePrDense10k, kPrePrDense100k, kPrePrChurn10k, kPr4Dense10k,
          kPr4Dense100k, kPr4Churn10k,
          dense_10k > 0.0 ? kPr4Dense10k / dense_10k : 0.0,
          dense_100k > 0.0 ? kPr4Dense100k / dense_100k : 0.0,
          churn_10k > 0.0 ? kPr4Churn10k / churn_10k : 0.0,
          dense_10k > 0.0 ? kPrePrDense10k / dense_10k : 0.0);
    }
    if (!arvis::bench::write_bench_json("hot_path", records, extra)) return 1;
  }
  return 0;
}

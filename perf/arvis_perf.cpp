// arvis_perf: end-to-end benchmark of the serving pipeline, trace ->
// EventLoop -> EdgeCluster -> finish(), set up exactly the way replay_trace
// sets it up, with a timing decorator between the loop and the runtime.
//
//   arvis_perf --workload dense|dense_t4|churn|chaos [--seed N]
//              [--seconds S] [--trace] [--smoke]
//
// One process runs one workload. It runs one warm-up repetition, then timed
// repetitions until --seconds have passed and at least the minimum count
// ran. Every repetition is a fresh set-up, run and finish(). The seed feeds
// only the input generators (session attributes, arrival process, fault
// plan); the runtime sees the generated trace and plan.
//
// Untraced, the decorator reads the clock around step_slot() only. With
// --trace it times every backend call, turns on the library's full-trace
// telemetry, and alternates untraced and traced repetitions so the tracing
// overhead is measured in the same process.
//
// stdout receives one JSON object: metrics with units, per-repetition
// samples, the output digest and the correctness checks. perf/run.py reads
// it; perf/README.md defines the metrics and workloads.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "common/rng.hpp"
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
#include "serving/telemetry/registry.hpp"
#include "serving/telemetry/tracer.hpp"
#include "sim/frame_stats_cache.hpp"

namespace {

using namespace arvis;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ------------------------------------------------------------ decorator --

/// Forwards every ServingBackend virtual to a ClusterBackend. The loop's
/// burst stepping (the non-virtual ServingBackend::step_slots) calls
/// step_slot() through this object, so every executed slot is observed.
/// Untraced, only step_slot() is timed; traced, every call is charged to a
/// bucket so the driver's own time is the loop's wall time minus these.
class TimedBackend final : public ServingBackend {
 public:
  enum Call : std::size_t {
    kStep,
    kSubmit,
    kFault,
    kSample,
    kSampleSlo,
    kRetryFeed,
    kQuery,  // slot/active/pending/feed-state reads, close, idle skip
    kCallCount,
  };
  struct Bucket {
    std::uint64_t calls = 0;
    std::uint64_t ns = 0;
  };

  TimedBackend(ClusterBackend& inner, bool traced, std::size_t slot_hint)
      : inner_(&inner), traced_(traced) {
    step_ns_.reserve(slot_hint);
  }

  [[nodiscard]] std::size_t slot() const override {
    return timed(kQuery, [&] { return inner_->slot(); });
  }
  [[nodiscard]] std::size_t active_count() const override {
    return timed(kQuery, [&] { return inner_->active_count(); });
  }
  [[nodiscard]] std::size_t next_pending_arrival_slot() const override {
    return timed(kQuery, [&] { return inner_->next_pending_arrival_slot(); });
  }
  std::size_t submit(const SessionSpec& spec) override {
    return timed(kSubmit, [&] { return inner_->submit(spec); });
  }
  void step_slot() override {
    const Clock::time_point start = Clock::now();
    inner_->step_slot();
    const std::uint64_t ns = ns_between(start, Clock::now());
    step_ns_.push_back(ns);
    if (traced_) {
      ++buckets_[kStep].calls;
      buckets_[kStep].ns += ns;
    }
  }
  bool close_session(std::size_t session_id) override {
    return timed(kQuery, [&] { return inner_->close_session(session_id); });
  }
  void skip_idle_slots(std::size_t slots) override {
    timed(kQuery, [&] { inner_->skip_idle_slots(slots); });
  }
  void sample(MetricsSnapshot& out,
              std::vector<double>& per_link_used) const override {
    timed(kSample, [&] { inner_->sample(out, per_link_used); });
  }
  void sample_slo(SloObservation& observation) override {
    timed(kSampleSlo, [&] { inner_->sample_slo(observation); });
  }
  bool apply_link_state(std::size_t link, bool down) override {
    return timed(kFault, [&] { return inner_->apply_link_state(link, down); });
  }
  bool apply_capacity_scale(std::size_t link, double scale) override {
    return timed(kFault,
                 [&] { return inner_->apply_capacity_scale(link, scale); });
  }
  bool apply_link_degrade(std::size_t link, double scale,
                          double delay) override {
    return timed(kFault, [&] {
      return inner_->apply_link_degrade(link, scale, delay);
    });
  }
  [[nodiscard]] FaultPlaneSample sample_fault_plane() const override {
    return timed(kQuery, [&] { return inner_->sample_fault_plane(); });
  }
  void enable_retry_feed() override {
    timed(kQuery, [&] { inner_->enable_retry_feed(); });
  }
  [[nodiscard]] bool retry_feed_pending() const override {
    return timed(kQuery, [&] { return inner_->retry_feed_pending(); });
  }
  void take_retry_feed(std::vector<RetrySeed>& out) override {
    timed(kRetryFeed, [&] { inner_->take_retry_feed(out); });
  }

  /// Host time of every executed step_slot(), in execution order.
  [[nodiscard]] const std::vector<std::uint64_t>& step_ns() const noexcept {
    return step_ns_;
  }
  [[nodiscard]] const Bucket& bucket(Call call) const noexcept {
    return buckets_[call];
  }
  [[nodiscard]] std::uint64_t total_call_ns() const noexcept {
    std::uint64_t total = 0;
    for (const Bucket& b : buckets_) total += b.ns;
    return total;
  }

 private:
  template <class Fn>
  auto timed(Call call, Fn&& fn) const -> decltype(fn()) {
    if (!traced_) return fn();
    const Clock::time_point start = Clock::now();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      charge(call, start);
    } else {
      auto result = fn();
      charge(call, start);
      return result;
    }
  }
  void charge(Call call, Clock::time_point start) const {
    ++buckets_[call].calls;
    buckets_[call].ns += ns_between(start, Clock::now());
  }

  ClusterBackend* inner_;
  bool traced_;
  std::vector<std::uint64_t> step_ns_;
  // Const queries are timed too, so the accumulators are mutable.
  mutable std::array<Bucket, kCallCount> buckets_{};
};

// ------------------------------------------------------------ workloads --

constexpr std::size_t kLinks = 4;
// Four synthetic test subjects: distinct bytes-per-depth profiles, so the
// decide memo sees several keys per link instead of one.
constexpr std::uint64_t kProfileSubjects[] = {17, 18, 19, 20};

using Profiles = std::vector<std::unique_ptr<FrameStatsCache>>;

/// The smoke preset tabulates 4 frames per subject instead of 16: profile
/// building is most of a small run's set-up.
Profiles build_profiles(bool smoke) {
  Profiles profiles;
  for (const std::uint64_t subject : kProfileSubjects) {
    profiles.push_back(std::make_unique<FrameStatsCache>(
        *open_test_subject(subject), /*octree_depth=*/8,
        /*frame_limit=*/smoke ? 4 : 16));
  }
  return profiles;
}

std::vector<const FrameStatsCache*> profile_ptrs(const Profiles& profiles) {
  std::vector<const FrameStatsCache*> out;
  for (const auto& p : profiles) out.push_back(p.get());
  return out;
}

/// Everything a repetition replays: the runtime and driver configuration,
/// the generated trace and fault plan, and the per-link capacity.
struct Plan {
  ReplayConfig config;
  WorkloadTrace trace;
  double link_capacity = 0.0;
  /// Upper bound on executed slots (sizes the step-time buffer).
  std::size_t slot_hint = 0;
};

bool known_workload(const std::string& name) {
  return name == "dense" || name == "dense_t4" || name == "churn" ||
         name == "chaos";
}

/// The three SLO specs bench_driver_churn --slo uses: tight enough that
/// the flash crowd and the churn peaks breach them.
SloConfig tight_slos() {
  SloConfig slo;
  slo.windows = {/*fast=*/2, /*slow=*/6};
  slo.specs = {
      {"accept-ratio", SloMetric::kAcceptRatio, 0.99, -1},
      {"queue-delay", SloMetric::kP95QueueDelay, 3.0, -1},
      {"reject-ratio", SloMetric::kRejectRatio, 0.01, -1},
  };
  return slo;
}

/// Builds the workload's inputs from `seed`. `smoke` shrinks every
/// workload to ~1/20 of its session·slots with the same shape.
Plan make_plan(const std::string& name, std::uint64_t seed, bool smoke,
               const std::vector<const FrameStatsCache*>& profiles) {
  const std::size_t session_div = smoke ? 4 : 1;
  const std::size_t slot_div = smoke ? 5 : 1;

  Plan plan;
  ClusterConfig& cluster = plan.config.cluster;
  cluster.serving.candidates = {3, 4, 5, 6};
  cluster.serving.v = calibrate_streaming_v(
      *profiles[0], cluster.serving.candidates,
      4.0 * profiles[0]->workload(0).bytes(5));
  cluster.serving.admission.utilization_target = 1.0;
  cluster.placement = PlacementPolicy::kLeastLoaded;
  double mean_load = 0.0;
  for (const FrameStatsCache* p : profiles) {
    mean_load += AdmissionController::cheapest_depth_load(
        *p, cluster.serving.candidates);
  }
  mean_load /= static_cast<double>(profiles.size());

  if (name == "dense" || name == "dense_t4") {
    // Pure slot loop: every session arrives at slot 0 and streams the whole
    // horizon, so no lifecycle work runs after slot 0.
    const std::size_t sessions = 4000 / session_div;
    const std::size_t horizon = 3000 / slot_div;
    cluster.serving.policy = SchedulerPolicy::kWorkConserving;
    cluster.serving.threads = name == "dense_t4" ? 4 : 1;
    cluster.serving.steps = horizon;
    Rng rng(seed);
    plan.trace.events.reserve(sessions);
    for (std::size_t i = 0; i < sessions; ++i) {
      TraceEvent event;
      event.duration = horizon;
      event.profile = static_cast<std::uint32_t>(rng.below(profiles.size()));
      const double u = rng.next_double();
      event.qos = u < 0.2   ? QosClass::kBestEffort
                  : u < 0.3 ? QosClass::kPremium
                            : QosClass::kStandard;
      event.weight = default_qos_weight(event.qos);
      plan.trace.events.push_back(event);
    }
    plan.link_capacity = 2.0 * static_cast<double>(sessions) /
                         static_cast<double>(kLinks) * mean_load;
    plan.slot_hint = horizon + 1;
    return plan;
  }

  if (name == "churn") {
    // Stationary Poisson churn at ~3.9k concurrent sessions: admission,
    // placement and close run every slot and the decide memo is bypassed.
    ScenarioConfig scenario;
    scenario.horizon = 3000 / slot_div;
    scenario.base_rate = 13.0 / static_cast<double>(session_div);
    scenario.mean_duration = 300.0;
    scenario.profile_count = profiles.size();
    scenario.seed = seed;
    plan.trace = PoissonScenario(scenario).generate();
    cluster.serving.policy = SchedulerPolicy::kDeficitRoundRobin;
    cluster.serving.steps = scenario.horizon;
    plan.config.driver.snapshot_period = 50;
    plan.config.driver.slo = tight_slos();
    plan.config.stop_slot = scenario.horizon;
    plan.link_capacity = 1.0 * scenario.base_rate * scenario.mean_duration /
                         static_cast<double>(kLinks) * mean_load;
    plan.slot_hint = scenario.horizon + 1;
    return plan;
  }

  // chaos: a small fleet over a long horizon where the control plane
  // dominates — a flash crowd, two outages, four mobility walkers driving
  // handover, retries of everything refused or evicted.
  // Smoke keeps the fleet size and shortens the horizon by the full 20x.
  ScenarioConfig scenario;
  scenario.horizon = 60000 / (slot_div * session_div);
  scenario.base_rate = 0.93;
  scenario.mean_duration = 150.0;
  scenario.max_duration = 400;
  scenario.profile_count = profiles.size();
  scenario.seed = seed;
  scenario.spike_duration = 80;
  scenario.spike_multiplier = 8.0;
  plan.trace = FlashCrowdScenario(scenario).generate();

  FaultPlanConfig faults;
  faults.seed = seed ^ 0x0FA017ULL;
  faults.link_count = kLinks;
  faults.horizon = scenario.horizon;
  faults.warmup = scenario.horizon / 4;
  faults.outages = 2;
  faults.walkers = 4;
  plan.config.faults = make_fault_plan(faults);

  cluster.serving.policy = SchedulerPolicy::kDeficitRoundRobin;
  cluster.serving.steps = scenario.horizon;
  cluster.handover.enabled = true;
  cluster.handover.delay_weight = 0.1;
  cluster.handover.rebalance_on_departure = true;
  plan.config.driver.snapshot_period = 50;
  plan.config.driver.slo = tight_slos();
  plan.config.driver.retry.enabled = true;
  // The base fleet fits with a quarter to spare; the spike, the outages
  // and the degraded links do not.
  const double base_concurrency = scenario.base_rate * 140.0;
  plan.link_capacity = 1.5 * base_concurrency /
                       static_cast<double>(kLinks) * mean_load;
  plan.slot_hint = scenario.horizon + scenario.max_duration + 1;
  return plan;
}

// ------------------------------------------------------------ outputs --

/// FNV-1a over each session's link and its per-slot depth, service and
/// backlog_end: equal digests mean the same decisions, shares and queues.
std::uint64_t output_digest(const ClusterResult& result) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](const void* data, std::size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= bytes[i];
      h *= 0x100000001b3ULL;
    }
  };
  for (const ClusterSessionOutcome& s : result.sessions) {
    mix(&s.link, sizeof s.link);
    for (const StepRecord& step : s.session.trace.steps()) {
      mix(&step.depth, sizeof step.depth);
      mix(&step.service, sizeof step.service);
      mix(&step.backlog_end, sizeof step.backlog_end);
    }
  }
  return h;
}

/// Nearest-rank percentile of ascending `sorted`; 0 when empty.
template <class T>
double nearest_rank(const std::vector<T>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return static_cast<double>(sorted[std::max<std::size_t>(rank, 1) - 1]);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// The simulated statistics a user of the runtime sees.
struct Outcome {
  double quality = 0.0;
  double delay_p95_slots = 0.0;
  std::size_t attempts = 0;
  std::size_t failed = 0;
  double session_slots = 0.0;
};

Outcome outcome_of(const ClusterResult& result) {
  Outcome out;
  out.quality = result.metrics.fleet.mean_quality;
  std::vector<double> delays;
  for (const ClusterSessionOutcome& s : result.sessions) {
    out.session_slots += static_cast<double>(s.session.trace.size());
    if (!s.arrived) continue;
    ++out.attempts;
    if (!s.session.admitted || s.fault_evicted) ++out.failed;
    if (!s.session.admitted) continue;
    // Little's law per session: mean queue over mean service rate.
    double backlog = 0.0;
    double service = 0.0;
    for (const StepRecord& step : s.session.trace.steps()) {
      backlog += step.backlog_end;
      service += step.service;
    }
    if (service > 0.0) delays.push_back(backlog / service);
  }
  std::sort(delays.begin(), delays.end());
  out.delay_p95_slots = nearest_rank(delays, 95.0);
  return out;
}

bool books_balance(const ClusterMetrics& m) {
  return m.failover_displaced ==
             m.failover_replaced + m.fault_evicted + m.fault_closed &&
         m.migrations_requested ==
             m.migrations_completed + m.migrations_aborted;
}

// ---------------------------------------------------------- repetition --

struct Metric {
  const char* name;
  double value;
  const char* unit;
};
using Metrics = std::vector<Metric>;

struct Rep {
  double setup_s = 0.0;
  double run_s = 0.0;     // EventLoop::run + EdgeCluster::finish
  double finish_s = 0.0;  // EdgeCluster::finish alone
  std::size_t slots_executed = 0;
  std::size_t events = 0;  // calendar events the report accounts for
  std::uint64_t digest = 0;
  Outcome outcome;
  ClusterMetrics metrics;
  std::size_t retries_scheduled = 0;
  // Host time per executed step_slot(), this repetition's percentiles (us).
  std::size_t slot_samples = 0;
  double slot_p50_us = 0.0;
  double slot_p95_us = 0.0;
  double slot_p99_us = 0.0;
  // Traced only.
  std::uint64_t spans_dropped = 0;
  double decide_ns = 0.0;
  Metrics layers;
  Metrics phases;  // ns per session·slot; they sum to the traced run

  [[nodiscard]] double ns_per_session_slot() const {
    return run_s * 1e9 / outcome.session_slots;
  }
};

struct RepOptions {
  std::string workload;
  std::uint64_t seed = 42;
  bool smoke = false;
  bool traced = false;
  std::size_t threads_override = 0;  // 0 = the workload's own
  std::size_t tracer_capacity = 0;
};

/// Sums of span durations per phase on the link lanes and the cluster lane
/// (the driver lane's time is measured by the decorator instead).
struct SpanTotals {
  std::array<double, kPhaseCount> link{};
  std::array<double, kPhaseCount> cluster{};

  [[nodiscard]] double on_links(Phase p) const {
    return link[static_cast<std::size_t>(p)];
  }
  [[nodiscard]] double on_cluster(Phase p) const {
    return cluster[static_cast<std::size_t>(p)];
  }
};

SpanTotals span_totals(const PhaseTracer& tracer) {
  SpanTotals totals;
  for (std::size_t i = 0; i < tracer.size(); ++i) {
    const SpanRecord& r = tracer.at(i);
    const auto p = static_cast<std::size_t>(r.phase);
    const auto dur = static_cast<double>(r.dur_ns);
    if (r.tid == kClusterTid) {
      totals.cluster[p] += dur;
    } else if (r.tid != kDriverTid) {
      totals.link[p] += dur;
    }
  }
  return totals;
}

double link_counter_sum(const TelemetryRegistry& reg,
                        const std::string& suffix) {
  double total = 0.0;
  for (std::size_t k = 0; k < kLinks; ++k) {
    const std::string name = "link" + std::to_string(k) + "/" + suffix;
    if (const TelemetryCounter* c = reg.find_counter(name)) {
      total += static_cast<double>(c->value());
    }
  }
  return total;
}

double link_histogram_sum(const TelemetryRegistry& reg,
                          const std::string& suffix) {
  double total = 0.0;
  for (std::size_t k = 0; k < kLinks; ++k) {
    const std::string name = "link" + std::to_string(k) + "/" + suffix;
    if (const TelemetryHistogram* h = reg.find_histogram(name)) {
      total += h->sum();
    }
  }
  return total;
}

/// Fills the traced repetition's per-layer metrics and phase split from the
/// decorator's call buckets, the span ring and the registry counters.
void measure_layers(Rep& rep, const TimedBackend& backend,
                    const PhaseTracer& tracer, const TelemetryRegistry& reg,
                    double loop_ns, std::size_t threads) {
  const SpanTotals spans = span_totals(tracer);
  const double slots = static_cast<double>(rep.slots_executed);
  const double ss = rep.outcome.session_slots;
  const double begin = spans.on_links(Phase::kBeginSlot);
  const double decide =
      spans.on_links(Phase::kDecide) + spans.on_cluster(Phase::kDecide);
  const double schedule = spans.on_links(Phase::kSchedule);
  const double drain = spans.on_links(Phase::kDrain);
  const double place = spans.on_cluster(Phase::kPlace);
  const auto ns_of = [&](TimedBackend::Call c) {
    return static_cast<double>(backend.bucket(c).ns);
  };
  const auto calls_of = [&](TimedBackend::Call c) {
    return static_cast<double>(backend.bucket(c).calls);
  };
  const double step = ns_of(TimedBackend::kStep);
  const double calls = static_cast<double>(backend.total_call_ns());
  const double other = step - begin - decide - schedule - drain - place;
  const double finish_ns = rep.finish_s * 1e9;
  const ClusterMetrics& m = rep.metrics;

  double accepted = 0.0;
  double attempts = 0.0;
  for (const AdmissionStats& a : m.per_link_admission) {
    accepted += static_cast<double>(a.accepted);
    attempts += static_cast<double>(a.attempts);
  }
  const double groups = link_histogram_sum(reg, "decide_groups");
  const double active = link_histogram_sum(reg, "active_sessions");
  const double reuses = link_counter_sum(reg, "decide_group_reuses");
  const double rebuilds = link_counter_sum(reg, "decide_group_rebuilds");
  const double fast = link_counter_sum(reg, "scheduler_fast_path");
  const double generic = link_counter_sum(reg, "scheduler_generic");
  const TelemetryHistogram* batches =
      reg.find_histogram("driver/event_batch_size");
  // The threaded decide fan-out evaluates every session on its own: one key
  // per session and no memo reuse, by construction (the memo counters only
  // tick on the serial engine).
  const bool memo = threads == 1;

  rep.decide_ns = decide;
  rep.layers = {
      {"driver.self_ns_per_slot", ratio(loop_ns - calls, slots), "ns"},
      {"driver.events_per_slot",
       ratio(batches != nullptr ? batches->sum() : 0.0, slots),
       "events/slot"},
      {"driver.retries_scheduled", static_cast<double>(rep.retries_scheduled),
       "count"},
      {"cluster.step_ns_per_slot", ratio(step, slots), "ns"},
      {"cluster.place_ns_per_slot", ratio(place, slots), "ns"},
      {"cluster.other_ns_per_slot", ratio(other, slots), "ns"},
      {"cluster.submit_ns",
       ratio(ns_of(TimedBackend::kSubmit), calls_of(TimedBackend::kSubmit)),
       "ns"},
      {"cluster.fault_apply_ns",
       ratio(ns_of(TimedBackend::kFault), calls_of(TimedBackend::kFault)),
       "ns"},
      {"cluster.fault_events", calls_of(TimedBackend::kFault), "count"},
      {"cluster.spill_ratio",
       ratio(static_cast<double>(m.spills),
             static_cast<double>(m.fleet.sessions_admitted)),
       "ratio"},
      {"cluster.failover_displaced", static_cast<double>(m.failover_displaced),
       "count"},
      {"cluster.migrations_completed",
       static_cast<double>(m.migrations_completed), "count"},
      {"session_manager.begin_slot_ns_per_session_slot", ratio(begin, ss),
       "ns"},
      {"session_manager.drain_ns_per_session_slot", ratio(drain, ss), "ns"},
      {"admission.accept_ratio", ratio(accepted, attempts), "ratio"},
      {"session_store.decide_ns_per_session_slot", ratio(decide, ss), "ns"},
      {"session_store.decide_keys_per_session",
       memo ? ratio(groups, active) : 1.0, "keys/session"},
      {"session_store.decide_reuse_ratio",
       memo ? ratio(reuses, reuses + rebuilds) : 0.0, "ratio"},
      {"scheduler.schedule_ns_per_session_slot", ratio(schedule, ss), "ns"},
      {"scheduler.fast_path_ratio", ratio(fast, fast + generic), "ratio"},
      {"metrics.finish_ms", rep.finish_s * 1e3, "ms"},
      {"telemetry.snapshot_ns",
       ratio(ns_of(TimedBackend::kSample) + ns_of(TimedBackend::kSampleSlo),
             calls_of(TimedBackend::kSample)),
       "ns"},
  };
  rep.phases = {
      {"driver", ratio(loop_ns - calls, ss), "ns"},
      {"backend_calls", ratio(calls - step, ss), "ns"},
      {"place", ratio(place, ss), "ns"},
      {"begin_slot", ratio(begin, ss), "ns"},
      {"decide", ratio(decide, ss), "ns"},
      {"schedule", ratio(schedule, ss), "ns"},
      {"drain", ratio(drain, ss), "ns"},
      {"step_other", ratio(other, ss), "ns"},
      {"finish", ratio(finish_ns, ss), "ns"},
  };
}

Rep run_rep(const RepOptions& opt) {
  Rep rep;
  const Clock::time_point t0 = Clock::now();

  // Set-up: everything replay_trace does before EventLoop::run.
  const Profiles profiles = build_profiles(opt.smoke);
  const std::vector<const FrameStatsCache*> ptrs = profile_ptrs(profiles);
  Plan plan = make_plan(opt.workload, opt.seed, opt.smoke, ptrs);
  if (opt.threads_override != 0) {
    plan.config.cluster.serving.threads = opt.threads_override;
  }
  const std::size_t threads = plan.config.cluster.serving.threads;
  std::unique_ptr<TelemetryRegistry> registry;
  std::unique_ptr<PhaseTracer> tracer;
  if (opt.traced) {
    registry = std::make_unique<TelemetryRegistry>();
    TracerConfig tc;
    tc.capacity = opt.tracer_capacity;
    tracer = std::make_unique<PhaseTracer>(tc);
    TelemetryConfig tel;
    tel.mode = TelemetryMode::kFullTrace;
    tel.registry = registry.get();
    tel.tracer = tracer.get();
    plan.config.cluster.serving.telemetry = tel;
    plan.config.driver.telemetry = tel;
  }
  std::vector<ConstantChannel> channels(kLinks,
                                        ConstantChannel(plan.link_capacity));
  std::vector<ChannelModel*> links;
  for (ConstantChannel& c : channels) links.push_back(&c);
  const std::vector<double> means = validated_channel_means(links, "arvis_perf");
  if (const Status s = validate_workload_trace(plan.trace, ptrs.size());
      !s.ok()) {
    throw std::invalid_argument("arvis_perf: " + s.message());
  }
  if (const Status s = validate_fault_plan(plan.config.faults, means.size());
      !s.ok()) {
    throw std::invalid_argument("arvis_perf: " + s.message());
  }
  EdgeCluster cluster(plan.config.cluster, means);
  ClusterBackend inner(cluster, links);
  TimedBackend backend(inner, opt.traced, plan.slot_hint);
  EventLoop loop(plan.config.driver, backend);
  loop.reserve(plan.trace.events.size());
  for (std::size_t i = 0; i < plan.trace.events.size(); ++i) {
    const TraceEvent& event = plan.trace.events[i];
    const SessionSpec spec = trace_session_spec(event, i, ptrs);
    loop.schedule_arrival(event.t_arrive, spec);
    if (spec.departure_slot != kNeverDeparts) {
      loop.schedule_departure_marker(spec.departure_slot);
    }
    if (event.t_close != 0) loop.schedule_close(event.t_close, i);
  }
  FaultPlan trace_faults;
  trace_faults.events = plan.trace.faults;
  loop.schedule_fault_plan(trace_faults);
  loop.schedule_fault_plan(plan.config.faults);
  if (plan.config.stop_slot != kNoSlot) {
    loop.schedule_stop(plan.config.stop_slot);
  }
  const Clock::time_point t1 = Clock::now();

  const DriverReport report = loop.run();
  const Clock::time_point t2 = Clock::now();
  const ClusterResult result = cluster.finish();
  const Clock::time_point t3 = Clock::now();

  rep.setup_s = seconds_between(t0, t1);
  rep.run_s = seconds_between(t1, t3);
  rep.finish_s = seconds_between(t2, t3);
  rep.slots_executed = report.slots_executed;
  rep.events = report.arrivals_injected + report.departure_markers +
               report.closes_applied + report.closes_ignored +
               report.snapshots.size() + report.faults_applied +
               report.faults_ignored + 1;
  rep.digest = output_digest(result);
  rep.outcome = outcome_of(result);
  rep.metrics = result.metrics;
  rep.retries_scheduled = report.retries_scheduled;

  std::vector<std::uint64_t> steps = backend.step_ns();
  std::sort(steps.begin(), steps.end());
  rep.slot_samples = steps.size();
  rep.slot_p50_us = nearest_rank(steps, 50.0) / 1e3;
  rep.slot_p95_us = nearest_rank(steps, 95.0) / 1e3;
  rep.slot_p99_us = nearest_rank(steps, 99.0) / 1e3;

  if (opt.traced) {
    rep.spans_dropped = tracer->dropped();
    measure_layers(rep, backend, *tracer, *registry,
                   static_cast<double>(ns_between(t1, t2)), threads);
  }
  return rep;
}

/// The library's own replay of the same inputs, for the decorator check.
std::uint64_t replay_digest(const RepOptions& opt) {
  const Profiles profiles = build_profiles(opt.smoke);
  const std::vector<const FrameStatsCache*> ptrs = profile_ptrs(profiles);
  const Plan plan = make_plan(opt.workload, opt.seed, opt.smoke, ptrs);
  std::vector<ConstantChannel> channels(kLinks,
                                        ConstantChannel(plan.link_capacity));
  std::vector<ChannelModel*> links;
  for (ConstantChannel& c : channels) links.push_back(&c);
  const ReplayResult result = replay_trace(plan.config, plan.trace, ptrs, links);
  return output_digest(result.cluster);
}

/// Tracer ring size that holds a whole repetition: per executed slot at
/// most four spans per link plus placement (twice), the threaded decide and
/// one driver batch; plus one batch per event and the links' finish spans.
std::size_t tracer_capacity_for(const Rep& warm) {
  return warm.slots_executed * (4 * kLinks + 4) + warm.events + kLinks + 64;
}

/// One per-repetition value of every repetition, in run order.
template <class Fn>
std::vector<double> samples_of(const std::vector<Rep>& reps, Fn&& value) {
  std::vector<double> values;
  values.reserve(reps.size());
  for (const Rep& r : reps) values.push_back(value(r));
  return values;
}

template <class Fn>
double median_of(const std::vector<Rep>& reps, Fn&& value) {
  return median(samples_of(reps, value));
}

template <class Fn>
double min_of(const std::vector<Rep>& reps, Fn&& value) {
  const std::vector<double> values = samples_of(reps, value);
  return *std::min_element(values.begin(), values.end());
}

/// Median of each named value of `pick(rep)` across the repetitions.
template <class Fn>
Metrics median_metrics(const std::vector<Rep>& reps, Fn&& pick) {
  Metrics out;
  const Metrics& first = pick(reps.front());
  for (std::size_t i = 0; i < first.size(); ++i) {
    out.push_back({first[i].name,
                   median_of(reps, [&](const Rep& r) { return pick(r)[i].value; }),
                   first[i].unit});
  }
  return out;
}

// ---------------------------------------------------------------- JSON --

class Json {
 public:
  void key(const std::string& k) {
    comma();
    out_ += '"' + k + "\":";
    pending_value_ = true;
  }
  void open(char c) {
    value_prefix();
    out_ += c;
    first_ = true;
  }
  void close(char c) {
    out_ += c;
    first_ = false;
  }
  void num(double v) {
    value_prefix();
    if (!std::isfinite(v)) {
      out_ += "null";
    } else {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.17g", v);
      out_ += buf;
    }
  }
  void str(const std::string& v) {
    value_prefix();
    out_ += '"' + v + '"';
  }
  void boolean(bool v) {
    value_prefix();
    out_ += v ? "true" : "false";
  }
  void field(const std::string& k, double v) {
    key(k);
    num(v);
  }
  void field(const std::string& k, const std::string& v) {
    key(k);
    str(v);
  }
  void field(const std::string& k, bool v) {
    key(k);
    boolean(v);
  }
  void metrics(const std::string& k, const Metrics& metrics) {
    key(k);
    open('{');
    for (const Metric& m : metrics) {
      key(m.name);
      open('{');
      field("value", m.value);
      field("unit", std::string(m.unit));
      close('}');
    }
    close('}');
  }
  void array(const std::string& k, const std::vector<double>& values) {
    key(k);
    open('[');
    for (double v : values) num(v);
    close(']');
  }
  [[nodiscard]] const std::string& text() const noexcept { return out_; }

 private:
  // A value right after its key takes no comma; an array element does.
  void value_prefix() {
    if (!pending_value_) comma();
    pending_value_ = false;
    first_ = false;
  }
  void comma() {
    if (!first_) out_ += ',';
    first_ = false;
  }
  std::string out_;
  bool first_ = true;
  bool pending_value_ = false;
};

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 0.0;
  bool traced = false;
  bool smoke = false;
};

int usage(const std::string& msg) {
  std::fprintf(stderr,
               "arvis_perf: %s\nusage: arvis_perf --workload "
               "dense|dense_t4|churn|chaos [--seed N] [--seconds S] "
               "[--trace] [--smoke]\n",
               msg.c_str());
  return 2;
}

/// Calls `one_rep` until `seconds` have passed and it ran `min_reps` times.
template <class Fn>
void run_for(double seconds, std::size_t min_reps, Fn&& one_rep) {
  const Clock::time_point start = Clock::now();
  for (std::size_t n = 0;
       n < min_reps || seconds_between(start, Clock::now()) < seconds; ++n) {
    one_rep();
  }
}

// ----------------------------------------------------------------- modes --

int run_untraced(const Args& args) {
  RepOptions opt;
  opt.workload = args.workload;
  opt.seed = args.seed;
  opt.smoke = args.smoke;

  const Rep warm = run_rep(opt);
  std::vector<Rep> reps;
  run_for(args.seconds, args.smoke ? 1 : 5,
          [&] { reps.push_back(run_rep(opt)); });
  const double rss = peak_rss_mb();

  // Correctness: every repetition reproduces the warm-up bit for bit, the
  // library's replay_trace produces the same outputs as the decorated path,
  // and a threaded workload matches its serial twin.
  bool stable = true;
  bool books = books_balance(warm.metrics);
  std::size_t failed = books ? 0 : 1;
  for (const Rep& r : reps) {
    const bool same = r.digest == warm.digest;
    const bool balanced = books_balance(r.metrics);
    stable = stable && same;
    books = books && balanced;
    if (!same || !balanced) ++failed;
  }
  const bool replay_match = replay_digest(opt) == warm.digest;
  bool serial_match = true;
  if (args.workload == "dense_t4") {
    RepOptions serial = opt;
    serial.threads_override = 1;
    serial_match = run_rep(serial).digest == warm.digest;
  }
  // The chaos workload exists to exercise failover and migration; a seed
  // that does neither would measure nothing it claims to.
  bool active_fault_plane = true;
  if (args.workload == "chaos") {
    active_fault_plane = warm.metrics.failover_displaced > 0 &&
                         warm.metrics.migrations_completed > 0;
  }
  const bool correct = stable && books && replay_match && serial_match &&
                       active_fault_plane;

  const Outcome& o = warm.outcome;
  const double failed_ratio = ratio(static_cast<double>(o.failed),
                                    static_cast<double>(o.attempts));
  std::size_t slot_samples = 0;
  for (const Rep& r : reps) slot_samples += r.slot_samples;
  // Run timings are taken from the fastest timed repetition, each slot
  // percentile from the repetition where it is lowest. Other tenants of a
  // shared host only ever add time, in episodes of tens of milliseconds to
  // minutes; across processes the per-repetition minimum spreads 4-11%
  // where the median spreads up to 39% (perf/README.md, "Noise").
  const Metrics e2e = {
      {"ns_per_session_slot",
       min_of(reps, [](const Rep& r) { return r.ns_per_session_slot(); }),
       "ns"},
      {"slot_p50_us", min_of(reps, [](const Rep& r) { return r.slot_p50_us; }),
       "us"},
      {"slot_p95_us", min_of(reps, [](const Rep& r) { return r.slot_p95_us; }),
       "us"},
      {"setup_s", median_of(reps, [](const Rep& r) { return r.setup_s; }), "s"},
      {"peak_rss_mb", rss, "MB"},
      {"quality_time_avg", o.quality, "1"},
      {"delay_p95_slots", o.delay_p95_slots, "slots"},
      {"served_ratio", 1.0 - failed_ratio, "1"},
  };
  const Metrics ungated = {
      {"slot_p99_us", min_of(reps, [](const Rep& r) { return r.slot_p99_us; }),
       "us"},
      {"failed_ratio", failed_ratio, "1"},
      {"run_s", median_of(reps, [](const Rep& r) { return r.run_s; }), "s"},
  };

  Json j;
  j.open('{');
  j.field("workload", args.workload);
  j.field("mode", std::string("untraced"));
  j.field("seed", static_cast<double>(args.seed));
  j.field("smoke", args.smoke);
  j.field("threads", args.workload == "dense_t4" ? 4.0 : 1.0);
  j.field("digest", hex(warm.digest));
  j.field("reps_warmup", 1.0);
  j.field("reps_timed", static_cast<double>(reps.size()));
  j.field("slot_samples", static_cast<double>(slot_samples));
  j.field("slots_per_rep", static_cast<double>(warm.slot_samples));
  j.field("session_slots", o.session_slots);
  j.field("arrived_attempts", static_cast<double>(o.attempts));
  j.metrics("metrics", e2e);
  j.metrics("ungated", ungated);
  j.key("samples");
  j.open('{');
  j.array("setup_s", samples_of(reps, [](const Rep& r) { return r.setup_s; }));
  j.array("run_s", samples_of(reps, [](const Rep& r) { return r.run_s; }));
  j.array("ns_per_session_slot",
          samples_of(reps, [](const Rep& r) { return r.ns_per_session_slot(); }));
  j.array("slot_p50_us",
          samples_of(reps, [](const Rep& r) { return r.slot_p50_us; }));
  j.array("slot_p95_us",
          samples_of(reps, [](const Rep& r) { return r.slot_p95_us; }));
  j.close('}');
  j.key("checks");
  j.open('{');
  j.field("digest_stable", stable);
  j.field("replay_trace_match", replay_match);
  j.field("serial_twin_match", serial_match);
  j.field("books_balance", books);
  j.field("fault_plane_active", active_fault_plane);
  j.close('}');
  j.field("correct", correct);
  j.field("attempted", static_cast<double>(reps.size() + 1));
  j.field("failed", static_cast<double>(failed));
  j.close('}');
  std::printf("%s\n", j.text().c_str());
  return 0;
}

int run_traced(const Args& args) {
  RepOptions opt;
  opt.workload = args.workload;
  opt.seed = args.seed;
  opt.smoke = args.smoke;

  const Rep warm = run_rep(opt);
  RepOptions traced = opt;
  traced.traced = true;
  traced.tracer_capacity = tracer_capacity_for(warm);

  std::vector<Rep> plain, with_trace;
  run_for(args.seconds, args.smoke ? 1 : 3, [&] {
    plain.push_back(run_rep(opt));
    with_trace.push_back(run_rep(traced));
  });

  std::size_t failed = 0;
  bool stable = true;
  bool traced_equal = true;
  bool books = true;
  std::uint64_t dropped = 0;
  for (const Rep& r : plain) {
    const bool same = r.digest == warm.digest;
    stable = stable && same;
    if (!same) ++failed;
  }
  for (const Rep& r : with_trace) {
    const bool same = r.digest == warm.digest;
    const bool balanced = books_balance(r.metrics);
    traced_equal = traced_equal && same;
    books = books && balanced;
    dropped = std::max(dropped, r.spans_dropped);
    if (!same || !balanced) ++failed;
  }

  Metrics layers =
      median_metrics(with_trace, [](const Rep& r) -> const Metrics& {
        return r.layers;
      });
  const Metrics phases =
      median_metrics(with_trace, [](const Rep& r) -> const Metrics& {
        return r.phases;
      });
  const double traced_decide =
      median_of(with_trace, [](const Rep& r) { return r.decide_ns; });
  // Decide speedup of this workload's executor over a serial decide on the
  // same inputs (1 for a serial workload).
  double speedup = 1.0;
  const bool threaded = args.workload == "dense_t4";
  if (threaded) {
    RepOptions serial = traced;
    serial.threads_override = 1;
    const Rep twin = run_rep(serial);
    traced_equal = traced_equal && twin.digest == warm.digest;
    speedup = ratio(twin.decide_ns, traced_decide);
  }
  const double plain_run =
      median_of(plain, [](const Rep& r) { return r.run_s; });
  const double traced_run =
      median_of(with_trace, [](const Rep& r) { return r.run_s; });
  layers.push_back({"executor.decide_speedup", speedup, "ratio"});
  layers.push_back(
      {"trace.overhead_pct", 100.0 * (traced_run / plain_run - 1.0), "%"});
  layers.push_back(
      {"trace.spans_dropped", static_cast<double>(dropped), "count"});
  const bool correct = stable && traced_equal && books && dropped == 0;

  Json j;
  j.open('{');
  j.field("workload", args.workload);
  j.field("mode", std::string("traced"));
  j.field("seed", static_cast<double>(args.seed));
  j.field("smoke", args.smoke);
  j.field("digest", hex(warm.digest));
  j.field("reps_warmup", 1.0);
  j.field("reps_untraced", static_cast<double>(plain.size()));
  j.field("reps_traced", static_cast<double>(with_trace.size()));
  j.field("tracer_capacity", static_cast<double>(traced.tracer_capacity));
  j.metrics("metrics", layers);
  j.metrics("phase_ns_per_session_slot", phases);
  j.key("samples");
  j.open('{');
  j.array("untraced_run_s",
          samples_of(plain, [](const Rep& r) { return r.run_s; }));
  j.array("traced_run_s",
          samples_of(with_trace, [](const Rep& r) { return r.run_s; }));
  j.close('}');
  j.key("checks");
  j.open('{');
  j.field("digest_stable", stable);
  j.field("traced_equals_untraced", traced_equal);
  j.field("books_balance", books);
  j.field("spans_dropped_zero", dropped == 0);
  j.close('}');
  j.field("correct", correct);
  j.field("attempted", static_cast<double>(plain.size() + with_trace.size() +
                                           (threaded ? 2 : 1)));
  j.field("failed", static_cast<double>(failed));
  j.close('}');
  std::printf("%s\n", j.text().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      args.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace") {
      args.traced = true;
    } else if (a == "--smoke") {
      args.smoke = true;
    } else {
      return usage("unknown argument " + a);
    }
  }
  if (!known_workload(args.workload)) return usage("unknown workload");
  if (!(args.seconds >= 0.0) || !std::isfinite(args.seconds)) {
    return usage("--seconds must be a finite number >= 0");
  }
  try {
    return args.traced ? run_traced(args) : run_untraced(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "arvis_perf: %s\n", e.what());
    return 1;
  }
}

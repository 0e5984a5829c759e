// EventLoop: the event-driven workload engine on top of the serving phase
// API.
//
// PR 1–2 could only run fixed-horizon scenarios: every session declared up
// front, the loop stepping a preordained number of slots. The paper's edge
// server faces the opposite regime — open-loop, bursty, unpredictable churn
// with no natural horizon. The EventLoop closes that gap with a calendar
// queue of timed events:
//
//   arrival    inject a SessionSpec into the runtime at its slot
//   departure  marker mirroring a known departure (the close itself runs
//              inside the runtime via SessionSpec::departure_slot; the
//              marker keeps the calendar observable and counted)
//   snapshot   periodic metrics sample (re-arms itself every period)
//   close      external-close control: cancel one session mid-stream (a
//              trace can express abandonment — the session departs at the
//              event's slot instead of its declared departure)
//   fault      one FaultEvent of a FaultPlan, handed to the backend whole
//   control    stop the run before a given slot (the fixed-horizon mode)
//
// The calendar is a bucketed calendar queue keyed by slot (see
// calendar.hpp): event push and pop are O(1) amortized under heavy churn,
// where the old std::priority_queue paid O(log n) heap percolations per
// event. Every arrival, scheduled or retried, is a calendar event.
//
// The loop advances the runtime slot-by-slot only while work exists (active
// sessions, or arrivals due now). Across idle stretches it fast-forwards the
// slot clock to the next event instead of burning capacity draws on empty
// slots — an event-driven server does not spin while nobody streams. Busy
// stretches fast-forward too: the loop computes how many slots separate now
// from the next calendar event and hands the whole stretch to the
// backend as one burst (ServingBackend::step_slots), so the loop's per-slot
// event bookkeeping drops out of busy stretches. With skip_idle off and a
// stop event armed it degenerates to exactly the old fixed-horizon loop,
// which is how run_cluster_scenario is implemented (bit-for-bit, tested):
// one execution path, two driving styles.
//
// The loop reaches the runtime through ServingBackend. The runtime is an
// EdgeCluster (a one-link server is K = 1), adapted by ClusterBackend;
// decorators such as perf/'s timing backend wrap that adapter.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/csv.hpp"
#include "net/channel.hpp"
#include "serving/cluster.hpp"
#include "serving/driver/calendar.hpp"
#include "serving/driver/fault.hpp"

namespace arvis {

/// "No such slot" sentinel (events, pending arrivals, stop slots).
inline constexpr std::size_t kNoSlot = kNeverDeparts;

/// Capped-exponential-backoff retry for sessions the runtime refused or an
/// outage evicted. A rejected session re-enters the arrival stream after
/// min(max_backoff_slots, base_backoff_slots << attempt) plus a deterministic
/// jitter drawn from (seed, session id, attempt) — so a flash crowd hitting
/// an outage produces a reproducible retry storm, not a thundering herd of
/// identical delays and not run-to-run noise.
struct RetryConfig {
  bool enabled = false;
  /// Re-submissions per session lineage; the original arrival is attempt 0.
  std::uint32_t max_attempts = 3;
  /// Delay before the first retry (slots, >= 1).
  std::size_t base_backoff_slots = 2;
  /// Exponential growth cap (slots).
  std::size_t max_backoff_slots = 64;
  /// Jitter added on top, uniform in [0, jitter_slots].
  std::size_t jitter_slots = 2;
  std::uint64_t seed = 0x5EEDB0FFULL;
};

struct DriverConfig {
  /// Slots between periodic metrics snapshots (0 = none). Snapshots fire on
  /// the calendar, so an idle gap still produces its regularly spaced
  /// samples (with zero activity) — time series stay rectangular.
  std::size_t snapshot_period = 0;
  /// Fast-forward the slot clock across idle stretches. Off reproduces the
  /// dense fixed-horizon loop: every slot executes and draws capacity.
  bool skip_idle = true;
  /// Safety valve for open-ended runs (e.g. a trace with a never-departing
  /// session and no stop event): the loop stops after this many *executed*
  /// slots and flags the report. kNoSlot = uncapped.
  std::size_t max_slots = 1'000'000;
  /// Driver-level observability: event-batch spans on the kDriverTid lane
  /// and "driver/..." counters (event mix, slots executed/skipped, calendar
  /// health), flushed at end of run. Independent of the runtime's own
  /// ServingConfig::telemetry — point both at the same registry/tracer for
  /// one combined view.
  TelemetryConfig telemetry;
  /// Declarative SLOs, evaluated at every snapshot (so they need
  /// snapshot_period > 0 to ever fire). Empty specs = SLO engine off — the
  /// loop then never samples SLO observations at all. Breach/blip/recovery
  /// transitions land in the report, bump "slo/<name>/..." counters (when
  /// telemetry counters are on), emit log_warn lines, record flight events,
  /// and — on a transition INTO breach, when SloConfig::black_box_path is
  /// set — auto-dump the flight recorder's black box.
  SloConfig slo;
  /// When non-empty, the loop rewrites this file at every snapshot with a
  /// small JSON live-status object (slot, active sessions, window
  /// utilization, per-spec SLO standing) — written to "<path>.tmp" then
  /// renamed, so watchers (tools/arvis_top.py) never read a torn file.
  std::string live_stats_path;
  /// Free-form run description echoed into black boxes and live stats
  /// (must be valid JSON when non-empty, e.g. "{\"run\":\"flash-crowd\"}").
  std::string config_echo;
  /// Retry/backoff loop for refused and fault-evicted sessions.
  RetryConfig retry;
};

/// One periodic sample of the runtime's running counters. Counter fields are
/// cumulative since the start of the run; window fields cover the stretch
/// since the previous snapshot.
struct MetricsSnapshot {
  /// Slots completed when the sample was taken.
  std::size_t slot = 0;
  std::size_t active_sessions = 0;
  /// Sessions placed on a link at arrival so far (EdgeCluster::placed()).
  std::size_t admitted_total = 0;
  /// Sessions refused outright so far (cluster: refused by every link
  /// offered, i.e. placement rejects — per-link spill refusals that were
  /// later rescued do not count).
  std::size_t rejected_total = 0;
  double capacity_offered_total = 0.0;
  double capacity_used_total = 0.0;
  /// Capacity offered over the window since the previous snapshot. Keeps
  /// "idle window" (0 offered) distinguishable from "saturated at zero
  /// utilization" in the exported table.
  double window_offered_bytes = 0.0;
  /// used / offered over the window since the previous snapshot (0 when the
  /// window offered nothing, e.g. an idle gap).
  double window_utilization = 0.0;
  /// Jain fairness of per-link capacity_used over the window (1.0 for a
  /// single link or an idle window).
  double link_load_fairness = 1.0;
};

/// What one EventLoop::run produced, besides the backend's own results.
struct DriverReport {
  std::vector<MetricsSnapshot> snapshots;
  /// Runtime id each arrival event received when it fired, kNoSlot when it
  /// never fired: the scheduled arrivals in schedule order, then the retry
  /// arrivals in the order the loop scheduled them. Retries take the next
  /// id as they fire, so a schedule position is not an id once one fires.
  std::vector<std::size_t> arrival_ids;
  std::size_t slots_executed = 0;
  /// Idle slots fast-forwarded (0 when skip_idle is off).
  std::size_t slots_skipped = 0;
  std::size_t arrivals_injected = 0;
  std::size_t departure_markers = 0;
  /// Close events that ended or cancelled a live session.
  std::size_t closes_applied = 0;
  /// Close events whose target was unknown or already gone (a trace may
  /// legitimately close a session the runtime already refused or retired).
  std::size_t closes_ignored = 0;
  /// True when DriverConfig::max_slots ended the run.
  bool hit_slot_cap = false;
  /// Fault events the backend accepted / refused. The per-kind mix and the
  /// failover/migration books live in ClusterMetrics.
  std::size_t faults_applied = 0;
  std::size_t faults_ignored = 0;
  /// Retry arrivals scheduled from the backend's feed, and seeds dropped
  /// because the lineage ran out of attempts or lifetime (including seeds
  /// still pending when the run ended).
  std::size_t retries_scheduled = 0;
  std::size_t retries_abandoned = 0;
  /// Every SLO state transition the monitor observed, oldest first (empty
  /// when DriverConfig::slo has no specs), plus the specs they index —
  /// copied from the config so the report is self-contained.
  std::vector<SloTransition> slo_transitions;
  std::vector<SloSpec> slo_specs;
  /// Transitions INTO breach / INTO blip, respectively.
  std::uint64_t slo_breaches = 0;
  std::uint64_t slo_blips = 0;

  /// The SLO transition log as CSV (slot, spec, from, to, fast, slow,
  /// threshold).
  [[nodiscard]] CsvTable slo_table() const {
    return slo_transitions_table(slo_specs, slo_transitions);
  }

  /// Snapshot time series as CSV (slot, active, admitted, rejected,
  /// offered, used, window_utilization, link_fairness, offered_bytes —
  /// the last column is the *window's* offered capacity, so tooling can
  /// tell an idle window from a saturated one when utilization reads 0).
  [[nodiscard]] CsvTable snapshot_table() const;
};

/// Cumulative fault-plane books a backend surfaces mid-run, sampled for live
/// stats at every snapshot so watchers see handover traffic next to the
/// failover books it extends.
using FaultPlaneSample = FaultBooks;

/// The slice of the serving runtime the EventLoop needs. Implementations own
/// nothing — they adapt a caller-owned runtime + channel streams.
class ServingBackend {
 public:
  virtual ~ServingBackend() = default;

  [[nodiscard]] virtual std::size_t slot() const = 0;
  [[nodiscard]] virtual std::size_t active_count() const = 0;
  /// Earliest internally pending arrival's due slot, kNoSlot when none.
  [[nodiscard]] virtual std::size_t next_pending_arrival_slot() const = 0;
  /// Registers a session and returns its runtime id (the id close events
  /// and retry seeds refer to).
  virtual std::size_t submit(const SessionSpec& spec) = 0;
  /// Executes one slot, drawing this slot's capacity from the channel(s).
  virtual void step_slot() = 0;
  /// External-close control: ends (or cancels, if still pending) the session
  /// with the given runtime id at the current slot. Returns false when the
  /// id is unknown or the session is already gone.
  virtual bool close_session(std::size_t session_id) = 0;
  /// Executes up to `max_slots` consecutive slots, stopping early when the
  /// runtime goes idle (nothing active, no internal arrival due). Returns
  /// the slots executed. The loop uses this to hand the backend whole
  /// event-free stretches in one call (busy fast-forward).
  std::size_t step_slots(std::size_t max_slots);
  /// Fast-forwards `slots` idle slots (precondition: nothing active).
  virtual void skip_idle_slots(std::size_t slots) = 0;
  /// Samples cumulative counters into `out` (slot/window fields are the
  /// loop's job) and per-link cumulative used bytes into `per_link_used`
  /// (resized; one entry per link).
  virtual void sample(MetricsSnapshot& out,
                      std::vector<double>& per_link_used) const = 0;
  /// Folds the runtime's SLO sample into `observation` (additive —
  /// merge_slo_sample semantics; see SessionManager::accumulate_slo).
  /// Non-const: the delay percentile uses the runtime's reusable scratch.
  virtual void sample_slo(SloObservation& observation) = 0;

  // -- Fault plane ---------------------------------------------------------
  /// Applies one fault event now: the loop's single entry point, which
  /// routes the event's kind to the per-kind hook below. False = bad input.
  bool apply_fault(const FaultEvent& fault);
  /// Per-kind hooks behind apply_fault (decorators override these to see
  /// every fault). False = bad input.
  virtual bool apply_link_state(std::size_t link, bool down) = 0;
  virtual bool apply_capacity_scale(std::size_t link, double scale) = 0;
  virtual bool apply_link_degrade(std::size_t link, double scale,
                                  double delay) = 0;
  /// Samples the runtime's cumulative fault-plane counters (failover +
  /// migration books).
  [[nodiscard]] virtual FaultPlaneSample sample_fault_plane() const = 0;
  /// Turns on retry-seed collection (refusals/evictions feed the driver).
  virtual void enable_retry_feed() = 0;
  [[nodiscard]] virtual bool retry_feed_pending() const = 0;
  /// Moves the pending seeds into `out` (appended) and clears the feed.
  virtual void take_retry_feed(std::vector<RetrySeed>& out) = 0;
};

/// Per-channel mean capacities (the admission calibration input), after
/// checking the set is non-empty and null-free. Throws std::invalid_argument
/// otherwise, prefixing messages with `who`. Shared by every driver entry
/// point that builds a cluster from a channel list.
std::vector<double> validated_channel_means(
    const std::vector<ChannelModel*>& channels, const char* who);

/// Adapts a K-link EdgeCluster + one capacity stream per link. Throws
/// std::invalid_argument when the channel count does not match the cluster's
/// link count or any channel is null.
class ClusterBackend final : public ServingBackend {
 public:
  ClusterBackend(EdgeCluster& cluster, std::vector<ChannelModel*> channels);

  [[nodiscard]] std::size_t slot() const override { return cluster_->slot(); }
  [[nodiscard]] std::size_t active_count() const override {
    return cluster_->active_count();
  }
  [[nodiscard]] std::size_t next_pending_arrival_slot() const override {
    return cluster_->next_pending_arrival_slot();
  }
  std::size_t submit(const SessionSpec& spec) override {
    return cluster_->submit(spec);
  }
  void step_slot() override;
  bool close_session(std::size_t session_id) override {
    return cluster_->request_close(session_id);
  }
  void skip_idle_slots(std::size_t slots) override {
    cluster_->skip_idle_slots(slots);
  }
  void sample(MetricsSnapshot& out,
              std::vector<double>& per_link_used) const override;
  void sample_slo(SloObservation& observation) override {
    cluster_->accumulate_slo(observation);
  }
  bool apply_link_state(std::size_t link, bool down) override {
    return apply(down ? FaultKind::kLinkDown : FaultKind::kLinkUp, link);
  }
  bool apply_capacity_scale(std::size_t link, double scale) override {
    return apply(FaultKind::kCapacityScale, link, scale);
  }
  bool apply_link_degrade(std::size_t link, double scale,
                          double delay) override {
    return apply(FaultKind::kLinkDegrade, link, scale, delay);
  }
  [[nodiscard]] FaultPlaneSample sample_fault_plane() const override {
    return cluster_->fault_books();
  }
  void enable_retry_feed() override { cluster_->enable_retry_feed(); }
  [[nodiscard]] bool retry_feed_pending() const override {
    return cluster_->retry_feed_pending();
  }
  void take_retry_feed(std::vector<RetrySeed>& out) override {
    cluster_->take_retry_feed(out);
  }

 private:
  /// Rebuilds the event for EdgeCluster::apply_fault (links past the
  /// event's 32-bit field are out of range for any cluster).
  bool apply(FaultKind kind, std::size_t link, double scale = 1.0,
             double delay = 0.0);

  EdgeCluster* cluster_;
  std::vector<ChannelModel*> channels_;
  std::vector<double> caps_;  // scratch reused across slots
};

/// The calendar-driven engine. Schedule events, then run() once; harvest
/// the runtime's results from the backend's underlying cluster afterwards
/// (cluster.finish()). Not thread-safe; one loop per run.
class EventLoop {
 public:
  /// The backend must outlive the loop.
  EventLoop(const DriverConfig& config, ServingBackend& backend);

  /// Pre-sizes the calendar and the arrival payload store for `arrivals`
  /// scheduled sessions (each may carry a departure marker), so a
  /// trace-sized scheduling burst never reallocates mid-push. Optional —
  /// the structures grow on demand either way.
  void reserve(std::size_t arrivals);

  /// Schedules a session arrival at `slot` (>= the backend's current slot).
  /// The spec's own arrival_slot should agree with `slot`; the runtime
  /// clamps late declarations to "arrives now" either way. A `close_slot`
  /// other than kNoSlot also schedules an external close (see
  /// schedule_close) of whatever runtime id this arrival receives when it
  /// fires; a close that fires before its arrival is ignored.
  void schedule_arrival(std::size_t slot, const SessionSpec& spec,
                        std::size_t close_slot = kNoSlot);

  /// Schedules a departure marker: counted in the report when the calendar
  /// passes it. The session's actual close runs inside the runtime.
  void schedule_departure_marker(std::size_t slot);

  /// Schedules an external-close control event: at `slot`, before the slot
  /// executes, session `session_id` (the runtime id submit() assigned) ends
  /// — its trace covers [arrival, slot) — or, if it has not been placed
  /// yet, is cancelled and reports as never-arrived. Lets a trace express
  /// mid-stream abandonment. Applied/ignored counts land in the report.
  /// Retry arrivals take runtime ids as they fire, so with retries on, a
  /// trace row's id is known only then: close rows through
  /// schedule_arrival's `close_slot` instead.
  void schedule_close(std::size_t slot, std::size_t session_id);

  /// Schedules a stop control event: the loop halts before executing `slot`
  /// (so exactly `slot` slots execute when counting from 0 and nothing is
  /// skipped). The earliest scheduled stop wins.
  void schedule_stop(std::size_t slot);

  /// Schedules every event of a fault plan, each at its own slot (it fires
  /// before the slot executes, like close events; same-slot events fire in
  /// plan order). The plan composes freely with scheduled arrivals and
  /// other plans. Whether the backend honours each event lands in the
  /// report's faults_applied / faults_ignored.
  void schedule_fault_plan(const FaultPlan& plan);

  /// Drives the backend until stopped, drained (no events, no pending
  /// arrivals, nothing active), or capped. Throws std::logic_error on a
  /// second call.
  DriverReport run();

 private:
  enum class EventKind : std::uint8_t {
    kArrival,
    kDeparture,
    kSnapshot,
    kClose,
    /// A close whose payload is an arrival's specs_ index, resolved through
    /// DriverReport::arrival_ids when it fires.
    kArrivalClose,
    kStop,
    kFault,
  };

  void push(std::size_t slot, EventKind kind, std::size_t payload);
  /// Guard-free enqueue for the loop's own mid-run pushes (retry
  /// arrivals); the public API goes through push().
  void push_event(std::size_t slot, EventKind kind, std::size_t payload);
  /// Converts the backend's pending retry seeds into future arrival events
  /// (capped exponential backoff + deterministic jitter) or abandons them.
  void drain_retry_feed(std::size_t now, DriverReport& report);
  void take_snapshot(std::size_t slot, DriverReport& report);
  /// SLO evaluation + live-stats rewrite, called from take_snapshot.
  void observe_slo(const MetricsSnapshot& snapshot);
  void write_live_stats(const MetricsSnapshot& snapshot);

  DriverConfig config_;
  ServingBackend* backend_;
  EventCalendar events_;
  std::vector<SessionSpec> specs_;  // arrival payloads
  /// Retry generation of each specs_ entry (0 = original arrival); parallel
  /// to specs_. A CalendarEvent carries one size_t payload, so the attempt
  /// rides here rather than in the event.
  std::vector<std::uint32_t> spec_attempt_;
  /// Fault payloads; kFault events index here.
  std::vector<FaultEvent> faults_;
  /// Runtime id -> retry generation, populated only for retried arrivals
  /// (attempt >= 1), so fault-free runs never touch it. Lets a seed for a
  /// rejected retry find its lineage depth.
  std::unordered_map<std::size_t, std::uint32_t> retry_attempt_;
  std::vector<RetrySeed> retry_scratch_;
  std::uint64_t seq_ = 0;
  /// Arrival events still queued. Snapshots re-arm themselves and markers
  /// are pure observations, so neither may keep the run alive; the loop is
  /// drained when nothing is active, nothing is pending, and this hits
  /// zero.
  std::size_t arrival_events_ = 0;
  /// Stop events still queued. In dense mode a stop *is* the horizon (empty
  /// slots execute up to it — the fixed-horizon contract); in idle-skip
  /// mode it is only a ceiling, so a drained run ends without waiting for
  /// it.
  std::size_t stop_events_ = 0;
  bool ran_ = false;
  // Previous snapshot's cumulative counters (window deltas).
  double prev_offered_ = 0.0;
  double prev_used_ = 0.0;
  std::vector<double> prev_per_link_used_;
  std::vector<CalendarEvent> due_;       // pop_due scratch
  std::vector<double> per_link_used_;    // scratch
  std::vector<double> window_per_link_;  // scratch
  // Telemetry (null unless DriverConfig::telemetry turns it on; see
  // session_manager.hpp for the cost model). Driver counters are flushed
  // once at end of run; the batch histogram records per non-empty batch.
  PhaseTracer* tracer_ = nullptr;
  TelemetryHistogram* h_batch_ = nullptr;
  /// Snapshot + SLO flight events on the kDriverTid lane (default-on; see
  /// TelemetryConfig::flight).
  FlightRecorder* flight_ = nullptr;
  /// Non-null iff DriverConfig::slo has specs. Snapshot cadence only.
  std::unique_ptr<SloMonitor> slo_;
  /// Per-spec "slo/<name>/breaches" / ".../blips" counters (empty unless
  /// counters are on and specs exist; registered once at construction).
  std::vector<TelemetryCounter*> c_slo_breach_;
  std::vector<TelemetryCounter*> c_slo_blip_;
};

}  // namespace arvis

// EdgeCluster: the serving runtime, over K independent links.
//
// The paper's controller is per-session; the serving runtime hosts it on K
// links. An EdgeCluster owns K per-link engines (SessionManager) — each with
// its own capacity stream, AdmissionController and EdgeScheduler — plus a
// PlacementPolicy that assigns every arriving session to a link. A session
// refused by its first-choice link may spill to the next-best link(s)
// before being refused outright. Once placed, a session lives entirely on
// its link: the paper's distributed-operation claim is untouched
// (controllers stay session-local; each link divides only its own capacity;
// the only new centralized act is the arrival-time placement).
//
// Cluster slot loop (EdgeCluster::step):
//   1. every link closes its departures (so arrivals see freed reservations
//      on any link);
//   2. the cluster places this slot's arrivals: rank links by the placement
//      policy, try admission in rank order (first choice, then up to
//      spill_limit spills), refuse when every tried link rejects; then
//      handover migrates sessions off degraded links, and each link
//      evaluates brownout on the slot's final reservations;
//   3. every link runs its slot work — decide, schedule and drain with its
//      own capacity draw (SessionManager::finish_slot) — as one
//      task on the cluster's deterministic ParallelExecutor. A link's task
//      touches only that link's state, so any thread count is bit-identical
//      to serial; at threads == 1 (or K == 1) the tasks run inline. Decide
//      and schedule walk the link store's SoA arrays in place;
//   4. the links' slot reports fold into the cluster fleet view in link
//      order, the same order at every thread count.
//
// Steps 1-2 are serial: placement, handover and brownout read reservations
// across links. Only step 3 runs concurrently.
//
// A one-link server is the K = 1 case: run_cluster_scenario with one
// channel. cluster_test pins its output to golden digests recorded from the
// standalone single-link runtime this class replaced.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/csv.hpp"
#include "common/status.hpp"
#include "net/channel.hpp"
#include "serving/driver/fault.hpp"
#include "serving/executor.hpp"
#include "serving/session_manager.hpp"

namespace arvis {

/// How arriving sessions are assigned to links.
enum class PlacementPolicy {
  /// Links in rotation, one step per arrival; spills continue the rotation.
  kRoundRobin,
  /// Link with the least reserved admission load first (ties: lowest index).
  kLeastLoaded,
  /// Link whose residual admissible capacity most tightly fits the session's
  /// cheapest-depth load (best fit); links that cannot fit rank after, by
  /// descending residual. Packs tight links first, preserving large holes
  /// for heavy sessions.
  kBestFit,
};

const char* to_string(PlacementPolicy policy) noexcept;

/// Live-migration handover control. When enabled, the cluster scores every
/// link's degradation each slot — the graded kLinkDegrade fault signal
/// (lost capacity fraction + reported per-slot delay) plus utilization
/// imbalance — and moves sessions off links whose score crosses
/// `enter_score` onto the healthiest link, mid-stream, carrying their hot
/// state (EdgeCluster::migrate_session). Enter/exit hysteresis plus a
/// per-session migration budget keep a flapping radio from ping-ponging
/// sessions. Free when disabled: one branch per slot.
struct HandoverPolicy {
  bool enabled = false;
  /// A link whose degradation score reaches this enters handover: its
  /// sessions start migrating off. Score = (1 - degrade scale)
  /// + delay_weight * reported delay + imbalance_weight * max(0,
  /// utilization - fleet mean utilization).
  double enter_score = 0.5;
  /// A link in handover whose score falls to or below this exits (the
  /// hysteresis band; must be < enter_score, validated).
  double exit_score = 0.2;
  /// Score contribution per slot of reported kLinkDegrade delay.
  double delay_weight = 0.1;
  /// Score contribution per unit of utilization excess over the fleet mean
  /// (0 = pure fault-signal scoring).
  double imbalance_weight = 0.0;
  /// Sessions migrated off a degraded link per slot (paces the drain so a
  /// handover is a stream, not a stampede).
  std::size_t max_migrations_per_slot = 4;
  /// Migrations one session may undergo within any `window_slots` window;
  /// the ping-pong guard (tested: a flapping radio cannot exceed it).
  std::size_t session_budget = 2;
  std::size_t window_slots = 64;
  /// Rebalance-on-departure: when a departure frees reserved capacity on a
  /// link below the fleet's mean load, migrate the worst-served (largest
  /// backlog) session from the most reserved link onto it — one per slot,
  /// same per-session budget.
  bool rebalance_on_departure = false;
};

struct ClusterConfig {
  /// Per-link runtime configuration (scheduler policy, candidates, V,
  /// admission target). `serving.threads` sizes the *cluster's* executor,
  /// whose tasks are the links' slot work (decide, schedule, drain); it has
  /// no effect at K = 1.
  ServingConfig serving;
  PlacementPolicy placement = PlacementPolicy::kRoundRobin;
  /// Extra links an arrival may try after its first choice rejects it
  /// (0 = no spill; 1 = the next-best link, the default; any value >= K - 1,
  /// SIZE_MAX included, tries every link).
  std::size_t spill_limit = 1;
  /// Mid-stream session migration (off by default — fault-free runs stay
  /// bit-identical).
  HandoverPolicy handover;
};

/// One session's cluster-level run record.
struct ClusterSessionOutcome {
  /// Link the session streamed on; -1 when refused or never arrived. For a
  /// failed-over session this is the *last* link it streamed on.
  int link = -1;
  /// Admitted by a link other than its first choice.
  bool spilled = false;
  /// False when the run ended before the session's arrival slot: placement
  /// never saw it, so it counts as neither admitted nor refused.
  bool arrived = false;
  /// Times the session was re-placed after its link went down.
  std::uint32_t failovers = 0;
  /// Times the session migrated between links mid-stream (completed
  /// migrations only; an aborted migration shows up as a failover once the
  /// displaced path re-places it).
  std::uint32_t migrations = 0;
  /// Ended by an outage: displaced with no surviving link taking it (or no
  /// lifetime left). `session` covers the window up to the eviction.
  bool fault_evicted = false;
  SessionOutcome session;
};

/// A rejected or fault-evicted session offered back to the driver's retry
/// loop. Produced only when the retry feed is enabled (enable_retry_feed);
/// `spec` is the live spec with its original absolute departure slot.
struct RetrySeed {
  /// Cluster session id the seed descends from (the driver tracks attempt
  /// counts across generations by this id).
  std::size_t session_id = 0;
  SessionSpec spec;
  /// True when an outage evicted the session mid-stream; false for a
  /// placement reject at arrival.
  bool fault_evicted = false;
};

/// One link's fault-plane state: everything the FaultEvents applied so far
/// left behind. Fault-free links stay at the defaults, whose ×1.0 multiplies
/// are the bitwise identity.
struct LinkState {
  bool down = false;
  /// Operator capacity scale (kCapacityScale: radio fade, brownout).
  double scale = 1.0;
  /// Graded degradation scale (kLinkDegrade). Kept apart from `scale`
  /// because the HandoverPolicy score reads only this one: an operator
  /// brownout must not push sessions off a link, a degrading radio must.
  double degrade = 1.0;
  /// Reported per-slot delay of the last kLinkDegrade (0 nominal).
  double delay = 0.0;
  /// scale × degrade, cached at fault edges: the factor both the admission
  /// budget and the per-slot capacity consume.
  double effective = 1.0;
};

/// The cluster's running fault-plane books, readable mid-run
/// (EdgeCluster::fault_books) and final in ClusterMetrics. Two identities
/// hold exactly (tested):
///   failover_displaced == failover_replaced + fault_evicted + fault_closed
///   migrations_requested == migrations_completed + migrations_aborted
/// Every displaced session is re-placed, evicted, or externally closed, and
/// every aborted migration re-enters the failover books through the
/// displaced path — nothing is stranded.
struct FaultBooks {
  /// Fault events applied, by FaultKind ordinal. A link-down on a link that
  /// is already down (or a link-up on one already up) changes nothing and
  /// is not counted; every applied scale or degrade event is.
  std::array<std::size_t, kFaultKindCount> fault_events{};
  /// Active sessions drained off a link when it went down, plus aborted
  /// migrations.
  std::size_t failover_displaced = 0;
  /// Displaced sessions re-admitted onto a surviving link.
  std::size_t failover_replaced = 0;
  /// Displaced sessions no surviving link would take (or with no lifetime
  /// left) — ended at the eviction slot.
  std::size_t fault_evicted = 0;
  /// Displaced sessions externally closed before re-placement.
  std::size_t fault_closed = 0;
  /// Mid-stream migrations attempted (policy-driven + explicit).
  std::size_t migrations_requested = 0;
  /// Migrations whose target link admitted the carried session.
  std::size_t migrations_completed = 0;
  /// Migrations the target refused (or whose window ended) — the session
  /// fell back to the displaced path.
  std::size_t migrations_aborted = 0;

  [[nodiscard]] std::size_t fault_count(FaultKind kind) const {
    return fault_events[static_cast<std::size_t>(kind)];
  }
};

/// Fleet view across all links, plus the final fault-plane books.
struct ClusterMetrics : FaultBooks {
  std::size_t link_count = 0;
  /// Cluster-wide aggregates over every submitted session (folded in
  /// submission order) and the summed per-slot link capacities.
  FleetMetrics fleet;
  /// Each link's own fleet view: its capacity totals, and the sessions whose
  /// final segment is on that link (folded in the link's placement order).
  /// Every admitted session counts on exactly one link, so the per-link
  /// session counts sum to the fleet's, failovers and migrations included.
  std::vector<FleetMetrics> per_link;
  /// Each link's admission counters (spill attempts count per link tried).
  std::vector<AdmissionStats> per_link_admission;
  /// Jain fairness of per-link capacity_used — how evenly the placement
  /// policy spread real work across links.
  double link_load_fairness = 0.0;
  /// Sessions admitted via a non-first-choice link.
  std::size_t spills = 0;
  /// Sessions refused by every link they were offered to.
  std::size_t placement_rejects = 0;
};

struct ClusterResult {
  std::vector<ClusterSessionOutcome> sessions;  // submission order
  ClusterMetrics metrics;

  /// Per-session report with link assignment, built on request from
  /// `sessions`: one row each (session, link, placed, spilled, arrival,
  /// departure, weight, avg_quality, avg_backlog, mean_depth, verdict).
  [[nodiscard]] CsvTable session_table() const;
  /// Per-link rollup, built on request from `metrics`: one row each (link,
  /// placed, attempts, accepted, rejected, capacity_offered, capacity_used,
  /// utilization, mean_quality, divergent).
  [[nodiscard]] CsvTable link_table() const;
};

/// The sharded serving runtime. Submit sessions up front (or between steps),
/// then drive it one slot at a time with one capacity draw per link;
/// finish() closes the books. Not thread-safe — one cluster per run; the
/// parallelism is inside step().
class EdgeCluster {
 public:
  /// `link_mean_capacity_bytes[k]` calibrates link k's admission controller
  /// (ChannelModel::mean_capacity_bytes() of the stream that will drive it).
  /// Throws std::invalid_argument on zero links, more than 1024 links (the
  /// kMigration flight event packs link indices into 10 bits), or a bad
  /// serving config.
  EdgeCluster(const ClusterConfig& config,
              const std::vector<double>& link_mean_capacity_bytes);
  ~EdgeCluster();

  EdgeCluster(const EdgeCluster&) = delete;
  EdgeCluster& operator=(const EdgeCluster&) = delete;

  /// Registers a session; placement happens at its arrival slot. Returns the
  /// cluster-wide session id (submission index). Throws
  /// std::invalid_argument on a spec SessionManager::validate_spec refuses.
  std::size_t submit(const SessionSpec& spec);

  /// Advances one slot. `link_capacity_bytes` holds this slot's capacity for
  /// every link (size must equal link_count()).
  void step(const std::vector<double>& link_capacity_bytes);

  [[nodiscard]] std::size_t link_count() const noexcept {
    return links_.size();
  }
  [[nodiscard]] std::size_t slot() const noexcept { return slot_; }
  /// Sessions currently streaming, across all links.
  [[nodiscard]] std::size_t active_count() const noexcept;
  /// Link k's runtime (admission state, active count) — read-only.
  [[nodiscard]] const SessionManager& link(std::size_t k) const {
    return *links_.at(k);
  }

  // Running counters, readable mid-run (the event-driven driver samples
  // them for periodic metrics snapshots).
  /// Cluster-wide slot aggregates (summed capacity offered/used).
  [[nodiscard]] const ServerMetrics& metrics() const noexcept {
    return metrics_;
  }
  /// Sessions placed on a link at arrival so far, spills included; failover
  /// re-placements and migrations move a placed session, not a new one.
  [[nodiscard]] std::size_t placed() const noexcept { return placed_; }
  /// Sessions refused by every link they were offered to so far.
  [[nodiscard]] std::size_t placement_rejects() const noexcept {
    return placement_rejects_;
  }
  /// Running fault-plane books (final copy in ClusterMetrics).
  [[nodiscard]] const FaultBooks& fault_books() const noexcept {
    return books_;
  }

  // -- Fault plane -----------------------------------------------------
  /// Applies one fault to its link's LinkState, now (the event's slot is
  /// the scheduler's business):
  ///   kLinkDown      drains the link's active sessions into the failover
  ///                  queue; they re-enter placement on the next step;
  ///   kLinkUp        the link rejoins the placement rotation (sessions do
  ///                  NOT migrate back);
  ///   kCapacityScale sets the operator scale;
  ///   kLinkDegrade   sets the degrade scale and the reported delay, which
  ///                  feed the HandoverPolicy score.
  /// Both scales compose multiplicatively into the effective scale that
  /// shapes the admission budget and the capacity step() offers. Returns
  /// false, with no state touched, for an out-of-range link, an event
  /// validate_fault_event refuses, an effective scale above kMaxFaultScale,
  /// or after finish(). A down/up transition to the state the link is
  /// already in is a true no-op (returns true, counts nothing).
  bool apply_fault(const FaultEvent& fault);

  /// Mid-stream live migration: moves active session `session_id` onto
  /// `target_link`, carrying its hot SoA state (backlog, served-bytes EWMA,
  /// frame-row cursor) so its decide/drain sequence continues bit for bit
  /// on an equivalent link. On target refusal the session is NOT lost: it
  /// falls back to the displaced/failover path (counted in
  /// migrations_aborted) and re-enters placement next slot. Returns true
  /// only for a completed migration; false for an aborted one or invalid
  /// input (unknown/inactive session, bad/downed/same target, finished
  /// cluster — invalid input does not count as requested).
  bool migrate_session(std::size_t session_id, std::size_t target_link);

  [[nodiscard]] const LinkState& link_state(std::size_t link) const {
    return link_state_.at(link);
  }
  /// True while the HandoverPolicy holds `link` in handover (its sessions
  /// are migrating off).
  [[nodiscard]] bool handover_active(std::size_t link) const {
    return handover_active_.at(link) != 0;
  }

  /// Turns on retry-seed collection: placement rejects and fault evictions
  /// append a RetrySeed instead of vanishing. The driver drains the feed via
  /// take_retry_feed and re-submits with backoff.
  void enable_retry_feed() noexcept { collect_retry_ = true; }
  [[nodiscard]] bool retry_feed_pending() const noexcept {
    return !retry_feed_.empty();
  }
  /// Appends the pending seeds to `out` (in production order) and clears the
  /// feed.
  void take_retry_feed(std::vector<RetrySeed>& out);

  /// Folds the cluster's SLO sample into `observation`: every link's
  /// per-tier gauges (worst-link view — see SessionManager::accumulate_slo),
  /// the cumulative placement outcomes, and per tier the arrivals placed
  /// (accepted) and refused (rejected). Snapshot cadence only.
  void accumulate_slo(SloObservation& observation);

  /// Cross-checks every link's session store against its cold slab
  /// (SessionStore::validate); the first failure wins. For tests and the
  /// bench oracles — never part of the slot loop.
  [[nodiscard]] Status validate_stores() const {
    for (const auto& link : links_) {
      Status s = link->validate_store();
      if (!s.ok()) return s;
    }
    return Status::Ok();
  }

  /// External-close control: ends session `session_id` at the current slot.
  /// A placed session closes on its link (trace covers [arrival, now)); a
  /// not-yet-arrived session is cancelled and reports as never-arrived.
  /// Returns false for unknown, already-closed, or refused ids.
  bool request_close(std::size_t session_id);

  /// Due slot of the earliest not-yet-placed submitted session, or
  /// kNeverDeparts when none are pending.
  [[nodiscard]] std::size_t next_pending_arrival_slot() const noexcept;

  /// Fast-forwards every link's slot clock across an idle stretch (no active
  /// sessions on any link): clamps at the earliest pending arrival (the
  /// current slot while displaced sessions await re-placement), skipped
  /// slots offer no capacity, returns slots skipped. Throws
  /// std::logic_error when sessions are active or the cluster is finished.
  std::size_t skip_idle_slots(std::size_t max_slots);

  /// Closes every still-active session at the current slot and returns the
  /// full result. The cluster is spent afterwards (submit/step throw).
  ClusterResult finish();

 private:
  struct Entry;

  void place_arrivals();
  void place_displaced();
  /// Queues an admitted session that has left its link's books (drained by
  /// an outage or an aborted migration) for re-placement next step.
  void displace(Entry& e);
  /// Ranks the links `entry` may be placed on into rank_ and returns how
  /// many of them placement tries: the first choice plus up to spill_limit
  /// spills, capped at the ranked (up) links.
  std::size_t rank_links(const Entry& entry);
  /// The HandoverPolicy slot pass: score links, update hysteresis state,
  /// drain sessions off links in handover, and (when configured) rebalance
  /// one worst-served session onto a link a departure just freed. Runs
  /// between placement and the links' slot work; called only when the
  /// policy is enabled.
  void evaluate_handover();
  /// Shared migration mechanics behind migrate_session and the policy
  /// paths. `reason`: 0 = degraded-link handover, 1 = rebalance-on-
  /// departure, 2 = explicit call (the kMigration flight encoding).
  bool do_migrate(std::size_t session_id, std::size_t target_link,
                  unsigned reason);
  /// The per-link session id the next failover or migration segment gets;
  /// pushing the owning entry onto failover_owner_ once a link admits the
  /// segment claims it. Re-placement cannot reuse the entry id: a session
  /// that bounces back onto a link it streamed on earlier would collide with
  /// its own retired id in that link's books. A refused segment claims
  /// nothing, so admitted segments carry consecutive ids in admission order
  /// (the order the handover drain breaks backlog ties by).
  [[nodiscard]] std::size_t next_runtime_id() const noexcept;
  [[nodiscard]] std::size_t owner_of(std::size_t runtime_id) const;

  ClusterConfig config_;
  ParallelExecutor executor_;
  std::vector<std::unique_ptr<SessionManager>> links_;
  std::vector<std::unique_ptr<Entry>> entries_;  // submission order
  // Not-yet-arrived entry indices, sorted by (due slot, id); the prefix
  // before pending_head_ has been consumed. Keeps the per-slot arrival scan
  // at O(arrivals due) instead of O(all sessions ever submitted).
  std::vector<std::size_t> pending_;
  std::size_t pending_head_ = 0;
  std::size_t rr_cursor_ = 0;
  ServerMetrics metrics_;  // cluster-wide slot + session aggregates
  std::size_t slot_ = 0;
  bool finished_ = false;
  std::size_t placed_ = 0;
  std::size_t spills_ = 0;
  std::size_t placement_rejects_ = 0;
  // The same arrivals by QoS tier: the SLO accept and reject counters.
  std::uint64_t tier_placed_[kSloTiers] = {};
  std::uint64_t tier_refused_[kSloTiers] = {};
  // Scratch reused across slots.
  std::vector<std::size_t> rank_;
  std::vector<SessionManager::SlotReport> reports_;  // per link, this slot
  // -- Fault plane (preallocated; idle cost is one branch per link per slot
  // and a ×1.0 capacity multiply, which is bitwise identity) --------------
  std::vector<LinkState> link_state_;
  FaultBooks books_;
  std::vector<double> caps_scratch_;     // effective per-link capacity this slot
  std::vector<std::size_t> displaced_;   // entry ids awaiting re-placement
  std::vector<EvictedSession> evict_scratch_;
  // Failover runtime ids are kFailoverIdBase + index into this owner map,
  // one entry per admitted failover or migration segment.
  std::vector<std::size_t> failover_owner_;
  bool collect_retry_ = false;
  std::vector<RetrySeed> retry_feed_;
  // -- Handover / live migration (vectors preallocated at construction;
  // with the policy off the slot loop pays one branch) --------------------
  std::vector<std::uint8_t> handover_active_;  // hysteresis state, 1 = in
  std::vector<double> handover_score_;         // scratch: per-link score
  std::vector<double> prev_reserved_;  // reserved load before begin_slot
  /// Scratch: (backlog, runtime id) candidates of the link being drained.
  std::vector<std::pair<double, std::size_t>> migrate_scratch_;
  // Telemetry (see session_manager.hpp for the null-pointer cost model).
  // Links carry their own per-link instruments (tid = link index); these are
  // the cluster-level ones: placement outcomes under "cluster/", spans on
  // the kClusterTid lane.
  PhaseTracer* tracer_ = nullptr;
  TelemetryCounter* c_placed_ = nullptr;
  TelemetryCounter* c_spills_ = nullptr;
  TelemetryCounter* c_rejects_ = nullptr;
  /// Cluster-level flight events (spill/refusal on the kClusterTid lane);
  /// the links record their own admit/reject/close events.
  FlightRecorder* flight_ = nullptr;
};

/// The one-shot entry point: submits `specs`, steps `config.serving.steps`
/// slots drawing every link's capacity from its channel (`channels[k]`
/// drives link k; all non-null), and finishes. A one-link server passes one
/// channel. A thin wrapper over an EventLoop in fixed-horizon mode (defined
/// in serving/driver/event_loop.cpp).
ClusterResult run_cluster_scenario(const ClusterConfig& config,
                                   const std::vector<SessionSpec>& specs,
                                   const std::vector<ChannelModel*>& channels);

}  // namespace arvis

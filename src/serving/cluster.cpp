#include "serving/cluster.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>
#include <utility>

#include "serving/admission.hpp"

namespace arvis {

/// One submitted session as the cluster tracks it. Before placement the
/// cluster owns the lifecycle; after placement the assigned link's
/// SessionManager does, and the entry only remembers where it went.
struct EdgeCluster::Entry {
  Entry(std::size_t id_in, const SessionSpec& spec_in)
      : id(id_in), spec(spec_in), arrival_actual(spec_in.arrival_slot),
        runtime_id(id_in) {}

  std::size_t id;
  SessionSpec spec;
  /// First slot placement may consider this session (declared arrival, or
  /// the submission-time slot when the declared arrival already elapsed).
  std::size_t due = 0;
  int link = -1;
  bool spilled = false;
  bool arrived = false;
  bool admitted = false;
  /// Cancelled by an external-close control event before placement saw it.
  bool cancelled = false;
  /// Drained off a downed link; awaiting re-placement in place_displaced.
  bool displaced = false;
  /// Ended by an outage (no surviving link took it / no lifetime left).
  bool fault_evicted = false;
  std::size_t arrival_actual;
  std::size_t departure_actual = 0;
  /// Best depth headroom any tried link reported.
  int max_sustainable_depth = 0;
  /// Id of the session's *current* segment in its link's books. Equals `id`
  /// until the first failover; every re-placement mints a fresh id (a
  /// session may bounce back onto a link where its old id is already
  /// retired).
  std::size_t runtime_id;
  /// Slab position of the current segment on `link`, as the link handed it
  /// back on admission: what the link releases when a re-placement
  /// supersedes the segment.
  std::uint32_t segment = 0;
  /// Times the session was re-placed after a link outage.
  std::uint32_t failovers = 0;
  /// Times the session completed a live migration between links.
  std::uint32_t migrations = 0;
  /// Start slot of the session's current handover budget window.
  std::size_t migration_window_start = 0;
  /// Migrations completed inside the current budget window (the ping-pong
  /// guard: capped at HandoverPolicy::session_budget).
  std::uint32_t migrations_in_window = 0;
};

// Failover runtime ids live far above any plausible submission count so the
// two id spaces cannot collide (ids below the base are entry ids verbatim).
inline constexpr std::size_t kFailoverIdBase = std::size_t{1} << 32;
static_assert(sizeof(std::size_t) >= 8,
              "failover runtime ids need a 64-bit size_t");

// The kMigration flight event packs b = reason·2^20 + from·2^10 + to, so link
// indices must fit in 10 bits.
inline constexpr std::size_t kMaxLinks = 1024;

const char* to_string(PlacementPolicy policy) noexcept {
  switch (policy) {
    case PlacementPolicy::kRoundRobin: return "round-robin";
    case PlacementPolicy::kLeastLoaded: return "least-loaded";
    case PlacementPolicy::kBestFit: return "best-fit";
  }
  return "?";
}

EdgeCluster::EdgeCluster(const ClusterConfig& config,
                         const std::vector<double>& link_mean_capacity_bytes)
    : config_(config), executor_(config.serving.threads) {
  if (link_mean_capacity_bytes.empty()) {
    throw std::invalid_argument("EdgeCluster: need >= 1 link");
  }
  if (link_mean_capacity_bytes.size() > kMaxLinks) {
    throw std::invalid_argument(
        "EdgeCluster: at most 1024 links (the kMigration flight event packs "
        "from/to link indices into 10 bits each)");
  }
  // The cluster's executor is the only fan-out point: its tasks are the
  // links' finish_slot calls. Each link gets its own telemetry lane:
  // counters under "link<k>/", spans on Chrome tid k.
  ServingConfig link_config = config_.serving;
  links_.reserve(link_mean_capacity_bytes.size());
  for (double mean : link_mean_capacity_bytes) {
    link_config.telemetry.tid = static_cast<std::uint32_t>(links_.size());
    links_.push_back(std::make_unique<SessionManager>(link_config, mean));
  }
  link_state_.assign(links_.size(), LinkState{});
  handover_active_.assign(links_.size(), 0);
  handover_score_.assign(links_.size(), 0.0);
  prev_reserved_.assign(links_.size(), 0.0);
  caps_scratch_.assign(links_.size(), 0.0);
  reports_.assign(links_.size(), SessionManager::SlotReport{});
  if (config_.handover.enabled) {
    const HandoverPolicy& hp = config_.handover;
    if (!std::isfinite(hp.enter_score) || !std::isfinite(hp.exit_score) ||
        hp.enter_score <= hp.exit_score) {
      throw std::invalid_argument(
          "EdgeCluster: handover enter_score must exceed exit_score");
    }
    if (hp.window_slots == 0) {
      throw std::invalid_argument(
          "EdgeCluster: handover window_slots must be >= 1");
    }
    migrate_scratch_.reserve(32);
  }
  const TelemetryConfig& tel = config_.serving.telemetry;
  if (tel.trace_on()) tracer_ = tel.tracer;
  flight_ = resolve_flight_recorder(tel);
  if (tel.counters_on()) {
    TelemetryRegistry& reg = *tel.registry;
    c_placed_ = &reg.counter("cluster/sessions_placed");
    c_spills_ = &reg.counter("cluster/session_spills");
    c_rejects_ = &reg.counter("cluster/placement_rejects");
  }
}

EdgeCluster::~EdgeCluster() = default;

std::size_t EdgeCluster::submit(const SessionSpec& spec) {
  if (finished_) {
    throw std::logic_error("EdgeCluster::submit: already finished");
  }
  // The links' spec validation, applied once at the cluster door so a bad
  // spec fails before placement ever sees it. The links step in lockstep
  // with the cluster, so link 0's slot clock is the cluster's.
  links_.front()->validate_spec(spec);

  entries_.push_back(std::make_unique<Entry>(entries_.size(), spec));
  Entry* e = entries_.back().get();
  e->due = std::max(spec.arrival_slot, slot_);
  const auto begin =
      pending_.begin() + static_cast<std::ptrdiff_t>(pending_head_);
  const auto pos = std::upper_bound(
      begin, pending_.end(), e->id, [&](std::size_t a, std::size_t b) {
        const Entry& ea = *entries_[a];
        const Entry& eb = *entries_[b];
        if (ea.due != eb.due) return ea.due < eb.due;
        return ea.id < eb.id;
      });
  pending_.insert(pos, e->id);
  return e->id;
}

std::size_t EdgeCluster::rank_links(const Entry& entry) {
  const std::size_t k = links_.size();
  rank_.resize(k);
  switch (config_.placement) {
    case PlacementPolicy::kRoundRobin:
      for (std::size_t i = 0; i < k; ++i) rank_[i] = (rr_cursor_ + i) % k;
      break;
    case PlacementPolicy::kLeastLoaded:
      for (std::size_t i = 0; i < k; ++i) rank_[i] = i;
      std::sort(rank_.begin(), rank_.end(),
                [&](std::size_t a, std::size_t b) {
                  const double la = links_[a]->admission().reserved_load();
                  const double lb = links_[b]->admission().reserved_load();
                  if (la != lb) return la < lb;
                  return a < b;
                });
      break;
    case PlacementPolicy::kBestFit: {
      const double load = AdmissionController::cheapest_depth_load(
          *entry.spec.cache, config_.serving.candidates);
      for (std::size_t i = 0; i < k; ++i) rank_[i] = i;
      // Links that fit rank first by tightness (smallest leftover); links
      // that cannot fit follow by descending residual (the least-bad spill).
      std::sort(rank_.begin(), rank_.end(),
                [&](std::size_t a, std::size_t b) {
                  const double ra = links_[a]->admission().residual_capacity();
                  const double rb = links_[b]->admission().residual_capacity();
                  const bool fa = ra >= load;
                  const bool fb = rb >= load;
                  if (fa != fb) return fa;
                  if (ra != rb) return fa ? ra < rb : ra > rb;
                  return a < b;
                });
      break;
    }
  }
  // Downed links leave the rotation entirely: arrivals route around them
  // and displaced sessions only consider survivors. Down/up transitions are
  // strict toggles, so the counters differ exactly while >= 1 link is down —
  // the fault-free path never pays for the scan.
  if (books_.fault_count(FaultKind::kLinkDown) !=
      books_.fault_count(FaultKind::kLinkUp)) {
    std::erase_if(rank_,
                  [this](std::size_t k) { return link_state_[k].down; });
  }
  // spill_limit + 1 would wrap to 0 at SIZE_MAX, so compare before adding.
  return config_.spill_limit < rank_.size() ? config_.spill_limit + 1
                                            : rank_.size();
}

void EdgeCluster::place_arrivals() {
  if (pending_head_ >= pending_.size() ||
      entries_[pending_[pending_head_]]->due > slot_) {
    return;  // nothing due: keep the no-arrival slot span-free
  }
  const PhaseSpan span(tracer_, Phase::kPlace, slot_, kClusterTid);
  while (pending_head_ < pending_.size() &&
         entries_[pending_[pending_head_]]->due <= slot_) {
    Entry& e = *entries_[pending_[pending_head_++]];
    // Cancelled before arrival: placement never sees it (never-arrived).
    if (e.cancelled) continue;
    e.arrived = true;
    e.arrival_actual = slot_;
    const std::size_t attempts = rank_links(e);
    int best_depth = std::numeric_limits<int>::min();
    // Each attempt is one O(candidates) admission test on the cache's load
    // curve; failover re-placement and handover run the same test per slot.
    for (std::size_t a = 0; a < attempts; ++a) {
      const std::size_t k = rank_[a];
      const SessionManager::Placement decision =
          links_[k]->try_place(e.spec, e.id);
      best_depth = std::max(best_depth, decision.max_sustainable_depth);
      if (decision.admitted) {
        e.admitted = true;
        e.link = static_cast<int>(k);
        e.segment = decision.segment;
        e.spilled = a > 0;
        e.max_sustainable_depth = decision.max_sustainable_depth;
        ++placed_;
        ++tier_placed_[e.spec.qos];
        if (e.spilled) ++spills_;
        if (c_placed_ != nullptr) {
          c_placed_->add(1);
          if (e.spilled) c_spills_->add(1);
        }
        if (e.spilled && flight_ != nullptr) {
          flight_->record(FlightEventKind::kPlacementSpill, slot_, kClusterTid,
                          static_cast<double>(e.id), static_cast<double>(k));
        }
        break;
      }
    }
    if (!e.admitted) {
      e.departure_actual = slot_;
      // attempts == 0 means every link was down — no link reported headroom.
      e.max_sustainable_depth =
          attempts > 0 ? best_depth : 0;
      ++placement_rejects_;
      ++tier_refused_[e.spec.qos];
      if (c_rejects_ != nullptr) c_rejects_->add(1);
      if (flight_ != nullptr) {
        flight_->record(FlightEventKind::kPlacementReject, slot_, kClusterTid,
                        static_cast<double>(e.id),
                        static_cast<double>(attempts));
      }
      if (collect_retry_) retry_feed_.push_back({e.id, e.spec, false});
    }
    if (config_.placement == PlacementPolicy::kRoundRobin) {
      rr_cursor_ = (rr_cursor_ + 1) % links_.size();
    }
  }
  if (pending_head_ > 64 && pending_head_ * 2 >= pending_.size()) {
    pending_.erase(
        pending_.begin(),
        pending_.begin() + static_cast<std::ptrdiff_t>(pending_head_));
    pending_head_ = 0;
  }
}

std::size_t EdgeCluster::next_runtime_id() const noexcept {
  return kFailoverIdBase + failover_owner_.size();
}

std::size_t EdgeCluster::owner_of(std::size_t runtime_id) const {
  return runtime_id >= kFailoverIdBase
             ? failover_owner_[runtime_id - kFailoverIdBase]
             : runtime_id;
}

bool EdgeCluster::apply_fault(const FaultEvent& fault) {
  if (finished_ || fault.link >= links_.size() ||
      !validate_fault_event(fault).ok()) {
    return false;
  }
  LinkState& state = link_state_[fault.link];
  const bool is_down = fault.kind == FaultKind::kLinkDown;
  if (is_down || fault.kind == FaultKind::kLinkUp) {
    if (state.down == is_down) return true;  // already there: no-op
    state.down = is_down;
  } else {
    // Scales compose multiplicatively; the product is checked before any
    // state moves, so a refused event leaves the link exactly as it was.
    const bool degrade = fault.kind == FaultKind::kLinkDegrade;
    const double effective =
        degrade ? state.scale * fault.scale : fault.scale * state.degrade;
    if (effective > kMaxFaultScale) return false;
    if (degrade) {
      state.degrade = fault.scale;
      state.delay = fault.delay;
    } else {
      state.scale = fault.scale;
    }
    // Recomputed only here, never in the slot loop.
    state.effective = effective;
    links_[fault.link]->set_capacity_scale(effective);
  }
  ++books_.fault_events[static_cast<std::size_t>(fault.kind)];
  if (flight_ != nullptr) {
    flight_->record(FlightEventKind::kFault, slot_, kClusterTid,
                    static_cast<double>(fault.link),
                    static_cast<double>(fault.kind));
  }
  if (is_down) {
    // Drain: every active session leaves the link's books now (its trace on
    // that link ends at this slot) and queues for re-placement. The entry
    // remembers the live spec — an external close may have shortened the
    // departure since placement.
    evict_scratch_.clear();
    links_[fault.link]->evict_all_active(evict_scratch_);
    for (const EvictedSession& ev : evict_scratch_) {
      Entry& e = *entries_[owner_of(ev.id)];
      e.spec = ev.spec;
      displace(e);
    }
  }
  return true;
}

void EdgeCluster::displace(Entry& e) {
  e.displaced = true;
  displaced_.push_back(e.id);
  ++books_.failover_displaced;
}

void EdgeCluster::take_retry_feed(std::vector<RetrySeed>& out) {
  out.insert(out.end(), std::make_move_iterator(retry_feed_.begin()),
             std::make_move_iterator(retry_feed_.end()));
  retry_feed_.clear();
}

void EdgeCluster::place_displaced() {
  if (displaced_.empty()) return;
  const PhaseSpan span(tracer_, Phase::kPlace, slot_, kClusterTid);
  for (const std::size_t entry_id : displaced_) {
    Entry& e = *entries_[entry_id];
    if (!e.displaced) continue;  // externally closed while displaced
    e.displaced = false;
    if (e.spec.departure_slot != kNeverDeparts &&
        e.spec.departure_slot <= slot_) {
      // The session's window ended during the outage: nothing to re-place
      // and nothing to retry.
      e.fault_evicted = true;
      e.departure_actual = slot_;
      ++books_.fault_evicted;
      continue;
    }
    const std::size_t attempts = rank_links(e);
    const std::size_t rid = next_runtime_id();
    bool replaced = false;
    for (std::size_t a = 0; a < attempts; ++a) {
      const std::size_t k = rank_[a];
      const SessionManager::Placement decision =
          links_[k]->try_place(e.spec, rid);
      if (decision.admitted) {
        failover_owner_.push_back(entry_id);  // claims rid
        // The segment the outage (or an aborted migration) ended is
        // superseded now; one that no link re-places stays as the last.
        links_[static_cast<std::size_t>(e.link)]->release_segment(e.segment);
        e.link = static_cast<int>(k);
        e.segment = decision.segment;
        e.runtime_id = rid;
        ++e.failovers;
        ++books_.failover_replaced;
        replaced = true;
        if (flight_ != nullptr) {
          flight_->record(FlightEventKind::kFailover, slot_, kClusterTid,
                          static_cast<double>(e.id), static_cast<double>(k));
        }
        break;
      }
    }
    if (!replaced) {
      e.fault_evicted = true;
      e.departure_actual = slot_;
      ++books_.fault_evicted;
      if (flight_ != nullptr) {
        flight_->record(FlightEventKind::kPlacementReject, slot_, kClusterTid,
                        static_cast<double>(e.id),
                        static_cast<double>(attempts));
      }
      if (collect_retry_) retry_feed_.push_back({e.id, e.spec, true});
    }
    // Failover re-placement deliberately does not advance rr_cursor_: the
    // arrival rotation stays a pure function of the arrival sequence, so a
    // fault plan perturbs placement only through load, not through cursor
    // drift.
  }
  displaced_.clear();
}

bool EdgeCluster::do_migrate(std::size_t session_id, std::size_t target_link,
                             unsigned reason) {
  Entry& e = *entries_[session_id];
  if (!e.admitted || e.displaced || e.fault_evicted || e.link < 0 ||
      static_cast<std::size_t>(e.link) == target_link ||
      link_state_[target_link].down) {
    return false;  // invalid input: nothing extracted, books never see it
  }
  const std::size_t from = static_cast<std::size_t>(e.link);
  SessionManager::MigratedSession carried;
  if (!links_[from]->extract_session(e.runtime_id, carried)) {
    // Not in the link's active set (departed or externally closed already):
    // no session moved, so no request to reconcile.
    return false;
  }
  ++books_.migrations_requested;
  e.spec = carried.spec;  // live spec: an external close may have shortened it
  // Abort when the session's window ends this slot, or when the target
  // refuses the load. The session already left its source link either way,
  // so it joins the displaced path: re-placement next slot, or eviction or
  // close under the exact failover books.
  if (e.spec.departure_slot != kNeverDeparts &&
      e.spec.departure_slot <= slot_) {
    ++books_.migrations_aborted;
    displace(e);
    return false;
  }
  const std::size_t rid = next_runtime_id();
  const SessionManager::Placement placed =
      links_[target_link]->place_migrated(carried, rid);
  if (!placed.admitted) {
    ++books_.migrations_aborted;
    displace(e);
    return false;
  }
  failover_owner_.push_back(session_id);  // claims rid
  links_[from]->release_segment(e.segment);
  e.link = static_cast<int>(target_link);
  e.segment = placed.segment;
  e.runtime_id = rid;
  ++e.migrations;
  ++e.migrations_in_window;
  ++books_.migrations_completed;
  if (flight_ != nullptr) {
    flight_->record(FlightEventKind::kMigration, slot_, kClusterTid,
                    static_cast<double>(e.id),
                    static_cast<double>(reason) * 1048576.0 +
                        static_cast<double>(from) * 1024.0 +
                        static_cast<double>(target_link));
  }
  return true;
}

bool EdgeCluster::migrate_session(std::size_t session_id,
                                  std::size_t target_link) {
  if (finished_ || target_link >= links_.size() ||
      session_id >= entries_.size()) {
    return false;
  }
  return do_migrate(session_id, target_link, 2);
}

void EdgeCluster::evaluate_handover() {
  const HandoverPolicy& hp = config_.handover;
  const std::size_t n = links_.size();

  // Score each link: capacity lost to degradation plus the reported
  // per-slot delay.
  for (std::size_t k = 0; k < n; ++k) {
    const LinkState& state = link_state_[k];
    double score = (1.0 - state.degrade) + hp.delay_weight * state.delay;
    // A downed link already drained through the failover path; handover has
    // nothing left to move off it.
    if (state.down) score = 0.0;
    handover_score_[k] = score;
    // Enter/exit hysteresis: a link starts shedding at enter_score and only
    // stops once it recovers to exit_score, so a score hovering at one
    // threshold cannot toggle the state every slot.
    if (handover_active_[k] == 0) {
      if (score >= hp.enter_score) handover_active_[k] = 1;
    } else if (score <= hp.exit_score) {
      handover_active_[k] = 0;
    }
  }

  // Per-session ping-pong budget: at most session_budget completed
  // migrations inside any window_slots window.
  const auto within_budget = [&](Entry& e) {
    if (slot_ - e.migration_window_start >= hp.window_slots) {
      e.migration_window_start = slot_;
      e.migrations_in_window = 0;
    }
    return e.migrations_in_window < hp.session_budget;
  };
  // Healthiest destination: not down, not itself in handover; lowest score,
  // ties by least reserved load, then lowest index — fully deterministic.
  const auto pick_target = [&](std::size_t avoid) {
    int best = -1;
    for (std::size_t k = 0; k < n; ++k) {
      if (k == avoid || link_state_[k].down || handover_active_[k] != 0) {
        continue;
      }
      if (best < 0) {
        best = static_cast<int>(k);
        continue;
      }
      const auto b = static_cast<std::size_t>(best);
      if (handover_score_[k] != handover_score_[b]) {
        if (handover_score_[k] < handover_score_[b]) best = static_cast<int>(k);
        continue;
      }
      if (links_[k]->admission().reserved_load() <
          links_[b]->admission().reserved_load()) {
        best = static_cast<int>(k);
      }
    }
    return best;
  };

  // Drain links in handover: worst-served sessions (largest backlog, ties
  // by runtime id so store compaction order cannot leak into the drain
  // order) migrate first, paced by max_migrations_per_slot. The order is
  // total, so sorting the next pace's worth whenever the walk (which skips
  // over-budget sessions) runs out visits the prefix a full sort would.
  const auto drain_order = [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  };
  const std::size_t pace = hp.max_migrations_per_slot;
  for (std::size_t k = 0; k < n; ++k) {
    if (handover_active_[k] == 0) continue;
    SessionManager& src = *links_[k];
    const std::size_t active = src.active_count();
    if (active == 0) continue;
    const int target = pick_target(k);
    if (target < 0) continue;  // nowhere healthier to go
    migrate_scratch_.clear();
    const std::span<const double> backlogs = src.active_backlogs();
    for (std::size_t i = 0; i < active; ++i) {
      migrate_scratch_.emplace_back(backlogs[i], src.active_session_id(i));
    }
    const auto end = migrate_scratch_.end();
    auto sorted = migrate_scratch_.begin();
    std::size_t attempts = 0;
    for (auto it = sorted; it != end && attempts < pace; ++it) {
      if (it == sorted) {
        sorted += static_cast<std::ptrdiff_t>(
            std::min(pace, static_cast<std::size_t>(end - it)));
        std::partial_sort(it, sorted, end, drain_order);
      }
      Entry& e = *entries_[owner_of(it->second)];
      if (!within_budget(e)) continue;
      ++attempts;  // aborts count against the pace: no same-slot retry storm
      do_migrate(e.id, static_cast<std::size_t>(target), 0);
    }
  }

  if (!hp.rebalance_on_departure) return;
  // Rebalance-on-departure: a departure just freed reserved load on a link
  // (its reservation dropped across begin_slot) that now sits below the
  // fleet mean — pull the worst-served session off the most reserved link
  // onto it. One migration per slot keeps the rebalance gentle.
  double mean_reserved = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    mean_reserved += links_[k]->admission().reserved_load();
  }
  mean_reserved /= static_cast<double>(n);
  int freed = -1;
  for (std::size_t k = 0; k < n; ++k) {
    if (link_state_[k].down || handover_active_[k] != 0) continue;
    const double now = links_[k]->admission().reserved_load();
    if (now >= prev_reserved_[k]) continue;  // nothing departed here
    if (now >= mean_reserved) continue;      // not underloaded
    if (freed < 0 ||
        now <
            links_[static_cast<std::size_t>(freed)]->admission().reserved_load()) {
      freed = static_cast<int>(k);
    }
  }
  if (freed < 0) return;
  int donor = -1;
  double donor_load = -1.0;
  for (std::size_t k = 0; k < n; ++k) {
    if (static_cast<int>(k) == freed || link_state_[k].down) continue;
    if (links_[k]->active_count() == 0) continue;
    const double load = links_[k]->admission().reserved_load();
    if (load > donor_load) {
      donor_load = load;
      donor = static_cast<int>(k);
    }
  }
  if (donor < 0 || donor_load <= mean_reserved) return;
  SessionManager& src = *links_[static_cast<std::size_t>(donor)];
  const std::span<const double> backlogs = src.active_backlogs();
  const auto worst = std::max_element(backlogs.begin(), backlogs.end());
  if (worst == backlogs.end()) return;
  Entry& e = *entries_[owner_of(src.active_session_id(
      static_cast<std::size_t>(worst - backlogs.begin())))];
  if (within_budget(e)) do_migrate(e.id, static_cast<std::size_t>(freed), 1);
}

void EdgeCluster::accumulate_slo(SloObservation& observation) {
  observation.placed += placed_;
  observation.spills += spills_;
  observation.placement_rejects += placement_rejects_;
  // The accept and reject ratios count arrivals: a spill is one accepted
  // session, and re-placements and migrations admit no new one.
  for (std::size_t t = 0; t < kSloTiers; ++t) {
    observation.tier[t].accepted += tier_placed_[t];
    observation.tier[t].rejected += tier_refused_[t];
    observation.total.accepted += tier_placed_[t];
    observation.total.rejected += tier_refused_[t];
  }
  for (auto& link : links_) link->accumulate_slo(observation);
}

void EdgeCluster::step(const std::vector<double>& link_capacity_bytes) {
  if (finished_) {
    throw std::logic_error("EdgeCluster::step: already finished");
  }
  if (link_capacity_bytes.size() != links_.size()) {
    throw std::invalid_argument(
        "EdgeCluster::step: one capacity draw per link required");
  }

  // Rebalance-on-departure needs to see which reservations this slot's
  // departures release, so snapshot every link's reserved load before
  // begin_slot. Policy-gated: default runs pay one branch.
  if (config_.handover.enabled && config_.handover.rebalance_on_departure) {
    for (std::size_t k = 0; k < links_.size(); ++k) {
      prev_reserved_[k] = links_[k]->admission().reserved_load();
    }
  }

  // 1. Departures everywhere first, so this slot's arrivals can be placed
  //    into reservations freed on any link.
  for (auto& link : links_) link->begin_slot();

  // 2. Placement (the one cluster-centralized act). Sessions displaced by an
  //    outage re-enter first — they were admitted before this slot's
  //    arrivals existed — then the slot's arrivals.
  place_displaced();
  place_arrivals();

  // 2b. Handover: once placement settles the slot's membership, migrate
  //     sessions off degraded or pressured links. A migration aborted here
  //     lands on the displaced queue and re-enters placement next slot.
  if (config_.handover.enabled) evaluate_handover();

  // 2c. Brownout: every link evaluates its degradation policy on the slot's
  //     final reservations — after this slot's arrivals, re-placements and
  //     migrations — so a session placed this slot decides under the
  //     ceiling it caused. A policy that is off costs this branch.
  if (config_.serving.degradation.enabled) {
    for (auto& link : links_) link->evaluate_brownout();
  }

  // 3. Each link decides, schedules and drains with its own capacity, one
  //    task per link on the executor (inline at threads == 1 or K == 1). A
  //    link's finish_slot touches only that link's state, so any thread
  //    count is bit-identical to serial. The fault plane shapes the
  //    effective capacity here: a downed link offers zero (so utilization
  //    never counts capacity nobody could use) and a faded link offers its
  //    scaled draw. ×1.0 is the bitwise multiply identity, so with no
  //    faults the totals are bit-for-bit the pre-fault-plane ones.
  for (std::size_t k = 0; k < links_.size(); ++k) {
    const LinkState& state = link_state_[k];
    caps_scratch_[k] =
        state.down ? 0.0 : link_capacity_bytes[k] * state.effective;
  }
  executor_.parallel_for(links_.size(), [this](std::size_t k) {
    reports_[k] = links_[k]->finish_slot(caps_scratch_[k]);
  });

  // 4. The fleet-wide slot totals, folded in link order (the order is what
  //    keeps the floating-point sums identical at every thread count).
  double offered = 0.0, used = 0.0;
  std::size_t active = 0;
  for (const SessionManager::SlotReport& report : reports_) {
    offered += report.capacity_offered;
    used += report.capacity_used;
    active += report.active_sessions;
  }
  metrics_.record_slot(offered, used, active);
  ++slot_;
}

std::size_t EdgeCluster::active_count() const noexcept {
  std::size_t total = 0;
  for (const auto& link : links_) total += link->active_count();
  return total;
}

bool EdgeCluster::request_close(std::size_t session_id) {
  if (finished_) {
    throw std::logic_error("EdgeCluster::request_close: already finished");
  }
  if (session_id >= entries_.size()) return false;
  Entry& e = *entries_[session_id];
  if (e.admitted) {
    if (e.fault_evicted) return false;  // already ended by an outage
    if (e.displaced) {
      // The owning link is down and the session is queued for re-placement:
      // the close lands on the eviction path (its trace already ended at the
      // drain) instead of being silently dropped.
      e.displaced = false;
      e.departure_actual = slot_;
      ++books_.fault_closed;
      return true;
    }
    return links_[static_cast<std::size_t>(e.link)]->request_close(
        e.runtime_id);
  }
  if (!e.arrived && !e.cancelled) {
    e.cancelled = true;
    return true;
  }
  return false;  // refused, already cancelled, or already closed
}

std::size_t EdgeCluster::next_pending_arrival_slot() const noexcept {
  // Displaced sessions make the current slot "pending": the driver must
  // step (not idle-skip) so re-placement happens immediately.
  if (!displaced_.empty()) return slot_;
  return pending_head_ < pending_.size()
             ? entries_[pending_[pending_head_]]->due
             : kNeverDeparts;
}

std::size_t EdgeCluster::skip_idle_slots(std::size_t max_slots) {
  if (finished_) {
    throw std::logic_error("EdgeCluster::skip_idle_slots: already finished");
  }
  if (active_count() != 0) {
    throw std::logic_error("EdgeCluster::skip_idle_slots: sessions are active");
  }
  std::size_t slots = max_slots;
  if (!displaced_.empty()) slots = 0;  // re-placement is due this slot
  if (pending_head_ < pending_.size()) {
    const std::size_t due = entries_[pending_[pending_head_]]->due;
    slots = due > slot_ ? std::min(slots, due - slot_) : 0;
  }
  for (auto& link : links_) link->skip_idle_slots(slots);
  slot_ += slots;
  return slots;
}

ClusterResult EdgeCluster::finish() {
  if (finished_) {
    throw std::logic_error("EdgeCluster::finish: already finished");
  }
  finished_ = true;

  // Sessions still displaced when the run ends never got a re-placement
  // slot: count them as fault-evicted so the failover books balance
  // (displaced == replaced + evicted + closed, nothing stranded).
  for (const std::size_t entry_id : displaced_) {
    Entry& e = *entries_[entry_id];
    if (!e.displaced) continue;
    e.displaced = false;
    e.fault_evicted = true;
    e.departure_actual = slot_;
    ++books_.fault_evicted;
  }
  displaced_.clear();

  // Every link walks its segments in placement order and fills the outcome
  // of each current one — the segment whose runtime id is its entry's —
  // straight into the result, summarized once. The links released every
  // segment a failover or migration superseded when it happened, so each
  // link holds only the segments its sessions ended on, and per_link[k]
  // covers the sessions that ended on link k. A session's current segment
  // lives on exactly one link, so each link's finish writes outcomes no
  // other link touches (and only reads the entries and the failover
  // owners): the links finish as one executor task each, like their slots.
  ClusterResult result;
  result.sessions.resize(entries_.size());
  executor_.parallel_for(links_.size(), [&](std::size_t k) {
    links_[k]->finish([&](std::size_t runtime_id) -> SessionOutcome* {
      const std::size_t owner = owner_of(runtime_id);
      return runtime_id == entries_[owner]->runtime_id
                 ? &result.sessions[owner].session
                 : nullptr;
    });
  });

  for (const auto& entry : entries_) {
    const Entry& e = *entry;
    ClusterSessionOutcome& out = result.sessions[e.id];
    out.link = e.link;
    out.spilled = e.spilled;
    out.arrived = e.arrived;
    out.failovers = e.failovers;
    out.migrations = e.migrations;
    out.fault_evicted = e.fault_evicted;
    // The segment carried its per-link runtime id; report the cluster id.
    out.session.id = e.id;
    if (!e.admitted) {
      // Refused everywhere (or never arrived): no link holds a record, so
      // the outcome is synthesized here.
      out.session.arrival_slot = e.arrival_actual;
      out.session.departure_slot = e.arrived ? e.departure_actual
                                             : e.arrival_actual;
      out.session.weight = e.spec.weight;
      out.session.max_sustainable_depth =
          e.arrived ? e.max_sustainable_depth : 0;
    }
    metrics_.record_session(
        e.arrived, e.admitted,
        out.session.has_summary ? &out.session.summary : nullptr);
  }

  static_cast<FaultBooks&>(result.metrics) = books_;
  result.metrics.link_count = links_.size();
  result.metrics.fleet = metrics_.fleet();
  result.metrics.spills = spills_;
  result.metrics.placement_rejects = placement_rejects_;
  std::vector<double> link_used;
  link_used.reserve(links_.size());
  for (const auto& link : links_) {
    result.metrics.per_link.push_back(link->metrics().fleet());
    result.metrics.per_link_admission.push_back(link->admission_stats());
    link_used.push_back(result.metrics.per_link.back().capacity_used);
  }
  result.metrics.link_load_fairness = jain_fairness_index(link_used);
  return result;
}

CsvTable ClusterResult::session_table() const {
  CsvTable table({"session", "link", "placed", "spilled", "arrival",
                  "departure", "weight", "avg_quality", "avg_backlog",
                  "mean_depth", "verdict"});
  for (const ClusterSessionOutcome& s : sessions) {
    const SessionOutcome& o = s.session;
    std::vector<CsvCell> row{
        static_cast<std::int64_t>(o.id),
        s.link >= 0 ? CsvCell(static_cast<std::int64_t>(s.link)) : CsvCell(),
        std::string(!s.arrived ? "never-arrived" : o.admitted ? "yes" : "no"),
        std::string(s.spilled ? "yes" : "no"),
        static_cast<std::int64_t>(o.arrival_slot),
        static_cast<std::int64_t>(o.departure_slot),
        o.weight};
    if (o.has_summary) {
      row.insert(row.end(),
                 {o.summary.time_average_quality,
                  o.summary.time_average_backlog, o.summary.mean_depth,
                  std::string(o.summary.partial
                                  ? "too-short"
                                  : to_string(o.summary.stability.verdict))});
    } else {
      row.insert(row.end(),
                 {CsvCell(), CsvCell(), CsvCell(), std::string("-")});
    }
    table.add_row(std::move(row));
  }
  return table;
}

CsvTable ClusterResult::link_table() const {
  CsvTable table({"link", "placed", "attempts", "accepted", "rejected",
                  "capacity_offered", "capacity_used", "utilization",
                  "mean_quality", "divergent"});
  for (std::size_t k = 0; k < metrics.per_link.size(); ++k) {
    const FleetMetrics& fleet = metrics.per_link[k];
    const AdmissionStats& adm = metrics.per_link_admission[k];
    table.add_row({static_cast<std::int64_t>(k),
                   static_cast<std::int64_t>(fleet.sessions_admitted),
                   static_cast<std::int64_t>(adm.attempts),
                   static_cast<std::int64_t>(adm.accepted),
                   static_cast<std::int64_t>(adm.rejected),
                   fleet.capacity_offered, fleet.capacity_used,
                   fleet.utilization(), fleet.mean_quality,
                   static_cast<std::int64_t>(fleet.divergent_sessions)});
  }
  return table;
}

// run_cluster_scenario is defined in serving/driver/event_loop.cpp: the
// fixed-horizon loop is now a thin wrapper over the event-driven driver, so
// the driver is the single execution path.

}  // namespace arvis

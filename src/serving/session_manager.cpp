#include "serving/session_manager.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace arvis {

SessionManager::SessionManager(const ServingConfig& config,
                               double mean_capacity_bytes)
    : config_(config),
      mean_capacity_bytes_(mean_capacity_bytes),
      admission_(config.admission, mean_capacity_bytes),
      scheduler_(make_scheduler(config.policy)),
      store_(config.candidates, config.v) {
  if (config_.steps == 0) {
    throw std::invalid_argument("SessionManager: steps must be > 0");
  }
  if (config_.candidates.empty()) {
    throw std::invalid_argument("SessionManager: empty candidate set");
  }
  // The flattened decide kernel assumes (and the argmax tie-break exploits)
  // strictly ascending candidates; the view-based path enforced this on
  // every decide, so the manager now enforces it once at the door.
  for (std::size_t i = 1; i < config_.candidates.size(); ++i) {
    if (config_.candidates[i] <= config_.candidates[i - 1]) {
      throw std::invalid_argument(
          "SessionManager: candidates must be strictly ascending");
    }
  }
  if (config_.pf_ewma_window != 0.0 &&
      !(config_.pf_ewma_window >= 1.0 &&
        std::isfinite(config_.pf_ewma_window))) {
    throw std::invalid_argument(
        "SessionManager: pf_ewma_window must be 0 (off) or >= 1");
  }
  if (config_.degradation.enabled) {
    const DegradationPolicy& policy = config_.degradation;
    if (!(policy.enter_utilization > 0.0) ||
        !std::isfinite(policy.enter_utilization) ||
        !(policy.exit_utilization >= 0.0) ||
        policy.exit_utilization >= policy.enter_utilization) {
      throw std::invalid_argument(
          "SessionManager: degradation needs 0 <= exit < enter utilization");
    }
    if (policy.min_candidates < 1 ||
        policy.min_candidates > config_.candidates.size()) {
      throw std::invalid_argument(
          "SessionManager: degradation min_candidates outside [1, width]");
    }
  }
  tier_limit_scratch_.assign(kSloTiers, 0);
  validate_telemetry(config_.telemetry, "SessionManager");
  flight_ = resolve_flight_recorder(config_.telemetry);
  register_telemetry();
}

void SessionManager::register_telemetry() {
  const TelemetryConfig& tel = config_.telemetry;
  tid_ = tel.tid;
  if (tel.trace_on()) tracer_ = tel.tracer;
  if (!tel.counters_on()) return;
  TelemetryRegistry& reg = *tel.registry;
  const std::string prefix = "link" + std::to_string(tel.tid) + "/";
  c_slots_ = &reg.counter(prefix + "slots");
  c_adm_accept_ = &reg.counter(prefix + "admission_accepted");
  c_adm_reject_ = &reg.counter(prefix + "admission_rejected");
  c_closed_ = &reg.counter(prefix + "sessions_closed");
  h_active_ = &reg.histogram(prefix + "active_sessions");
  h_slot_used_ = &reg.histogram(prefix + "slot_used_bytes");
  h_lifetime_ = &reg.histogram(prefix + "session_lifetime_slots");
  c_brownout_ = &reg.counter(prefix + "brownout_transitions");
}

SessionManager::~SessionManager() = default;

void SessionManager::validate_spec(const SessionSpec& spec) const {
  if (spec.cache == nullptr) {
    throw std::invalid_argument("SessionManager: null cache");
  }
  AdmissionController::candidate_range(*spec.cache, config_.candidates);
  if (spec.departure_slot <= spec.arrival_slot) {
    throw std::invalid_argument(
        "SessionManager: departure must be after arrival");
  }
  // A spec placed after its declared arrival simply arrives now, but a
  // window that has entirely elapsed can never stream a slot inside its
  // declared lifetime.
  if (spec.departure_slot <= slot_) {
    throw std::invalid_argument(
        "SessionManager: departure slot already elapsed");
  }
  if (spec.weight < 0.0) {
    throw std::invalid_argument("SessionManager: negative weight");
  }
  if (spec.qos >= kSloTiers) {
    throw std::invalid_argument("SessionManager: qos tier out of range");
  }
}

void SessionManager::retire(ServingSession& s) {
  s.phase = SessionPhase::kClosed;
  s.departure_actual = slot_;
  admission_.release(s.cheapest_load);
  if (c_closed_ != nullptr) {
    c_closed_->add(1);
    h_lifetime_->record(static_cast<double>(slot_ - s.arrival_actual));
  }
  if (flight_ != nullptr) {
    flight_->record(FlightEventKind::kClose, slot_, tid_,
                    static_cast<double>(s.id),
                    static_cast<double>(slot_ - s.arrival_actual));
  }
}

SessionManager::Placement SessionManager::try_place(const SessionSpec& spec,
                                                    std::size_t session_id) {
  if (finished_) {
    throw std::logic_error("SessionManager::try_place: already finished");
  }
  validate_spec(spec);
  Placement decision;
  static_cast<AdmissionDecision&>(decision) =
      admission_.try_admit(*spec.cache, config_.candidates);
  if (c_adm_accept_ != nullptr) {
    (decision.admitted ? c_adm_accept_ : c_adm_reject_)->add(1);
  }
  ++admission_stats_.attempts;
  ++(decision.admitted ? admission_stats_.accepted : admission_stats_.rejected);
  if (!decision.admitted) {
    if (flight_ != nullptr) {
      flight_->record(FlightEventKind::kReject, slot_, tid_,
                      static_cast<double>(session_id),
                      static_cast<double>(store_.active_count()));
    }
    return decision;
  }
  ServingSession& s = store_.create(session_id, spec);
  s.cheapest_load = decision.cheapest_load;
  s.max_sustainable_depth = decision.max_sustainable_depth;
  s.arrival_actual = slot_;
  s.phase = SessionPhase::kActive;
  store_.activate(s, slot_);
  decision.segment = store_.newest();
  if (flight_ != nullptr) {
    flight_->record(FlightEventKind::kAdmit, slot_, tid_,
                    static_cast<double>(s.id),
                    static_cast<double>(store_.active_count()));
  }
  return decision;
}

void SessionManager::release_segment(std::uint32_t segment) {
  if (finished_) {
    throw std::logic_error("SessionManager::release_segment: already finished");
  }
  store_.release(segment);
}

bool SessionManager::request_close(std::size_t session_id) {
  if (finished_) {
    throw std::logic_error("SessionManager::request_close: already finished");
  }
  for (std::size_t i = 0; i < store_.active_count(); ++i) {
    if (store_.active_session(i).id != session_id) continue;
    // Departing "now": begin_slot() retires departure_slot <= slot_ at the
    // next slot start, before this slot streams.
    store_.set_departure(i, slot_);
    return true;
  }
  return false;
}

void SessionManager::begin_slot() {
  if (finished_) {
    throw std::logic_error("SessionManager::begin_slot: already finished");
  }
  const PhaseSpan span(tracer_, Phase::kBeginSlot, slot_, tid_);
  // Sweeps the dense departure mirror; the cold slab is only touched for
  // sessions actually retiring, so a no-departure slot reads one array.
  store_.retire_departed(slot_, [this](ServingSession& s) { retire(s); });
}

void SessionManager::evaluate_brownout() {
  const DegradationPolicy& policy = config_.degradation;
  const double capacity = admission_.scaled_admissible();
  const double reserved = admission_.reserved_load();
  // Zero scaled capacity with anything reserved is infinite pressure (a
  // fully faded link); zero on zero is idle.
  const double utilization =
      capacity > 0.0
          ? reserved / capacity
          : (reserved > 0.0 ? std::numeric_limits<double>::infinity() : 0.0);
  const std::size_t width = config_.candidates.size();
  if (!brownout_ && utilization >= policy.enter_utilization) {
    brownout_ = true;
    ++brownout_enters_;
    for (std::size_t t = 0; t < kSloTiers; ++t) {
      const std::size_t drop = policy.tier_drop[t];
      const std::size_t floor = policy.min_candidates;
      const std::size_t lim = width > drop ? width - drop : floor;
      tier_limit_scratch_[t] = static_cast<std::uint32_t>(std::max(lim, floor));
    }
    store_.set_tier_limits(tier_limit_scratch_);
    if (c_brownout_ != nullptr) c_brownout_->add(1);
    if (flight_ != nullptr) {
      flight_->record(FlightEventKind::kBrownoutEnter, slot_, tid_,
                      utilization, static_cast<double>(store_.active_count()));
    }
  } else if (brownout_ && utilization <= policy.exit_utilization) {
    brownout_ = false;
    for (std::size_t t = 0; t < kSloTiers; ++t) {
      tier_limit_scratch_[t] = static_cast<std::uint32_t>(width);
    }
    store_.set_tier_limits(tier_limit_scratch_);
    if (c_brownout_ != nullptr) c_brownout_->add(1);
    if (flight_ != nullptr) {
      flight_->record(FlightEventKind::kBrownoutExit, slot_, tid_,
                      utilization, static_cast<double>(store_.active_count()));
    }
  }
}

std::size_t SessionManager::evict_all_active(std::vector<EvictedSession>& out) {
  if (finished_) {
    throw std::logic_error(
        "SessionManager::evict_all_active: already finished");
  }
  const std::size_t evicted = store_.active_count();
  if (evicted == 0) return 0;
  out.reserve(out.size() + evicted);
  store_.retire_active(
      [](const ServingSession&) { return true; },
      [&](ServingSession& s) {
        out.push_back(EvictedSession{s.id, s.spec});
        retire(s);
      });
  return evicted;
}

bool SessionManager::extract_session(std::size_t session_id,
                                     MigratedSession& out) {
  if (finished_) {
    throw std::logic_error("SessionManager::extract_session: already finished");
  }
  // Capture the hot mirrors before retirement compacts (and poisons) them.
  const std::size_t n = store_.active_count();
  std::size_t index = n;
  for (std::size_t i = 0; i < n; ++i) {
    if (store_.active_session(i).id == session_id) {
      index = i;
      break;
    }
  }
  if (index == n) return false;
  out.hot = store_.hot_state(index);
  store_.retire_at(index, [&](ServingSession& s) {
    out.id = s.id;
    out.spec = s.spec;  // live spec: reflects any external close
    retire(s);
  });
  return true;
}

SessionManager::Placement SessionManager::place_migrated(
    const MigratedSession& migrated, std::size_t session_id) {
  const Placement decision = try_place(migrated.spec, session_id);
  // try_place activated the session at the back of the active list with a
  // fresh stream; resume the carried one instead.
  if (decision.admitted) store_.inject_hot_state(migrated.hot);
  return decision;
}

void SessionManager::set_capacity_scale(double scale) {
  admission_.set_capacity_scale(scale);
}

SessionManager::SlotReport SessionManager::finish_slot(double capacity_bytes) {
  const std::size_t n = store_.active_count();
  const bool pf_history = config_.pf_ewma_window > 0.0;
  {
    // Decide phase: every active session runs its own controller on local
    // state (one argmax over its candidate row).
    const PhaseSpan span(tracer_, Phase::kDecide, slot_, tid_);
    store_.decide_all();
  }
  {
    const PhaseSpan span(tracer_, Phase::kSchedule, slot_, tid_);
    // Schedule phase: the one centralized act — the link divides its own
    // capacity. Sessions never see each other's state. The scheduler reads
    // the store's SoA spans in place; nothing is copied in.
    SchedulerInput demands;
    demands.backlog = store_.backlogs();
    demands.arrivals = store_.decided_arrivals();
    demands.weight = store_.weights();
    // Empty span = "no history": proportional-fair falls back to
    // instantaneous demand, keeping the window-off path bit-identical to the
    // legacy one.
    if (pf_history) demands.ewma_throughput = store_.ewma_throughput();
    scheduler_->allocate(capacity_bytes, demands, shares_);
  }

  // Drain phase. The link is charged what the queues actually drained
  // (min(Q(t), share) per session, reported by the queue) — same-slot
  // arrivals enter *after* service in the Lindley order, so charging
  // min(share, backlog + arrivals) would over-report utilization.
  const double alpha = pf_history ? 1.0 / config_.pf_ewma_window : 0.0;
  double used = 0.0;
  {
    const PhaseSpan span(tracer_, Phase::kDrain, slot_, tid_);
    for (std::size_t i = 0; i < n; ++i) {
      used += store_.drain(i, shares_[i], alpha);
    }
  }
  // Telemetry flush: a handful of instrument updates per *slot* boundary,
  // never per session — the disabled path pays one branch here.
  if (c_slots_ != nullptr) {
    c_slots_->add(1);
    h_active_->record(static_cast<double>(n));
    h_slot_used_->record(used);
  }
  metrics_.record_slot(capacity_bytes, used, n);
  ++slot_;
  return SlotReport{capacity_bytes, used, n};
}

std::size_t SessionManager::active_count() const noexcept {
  return store_.active_count();
}

void SessionManager::accumulate_slo(SloObservation& observation) {
  // Gauges over the active set (validate_spec guarantees spec.qos <
  // kSloTiers). The backlog-age proxy divides each session's queue by its
  // fair share of the mean link rate: backlog · active / mean_capacity —
  // slots of queued work, the paper's stability quantity rephrased as a
  // latency.
  SloTierSample local[kSloTiers];
  const std::size_t n = store_.active_count();
  const std::span<const double> backlogs = store_.backlogs();
  for (auto& scratch : slo_scratch_) scratch.clear();
  for (std::size_t i = 0; i < n; ++i) {
    ServingSession& s = store_.active_session(i);
    const auto t = static_cast<std::size_t>(s.spec.qos);
    const double delay =
        mean_capacity_bytes_ > 0.0
            ? backlogs[i] * static_cast<double>(n) / mean_capacity_bytes_
            : 0.0;
    slo_scratch_[t].push_back(delay);
    slo_scratch_[kSloTiers].push_back(delay);
    local[t].active += 1;
    // Live records are sealed only at retire; the store knows the last
    // step's quality.
    if (store_.recorded_steps(i) != 0) {
      const double quality = store_.last_quality(i);
      if (!local[t].has_quality || quality < local[t].min_quality) {
        local[t].min_quality = quality;
        local[t].has_quality = true;
      }
    }
  }
  const auto p95 = [](std::vector<double>& delays) {
    const std::size_t k = delays.size();
    const auto rank =
        static_cast<std::size_t>(std::ceil(0.95 * static_cast<double>(k)));
    const std::size_t idx = (rank > 0 ? rank : 1) - 1;
    std::nth_element(delays.begin(),
                     delays.begin() + static_cast<std::ptrdiff_t>(idx),
                     delays.end());
    return delays[idx];
  };
  for (std::size_t t = 0; t < kSloTiers; ++t) {
    if (!slo_scratch_[t].empty()) {
      local[t].p95_delay_slots = p95(slo_scratch_[t]);
    }
    merge_slo_sample(observation.tier[t], local[t]);
  }
  // The total lane repeats the merge with the link-exact all-tier p95 so a
  // cluster's total is still the worst link, not a tier artifact.
  SloTierSample total;
  for (std::size_t t = 0; t < kSloTiers; ++t) merge_slo_sample(total, local[t]);
  if (!slo_scratch_[kSloTiers].empty()) {
    total.p95_delay_slots = p95(slo_scratch_[kSloTiers]);
  }
  merge_slo_sample(observation.total, total);
}

void SessionManager::skip_idle_slots(std::size_t slots) {
  if (finished_) {
    throw std::logic_error("SessionManager::skip_idle_slots: already finished");
  }
  if (store_.active_count() != 0) {
    throw std::logic_error(
        "SessionManager::skip_idle_slots: sessions are active");
  }
  slot_ += slots;
}

void SessionManager::fill_outcomes(std::span<const std::uint32_t> order,
                                   std::span<SessionOutcome* const> outcomes) {
  std::vector<SessionTrace::SummaryJob> jobs;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const SessionTrace& trace = store_.session(order[i]).trace;
    if (outcomes[i] == nullptr || trace.empty()) continue;
    jobs.push_back({&trace, order[i], &outcomes[i]->summary});
  }
  SessionTrace::summarize_in_arena_order(store_.arena(),
                                         store_.session_count(), jobs);
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (outcomes[i] == nullptr) continue;
    ServingSession& s = store_.session(order[i]);
    SessionOutcome& out = *outcomes[i];
    out.id = s.id;
    // Every session on a link was placed on it: arrived and admitted.
    out.admitted = true;
    out.arrival_slot = s.arrival_actual;
    out.departure_slot = s.departure_actual;
    out.weight = s.spec.weight;
    out.max_sustainable_depth = s.max_sustainable_depth;
    out.has_summary = !s.trace.empty();
    metrics_.record_session(true, true,
                            out.has_summary ? &out.summary : nullptr);
    out.trace = std::move(s.trace);
  }
}

}  // namespace arvis

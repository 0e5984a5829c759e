#include "serving/telemetry/slo.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace arvis {

const char* to_string(SloMetric metric) noexcept {
  switch (metric) {
    case SloMetric::kAcceptRatio: return "accept_ratio";
    case SloMetric::kRejectRatio: return "reject_ratio";
    case SloMetric::kSpillRatio: return "spill_ratio";
    case SloMetric::kP95QueueDelay: return "p95_queue_delay";
    case SloMetric::kQualityFloor: return "quality_floor";
  }
  return "?";
}

const char* to_string(SloState state) noexcept {
  switch (state) {
    case SloState::kOk: return "ok";
    case SloState::kBlip: return "blip";
    case SloState::kBreach: return "breach";
  }
  return "?";
}

void validate_slo(const SloConfig& config, const char* who) {
  const std::string prefix(who);
  if (config.windows.fast < 1) {
    throw std::invalid_argument(prefix + ": fast window must be >= 1");
  }
  if (config.windows.slow < config.windows.fast) {
    throw std::invalid_argument(prefix + ": slow window must be >= fast");
  }
  for (const SloSpec& spec : config.specs) {
    if (spec.name.empty()) {
      throw std::invalid_argument(prefix + ": SLO spec needs a name");
    }
    if (!std::isfinite(spec.threshold) || spec.threshold < 0.0) {
      throw std::invalid_argument(prefix + ": bad threshold for SLO '" +
                                  spec.name + "'");
    }
    if (spec.tier < -1 || spec.tier >= static_cast<int>(kSloTiers)) {
      throw std::invalid_argument(prefix + ": bad tier for SLO '" +
                                  spec.name + "'");
    }
  }
}

void merge_slo_sample(SloTierSample& into,
                      const SloTierSample& from) noexcept {
  into.accepted += from.accepted;
  into.rejected += from.rejected;
  into.active += from.active;
  if (from.p95_delay_slots > into.p95_delay_slots) {
    into.p95_delay_slots = from.p95_delay_slots;
  }
  if (from.has_quality &&
      (!into.has_quality || from.min_quality < into.min_quality)) {
    into.min_quality = from.min_quality;
    into.has_quality = true;
  }
}

SloMonitor::SloMonitor(const SloConfig& config) : config_(config) {
  validate_slo(config_, "SloMonitor");
  states_.assign(config_.specs.size(), SloState::kOk);
}

namespace {

const SloTierSample& spec_sample(const SloObservation& observation,
                                 const SloSpec& spec) noexcept {
  if (spec.tier < 0) return observation.total;
  return observation.tier[static_cast<std::size_t>(spec.tier)];
}

}  // namespace

SloMonitor::Eval SloMonitor::evaluate(const SloSpec& spec,
                                      std::size_t window) const noexcept {
  const std::size_t n = history_.size();
  // Gauges: worst value over the window's observations.
  if (spec.metric == SloMetric::kP95QueueDelay) {
    const std::size_t count = std::min(window, n);
    double worst = 0.0;
    for (std::size_t i = n - count; i < n; ++i) {
      const double v = spec_sample(history_[i], spec).p95_delay_slots;
      if (v > worst) worst = v;
    }
    return {worst, worst > spec.threshold};
  }
  if (spec.metric == SloMetric::kQualityFloor) {
    const std::size_t count = std::min(window, n);
    double worst = 0.0;
    bool any = false;
    for (std::size_t i = n - count; i < n; ++i) {
      const SloTierSample& s = spec_sample(history_[i], spec);
      if (!s.has_quality) continue;
      if (!any || s.min_quality < worst) worst = s.min_quality;
      any = true;
    }
    if (!any) return {0.0, false};  // nothing delivered yet: passing
    return {worst, worst < spec.threshold};
  }
  // Ratios: cumulative-counter deltas across the window. While the history
  // is still shorter than the window nothing has been trimmed yet, so an
  // implicit all-zero observation before the first sample is the exact
  // run-start base.
  const SloObservation zero{};
  const SloObservation& newest = history_[n - 1];
  const SloObservation& base = n > window ? history_[n - 1 - window] : zero;
  if (spec.metric == SloMetric::kSpillRatio) {
    // Cluster-wide by construction: placement counters are not tiered.
    // `placed` already counts every spilled session, so the arrivals placement
    // decided are placed + rejects.
    const std::uint64_t placed = newest.placed - base.placed;
    const std::uint64_t spills = newest.spills - base.spills;
    const std::uint64_t rejects =
        newest.placement_rejects - base.placement_rejects;
    const std::uint64_t attempts = placed + rejects;
    if (attempts == 0) return {0.0, false};  // no placements: passing
    const double value =
        static_cast<double>(spills) / static_cast<double>(attempts);
    return {value, value > spec.threshold};
  }
  const SloTierSample& now = spec_sample(newest, spec);
  const SloTierSample& then = spec_sample(base, spec);
  const std::uint64_t accepted = now.accepted - then.accepted;
  const std::uint64_t rejected = now.rejected - then.rejected;
  const std::uint64_t offered = accepted + rejected;
  if (spec.metric == SloMetric::kAcceptRatio) {
    if (offered == 0) return {1.0, false};  // no arrivals: passing
    const double value =
        static_cast<double>(accepted) / static_cast<double>(offered);
    return {value, value < spec.threshold};
  }
  // kRejectRatio
  if (offered == 0) return {0.0, false};
  const double value =
      static_cast<double>(rejected) / static_cast<double>(offered);
  return {value, value > spec.threshold};
}

std::vector<SloTransition> SloMonitor::observe(
    const SloObservation& observation) {
  history_.push_back(observation);
  while (history_.size() > config_.windows.slow + 1) history_.pop_front();
  std::vector<SloTransition> out;
  for (std::size_t i = 0; i < config_.specs.size(); ++i) {
    const SloSpec& spec = config_.specs[i];
    const Eval fast = evaluate(spec, config_.windows.fast);
    const Eval slow = evaluate(spec, config_.windows.slow);
    SloState next = SloState::kOk;
    if (fast.violated && slow.violated) {
      next = SloState::kBreach;
    } else if (fast.violated || slow.violated) {
      next = SloState::kBlip;
    }
    if (next == states_[i]) continue;
    const SloTransition transition{observation.slot, i,          states_[i],
                                   next,             fast.value, slow.value,
                                   spec.threshold};
    transitions_.push_back(transition);
    out.push_back(transition);
    if (next == SloState::kBreach) ++breaches_;
    if (next == SloState::kBlip) ++blips_;
    states_[i] = next;
  }
  return out;
}

CsvTable slo_transitions_table(const std::vector<SloSpec>& specs,
                               const std::vector<SloTransition>& transitions) {
  CsvTable table(
      {"slot", "spec", "from", "to", "fast", "slow", "threshold"});
  for (const SloTransition& t : transitions) {
    table.add_row({static_cast<std::int64_t>(t.slot), specs[t.spec].name,
                   to_string(t.from), to_string(t.to), t.fast_value,
                   t.slow_value, t.threshold});
  }
  return table;
}

}  // namespace arvis

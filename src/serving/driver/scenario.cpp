#include "serving/driver/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "queueing/arrival_process.hpp"

namespace arvis {

const char* to_string(ScenarioKind kind) noexcept {
  switch (kind) {
    case ScenarioKind::kPoisson: return "poisson";
    case ScenarioKind::kBursty: return "bursty";
    case ScenarioKind::kDiurnal: return "diurnal";
    case ScenarioKind::kFlashCrowd: return "flash-crowd";
  }
  return "?";
}

ScenarioGenerator::ScenarioGenerator(const ScenarioConfig& config)
    : config_(config) {
  if (config.horizon == 0) {
    throw std::invalid_argument("ScenarioGenerator: horizon must be > 0");
  }
  if (!(config.base_rate >= 0.0) || !std::isfinite(config.base_rate)) {
    throw std::invalid_argument(
        "ScenarioGenerator: base_rate must be finite and >= 0");
  }
  if (!(config.mean_duration >= 1.0) || !std::isfinite(config.mean_duration)) {
    throw std::invalid_argument(
        "ScenarioGenerator: mean_duration must be finite and >= 1");
  }
  if (config.profile_count == 0) {
    throw std::invalid_argument("ScenarioGenerator: profile_count must be > 0");
  }
  if (config.best_effort_fraction < 0.0 || config.premium_fraction < 0.0 ||
      config.best_effort_fraction + config.premium_fraction > 1.0) {
    throw std::invalid_argument(
        "ScenarioGenerator: QoS fractions must be >= 0 and sum to <= 1");
  }
}

WorkloadTrace ScenarioGenerator::generate() const {
  // Independent streams from the one seed: the count process and the
  // attribute draws never share randomness, so swapping the arrival process
  // leaves session attributes (for the arrivals both emit) comparable.
  Rng root(config_.seed);
  const std::unique_ptr<ArrivalProcess> process = make_process(root.split());
  Rng attribute_rng = root.split();
  WorkloadTrace trace;
  trace.events.reserve(static_cast<std::size_t>(
      config_.base_rate * static_cast<double>(config_.horizon) * 2.0 + 16.0));
  for (std::size_t slot = 0; slot < config_.horizon; ++slot) {
    const auto count = static_cast<std::uint64_t>(process->next_arrivals());
    for (std::uint64_t a = 0; a < count; ++a) {
      TraceEvent event;
      event.t_arrive = slot;
      // Fixed draw order (tier, duration, profile) keeps traces reproducible
      // attribute-by-attribute.
      const double u = attribute_rng.next_double();
      if (u < config_.best_effort_fraction) {
        event.qos = QosClass::kBestEffort;
      } else if (u < config_.best_effort_fraction + config_.premium_fraction) {
        event.qos = QosClass::kPremium;
      } else {
        event.qos = QosClass::kStandard;
      }
      event.weight = default_qos_weight(event.qos);
      double duration =
          std::round(attribute_rng.exponential(1.0 / config_.mean_duration));
      duration = std::max(duration, 1.0);
      if (config_.max_duration > 0) {
        duration =
            std::min(duration, static_cast<double>(config_.max_duration));
      }
      event.duration = static_cast<std::size_t>(duration);
      event.profile = static_cast<std::uint32_t>(
          attribute_rng.below(config_.profile_count));
      trace.events.push_back(event);
    }
  }
  return trace;
}

std::unique_ptr<ArrivalProcess> PoissonScenario::make_process(Rng rng) const {
  return std::make_unique<PoissonArrivals>(config_.base_rate, rng);
}

std::unique_ptr<ArrivalProcess> BurstyScenario::make_process(Rng rng) const {
  // ON rate = base / pi_on keeps the long-run mean at base_rate, so the
  // bursty kind offers the same load as the other kinds — just clumped.
  const double denom = config_.p_on_to_off + config_.p_off_to_on;
  const double pi_on = denom > 0.0 ? config_.p_off_to_on / denom : 1.0;
  if (pi_on <= 0.0) {
    throw std::invalid_argument(
        "BurstyScenario: chain is never ON (p_off_to_on == 0)");
  }
  return std::make_unique<BurstyArrivals>(config_.base_rate / pi_on,
                                          config_.p_on_to_off,
                                          config_.p_off_to_on, rng);
}

std::unique_ptr<ArrivalProcess> DiurnalScenario::make_process(Rng rng) const {
  return std::make_unique<SinusoidModulatedArrivals>(
      config_.base_rate, config_.diurnal_amplitude, config_.diurnal_period,
      rng);
}

std::unique_ptr<ArrivalProcess> FlashCrowdScenario::make_process(
    Rng rng) const {
  return std::make_unique<FlashCrowdArrivals>(
      config_.base_rate, config_.spike_multiplier,
      config_.resolved_spike_start(), config_.spike_duration, rng);
}

std::unique_ptr<ScenarioGenerator> make_scenario(ScenarioKind kind,
                                                 const ScenarioConfig& config) {
  switch (kind) {
    case ScenarioKind::kPoisson:
      return std::make_unique<PoissonScenario>(config);
    case ScenarioKind::kBursty:
      return std::make_unique<BurstyScenario>(config);
    case ScenarioKind::kDiurnal:
      return std::make_unique<DiurnalScenario>(config);
    case ScenarioKind::kFlashCrowd:
      return std::make_unique<FlashCrowdScenario>(config);
  }
  throw std::invalid_argument("make_scenario: unknown kind");
}

}  // namespace arvis

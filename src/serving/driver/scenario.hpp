// ScenarioGenerator: synthesizes WorkloadTraces for the event-driven driver.
//
// Each generator turns one seeded ScenarioConfig into a reproducible session
// churn pattern — the slot-level arrival *counts* come from the library's
// queueing/arrival_process generators (Poisson, MMPP on-off, sine-modulated,
// flash-crowd), and per-session attributes (duration, profile, QoS tier,
// weight) are drawn from an independent split of the same seed, so changing
// the arrival process never perturbs the attribute stream and vice versa.
// The four kinds cover the regimes the paper's fixed session lists could not:
//
//   poisson      stationary open-loop churn (the M/G/inf baseline)
//   bursty       MMPP on-off — arrivals cluster, then silence
//   diurnal      sine-modulated rate (a compressed day/night cycle)
//   flash-crowd  stationary base plus a short spike window of multiplied rate
//                (the admission-control stress test)
//
// A generator materializes its whole trace (generate()); replay_trace runs
// it like any loaded file.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>

#include "common/rng.hpp"
#include "serving/driver/trace.hpp"

namespace arvis {

/// Knobs shared by every generator plus the kind-specific ones (ignored by
/// kinds they do not apply to). One struct so benches can sweep kinds over a
/// single config.
struct ScenarioConfig {
  /// Arrivals are generated for slots [0, horizon); sessions admitted near
  /// the end keep streaming past it for their duration.
  std::size_t horizon = 2'000;
  /// Mean session arrivals per slot in the stationary regime.
  double base_rate = 0.02;
  /// Mean session duration (slots); drawn per session as
  /// max(1, round(Exp(mean))).
  double mean_duration = 250.0;
  /// Hard cap on drawn durations (0 = uncapped).
  std::size_t max_duration = 0;
  /// Number of bytes-per-slot profiles replay will supply; profile ids are
  /// drawn uniformly from [0, profile_count).
  std::size_t profile_count = 1;
  /// QoS mix: P(best-effort), P(premium); the rest is standard. Weights
  /// follow default_qos_weight per class.
  double best_effort_fraction = 0.2;
  double premium_fraction = 0.1;
  std::uint64_t seed = 1;

  // --- bursty (MMPP on-off) ---
  /// Geometric dwell: ON slots arrive at base_rate / pi_on (pi_on = the
  /// stationary ON fraction p_off_to_on / (p_on_to_off + p_off_to_on)), OFF
  /// slots are silent — so the long-run mean stays base_rate and every
  /// scenario kind offers the same load, just shaped differently. Smaller
  /// pi_on = rarer, hotter bursts.
  double p_on_to_off = 0.05;
  double p_off_to_on = 0.02;

  // --- diurnal (sine-modulated) ---
  /// Rate swing in [0, 1]: rate(t) = base * (1 + amplitude * sin(2πt/period)).
  double diurnal_amplitude = 0.8;
  std::size_t diurnal_period = 500;

  // --- flash crowd ---
  /// Spike window start (kSpikeAtMidpoint = horizon / 2).
  std::size_t spike_start = std::numeric_limits<std::size_t>::max();
  std::size_t spike_duration = 60;
  /// Rate inside the spike window = spike_multiplier * base_rate.
  double spike_multiplier = 10.0;

  /// Resolved spike start (the sentinel default means "mid-horizon").
  [[nodiscard]] std::size_t resolved_spike_start() const noexcept {
    return spike_start == std::numeric_limits<std::size_t>::max()
               ? horizon / 2
               : spike_start;
  }
};

enum class ScenarioKind { kPoisson, kBursty, kDiurnal, kFlashCrowd };

const char* to_string(ScenarioKind kind) noexcept;

/// Interface: a seeded trace synthesizer. generate() is const and draws
/// from private streams derived from config.seed, so the same generator
/// yields the same churn every call.
class ScenarioGenerator {
 public:
  /// Validates the shared knobs. Throws std::invalid_argument on horizon or
  /// profile_count == 0, negative/non-finite rates, mean_duration < 1, or a
  /// QoS mix outside the simplex.
  explicit ScenarioGenerator(const ScenarioConfig& config);
  virtual ~ScenarioGenerator() = default;

  /// The whole trace: slot by slot over [0, horizon), the process draws the
  /// slot's arrival count, then each arrival draws its attributes.
  [[nodiscard]] WorkloadTrace generate() const;
  [[nodiscard]] virtual std::string name() const = 0;

 protected:
  /// The per-slot arrival-count process (owns its RNG stream).
  [[nodiscard]] virtual std::unique_ptr<class ArrivalProcess> make_process(
      Rng rng) const = 0;

  ScenarioConfig config_;
};

/// Stationary Poisson churn.
class PoissonScenario final : public ScenarioGenerator {
 public:
  using ScenarioGenerator::ScenarioGenerator;
  [[nodiscard]] std::string name() const override { return "poisson"; }

 protected:
  [[nodiscard]] std::unique_ptr<ArrivalProcess> make_process(
      Rng rng) const override;
};

/// MMPP on-off bursts, mean-preserving. Throws std::invalid_argument (at
/// generate) on dwell probabilities outside [0, 1] or a chain that is never
/// ON (p_off_to_on == 0 cannot deliver base_rate).
class BurstyScenario final : public ScenarioGenerator {
 public:
  using ScenarioGenerator::ScenarioGenerator;
  [[nodiscard]] std::string name() const override { return "bursty"; }

 protected:
  [[nodiscard]] std::unique_ptr<ArrivalProcess> make_process(
      Rng rng) const override;
};

/// Sine-modulated diurnal cycle.
class DiurnalScenario final : public ScenarioGenerator {
 public:
  using ScenarioGenerator::ScenarioGenerator;
  [[nodiscard]] std::string name() const override { return "diurnal"; }

 protected:
  [[nodiscard]] std::unique_ptr<ArrivalProcess> make_process(
      Rng rng) const override;
};

/// Flash-crowd spike on a stationary base.
class FlashCrowdScenario final : public ScenarioGenerator {
 public:
  using ScenarioGenerator::ScenarioGenerator;
  [[nodiscard]] std::string name() const override { return "flash-crowd"; }

 protected:
  [[nodiscard]] std::unique_ptr<ArrivalProcess> make_process(
      Rng rng) const override;
};

std::unique_ptr<ScenarioGenerator> make_scenario(ScenarioKind kind,
                                                 const ScenarioConfig& config);

}  // namespace arvis

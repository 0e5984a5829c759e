// SloMonitor: declarative service-level objectives evaluated at snapshot
// boundaries, burn-rate style.
//
// The driver samples one SloObservation per snapshot (cumulative lifecycle
// counters plus instantaneous gauges, per QoS tier and in total) and feeds it
// to the monitor. Each SloSpec is then evaluated over TWO sliding windows:
// a fast window (last `fast` snapshots) that catches incidents quickly, and
// a slow window (last `slow` snapshots) that filters transients. A spec whose
// fast AND slow windows both violate is in breach (sustained degradation);
// exactly one violating window is a blip (short spike, or the tail of a
// resolved incident draining out of the slow window). Until enough history
// accumulates the windows evaluate over what exists — so both windows see
// the same data at startup and a violating first snapshot goes straight to
// breach, which is exactly what a smoke test with a deliberately tight SLO
// wants.
//
// Ratio metrics (accept/reject/spill) are computed from cumulative-counter
// deltas across the window; an empty denominator (no arrivals, no placement
// attempts) is passing — no traffic is not an SLO violation. Gauge metrics
// take the worst value over the window's observations: max for queueing
// delay, min for the delivered-quality floor.
//
// The monitor is pure bookkeeping: observe() returns the state transitions
// it detected and the caller (EventLoop) turns them into counters, warnings,
// flight-recorder events, and black-box dumps.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/csv.hpp"

namespace arvis {

/// QoS tiers the SLO engine accounts separately. Matches QosClass in
/// driver/trace.hpp (static_assert'd where the two layers meet):
/// 0 = best-effort, 1 = standard, 2 = premium.
inline constexpr std::size_t kSloTiers = 3;

/// What a spec measures.
enum class SloMetric : std::uint8_t {
  /// accepted / (accepted + rejected) over the window; violated when BELOW
  /// the threshold (a floor).
  kAcceptRatio,
  /// rejected / (accepted + rejected) over the window; violated when ABOVE
  /// the threshold (a ceiling).
  kRejectRatio,
  /// spills / (placed + placement rejects) over the window — the share of
  /// the arrivals placement decided that landed off their first-choice link
  /// (`placed` counts spilled sessions too); violated when ABOVE the
  /// threshold. Cluster-wide only (spill counters are not tiered); a
  /// per-tier spec still reads the cluster totals.
  kSpillRatio,
  /// Worst p95 backlog-age proxy (slots of work queued at current service
  /// rate) over the window; violated when ABOVE the threshold.
  kP95QueueDelay,
  /// Worst (minimum) delivered quality over active sessions over the
  /// window; violated when BELOW the threshold (a floor). Passing until a
  /// session has delivered at least one step.
  kQualityFloor,
};

inline constexpr std::size_t kSloMetricCount = 5;

const char* to_string(SloMetric metric) noexcept;

/// One declarative objective.
struct SloSpec {
  /// Stable identifier; becomes the counter suffix ("slo/<name>/breaches")
  /// and the log/flight tag. Must be non-empty.
  std::string name;
  SloMetric metric = SloMetric::kAcceptRatio;
  /// Floor for kAcceptRatio/kQualityFloor, ceiling otherwise. Finite, >= 0.
  double threshold = 0.0;
  /// QoS tier the spec watches, or -1 for the all-tiers total.
  int tier = -1;
};

/// Window lengths, in snapshots.
struct SloWindows {
  std::size_t fast = 3;
  std::size_t slow = 12;
};

/// The monitor's config, embedded in DriverConfig. Empty specs = SLO engine
/// off (the driver then skips sampling entirely).
struct SloConfig {
  std::vector<SloSpec> specs;
  SloWindows windows;
  /// When non-empty, the driver writes a flight-recorder black box here on
  /// every transition INTO breach (the incident's first moments are still in
  /// the ring).
  std::string black_box_path;
};

/// Throws std::invalid_argument on a malformed config (empty spec name,
/// non-finite/negative threshold, tier outside [-1, kSloTiers), fast < 1,
/// slow < fast).
void validate_slo(const SloConfig& config, const char* who);

/// Per-spec evaluation state.
enum class SloState : std::uint8_t {
  kOk,
  /// Exactly one window violating: short spike or draining incident tail.
  kBlip,
  /// Both windows violating: sustained degradation.
  kBreach,
};

const char* to_string(SloState state) noexcept;

/// One tier's sample inside an observation. Counters are cumulative since
/// run start (the monitor differences them); gauges are instantaneous.
struct SloTierSample {
  std::uint64_t accepted = 0;   ///< cumulative arrivals placed on a link
  std::uint64_t rejected = 0;   ///< cumulative arrivals every link refused
  std::size_t active = 0;       ///< sessions active right now
  /// p95 over active sessions of backlog/service-rate (slots); the cluster
  /// reports the worst link's value.
  double p95_delay_slots = 0.0;
  /// Minimum delivered quality over active sessions with >= 1 step.
  double min_quality = 0.0;
  bool has_quality = false;     ///< false until any session delivered a step
};

/// One snapshot's worth of SLO inputs. Backends fill it additively
/// (accumulate_slo), so a cluster folds every link into one observation.
struct SloObservation {
  std::size_t slot = 0;
  SloTierSample total;
  SloTierSample tier[kSloTiers];
  /// Cluster placement outcomes, cumulative. `placed` counts every admitted
  /// arrival, spilled ones included; `spills` is the subset admitted off
  /// its first-choice link.
  std::uint64_t placed = 0;
  std::uint64_t spills = 0;
  std::uint64_t placement_rejects = 0;
};

/// Folds `from`'s gauges and counters into `into`: counters and active add,
/// p95 delay takes the max (worst link view), quality floor takes the min.
void merge_slo_sample(SloTierSample& into, const SloTierSample& from) noexcept;

/// One state change, as returned by observe().
struct SloTransition {
  std::size_t slot = 0;
  std::size_t spec = 0;  ///< index into SloConfig::specs
  SloState from = SloState::kOk;
  SloState to = SloState::kOk;
  double fast_value = 0.0;
  double slow_value = 0.0;
  double threshold = 0.0;
};

/// The evaluation engine. Construct once per run with a validated config,
/// call observe() at every snapshot, read back states and transition
/// history at the end.
class SloMonitor {
 public:
  explicit SloMonitor(const SloConfig& config);

  /// Ingests one observation, re-evaluates every spec, records and returns
  /// the transitions this snapshot caused (empty most of the time).
  std::vector<SloTransition> observe(const SloObservation& observation);

  [[nodiscard]] const SloConfig& config() const noexcept { return config_; }
  [[nodiscard]] SloState state(std::size_t spec) const noexcept {
    return states_[spec];
  }
  /// Every transition observed so far, oldest first.
  [[nodiscard]] const std::vector<SloTransition>& transitions() const
      noexcept {
    return transitions_;
  }
  /// Total transitions INTO kBreach so far.
  [[nodiscard]] std::uint64_t breach_count() const noexcept {
    return breaches_;
  }
  /// Total transitions INTO kBlip so far.
  [[nodiscard]] std::uint64_t blip_count() const noexcept { return blips_; }

 private:
  /// Evaluates `spec` over the last `window` snapshots; returns the value
  /// and whether it violates. Defined in the .cpp.
  struct Eval {
    double value = 0.0;
    bool violated = false;
  };
  [[nodiscard]] Eval evaluate(const SloSpec& spec,
                              std::size_t window) const noexcept;

  SloConfig config_;
  /// Last slow+1 observations, oldest first: a window of W snapshots needs
  /// W+1 samples to difference cumulative counters.
  std::deque<SloObservation> history_;
  std::vector<SloState> states_;
  std::vector<SloTransition> transitions_;
  std::uint64_t breaches_ = 0;
  std::uint64_t blips_ = 0;
};

/// (slot, spec, from, to, fast, slow, threshold) rows for a transition list
/// (DriverReport exposes its transitions through this).
[[nodiscard]] CsvTable slo_transitions_table(
    const std::vector<SloSpec>& specs,
    const std::vector<SloTransition>& transitions);

}  // namespace arvis

// Deterministic fault plans for the event-driven serving driver.
//
// A FaultPlan is a sorted list of control events — link outages, recoveries
// and capacity scaling — that the EventLoop schedules on its calendar
// alongside arrivals, departures and snapshots. Plans are either composed
// from the builder verbs below (outage / flap / fade / brownout) or drawn
// from a seeded FaultPlanConfig, so the same seed always produces the same
// chaos: replaying a scenario with the same workload seed and the same fault
// plan is bit-for-bit reproducible.
//
// The plan layer knows nothing about EdgeCluster internals: the driver hands
// each event to the backend whole (ServingBackend::apply_fault), and the
// cluster applies it to one per-link LinkState (EdgeCluster::apply_fault).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.hpp"

namespace arvis {

/// What a single fault event does to its target link.
enum class FaultKind : std::uint8_t {
  kLinkDown,       ///< Link fails: active sessions drain into failover.
  kLinkUp,         ///< Link recovers and rejoins the placement rotation.
  kCapacityScale,  ///< Link capacity is multiplied by `scale` (radio fade,
                   ///< brownout). scale == 1.0 restores nominal capacity.
  kLinkDegrade,    ///< Graded degradation: capacity is multiplied by `scale`
                   ///< AND `delay` slots of added per-slot latency are
                   ///< reported on the link (feeding the cluster's
                   ///< HandoverPolicy degradation score). Generalizes
                   ///< radio fade beyond a scalar scale; scale == 1.0 with
                   ///< delay == 0.0 restores the link to nominal.
};

/// Number of FaultKind values (per-kind counters index by the ordinal).
inline constexpr std::size_t kFaultKindCount =
    static_cast<std::size_t>(FaultKind::kLinkDegrade) + 1;

/// Largest scale a fault may carry, and the largest effective (operator x
/// degrade) scale a link may reach.
inline constexpr double kMaxFaultScale = 1e6;

/// True for the kinds that carry a capacity scale (kCapacityScale,
/// kLinkDegrade); the others hold exactly scale == 1.0.
[[nodiscard]] bool fault_carries_scale(FaultKind kind) noexcept;

/// Stable lowercase name, e.g. "link-down". Used by the trace CSV format.
const char* to_string(FaultKind kind) noexcept;

/// Parses the names emitted by to_string. Returns false on unknown input.
bool parse_fault_kind(const std::string& text, FaultKind& out) noexcept;

/// One scheduled fault. `scale` is meaningful only for the scale-carrying
/// kinds (kCapacityScale, kLinkDegrade) and must be exactly 1.0 otherwise;
/// `delay` is meaningful only for kLinkDegrade and must be exactly 0.0
/// otherwise (keeps the trace round-trip exact).
struct FaultEvent {
  std::size_t slot = 0;
  FaultKind kind = FaultKind::kLinkDown;
  std::uint32_t link = 0;
  double scale = 1.0;
  double delay = 0.0;

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

/// An ordered fault schedule. Builder verbs append and keep `events` sorted
/// by slot (stable, so same-slot events fire in composition order).
struct FaultPlan {
  std::vector<FaultEvent> events;

  [[nodiscard]] bool empty() const noexcept { return events.empty(); }

  /// One-shot outage: link goes down at `at` and recovers `duration` slots
  /// later. duration == 0 means the link never recovers.
  FaultPlan& outage(std::uint32_t link, std::size_t at, std::size_t duration);

  /// Correlated flap: every link in `links` goes down together at
  /// `at + r * period` and recovers `down_slots` later, `repeats` times.
  /// Models a shared-backhaul or handover burst taking out a link group.
  FaultPlan& correlated_flap(const std::vector<std::uint32_t>& links,
                             std::size_t at, std::size_t down_slots,
                             std::size_t period, std::size_t repeats);

  /// Radio fade: capacity ramps down in `steps` equal stages to
  /// `floor_scale`, holds for `hold_slots`, then ramps back to 1.0.
  FaultPlan& radio_fade(std::uint32_t link, std::size_t at,
                        std::size_t ramp_slots, double floor_scale,
                        std::size_t hold_slots, std::size_t steps = 4);

  /// Brownout plateau: capacity drops to `scale` at `at` and restores to
  /// 1.0 after `duration` slots.
  FaultPlan& brownout(std::uint32_t link, std::size_t at, std::size_t duration,
                      double scale);

  /// Graded degradation pulse: link capacity ramps down in `steps` equal
  /// kLinkDegrade stages to `floor_scale` while the reported per-slot delay
  /// ramps up to `delay`, holds for `hold_slots`, then recovers to nominal
  /// in one step. The handover analogue of radio_fade: the cluster's
  /// HandoverPolicy sees the delay/scale signal and can migrate sessions
  /// off the link before it bottoms out.
  FaultPlan& degrade_pulse(std::uint32_t link, std::size_t at,
                           std::size_t ramp_slots, double floor_scale,
                           double delay, std::size_t hold_slots,
                           std::size_t steps = 3);

  /// Seeded per-session mobility walk: `walkers` simulated users hop
  /// between the `link_count` links every ~`dwell_slots` slots over
  /// [at, at + horizon). Each hop degrades the link the walker leaves with
  /// a degrade_pulse down to `floor_scale` (+ `delay` reported per-slot
  /// latency) — the handover/mobility scenario family. Composable with
  /// every scenario generator (the fault stream is independent of the
  /// arrival stream); same seed, same walk, bit-for-bit.
  FaultPlan& handover_walk(std::uint64_t seed, std::size_t link_count,
                           std::size_t walkers, std::size_t at,
                           std::size_t horizon, std::size_t dwell_slots,
                           double floor_scale, double delay);

  /// Merges another plan's events into this one (stable by slot).
  FaultPlan& merge(const FaultPlan& other);
};

/// Validates one event on its own: scale finite, in [0, kMaxFaultScale] and
/// exactly 1.0 on kinds that carry none; delay finite, non-negative and
/// exactly 0.0 on kinds other than kLinkDegrade. The slot and link are the
/// plan's and the backend's to check.
[[nodiscard]] Status validate_fault_event(const FaultEvent& event);

/// Validates a plan against a backend with `link_count` links (0 skips the
/// link bound check): events sorted by slot, links in range, and every event
/// valid per validate_fault_event.
[[nodiscard]] Status validate_fault_plan(const FaultPlan& plan,
                                         std::size_t link_count);

/// Seeded chaos mix. Draws each requested shape at a deterministic slot and
/// link; composable with every scenario generator (the fault stream is
/// independent of the arrival stream).
struct FaultPlanConfig {
  std::uint64_t seed = 0x0FA017ULL;
  std::size_t link_count = 2;   ///< Links to target (>= 1).
  std::size_t horizon = 1000;   ///< Events land in [warmup, horizon).
  std::size_t warmup = 0;       ///< No faults before this slot.

  std::size_t outages = 1;          ///< One-shot outages.
  std::size_t outage_slots = 40;    ///< Outage duration.
  std::size_t flaps = 0;            ///< Correlated multi-link flap groups.
  std::size_t flap_links = 2;       ///< Links per flap group (capped at K).
  std::size_t flap_down_slots = 6;  ///< Down time per flap.
  std::size_t flap_period = 20;     ///< Slots between flap repeats.
  std::size_t flap_repeats = 3;     ///< Repeats per flap group.
  std::size_t fades = 0;            ///< Radio-fade capacity ramps.
  double fade_floor = 0.3;          ///< Deepest fade scale.
  std::size_t fade_slots = 60;      ///< Ramp-down length (== ramp-up).
  std::size_t brownouts = 0;        ///< Capacity plateaus.
  double brownout_scale = 0.5;      ///< Plateau scale.
  std::size_t brownout_slots = 80;  ///< Plateau length.
  std::size_t walkers = 0;          ///< Mobility walkers (handover_walk).
  std::size_t walk_dwell_slots = 30;  ///< Mean slots between walker hops.
  double walk_floor = 0.4;          ///< Deepest degrade scale per hop.
  double walk_delay = 2.0;          ///< Reported per-slot delay at the floor.
};

/// Generates the plan described by `config`. Throws std::invalid_argument on
/// a malformed config (zero links, horizon <= warmup with shapes requested).
[[nodiscard]] FaultPlan make_fault_plan(const FaultPlanConfig& config);

}  // namespace arvis

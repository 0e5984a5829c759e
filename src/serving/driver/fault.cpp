#include "serving/driver/fault.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "common/rng.hpp"

namespace arvis {

const char* to_string(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::kLinkDown: return "link-down";
    case FaultKind::kLinkUp: return "link-up";
    case FaultKind::kCapacityScale: return "capacity-scale";
    case FaultKind::kLinkDegrade: return "link-degrade";
  }
  return "unknown";
}

bool parse_fault_kind(const std::string& text, FaultKind& out) noexcept {
  if (text == "link-down") {
    out = FaultKind::kLinkDown;
    return true;
  }
  if (text == "link-up") {
    out = FaultKind::kLinkUp;
    return true;
  }
  if (text == "capacity-scale") {
    out = FaultKind::kCapacityScale;
    return true;
  }
  if (text == "link-degrade") {
    out = FaultKind::kLinkDegrade;
    return true;
  }
  return false;
}

namespace {

void insert_sorted(std::vector<FaultEvent>& events, const FaultEvent& event) {
  // Stable insertion: same-slot events keep composition order.
  const auto pos = std::upper_bound(
      events.begin(), events.end(), event,
      [](const FaultEvent& a, const FaultEvent& b) { return a.slot < b.slot; });
  events.insert(pos, event);
}

}  // namespace

FaultPlan& FaultPlan::outage(std::uint32_t link, std::size_t at,
                             std::size_t duration) {
  insert_sorted(events, {at, FaultKind::kLinkDown, link, 1.0});
  if (duration > 0) {
    insert_sorted(events, {at + duration, FaultKind::kLinkUp, link, 1.0});
  }
  return *this;
}

FaultPlan& FaultPlan::correlated_flap(const std::vector<std::uint32_t>& links,
                                      std::size_t at, std::size_t down_slots,
                                      std::size_t period, std::size_t repeats) {
  if (down_slots == 0 || down_slots >= period) {
    throw std::invalid_argument(
        "correlated_flap: need 0 < down_slots < period");
  }
  for (std::size_t r = 0; r < repeats; ++r) {
    const std::size_t start = at + r * period;
    for (const std::uint32_t link : links) {
      insert_sorted(events, {start, FaultKind::kLinkDown, link, 1.0});
      insert_sorted(events,
                    {start + down_slots, FaultKind::kLinkUp, link, 1.0});
    }
  }
  return *this;
}

FaultPlan& FaultPlan::radio_fade(std::uint32_t link, std::size_t at,
                                 std::size_t ramp_slots, double floor_scale,
                                 std::size_t hold_slots, std::size_t steps) {
  if (steps == 0 || ramp_slots < steps) {
    throw std::invalid_argument("radio_fade: need 1 <= steps <= ramp_slots");
  }
  if (!(floor_scale >= 0.0) || !(floor_scale < 1.0) ||
      !std::isfinite(floor_scale)) {
    throw std::invalid_argument("radio_fade: floor_scale must be in [0, 1)");
  }
  const std::size_t stride = ramp_slots / steps;
  // Ramp down in `steps` equal stages...
  for (std::size_t s = 1; s <= steps; ++s) {
    const double frac = static_cast<double>(s) / static_cast<double>(steps);
    const double scale = 1.0 + frac * (floor_scale - 1.0);
    insert_sorted(events, {at + (s - 1) * stride, FaultKind::kCapacityScale,
                           link, scale});
  }
  // ...hold at the floor, then ramp back up symmetrically.
  const std::size_t up_at = at + steps * stride + hold_slots;
  for (std::size_t s = 1; s <= steps; ++s) {
    const double frac =
        static_cast<double>(steps - s) / static_cast<double>(steps);
    const double scale = 1.0 + frac * (floor_scale - 1.0);
    insert_sorted(events, {up_at + (s - 1) * stride, FaultKind::kCapacityScale,
                           link, scale});
  }
  return *this;
}

FaultPlan& FaultPlan::brownout(std::uint32_t link, std::size_t at,
                               std::size_t duration, double scale) {
  if (!(scale >= 0.0) || !std::isfinite(scale)) {
    throw std::invalid_argument("brownout: scale must be finite and >= 0");
  }
  insert_sorted(events, {at, FaultKind::kCapacityScale, link, scale});
  if (duration > 0) {
    insert_sorted(events,
                  {at + duration, FaultKind::kCapacityScale, link, 1.0});
  }
  return *this;
}

FaultPlan& FaultPlan::degrade_pulse(std::uint32_t link, std::size_t at,
                                    std::size_t ramp_slots, double floor_scale,
                                    double delay, std::size_t hold_slots,
                                    std::size_t steps) {
  if (steps == 0 || ramp_slots < steps) {
    throw std::invalid_argument("degrade_pulse: need 1 <= steps <= ramp_slots");
  }
  if (!(floor_scale >= 0.0) || !(floor_scale < 1.0) ||
      !std::isfinite(floor_scale)) {
    throw std::invalid_argument("degrade_pulse: floor_scale must be in [0, 1)");
  }
  if (!(delay >= 0.0) || !std::isfinite(delay)) {
    throw std::invalid_argument("degrade_pulse: delay must be finite and >= 0");
  }
  const std::size_t stride = ramp_slots / steps;
  // Capacity ramps down while the reported delay ramps up...
  for (std::size_t s = 1; s <= steps; ++s) {
    const double frac = static_cast<double>(s) / static_cast<double>(steps);
    insert_sorted(events,
                  {at + (s - 1) * stride, FaultKind::kLinkDegrade, link,
                   1.0 + frac * (floor_scale - 1.0), frac * delay});
  }
  // ...holds at the floor, then snaps back to nominal (a completed handover
  // re-acquires the link at full quality; the ramp models the drift away).
  insert_sorted(events, {at + steps * stride + hold_slots,
                         FaultKind::kLinkDegrade, link, 1.0, 0.0});
  return *this;
}

FaultPlan& FaultPlan::handover_walk(std::uint64_t seed, std::size_t link_count,
                                    std::size_t walkers, std::size_t at,
                                    std::size_t horizon,
                                    std::size_t dwell_slots, double floor_scale,
                                    double delay) {
  if (link_count < 2) {
    throw std::invalid_argument("handover_walk: need at least 2 links");
  }
  if (dwell_slots < 2) {
    throw std::invalid_argument("handover_walk: dwell_slots must be >= 2");
  }
  Rng rng(seed);
  for (std::size_t w = 0; w < walkers; ++w) {
    std::uint32_t here = static_cast<std::uint32_t>(rng.below(link_count));
    // Stagger walker starts across the first dwell so hops interleave.
    std::size_t t = at + static_cast<std::size_t>(rng.below(dwell_slots));
    while (t + dwell_slots < at + horizon) {
      // The link the walker leaves degrades while the walker is
      // mid-handover, then recovers once the walker settles elsewhere.
      const std::uint32_t next = static_cast<std::uint32_t>(
          (here + 1 + rng.below(link_count - 1)) % link_count);
      const std::size_t ramp = std::max<std::size_t>(2, dwell_slots / 4);
      degrade_pulse(here, t, ramp, floor_scale, delay, dwell_slots / 4,
                    /*steps=*/2);
      here = next;
      t += dwell_slots / 2 + static_cast<std::size_t>(rng.below(dwell_slots));
    }
  }
  return *this;
}

FaultPlan& FaultPlan::merge(const FaultPlan& other) {
  for (const FaultEvent& event : other.events) insert_sorted(events, event);
  return *this;
}

bool fault_carries_scale(FaultKind kind) noexcept {
  return kind == FaultKind::kCapacityScale || kind == FaultKind::kLinkDegrade;
}

Status validate_fault_event(const FaultEvent& event) {
  if (!std::isfinite(event.scale) || event.scale < 0.0 ||
      event.scale > kMaxFaultScale) {
    return Status::InvalidArgument("scale must be finite and in [0, 1e6]");
  }
  if (!fault_carries_scale(event.kind) && event.scale != 1.0) {
    return Status::InvalidArgument("scale != 1 on a kind that carries none");
  }
  if (!std::isfinite(event.delay) || event.delay < 0.0) {
    return Status::InvalidArgument("delay must be finite and >= 0");
  }
  if (event.kind != FaultKind::kLinkDegrade && event.delay != 0.0) {
    return Status::InvalidArgument(
        "delay != 0 on a kind other than link-degrade");
  }
  return Status::Ok();
}

Status validate_fault_plan(const FaultPlan& plan, std::size_t link_count) {
  std::size_t prev_slot = 0;
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    const FaultEvent& event = plan.events[i];
    if (event.slot < prev_slot) {
      return Status::InvalidArgument("fault plan not sorted at event " +
                                     std::to_string(i));
    }
    prev_slot = event.slot;
    if (link_count > 0 && event.link >= link_count) {
      return Status::OutOfRange("fault event " + std::to_string(i) +
                                " targets link " + std::to_string(event.link) +
                                " of " + std::to_string(link_count));
    }
    if (const Status status = validate_fault_event(event); !status.ok()) {
      return Status::InvalidArgument("fault event " + std::to_string(i) +
                                     ": " + status.message());
    }
  }
  return Status::Ok();
}

FaultPlan make_fault_plan(const FaultPlanConfig& config) {
  if (config.link_count == 0) {
    throw std::invalid_argument("make_fault_plan: link_count must be >= 1");
  }
  const std::size_t shapes = config.outages + config.flaps + config.fades +
                             config.brownouts + config.walkers;
  if (shapes > 0 && config.horizon <= config.warmup) {
    throw std::invalid_argument("make_fault_plan: horizon must exceed warmup");
  }
  FaultPlan plan;
  Rng rng(config.seed);
  const std::size_t window = config.horizon - config.warmup;
  const auto draw_slot = [&](std::size_t tail) {
    // Leave `tail` slots of room so the shape completes inside the horizon
    // when possible; degenerate windows land everything at warmup.
    const std::size_t usable = window > tail ? window - tail : 1;
    return config.warmup + static_cast<std::size_t>(rng.below(usable));
  };
  const auto draw_link = [&] {
    return static_cast<std::uint32_t>(rng.below(config.link_count));
  };
  for (std::size_t i = 0; i < config.outages; ++i) {
    const std::uint32_t link = draw_link();
    const std::size_t at = draw_slot(config.outage_slots + 1);
    plan.outage(link, at, config.outage_slots);
  }
  for (std::size_t i = 0; i < config.flaps; ++i) {
    const std::size_t group =
        std::max<std::size_t>(1, std::min(config.flap_links,
                                          config.link_count));
    std::vector<std::uint32_t> links;
    links.reserve(group);
    const std::uint32_t first = draw_link();
    for (std::size_t g = 0; g < group; ++g) {
      links.push_back(static_cast<std::uint32_t>(
          (first + g) % config.link_count));
    }
    const std::size_t at =
        draw_slot(config.flap_period * config.flap_repeats + 1);
    plan.correlated_flap(links, at, config.flap_down_slots, config.flap_period,
                         config.flap_repeats);
  }
  for (std::size_t i = 0; i < config.fades; ++i) {
    const std::uint32_t link = draw_link();
    const std::size_t at = draw_slot(2 * config.fade_slots + 1);
    plan.radio_fade(link, at, config.fade_slots, config.fade_floor,
                    config.fade_slots / 2);
  }
  for (std::size_t i = 0; i < config.brownouts; ++i) {
    const std::uint32_t link = draw_link();
    const std::size_t at = draw_slot(config.brownout_slots + 1);
    plan.brownout(link, at, config.brownout_slots, config.brownout_scale);
  }
  if (config.walkers > 0) {
    // Sub-seed keeps the walk independent of how many shapes drew before it.
    plan.handover_walk(config.seed ^ 0x9E3779B97F4A7C15ULL, config.link_count,
                       config.walkers, config.warmup, window,
                       config.walk_dwell_slots, config.walk_floor,
                       config.walk_delay);
  }
  return plan;
}

}  // namespace arvis

#include "serving/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace arvis {

namespace {

/// Water-fills `capacity` over the sessions in `unsatisfied` (a subset of
/// `demands`), equal-split seeded and weight-blind: repeatedly grant every
/// unsatisfied session an equal slice of what remains, capping each at its
/// demand, until capacity runs out or everyone is satisfied. Adds grants
/// into `shares` (callers zero-init). Consumes `unsatisfied` in place
/// (compacting between rounds — no allocation) and returns the capacity
/// left over once every demand in the subset is met.
double water_fill(double capacity, const SchedulerInput& demands,
                  std::vector<std::size_t>& unsatisfied,
                  std::vector<double>& shares) {
  while (capacity > 0.0 && !unsatisfied.empty()) {
    const double slice = capacity / static_cast<double>(unsatisfied.size());
    std::size_t kept = 0;
    double granted = 0.0;
    for (std::size_t i : unsatisfied) {
      const double want = demands.total(i) - shares[i];
      if (want <= slice) {
        shares[i] += want;
        granted += want;
      } else {
        shares[i] += slice;
        granted += slice;
        unsatisfied[kept++] = i;
      }
    }
    capacity -= granted;
    // No one was capped this round: everyone took a full slice, so the
    // remaining capacity is (numerically) zero and further rounds would
    // only chase rounding error.
    if (kept == unsatisfied.size()) break;
    unsatisfied.resize(kept);
  }
  return std::max(capacity, 0.0);
}

void fill_indices(std::vector<std::size_t>& index, std::size_t n) {
  index.resize(n);
  for (std::size_t i = 0; i < n; ++i) index[i] = i;
}

/// Two weights belong to the same priority tier when they differ by no more
/// than a relative epsilon — wide enough to absorb accumulated rounding from
/// different arithmetic paths, far too narrow to merge humanly distinct
/// priorities.
bool same_tier(double a, double b) noexcept {
  return std::abs(a - b) <= 1e-9 * std::max(std::abs(a), std::abs(b));
}

}  // namespace

void EqualShareScheduler::allocate(double capacity,
                                   const SchedulerInput& demands,
                                   std::vector<double>& shares) {
  const std::size_t n = demands.size();
  shares.assign(n, n == 0 ? 0.0 : capacity / static_cast<double>(n));
}

void WorkConservingScheduler::allocate(double capacity,
                                       const SchedulerInput& demands,
                                       std::vector<double>& shares) {
  const std::size_t n = demands.size();
  shares.assign(n, 0.0);
  if (n == 0) return;
  fill_indices(scratch_, n);
  const double leftover = water_fill(capacity, demands, scratch_, shares);
  // All demands met with capacity to spare: hand the excess back out
  // equally so an idle fleet still sees the full pipe (it will be wasted
  // by the queues, but the allocation itself stays work-conserving and
  // matches the seed's "equal split" baseline when nobody is backlogged).
  if (leftover > 0.0) {
    const double bonus = leftover / static_cast<double>(n);
    for (double& s : shares) s += bonus;
  }
}

void ProportionalFairScheduler::allocate(double capacity,
                                         const SchedulerInput& demands,
                                         std::vector<double>& shares) {
  const std::size_t n = demands.size();
  shares.assign(n, 0.0);
  if (n == 0) return;

  // True PF when history is supplied: divide each session's pull by
  // (1 + EWMA served bytes/slot). The +1 byte floors the denominator so a
  // brand-new session (EWMA 0) gets the largest catch-up pull instead of a
  // division by zero; at streaming scales (KBs/slot) the offset is noise.
  // Demands without history (ewma < 0) keep the instantaneous-demand pull,
  // preserving the legacy allocation bit for bit.
  const auto pull = [&](std::size_t i) {
    const double want = demands.total(i) - shares[i];
    const double history = demands.ewma(i);
    const double denom = history >= 0.0 ? 1.0 + history : 1.0;
    return demands.weight[i] * want / denom;
  };

  std::vector<std::size_t>& unsatisfied = scratch_;
  fill_indices(unsatisfied, n);
  while (capacity > 0.0 && !unsatisfied.empty()) {
    double mass = 0.0;
    for (std::size_t i : unsatisfied) mass += pull(i);
    if (mass <= 0.0) {
      // Only zero-weight (or zero-demand) sessions remain: proportional
      // offers would starve them forever, so the surplus-redistribution
      // contract falls back to plain water-filling.
      water_fill(capacity, demands, unsatisfied, shares);
      break;
    }
    std::size_t kept = 0;
    double granted = 0.0;
    bool capped = false;
    for (std::size_t i : unsatisfied) {
      const double want = demands.total(i) - shares[i];
      const double offer = capacity * pull(i) / mass;
      if (want <= offer) {
        shares[i] += want;
        granted += want;
        capped = true;
      } else {
        shares[i] += offer;
        granted += offer;
        unsatisfied[kept++] = i;
      }
    }
    capacity -= granted;
    if (!capped) break;  // everyone took exactly their proportional offer
    unsatisfied.resize(kept);
  }
}

void WeightedPriorityScheduler::sort_tiers(const SchedulerInput& demands) {
  const std::size_t n = demands.size();
  // Sorted index permutation (weight descending, index ascending for
  // determinism); tiers are maximal runs of epsilon-equal adjacent weights.
  fill_indices(perm_, n);
  std::sort(perm_.begin(), perm_.end(), [&](std::size_t a, std::size_t b) {
    if (demands.weight[a] != demands.weight[b]) {
      return demands.weight[a] > demands.weight[b];
    }
    return a < b;
  });
  tier_bounds_.clear();
  std::size_t begin = 0;
  while (begin < n) {
    std::size_t end = begin + 1;
    while (end < n && same_tier(demands.weight[perm_[end - 1]],
                                demands.weight[perm_[end]])) {
      ++end;
    }
    tier_bounds_.emplace_back(begin, end);
    begin = end;
  }
}

void WeightedPriorityScheduler::allocate(double capacity,
                                         const SchedulerInput& demands,
                                         std::vector<double>& shares) {
  const std::size_t n = demands.size();
  shares.assign(n, 0.0);
  if (n == 0) return;
  sort_tiers(demands);
  for (const auto& [begin, end] : tier_bounds_) {
    if (!(capacity > 0.0)) break;
    tier_.assign(perm_.begin() + static_cast<std::ptrdiff_t>(begin),
                 perm_.begin() + static_cast<std::ptrdiff_t>(end));
    capacity = water_fill(capacity, demands, tier_, shares);
  }
}

void DeficitRoundRobinScheduler::allocate(double capacity,
                                          const SchedulerInput& demands,
                                          std::vector<double>& shares) {
  const std::size_t n = demands.size();
  shares.assign(n, 0.0);
  if (n == 0) return;
  // Rotation order for this slot; the cursor advances once per allocation so
  // the position served first (which matters when capacity runs dry
  // mid-round) rotates across the fleet.
  std::size_t pos = cursor_ % n;
  ++cursor_;

  ring_.clear();
  // Deficit residue is zeroed for ring members only, as the build loop
  // visits them: sessions outside the ring are never read.
  deficit_.resize(n);
  double ring_weight = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    if (demands.weight[pos] > 0.0 && demands.total(pos) > 0.0) {
      ring_.push_back(pos);
      ring_weight += demands.weight[pos];
      deficit_[pos] = 0.0;
    }
    if (++pos == n) pos = 0;  // wrap: no division per session
  }

  double remaining = capacity;
  if (!ring_.empty() && ring_weight > 0.0 && remaining > 0.0) {
    // The quantum is recomputed from the *surviving* ring's weight each
    // round, so every round tops deficits up by exactly `capacity` in
    // aggregate no matter who already left — the loop meets every demand or
    // exhausts the link in O(1) rounds even when the last survivor's weight
    // is vanishingly small (a trace file may carry any weight >= 0).
    // Deficits persist across rounds within the slot (the "deficit" of the
    // name) so under-granted sessions catch up before anyone laps them.
    while (remaining > 0.0 && !ring_.empty()) {
      const double quantum = capacity / ring_weight;
      std::size_t kept = 0;
      double kept_weight = 0.0;
      for (std::size_t idx = 0; idx < ring_.size() && remaining > 0.0; ++idx) {
        const std::size_t i = ring_[idx];
        deficit_[i] += quantum * demands.weight[i];
        const double want = demands.total(i) - shares[i];
        const double grant = std::min({deficit_[i], want, remaining});
        shares[i] += grant;
        deficit_[i] -= grant;
        remaining -= grant;
        if (want - grant > 0.0) {
          ring_[kept++] = i;
          kept_weight += demands.weight[i];
        }
      }
      ring_.resize(kept);
      ring_weight = kept_weight;
    }
  }

  // Every weighted demand met with capacity left (or only zero-weight
  // sessions exist): zero-weight stragglers drink from the leftovers via
  // plain water-filling. Anything still left after that is wasted — DRR
  // grants no idle bonus, unlike WorkConserving.
  if (remaining > 0.0) {
    leftover_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (demands.weight[i] <= 0.0 && demands.total(i) - shares[i] > 0.0) {
        leftover_.push_back(i);
      }
    }
    if (!leftover_.empty()) water_fill(remaining, demands, leftover_, shares);
  }
}

const char* to_string(SchedulerPolicy policy) noexcept {
  switch (policy) {
    case SchedulerPolicy::kEqualShare: return "equal-share";
    case SchedulerPolicy::kWorkConserving: return "work-conserving";
    case SchedulerPolicy::kProportionalFair: return "proportional-fair";
    case SchedulerPolicy::kWeightedPriority: return "weighted-priority";
    case SchedulerPolicy::kDeficitRoundRobin: return "deficit-round-robin";
  }
  return "?";
}

std::unique_ptr<EdgeScheduler> make_scheduler(SchedulerPolicy policy) {
  switch (policy) {
    case SchedulerPolicy::kEqualShare:
      return std::make_unique<EqualShareScheduler>();
    case SchedulerPolicy::kWorkConserving:
      return std::make_unique<WorkConservingScheduler>();
    case SchedulerPolicy::kProportionalFair:
      return std::make_unique<ProportionalFairScheduler>();
    case SchedulerPolicy::kWeightedPriority:
      return std::make_unique<WeightedPriorityScheduler>();
    case SchedulerPolicy::kDeficitRoundRobin:
      return std::make_unique<DeficitRoundRobinScheduler>();
  }
  throw std::invalid_argument("make_scheduler: unknown policy");
}

}  // namespace arvis

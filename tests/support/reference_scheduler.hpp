// Reference scheduling for tests: the demand-struct shape of one slot's
// scheduler input, and the algorithm of every policy written over it.
//
// The runtime hands each policy per-field spans over its SoA mirrors; tests
// write one SchedulerDemand per session instead. allocate() unpacks such a
// set into SchedulerInput spans and runs a policy's kernel, so its shares are
// the kernel's, bit for bit. The `ref` algorithms are each policy's one
// algorithm written over demand structs, with DRR zeroing its whole deficit
// vector where the kernel zeroes ring members only; the kernels must
// reproduce them share for share, exact doubles.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "serving/scheduler.hpp"

namespace arvis_test {

/// One session's demand as seen by the scheduler in one slot.
struct SchedulerDemand {
  /// Queue backlog Q(t) at slot start (bytes).
  double backlog = 0.0;
  /// Bytes enqueued this slot, a(d(t)).
  double arrivals = 0.0;
  /// Relative priority (>= 0; only weighted policies look at it).
  double weight = 1.0;
  /// EWMA of bytes served per slot. Negative means "no history supplied":
  /// proportional-fair then weighs instantaneous demand.
  double ewma_throughput = -1.0;

  /// Most the session could drain this slot.
  [[nodiscard]] double total() const noexcept { return backlog + arrivals; }
};

/// Runs `scheduler`'s kernel over `demands` (writes shares[i] for demand i).
inline void allocate(arvis::EdgeScheduler& scheduler, double capacity,
                     const std::vector<SchedulerDemand>& demands,
                     std::vector<double>& shares) {
  const std::size_t n = demands.size();
  std::vector<double> backlog(n), arrivals(n), weight(n), ewma(n);
  for (std::size_t i = 0; i < n; ++i) {
    backlog[i] = demands[i].backlog;
    arrivals[i] = demands[i].arrivals;
    weight[i] = demands[i].weight;
    ewma[i] = demands[i].ewma_throughput;
  }
  scheduler.allocate(capacity,
                     arvis::SchedulerInput{backlog, arrivals, weight, ewma},
                     shares);
}

namespace ref {

inline double water_fill(double capacity,
                         const std::vector<SchedulerDemand>& d,
                         std::vector<std::size_t>& unsatisfied,
                         std::vector<double>& shares) {
  while (capacity > 0.0 && !unsatisfied.empty()) {
    const double slice = capacity / static_cast<double>(unsatisfied.size());
    std::size_t kept = 0;
    double granted = 0.0;
    for (std::size_t i : unsatisfied) {
      const double want = d[i].total() - shares[i];
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
    if (kept == unsatisfied.size()) break;
    unsatisfied.resize(kept);
  }
  return std::max(capacity, 0.0);
}

inline void work_conserving(double capacity,
                            const std::vector<SchedulerDemand>& d,
                            std::vector<double>& shares) {
  const std::size_t n = d.size();
  shares.assign(n, 0.0);
  if (n == 0) return;
  std::vector<std::size_t> unsatisfied(n);
  for (std::size_t i = 0; i < n; ++i) unsatisfied[i] = i;
  const double leftover = water_fill(capacity, d, unsatisfied, shares);
  if (leftover > 0.0) {
    const double bonus = leftover / static_cast<double>(n);
    for (double& s : shares) s += bonus;
  }
}

inline void proportional_fair(double capacity,
                              const std::vector<SchedulerDemand>& d,
                              std::vector<double>& shares) {
  const std::size_t n = d.size();
  shares.assign(n, 0.0);
  if (n == 0) return;
  const auto pull = [&](std::size_t i) {
    const double want = d[i].total() - shares[i];
    const double history = d[i].ewma_throughput;
    const double denom = history >= 0.0 ? 1.0 + history : 1.0;
    return d[i].weight * want / denom;
  };
  std::vector<std::size_t> unsatisfied(n);
  for (std::size_t i = 0; i < n; ++i) unsatisfied[i] = i;
  while (capacity > 0.0 && !unsatisfied.empty()) {
    double mass = 0.0;
    for (std::size_t i : unsatisfied) mass += pull(i);
    if (mass <= 0.0) {
      water_fill(capacity, d, unsatisfied, shares);
      break;
    }
    std::size_t kept = 0;
    double granted = 0.0;
    bool capped = false;
    for (std::size_t i : unsatisfied) {
      const double want = d[i].total() - shares[i];
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
    if (!capped) break;
    unsatisfied.resize(kept);
  }
}

inline void weighted_priority(double capacity,
                              const std::vector<SchedulerDemand>& d,
                              std::vector<double>& shares) {
  const std::size_t n = d.size();
  shares.assign(n, 0.0);
  if (n == 0) return;
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  std::sort(perm.begin(), perm.end(), [&](std::size_t a, std::size_t b) {
    if (d[a].weight != d[b].weight) return d[a].weight > d[b].weight;
    return a < b;
  });
  const auto same_tier = [](double a, double b) {
    return std::abs(a - b) <= 1e-9 * std::max(std::abs(a), std::abs(b));
  };
  std::size_t begin = 0;
  while (begin < n && capacity > 0.0) {
    std::size_t end = begin + 1;
    while (end < n &&
           same_tier(d[perm[end - 1]].weight, d[perm[end]].weight)) {
      ++end;
    }
    std::vector<std::size_t> tier(perm.begin() + begin, perm.begin() + end);
    capacity = water_fill(capacity, d, tier, shares);
    begin = end;
  }
}

inline void deficit_round_robin(double capacity,
                                const std::vector<SchedulerDemand>& d,
                                std::size_t cursor,
                                std::vector<double>& shares) {
  const std::size_t n = d.size();
  shares.assign(n, 0.0);
  if (n == 0) return;
  const std::size_t start = cursor % n;
  std::vector<std::size_t> ring;
  double ring_weight = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t i = (start + j) % n;
    if (d[i].weight > 0.0 && d[i].total() > 0.0) {
      ring.push_back(i);
      ring_weight += d[i].weight;
    }
  }
  double remaining = capacity;
  if (!ring.empty() && ring_weight > 0.0 && remaining > 0.0) {
    std::vector<double> deficit(n, 0.0);
    while (remaining > 0.0 && !ring.empty()) {
      const double quantum = capacity / ring_weight;
      std::size_t kept = 0;
      double kept_weight = 0.0;
      for (std::size_t idx = 0; idx < ring.size() && remaining > 0.0; ++idx) {
        const std::size_t i = ring[idx];
        deficit[i] += quantum * d[i].weight;
        const double want = d[i].total() - shares[i];
        const double grant = std::min({deficit[i], want, remaining});
        shares[i] += grant;
        deficit[i] -= grant;
        remaining -= grant;
        if (want - grant > 0.0) {
          ring[kept++] = i;
          kept_weight += d[i].weight;
        }
      }
      ring.resize(kept);
      ring_weight = kept_weight;
    }
  }
  if (remaining > 0.0) {
    std::vector<std::size_t> leftover;
    for (std::size_t i = 0; i < n; ++i) {
      if (d[i].weight <= 0.0 && d[i].total() - shares[i] > 0.0) {
        leftover.push_back(i);
      }
    }
    if (!leftover.empty()) water_fill(remaining, d, leftover, shares);
  }
}

}  // namespace ref

/// One scheduler of `policy` run through its reference algorithm,
/// slot after slot. DRR's rotation cursor advances once per non-empty slot,
/// as the kernel's does.
class ReferenceScheduler {
 public:
  explicit ReferenceScheduler(arvis::SchedulerPolicy policy)
      : policy_(policy) {}

  void allocate(double capacity, const std::vector<SchedulerDemand>& d,
                std::vector<double>& shares) {
    using arvis::SchedulerPolicy;
    const std::size_t n = d.size();
    switch (policy_) {
      case SchedulerPolicy::kEqualShare:
        shares.assign(n, n == 0 ? 0.0 : capacity / static_cast<double>(n));
        return;
      case SchedulerPolicy::kWorkConserving:
        ref::work_conserving(capacity, d, shares);
        return;
      case SchedulerPolicy::kProportionalFair:
        ref::proportional_fair(capacity, d, shares);
        return;
      case SchedulerPolicy::kWeightedPriority:
        ref::weighted_priority(capacity, d, shares);
        return;
      case SchedulerPolicy::kDeficitRoundRobin:
        ref::deficit_round_robin(capacity, d, drr_cursor_, shares);
        if (n > 0) ++drr_cursor_;
        return;
    }
  }

 private:
  arvis::SchedulerPolicy policy_;
  std::size_t drr_cursor_ = 0;
};

}  // namespace arvis_test

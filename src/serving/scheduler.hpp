// Per-slot link capacity allocation among concurrent serving sessions.
//
// The seed's edge scenario hardcoded two share policies in run_edge_scenario;
// the serving runtime needs them pluggable (the policy is the one piece of
// the edge that is centralized — devices stay fully distributed, the link
// merely divides its own capacity). All policies are functionally stateless
// per slot (they may keep scratch buffers so steady-state allocation stays
// zero, but no decision depends on a previous slot) and must uphold two
// invariants, checked by tests:
//   * shares[i] >= 0 for all i,
//   * sum(shares) <= capacity (+ float slack).
//
// The kernels consume *flat per-field arrays* (SchedulerInput spans over the
// session store's SoA mirrors) so the schedule phase walks contiguous
// memory with no per-session struct copy-in.
//
// Each policy runs one algorithm every slot, and the kernels must match
// the same algorithms written over demand structs
// (tests/support/reference_scheduler.hpp) share for share. DRR zeroes
// deficit residue for ring members only, the only entries it reads.
// Incrementally-maintained floating point *sums* are deliberately absent:
// they round differently from the canonical left-to-right pass.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <utility>
#include <vector>

namespace arvis {

/// One slot's demand set as flat per-field spans (SoA), index-parallel.
/// `ewma_throughput` may be EMPTY — "no history supplied for anyone", the
/// common case — or full-length with -1 marking individual no-history
/// entries.
struct SchedulerInput {
  std::span<const double> backlog;
  std::span<const double> arrivals;
  std::span<const double> weight;
  std::span<const double> ewma_throughput;

  [[nodiscard]] std::size_t size() const noexcept { return backlog.size(); }
  /// Most session i could drain this slot.
  [[nodiscard]] double total(std::size_t i) const noexcept {
    return backlog[i] + arrivals[i];
  }
  /// Session i's served-bytes history, -1 when none was supplied.
  [[nodiscard]] double ewma(std::size_t i) const noexcept {
    return ewma_throughput.empty() ? -1.0 : ewma_throughput[i];
  }
};

/// Interface: divides one slot's link capacity among sessions.
class EdgeScheduler {
 public:
  virtual ~EdgeScheduler() = default;

  /// Writes shares[i] = bytes granted to session i (resizes `shares`).
  /// `capacity` >= 0. Implementations never allocate more than `capacity`
  /// in total; whether capacity beyond a session's demand is wasted or
  /// redistributed is the policy's defining choice. The spans must stay
  /// valid for the duration of the call only.
  virtual void allocate(double capacity, const SchedulerInput& demands,
                        std::vector<double>& shares) = 0;
};

/// capacity / N to every session regardless of demand; unused share wasted
/// (TDMA-like). The seed's SharePolicy::kEqual.
class EqualShareScheduler final : public EdgeScheduler {
 public:
  void allocate(double capacity, const SchedulerInput& demands,
                std::vector<double>& shares) override;
};

/// Equal split, but shares unused by under-demanding sessions are
/// redistributed to backlogged ones (iterated to a fixpoint, i.e. full
/// water-filling — the seed ran a single redistribution round). Work
/// conserving: while any session's demand is unmet, no capacity is wasted.
class WorkConservingScheduler final : public EdgeScheduler {
 public:
  void allocate(double capacity, const SchedulerInput& demands,
                std::vector<double>& shares) override;

 private:
  std::vector<std::size_t> scratch_;  // reused across slots: no per-slot allocs
};

/// Shares proportional to weight * demand, capped at demand, with the
/// surplus re-divided among still-unsatisfied sessions (iterated). Sessions
/// with larger queues drain proportionally faster, which equalizes sojourn
/// times across heterogeneous content.
///
/// When demands carry an EWMA throughput history (ewma(i) >= 0, fed by the
/// session manager's pf_ewma_window knob) the offer becomes true
/// proportional fairness: weight * demand / (1 + historical throughput), so
/// a session that has been drinking from the link for many slots yields to
/// one that has been starved, instead of the instantaneous-demand split that
/// lets a heavy backlog monopolize the link forever.
class ProportionalFairScheduler final : public EdgeScheduler {
 public:
  void allocate(double capacity, const SchedulerInput& demands,
                std::vector<double>& shares) override;

 private:
  std::vector<std::size_t> scratch_;  // reused across slots: no per-slot allocs
};

/// Strict priority tiers by descending weight: each tier water-fills the
/// remaining capacity before any lower tier sees a byte. Within a tier,
/// equal-split water-filling. Starvation of low tiers under overload is the
/// intended behaviour (premium sessions).
///
/// Tiers are found by sorting an index permutation by weight (descending,
/// index-stable) and splitting where adjacent weights differ by more than a
/// relative epsilon — never by exact `double ==`, so weights that should be
/// equal but were produced by different arithmetic paths (0.1 + 0.2 vs 0.3)
/// land in one tier instead of silently forming a phantom priority level.
class WeightedPriorityScheduler final : public EdgeScheduler {
 public:
  void allocate(double capacity, const SchedulerInput& demands,
                std::vector<double>& shares) override;

 private:
  void sort_tiers(const SchedulerInput& demands);

  // Reused across slots: no per-slot allocs.
  std::vector<std::size_t> perm_;
  std::vector<std::size_t> tier_;
  std::vector<std::pair<std::size_t, std::size_t>> tier_bounds_;
};

/// Deficit round-robin, byte-granular: each round every positive-weight
/// session's deficit counter is topped up by its weighted quantum
/// (capacity * weight / Σweights) and the session drains up to its deficit,
/// visited in rotation order. The outcome is weighted max-min (unlike
/// WorkConserving's weight-blind split, ProportionalFair's demand-
/// proportional split, or WeightedPriority's strict tiers); the rotation
/// cursor advances one position per slot so the quantization residue —
/// whoever is visited first when capacity runs dry mid-round — does not
/// favour a fixed index. The cursor is the policy's only cross-slot state
/// and is deterministic, so runs stay bit-reproducible for any thread count.
/// Zero-weight sessions are served from leftovers only (plain water-fill
/// after every weighted demand is met).
class DeficitRoundRobinScheduler final : public EdgeScheduler {
 public:
  void allocate(double capacity, const SchedulerInput& demands,
                std::vector<double>& shares) override;

 private:
  std::size_t cursor_ = 0;
  // Reused across slots: no per-slot allocs.
  std::vector<std::size_t> ring_;
  std::vector<std::size_t> leftover_;
  std::vector<double> deficit_;
};

/// The pluggable policies by name (for configs and benches).
enum class SchedulerPolicy {
  kEqualShare,
  kWorkConserving,
  kProportionalFair,
  kWeightedPriority,
  kDeficitRoundRobin,
};

const char* to_string(SchedulerPolicy policy) noexcept;

std::unique_ptr<EdgeScheduler> make_scheduler(SchedulerPolicy policy);

}  // namespace arvis

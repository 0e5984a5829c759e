// Admission control for the shared edge link.
//
// The Lyapunov controllers keep every *admitted* session's queue stable only
// while the aggregate cheapest-depth load fits the link (the stability-region
// boundary of queueing/stability.hpp). Beyond that point no depth policy can
// help — the fleet diverges together. The admission controller enforces the
// boundary at session arrival: a session whose cheapest-depth mean load does
// not fit the residual capacity is rejected up front instead of destabilizing
// everyone already streaming.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "sim/frame_stats_cache.hpp"

namespace arvis {

struct AdmissionConfig {
  /// Fraction of mean link capacity the controller may promise away; keep
  /// < 1 to leave headroom for channel variance. In (0, 1].
  double utilization_target = 0.9;
  /// When false every session is admitted (the seed's behaviour).
  bool enabled = true;
};

/// One link's admission outcomes, reported with the fleet metrics
/// (SessionManager::admission_stats returns its one ledger, counted in
/// try_place). attempts == accepted + rejected.
struct AdmissionStats {
  std::size_t attempts = 0;
  std::size_t accepted = 0;
  std::size_t rejected = 0;
};

struct AdmissionDecision {
  bool admitted = false;
  /// Mean bytes/slot the session needs at its cheapest candidate depth.
  double cheapest_load = 0.0;
  /// Admissible capacity left before this decision (bytes/slot).
  double residual_capacity = 0.0;
  /// Deepest candidate the residual capacity could sustain for this session
  /// alone (d_min - 1 when not even the cheapest depth fits — the reject
  /// condition). Reported so operators see how much headroom a session has.
  int max_sustainable_depth = 0;
};

/// Stability-region admission for one shared link. Not thread-safe; the
/// session manager serializes arrivals.
class AdmissionController {
 public:
  /// `mean_capacity_bytes` is the link's long-run mean (ChannelModel::
  /// mean_capacity_bytes()). Throws std::invalid_argument on a target
  /// outside (0, 1], or (when enabled) a non-positive capacity.
  AdmissionController(const AdmissionConfig& config, double mean_capacity_bytes);

  /// [d_min, d_max] of `candidates`. Throws std::invalid_argument on an
  /// empty set or a candidate outside [1, cache.octree_depth()], the depths
  /// the cache's load curve covers (every serving path applies this rule).
  static std::pair<int, int> candidate_range(
      const FrameStatsCache& cache, const std::vector<int>& candidates);

  /// Mean bytes/slot of `cache`'s frames encoded at the cheapest candidate
  /// depth — the least load the session can impose while streaming at all.
  /// One read of the cache's mean_bytes_at_depth() curve; throws as
  /// candidate_range() does.
  [[nodiscard]] static double cheapest_depth_load(
      const FrameStatsCache& cache, const std::vector<int>& candidates);

  /// Decides on one session (an arrival, a failover re-placement or a
  /// migration); on accept, reserves its cheapest-depth load until release().
  /// Tests the cache's mean_bytes_at_depth() curve over the candidate range
  /// against the residual capacity: O(candidates), no heap allocation.
  /// Throws as candidate_range() does, enabled or not.
  AdmissionDecision try_admit(const FrameStatsCache& cache,
                              const std::vector<int>& candidates);

  /// Returns a departing session's reserved load to the pool.
  void release(double cheapest_load) noexcept;

  /// Σ cheapest-depth loads of currently admitted sessions (bytes/slot).
  [[nodiscard]] double reserved_load() const noexcept { return reserved_; }
  /// Admissible bytes/slot still unreserved.
  [[nodiscard]] double residual_capacity() const noexcept;

  /// Fault-plane hook: multiplies the admissible budget (radio fade,
  /// brownout). 1.0 restores nominal capacity — and is the bitwise identity,
  /// so runs that never scale are unchanged. Throws std::invalid_argument on
  /// a non-finite or negative scale.
  void set_capacity_scale(double scale);
  [[nodiscard]] double capacity_scale() const noexcept { return scale_; }
  /// Admissible bytes/slot under the current capacity scale.
  [[nodiscard]] double scaled_admissible() const noexcept {
    return admissible_ * scale_;
  }

 private:
  double admissible_;  // utilization_target * mean link capacity
  bool enabled_;
  double scale_ = 1.0;  // fault-plane capacity multiplier
  double reserved_ = 0.0;
};

}  // namespace arvis

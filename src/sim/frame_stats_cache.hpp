// Caches per-frame octree statistics (workload + quality tables) so the
// simulator's hot loop never rebuilds octrees, and the per-depth mean curves
// so admission never rescans the frames. Building the full-resolution
// octree of a ~1e6-point frame costs tens of milliseconds; the controller
// decision costs nanoseconds — the cache keeps the two separated so
// comparative runs (proposed vs baselines) see identical inputs.
#pragma once

#include <memory>
#include <vector>

#include "datasets/frame_source.hpp"
#include "delay/workload.hpp"

namespace arvis {

/// Precomputes and caches FrameWorkload for every frame of a source, and
/// the two per-depth mean curves over them, once, at construction.
class FrameStatsCache {
 public:
  /// Computes tables for all frames up to `frame_limit` (or the source's
  /// frame count, whichever is smaller; frame_limit = 0 means all).
  /// `octree_depth` is the maximum depth statistics are computed to.
  FrameStatsCache(const FrameSource& source, int octree_depth,
                  std::size_t frame_limit = 0);

  [[nodiscard]] std::size_t frame_count() const noexcept {
    return workloads_.size();
  }
  [[nodiscard]] int octree_depth() const noexcept { return octree_depth_; }

  /// Workload tables for slot t (frames cycle).
  [[nodiscard]] const FrameWorkload& workload(std::size_t t) const {
    return workloads_[t % workloads_.size()];
  }

  /// Mean points-at-depth across all cached frames (for stability-region
  /// analysis and service-rate calibration). Index = depth.
  [[nodiscard]] const std::vector<double>& mean_points_at_depth()
      const noexcept {
    return mean_points_;
  }

  /// Mean occupancy bytes-at-depth across all cached frames: the load curve
  /// admission tests a session against (AdmissionController). Index = depth,
  /// 0..octree_depth(). Summed frame by frame in cache order, then divided by
  /// frame_count(), as mean_points_at_depth() is.
  [[nodiscard]] const std::vector<double>& mean_bytes_at_depth()
      const noexcept {
    return mean_bytes_;
  }

 private:
  int octree_depth_;
  std::vector<FrameWorkload> workloads_;
  std::vector<double> mean_points_;
  std::vector<double> mean_bytes_;
};

}  // namespace arvis

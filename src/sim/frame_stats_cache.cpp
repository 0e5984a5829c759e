#include "sim/frame_stats_cache.hpp"

#include <stdexcept>

#include "octree/octree.hpp"

namespace arvis {

FrameStatsCache::FrameStatsCache(const FrameSource& source, int octree_depth,
                                 std::size_t frame_limit)
    : octree_depth_(octree_depth) {
  std::size_t count = source.frame_count();
  if (count == 0) {
    throw std::invalid_argument(
        "FrameStatsCache: source must have a finite frame count");
  }
  if (frame_limit > 0 && frame_limit < count) count = frame_limit;

  workloads_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const PointCloud frame = source.frame(i);
    const Octree tree(frame, octree_depth);
    workloads_.push_back(compute_frame_workload(tree));
  }

  const std::size_t depths = static_cast<std::size_t>(octree_depth) + 1;
  mean_points_.assign(depths, 0.0);
  mean_bytes_.assign(depths, 0.0);
  for (const FrameWorkload& w : workloads_) {
    for (std::size_t d = 0; d < depths; ++d) {
      mean_points_[d] += w.points(static_cast<int>(d));
      mean_bytes_[d] += w.bytes(static_cast<int>(d));
    }
  }
  for (double& v : mean_points_) v /= static_cast<double>(workloads_.size());
  for (double& v : mean_bytes_) v /= static_cast<double>(workloads_.size());
}

}  // namespace arvis

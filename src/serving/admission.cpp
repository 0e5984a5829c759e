#include "serving/admission.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/log.hpp"
#include "queueing/stability.hpp"

namespace arvis {

AdmissionController::AdmissionController(const AdmissionConfig& config,
                                         double mean_capacity_bytes)
    : admissible_(config.utilization_target * mean_capacity_bytes),
      enabled_(config.enabled) {
  if (config.enabled && mean_capacity_bytes <= 0.0) {
    throw std::invalid_argument("AdmissionController: capacity must be > 0");
  }
  if (config.utilization_target <= 0.0 || config.utilization_target > 1.0) {
    throw std::invalid_argument(
        "AdmissionController: utilization_target in (0, 1]");
  }
}

std::pair<int, int> AdmissionController::candidate_range(
    const FrameStatsCache& cache, const std::vector<int>& candidates) {
  const auto [lo, hi] =
      std::minmax_element(candidates.begin(), candidates.end());
  if (candidates.empty() || *lo < 1 || *hi > cache.octree_depth()) {
    throw std::invalid_argument(
        "AdmissionController: candidates empty or outside the cache depths");
  }
  return {*lo, *hi};
}

double AdmissionController::cheapest_depth_load(
    const FrameStatsCache& cache, const std::vector<int>& candidates) {
  const auto d_min =
      static_cast<std::size_t>(candidate_range(cache, candidates).first);
  return cache.mean_bytes_at_depth()[d_min];
}

AdmissionDecision AdmissionController::try_admit(
    const FrameStatsCache& cache, const std::vector<int>& candidates) {
  const auto [d_min, d_max] = candidate_range(cache, candidates);
  AdmissionDecision decision;
  decision.residual_capacity = residual_capacity();
  if (!enabled_) {
    // Forced admit: reserved_ is never consulted when disabled, so nothing
    // is reserved; admission imposes no depth cap.
    decision.max_sustainable_depth = d_max;
    decision.admitted = true;
    return decision;
  }
  // The stability-region test on the mean per-depth byte curve: the session
  // is admissible iff even its cheapest candidate depth is sustainable on
  // what the link has left.
  const std::vector<double>& mean_bytes = cache.mean_bytes_at_depth();
  decision.cheapest_load = mean_bytes[static_cast<std::size_t>(d_min)];
  decision.max_sustainable_depth = max_sustainable_depth(
      mean_bytes, decision.residual_capacity, d_min, d_max);
  decision.admitted = decision.max_sustainable_depth >= d_min;
  if (decision.admitted) {
    reserved_ += decision.cheapest_load;
  } else {
    log_info("admission: rejected session (cheapest load ",
             decision.cheapest_load, " B/slot vs residual ",
             decision.residual_capacity, " B/slot, depths ", d_min, "..",
             d_max, ")");
  }
  return decision;
}

void AdmissionController::release(double cheapest_load) noexcept {
  reserved_ = std::max(reserved_ - cheapest_load, 0.0);
}

double AdmissionController::residual_capacity() const noexcept {
  return std::max(scaled_admissible() - reserved_, 0.0);
}

void AdmissionController::set_capacity_scale(double scale) {
  if (!(scale >= 0.0) || scale > 1e6) {
    throw std::invalid_argument(
        "AdmissionController: capacity scale must be finite and >= 0");
  }
  scale_ = scale;
}

}  // namespace arvis

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

double AdmissionController::cheapest_depth_load(
    const FrameStatsCache& cache, const std::vector<int>& candidates) {
  if (candidates.empty()) {
    throw std::invalid_argument("cheapest_depth_load: empty candidate set");
  }
  const int d_min = *std::min_element(candidates.begin(), candidates.end());
  double sum = 0.0;
  for (std::size_t t = 0; t < cache.frame_count(); ++t) {
    sum += cache.workload(t).bytes(d_min);
  }
  return sum / static_cast<double>(cache.frame_count());
}

AdmissionDecision AdmissionController::try_admit(
    const FrameStatsCache& cache, const std::vector<int>& candidates) {
  if (candidates.empty()) {
    throw std::invalid_argument("try_admit: empty candidate set");
  }
  AdmissionDecision decision;
  decision.residual_capacity = residual_capacity();

  const int d_min = *std::min_element(candidates.begin(), candidates.end());
  const int d_max = *std::max_element(candidates.begin(), candidates.end());
  if (!enabled_) {
    // Forced admit: skip the per-frame load scans entirely (reserved_ is
    // never consulted when disabled); admission imposes no depth cap.
    decision.max_sustainable_depth = d_max;
    decision.admitted = true;
    return decision;
  }
  decision.cheapest_load = cheapest_depth_load(cache, candidates);
  {
    // Mean per-depth byte curve over the candidate range, fed to the
    // stability-region test: the session is admissible iff even its
    // cheapest candidate depth is sustainable on what the link has left.
    std::vector<double> mean_bytes(static_cast<std::size_t>(d_max) + 1, 0.0);
    for (std::size_t t = 0; t < cache.frame_count(); ++t) {
      const FrameWorkload& frame = cache.workload(t);
      for (int d = d_min; d <= d_max; ++d) {
        mean_bytes[static_cast<std::size_t>(d)] += frame.bytes(d);
      }
    }
    for (double& b : mean_bytes) b /= static_cast<double>(cache.frame_count());
    decision.max_sustainable_depth = max_sustainable_depth(
        mean_bytes, decision.residual_capacity, d_min, d_max);
    decision.admitted = decision.max_sustainable_depth >= d_min;
  }
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

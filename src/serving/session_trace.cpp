#include "serving/session_trace.hpp"

#include <cmath>
#include <utility>

namespace arvis {

namespace {

/// Clamped depth-table lookup, exactly the arithmetic of
/// quality_model/workload's view classes (empty table reads 0, indices
/// clamp to [0, size)). Keeping this identical is what makes the flattened
/// tables a pure layout change.
double clamped(const std::vector<double>& table, int depth) {
  if (table.empty()) return 0.0;
  const int last = static_cast<int>(table.size()) - 1;
  return table[static_cast<std::size_t>(std::clamp(depth, 0, last))];
}

}  // namespace

FlatDecideTable::FlatDecideTable(const FrameStatsCache& cache,
                                 std::span<const int> candidates)
    : candidates_(candidates.begin(), candidates.end()),
      frames_(cache.frame_count()) {
  const std::size_t width = candidates.size();
  data_.resize(frames_ * 2 * width);
  for (std::size_t f = 0; f < frames_; ++f) {
    const FrameWorkload& frame = cache.workload(f);
    double* u = data_.data() + f * 2 * width;
    double* a = u + width;
    for (std::size_t c = 0; c < width; ++c) {
      // LogPointQualityView::quality, verbatim.
      const double points = clamped(frame.points_at_depth, candidates[c]);
      u[c] = points >= 1.0 ? std::log10(points) : 0.0;
      // ByteWorkloadView::arrivals, verbatim.
      a[c] = clamped(frame.bytes_at_depth, candidates[c]);
    }
  }
}

StepArena::~StepArena() {
  // Unlink the chain block by block: each block owns its predecessor, and
  // destroying the newest one would otherwise recurse once per block.
  while (block_ != nullptr) block_ = std::move(block_->prev);
}

void StepArena::grow() {
  std::unique_ptr<Block> block(new Block);
  block->prev = std::move(block_);
  block_ = std::move(block);
  used_ = 0;
}

SessionTrace::Iterator SessionTrace::begin() const noexcept {
  if (size_ == 0) return end();  // refused sessions carry no table
  const FlatDecideTable& table = *table_;
  Iterator it;
  it.chunk_ = head_;
  it.k_ = first_;
  it.left_ = size_;
  it.rows_begin_ = table.data();
  it.rows_end_ = table.data() + table.frames() * table.stride();
  it.row_ = table.data() + row0_;
  it.candidates_ = table.candidates().data();
  it.width_ = table.candidates().size();
  it.t_ = t0_;
  it.backlog_ = backlog0_;
  return it;
}

double SessionTrace::last_quality() const noexcept {
  ARVIS_DCHECK(size_ != 0);
  const std::size_t last = size_ - 1;
  const std::size_t pos = first_ + last;  // chain position of the last step
  const StepChunk* chunk = head_;
  for (std::size_t c = pos / kStepsPerChunk; c != 0; --c) chunk = chunk->next;
  const std::size_t stride = table_->stride();
  const std::size_t row =
      (row0_ + last * stride) % (table_->frames() * stride);
  return table_->data()[row + chunk->choice[pos % kStepsPerChunk]];
}

Trace SessionTrace::to_trace() const {
  Trace trace;
  trace.reserve(size_);
  for (const StepRecord& record : *this) trace.add(record);
  return trace;
}

TraceSummary SessionTrace::summarize_partial() const {
  return summarize_steps(*this);
}

}  // namespace arvis

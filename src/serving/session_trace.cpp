#include "serving/session_trace.hpp"

#include <cmath>
#include <mutex>
#include <type_traits>
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

struct StepArena::FreeList {
  std::mutex mutex;
  Block* head = nullptr;  // owns the chain
};

// Constant-initialized and never destroyed, so an arena may return its
// blocks at any point of the program, static destruction included.
constinit StepArena::FreeList StepArena::free_list_;
static_assert(std::is_trivially_destructible_v<std::mutex>);

StepArena::~StepArena() {
  if (block_ == nullptr) return;
  // Splice the whole chain onto the list: its oldest block links to the
  // list's head.
  Block* oldest = block_.get();
  while (oldest->prev != nullptr) oldest = oldest->prev.get();
  const std::lock_guard<std::mutex> lock(free_list_.mutex);
  oldest->prev.reset(free_list_.head);
  free_list_.head = block_.release();
}

void StepArena::grow() {
  std::unique_ptr<Block> block;
  {
    // Link tasks grow their arenas concurrently.
    const std::lock_guard<std::mutex> lock(free_list_.mutex);
    if (free_list_.head != nullptr) {
      block.reset(free_list_.head);
      free_list_.head = block->prev.release();
    }
  }
  if (block == nullptr) block.reset(new Block);
  block->prev = std::move(block_);
  block_ = std::move(block);
  used_ = 0;
}

std::size_t StepArena::release_free_blocks() {
  Block* head = nullptr;
  {
    const std::lock_guard<std::mutex> lock(free_list_.mutex);
    head = std::exchange(free_list_.head, nullptr);
  }
  // Unlink block by block: each block owns its successor on the list, and
  // freeing the head alone would recurse once per block.
  std::size_t freed = 0;
  for (; head != nullptr; ++freed) {
    const std::unique_ptr<Block> block(head);
    head = block->prev.release();
  }
  return freed;
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

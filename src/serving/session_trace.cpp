#include "serving/session_trace.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>
#include <limits>
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

void StepArena::release(StepChunk* head, std::size_t chunks) {
  ARVIS_DCHECK(head != nullptr);
#if ARVIS_DCHECK_IS_ON
  std::size_t walked = 0;
  for (StepChunk* c = head; c != nullptr; c = c->next, ++walked) {
    std::fill(std::begin(c->service), std::end(c->service),
              std::bit_cast<double>(kPoisonedSlotBits));
  }
  ARVIS_DCHECK_EQ(walked, chunks);
#endif
  free_.push_back(head);
  free_chunks_ += chunks;
}

std::size_t StepArena::bumped() const noexcept {
  std::size_t chunks = 0;
  for (const Block* b = block_.get(); b != nullptr; b = b->prev.get()) {
    chunks += b == block_.get() ? used_ : kChunksPerBlock;
  }
  return chunks;
}

std::vector<std::span<const StepChunk>> StepArena::blocks() const {
  std::vector<std::span<const StepChunk>> out;
  for (const Block* b = block_.get(); b != nullptr; b = b->prev.get()) {
    out.emplace_back(b->chunks, b == block_.get() ? used_ : kChunksPerBlock);
  }
  std::reverse(out.begin(), out.end());
  return out;
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

namespace {

/// One record's decode state in summarize_in_arena_order: the iterator's
/// cursor plus the record's sums. Chain positions count steps from index 0
/// of the record's head chunk.
struct ArenaDecode {
  // What every step reads first, so it shares cache lines with the sums.
  const double* row;  // frame row of the next step
  double backlog;     // Q at the next step
  const StepChunk* expect;  // the chunk holding the next step (null at end)
  const double* rows_begin;
  const double* rows_end;
  const int* candidates;
  std::size_t width;
  std::size_t pos;   // chain position of the next step
  std::size_t end;   // chain position one past the last step
  std::size_t tail;  // chain position of the first stability-tail step
  SummaryAccumulator sums;
  // Where pass 2 resumes: the frame row and Q at the next tail step.
  const double* tail_row;
  double tail_backlog;
  TraceSummary* out;

  /// Decodes step k of `chunk` (the record's next step) into the sums.
  void step(const StepChunk& chunk, std::size_t k) noexcept {
    const std::size_t c = chunk.choice[k];
    const double service = chunk.service[k];
    ARVIS_DCHECK_MSG(std::bit_cast<std::uint64_t>(service) != kPoisonedSlotBits,
                     "summarizing a released record chunk");
    const double arrivals = row[width + c];
    const double next = lindley_next(backlog, service, arrivals);
    sums.add(row[c], backlog, candidates[c], arrivals, service, next);
    backlog = next;
    row += 2 * width;
    if (row == rows_end) row = rows_begin;  // the frame cycle wraps
  }
  /// Replays tail step k of `chunk` into the fit's second pass.
  void replay(const StepChunk& chunk, std::size_t k) noexcept {
    sums.add_tail(tail_backlog);
    tail_backlog = lindley_next(tail_backlog, chunk.service[k],
                                tail_row[width + chunk.choice[k]]);
    tail_row += 2 * width;
    if (tail_row == rows_end) tail_row = rows_begin;
  }
};

/// A chunk holding stability-tail steps [k0, k1) of decode state `state`.
struct TailChunk {
  const StepChunk* chunk;
  std::uint32_t state;
  std::uint8_t k0;
  std::uint8_t k1;
};
static_assert(sizeof(TailChunk) == 16);

/// Decodes `chunk`, record `id`'s expected chunk, into its state `d`: the
/// record's steps in it run from its next one to its end, and those in its
/// stability tail also go on the worklist.
void decode_chunk(ArenaDecode& d, std::uint32_t id, const StepChunk& chunk,
                  std::vector<TailChunk>& worklist) {
  // The chunk holds chain positions [base, base + 13).
  const std::size_t base = d.pos - d.pos % kStepsPerChunk;
  const std::size_t k0 = d.pos - base;
  const std::size_t k1 = std::min(kStepsPerChunk, d.end - base);
  const std::size_t kt = std::clamp(d.tail, base + k0, base + k1) - base;
  for (std::size_t k = k0; k < kt; ++k) d.step(chunk, k);
  if (kt < k1) {
    if (base + kt == d.tail) {
      d.tail_row = d.row;
      d.tail_backlog = d.backlog;
    }
    for (std::size_t k = kt; k < k1; ++k) d.step(chunk, k);
    worklist.push_back(TailChunk{&chunk, id, static_cast<std::uint8_t>(kt),
                                 static_cast<std::uint8_t>(k1)});
  }
  d.pos = base + k1;
  d.expect = d.pos == d.end ? nullptr : chunk.next;
}

}  // namespace

void SessionTrace::summarize_in_arena_order(const StepArena& arena,
                                            std::size_t tags,
                                            std::span<const SummaryJob> jobs) {
  constexpr std::uint32_t kNoJob = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> index(tags, kNoJob);
  std::vector<ArenaDecode> states;
  states.reserve(jobs.size());
  std::size_t tail_chunks = 0;
  for (const SummaryJob& job : jobs) {
    const SessionTrace& r = *job.trace;
    ARVIS_DCHECK(r.arena_.get() == &arena);
    ARVIS_DCHECK_LT(job.tag, tags);
    ARVIS_DCHECK_EQ(r.head_->tag(), job.tag);
    index[job.tag] = static_cast<std::uint32_t>(states.size());
    const FlatDecideTable& table = *r.table_;
    SummaryAccumulator sums(r.size_);  // throws on an empty record
    const std::size_t end = r.first_ + r.size_;
    const std::size_t tail = r.first_ + sums.tail_start();
    if (tail < end) {
      tail_chunks += (end - 1) / kStepsPerChunk - tail / kStepsPerChunk + 1;
    }
    const double* rows = table.data();
    states.push_back(ArenaDecode{
        rows + r.row0_, r.backlog0_, r.head_, rows,
        rows + table.frames() * table.stride(), table.candidates().data(),
        table.candidates().size(), r.first_, end, tail, sums, nullptr, 0.0,
        job.out});
  }

  // The chunks stream in order, but their records' states do not: with
  // thousands of records on a link they spill out of L2, so each pass
  // fetches the state (and, in pass 2, the chunk) a few visits ahead.
  constexpr std::size_t kAhead = 4;
  const auto prefetch = [](const void* p, std::size_t bytes) {
    for (std::size_t off = 0; off < bytes; off += 64) {
      __builtin_prefetch(static_cast<const char*>(p) + off);
    }
  };

  // Pass 1: every chunk in bump order. A record none of whose chunks was
  // recycled meets them in chain order, because each was bumped when the
  // one before it filled; a recycled chunk may come before its chain
  // predecessor, or be a free chunk under a stale tag, and is skipped.
  std::vector<TailChunk> worklist;
  worklist.reserve(tail_chunks);
  for (const std::span<const StepChunk> block : arena.blocks()) {
    for (std::size_t j = 0; j < block.size(); ++j) {
      if (j + kAhead < block.size()) {
        const std::uint32_t ahead = index[block[j + kAhead].tag()];
        if (ahead != kNoJob) prefetch(&states[ahead], sizeof(ArenaDecode));
      }
      const StepChunk& chunk = block[j];
      ARVIS_DCHECK_LT(chunk.tag(), tags);
      const std::uint32_t id = index[chunk.tag()];
      if (id == kNoJob) continue;  // free, empty or not asked for
      if (states[id].expect != &chunk) continue;  // free or out of order
      decode_chunk(states[id], id, chunk, worklist);
    }
  }
  // The records whose chains left bump order finish along their chains.
  for (std::uint32_t id = 0; id < states.size(); ++id) {
    ArenaDecode& d = states[id];
    while (d.pos != d.end) decode_chunk(d, id, *d.expect, worklist);
  }

  // Pass 2: the tail steps again, now that each tail's mean is known. A
  // record's worklist entries are in chain order: pass 1 decodes its chunks
  // in chain order, and the completion appends the rest after them.
  for (std::size_t j = 0; j < worklist.size(); ++j) {
    if (j + kAhead < worklist.size()) {
      prefetch(&states[worklist[j + kAhead].state], sizeof(ArenaDecode));
      prefetch(worklist[j + kAhead].chunk, sizeof(StepChunk));
    }
    const TailChunk& w = worklist[j];
    ArenaDecode& d = states[w.state];
    for (std::size_t k = w.k0; k < w.k1; ++k) d.replay(*w.chunk, k);
  }
  for (const ArenaDecode& d : states) *d.out = d.sums.summary();
}

}  // namespace arvis

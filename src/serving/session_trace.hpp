// SessionTrace: the serving runtime's per-session record, written into a
// per-link chunk arena and decoded on read.
//
// Every active session records every slot, so the record sets the slot
// loop's largest memory stream. A full StepRecord (56 bytes) is redundant
// given the session's decide table: the slot's frame row is the segment's
// first row advanced one row per slot (cycling over the table), depth,
// arrivals and quality are that row's entries at the chosen candidate, and
// both backlogs follow from the Lindley recurrence. Only the scheduler's
// share is new information. So drain records the share and the candidate
// index, and readers decode StepRecords through a forward range whose
// iterator carries the frame row and the backlog: no step costs a division,
// and backlog_end is bit-identical to the hot mirror's because drain and
// decode share lindley_next().
//
// Drain writes into StepChunks: 128 bytes holding 13 consecutive
// session·slots of one segment (9.85 B each) and a link to the segment's
// next chunk. Each link's store owns one StepArena that hands chunks out
// from 1 MiB blocks, so a slot's writes land on a few dozen pages per link
// instead of one page per session, and a segment holds only the chunks it
// filled plus the one it is writing: nothing is reserved ahead. A segment's
// first step lands at a rotating index of its head chunk, restarted at 0
// each slot, so a fleet that streams in lockstep crosses chunk boundaries a
// few sessions at a time rather than all at once every 13th slot. The store
// keeps the chunk being written and the chain position in hot mirrors; a
// record learns its size only when its segment retires (commit), so a live
// session's trace reads empty.
//
// The arena is not append-only. When the cluster re-places a session (a
// failover or a completed migration), the superseded segment's chain goes
// back to its arena (StepArena::release), and alloc() hands those chunks
// out again before it bumps. So the arena holds the chunks of each
// session's final segment, of the live ones and of its free list; a
// record's chunks no longer lie in bump order once any of them was
// recycled.
//
// Every chunk carries a 24-bit tag, the slab position of the segment whose
// steps it holds, in the padding before `next`. So the run's end can read a
// link's records the way drain wrote them: SessionTrace::
// summarize_in_arena_order visits the arena's chunks in bump order
// (StepArena::blocks) and sends each chunk's steps to its record's
// SummaryAccumulator by tag, instead of following each record's chain,
// whose consecutive chunks lie as far apart as the sessions streaming
// beside it (about 128 KiB on a link of 1000 sessions). A free chunk still
// carries the tag of the segment it last held, and slab positions are
// reused too, so the walk decodes a chunk only when it is its record's
// expected next one, and then follows the chain of every record it left
// incomplete.
//
// A record holds its FlatDecideTable and its StepArena, so session outcomes
// stay decodable after the runtime that produced them is gone.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <ranges>
#include <span>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "sim/frame_stats_cache.hpp"
#include "sim/trace.hpp"

namespace arvis {

/// Per-cache flattened decide tables: for every cached frame, the
/// per-candidate (utility, arrivals) pairs laid out as one contiguous row
/// [u_0 .. u_{w-1} | a_0 .. a_{w-1}]. Values reproduce LogPointQualityView /
/// ByteWorkloadView bit for bit (same clamping, same log10 inputs). Keeps
/// the candidate depths so a candidate index decodes back to a depth.
class FlatDecideTable {
 public:
  FlatDecideTable(const FrameStatsCache& cache,
                  std::span<const int> candidates);

  [[nodiscard]] const double* data() const noexcept { return data_.data(); }
  [[nodiscard]] std::size_t frames() const noexcept { return frames_; }
  [[nodiscard]] std::span<const int> candidates() const noexcept {
    return candidates_;
  }
  /// Doubles per frame row (2·|candidates|).
  [[nodiscard]] std::size_t stride() const noexcept {
    return 2 * candidates_.size();
  }

 private:
  std::vector<int> candidates_;
  std::size_t frames_;
  std::vector<double> data_;  // frames_ rows of stride() doubles
};

/// Bytes a queue holding `backlog` serves when granted `share` (negative
/// shares clamp to zero).
inline double served_bytes(double backlog, double share) noexcept {
  return std::min(backlog, std::max(0.0, share));
}

/// Q(t+1) of the Lindley recurrence, DiscreteQueue::step's arithmetic
/// verbatim: serve min(Q, b) before the slot's (clamped) arrivals enter. The
/// one definition drain and decode share.
inline double lindley_next(double backlog, double share,
                           double arrivals) noexcept {
  return backlog - served_bytes(backlog, share) + std::max(0.0, arrivals);
}

/// Session·slots one StepChunk holds.
inline constexpr std::size_t kStepsPerChunk = 13;

/// Segment tags a chunk can carry: 24 bits.
inline constexpr std::size_t kSegmentTagLimit = std::size_t{1} << 24;

/// Thirteen consecutive session·slots of one segment as drain records them:
/// per slot, the scheduler's share and the index of the candidate decide
/// chose. `next` links the segment's following chunk; drain sets it when
/// this chunk fills. The tag names the segment whose steps the chunk holds
/// (its slab position in the link's store), in the three bytes that would
/// otherwise pad `next`, so a reader that visits an arena's chunks in
/// memory order knows whose steps each one holds without following any
/// chain.
struct StepChunk {
  double service[kStepsPerChunk];
  std::uint8_t choice[kStepsPerChunk];
  std::uint8_t tag_bytes[3];  // little-endian
  StepChunk* next;

  [[nodiscard]] std::uint32_t tag() const noexcept {
    return static_cast<std::uint32_t>(tag_bytes[0]) |
           static_cast<std::uint32_t>(tag_bytes[1]) << 8 |
           static_cast<std::uint32_t>(tag_bytes[2]) << 16;
  }
  void set_tag(std::uint32_t tag) noexcept {
    ARVIS_DCHECK_LT(tag, kSegmentTagLimit);
    tag_bytes[0] = static_cast<std::uint8_t>(tag);
    tag_bytes[1] = static_cast<std::uint8_t>(tag >> 8);
    tag_bytes[2] = static_cast<std::uint8_t>(tag >> 16);
  }
};
static_assert(sizeof(StepChunk) == 128);

/// Poison written over what the check layer retires (freed SoA slots in
/// SessionStore, the steps of released record chunks): a quiet NaN with a
/// recognizable payload, so a stale index or a stale record that survives
/// the bounds checks still trips a DCHECK instead of silently reading
/// another session's data.
inline constexpr std::uint64_t kPoisonedSlotBits = 0x7FF8DEADBEEFDEADULL;

/// One link's chunk arena. Chunks come from a free list of released chains
/// first, and otherwise in bump order from blocks of kChunksPerBlock; a
/// block never moves and leaves only with the arena, so every record
/// written into it stays readable while any outcome holds the arena. A
/// destroyed arena's blocks go to a process-wide free list, which the next
/// arena takes blocks from before it asks the heap: a process that runs one
/// serving run after another then writes its records into pages it has
/// already touched. Without it, the heap may hand a freed arena back to the
/// kernel (glibc trims the top of the heap), and the next run's drain
/// faults every page in again.
class StepArena {
 public:
  static constexpr std::size_t kChunksPerBlock = 8192;  // 1 MiB of chunks

  StepArena() = default;
  StepArena(const StepArena&) = delete;
  StepArena& operator=(const StepArena&) = delete;
  /// Moves the arena's blocks to the free list.
  ~StepArena();

  /// A chunk tagged `tag` (< kSegmentTagLimit) with a null `next`: the
  /// next chunk of the most recently released chain when there is one,
  /// else a fresh one in bump order. At most one heap allocation (a new
  /// block, when the process-wide free list is empty) per kChunksPerBlock
  /// bumps, none otherwise.
  [[nodiscard]] StepChunk* alloc(std::uint32_t tag) {
    StepChunk* chunk;
    if (!free_.empty()) {
      chunk = free_.back();
      if (chunk->next != nullptr) {
        free_.back() = chunk->next;
      } else {
        free_.pop_back();
      }
      --free_chunks_;
      ++recycled_;
    } else {
      if (used_ == kChunksPerBlock) grow();
      chunk = &block_->chunks[used_++];
    }
    chunk->set_tag(tag);
    chunk->next = nullptr;
    return chunk;
  }

  /// Returns the chain at `head` (linked through `next`, null-terminated,
  /// `chunks` long) to the free list; alloc() hands its chunks out again.
  /// Touches no chunk unless the check layer is on, which poisons every
  /// step so a decoder that reaches one trips a DCHECK.
  void release(StepChunk* head, std::size_t chunks);

  /// Every chunk alloc() bumped, in the order it bumped them: one span per
  /// block, oldest block first, free-list chunks included. Each carries a
  /// tag (a block is left behind only once it is full), but a free chunk's
  /// is the tag of the segment that last held it.
  [[nodiscard]] std::vector<std::span<const StepChunk>> blocks() const;
  /// Chunks alloc() has bumped (the sum of blocks()' sizes).
  [[nodiscard]] std::size_t bumped() const noexcept;
  /// Chunks on the free list.
  [[nodiscard]] std::size_t free_chunks() const noexcept {
    return free_chunks_;
  }
  /// Chunks alloc() took from the free list so far.
  [[nodiscard]] std::size_t recycled() const noexcept { return recycled_; }
  /// The heads of the free list's chains (validation walks them).
  [[nodiscard]] std::span<StepChunk* const> free_chains() const noexcept {
    return free_;
  }

  /// Frees every block on the process-wide free list and returns how many
  /// it freed.
  static std::size_t release_free_blocks();

 private:
  struct Block {
    StepChunk chunks[kChunksPerBlock];
    std::unique_ptr<Block> prev;  // the block filled before this one
  };
  /// Blocks of destroyed arenas, linked through `prev`.
  struct FreeList;
  void grow();

  static FreeList free_list_;
  std::unique_ptr<Block> block_;  // the block alloc() bumps through
  std::size_t used_ = kChunksPerBlock;  // chunks taken from block_
  // Released chains, most recent last; alloc() takes the last one's head.
  // A release touches none of its chunks: the one alloc() takes is about
  // to be written anyway.
  std::vector<StepChunk*> free_;
  std::size_t free_chunks_ = 0;
  std::size_t recycled_ = 0;
};

/// A session's per-slot record over one active segment (an admission, or a
/// migration / failover re-placement onto a link). Empty and table-less for
/// a session that was refused or never arrived, and empty while the
/// segment is live: the store seals the size when the segment retires.
class SessionTrace {
 public:
  /// Decodes one StepRecord per recorded step. A forward iterator whose
  /// reference is a StepRecord value.
  class Iterator {
   public:
    using iterator_concept = std::forward_iterator_tag;
    using iterator_category = std::input_iterator_tag;
    using value_type = StepRecord;
    using difference_type = std::ptrdiff_t;

    Iterator() = default;

    StepRecord operator*() const noexcept {
      const std::size_t c = chunk_->choice[k_];
      StepRecord record;
      record.t = t_;
      record.depth = candidates_[c];
      record.arrivals = row_[width_ + c];
      record.service = service();
      record.backlog_begin = backlog_;
      record.backlog_end =
          lindley_next(backlog_, record.service, record.arrivals);
      record.quality = row_[c];
      return record;
    }
    Iterator& operator++() noexcept {
      backlog_ = lindley_next(backlog_, service(),
                              row_[width_ + chunk_->choice[k_]]);
      if (++k_ == kStepsPerChunk) {
        chunk_ = chunk_->next;
        k_ = 0;
      }
      --left_;
      ++t_;
      row_ += 2 * width_;
      if (row_ == rows_end_) row_ = rows_begin_;  // the frame cycle wraps
      return *this;
    }
    Iterator operator++(int) noexcept {
      Iterator before = *this;
      ++*this;
      return before;
    }
    friend bool operator==(const Iterator& a, const Iterator& b) noexcept {
      return a.left_ == b.left_;
    }

   private:
    friend class SessionTrace;

    /// The current step's share. A released chunk's steps are poisoned
    /// while the check layer is on, so a record that outlived its segment's
    /// release dies here instead of decoding another segment's steps.
    double service() const noexcept {
      ARVIS_DCHECK_MSG(std::bit_cast<std::uint64_t>(chunk_->service[k_]) !=
                           kPoisonedSlotBits,
                       "decoding a released record chunk");
      return chunk_->service[k_];
    }

    const StepChunk* chunk_ = nullptr;
    std::size_t k_ = 0;     // step index within chunk_
    std::size_t left_ = 0;  // steps from here to the end, this one included
    const double* row_ = nullptr;
    const double* rows_begin_ = nullptr;
    const double* rows_end_ = nullptr;
    const int* candidates_ = nullptr;
    std::size_t width_ = 0;
    std::size_t t_ = 0;
    double backlog_ = 0.0;
  };

  /// Opens the record of a segment activated at `slot` on `table`, whose
  /// first step drain writes at index `first` of `head` (a fresh chunk of
  /// `arena`): frame row 0, empty queue.
  void start(std::shared_ptr<const FlatDecideTable> table,
             std::shared_ptr<const StepArena> arena, const StepChunk* head,
             std::size_t first, std::size_t slot) {
    ARVIS_DCHECK_MSG(head_ == nullptr, "SessionTrace restarted");
    ARVIS_DCHECK_LT(first, kStepsPerChunk);
    table_ = std::move(table);
    arena_ = std::move(arena);
    head_ = head;
    first_ = first;
    t0_ = slot;
    row0_ = 0;
    backlog0_ = 0.0;
  }
  /// Sets a migrated segment's start: the carried backlog and frame row (in
  /// doubles from the table base, aligned to its stride).
  void resume_at(double backlog, std::size_t row_off) noexcept {
    ARVIS_DCHECK_MSG(size_ == 0, "SessionTrace resumed after commit");
    ARVIS_DCHECK(table_ != nullptr);
    backlog0_ = backlog;
    row0_ = row_off;
  }
  /// Seals the record at chain position `end`: one past its last step,
  /// counted from the head chunk's index 0. Called once, when the segment
  /// retires.
  void commit(std::size_t end) noexcept {
    ARVIS_DCHECK_MSG(size_ == 0, "SessionTrace committed twice");
    ARVIS_DCHECK(end >= first_);
    size_ = end - first_;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  /// The chunk the record's first step is (or will be) written into, and
  /// that step's index in it.
  [[nodiscard]] const StepChunk* head() const noexcept { return head_; }
  [[nodiscard]] std::size_t first() const noexcept { return first_; }
  /// The decoded records in slot order. The record is itself the range;
  /// steps() mirrors Trace::steps() so loops read the same over both.
  [[nodiscard]] const SessionTrace& steps() const noexcept { return *this; }
  [[nodiscard]] Iterator begin() const noexcept;
  [[nodiscard]] Iterator end() const noexcept { return Iterator{}; }

  /// The decoded records as a plain Trace (one pass).
  [[nodiscard]] Trace to_trace() const;
  /// Trace::summarize_partial over the decoded records (same definition,
  /// bit-identical result). Throws std::logic_error on an empty record.
  [[nodiscard]] TraceSummary summarize_partial() const;

  /// A sealed, non-empty record of one arena, the tag its chunks carry,
  /// and where its summary goes.
  struct SummaryJob {
    const SessionTrace* trace = nullptr;
    std::uint32_t tag = 0;
    TraceSummary* out = nullptr;
  };
  /// Writes every job's summarize_partial() into its `out`, bit for bit, in
  /// one read of `arena` (every job's records live there, under tags below
  /// `tags`) in the order alloc() bumped its chunks, instead of one chain
  /// walk per record: a record's consecutive chunks lie as far apart as the
  /// sessions that streamed beside it, while the arena reads sequentially.
  /// The walk visits every chunk and decodes it only when it is its
  /// record's expected next chunk (it skips a free chunk, and a chunk that
  /// comes before its chain predecessor in bump order), feeding each step
  /// to the record's SummaryAccumulator once; then each record the walk
  /// left incomplete is finished along its chain. The accumulator fits the
  /// stability tail as the steps go by, so no step is read twice.
  /// Transient memory: a decode state per job and a 4-byte index per tag.
  static void summarize_in_arena_order(const StepArena& arena,
                                       std::size_t tags,
                                       std::span<const SummaryJob> jobs);

 private:
  std::shared_ptr<const FlatDecideTable> table_;
  std::shared_ptr<const StepArena> arena_;  // owns the chunks below
  const StepChunk* head_ = nullptr;
  std::size_t first_ = 0;    // index of the first step in head_
  std::size_t size_ = 0;     // sealed step count (0 while live)
  std::size_t t0_ = 0;       // slot of the first step
  std::size_t row0_ = 0;     // frame row of the first step, in doubles
  double backlog0_ = 0.0;    // Q at the first step
};

static_assert(std::forward_iterator<SessionTrace::Iterator>);
static_assert(std::ranges::forward_range<SessionTrace>);

}  // namespace arvis

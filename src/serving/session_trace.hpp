// SessionTrace: the serving runtime's per-session record, packed to 16 bytes
// per slot and decoded on read.
//
// Every active session appends to its own record every slot, so the record
// width sets the slot loop's largest memory stream, spread over thousands of
// per-session vectors. A full StepRecord (56 bytes) is redundant given the
// session's decide table: the slot's frame row is the segment's first row
// advanced one row per slot (cycling over the table), depth, arrivals and
// quality are that row's entries at the chosen candidate, and both backlogs
// follow from the Lindley recurrence. Only the scheduler's share is new
// information. So drain records a PackedStep {share, candidate index}, and
// readers decode StepRecords through a forward range whose iterator carries
// the frame row and the backlog: no step costs a division, and backlog_end
// is bit-identical to the hot mirror's because drain and decode share
// lindley_next().
//
// A record holds a reference to its FlatDecideTable, so session outcomes stay
// decodable after the runtime that produced them is gone.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <ranges>
#include <span>
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

/// One session·slot as drain records it: the scheduler's share and the
/// index of the candidate decide chose.
struct PackedStep {
  double service = 0.0;
  std::uint32_t choice = 0;
};
static_assert(sizeof(PackedStep) == 16);

/// A session's per-slot record over one active segment (an admission, or a
/// migration / failover re-placement onto a link). Empty and table-less for
/// a session that was refused or never arrived.
class SessionTrace {
 public:
  /// Decodes one StepRecord per packed step. A forward iterator whose
  /// reference is a StepRecord value.
  class Iterator {
   public:
    using iterator_concept = std::forward_iterator_tag;
    using iterator_category = std::input_iterator_tag;
    using value_type = StepRecord;
    using difference_type = std::ptrdiff_t;

    Iterator() = default;

    StepRecord operator*() const noexcept {
      const std::uint32_t c = step_->choice;
      StepRecord record;
      record.t = t_;
      record.depth = candidates_[c];
      record.arrivals = row_[width_ + c];
      record.service = step_->service;
      record.backlog_begin = backlog_;
      record.backlog_end =
          lindley_next(backlog_, record.service, record.arrivals);
      record.quality = row_[c];
      return record;
    }
    Iterator& operator++() noexcept {
      backlog_ =
          lindley_next(backlog_, step_->service, row_[width_ + step_->choice]);
      ++step_;
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
      return a.step_ == b.step_;
    }

   private:
    friend class SessionTrace;

    const PackedStep* step_ = nullptr;
    const double* row_ = nullptr;
    const double* rows_begin_ = nullptr;
    const double* rows_end_ = nullptr;
    const int* candidates_ = nullptr;
    std::size_t width_ = 0;
    std::size_t t_ = 0;
    double backlog_ = 0.0;
  };

  /// Starts the record of a session activated at `slot` on `table`: frame
  /// row 0, empty queue.
  void start(std::shared_ptr<const FlatDecideTable> table, std::size_t slot) {
    ARVIS_DCHECK_MSG(steps_.empty(), "SessionTrace restarted after appends");
    table_ = std::move(table);
    t0_ = slot;
    row0_ = 0;
    backlog0_ = 0.0;
  }
  /// Sets a migrated segment's start: the carried backlog and frame row (in
  /// doubles from the table base, aligned to its stride).
  void resume_at(double backlog, std::size_t row_off) noexcept {
    ARVIS_DCHECK_MSG(steps_.empty(), "SessionTrace resumed after appends");
    ARVIS_DCHECK(table_ != nullptr);
    backlog0_ = backlog;
    row0_ = row_off;
  }
  void reserve(std::size_t n) { steps_.reserve(n); }
  /// The drain-phase append: one 16-byte record per session·slot.
  void append(double service, std::uint32_t choice) {
    steps_.push_back(PackedStep{service, choice});
  }

  [[nodiscard]] std::size_t size() const noexcept { return steps_.size(); }
  [[nodiscard]] bool empty() const noexcept { return steps_.empty(); }
  /// The decoded records in slot order. The record is itself the range;
  /// steps() mirrors Trace::steps() so loops read the same over both.
  [[nodiscard]] const SessionTrace& steps() const noexcept { return *this; }
  [[nodiscard]] Iterator begin() const noexcept;
  [[nodiscard]] Iterator end() const noexcept {
    Iterator it;
    it.step_ = steps_.data() + steps_.size();
    return it;
  }

  /// Quality of the last recorded step, O(1) (one modulo). Requires a
  /// non-empty record.
  [[nodiscard]] double last_quality() const noexcept;

  /// The decoded records as a plain Trace (one pass).
  [[nodiscard]] Trace to_trace() const;
  /// Trace::summarize_partial over the decoded records (same definition,
  /// bit-identical result). Throws std::logic_error on an empty record.
  [[nodiscard]] TraceSummary summarize_partial() const;

 private:
  std::shared_ptr<const FlatDecideTable> table_;
  std::size_t t0_ = 0;       // slot of the first step
  std::size_t row0_ = 0;     // frame row of the first step, in doubles
  double backlog0_ = 0.0;    // Q at the first step
  std::vector<PackedStep> steps_;
};

static_assert(std::forward_iterator<SessionTrace::Iterator>);
static_assert(std::ranges::forward_range<SessionTrace>);

}  // namespace arvis

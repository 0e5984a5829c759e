#include "serving/session_store.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <unordered_set>

namespace arvis {

SessionStore::SessionStore(std::vector<int> candidates, double v)
    : candidates_(std::move(candidates)),
      v_(v),
      width_(candidates_.size()),
      arena_(std::make_shared<StepArena>()) {
  if (candidates_.empty()) {
    throw std::invalid_argument("SessionStore: empty candidate set");
  }
  if (width_ > std::numeric_limits<std::uint8_t>::max()) {
    throw std::invalid_argument(
        "SessionStore: more than 255 candidates (records store the index in "
        "one byte)");
  }
  tier_limit_.assign(kStoreQosTiers, static_cast<std::uint32_t>(width_));
  // The per-session LyapunovDepthController used to reject V < 0 at
  // construction; the flat kernel owns V now, so the check lives here.
  if (v < 0.0) {
    throw std::invalid_argument("SessionStore: V must be >= 0");
  }
}

ServingSession& SessionStore::create(std::size_t id, const SessionSpec& spec) {
  if (!free_slots_.empty()) {
    newest_ = free_slots_.back();
    free_slots_.pop_back();
    slab_[newest_] = ServingSession(id, spec);
  } else {
    if (slab_.size() == kSegmentTagLimit) {
      throw std::length_error(
          "SessionStore: more than 2^24 segments on one link (record chunks "
          "tag their segment in three bytes)");
    }
    newest_ = static_cast<std::uint32_t>(slab_.size());
    slab_.emplace_back(id, spec);
  }
  ServingSession& s = slab_[newest_];
  s.placement = placements_++;
  return s;
}

std::vector<std::uint32_t> SessionStore::placement_order() const {
  // Placement numbers are distinct and below placements_: put each record's
  // position at its number, then drop the numbers of released segments.
  constexpr std::uint32_t kReleased = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> order(placements_, kReleased);
  for (std::uint32_t pos = 0; pos < slab_.size(); ++pos) {
    const ServingSession& s = slab_[pos];
    if (s.phase != SessionPhase::kReleased) order[s.placement] = pos;
  }
  std::erase(order, kReleased);
  return order;
}

void SessionStore::release(std::uint32_t pos) {
  ARVIS_DCHECK_LT(pos, slab_.size());
  ServingSession& s = slab_[pos];
  ARVIS_DCHECK_MSG(s.phase == SessionPhase::kClosed,
                   "released a segment that is not closed");
  const SessionTrace& trace = s.trace;
  // The chain's chunks: its head, and one more each time drain filled one
  // (at chain positions 13, 26, ...), the last one possibly still empty.
  const std::size_t chunks =
      (trace.first() + trace.size()) / kStepsPerChunk + 1;
  // The store's arena owns the chain; the record only reads it.
  arena_->release(const_cast<StepChunk*>(trace.head()), chunks);
  s.trace = SessionTrace{};
  s.phase = SessionPhase::kReleased;
  free_slots_.push_back(pos);
}

const std::shared_ptr<const FlatDecideTable>& SessionStore::intern(
    const FrameStatsCache& cache) {
  for (const auto& [interned, table] : tables_) {
    if (interned == &cache) return table;
  }
  tables_.emplace_back(&cache,
                       std::make_shared<FlatDecideTable>(cache, candidates_));
  return tables_.back().second;
}

void SessionStore::activate(ServingSession& s, std::size_t slot) {
#if ARVIS_DCHECK_IS_ON
  // Double-activation would alias two SoA slots onto one slab record;
  // O(active) scan, Debug builds only.
  for (const ServingSession* a : active_) {
    ARVIS_DCHECK_MSG(a != &s, "session activated twice");
  }
#endif
  ARVIS_DCHECK_MSG(&s == &slab_[newest_], "activate: not the newest record");
  const std::shared_ptr<const FlatDecideTable>& table = intern(*s.spec.cache);
  // Heads start at a rotating index, so sessions activated together fill
  // their chunks on different slots: a fleet streaming in lockstep takes a
  // thirteenth of its next chunks each slot, not all of them every 13th.
  // The rotation restarts each slot, so a lone activation wastes no entries
  // of its head chunk.
  if (slot != rotation_slot_) {
    rotation_slot_ = slot;
    next_first_ = 0;
  }
  const std::size_t first = next_first_;
  next_first_ = first + 1 == kStepsPerChunk ? 0 : first + 1;
  StepChunk* head = arena_->alloc(newest_);
  s.trace.start(table, arena_, head, first, slot);
  active_.push_back(&s);
  backlog_.push_back(0.0);  // sessions start with an empty queue
  weight_.push_back(s.spec.weight);
  ewma_.push_back(0.0);
  table_.push_back(table->data());
  frames_.push_back(table->frames());
  row_off_.push_back(0);  // session-local frame time starts at row 0
  departure_.push_back(s.spec.departure_slot);
  ARVIS_DCHECK_LT(s.spec.qos, tier_limit_.size());
  qos_.push_back(s.spec.qos);
  limit_.push_back(tier_limit_[s.spec.qos]);
  chunk_.push_back(head);
  pos_.push_back(first);
  choice_.push_back(0);
  dec_arrivals_.push_back(0.0);
  ++generation_;
}

void SessionStore::set_tier_limits(std::span<const std::uint32_t> limits) {
  if (limits.size() > tier_limit_.size()) {
    throw std::invalid_argument("set_tier_limits: too many tiers");
  }
  for (const std::uint32_t l : limits) {
    if (l < 1 || l > width_) {
      throw std::invalid_argument("set_tier_limits: limit outside [1, width]");
    }
  }
  for (std::size_t t = 0; t < tier_limit_.size(); ++t) {
    tier_limit_[t] =
        t < limits.size() ? limits[t] : static_cast<std::uint32_t>(width_);
  }
  for (std::size_t i = 0; i < active_.size(); ++i) {
    limit_[i] = tier_limit_[qos_[i]];
  }
}

void SessionStore::compact_retired() {
  const std::size_t n = active_.size();
  const auto compact = [&](auto& mirror) {
    auto out = mirror.begin() + static_cast<std::ptrdiff_t>(retiring_.front());
    for (std::size_t r = 0; r < retiring_.size(); ++r) {
      const std::size_t from = retiring_[r] + 1;
      const std::size_t to = r + 1 < retiring_.size() ? retiring_[r + 1] : n;
      out = std::copy(mirror.begin() + static_cast<std::ptrdiff_t>(from),
                      mirror.begin() + static_cast<std::ptrdiff_t>(to), out);
    }
  };
  compact(active_);
  compact(backlog_);
  compact(weight_);
  compact(ewma_);
  compact(table_);
  compact(frames_);
  compact(row_off_);
  compact(departure_);
  compact(qos_);
  compact(limit_);
  compact(chunk_);
  compact(pos_);
  compact(choice_);
  resize_active(n - retiring_.size());
  ++generation_;
}

void SessionStore::resize_active(std::size_t n) {
#if ARVIS_DCHECK_IS_ON
  // Poison-on-release: freed slots keep their retired session's data in
  // vector capacity, where a stale index that dodges the bounds DCHECK (or
  // a push_back that recycles the slot without rewriting every mirror)
  // would read it silently. Overwrite with unmistakable poison first.
  for (std::size_t i = n; i < active_.size(); ++i) {
    active_[i] = nullptr;
    backlog_[i] = std::bit_cast<double>(kPoisonedSlotBits);
    weight_[i] = std::bit_cast<double>(kPoisonedSlotBits);
    ewma_[i] = std::bit_cast<double>(kPoisonedSlotBits);
    table_[i] = nullptr;
    frames_[i] = 0;
    row_off_[i] = std::numeric_limits<std::size_t>::max();
    departure_[i] = 0;
    qos_[i] = std::numeric_limits<std::uint8_t>::max();
    limit_[i] = 0;  // a live ceiling is never < 1
    chunk_[i] = nullptr;
    pos_[i] = std::numeric_limits<std::size_t>::max();
  }
#endif
  active_.resize(n);
  backlog_.resize(n);
  weight_.resize(n);
  ewma_.resize(n);
  table_.resize(n);
  frames_.resize(n);
  row_off_.resize(n);
  departure_.resize(n);
  qos_.resize(n);
  limit_.resize(n);
  chunk_.resize(n);
  pos_.resize(n);
  choice_.resize(n);
  dec_arrivals_.resize(n);
}

Status SessionStore::validate() const {
  const std::size_t n = active_.size();
  const auto fail = [](std::size_t i, const char* what) {
    return Status::FailedPrecondition("SessionStore::validate: slot " +
                                      std::to_string(i) + ": " + what);
  };
  if (backlog_.size() != n || weight_.size() != n || ewma_.size() != n ||
      table_.size() != n || frames_.size() != n || row_off_.size() != n ||
      departure_.size() != n || qos_.size() != n || limit_.size() != n ||
      chunk_.size() != n || pos_.size() != n || choice_.size() != n ||
      dec_arrivals_.size() != n) {
    return Status::FailedPrecondition(
        "SessionStore::validate: SoA mirrors not index-parallel with the "
        "active list");
  }
  std::unordered_set<const ServingSession*> seen;
  seen.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const ServingSession* s = active_[i];
    if (s == nullptr) return fail(i, "null (poisoned?) session pointer");
    if (!seen.insert(s).second) return fail(i, "session aliased twice");
    if (s->phase != SessionPhase::kActive) {
      return fail(i, "slab record is not kActive");
    }
    if (std::bit_cast<std::uint64_t>(weight_[i]) !=
        std::bit_cast<std::uint64_t>(s->spec.weight)) {
      return fail(i, "weight mirror diverged from spec");
    }
    if (departure_[i] != s->spec.departure_slot) {
      return fail(i, "departure mirror diverged from spec");
    }
    if (std::bit_cast<std::uint64_t>(backlog_[i]) == kPoisonedSlotBits) {
      return fail(i, "poisoned backlog in live slot");
    }
    if (!(backlog_[i] >= 0.0)) return fail(i, "negative or NaN backlog");
    // The first table interned for the session's cache: a second intern of
    // one cache would leave its sessions on a table this lookup never finds.
    const auto interned = std::find_if(
        tables_.begin(), tables_.end(),
        [s](const auto& entry) { return entry.first == s->spec.cache; });
    if (interned == tables_.end()) {
      return fail(i, "no table interned for the session's cache");
    }
    const FlatDecideTable* table = interned->second.get();
    if (table_[i] != table->data()) {
      return fail(i, "table base pointer diverged from interned table");
    }
    if (frames_[i] != table->frames()) {
      return fail(i, "frame count diverged from interned table");
    }
    const std::size_t stride = 2 * width_;
    if (row_off_[i] % stride != 0 || row_off_[i] >= frames_[i] * stride) {
      return fail(i, "row cursor out of table range or misaligned");
    }
    if (qos_[i] != s->spec.qos) return fail(i, "qos mirror diverged from spec");
    if (qos_[i] >= tier_limit_.size()) return fail(i, "qos tier out of range");
    if (limit_[i] != tier_limit_[qos_[i]]) {
      return fail(i, "candidate ceiling diverged from tier limit");
    }
    if (limit_[i] < 1 || limit_[i] > width_) {
      return fail(i, "candidate ceiling outside [1, width]");
    }
    // The write chunk must sit pos / kStepsPerChunk links down the record's
    // chain, and the record stays unsealed while the session lives.
    if (!s->trace.empty()) return fail(i, "live record already sealed");
    if (pos_[i] < s->trace.first()) {
      return fail(i, "chain position before the record's first step");
    }
    const StepChunk* chunk = s->trace.head();
    for (std::size_t c = pos_[i] / kStepsPerChunk; c != 0; --c) {
      if (chunk == nullptr) break;
      chunk = chunk->next;
    }
    if (chunk == nullptr || chunk != chunk_[i]) {
      return fail(i, "write chunk is not on the record's chain");
    }
  }
  // finish() attributes each chunk to its record by the tag alone, and
  // must never meet a free chunk on a record's chain.
  std::vector<const StepChunk*> free_chunks;
  for (const StepChunk* head : arena_->free_chains()) {
    for (const StepChunk* c = head; c != nullptr; c = c->next) {
      free_chunks.push_back(c);
    }
  }
  std::sort(free_chunks.begin(), free_chunks.end());
  if (std::adjacent_find(free_chunks.begin(), free_chunks.end()) !=
      free_chunks.end()) {
    return Status::FailedPrecondition(
        "SessionStore::validate: a chunk is on the free list twice");
  }
  if (free_chunks.size() != arena_->free_chunks()) {
    return Status::FailedPrecondition(
        "SessionStore::validate: free chunk count diverged from the free list");
  }
  std::vector<bool> free_slot(slab_.size(), false);
  for (const std::uint32_t pos : free_slots_) {
    if (pos >= slab_.size() || free_slot[pos]) {
      return Status::FailedPrecondition(
          "SessionStore::validate: free slot " + std::to_string(pos) +
          " out of range or listed twice");
    }
    free_slot[pos] = true;
  }
  for (std::size_t pos = 0; pos < slab_.size(); ++pos) {
    const ServingSession& s = slab_[pos];
    const auto fail_at = [pos](const std::string& what) {
      return Status::FailedPrecondition("SessionStore::validate: slab position " +
                                        std::to_string(pos) + ": " + what);
    };
    if (free_slot[pos] != (s.phase == SessionPhase::kReleased)) {
      return fail_at(free_slot[pos] ? "free slot holds a record"
                                    : "released record not on the free list");
    }
    if (free_slot[pos] || s.trace.head() == nullptr) continue;
    for (const StepChunk* c = s.trace.head(); c != nullptr; c = c->next) {
      if (c->tag() != pos) {
        return fail_at("record chunk tagged " + std::to_string(c->tag()));
      }
      if (std::binary_search(free_chunks.begin(), free_chunks.end(), c)) {
        return fail_at("record chunk is free");
      }
    }
  }
  return Status::Ok();
}

void SessionStore::decide_all() noexcept {
  const std::size_t n = active_.size();
  const std::size_t width = width_;
  const double v = v_;
  for (std::size_t i = 0; i < n; ++i) {
    ARVIS_DCHECK_MSG(
        std::bit_cast<std::uint64_t>(backlog_[i]) != kPoisonedSlotBits,
        "decide on poisoned (released) slot");
    ARVIS_DCHECK_MSG(table_[i] != nullptr, "decide on poisoned table slot");
    ARVIS_DCHECK_LT(row_off_[i], frames_[i] * 2 * width);
    ARVIS_DCHECK(limit_[i] >= 1 && limit_[i] <= width);
    const double q = backlog_[i];
    const double* u = table_[i] + row_off_[i];
    const double* a = u + width;
    // The brownout quality ceiling: only the first limit_[i] candidates
    // compete (limit == width when degradation is idle).
    const std::size_t lim = limit_[i];
    std::size_t best = 0;
    double best_objective = v * u[0] - q * a[0];
    for (std::size_t c = 1; c < lim; ++c) {
      const double objective = v * u[c] - q * a[c];
      if (objective > best_objective) {  // strict: ties keep the lower index
        best = c;
        best_objective = objective;
      }
    }
    choice_[i] = static_cast<std::uint32_t>(best);
    dec_arrivals_[i] = a[best];
  }
}

}  // namespace arvis

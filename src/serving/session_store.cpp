#include "serving/session_store.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <unordered_set>

namespace arvis {

namespace {

/// Mixes a decide key (interned row key, backlog bits, candidate ceiling)
/// into a table hash (splitmix64-style finalizer; the low bits index the
/// power-of-two ring).
std::uint64_t mix_key(std::uint64_t row_key, std::uint64_t backlog_bits,
                      std::uint32_t limit) {
  std::uint64_t k = row_key ^ (backlog_bits * 0x9E3779B97F4A7C15ULL) ^
                    ((limit + 1ULL) * 0xBF58476D1CE4E5B9ULL);
  k ^= k >> 33;
  k *= 0xFF51AFD7ED558CCDULL;
  k ^= k >> 33;
  return k;
}

}  // namespace

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
  slab_.emplace_back(id, spec);
  return slab_.back();
}

ServingSession* SessionStore::find(std::size_t id) noexcept {
  // Linear: slab ids are NOT guaranteed sorted (EdgeCluster places sessions
  // in (due slot, id) order, so a link can create id 7 before id 3), and
  // closes are rare calendar events, never per-slot work.
  for (ServingSession& s : slab_) {
    if (s.id == id) return &s;
  }
  return nullptr;
}

std::size_t SessionStore::intern(const FrameStatsCache& cache) {
  for (std::size_t t = 0; t < tables_.size(); ++t) {
    if (tables_[t].first == &cache) return t;
  }
  tables_.emplace_back(&cache,
                       std::make_shared<FlatDecideTable>(cache, candidates_));
  return tables_.size() - 1;
}

void SessionStore::activate(ServingSession& s, std::size_t slot) {
#if ARVIS_DCHECK_IS_ON
  // Double-activation would alias two SoA slots onto one slab record;
  // O(active) scan, Debug builds only.
  for (const ServingSession* a : active_) {
    ARVIS_DCHECK_MSG(a != &s, "session activated twice");
  }
#endif
  const std::size_t table_id = intern(*s.spec.cache);
  const FlatDecideTable& table = *tables_[table_id].second;
  // Heads start at a rotating index, so sessions activated together fill
  // their chunks on different slots: a fleet streaming in lockstep takes a
  // thirteenth of its next chunks each slot, not all of them every 13th.
  const std::size_t first = next_first_;
  next_first_ = first + 1 == kStepsPerChunk ? 0 : first + 1;
  StepChunk* head = arena_->alloc();
  s.trace.start(tables_[table_id].second, arena_, head, first, slot);
  active_.push_back(&s);
  backlog_.push_back(0.0);  // sessions start with an empty queue
  weight_.push_back(s.spec.weight);
  ewma_.push_back(0.0);
  table_.push_back(table.data());
  table_id_.push_back(static_cast<std::uint32_t>(table_id));
  frames_.push_back(table.frames());
  row_off_.push_back(0);  // session-local frame time starts at row 0
  departure_.push_back(s.spec.departure_slot);
  ARVIS_DCHECK_LT(s.spec.qos, tier_limit_.size());
  qos_.push_back(s.spec.qos);
  limit_.push_back(tier_limit_[s.spec.qos]);
  chunk_.push_back(head);
  pos_.push_back(first);
  choice_.push_back(0);
  dec_arrivals_.push_back(0.0);
  histo_add(std::bit_cast<std::uint64_t>(s.spec.weight));
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
  // Refresh the active mirror; a changed ceiling invalidates the decide
  // grouping (the ceiling is part of the group key), so bump the membership
  // generation exactly like a lifecycle edge. No change, no invalidation —
  // a policy re-asserting the current ceilings stays free.
  bool changed = false;
  for (std::size_t i = 0; i < active_.size(); ++i) {
    const std::uint32_t next = tier_limit_[qos_[i]];
    if (limit_[i] != next) {
      limit_[i] = next;
      changed = true;
    }
  }
  if (changed) ++generation_;
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
    table_id_[i] = std::numeric_limits<std::uint32_t>::max();
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
  table_id_.resize(n);
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

void SessionStore::histo_add(std::uint64_t weight_bits) {
  for (auto& [bits, count] : weight_histo_) {
    if (bits == weight_bits) {
      ++count;
      return;
    }
  }
  weight_histo_.emplace_back(weight_bits, 1);
}

void SessionStore::histo_remove(std::uint64_t weight_bits) {
  for (std::size_t k = 0; k < weight_histo_.size(); ++k) {
    if (weight_histo_[k].first == weight_bits) {
      if (--weight_histo_[k].second == 0) {
        weight_histo_[k] = weight_histo_.back();
        weight_histo_.pop_back();
      }
      return;
    }
  }
}

Status SessionStore::validate() const {
  const std::size_t n = active_.size();
  const auto fail = [](std::size_t i, const char* what) {
    return Status::FailedPrecondition("SessionStore::validate: slot " +
                                      std::to_string(i) + ": " + what);
  };
  if (backlog_.size() != n || weight_.size() != n || ewma_.size() != n ||
      table_.size() != n || table_id_.size() != n || frames_.size() != n ||
      row_off_.size() != n || departure_.size() != n || qos_.size() != n ||
      limit_.size() != n || chunk_.size() != n || pos_.size() != n ||
      choice_.size() != n || dec_arrivals_.size() != n) {
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
    if (table_id_[i] >= tables_.size()) {
      return fail(i, "table id out of interned range");
    }
    const auto& [cache, table] = tables_[table_id_[i]];
    if (cache != s->spec.cache) {
      return fail(i, "interned table belongs to a different cache");
    }
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
  // The weight histogram must be exactly reproducible from the mirrors (it
  // drives uniform_weights, which gates scheduler fast paths — a drifted
  // histogram silently changes scheduling).
  std::vector<std::pair<std::uint64_t, std::size_t>> expect;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(weight_[i]);
    bool found = false;
    for (auto& [b, c] : expect) {
      if (b == bits) {
        ++c;
        found = true;
        break;
      }
    }
    if (!found) expect.emplace_back(bits, 1);
  }
  if (expect.size() != weight_histo_.size()) {
    return Status::FailedPrecondition(
        "SessionStore::validate: weight histogram tier count diverged");
  }
  for (const auto& [bits, count] : expect) {
    bool matched = false;
    for (const auto& [b, c] : weight_histo_) {
      if (b == bits && c == count) {
        matched = true;
        break;
      }
    }
    if (!matched) {
      return Status::FailedPrecondition(
          "SessionStore::validate: weight histogram count diverged");
    }
  }
  // Decide-group structures only claim validity while the membership they
  // were built against is current.
  if (groups_generation_ == generation_ && !group_rep_.empty()) {
    if (group_row_.size() != group_rep_.size() ||
        group_limit_.size() != group_rep_.size()) {
      return Status::FailedPrecondition(
          "SessionStore::validate: group rep/row/limit arrays diverged");
    }
    for (std::size_t g = 0; g < group_rep_.size(); ++g) {
      if (group_rep_[g] >= n) {
        return Status::FailedPrecondition(
            "SessionStore::validate: group representative out of range");
      }
    }
  }
  return Status::Ok();
}

void SessionStore::rebuild_groups() {
  const std::size_t n = active_.size();
  group_rep_.clear();
  group_row_.clear();
  group_limit_.clear();
  group_of_.resize(n);

  // Size the scratch hash at >= 2n slots (power of two, grown once).
  std::size_t cap = memo_.size();
  if (cap < 2 * n) {
    cap = 64;
    while (cap < 2 * n) cap <<= 1;
    memo_.assign(cap, MemoSlot{});
    memo_epoch_ = 0;
  }
  const std::size_t mask = memo_.size() - 1;
  const std::uint64_t epoch = ++memo_epoch_;

  std::uint64_t prev_key = 0;
  std::uint64_t prev_bits = 0;
  std::uint32_t prev_limit = 0;
  std::uint32_t prev_group = 0;
  bool have_prev = false;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t key = row_key(i);
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(backlog_[i]);
    const std::uint32_t lim = limit_[i];
    // Cohort fast path: sessions that activated together sit adjacently in
    // the active list and evolve identically, so most duplicates are the
    // previous index — no hash probe, no random memory touch.
    if (have_prev && key == prev_key && bits == prev_bits &&
        lim == prev_limit) {
      group_of_[i] = prev_group;
      continue;
    }
    std::size_t p = mix_key(key, bits, lim) & mask;
    std::uint32_t g;
    for (;;) {
      MemoSlot& slot = memo_[p];
      if (slot.epoch != epoch) {
        g = static_cast<std::uint32_t>(group_rep_.size());
        slot = MemoSlot{epoch, key, bits, g, lim};
        group_rep_.push_back(static_cast<std::uint32_t>(i));
        group_row_.push_back(table_[i] + row_off_[i]);
        group_limit_.push_back(lim);
        break;
      }
      if (slot.row_key == key && slot.backlog_bits == bits &&
          slot.limit == lim) {
        g = slot.group;
        break;
      }
      p = (p + 1) & mask;
    }
    group_of_[i] = g;
    prev_key = key;
    prev_bits = bits;
    prev_limit = lim;
    prev_group = g;
    have_prev = true;
  }

  groups_generation_ = generation_;
  backlog_dirty_ = false;
}

void SessionStore::run_blocked_kernel() {
  const std::size_t g_count = group_rep_.size();
  group_choice_.resize(g_count);
  group_arrivals_.resize(g_count);

  std::size_t g = 0;
  // Blocked lanes: kDecideLanes independent argmaxes advanced candidate by
  // candidate with branch-free selects. Each lane performs exactly the
  // scalar kernel's operations in the scalar kernel's order, so lane results
  // are bit-identical to decide(i) — blocking changes scheduling, not math.
  for (; g + kDecideLanes <= g_count; g += kDecideLanes) {
    const double* rows[kDecideLanes];
    double q[kDecideLanes];
    double best_obj[kDecideLanes];
    std::size_t best[kDecideLanes];
    std::size_t lim[kDecideLanes];
    for (std::size_t l = 0; l < kDecideLanes; ++l) {
      rows[l] = group_row_[g + l];
      q[l] = backlog_[group_rep_[g + l]];
      best[l] = 0;
      best_obj[l] = v_ * rows[l][0] - q[l] * rows[l][width_];
      lim[l] = group_limit_[g + l];
    }
    for (std::size_t c = 1; c < width_; ++c) {
      for (std::size_t l = 0; l < kDecideLanes; ++l) {
        const double objective = v_ * rows[l][c] - q[l] * rows[l][width_ + c];
        // Candidates past the lane's brownout ceiling never win; computing
        // their objective anyway keeps the lane loop branch-free (the row is
        // width_ wide regardless, so the loads are always in bounds).
        const bool better = c < lim[l] && objective > best_obj[l];
        best_obj[l] = better ? objective : best_obj[l];
        best[l] = better ? c : best[l];
      }
    }
    for (std::size_t l = 0; l < kDecideLanes; ++l) {
      group_choice_[g + l] = static_cast<std::uint32_t>(best[l]);
      group_arrivals_[g + l] = rows[l][width_ + best[l]];
    }
  }
  for (; g < g_count; ++g) {  // scalar tail
    const double* row = group_row_[g];
    const double q = backlog_[group_rep_[g]];
    std::size_t best = 0;
    double best_objective = v_ * row[0] - q * row[width_];
    const std::size_t lim = group_limit_[g];
    for (std::size_t c = 1; c < lim; ++c) {
      const double objective = v_ * row[c] - q * row[width_ + c];
      if (objective > best_objective) {
        best = c;
        best_objective = objective;
      }
    }
    group_choice_[g] = static_cast<std::uint32_t>(best);
    group_arrivals_[g] = row[width_ + best];
  }
}

void SessionStore::decide_all() {
  const std::size_t n = active_.size();
  if (n == 0) {
    group_rep_.clear();
    group_row_.clear();
    group_limit_.clear();
    last_reused_ = false;
    return;
  }

  const bool reuse = groups_generation_ == generation_ && !backlog_dirty_ &&
                     !group_rep_.empty();
  last_reused_ = reuse;
  if (reuse) {
    ++decide_group_reuses_;
  } else {
    ++decide_group_rebuilds_;
  }
  if (reuse) {
    // Decision-stable steady state: membership and every backlog bit are
    // unchanged since the groups were built, so group structure is provably
    // identical — only each group's frame row advanced. O(groups).
    for (std::size_t g = 0; g < group_rep_.size(); ++g) {
      const std::size_t rep = group_rep_[g];
      group_row_[g] = table_[rep] + row_off_[rep];
    }
  } else {
    rebuild_groups();
  }

  run_blocked_kernel();

  // Fan the group decisions out to members. When every key was distinct the
  // group arrays are index-parallel with the active list (groups are minted
  // in scan order), so the copy is two straight streams.
  const std::size_t g_count = group_rep_.size();
  if (g_count == n) {
    for (std::size_t i = 0; i < n; ++i) {
      choice_[i] = group_choice_[i];
      dec_arrivals_[i] = group_arrivals_[i];
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t g = group_of_[i];
      choice_[i] = group_choice_[g];
      dec_arrivals_[i] = group_arrivals_[g];
    }
  }
}

}  // namespace arvis

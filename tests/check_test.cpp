// Tests for the ARVIS_DCHECK layer and the arena lifetime checker built on
// it. The death tests prove the checks actually fire in Debug/sanitizer
// builds (stale handle, double activation, out-of-range kernel index); the
// elision tests prove a Release build pays nothing — off-mode macros do not
// even evaluate their operands, which is the property that lets O(n) checks
// sit inside the decide/drain kernels.
#include <gtest/gtest.h>

#include <cstddef>

#include "common/check.hpp"
#include "datasets/catalog.hpp"
#include "net/streaming.hpp"
#include "serving/session_store.hpp"
#include "sim/frame_stats_cache.hpp"

namespace arvis {
namespace {

const FrameStatsCache& check_cache() {
  static const FrameStatsCache cache(*open_test_subject(71), 8, 8);
  return cache;
}

// The helpers (and the probe lambda below) are only referenced by the death
// tests, which compile away with the check layer; [[maybe_unused]] keeps the
// Release -Werror build clean.
[[maybe_unused]] SessionStore make_store() {
  const std::vector<int> candidates{3, 4, 5, 6};
  const double v = calibrate_streaming_v(
      check_cache(), candidates, 4.0 * check_cache().workload(0).bytes(5));
  return SessionStore(candidates, v);
}

[[maybe_unused]] ServingSession& activate_one(SessionStore& store,
                                              std::size_t id) {
  SessionSpec spec;
  spec.cache = &check_cache();
  ServingSession& s = store.create(id, spec);
  s.phase = SessionPhase::kActive;
  store.activate(s, 0);
  return s;
}

TEST(CheckTest, EnabledMatchesBuildMode) {
#ifdef NDEBUG
#ifdef ARVIS_FORCE_DCHECKS
  EXPECT_TRUE(dchecks_enabled());
#else
  EXPECT_FALSE(dchecks_enabled());
#endif
#else
  EXPECT_TRUE(dchecks_enabled());
#endif
  EXPECT_EQ(dchecks_enabled(), ARVIS_DCHECK_IS_ON != 0);
}

TEST(CheckTest, PassingChecksAreSilent) {
  // Whole family, truthy conditions: must be no-ops in every build mode.
  ARVIS_DCHECK(true);
  ARVIS_DCHECK_MSG(1 + 1 == 2, "arithmetic");
  ARVIS_DCHECK_EQ(4, 4);
  ARVIS_DCHECK_NE(4, 5);
  ARVIS_DCHECK_LT(4, 5);
  ARVIS_DCHECK_LE(5, 5);
  ARVIS_DCHECK_GT(5, 4);
  ARVIS_DCHECK_GE(5, 5);
  SUCCEED();
}

TEST(CheckTest, OffModeDoesNotEvaluateOperands) {
  // The contract that makes expensive checks free in Release: when the
  // layer is off, the condition expression is never evaluated. When it is
  // on, a *passing* condition is evaluated exactly once.
  int evaluations = 0;
  [[maybe_unused]] const auto probe = [&]() {
    ++evaluations;
    return true;
  };
  ARVIS_DCHECK(probe());
  ARVIS_DCHECK_MSG(probe(), "msg");
  ARVIS_DCHECK_EQ(probe(), true);
  if (dchecks_enabled()) {
    EXPECT_EQ(evaluations, 3);
  } else {
    EXPECT_EQ(evaluations, 0);
  }
}

#if ARVIS_DCHECK_IS_ON

TEST(CheckDeathTest, FailureReportsExpressionAndAborts) {
  EXPECT_DEATH(ARVIS_DCHECK(2 + 2 == 5), "ARVIS_DCHECK failed: 2 \\+ 2 == 5");
  EXPECT_DEATH(ARVIS_DCHECK_MSG(false, "the message"), "the message");
  EXPECT_DEATH(ARVIS_DCHECK_LT(7, 3), "\\(7\\) < \\(3\\)");
}

TEST(CheckDeathTest, StaleHandleIsCaught) {
  SessionStore store = make_store();
  activate_one(store, 0);
  ServingSession& doomed = activate_one(store, 1);
  const SessionStore::ActiveHandle h = store.active_handle(1);
  EXPECT_EQ(&store.resolve(h), &doomed);  // fresh handle resolves fine

  // Any lifecycle edge bumps the membership generation: the handle is now
  // provably stale (index 1 no longer exists; index 0 compacted).
  store.set_departure(1, 0);
  store.retire_departed(
      0, [](ServingSession& s) { s.phase = SessionPhase::kClosed; });
  EXPECT_DEATH((void)store.resolve(h), "stale session handle");
  EXPECT_DEATH((void)store.backlog_at(h), "stale session handle");
}

TEST(CheckDeathTest, DoubleActivationIsCaught) {
  SessionStore store = make_store();
  ServingSession& s = activate_one(store, 0);
  EXPECT_DEATH(store.activate(s, 1), "session activated twice");
}

TEST(CheckDeathTest, OutOfRangeKernelIndexIsCaught) {
  SessionStore store = make_store();
  activate_one(store, 0);
  // One active session: index 1 is past the live range. In a Release build
  // this reads whatever the mirror vectors hold; with the layer on it dies
  // on the bounds check before touching data.
  EXPECT_DEATH((void)store.active_session(1), "ARVIS_DCHECK failed");
  EXPECT_DEATH((void)store.active_handle(1), "ARVIS_DCHECK failed");
}

TEST(CheckDeathTest, RetiredSlotIsPoisonedNotReadable) {
  SessionStore store = make_store();
  activate_one(store, 0);
  activate_one(store, 1);
  store.set_departure(1, 0);
  store.retire_departed(
      0, [](ServingSession& s) { s.phase = SessionPhase::kClosed; });
  ASSERT_EQ(store.active_count(), 1U);
  // Index 1's slot still exists in vector capacity but was poisoned on
  // release: drain must refuse it rather than read the stale mirror.
  EXPECT_DEATH(store.drain(1, 0.0, 0.0), "ARVIS_DCHECK failed");
}

TEST(CheckDeathTest, ReleasedSegmentIsPoisonedNotReadable) {
  SessionStore store = make_store();
  activate_one(store, 0);
  activate_one(store, 1);
  for (std::size_t t = 0; t < 20; ++t) {
    store.decide_all();
    for (std::size_t i = 0; i < store.active_count(); ++i) {
      store.drain(i, 300.0, 0.0);
    }
  }
  store.retire_active(
      [](const ServingSession& s) { return s.id == 0; },
      [](ServingSession& s) { s.phase = SessionPhase::kClosed; });
  // A copy of the sealed record outlives the segment's release.
  const SessionTrace stale = store.session(0).trace;
  ASSERT_EQ(stale.size(), 20U);
  store.release(0);
  EXPECT_DEATH((void)store.session(0), "reading a released slab record");
  // A new segment takes the released slab position and the chain's head
  // chunk; the stale record still leads into the chunks.
  activate_one(store, 2);
  ASSERT_EQ(store.newest(), 0U);
  const auto decode = [&stale] {
    double sum = 0.0;
    for (const StepRecord& r : stale.steps()) sum += r.service;
    return sum;
  };
  EXPECT_DEATH((void)decode(), "decoding a released record chunk");
  EXPECT_DEATH((void)stale.summarize_partial(),
               "decoding a released record chunk");
}

#endif  // ARVIS_DCHECK_IS_ON

}  // namespace
}  // namespace arvis

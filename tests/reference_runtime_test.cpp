// The serving runtime against the reference runtime
// (tests/support/reference_runtime.hpp): each regime runs the SoA slot loop,
// replays the same sessions through the view-based controller path, and
// requires every record to match bit for bit. The regimes cover a one-link
// server (a K = 1 cluster) dense, underloaded and churned under four
// schedulers, and a K = 3 cluster through the placement path.
#include <gtest/gtest.h>

#include "serving/scheduler.hpp"
#include "support/reference_runtime.hpp"

namespace {

using arvis::SchedulerPolicy;
using arvis_test::cluster_oracle_matches;
using arvis_test::oracle_matches;

TEST(ReferenceRuntimeTest, WorkConservingDense) {
  EXPECT_TRUE(oracle_matches(SchedulerPolicy::kWorkConserving, 0.0, 8, 200,
                             /*churn=*/false));
}

TEST(ReferenceRuntimeTest, ProportionalFairWithEwmaWindowDense) {
  EXPECT_TRUE(oracle_matches(SchedulerPolicy::kProportionalFair, 16.0, 6, 200,
                             /*churn=*/false));
}

TEST(ReferenceRuntimeTest, DeficitRoundRobinDense) {
  EXPECT_TRUE(oracle_matches(SchedulerPolicy::kDeficitRoundRobin, 0.0, 6, 200,
                             /*churn=*/false));
}

// Each session's link share is over twice its deepest frame, so every demand
// is met in work-conserving's first water-fill round and the surplus goes
// out equally, a path the loaded regimes never take.
TEST(ReferenceRuntimeTest, WorkConservingUnderloaded) {
  EXPECT_TRUE(oracle_matches(SchedulerPolicy::kWorkConserving, 0.0, 8, 200,
                             /*churn=*/false, /*headroom=*/200.0));
}

// Arrivals and departures compact the active list every few slots.
TEST(ReferenceRuntimeTest, WorkConservingChurn) {
  EXPECT_TRUE(oracle_matches(SchedulerPolicy::kWorkConserving, 0.0, 10, 240,
                             /*churn=*/true));
}

// Weighted-priority also re-sorts a changing mixed-weight fleet into tiers.
TEST(ReferenceRuntimeTest, WeightedPriorityChurn) {
  EXPECT_TRUE(oracle_matches(SchedulerPolicy::kWeightedPriority, 0.0, 10, 240,
                             /*churn=*/true));
}

TEST(ReferenceRuntimeTest, ThreeLinkClusterDeficitRoundRobin) {
  EXPECT_TRUE(cluster_oracle_matches(SchedulerPolicy::kDeficitRoundRobin,
                                     /*links=*/3, /*n=*/12, /*steps=*/160));
}

}  // namespace

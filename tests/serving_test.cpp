// Tests for the multi-session edge serving runtime: scheduler policy
// invariants, admission boundaries, session churn bookkeeping on a one-link
// server (a K = 1 EdgeCluster), and the determinism contract of the
// parallel executor (parallel == serial, bit for bit).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <variant>

#include "common/rng.hpp"
#include "datasets/catalog.hpp"
#include "net/channel.hpp"
#include "net/streaming.hpp"
#include "queueing/stability.hpp"
#include "serving/admission.hpp"
#include "serving/cluster.hpp"
#include "serving/executor.hpp"
#include "serving/metrics.hpp"
#include "serving/scheduler.hpp"
#include "serving/session_manager.hpp"
#include "sim/replication.hpp"
#include "support/decode_oracle.hpp"
#include "support/reference_scheduler.hpp"

namespace arvis {
namespace {

using arvis_test::allocate;
using arvis_test::SchedulerDemand;

const FrameStatsCache& shared_cache() {
  static const FrameStatsCache cache(*open_test_subject(71), 8, 8);
  return cache;
}

double cheapest_load(const std::vector<int>& candidates) {
  return AdmissionController::cheapest_depth_load(shared_cache(), candidates);
}

// ------------------------------------------------------------ Fairness ----

TEST(ServingMetricsTest, JainDegenerateCases) {
  // The new home of jain_fairness_index fixes the all-equal degenerate
  // cases: any constant fleet is perfectly fair, zero included.
  EXPECT_DOUBLE_EQ(jain_fairness_index({}), 0.0);
  EXPECT_DOUBLE_EQ(jain_fairness_index({0.0}), 1.0);
  EXPECT_DOUBLE_EQ(jain_fairness_index({0.0, 0.0, 0.0}), 1.0);
  EXPECT_DOUBLE_EQ(jain_fairness_index({7.5, 7.5}), 1.0);
  EXPECT_NEAR(jain_fairness_index({1, 0, 0, 0}), 0.25, 1e-12);
  // n-1 equal plus one dominant lands strictly between 1/n and 1.
  const double mixed = jain_fairness_index({10, 1, 1, 1});
  EXPECT_GT(mixed, 0.25);
  EXPECT_LT(mixed, 1.0);
}

// ---------------------------------------------------------- Schedulers ----

std::vector<SchedulerDemand> random_demands(Rng& rng, std::size_t n) {
  std::vector<SchedulerDemand> demands(n);
  for (SchedulerDemand& d : demands) {
    d.backlog = rng.bernoulli(0.3) ? 0.0 : rng.uniform(0.0, 5'000.0);
    d.arrivals = rng.uniform(0.0, 1'000.0);
    d.weight = rng.bernoulli(0.5) ? 1.0 : rng.uniform(0.5, 4.0);
  }
  return demands;
}

TEST(SchedulerTest, AllPoliciesConserveCapacity) {
  Rng rng(7);
  std::vector<double> shares;
  for (SchedulerPolicy policy :
       {SchedulerPolicy::kEqualShare, SchedulerPolicy::kWorkConserving,
        SchedulerPolicy::kProportionalFair, SchedulerPolicy::kWeightedPriority,
        SchedulerPolicy::kDeficitRoundRobin}) {
    auto scheduler = make_scheduler(policy);
    for (int trial = 0; trial < 200; ++trial) {
      const std::size_t n = 1 + static_cast<std::size_t>(rng.below(12));
      const auto demands = random_demands(rng, n);
      const double capacity = rng.uniform(0.0, 20'000.0);
      allocate(*scheduler, capacity, demands, shares);
      ASSERT_EQ(shares.size(), n) << to_string(policy);
      double total = 0.0;
      for (double s : shares) {
        EXPECT_GE(s, 0.0) << to_string(policy);
        total += s;
      }
      EXPECT_LE(total, capacity * (1.0 + 1e-9) + 1e-9) << to_string(policy);
    }
  }
}

TEST(SchedulerTest, WorkConservingNeverWastesWhileBacklogged) {
  Rng rng(11);
  WorkConservingScheduler scheduler;
  std::vector<double> shares;
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng.below(12));
    const auto demands = random_demands(rng, n);
    const double total_demand = std::accumulate(
        demands.begin(), demands.end(), 0.0,
        [](double acc, const SchedulerDemand& d) { return acc + d.total(); });
    // Capacity strictly below total demand: some queue stays backlogged, so
    // a work-conserving allocation must hand out every byte.
    const double capacity = rng.uniform(0.0, 0.95) * total_demand;
    allocate(scheduler, capacity, demands, shares);
    const double allocated = std::accumulate(shares.begin(), shares.end(), 0.0);
    EXPECT_NEAR(allocated, capacity, 1e-6 * std::max(capacity, 1.0));
    // And nobody is granted beyond their demand while others starve.
    for (std::size_t i = 0; i < shares.size(); ++i) {
      EXPECT_LE(shares[i], demands[i].total() * (1.0 + 1e-9) + 1e-9);
    }
  }
}

TEST(SchedulerTest, WorkConservingMeetsAllDemandsUnderLightLoad) {
  WorkConservingScheduler scheduler;
  std::vector<double> shares;
  const std::vector<SchedulerDemand> demands{
      {100.0, 50.0, 1.0}, {0.0, 0.0, 1.0}, {10.0, 5.0, 1.0}};
  allocate(scheduler, 1'000.0, demands, shares);
  for (std::size_t i = 0; i < demands.size(); ++i) {
    EXPECT_GE(shares[i], demands[i].total());
  }
  // Full pipe still handed out (excess is wasted by the queues, not here).
  EXPECT_NEAR(shares[0] + shares[1] + shares[2], 1'000.0, 1e-9);
}

TEST(SchedulerTest, ProportionalFairSplitsByWeightedDemand) {
  ProportionalFairScheduler scheduler;
  std::vector<double> shares;
  // Overload with equal weights: pure proportional split by demand.
  allocate(scheduler, 200.0, {{100.0, 0.0, 1.0}, {300.0, 0.0, 1.0}}, shares);
  EXPECT_NEAR(shares[0], 50.0, 1e-9);
  EXPECT_NEAR(shares[1], 150.0, 1e-9);
  // Weight doubles a session's pull.
  allocate(scheduler, 120.0, {{100.0, 0.0, 2.0}, {100.0, 0.0, 1.0}}, shares);
  EXPECT_NEAR(shares[0], 80.0, 1e-9);
  EXPECT_NEAR(shares[1], 40.0, 1e-9);
  // A capped heavy-weight session's surplus flows to the rest instead of
  // being wasted.
  allocate(scheduler, 200.0, {{100.0, 0.0, 4.0}, {300.0, 0.0, 1.0}}, shares);
  EXPECT_NEAR(shares[0], 100.0, 1e-9);
  EXPECT_NEAR(shares[1], 100.0, 1e-9);
  // Light load: everyone gets exactly their demand, never more.
  allocate(scheduler, 1'000.0, {{100.0, 0.0, 1.0}, {300.0, 0.0, 1.0}}, shares);
  EXPECT_NEAR(shares[0], 100.0, 1e-9);
  EXPECT_NEAR(shares[1], 300.0, 1e-9);
  // A weight-0 session draws no proportional offer but is not starved:
  // once only zero-weight demand remains, the surplus water-fills it.
  allocate(scheduler, 100.0, {{50.0, 0.0, 0.0}, {10.0, 0.0, 1.0}}, shares);
  EXPECT_NEAR(shares[0], 50.0, 1e-9);
  EXPECT_NEAR(shares[1], 10.0, 1e-9);
}

TEST(SchedulerTest, WeightedPriorityGroupsWeightsFromDifferentArithmetic) {
  WeightedPriorityScheduler scheduler;
  std::vector<double> shares;
  // 0.1 + 0.2 != 0.3 in binary floating point; exact == grouping split these
  // into a phantom priority tier and starved the "lower" one. The sorted-
  // permutation grouping treats them as one tier: equal-split water-fill.
  const double w_sum = 0.1 + 0.2;
  const double w_lit = 0.3;
  ASSERT_NE(w_sum, w_lit);  // the premise: different arithmetic paths differ
  allocate(scheduler, 100.0, {{150.0, 0.0, w_sum}, {150.0, 0.0, w_lit}},
           shares);
  EXPECT_NEAR(shares[0], 50.0, 1e-9);
  EXPECT_NEAR(shares[1], 50.0, 1e-9);
  // Order-independent: the literal first gets the same split.
  allocate(scheduler, 100.0, {{150.0, 0.0, w_lit}, {150.0, 0.0, w_sum}},
           shares);
  EXPECT_NEAR(shares[0], 50.0, 1e-9);
  EXPECT_NEAR(shares[1], 50.0, 1e-9);
  // Humanly distinct weights still tier strictly.
  allocate(scheduler, 100.0, {{150.0, 0.0, 0.3}, {150.0, 0.0, 0.31}}, shares);
  EXPECT_NEAR(shares[0], 0.0, 1e-9);
  EXPECT_NEAR(shares[1], 100.0, 1e-9);
}

TEST(SchedulerTest, WeightedPriorityServesTiersInOrder) {
  WeightedPriorityScheduler scheduler;
  std::vector<double> shares;
  // The weight-2 tier drains fully before the weight-1 tier sees a byte.
  allocate(scheduler, 200.0, {{150.0, 0.0, 2.0}, {150.0, 0.0, 1.0}}, shares);
  EXPECT_NEAR(shares[0], 150.0, 1e-9);
  EXPECT_NEAR(shares[1], 50.0, 1e-9);
  // Under overload the low tier starves entirely.
  allocate(scheduler, 100.0, {{150.0, 0.0, 2.0}, {150.0, 0.0, 1.0}}, shares);
  EXPECT_NEAR(shares[0], 100.0, 1e-9);
  EXPECT_NEAR(shares[1], 0.0, 1e-9);
  // Equal weights degenerate to equal-split water-filling.
  allocate(scheduler, 100.0, {{150.0, 0.0, 1.0}, {150.0, 0.0, 1.0}}, shares);
  EXPECT_NEAR(shares[0], 50.0, 1e-9);
  EXPECT_NEAR(shares[1], 50.0, 1e-9);
}

TEST(SchedulerTest, ProportionalFairEwmaFavorsHistoricallyStarved) {
  ProportionalFairScheduler scheduler;
  std::vector<double> shares;
  // Equal weight, equal demand; session 0 has been drinking 1000 bytes/slot
  // while session 1 got nothing. True PF hands the starved session the lion's
  // share: pulls are 1/1001 vs 1/1.
  allocate(scheduler, 100.0,
           {{200.0, 0.0, 1.0, 1'000.0}, {200.0, 0.0, 1.0, 0.0}}, shares);
  EXPECT_LT(shares[0], 1.0);
  EXPECT_GT(shares[1], 99.0);
  EXPECT_NEAR(shares[0] + shares[1], 100.0, 1e-9);
  // Equal histories collapse to the legacy demand-proportional split.
  allocate(scheduler, 200.0,
           {{100.0, 0.0, 1.0, 500.0}, {300.0, 0.0, 1.0, 500.0}}, shares);
  EXPECT_NEAR(shares[0], 50.0, 1e-9);
  EXPECT_NEAR(shares[1], 150.0, 1e-9);
  // No history (< 0, the default) is the legacy behaviour bit for bit.
  allocate(scheduler, 200.0, {{100.0, 0.0, 1.0}, {300.0, 0.0, 1.0}}, shares);
  EXPECT_NEAR(shares[0], 50.0, 1e-9);
  EXPECT_NEAR(shares[1], 150.0, 1e-9);
}

TEST(SchedulerTest, DeficitRoundRobinIsWeightedMaxMin) {
  DeficitRoundRobinScheduler scheduler;
  std::vector<double> shares;
  // Equal weights under overload: equal split.
  allocate(scheduler, 100.0, {{150.0, 0.0, 1.0}, {150.0, 0.0, 1.0}}, shares);
  EXPECT_NEAR(shares[0], 50.0, 1e-9);
  EXPECT_NEAR(shares[1], 50.0, 1e-9);
  // 2:1 weights under overload: 2:1 split.
  allocate(scheduler, 90.0, {{150.0, 0.0, 2.0}, {150.0, 0.0, 1.0}}, shares);
  EXPECT_NEAR(shares[0], 60.0, 1e-9);
  EXPECT_NEAR(shares[1], 30.0, 1e-9);
  // Grants cap at demand; the surplus reaches the still-hungry session
  // (max-min, not strict priority).
  allocate(scheduler, 300.0, {{100.0, 0.0, 2.0}, {150.0, 0.0, 1.0}}, shares);
  EXPECT_NEAR(shares[0], 100.0, 1e-9);
  EXPECT_NEAR(shares[1], 150.0, 1e-9);
  // Zero-weight sessions are served from leftovers only.
  allocate(scheduler, 100.0, {{80.0, 0.0, 0.0}, {50.0, 0.0, 1.0}}, shares);
  EXPECT_NEAR(shares[1], 50.0, 1e-9);
  EXPECT_NEAR(shares[0], 50.0, 1e-9);  // leftover 50 of the 80 wanted
  // Under overload nothing leaks to weight zero.
  allocate(scheduler, 40.0, {{80.0, 0.0, 0.0}, {50.0, 0.0, 1.0}}, shares);
  EXPECT_NEAR(shares[0], 0.0, 1e-9);
  EXPECT_NEAR(shares[1], 40.0, 1e-9);
}

TEST(SchedulerTest, DeficitRoundRobinHandlesVanishinglySmallWeights) {
  // The per-round quantum is recomputed from the surviving ring's weight, so
  // a near-zero-weight straggler (trace files accept any weight >= 0) drains
  // in O(1) rounds instead of ~capacity/(capacity * w/Σw) of them — this
  // call used to take hours at weight 1e-12.
  DeficitRoundRobinScheduler scheduler;
  std::vector<double> shares;
  allocate(scheduler, 1'000.0, {{1'000.0, 0.0, 1e-12}, {10.0, 0.0, 1.0}},
           shares);
  EXPECT_NEAR(shares[1], 10.0, 1e-9);
  EXPECT_NEAR(shares[0], 990.0, 1e-6);
}

TEST(SchedulerTest, DeficitRoundRobinRotatesTheResidue) {
  // Capacity runs dry mid-round, so whoever is visited first in the final
  // round keeps the residue; the cursor rotates that advantage across slots.
  DeficitRoundRobinScheduler scheduler;
  std::vector<double> shares;
  const std::vector<SchedulerDemand> demands{
      {5.0, 0.0, 1.0}, {100.0, 0.0, 1.0}, {100.0, 0.0, 1.0}};
  allocate(scheduler, 30.0, demands, shares);  // rotation starts at index 0
  const std::vector<double> first = shares;
  allocate(scheduler, 30.0, demands, shares);
  allocate(scheduler, 30.0, demands, shares);  // rotation starts at index 2
  const std::vector<double> third = shares;
  // Session 0's tiny demand is always met; the big pair split the rest, and
  // the 5-byte residue lands on whichever of them the rotation favours.
  EXPECT_NEAR(first[0], 5.0, 1e-9);
  EXPECT_NEAR(third[0], 5.0, 1e-9);
  EXPECT_NEAR(first[1], 15.0, 1e-9);
  EXPECT_NEAR(first[2], 10.0, 1e-9);
  EXPECT_NEAR(third[1], 10.0, 1e-9);
  EXPECT_NEAR(third[2], 15.0, 1e-9);
}

// ----------------------------------------- scheduler kernel equivalence ----
// The production kernels must reproduce the reference algorithms
// (support/reference_scheduler.hpp) share for share — exact doubles, not
// NEAR.

namespace ref = arvis_test::ref;

TEST(SchedulerTest, KernelsMatchReferenceBitForBit) {
  Rng rng(4242);
  WorkConservingScheduler wc;
  ProportionalFairScheduler pf;
  WeightedPriorityScheduler wp;
  std::vector<double> shares, want;
  DeficitRoundRobinScheduler drr;
  arvis_test::ReferenceScheduler drr_ref(SchedulerPolicy::kDeficitRoundRobin);

  for (int iter = 0; iter < 300; ++iter) {
    const std::size_t n = rng.below(18);
    std::vector<SchedulerDemand> demands = random_demands(rng, n);
    // Mix in the corner regimes: uniform weights (one priority tier), PF
    // history, zero-demand and zero-weight stragglers, dry capacity.
    const bool uniform = rng.bernoulli(0.4);
    for (SchedulerDemand& d : demands) {
      if (uniform) d.weight = 1.5;
      if (rng.bernoulli(0.3)) d.ewma_throughput = rng.uniform(0.0, 2'000.0);
      if (rng.bernoulli(0.1)) d.weight = 0.0;
      if (rng.bernoulli(0.1)) {
        d.backlog = 0.0;
        d.arrivals = 0.0;
      }
    }
    double total = 0.0;
    for (const SchedulerDemand& d : demands) total += d.total();
    const double capacity =
        rng.bernoulli(0.1) ? 0.0 : rng.uniform(0.0, total * 1.4 + 10.0);

    // SoA mirror of the demand set, the shape the hot path supplies.
    std::vector<double> backlog(n), arrivals(n), weight(n), ewma(n);
    for (std::size_t i = 0; i < n; ++i) {
      backlog[i] = demands[i].backlog;
      arrivals[i] = demands[i].arrivals;
      weight[i] = demands[i].weight;
      ewma[i] = demands[i].ewma_throughput;
    }
    const SchedulerInput input{backlog, arrivals, weight, ewma};

    ref::work_conserving(capacity, demands, want);
    wc.allocate(capacity, input, shares);
    ASSERT_EQ(shares, want) << "wc iter " << iter;

    ref::proportional_fair(capacity, demands, want);
    pf.allocate(capacity, input, shares);
    ASSERT_EQ(shares, want) << "pf iter " << iter;

    ref::weighted_priority(capacity, demands, want);
    wp.allocate(capacity, input, shares);
    ASSERT_EQ(shares, want) << "wp iter " << iter;

    // DRR is stateful (rotation cursor, lazy residue): drive one kernel and
    // one reference across all iterations, each advancing its cursor on
    // non-empty demand sets only.
    drr_ref.allocate(capacity, demands, want);
    drr.allocate(capacity, input, shares);
    ASSERT_EQ(shares, want) << "drr iter " << iter;
  }
}

// ----------------------------------------------------------- Admission ----

TEST(AdmissionTest, AcceptRejectBoundary) {
  const std::vector<int> candidates{3, 4, 5, 6};
  const double load = cheapest_load(candidates);
  ASSERT_GT(load, 0.0);

  // Room for exactly two sessions' cheapest-depth load.
  AdmissionConfig config;
  config.utilization_target = 1.0;
  AdmissionController admission(config, 2.5 * load);

  const auto first = admission.try_admit(shared_cache(), candidates);
  EXPECT_TRUE(first.admitted);
  EXPECT_NEAR(first.cheapest_load, load, 1e-9);
  EXPECT_GE(first.max_sustainable_depth, 3);
  const auto second = admission.try_admit(shared_cache(), candidates);
  EXPECT_TRUE(second.admitted);
  // Third would need 3x the load on a 2.5x link: rejected, and the
  // stability-region probe reports "not even the cheapest depth".
  const auto third = admission.try_admit(shared_cache(), candidates);
  EXPECT_FALSE(third.admitted);
  EXPECT_EQ(third.max_sustainable_depth, 2);
  // The refusal reserved nothing: only the two admitted loads are held.
  EXPECT_NEAR(admission.reserved_load(), 2.0 * load, 1e-9);

  // A departure frees the slot.
  admission.release(load);
  EXPECT_TRUE(admission.try_admit(shared_cache(), candidates).admitted);
}

TEST(AdmissionTest, DisabledAdmitsEverything) {
  AdmissionConfig config;
  config.enabled = false;
  AdmissionController admission(config, 1.0);  // capacity irrelevant
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(admission.try_admit(shared_cache(), {3, 4, 5}).admitted);
  }
  // Forced admits skip the load scan: nothing is reserved.
  EXPECT_EQ(admission.reserved_load(), 0.0);
}

// The per-attempt frame scans admission ran before FrameStatsCache
// precomputed its load curve, written out as the reference: the mean
// per-depth byte curve over [d_min, d_max], and the cheapest-depth load.
std::vector<double> frame_scan_curve(const FrameStatsCache& cache, int d_min,
                                     int d_max) {
  std::vector<double> mean_bytes(static_cast<std::size_t>(d_max) + 1, 0.0);
  for (std::size_t t = 0; t < cache.frame_count(); ++t) {
    const FrameWorkload& frame = cache.workload(t);
    for (int d = d_min; d <= d_max; ++d) {
      mean_bytes[static_cast<std::size_t>(d)] += frame.bytes(d);
    }
  }
  for (double& b : mean_bytes) b /= static_cast<double>(cache.frame_count());
  return mean_bytes;
}

double frame_scan_cheapest(const FrameStatsCache& cache, int d_min) {
  double sum = 0.0;
  for (std::size_t t = 0; t < cache.frame_count(); ++t) {
    sum += cache.workload(t).bytes(d_min);
  }
  return sum / static_cast<double>(cache.frame_count());
}

TEST(AdmissionTest, LoadCurveMatchesTheFrameScanBitForBit) {
  // Two caches (8 and 5 frames) and contiguous, non-contiguous and
  // full-depth candidate sets: the precomputed curve, cheapest_depth_load
  // and try_admit's decision all equal the frame scans exactly.
  const FrameStatsCache five(*open_test_subject(17), 8, 5);
  const std::vector<std::vector<int>> sets{
      {3, 4, 5, 6}, {2, 5, 7}, {1, 2, 3, 4, 5, 6, 7, 8}};
  for (const FrameStatsCache* cache : {&shared_cache(), &five}) {
    const std::vector<double>& curve = cache->mean_bytes_at_depth();
    ASSERT_EQ(curve.size(), 9U);
    for (const std::vector<int>& candidates : sets) {
      SCOPED_TRACE(::testing::PrintToString(candidates));
      const int d_min = candidates.front();
      const int d_max = candidates.back();
      const std::vector<double> ref = frame_scan_curve(*cache, d_min, d_max);
      const double lo = ref[static_cast<std::size_t>(d_min)];
      const double hi = ref[static_cast<std::size_t>(d_max)];
      for (int d = d_min; d <= d_max; ++d) {
        EXPECT_EQ(curve[static_cast<std::size_t>(d)],
                  ref[static_cast<std::size_t>(d)])
            << "depth " << d;
      }
      const double cheapest = frame_scan_cheapest(*cache, d_min);
      EXPECT_EQ(AdmissionController::cheapest_depth_load(*cache, candidates),
                cheapest);
      // Residuals below, between and above the curve's points: the decision
      // is the reference stability test on the reference curve.
      for (const double residual :
           {0.5 * lo, lo, 0.5 * (lo + hi), hi, 2.0 * hi}) {
        AdmissionConfig config;
        config.utilization_target = 1.0;
        AdmissionController admission(config, residual);
        const AdmissionDecision decision =
            admission.try_admit(*cache, candidates);
        const int want = max_sustainable_depth(ref, residual, d_min, d_max);
        EXPECT_EQ(decision.residual_capacity, residual);
        EXPECT_EQ(decision.max_sustainable_depth, want) << residual;
        EXPECT_EQ(decision.admitted, want >= d_min) << residual;
        EXPECT_EQ(decision.cheapest_load, cheapest);
        EXPECT_EQ(admission.reserved_load(), want >= d_min ? cheapest : 0.0);
      }
    }
  }
}

TEST(AdmissionTest, DecisionFlipsOneUlpBelowEachDepthsMean) {
  // A residual equal to depth d's mean load sustains d; one ulp less
  // sustains only d - 1, and at the cheapest depth that is a reject.
  const std::vector<int> candidates{3, 4, 5, 6};
  const std::vector<double>& curve = shared_cache().mean_bytes_at_depth();
  for (const int d : candidates) {
    const double mean = curve[static_cast<std::size_t>(d)];
    ASSERT_LT(curve[static_cast<std::size_t>(d) - 1], mean) << d;
    AdmissionConfig config;
    config.utilization_target = 1.0;
    AdmissionController at(config, mean);
    const AdmissionDecision fits = at.try_admit(shared_cache(), candidates);
    EXPECT_TRUE(fits.admitted) << d;
    EXPECT_EQ(fits.max_sustainable_depth, d);
    AdmissionController below(config, std::nextafter(mean, 0.0));
    const AdmissionDecision short_by_ulp =
        below.try_admit(shared_cache(), candidates);
    EXPECT_EQ(short_by_ulp.max_sustainable_depth, d - 1);
    EXPECT_EQ(short_by_ulp.admitted, d > candidates.front()) << d;
  }
}

TEST(AdmissionTest, CandidatesOutsideTheCacheDepthsThrow) {
  // The curve covers depths 0..octree_depth(); admission takes
  // [1, octree_depth()], SessionManager::validate_spec's rule, enabled or
  // not, and a refused call reserves nothing.
  ASSERT_EQ(shared_cache().octree_depth(), 8);
  AdmissionConfig disabled;
  disabled.enabled = false;
  for (const std::vector<int>& bad : std::vector<std::vector<int>>{
           {0, 3, 4}, {3, 4, 9}, {-1}, {42}}) {
    EXPECT_THROW(static_cast<void>(
                     AdmissionController::cheapest_depth_load(shared_cache(),
                                                              bad)),
                 std::invalid_argument);
    AdmissionController enabled(AdmissionConfig{}, 1e9);
    EXPECT_THROW(enabled.try_admit(shared_cache(), bad),
                 std::invalid_argument);
    EXPECT_EQ(enabled.reserved_load(), 0.0);
    AdmissionController forced(disabled, 1.0);
    EXPECT_THROW(forced.try_admit(shared_cache(), bad), std::invalid_argument);
  }
  AdmissionController edges(AdmissionConfig{}, 1e9);
  EXPECT_TRUE(edges.try_admit(shared_cache(), {1, 8}).admitted);
}

TEST(AdmissionTest, Validation) {
  AdmissionConfig config;
  EXPECT_THROW(AdmissionController(config, 0.0), std::invalid_argument);
  config.utilization_target = 1.5;
  EXPECT_THROW(AdmissionController(config, 100.0), std::invalid_argument);
  config.utilization_target = 0.9;
  AdmissionController admission(config, 1e9);
  EXPECT_THROW(admission.try_admit(shared_cache(), {}),
               std::invalid_argument);
}

// ------------------------------------------------------------ Executor ----

TEST(ParallelExecutorTest, RunsEveryIndexExactlyOnce) {
  ParallelExecutor executor(4);
  EXPECT_EQ(executor.threads(), 4U);
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h = 0;
  executor.parallel_for(257, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  // Reusable across jobs (the pool persists between calls).
  executor.parallel_for(257, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 2);
  executor.parallel_for(0, [&](std::size_t) { FAIL(); });
}

TEST(ParallelExecutorTest, PropagatesExceptions) {
  ParallelExecutor executor(3);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      executor.parallel_for(64,
                            [&](std::size_t i) {
                              ++ran;
                              if (i == 13) throw std::runtime_error("boom");
                            }),
      std::runtime_error);
  // The loop drains instead of abandoning indices mid-flight.
  EXPECT_EQ(ran.load(), 64);
  // The pool survives a throwing job.
  executor.parallel_for(8, [](std::size_t) {});

  // The serial (threads == 1) inline path honours the same drain contract,
  // so the error path is thread-count-invariant too.
  ParallelExecutor serial(1);
  ran = 0;
  EXPECT_THROW(
      serial.parallel_for(64,
                          [&](std::size_t i) {
                            ++ran;
                            if (i == 13) throw std::runtime_error("boom");
                          }),
      std::runtime_error);
  EXPECT_EQ(ran.load(), 64);
}

// ---------------------------------------------------------------- Churn ----

ServingConfig small_config() {
  ServingConfig config;
  config.steps = 120;
  config.candidates = {3, 4, 5, 6};
  config.v = calibrate_streaming_v(shared_cache(), config.candidates,
                                   4.0 * shared_cache().workload(0).bytes(5));
  config.admission.utilization_target = 1.0;
  return config;
}

// A one-link server is a K = 1 EdgeCluster.
ClusterConfig one_link(const ServingConfig& serving) {
  ClusterConfig config;
  config.serving = serving;
  return config;
}

ClusterResult run_one_link(const ServingConfig& serving,
                           const std::vector<SessionSpec>& specs,
                           ChannelModel& channel) {
  return run_cluster_scenario(one_link(serving), specs, {&channel});
}

TEST(SessionManagerTest, ChurnBookkeeping) {
  ServingConfig config = small_config();
  const double load = cheapest_load(config.candidates);
  // Fits two cheapest-depth sessions, not three.
  ConstantChannel channel(2.5 * load);
  EdgeCluster server(one_link(config), {channel.mean_capacity_bytes()});

  SessionSpec spec;
  spec.cache = &shared_cache();
  spec.departure_slot = 60;
  const std::size_t a = server.submit(spec);  // slots [0, 60)
  spec.arrival_slot = 20;
  spec.departure_slot = kNeverDeparts;
  const std::size_t b = server.submit(spec);  // slots [20, end)
  spec.arrival_slot = 30;
  const std::size_t c = server.submit(spec);  // rejected: link is full
  spec.arrival_slot = 80;
  const std::size_t d = server.submit(spec);  // admitted: a left at 60

  EXPECT_EQ(server.active_count(), 0U);
  for (std::size_t t = 0; t < config.steps; ++t) {
    server.step({channel.next_capacity_bytes()});
    if (t < 20) {
      EXPECT_EQ(server.active_count(), 1U) << t;
    } else if (t < 60) {
      EXPECT_EQ(server.active_count(), 2U) << t;
    } else if (t < 80) {
      EXPECT_EQ(server.active_count(), 1U) << t;
    } else {
      EXPECT_EQ(server.active_count(), 2U) << t;
    }
  }

  const ClusterResult result = server.finish();
  ASSERT_EQ(result.sessions.size(), 4U);
  EXPECT_TRUE(result.sessions[a].session.admitted);
  EXPECT_EQ(result.sessions[a].session.trace.size(), 60U);
  EXPECT_EQ(result.sessions[a].session.departure_slot, 60U);
  EXPECT_TRUE(result.sessions[b].session.admitted);
  EXPECT_EQ(result.sessions[b].session.trace.size(), 100U);
  EXPECT_EQ(result.sessions[b].session.departure_slot, 120U);
  EXPECT_FALSE(result.sessions[c].session.admitted);
  EXPECT_EQ(result.sessions[c].session.trace.size(), 0U);
  EXPECT_TRUE(result.sessions[d].session.admitted);
  EXPECT_EQ(result.sessions[d].session.trace.size(), 40U);

  const AdmissionStats& admission = result.metrics.per_link_admission[0];
  EXPECT_EQ(admission.attempts, 4U);
  EXPECT_EQ(admission.accepted, 3U);
  EXPECT_EQ(admission.rejected, 1U);
  EXPECT_EQ(result.metrics.fleet.sessions_admitted, 3U);
  EXPECT_EQ(result.metrics.fleet.sessions_rejected, 1U);
  EXPECT_EQ(result.metrics.fleet.peak_concurrency, 2U);
  EXPECT_EQ(result.session_table().row_count(), 4U);

  EXPECT_THROW(server.step({1.0}), std::logic_error);
  EXPECT_THROW(server.submit(spec), std::logic_error);
}

TEST(SessionManagerTest, Validation) {
  ServingConfig config = small_config();
  EdgeCluster server(one_link(config), {1e6});
  SessionSpec spec;
  EXPECT_THROW(server.submit(spec), std::invalid_argument);  // null cache
  spec.cache = &shared_cache();
  spec.arrival_slot = 10;
  spec.departure_slot = 10;
  EXPECT_THROW(server.submit(spec), std::invalid_argument);
  spec.departure_slot = 11;
  spec.weight = -1.0;
  EXPECT_THROW(server.submit(spec), std::invalid_argument);

  // A window that fully elapsed before submission can never stream a slot
  // inside its declared lifetime.
  SessionSpec elapsed;
  elapsed.cache = &shared_cache();
  elapsed.departure_slot = 3;
  for (int t = 0; t < 5; ++t) server.step({1e6});
  EXPECT_THROW(server.submit(elapsed), std::invalid_argument);
  // An elapsed *arrival* with a live departure is fine: it arrives now.
  elapsed.departure_slot = 100;
  EXPECT_NO_THROW(server.submit(elapsed));

  ServingConfig bad = config;
  bad.steps = 0;
  EXPECT_THROW(SessionManager(bad, 1e6), std::invalid_argument);
  bad = config;
  bad.candidates = {};
  EXPECT_THROW(SessionManager(bad, 1e6), std::invalid_argument);
  bad = config;
  bad.v = -1.0;  // the controller's V >= 0 contract, enforced at the door
  EXPECT_THROW(SessionManager(bad, 1e6), std::invalid_argument);
  bad = config;
  bad.candidates = {5, 4};  // must be strictly ascending
  EXPECT_THROW(SessionManager(bad, 1e6), std::invalid_argument);
  bad = config;
  bad.candidates = {42};
  EdgeCluster out_of_range(one_link(bad), {1e6});
  SessionSpec ok;
  ok.cache = &shared_cache();
  EXPECT_THROW(out_of_range.submit(ok), std::invalid_argument);
}

TEST(SessionManagerTest, LateSubmitArrivesAtSubmissionSlot) {
  ServingConfig config = small_config();
  ConstantChannel channel(1e6);
  EdgeCluster server(one_link(config), {channel.mean_capacity_bytes()});
  for (int t = 0; t < 10; ++t) server.step({channel.next_capacity_bytes()});

  // Declared arrival is in the past: the session arrives now, and the
  // reported window matches the trace exactly.
  SessionSpec spec;
  spec.cache = &shared_cache();
  spec.arrival_slot = 0;
  const std::size_t id = server.submit(spec);
  for (int t = 0; t < 20; ++t) server.step({channel.next_capacity_bytes()});

  const ClusterResult result = server.finish();
  EXPECT_EQ(result.sessions[id].session.arrival_slot, 10U);
  EXPECT_EQ(result.sessions[id].session.departure_slot, 30U);
  EXPECT_EQ(result.sessions[id].session.trace.size(), 20U);
}

TEST(SessionManagerTest, NeverArrivedSessionIsNeitherAdmittedNorRejected) {
  ServingConfig config = small_config();
  config.steps = 20;
  ConstantChannel channel(1e9);
  SessionSpec active;
  active.cache = &shared_cache();
  SessionSpec never;
  never.cache = &shared_cache();
  never.arrival_slot = 500;  // beyond the horizon

  const ClusterResult result = run_one_link(config, {active, never}, channel);
  // Admission never saw the future session, and the fleet counters agree.
  const AdmissionStats& admission = result.metrics.per_link_admission[0];
  EXPECT_EQ(admission.attempts, 1U);
  EXPECT_EQ(admission.rejected, 0U);
  EXPECT_EQ(result.metrics.fleet.sessions_submitted, 2U);
  EXPECT_EQ(result.metrics.fleet.sessions_admitted, 1U);
  EXPECT_EQ(result.metrics.fleet.sessions_rejected, 0U);
  // The report tells "never arrived" apart from a refusal.
  EXPECT_FALSE(result.sessions[1].arrived);
  const CsvTable table = result.session_table();
  EXPECT_EQ(std::get<std::string>(table.at(1, 2)), "never-arrived");
  EXPECT_EQ(std::get<std::string>(table.at(0, 2)), "yes");
}

TEST(SessionManagerTest, CapacityUsedEqualsBytesActuallyDrained) {
  // Queues serve only pre-existing backlog (Lindley: serve, then admit), so
  // the link must be charged min(Q(t), share) per session — the old
  // min(share, backlog + arrivals) counted undrainable same-slot arrivals
  // as used capacity and over-reported utilization.
  ServingConfig config = small_config();
  config.steps = 40;
  ConstantChannel channel(1e9);  // never the bottleneck
  std::vector<SessionSpec> specs(3);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].cache = &shared_cache();
  }
  const ClusterResult result = run_one_link(config, specs, channel);

  double drained = 0.0;       // what the queues actually served
  double old_accounting = 0.0;  // what the old code charged the link
  for (const ClusterSessionOutcome& s : result.sessions) {
    for (const StepRecord& r : s.session.trace.steps()) {
      drained += std::min(r.backlog_begin, r.service);
      old_accounting += std::min(r.service, r.backlog_begin + r.arrivals);
    }
  }
  EXPECT_DOUBLE_EQ(result.metrics.fleet.capacity_used, drained);
  // The over-report was real: with arrivals every slot the old accounting
  // strictly exceeds the drained bytes.
  EXPECT_GT(old_accounting, drained);
  EXPECT_LE(result.metrics.fleet.capacity_used,
            result.metrics.fleet.capacity_offered);
}

TEST(SessionManagerTest, ShortSessionGetsPartialSummary) {
  // A 3-slot session used to vanish from fleet quality aggregates and print
  // a "-" row; now it carries a partial summary with a "too-short" verdict.
  ServingConfig config = small_config();
  config.steps = 30;
  ConstantChannel channel(1e9);
  SessionSpec brief;
  brief.cache = &shared_cache();
  brief.arrival_slot = 0;
  brief.departure_slot = 3;
  SessionSpec full;
  full.cache = &shared_cache();
  // Records that end around a 13-step chunk boundary: one short of it,
  // exactly at it, one past it, and at the end of a second full chunk. A
  // record's chain starts at its head offset, which the store rotates per
  // activation (0, 1, 2, ... here), so each length is its end minus that.
  std::vector<SessionSpec> specs{brief, full};
  const std::size_t ends[] = {3, 31, 12, 13, 14, 26};
  std::size_t lengths[std::size(ends)];
  for (std::size_t k = 0; k < std::size(ends); ++k) {
    lengths[k] = ends[k] - k;
    if (k < 2) continue;
    specs.push_back(full);
    specs.back().departure_slot = lengths[k];
  }
  const ClusterResult result = run_one_link(config, specs, channel);

  const SessionOutcome& short_session = result.sessions[0].session;
  ASSERT_TRUE(short_session.admitted);
  ASSERT_EQ(short_session.trace.size(), 3U);
  ASSERT_TRUE(short_session.has_summary);
  EXPECT_TRUE(short_session.summary.partial);
  EXPECT_GT(short_session.summary.time_average_quality, 0.0);
  EXPECT_GE(short_session.summary.mean_depth, config.candidates.front());
  EXPECT_LE(short_session.summary.mean_depth, config.candidates.back());

  // Both sessions now count toward the fleet aggregates.
  EXPECT_EQ(result.metrics.fleet.partial_summary_sessions, 1U);
  EXPECT_GT(result.metrics.fleet.mean_quality, 0.0);
  EXPECT_GT(result.metrics.fleet.quality_fairness, 0.0);

  // The report row carries the means (avg_quality, column 7) and the
  // "too-short" verdict (column 10).
  const CsvTable table = result.session_table();
  EXPECT_EQ(std::get<std::string>(table.at(0, 10)), "too-short");
  EXPECT_TRUE(std::holds_alternative<double>(table.at(0, 7)));
  // The full-horizon session keeps a real verdict.
  EXPECT_NE(std::get<std::string>(table.at(1, 10)), "-");
  EXPECT_NE(std::get<std::string>(table.at(1, 10)), "too-short");

  // The chunked records decode from the profile, and summarizing them
  // directly is bit-identical to summarizing the decoded Trace — for the
  // partial 3-slot summary and every full one alike.
  ASSERT_EQ(result.sessions.size(), std::size(lengths));
  for (std::size_t k = 0; k < std::size(lengths); ++k) {
    const SessionOutcome& s = result.sessions[k].session;
    ASSERT_EQ(s.trace.size(), lengths[k]) << "session " << k;
    ASSERT_EQ(s.trace.first() + s.trace.size(), ends[k]) << "session " << k;
    const Trace decoded = s.trace.to_trace();
    EXPECT_TRUE(arvis_test::decodes_from_profile(
        decoded, shared_cache(), config.candidates, config.v, 0, 0.0,
        config.candidates.size()))
        << "session " << k;
    const TraceSummary want = decoded.summarize_partial();
    EXPECT_TRUE(
        arvis_test::summaries_bit_equal(s.trace.summarize_partial(), want));
    EXPECT_TRUE(arvis_test::summaries_bit_equal(s.summary, want));
  }
}

TEST(SessionManagerTest, OutOfOrderSubmissionsAdmitInArrivalOrder) {
  // The pending list admits by (arrival slot, id) regardless of submission
  // order — the latest-arriving session was submitted first, and the link
  // only fits two, so it is the one refused.
  ServingConfig config = small_config();
  const double load = cheapest_load(config.candidates);
  ConstantChannel channel(2.5 * load);
  EdgeCluster server(one_link(config), {channel.mean_capacity_bytes()});

  SessionSpec spec;
  spec.cache = &shared_cache();
  spec.arrival_slot = 30;
  const std::size_t last = server.submit(spec);
  spec.arrival_slot = 20;
  const std::size_t middle = server.submit(spec);
  spec.arrival_slot = 10;
  const std::size_t first = server.submit(spec);

  for (std::size_t t = 0; t < config.steps; ++t) {
    server.step({channel.next_capacity_bytes()});
  }
  const ClusterResult result = server.finish();
  EXPECT_TRUE(result.sessions[first].session.admitted);
  EXPECT_TRUE(result.sessions[middle].session.admitted);
  EXPECT_FALSE(result.sessions[last].session.admitted);
  EXPECT_EQ(result.sessions[last].session.arrival_slot, 30U);
  EXPECT_EQ(result.metrics.per_link_admission[0].attempts, 3U);
}

// -------------------------------------------------------- Determinism ----

std::vector<SessionSpec> churn_specs(std::size_t n) {
  std::vector<SessionSpec> specs(n);
  for (std::size_t i = 0; i < n; ++i) {
    specs[i].cache = &shared_cache();
    specs[i].arrival_slot = 5 * i;
    specs[i].departure_slot = (i % 3 == 0) ? 5 * i + 70 : kNeverDeparts;
    specs[i].weight = (i % 2 == 0) ? 1.0 : 2.0;
  }
  return specs;
}

TEST(ReplicationTest, ParallelReplicateMatchesSerialExactly) {
  const auto factory = [](std::uint64_t seed) {
    StreamingConfig config;
    config.steps = 64;
    config.candidates = {3, 4, 5, 6};
    LyapunovDepthController controller(calibrate_streaming_v(
        shared_cache(), config.candidates,
        3.0 * shared_cache().workload(0).bytes(4)));
    GilbertElliottChannel channel(shared_cache().workload(0).bytes(4) * 1.3,
                                  0.4, 0.1, 0.3, Rng(seed));
    return run_streaming_session(config, shared_cache(), controller, channel);
  };

  const ReplicationSummary serial = replicate(10, factory, 1);
  const ReplicationSummary parallel = replicate(10, factory, 4);
  EXPECT_EQ(serial.replicates, parallel.replicates);
  EXPECT_EQ(serial.quality.mean, parallel.quality.mean);
  EXPECT_EQ(serial.quality.ci_half_width, parallel.quality.ci_half_width);
  EXPECT_EQ(serial.backlog.mean, parallel.backlog.mean);
  EXPECT_EQ(serial.backlog.min, parallel.backlog.min);
  EXPECT_EQ(serial.backlog.max, parallel.backlog.max);
  EXPECT_EQ(serial.mean_depth.mean, parallel.mean_depth.mean);
  EXPECT_EQ(serial.divergent_count, parallel.divergent_count);
}

TEST(SessionManagerTest, PfEwmaWindowValidationAndEffect) {
  ServingConfig config = small_config();
  config.policy = SchedulerPolicy::kProportionalFair;
  config.pf_ewma_window = -1.0;
  EXPECT_THROW(SessionManager(config, 1e6), std::invalid_argument);
  config.pf_ewma_window = 0.5;  // alpha would exceed 1
  EXPECT_THROW(SessionManager(config, 1e6), std::invalid_argument);

  // The knob changes real allocations: under contention, true PF serves the
  // fleet differently from the instantaneous-demand split.
  const auto run_with_window = [&](double window) {
    ServingConfig c = small_config();
    c.steps = 200;
    c.policy = SchedulerPolicy::kProportionalFair;
    c.pf_ewma_window = window;
    std::vector<SessionSpec> specs(3);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      specs[i].cache = &shared_cache();
      specs[i].weight = i == 0 ? 2.0 : 1.0;
    }
    // Scarce link: queues stay backlogged, so the scheduler's choices bite.
    ConstantChannel channel(2.0 * shared_cache().workload(0).bytes(3));
    return run_one_link(c, specs, channel);
  };
  const ClusterResult legacy = run_with_window(0.0);
  const ClusterResult true_pf = run_with_window(32.0);
  ASSERT_EQ(legacy.sessions.size(), true_pf.sessions.size());
  bool any_service_differs = false;
  for (std::size_t i = 0; i < legacy.sessions.size(); ++i) {
    const Trace a = legacy.sessions[i].session.trace.to_trace();
    const Trace b = true_pf.sessions[i].session.trace.to_trace();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t t = 0; t < a.size(); ++t) {
      if (a.at(t).service != b.at(t).service) any_service_differs = true;
    }
  }
  EXPECT_TRUE(any_service_differs);
  // Same capacity offered either way — the knob moves bytes between
  // sessions, it does not mint or lose any.
  EXPECT_EQ(legacy.metrics.fleet.capacity_offered,
            true_pf.metrics.fleet.capacity_offered);
}

// ------------------------------------------------- Serving end-to-end ----

TEST(ServingScenarioTest, EventLoopWrapperMatchesHandRolledFixedHorizonLoop) {
  // run_cluster_scenario is a thin wrapper over the event-driven EventLoop
  // (dense mode + stop event). It must reproduce a hand-rolled
  // fixed-horizon EdgeCluster::step loop bit for bit — same submit order,
  // one step per slot, same capacity draws.
  ServingConfig config = small_config();
  config.steps = 150;
  config.policy = SchedulerPolicy::kProportionalFair;
  const auto specs = churn_specs(9);
  const double capacity = 6.0 * shared_cache().workload(0).bytes(4);

  // The reference: the loop run_cluster_scenario stands for.
  GilbertElliottChannel hand_channel(capacity, 0.4, 0.1, 0.3, Rng(23));
  EdgeCluster server(one_link(config), {hand_channel.mean_capacity_bytes()});
  for (const SessionSpec& spec : specs) server.submit(spec);
  for (std::size_t t = 0; t < config.steps; ++t) {
    server.step({hand_channel.next_capacity_bytes()});
  }
  const ClusterResult hand = server.finish();

  GilbertElliottChannel loop_channel(capacity, 0.4, 0.1, 0.3, Rng(23));
  const ClusterResult looped = run_one_link(config, specs, loop_channel);

  ASSERT_EQ(hand.sessions.size(), looped.sessions.size());
  for (std::size_t i = 0; i < hand.sessions.size(); ++i) {
    const SessionOutcome& a = hand.sessions[i].session;
    const SessionOutcome& b = looped.sessions[i].session;
    EXPECT_EQ(a.admitted, b.admitted);
    EXPECT_EQ(a.arrival_slot, b.arrival_slot);
    EXPECT_EQ(a.departure_slot, b.departure_slot);
    const Trace ta = a.trace.to_trace();
    const Trace tb = b.trace.to_trace();
    ASSERT_EQ(ta.size(), tb.size()) << "session " << i;
    for (std::size_t t = 0; t < ta.size(); ++t) {
      EXPECT_EQ(ta.at(t).depth, tb.at(t).depth);
      EXPECT_EQ(ta.at(t).arrivals, tb.at(t).arrivals);
      EXPECT_EQ(ta.at(t).service, tb.at(t).service);
      EXPECT_EQ(ta.at(t).backlog_begin, tb.at(t).backlog_begin);
      EXPECT_EQ(ta.at(t).backlog_end, tb.at(t).backlog_end);
      EXPECT_EQ(ta.at(t).quality, tb.at(t).quality);
    }
  }
  const AdmissionStats& ha = hand.metrics.per_link_admission[0];
  const AdmissionStats& la = looped.metrics.per_link_admission[0];
  EXPECT_EQ(ha.attempts, la.attempts);
  EXPECT_EQ(ha.accepted, la.accepted);
  EXPECT_EQ(ha.rejected, la.rejected);
  const FleetMetrics& hf = hand.metrics.fleet;
  const FleetMetrics& lf = looped.metrics.fleet;
  EXPECT_EQ(hf.capacity_offered, lf.capacity_offered);
  EXPECT_EQ(hf.capacity_used, lf.capacity_used);
  EXPECT_EQ(hf.quality_fairness, lf.quality_fairness);
  EXPECT_EQ(hf.total_time_average_backlog, lf.total_time_average_backlog);
  EXPECT_EQ(hf.peak_concurrency, lf.peak_concurrency);
}

// -------------------------------------------------------- Session store ----

const FrameStatsCache& alt_cache() {
  // A sparser, coarser subject than shared_cache(): its deepest candidate
  // gains far less quality per byte, so a session deciding on the other
  // table decides differently.
  SyntheticBodyParams params;
  params.sample_count = 4'000;
  params.voxel_bits = 6;
  static const SyntheticSequence source("sparse", params, 8, 8, 72);
  static const FrameStatsCache cache(source, 8, 8);
  return cache;
}

TEST(SessionStoreTest, ValidatePassesThroughLifecycle) {
  const ServingConfig config = small_config();
  SessionStore store(config.candidates, config.v);
  EXPECT_TRUE(store.validate().ok());

  SessionSpec spec;
  spec.cache = &shared_cache();
  for (std::size_t id = 0; id < 6; ++id) {
    spec.departure_slot = (id % 2 == 0) ? 4 : kNeverDeparts;
    spec.weight = (id % 3 == 0) ? 2.0 : 1.0;
    ServingSession& s = store.create(id, spec);
    s.phase = SessionPhase::kActive;
    store.activate(s, 0);
  }
  EXPECT_TRUE(store.validate().ok()) << store.validate().to_string();

  for (std::size_t t = 0; t < 8; ++t) {
    store.retire_departed(t, [](ServingSession& s) {
      s.phase = SessionPhase::kClosed;
    });
    store.decide_all();
    for (std::size_t i = 0; i < store.active_count(); ++i) {
      store.drain(i, 500.0, 0.25);
    }
    const Status ok = store.validate();
    EXPECT_TRUE(ok.ok()) << "slot " << t << ": " << ok.to_string();
  }
  EXPECT_EQ(store.active_count(), 3U);  // the even ids departed at slot 4
}

TEST(SessionStoreTest, ValidateDetectsSlabMirrorDivergence) {
  const ServingConfig config = small_config();
  SessionStore store(config.candidates, config.v);
  SessionSpec spec;
  spec.cache = &shared_cache();
  ServingSession& s = store.create(0, spec);
  s.phase = SessionPhase::kActive;
  store.activate(s, 0);
  ASSERT_TRUE(store.validate().ok());

  // A spec mutated behind the store's back must be caught: the weight and
  // departure mirrors are bit-compared against the cold slab.
  s.spec.weight = 3.0;
  EXPECT_EQ(store.validate().code(), StatusCode::kFailedPrecondition);
  s.spec.weight = 1.0;
  ASSERT_TRUE(store.validate().ok());

  s.spec.departure_slot = 7;  // without set_departure()
  EXPECT_EQ(store.validate().code(), StatusCode::kFailedPrecondition);
  store.set_departure(0, 7);  // the sanctioned mutation path repairs it
  EXPECT_TRUE(store.validate().ok());

  s.phase = SessionPhase::kClosed;  // active slot pointing at a closed record
  EXPECT_EQ(store.validate().code(), StatusCode::kFailedPrecondition);
  s.phase = SessionPhase::kActive;
  EXPECT_TRUE(store.validate().ok());
}

TEST(SessionStoreTest, ValidateDetectsAChunkTaggedForAnotherRecord) {
  // finish() attributes every chunk to a record by its tag alone, so a
  // chunk on a live record's chain that names another slab position is a
  // broken store.
  const ServingConfig config = small_config();
  SessionStore store(config.candidates, config.v);
  SessionSpec spec;
  spec.cache = &shared_cache();
  for (std::size_t id = 0; id < 2; ++id) {
    ServingSession& s = store.create(id, spec);
    s.phase = SessionPhase::kActive;
    store.activate(s, 0);
  }
  for (std::size_t t = 0; t < 3 * kStepsPerChunk; ++t) {
    store.decide_all();
    for (std::size_t i = 0; i < store.active_count(); ++i) {
      store.drain(i, 500.0, 0.0);
    }
  }
  ASSERT_TRUE(store.validate().ok()) << store.validate().to_string();
  auto* linked = const_cast<StepChunk*>(store.session(1).trace.head()->next);
  ASSERT_NE(linked, nullptr);
  ASSERT_EQ(linked->tag(), 1U);
  linked->set_tag(0);
  EXPECT_EQ(store.validate().code(), StatusCode::kFailedPrecondition);
  linked->set_tag(1);
  EXPECT_TRUE(store.validate().ok());
}

TEST(SessionStoreTest, RetiresFirstLastAdjacentAndScatteredIndices) {
  // Twelve sessions with distinct backlogs. One retirement takes the first,
  // two adjacent, a scattered and the last index: the store closes them in
  // index order and the survivors keep their order and their hot state.
  // Then retire_at takes one from the middle and the departure sweep the
  // new first and last.
  const ServingConfig config = small_config();
  SessionStore store(config.candidates, config.v);
  SessionSpec spec;
  spec.cache = &shared_cache();
  constexpr std::size_t kSessions = 12;
  for (std::size_t id = 0; id < kSessions; ++id) {
    ServingSession& s = store.create(id, spec);
    s.phase = SessionPhase::kActive;
    store.activate(s, 0);
  }
  for (std::size_t t = 0; t < 3; ++t) {
    store.decide_all();
    for (std::size_t i = 0; i < kSessions; ++i) {
      store.drain(i, 100.0 * static_cast<double>(i), 0.5);
    }
  }
  std::vector<double> backlog_of(kSessions);
  std::vector<double> ewma_of(kSessions);
  for (std::size_t i = 0; i < kSessions; ++i) {
    backlog_of[i] = store.backlogs()[i];
    ewma_of[i] = store.ewma_throughput()[i];
  }
  const auto ids = [&store] {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < store.active_count(); ++i) {
      out.push_back(store.active_session(i).id);
    }
    return out;
  };
  const auto expect_hot_state_followed = [&] {
    for (std::size_t i = 0; i < store.active_count(); ++i) {
      const std::size_t id = store.active_session(i).id;
      EXPECT_EQ(store.backlogs()[i], backlog_of[id]) << "session " << id;
      EXPECT_EQ(store.ewma_throughput()[i], ewma_of[id]) << "session " << id;
      EXPECT_EQ(store.weights()[i], 1.0) << "session " << id;
    }
    const Status ok = store.validate();
    EXPECT_TRUE(ok.ok()) << ok.to_string();
  };

  std::vector<std::size_t> closed;
  const auto close = [&closed](ServingSession& s) {
    s.phase = SessionPhase::kClosed;
    closed.push_back(s.id);
  };
  store.retire_active(
      [](const ServingSession& s) {
        return s.id == 0 || s.id == 3 || s.id == 4 || s.id == 8 ||
               s.id == 11;
      },
      close);
  EXPECT_EQ(closed, (std::vector<std::size_t>{0, 3, 4, 8, 11}));
  EXPECT_EQ(ids(), (std::vector<std::size_t>{1, 2, 5, 6, 7, 9, 10}));
  expect_hot_state_followed();

  store.retire_at(3, close);  // session 6
  EXPECT_EQ(closed.back(), 6U);
  EXPECT_EQ(ids(), (std::vector<std::size_t>{1, 2, 5, 7, 9, 10}));
  expect_hot_state_followed();

  store.set_departure(0, 3);  // session 1
  store.set_departure(5, 3);  // session 10
  closed.clear();
  store.retire_departed(3, close);
  EXPECT_EQ(closed, (std::vector<std::size_t>{1, 10}));
  EXPECT_EQ(ids(), (std::vector<std::size_t>{2, 5, 7, 9}));
  expect_hot_state_followed();

  // Every retired record is sealed at its three steps.
  for (std::size_t pos = 0; pos < kSessions; ++pos) {
    const ServingSession& s = store.session(pos);
    EXPECT_EQ(s.trace.size(), s.phase == SessionPhase::kClosed ? 3U : 0U)
        << "session " << pos;
  }
}

TEST(SessionStoreTest, HeadRotationRestartsEachSlot) {
  // Activations in one slot start their records at consecutive indices of
  // their head chunks; the first activation of a later slot starts at 0.
  const ServingConfig config = small_config();
  SessionStore store(config.candidates, config.v);
  SessionSpec spec;
  spec.cache = &shared_cache();
  std::size_t id = 0;
  const auto first_index_at = [&](std::size_t slot) {
    ServingSession& s = store.create(id++, spec);
    s.phase = SessionPhase::kActive;
    store.activate(s, slot);
    return s.trace.first();
  };
  EXPECT_EQ(first_index_at(0), 0U);
  EXPECT_EQ(first_index_at(0), 1U);
  EXPECT_EQ(first_index_at(0), 2U);
  EXPECT_EQ(first_index_at(5), 0U);
  EXPECT_EQ(first_index_at(9), 0U);
  EXPECT_EQ(first_index_at(9), 1U);
  for (std::size_t k = 2; k < kStepsPerChunk; ++k) first_index_at(9);
  EXPECT_EQ(first_index_at(9), 0U);  // the rotation wraps within a slot
  EXPECT_TRUE(store.validate().ok()) << store.validate().to_string();
}

TEST(SessionStoreTest, ReleasedSegmentsRecycleChunksAndSlots) {
  // A released segment's chunks and slab position are the next ones the
  // store hands out; validate() catches a free chunk on a record's chain
  // and a released record that is not on the slot free list.
  const ServingConfig config = small_config();
  SessionStore store(config.candidates, config.v);
  SessionSpec spec;
  spec.cache = &shared_cache();
  for (std::size_t id = 0; id < 3; ++id) {
    ServingSession& s = store.create(id, spec);
    s.phase = SessionPhase::kActive;
    store.activate(s, 0);
  }
  const auto stream = [&store](std::size_t slots) {
    for (std::size_t t = 0; t < slots; ++t) {
      store.decide_all();
      for (std::size_t i = 0; i < store.active_count(); ++i) {
        store.drain(i, 400.0, 0.0);
      }
    }
  };
  stream(2 * kStepsPerChunk);
  store.retire_active([](const ServingSession& s) { return s.id == 1; },
                      [](ServingSession& s) { s.phase = SessionPhase::kClosed; });
  // Session 1 started at index 1 of its head and recorded 26 steps: three
  // chunks, the last one filled up to index 0.
  const std::size_t bumped = store.arena().bumped();
  ASSERT_EQ(bumped, 9U);
  std::vector<const StepChunk*> released;
  for (const StepChunk* c = store.session(1).trace.head(); c != nullptr;
       c = c->next) {
    released.push_back(c);
  }
  ASSERT_EQ(released.size(), 3U);
  store.release(1);
  EXPECT_EQ(store.free_slots(), 1U);
  EXPECT_EQ(store.arena().free_chunks(), 3U);
  EXPECT_TRUE(store.validate().ok()) << store.validate().to_string();

  ServingSession& fresh = store.create(7, spec);
  EXPECT_EQ(store.newest(), 1U);
  EXPECT_EQ(&fresh, &store.session(1));
  EXPECT_EQ(store.free_slots(), 0U);
  fresh.phase = SessionPhase::kActive;
  store.activate(fresh, 30);
  EXPECT_EQ(fresh.trace.head(), released.front());
  EXPECT_EQ(fresh.trace.head()->tag(), 1U);
  stream(2 * kStepsPerChunk);
  // The fresh head and six more chunks (two per record): the first three
  // came off the free list, the other four from the arena's bump.
  EXPECT_EQ(store.arena().recycled(), 3U);
  EXPECT_EQ(store.arena().free_chunks(), 0U);
  EXPECT_EQ(store.arena().bumped(), bumped + 4);
  std::vector<const StepChunk*> live;
  for (std::size_t pos = 0; pos < 3; ++pos) {
    for (const StepChunk* c = store.session(pos).trace.head(); c != nullptr;
         c = c->next) {
      EXPECT_EQ(c->tag(), pos);
      live.push_back(c);
    }
  }
  for (const StepChunk* c : released) {
    EXPECT_NE(std::find(live.begin(), live.end(), c), live.end());
  }
  EXPECT_TRUE(store.validate().ok()) << store.validate().to_string();
  EXPECT_EQ(store.placement_order(), (std::vector<std::uint32_t>{0, 2, 1}));

  // A chunk on the free list that a live record still links is caught.
  store.retire_active([](const ServingSession& s) { return s.id == 2; },
                      [](ServingSession& s) { s.phase = SessionPhase::kClosed; });
  const StepChunk* last = store.session(2).trace.head();
  while (last->next != nullptr) last = last->next;
  auto& arena = const_cast<StepArena&>(store.arena());
  arena.release(const_cast<StepChunk*>(last), 1);
  EXPECT_EQ(store.validate().code(), StatusCode::kFailedPrecondition);
}

TEST(StepArenaTest, BlocksReturnEveryChunkInAllocationOrderWithItsTag) {
  // Three blocks come from a destroyed arena's free list (newest first)
  // and a fourth from the heap, so the chunks' addresses do not ascend in
  // allocation order. Tags use all three bytes.
  StepArena::release_free_blocks();
  {
    StepArena donor;
    for (std::size_t i = 0; i < 2 * StepArena::kChunksPerBlock + 1; ++i) {
      static_cast<void>(donor.alloc(0));
    }
  }
  StepArena arena;
  EXPECT_TRUE(arena.blocks().empty());
  const auto tag_of = [](std::size_t i) {
    return static_cast<std::uint32_t>((i * 2654435761U) % kSegmentTagLimit);
  };
  std::vector<const StepChunk*> handed;
  const std::size_t n = 3 * StepArena::kChunksPerBlock + 5;
  for (std::size_t i = 0; i < n; ++i) {
    StepChunk* chunk = arena.alloc(tag_of(i));
    EXPECT_EQ(chunk->next, nullptr);
    // Every third chunk holds a step; the rest hold none.
    if (i % 3 == 0) chunk->service[0] = static_cast<double>(i);
    handed.push_back(chunk);
  }
  StepChunk* last = arena.alloc(kSegmentTagLimit - 1);
  handed.push_back(last);

  const std::vector<std::span<const StepChunk>> blocks = arena.blocks();
  ASSERT_EQ(blocks.size(), 4U);
  EXPECT_EQ(blocks.back().size(), 6U);
  std::vector<const StepChunk*> walked;
  for (const std::span<const StepChunk> block : blocks) {
    for (const StepChunk& chunk : block) walked.push_back(&chunk);
  }
  ASSERT_EQ(walked, handed);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(walked[i]->tag(), tag_of(i)) << "chunk " << i;
    if (i % 3 == 0) {
      ASSERT_EQ(walked[i]->service[0], static_cast<double>(i));
    }
  }
  EXPECT_EQ(walked.back()->tag(), kSegmentTagLimit - 1);
  EXPECT_FALSE(std::is_sorted(handed.begin(), handed.end(),
                              std::less<const StepChunk*>()))
      << "the recycled blocks should not ascend in memory";
}

TEST(SessionStoreTest, ReinterningTablesMidRunDecodesFromProfile) {
  // Sessions on two tables whose decide inputs collide exactly — fresh
  // activations all start at row 0 with backlog 0 — plus a table retired
  // from use and re-interned mid-run, over mixed QoS tiers with a mid-run
  // brownout ceiling. Every sealed record is checked against its own
  // session's profile (decode_oracle.hpp), so a kernel that reads another
  // session's table or ignores the ceiling fails here; validate() runs
  // every slot, so a re-intern that minted a second table for a cache
  // fails too.
  const ServingConfig config = small_config();
  SessionStore store(config.candidates, config.v);
  constexpr std::size_t kSplit = 12;  // the slot the ceilings take effect
  constexpr std::size_t kEnd = 20;    // every survivor retires here

  std::size_t next_id = 0;
  std::vector<std::size_t> activated;  // per session: its activation slot
  const auto spawn = [&](const FrameStatsCache& cache, std::size_t count,
                         std::size_t slot, std::size_t departure) {
    SessionSpec spec;
    spec.cache = &cache;
    spec.departure_slot = departure;
    for (std::size_t k = 0; k < count; ++k, ++next_id) {
      spec.qos = static_cast<std::uint8_t>(next_id % kSloTiers);
      ServingSession& s = store.create(next_id, spec);
      s.phase = SessionPhase::kActive;
      store.activate(s, slot);
      activated.push_back(slot);
    }
  };
  const auto step = [&](std::size_t t) {
    store.retire_departed(
        t, [](ServingSession& s) { s.phase = SessionPhase::kClosed; });
    store.decide_all();
    for (std::size_t i = 0; i < store.active_count(); ++i) {
      store.drain(i, 700.0, 0.0);
    }
    const Status ok = store.validate();
    ASSERT_TRUE(ok.ok()) << "slot " << t << ": " << ok.to_string();
  };

  spawn(shared_cache(), 3, 0, 4);           // cohort A: table 0, departs at 4
  spawn(alt_cache(), 3, 0, kNeverDeparts);  // cohort B: table 1, same row/backlog
  for (std::size_t t = 0; t < 4; ++t) step(t);
  // Cohort A is gone; re-intern its table mid-run (must find table 0, not
  // mint a duplicate) alongside more sessions on table 1.
  spawn(shared_cache(), 2, 4, kNeverDeparts);
  spawn(alt_cache(), 2, 4, kNeverDeparts);
  for (std::size_t t = 4; t < kSplit; ++t) step(t);
  // Brownout ceilings ({1, 2, width - 1} for tiers 0..2) bind the sessions
  // already active from this slot on, and a fresh cohort activates under
  // them.
  const std::size_t width = config.candidates.size();
  const std::vector<std::uint32_t> limits{
      1, 2, static_cast<std::uint32_t>(width - 1)};
  store.set_tier_limits(limits);
  spawn(shared_cache(), 3, kSplit, kNeverDeparts);
  spawn(alt_cache(), 3, kSplit, kNeverDeparts);
  for (std::size_t t = kSplit; t < kEnd; ++t) step(t);

  // A record is sealed when its session retires.
  store.retire_active(
      [](const ServingSession&) { return true; },
      [](ServingSession& s) { s.phase = SessionPhase::kClosed; });
  ASSERT_EQ(store.session_count(), activated.size());
  for (std::size_t pos = 0; pos < store.session_count(); ++pos) {
    const ServingSession& s = store.session(pos);
    const Trace trace = s.trace.to_trace();
    const std::size_t end = std::min(s.spec.departure_slot, kEnd);
    ASSERT_EQ(trace.size(), end - activated[pos]) << "session " << pos;
    ASSERT_GT(trace.size(), 0U);
    const std::size_t limit = limits[s.spec.qos];
    // Full width before the split, the tier's ceiling from it on. The
    // second part opens at the frame and backlog the first one reached.
    const std::size_t before =
        activated[pos] >= kSplit ? 0 : std::min(end, kSplit) - activated[pos];
    Trace head, tail;
    for (std::size_t k = 0; k < trace.size(); ++k) {
      (k < before ? head : tail).add(trace.at(k));
    }
    EXPECT_TRUE(arvis_test::decodes_from_profile(
        head, *s.spec.cache, config.candidates, config.v, 0, 0.0, width))
        << "session " << pos;
    if (tail.empty()) continue;
    const double tail_backlog = tail.at(0).backlog_begin;
    if (before > 0) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(tail_backlog),
                std::bit_cast<std::uint64_t>(head.at(before - 1).backlog_end));
    }
    EXPECT_TRUE(arvis_test::decodes_from_profile(
        tail, *s.spec.cache, config.candidates, config.v, before,
        tail_backlog, limit))
        << "session " << pos;
  }
}

TEST(ServingScenarioTest, AdmissionKeepsFleetStable) {
  // Twice as many sessions as the link's stability region fits; admission
  // must turn the overflow away and every admitted session must stay
  // non-divergent.
  ServingConfig config = small_config();
  config.steps = 400;
  const double load = cheapest_load(config.candidates);
  ConstantChannel channel(4.2 * load);
  std::vector<SessionSpec> specs(8);
  for (auto& spec : specs) spec.cache = &shared_cache();

  const ClusterResult result = run_one_link(config, specs, channel);
  EXPECT_EQ(result.metrics.per_link_admission[0].accepted, 4U);
  EXPECT_EQ(result.metrics.per_link_admission[0].rejected, 4U);
  EXPECT_EQ(result.metrics.fleet.divergent_sessions, 0U);
  EXPECT_GT(result.metrics.fleet.quality_fairness, 0.99);
  EXPECT_GT(result.metrics.fleet.utilization(), 0.5);
}

}  // namespace
}  // namespace arvis

// Tests for the observability layer (serving/telemetry + common/check):
// SLO window math (blip vs breach over fast/slow windows, cumulative-counter
// deltas, worst-over-window gauges, per-tier isolation, empty-denominator
// semantics), flight-recorder ring wraparound, black-box JSON parse-back,
// Prometheus text export structure, the DCHECK-failure black-box dump
// (death test), and an end-to-end replay under deliberately tight SLOs
// producing report entries, counters, an auto-dumped black box and a
// live-stats file.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "common/check.hpp"
#include "common/csv.hpp"
#include "datasets/catalog.hpp"
#include "net/channel.hpp"
#include "net/streaming.hpp"
#include "serving/admission.hpp"
#include "serving/driver/replay.hpp"
#include "serving/driver/trace.hpp"
#include "serving/telemetry/export.hpp"
#include "serving/telemetry/flight_recorder.hpp"
#include "serving/telemetry/registry.hpp"
#include "serving/telemetry/slo.hpp"

namespace arvis {
namespace {

// ------------------------------------------------------ SLO validation ----

SloConfig one_spec(SloMetric metric, double threshold, int tier = -1) {
  SloConfig config;
  config.specs = {{"spec", metric, threshold, tier}};
  return config;
}

TEST(SloValidationTest, RejectsMalformedConfigs) {
  SloConfig config = one_spec(SloMetric::kAcceptRatio, 0.9);
  validate_slo(config, "test");  // baseline is fine

  SloConfig unnamed = config;
  unnamed.specs[0].name.clear();
  EXPECT_THROW(validate_slo(unnamed, "test"), std::invalid_argument);

  SloConfig negative = config;
  negative.specs[0].threshold = -0.1;
  EXPECT_THROW(validate_slo(negative, "test"), std::invalid_argument);

  SloConfig tier_high = config;
  tier_high.specs[0].tier = static_cast<int>(kSloTiers);
  EXPECT_THROW(validate_slo(tier_high, "test"), std::invalid_argument);
  SloConfig tier_low = config;
  tier_low.specs[0].tier = -2;
  EXPECT_THROW(validate_slo(tier_low, "test"), std::invalid_argument);

  SloConfig no_fast = config;
  no_fast.windows.fast = 0;
  EXPECT_THROW(validate_slo(no_fast, "test"), std::invalid_argument);
  SloConfig inverted = config;
  inverted.windows = {4, 2};  // slow < fast
  EXPECT_THROW(validate_slo(inverted, "test"), std::invalid_argument);

  // The monitor validates on construction too.
  EXPECT_THROW(SloMonitor{unnamed}, std::invalid_argument);
}

// ----------------------------------------------------- SLO window math ----

/// An observation carrying only total-tier admission counters (cumulative).
SloObservation admission_obs(std::size_t slot, std::uint64_t accepted,
                             std::uint64_t rejected) {
  SloObservation obs;
  obs.slot = slot;
  obs.total.accepted = accepted;
  obs.total.rejected = rejected;
  return obs;
}

TEST(SloMonitorTest, AcceptRatioWalksOkBlipBreachAndRecovers) {
  SloConfig config = one_spec(SloMetric::kAcceptRatio, 0.9);
  config.specs[0].name = "accept";
  config.windows = {/*fast=*/2, /*slow=*/4};
  SloMonitor monitor(config);

  // Five clean snapshots: ratio 1.0 everywhere, no transitions.
  std::uint64_t accepted = 0;
  for (std::size_t s = 1; s <= 5; ++s) {
    accepted += 10;
    EXPECT_TRUE(monitor.observe(admission_obs(60 * s, accepted, 0)).empty());
    EXPECT_EQ(monitor.state(0), SloState::kOk);
  }

  // A small burst of rejects: the fast window (11 accepted, 2 rejected ->
  // 0.846) violates, the slow window (31/33 -> 0.939) absorbs it: blip.
  auto t = monitor.observe(admission_obs(360, 51, 2));
  ASSERT_EQ(t.size(), 1U);
  EXPECT_EQ(t[0].from, SloState::kOk);
  EXPECT_EQ(t[0].to, SloState::kBlip);
  EXPECT_EQ(t[0].slot, 360U);
  EXPECT_NEAR(t[0].fast_value, 11.0 / 13.0, 1e-12);
  EXPECT_NEAR(t[0].slow_value, 31.0 / 33.0, 1e-12);
  EXPECT_EQ(t[0].threshold, 0.9);

  // Still inside the blip (fast 1/3, slow 21/23): state holds, no
  // transition recorded.
  EXPECT_TRUE(monitor.observe(admission_obs(420, 51, 2)).empty());
  EXPECT_EQ(monitor.state(0), SloState::kBlip);

  // The rejects keep coming until the slow window violates too (fast 0/8,
  // slow 11/21): sustained degradation, blip escalates to breach.
  t = monitor.observe(admission_obs(480, 51, 10));
  ASSERT_EQ(t.size(), 1U);
  EXPECT_EQ(t[0].from, SloState::kBlip);
  EXPECT_EQ(t[0].to, SloState::kBreach);
  EXPECT_NEAR(t[0].fast_value, 0.0, 1e-12);
  EXPECT_NEAR(t[0].slow_value, 11.0 / 21.0, 1e-12);

  // A flood of accepts clears both windows at once: straight back to ok.
  t = monitor.observe(admission_obs(540, 151, 10));
  ASSERT_EQ(t.size(), 1U);
  EXPECT_EQ(t[0].from, SloState::kBreach);
  EXPECT_EQ(t[0].to, SloState::kOk);

  // No new traffic at all: an empty denominator passes (ratio 1.0), it is
  // not a violation.
  EXPECT_TRUE(monitor.observe(admission_obs(600, 151, 10)).empty());
  EXPECT_EQ(monitor.state(0), SloState::kOk);

  EXPECT_EQ(monitor.breach_count(), 1U);
  EXPECT_EQ(monitor.blip_count(), 1U);
  EXPECT_EQ(monitor.transitions().size(), 3U);

  // The transition table renders one row per transition.
  const CsvTable table =
      slo_transitions_table(config.specs, monitor.transitions());
  ASSERT_EQ(table.row_count(), 3U);
  EXPECT_EQ(std::get<std::string>(table.at(0, 1)), "accept");
  EXPECT_EQ(std::get<std::string>(table.at(0, 3)), "blip");
  EXPECT_EQ(std::get<std::string>(table.at(1, 3)), "breach");
  EXPECT_EQ(std::get<std::string>(table.at(2, 3)), "ok");
}

TEST(SloMonitorTest, GaugeTakesWorstOverWindowAndStartupBreachesDirectly) {
  SloConfig config = one_spec(SloMetric::kP95QueueDelay, 5.0);
  config.windows = {/*fast=*/1, /*slow=*/3};
  SloMonitor monitor(config);

  // First snapshot already over the ceiling: both windows see the same
  // single observation, so the spec goes straight to breach — exactly what
  // a smoke test with a deliberately tight SLO wants.
  SloObservation obs;
  obs.slot = 10;
  obs.total.p95_delay_slots = 10.0;
  auto t = monitor.observe(obs);
  ASSERT_EQ(t.size(), 1U);
  EXPECT_EQ(t[0].from, SloState::kOk);
  EXPECT_EQ(t[0].to, SloState::kBreach);

  // The delay clears, but the slow window still remembers the worst value
  // (max over its observations): draining incident tail, a blip.
  obs.slot = 20;
  obs.total.p95_delay_slots = 0.0;
  t = monitor.observe(obs);
  ASSERT_EQ(t.size(), 1U);
  EXPECT_EQ(t[0].to, SloState::kBlip);
  EXPECT_NEAR(t[0].slow_value, 10.0, 1e-12);

  // Still in the slow window one snapshot later: blip holds.
  obs.slot = 30;
  EXPECT_TRUE(monitor.observe(obs).empty());
  EXPECT_EQ(monitor.state(0), SloState::kBlip);

  // The bad observation ages out of the slow window: recovered.
  obs.slot = 40;
  t = monitor.observe(obs);
  ASSERT_EQ(t.size(), 1U);
  EXPECT_EQ(t[0].to, SloState::kOk);
}

TEST(SloMonitorTest, QualityFloorPassesUntilAnySessionDelivers) {
  SloConfig config = one_spec(SloMetric::kQualityFloor, 0.5);
  config.windows = {1, 1};
  SloMonitor monitor(config);

  // No session has delivered a step yet: passing, not a violation.
  SloObservation obs;
  obs.slot = 10;
  EXPECT_TRUE(monitor.observe(obs).empty());
  EXPECT_EQ(monitor.state(0), SloState::kOk);

  obs.slot = 20;
  obs.total.has_quality = true;
  obs.total.min_quality = 0.2;  // under the floor
  auto t = monitor.observe(obs);
  ASSERT_EQ(t.size(), 1U);
  EXPECT_EQ(t[0].to, SloState::kBreach);

  obs.slot = 30;
  obs.total.min_quality = 0.8;
  t = monitor.observe(obs);
  ASSERT_EQ(t.size(), 1U);
  EXPECT_EQ(t[0].to, SloState::kOk);
}

TEST(SloMonitorTest, TierSpecReadsItsTierNotTheTotal) {
  SloConfig config = one_spec(SloMetric::kAcceptRatio, 0.9, /*tier=*/2);
  config.windows = {1, 1};
  SloMonitor monitor(config);

  // Total traffic is healthy; the premium tier is not. The tier spec must
  // see only its tier.
  SloObservation obs;
  obs.slot = 10;
  obs.total.accepted = 100;
  obs.total.rejected = 5;
  obs.tier[2].accepted = 1;
  obs.tier[2].rejected = 5;
  auto t = monitor.observe(obs);
  ASSERT_EQ(t.size(), 1U);
  EXPECT_EQ(t[0].to, SloState::kBreach);
  EXPECT_NEAR(t[0].fast_value, 1.0 / 6.0, 1e-12);
}

TEST(SloMonitorTest, SpillRatioReadsClusterPlacementCounters) {
  SloConfig config = one_spec(SloMetric::kSpillRatio, 0.25);
  config.windows = {1, 1};
  SloMonitor monitor(config);

  // The runtime's convention: `placed` counts every admitted arrival, so 6
  // first-choice plus 3 spilled sessions read placed = 9.
  SloObservation obs;
  obs.slot = 10;
  obs.placed = 9;
  obs.spills = 3;
  obs.placement_rejects = 1;
  auto t = monitor.observe(obs);  // 3 / (9 + 1) over the window
  ASSERT_EQ(t.size(), 1U);
  EXPECT_EQ(t[0].to, SloState::kBreach);
  EXPECT_NEAR(t[0].fast_value, 0.3, 1e-12);

  // No placement activity in the next window: passing.
  obs.slot = 20;
  t = monitor.observe(obs);
  ASSERT_EQ(t.size(), 1U);
  EXPECT_EQ(t[0].to, SloState::kOk);
}

TEST(SloSampleTest, MergeFoldsWorstLinkView) {
  SloTierSample into;
  into.accepted = 10;
  into.active = 3;
  into.p95_delay_slots = 2.0;

  SloTierSample from;
  from.accepted = 5;
  from.rejected = 1;
  from.active = 2;
  from.p95_delay_slots = 7.0;
  from.min_quality = 0.4;
  from.has_quality = true;

  merge_slo_sample(into, from);
  EXPECT_EQ(into.accepted, 15U);
  EXPECT_EQ(into.rejected, 1U);
  EXPECT_EQ(into.active, 5U);
  EXPECT_EQ(into.p95_delay_slots, 7.0);  // worst link
  EXPECT_TRUE(into.has_quality);
  EXPECT_EQ(into.min_quality, 0.4);

  // A link with no quality data yet must not drag the floor to zero.
  SloTierSample silent;
  merge_slo_sample(into, silent);
  EXPECT_TRUE(into.has_quality);
  EXPECT_EQ(into.min_quality, 0.4);
}

// ------------------------------------------------------ flight recorder ----

TEST(FlightRecorderTest, RingWrapKeepsTheNewestEvents) {
  FlightRecorder recorder({/*capacity=*/8});
  EXPECT_EQ(recorder.capacity(), 8U);
  EXPECT_EQ(recorder.size(), 0U);

  for (std::size_t i = 0; i < 20; ++i) {
    recorder.record(FlightEventKind::kAdmit, /*slot=*/i, /*tid=*/0,
                    /*a=*/static_cast<double>(i));
  }
  EXPECT_EQ(recorder.size(), 8U);
  EXPECT_EQ(recorder.recorded_total(), 20U);
  EXPECT_EQ(recorder.dropped(), 12U);
  // Oldest-first iteration over the held window: seq 13..20.
  EXPECT_EQ(recorder.at(0).seq, 13U);
  EXPECT_EQ(recorder.at(0).a, 12.0);  // the 13th record carried a = 12
  EXPECT_EQ(recorder.at(7).seq, 20U);
  EXPECT_EQ(recorder.at(7).slot, 19U);
}

TEST(FlightRecorderTest, ZeroCapacityThrows) {
  EXPECT_THROW(FlightRecorder({0}), std::invalid_argument);
}

// ------------------------------------------------------------ black box ----

/// Structural JSON check: balanced braces/brackets outside strings, escape
/// handling, non-empty. Not a full parser — the end-to-end pipeline also
/// feeds real dumps through python3 -m json.tool in CI.
bool balanced_json(const std::string& text) {
  int depth = 0;
  bool in_string = false, escaped = false;
  for (const char c : text) {
    if (escaped) {
      escaped = false;
    } else if (in_string) {
      if (c == '\\') escaped = true;
      if (c == '"') in_string = false;
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_string && !text.empty();
}

TEST(BlackBoxTest, JsonParseBackCarriesEventsRegistryAndConfig) {
  FlightRecorder recorder({4});
  recorder.record(FlightEventKind::kAdmit, 7, 1, 42.0, 3.0);
  recorder.record(FlightEventKind::kSloBreach, 9, 999, 0.0, 0.5);

  TelemetryRegistry registry;
  registry.counter("link0/slots").add(7);
  registry.histogram("h").record(2.0);

  const std::string json =
      black_box_json(recorder, &registry, "{\"run\":\"test\"}");
  EXPECT_TRUE(balanced_json(json));
  EXPECT_NE(json.find("\"seq\":1"), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"admit\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"slo_breach\""), std::string::npos);
  EXPECT_NE(json.find("\"a\":42"), std::string::npos);
  EXPECT_NE(json.find("\"capacity\":4"), std::string::npos);
  EXPECT_NE(json.find("\"recorded_total\":2"), std::string::npos);
  EXPECT_NE(json.find("\"dropped\":0"), std::string::npos);
  EXPECT_NE(json.find("\"config\":{\"run\":\"test\"}"), std::string::npos);
  EXPECT_NE(json.find("link0/slots"), std::string::npos);

  // Omitted registry and config render as JSON null, not broken syntax.
  const std::string bare = black_box_json(recorder, nullptr, "");
  EXPECT_TRUE(balanced_json(bare));
  EXPECT_NE(bare.find("\"config\":null"), std::string::npos);
  EXPECT_NE(bare.find("\"registry\":null"), std::string::npos);
}

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return {};
  std::string out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

TEST(BlackBoxTest, WriteRoundTripsThroughDisk) {
  FlightRecorder recorder({4});
  recorder.record(FlightEventKind::kClose, 3, 0, 5.0, 11.0);

  const std::string path = ::testing::TempDir() + "/box.json";
  ASSERT_TRUE(write_black_box(path, recorder, nullptr, "").ok());
  EXPECT_EQ(read_file(path), black_box_json(recorder, nullptr, ""));

  EXPECT_FALSE(
      write_black_box("/nonexistent-dir/box.json", recorder, nullptr, "")
          .ok());
}

TEST(BlackBoxDeathTest, DcheckFailureLeavesAParseableDump) {
  if (!dchecks_enabled()) {
    GTEST_SKIP() << "ARVIS_DCHECK compiled out in this build";
  }
  const std::string path = ::testing::TempDir() + "/dcheck_box.json";
  std::remove(path.c_str());

  // Arming happens inside the death statement: EXPECT_DEATH runs it in a
  // child process, which dumps the black box on its way into abort(). The
  // parent then reads what the child left behind.
  EXPECT_DEATH(
      {
        FlightRecorder recorder({16});
        BlackBoxArming arming;
        arming.path = path;
        arming.recorder = &recorder;
        arming.signal_handlers = false;
        arm_black_box(arming);
        recorder.record(FlightEventKind::kBrownoutEnter, 99, 1, 2.0, 3.0);
        ARVIS_DCHECK_MSG(false, "observability death test");
      },
      "observability death test");

  const std::string dump = read_file(path);
  ASSERT_FALSE(dump.empty()) << "no black box at " << path;
  EXPECT_TRUE(balanced_json(dump));
  EXPECT_NE(dump.find("\"kind\":\"brownout_enter\""), std::string::npos);
  EXPECT_NE(dump.find("\"slot\":99"), std::string::npos);
  std::remove(path.c_str());
}

// ---------------------------------------------------- Prometheus export ----

TEST(PrometheusTest, CountersAndHistogramsRenderInTextFormat) {
  TelemetryRegistry registry;
  registry.counter("link0/slots").add(7);
  TelemetryHistogram& h = registry.histogram("svc/active");
  h.record(2.0);
  h.record(2.0);
  h.record(2.0);

  const std::string text = prometheus_text(registry);
  // Names gain the arvis_ prefix; '/' sanitizes to '_'.
  EXPECT_NE(text.find("# TYPE arvis_link0_slots counter\n"
                      "arvis_link0_slots 7\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE arvis_svc_active histogram\n"),
            std::string::npos);
  // Cumulative buckets: +Inf always present and equal to _count; _sum is
  // the exact sum of recorded values.
  EXPECT_NE(text.find("arvis_svc_active_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("arvis_svc_active_count 3\n"), std::string::npos);
  EXPECT_NE(text.find("arvis_svc_active_sum 6\n"), std::string::npos);

  // An empty registry renders as empty text, not malformed lines.
  TelemetryRegistry empty;
  EXPECT_TRUE(prometheus_text(empty).empty());
}

TEST(PrometheusTest, BucketCountsAreCumulative) {
  TelemetryRegistry registry;
  TelemetryHistogram& h = registry.histogram("h");
  h.record(0.5);   // bucket le="1"
  h.record(3.0);   // a higher bucket
  h.record(300.0); // higher still

  const std::string text = prometheus_text(registry);
  // Every emitted bucket line's value must be non-decreasing down the
  // exposition and the last finite bucket <= +Inf == count.
  std::uint64_t last = 0;
  std::size_t pos = 0, buckets = 0;
  while ((pos = text.find("arvis_h_bucket{le=\"", pos)) != std::string::npos) {
    const std::size_t space = text.find(' ', pos);
    const std::size_t eol = text.find('\n', space);
    const std::uint64_t value =
        std::stoull(text.substr(space + 1, eol - space - 1));
    EXPECT_GE(value, last);
    last = value;
    ++buckets;
    pos = eol;
  }
  EXPECT_GE(buckets, 4U);  // three finite buckets + +Inf at minimum
  EXPECT_EQ(last, 3U);     // +Inf bucket == count

  const std::string file = ::testing::TempDir() + "/m.prom";
  ASSERT_TRUE(write_prometheus_text(registry, file).ok());
  EXPECT_EQ(read_file(file), text);
}

// ------------------------------------------------- end-to-end SLO replay ----

const FrameStatsCache& obs_cache() {
  static const FrameStatsCache cache(*open_test_subject(17), 8, 8);
  return cache;
}

TEST(SloReplayTest, TightSlosBreachAndLeaveBlackBoxAndLiveStats) {
  // Ten simultaneous arrivals into a single link sized for ~2 sessions:
  // admission must reject most of them in slot 0, so an accept-ratio floor
  // of 0.999 breaches at the very first snapshot.
  WorkloadTrace trace;
  for (std::size_t i = 0; i < 10; ++i) {
    trace.events.push_back({0, 100, 0, 1.0, QosClass::kStandard});
  }

  ReplayConfig config;
  config.cluster.serving.steps = 64;
  config.cluster.serving.candidates = {3, 4, 5, 6};
  config.cluster.serving.v = calibrate_streaming_v(
      obs_cache(), config.cluster.serving.candidates,
      4.0 * obs_cache().workload(0).bytes(5));
  config.cluster.serving.admission.utilization_target = 1.0;
  config.driver.snapshot_period = 10;

  const std::string dir = ::testing::TempDir();
  const std::string box_path = dir + "/slo_box.json";
  const std::string live_path = dir + "/live.json";
  std::remove(box_path.c_str());
  std::remove(live_path.c_str());

  config.driver.slo.windows = {1, 2};
  config.driver.slo.specs = {
      {"accept-all", SloMetric::kAcceptRatio, 0.999, -1}};
  config.driver.slo.black_box_path = box_path;
  config.driver.live_stats_path = live_path;
  config.driver.config_echo = "{\"test\":\"slo-replay\"}";

  // Counters + an isolated flight recorder on both layers, so the test
  // neither reads nor pollutes the process-global ring.
  FlightRecorder recorder({256});
  TelemetryRegistry registry;
  TelemetryConfig telemetry;
  telemetry.mode = TelemetryMode::kCounters;
  telemetry.registry = &registry;
  telemetry.flight = &recorder;
  config.cluster.serving.telemetry = telemetry;
  config.driver.telemetry = telemetry;

  const double load = AdmissionController::cheapest_depth_load(
      obs_cache(), config.cluster.serving.candidates);
  ConstantChannel channel(2.5 * load);
  std::vector<ChannelModel*> channels{&channel};
  const std::vector<const FrameStatsCache*> profiles{&obs_cache()};
  const ReplayResult result = replay_trace(config, trace, profiles, channels);

  // The breach made it into the report...
  EXPECT_GE(result.report.slo_breaches, 1U);
  ASSERT_FALSE(result.report.slo_transitions.empty());
  EXPECT_EQ(result.report.slo_transitions[0].to, SloState::kBreach);
  EXPECT_EQ(result.report.slo_table().row_count(),
            result.report.slo_transitions.size());
  // ...into the counters...
  EXPECT_GE(registry.counter("slo/accept-all/breaches").value(), 1U);
  // ...into the flight recorder (admission rejects, the snapshot marker,
  // and the breach event itself)...
  bool saw_reject = false, saw_snapshot = false, saw_breach = false;
  for (std::size_t i = 0; i < recorder.size(); ++i) {
    switch (recorder.at(i).kind) {
      case FlightEventKind::kReject: saw_reject = true; break;
      case FlightEventKind::kSnapshot: saw_snapshot = true; break;
      case FlightEventKind::kSloBreach: saw_breach = true; break;
      default: break;
    }
  }
  EXPECT_TRUE(saw_reject);
  EXPECT_TRUE(saw_snapshot);
  EXPECT_TRUE(saw_breach);

  // ...and onto disk: the auto-dumped black box and the live-stats file.
  const std::string box = read_file(box_path);
  ASSERT_FALSE(box.empty()) << "no auto black box at " << box_path;
  EXPECT_TRUE(balanced_json(box));
  EXPECT_NE(box.find("\"kind\":\"reject\""), std::string::npos);
  EXPECT_NE(box.find("\"config\":{\"test\":\"slo-replay\"}"),
            std::string::npos);

  const std::string live = read_file(live_path);
  ASSERT_FALSE(live.empty()) << "no live stats at " << live_path;
  EXPECT_TRUE(balanced_json(live));
  EXPECT_NE(live.find("\"slo\""), std::string::npos);
  EXPECT_NE(live.find("\"name\":\"accept-all\""), std::string::npos);
  EXPECT_NE(live.find("\"breaches\""), std::string::npos);

  std::remove(box_path.c_str());
  std::remove(live_path.c_str());
}

}  // namespace
}  // namespace arvis

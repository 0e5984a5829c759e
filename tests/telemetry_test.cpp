// Tests for the telemetry subsystem (serving/telemetry): registry get-or-
// create semantics, log2 histogram bucketing and exact power-of-two
// percentiles, tracer ring wraparound and sampling, Chrome trace_event JSON
// export validated by an in-test parse-back, the per-phase rollup, config
// validation, and the SessionManager counters end to end.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "common/csv.hpp"
#include "datasets/catalog.hpp"
#include "net/streaming.hpp"
#include "serving/admission.hpp"
#include "serving/session_manager.hpp"
#include "serving/telemetry/export.hpp"
#include "serving/telemetry/registry.hpp"
#include "serving/telemetry/tracer.hpp"

namespace arvis {
namespace {

// ----------------------------------------------------------- registry ----

TEST(TelemetryCounterTest, GetOrCreateReturnsStableHandles) {
  TelemetryRegistry registry;
  TelemetryCounter& a = registry.counter("link0/slots");
  TelemetryCounter& b = registry.counter("link0/slots");
  EXPECT_EQ(&a, &b);  // same name, same instrument
  EXPECT_EQ(registry.counter_count(), 1U);

  a.add();
  a.add(41);
  EXPECT_EQ(b.value(), 42U);

  // Handles survive later registrations (deque storage).
  TelemetryCounter* handles[64];
  // Names built with += (not operator+) to dodge GCC's -Wrestrict false
  // positive on "literal" + to_string temporaries (GCC PR 105651).
  const auto name_of = [](int i) {
    std::string name = "c";
    name += std::to_string(i);
    return name;
  };
  for (int i = 0; i < 64; ++i) {
    handles[i] = &registry.counter(name_of(i));
  }
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(handles[i], &registry.counter(name_of(i)));
  }
  EXPECT_EQ(registry.counter_count(), 65U);
  EXPECT_EQ(registry.find_counter("link0/slots"), &a);
  EXPECT_EQ(registry.find_counter("absent"), nullptr);
}

TEST(TelemetryRegistryTest, TablesAndJsonListRegistrationOrder) {
  TelemetryRegistry registry;
  registry.counter("first").add(1);
  registry.counter("second").add(2);
  registry.histogram("h").record(4.0);

  const CsvTable counters = registry.counters_table();
  ASSERT_EQ(counters.row_count(), 2U);
  EXPECT_EQ(std::get<std::string>(counters.at(0, 0)), "first");
  EXPECT_EQ(std::get<std::string>(counters.at(1, 0)), "second");

  const CsvTable histograms = registry.histograms_table();
  ASSERT_EQ(histograms.row_count(), 1U);
  EXPECT_EQ(std::get<std::string>(histograms.at(0, 0)), "h");

  const std::string json = registry.to_json();
  EXPECT_NE(json.find("\"first\":1"), std::string::npos);
  EXPECT_NE(json.find("\"second\":2"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

// ---------------------------------------------------------- histogram ----

TEST(TelemetryHistogramTest, BucketIndexMatchesLog2Contract) {
  // Bucket 0 = [0, 1); bucket b >= 1 = [2^(b-1), 2^b).
  EXPECT_EQ(TelemetryHistogram::bucket_index(0.0), 0U);
  EXPECT_EQ(TelemetryHistogram::bucket_index(0.99), 0U);
  EXPECT_EQ(TelemetryHistogram::bucket_index(-5.0), 0U);  // clamped
  EXPECT_EQ(TelemetryHistogram::bucket_index(1.0), 1U);
  EXPECT_EQ(TelemetryHistogram::bucket_index(1.99), 1U);
  EXPECT_EQ(TelemetryHistogram::bucket_index(2.0), 2U);
  EXPECT_EQ(TelemetryHistogram::bucket_index(3.0), 2U);
  EXPECT_EQ(TelemetryHistogram::bucket_index(4.0), 3U);
  EXPECT_EQ(TelemetryHistogram::bucket_index(1024.0), 11U);
  EXPECT_EQ(TelemetryHistogram::bucket_index(1e300),
            TelemetryHistogram::kBuckets - 1);  // clamped high

  EXPECT_EQ(TelemetryHistogram::bucket_lower_bound(0), 0.0);
  EXPECT_EQ(TelemetryHistogram::bucket_lower_bound(1), 1.0);
  EXPECT_EQ(TelemetryHistogram::bucket_lower_bound(2), 2.0);
  EXPECT_EQ(TelemetryHistogram::bucket_lower_bound(11), 1024.0);
}

TEST(TelemetryHistogramTest, PowerOfTwoSamplesYieldExactPercentiles) {
  // 100 samples: 50x1, 30x2, 15x4, 5x8. Every sample sits exactly on its
  // bucket's lower bound, so nearest-rank percentiles are exact:
  // rank(p50) = 50 -> 1, rank(p95) = 95 -> 4, rank(p99) = 99 -> 8.
  TelemetryHistogram h;
  for (int i = 0; i < 50; ++i) h.record(1.0);
  for (int i = 0; i < 30; ++i) h.record(2.0);
  for (int i = 0; i < 15; ++i) h.record(4.0);
  for (int i = 0; i < 5; ++i) h.record(8.0);

  EXPECT_EQ(h.count(), 100U);
  EXPECT_EQ(h.min(), 1.0);
  EXPECT_EQ(h.max(), 8.0);
  EXPECT_DOUBLE_EQ(h.mean(), (50.0 + 60.0 + 60.0 + 40.0) / 100.0);
  EXPECT_EQ(h.percentile(50.0), 1.0);
  EXPECT_EQ(h.percentile(80.0), 2.0);
  EXPECT_EQ(h.percentile(95.0), 4.0);
  EXPECT_EQ(h.percentile(99.0), 8.0);
  EXPECT_EQ(h.percentile(100.0), 8.0);
  EXPECT_EQ(h.bucket_count(1), 50U);
  EXPECT_EQ(h.bucket_count(2), 30U);
  EXPECT_EQ(h.bucket_count(3), 15U);
  EXPECT_EQ(h.bucket_count(4), 5U);
}

TEST(TelemetryHistogramTest, EmptyHistogramReportsZeros) {
  const TelemetryHistogram h;
  EXPECT_EQ(h.count(), 0U);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.percentile(50.0), 0.0);
}

// -------------------------------------------------------------- tracer ----

TEST(PhaseTracerTest, RingOverwritesOldestAndCountsDrops) {
  TracerConfig config;
  config.capacity = 8;
  PhaseTracer tracer(config);
  for (std::size_t i = 0; i < 20; ++i) {
    tracer.record(Phase::kDecide, /*slot=*/i, /*tid=*/0, 100 * i, 100 * i + 7);
  }
  EXPECT_EQ(tracer.size(), 8U);
  EXPECT_EQ(tracer.recorded_total(), 20U);
  EXPECT_EQ(tracer.dropped(), 12U);
  // at() walks oldest-first: spans 12..19 survived.
  for (std::size_t i = 0; i < tracer.size(); ++i) {
    EXPECT_EQ(tracer.at(i).slot, 12 + i);
    EXPECT_EQ(tracer.at(i).dur_ns, 7U);
  }
}

TEST(PhaseTracerTest, SamplingPeriodGatesSpans) {
  TracerConfig config;
  config.sample_period = 4;
  PhaseTracer tracer(config);
  for (std::size_t slot = 0; slot < 16; ++slot) {
    const PhaseSpan span(&tracer, Phase::kDrain, slot, 0);
  }
  EXPECT_EQ(tracer.size(), 4U);  // slots 0, 4, 8, 12
  for (std::size_t i = 0; i < tracer.size(); ++i) {
    EXPECT_EQ(tracer.at(i).slot % 4, 0U);
  }

  // A null tracer records nothing and must be safe.
  { const PhaseSpan span(nullptr, Phase::kDrain, 3, 0); }
  EXPECT_EQ(tracer.recorded_total(), 4U);
}

TEST(PhaseTracerTest, RejectsZeroCapacityOrPeriod) {
  TracerConfig config;
  config.capacity = 0;
  EXPECT_THROW(PhaseTracer{config}, std::invalid_argument);
  config.capacity = 8;
  config.sample_period = 0;
  EXPECT_THROW(PhaseTracer{config}, std::invalid_argument);
}

TEST(PhaseTracerTest, RollupAggregatesPerPhaseAndPerTid) {
  PhaseTracer tracer;
  tracer.record(Phase::kDecide, 0, 0, 0, 3'000);
  tracer.record(Phase::kDecide, 1, 0, 0, 1'000);
  tracer.record(Phase::kDrain, 0, 1, 0, 6'000);

  const CsvTable rollup = tracer.rollup_table();
  ASSERT_EQ(rollup.row_count(), 2U);
  // Registration order of first appearance; shares sum to 100.
  EXPECT_EQ(std::get<std::string>(rollup.at(0, 0)), "decide");
  EXPECT_EQ(std::get<std::int64_t>(rollup.at(0, 1)), 2);
  EXPECT_DOUBLE_EQ(std::get<double>(rollup.at(0, 2)), 4.0);   // total_us
  EXPECT_DOUBLE_EQ(std::get<double>(rollup.at(0, 3)), 2.0);   // mean_us
  EXPECT_DOUBLE_EQ(std::get<double>(rollup.at(0, 4)), 40.0);  // share_pct
  EXPECT_EQ(std::get<std::string>(rollup.at(1, 0)), "drain");
  EXPECT_DOUBLE_EQ(std::get<double>(rollup.at(1, 4)), 60.0);

  const CsvTable by_tid = tracer.rollup_table(/*per_tid=*/true);
  ASSERT_EQ(by_tid.row_count(), 2U);
  EXPECT_EQ(std::get<std::int64_t>(by_tid.at(0, 0)), 0);  // tid column leads
  EXPECT_EQ(std::get<std::int64_t>(by_tid.at(1, 0)), 1);
}

// ------------------------------------------- Chrome trace parse-back ----

/// Minimal scanner for the exported {"traceEvents":[{...},{...}]} shape:
/// splits the top-level array into brace-balanced objects and pulls string/
/// number fields out of each. Deliberately naive — the export writes no
/// nested strings with braces — but strict about structure.
std::vector<std::string> split_trace_events(const std::string& json,
                                            bool* ok) {
  *ok = false;
  std::vector<std::string> events;
  const std::string head = "{\"traceEvents\":[";
  if (json.rfind(head, 0) != 0) return events;
  std::size_t i = head.size();
  int depth = 0;
  std::size_t start = 0;
  for (; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '{') {
      if (depth == 0) start = i;
      ++depth;
    } else if (c == '}') {
      --depth;
      if (depth < 0) return events;
      if (depth == 0) events.push_back(json.substr(start, i - start + 1));
    } else if (depth == 0 && c == ']') {
      break;
    }
  }
  // Must close the array and the outer object.
  *ok = i < json.size() && json.compare(i, 2, "]}") == 0;
  return events;
}

std::string string_field(const std::string& object, const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const std::size_t at = object.find(needle);
  if (at == std::string::npos) return "";
  const std::size_t begin = at + needle.size();
  const std::size_t end = object.find('"', begin);
  return end == std::string::npos ? "" : object.substr(begin, end - begin);
}

bool has_number_field(const std::string& object, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = object.find(needle);
  if (at == std::string::npos) return false;
  const char c = object[at + needle.size()];
  return (c >= '0' && c <= '9') || c == '-';
}

TEST(ChromeTraceTest, ExportParsesBackWithAllPhases) {
  PhaseTracer tracer;
  // One span per phase, plus a second decide to check multiplicity.
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    tracer.record(static_cast<Phase>(p), /*slot=*/p, /*tid=*/p, 1'000 * p,
                  1'000 * p + 500);
  }
  tracer.record(Phase::kDecide, 9, 1, 10'000, 10'250);

  bool ok = false;
  const std::vector<std::string> events =
      split_trace_events(tracer.chrome_trace_json(), &ok);
  ASSERT_TRUE(ok) << "malformed trace JSON envelope";
  // Metadata event + 8 spans.
  ASSERT_EQ(events.size(), 9U);
  EXPECT_EQ(string_field(events[0], "ph"), "M");
  EXPECT_EQ(string_field(events[0], "name"), "process_name");

  std::set<std::string> names;
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(string_field(events[i], "ph"), "X");
    EXPECT_TRUE(has_number_field(events[i], "ts"));
    EXPECT_TRUE(has_number_field(events[i], "dur"));
    EXPECT_TRUE(has_number_field(events[i], "tid"));
    EXPECT_TRUE(has_number_field(events[i], "slot"));
    names.insert(string_field(events[i], "name"));
  }
  const std::set<std::string> want{"begin_slot", "decide",  "schedule",
                                   "drain",      "finish",  "place",
                                   "driver_events"};
  EXPECT_EQ(names, want);
}

// ------------------------------------------------------------- config ----

TEST(TelemetryConfigTest, ValidationCatchesMissingPointers) {
  TelemetryConfig config;
  EXPECT_NO_THROW(validate_telemetry(config, "test"));  // off needs nothing

  config.mode = TelemetryMode::kCounters;
  EXPECT_THROW(validate_telemetry(config, "test"), std::invalid_argument);
  TelemetryRegistry registry;
  config.registry = &registry;
  EXPECT_NO_THROW(validate_telemetry(config, "test"));

  config.mode = TelemetryMode::kFullTrace;
  EXPECT_THROW(validate_telemetry(config, "test"), std::invalid_argument);
  PhaseTracer tracer;
  config.tracer = &tracer;
  EXPECT_NO_THROW(validate_telemetry(config, "test"));

  // A misconfigured runtime must refuse construction, not silently drop
  // telemetry.
  ServingConfig serving;
  serving.steps = 4;
  serving.telemetry.mode = TelemetryMode::kCounters;  // registry missing
  EXPECT_THROW(SessionManager(serving, 1e6), std::invalid_argument);
}

// ------------------------------------------------- manager end to end ----

const FrameStatsCache& test_cache() {
  static const FrameStatsCache cache(*open_test_subject(23), 8, 8);
  return cache;
}

TEST(TelemetryEndToEndTest, ManagerCountersMatchRunShape) {
  TelemetryRegistry registry;
  PhaseTracer tracer;
  ServingConfig config;
  config.steps = 40;
  config.candidates = {3, 4, 5, 6};
  config.v = calibrate_streaming_v(test_cache(), config.candidates,
                                   4.0 * test_cache().workload(0).bytes(5));
  config.admission.utilization_target = 1.0;
  config.telemetry.mode = TelemetryMode::kFullTrace;
  config.telemetry.registry = &registry;
  config.telemetry.tracer = &tracer;
  config.telemetry.tid = 3;  // a non-default lane: prefixes must follow

  const std::size_t n = 6;
  const double load = AdmissionController::cheapest_depth_load(
      test_cache(), config.candidates);
  const double capacity = static_cast<double>(n) * load * 2.0;
  // The per-link engine, driven the way EdgeCluster drives one link.
  SessionManager manager(config, capacity);
  for (std::size_t t = 0; t < config.steps; ++t) {
    manager.begin_slot();
    for (std::size_t i = 0; t == 0 && i < n; ++i) {
      SessionSpec spec;
      spec.cache = &test_cache();
      spec.departure_slot = 20 + i;  // retire mid-run: close counters fire
      ASSERT_TRUE(manager.try_place(spec, i).admitted);
    }
    manager.finish_slot(capacity);
  }
  std::vector<SessionOutcome> outcomes(n);
  manager.finish([&](std::size_t id) { return &outcomes[id]; });

  const auto counter = [&](const char* name) {
    const TelemetryCounter* c = registry.find_counter(name);
    EXPECT_NE(c, nullptr) << name;
    return c != nullptr ? c->value() : 0;
  };
  EXPECT_EQ(counter("link3/slots"), config.steps);
  EXPECT_EQ(counter("link3/admission_accepted"), n);
  EXPECT_EQ(counter("link3/admission_rejected"), 0U);
  EXPECT_EQ(counter("link3/sessions_closed"), n);

  const TelemetryHistogram* lifetime =
      registry.find_histogram("link3/session_lifetime_slots");
  ASSERT_NE(lifetime, nullptr);
  EXPECT_EQ(lifetime->count(), n);
  EXPECT_EQ(lifetime->min(), 20.0);
  EXPECT_EQ(lifetime->max(), 25.0);

  const TelemetryHistogram* active =
      registry.find_histogram("link3/active_sessions");
  ASSERT_NE(active, nullptr);
  EXPECT_EQ(active->count(), config.steps);

  // Spans landed on the configured lane with the slot-loop phases present.
  std::set<std::string> phases;
  for (std::size_t i = 0; i < tracer.size(); ++i) {
    EXPECT_EQ(tracer.at(i).tid, 3U);
    phases.insert(to_string(tracer.at(i).phase));
  }
  EXPECT_TRUE(phases.count("begin_slot"));
  EXPECT_TRUE(phases.count("decide"));
  EXPECT_TRUE(phases.count("schedule"));
  EXPECT_TRUE(phases.count("drain"));
  EXPECT_TRUE(phases.count("finish"));

  // The run's own accounting agrees.
  EXPECT_EQ(manager.admission_stats().accepted, n);
  EXPECT_EQ(manager.metrics().fleet().sessions_admitted, n);
}

// ------------------------------------------------------------- export ----

TEST(TelemetryExportTest, WritersRoundTripThroughDisk) {
  TelemetryRegistry registry;
  registry.counter("a/b").add(7);
  registry.histogram("h").record(2.0);
  PhaseTracer tracer;
  tracer.record(Phase::kSchedule, 1, 0, 0, 1'000);

  const std::string dir = ::testing::TempDir();
  ASSERT_TRUE(write_chrome_trace(tracer, dir + "/t.json").ok());
  ASSERT_TRUE(write_registry_json(registry, dir + "/r.json").ok());
  ASSERT_TRUE(write_registry_csv(registry, dir + "/reg").ok());

  const Result<CsvTable> counters = read_csv_file(dir + "/reg_counters.csv");
  ASSERT_TRUE(counters.ok()) << counters.status().to_string();
  ASSERT_EQ(counters->row_count(), 1U);
  EXPECT_EQ(std::get<std::string>(counters->at(0, 0)), "a/b");
  EXPECT_EQ(std::get<std::int64_t>(counters->at(0, 1)), 7);

  const Result<CsvTable> histograms =
      read_csv_file(dir + "/reg_histograms.csv");
  ASSERT_TRUE(histograms.ok());
  ASSERT_EQ(histograms->row_count(), 1U);
  EXPECT_EQ(std::get<std::string>(histograms->at(0, 0)), "h");

  // Refusing an unwritable path must surface as a Status, not a throw.
  EXPECT_FALSE(write_chrome_trace(tracer, "/nonexistent-dir/x.json").ok());
}

}  // namespace
}  // namespace arvis

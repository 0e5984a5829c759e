#include "serving/telemetry/tracer.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace arvis {

const char* to_string(Phase phase) noexcept {
  switch (phase) {
    case Phase::kBeginSlot: return "begin_slot";
    case Phase::kDecide: return "decide";
    case Phase::kSchedule: return "schedule";
    case Phase::kDrain: return "drain";
    case Phase::kFinish: return "finish";
    case Phase::kPlace: return "place";
    case Phase::kEvents: return "driver_events";
  }
  return "?";
}

PhaseTracer::PhaseTracer(const TracerConfig& config)
    : epoch_(std::chrono::steady_clock::now()) {
  if (config.capacity == 0) {
    throw std::invalid_argument("PhaseTracer: capacity must be > 0");
  }
  ring_.resize(config.capacity);
}

std::string PhaseTracer::chrome_trace_json() const {
  const std::size_t n = size();
  std::string out;
  out.reserve(128 + n * 96);
  out += "{\"traceEvents\":[";
  out +=
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
      "\"args\":{\"name\":\"arvis serving\"}}";
  char buf[192];
  for (std::size_t i = 0; i < n; ++i) {
    const SpanRecord& r = at(i);
    // "X" complete events with microsecond ts/dur — the shape both
    // chrome://tracing and Perfetto ingest without a clock-sync section.
    std::snprintf(buf, sizeof(buf),
                  ",{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                  "\"pid\":1,\"tid\":%u,\"args\":{\"slot\":%zu}}",
                  to_string(r.phase), static_cast<double>(r.start_ns) / 1e3,
                  static_cast<double>(r.dur_ns) / 1e3, r.tid, r.slot);
    out += buf;
  }
  out += "]}";
  return out;
}

CsvTable PhaseTracer::rollup_table(bool per_tid) const {
  struct Bucket {
    std::uint32_t tid = 0;
    std::uint64_t spans = 0;
    std::uint64_t total_ns = 0;
  };
  // Lanes are few (K links + driver + cluster), so a flat (tid, phase) list
  // beats a map.
  std::vector<std::uint32_t> tids;
  std::vector<Bucket> buckets;  // tids.size() * kPhaseCount, phase-major rows
  const auto lane = [&](std::uint32_t tid) -> Bucket* {
    for (std::size_t t = 0; t < tids.size(); ++t) {
      if (tids[t] == tid) return &buckets[t * kPhaseCount];
    }
    tids.push_back(tid);
    buckets.resize(tids.size() * kPhaseCount);
    for (std::size_t p = 0; p < kPhaseCount; ++p) {
      buckets[(tids.size() - 1) * kPhaseCount + p].tid = tid;
    }
    return &buckets[(tids.size() - 1) * kPhaseCount];
  };

  const std::size_t n = size();
  std::uint64_t grand_total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const SpanRecord& r = at(i);
    Bucket& b = lane(per_tid ? r.tid : 0)[static_cast<std::size_t>(r.phase)];
    ++b.spans;
    b.total_ns += r.dur_ns;
    grand_total += r.dur_ns;
  }

  std::vector<std::string> header;
  if (per_tid) header.push_back("tid");
  header.insert(header.end(),
                {"phase", "spans", "total_us", "mean_us", "share_pct"});
  CsvTable table(std::move(header));
  std::vector<std::size_t> order(tids.size());
  for (std::size_t t = 0; t < order.size(); ++t) order[t] = t;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return tids[a] < tids[b]; });
  for (std::size_t t : order) {
    for (std::size_t p = 0; p < kPhaseCount; ++p) {
      const Bucket& b = buckets[t * kPhaseCount + p];
      if (b.spans == 0) continue;
      const double total_us = static_cast<double>(b.total_ns) / 1e3;
      std::vector<CsvCell> row;
      if (per_tid) row.emplace_back(static_cast<std::int64_t>(b.tid));
      row.emplace_back(std::string(to_string(static_cast<Phase>(p))));
      row.emplace_back(static_cast<std::int64_t>(b.spans));
      row.emplace_back(total_us);
      row.emplace_back(total_us / static_cast<double>(b.spans));
      row.emplace_back(grand_total > 0
                           ? 100.0 * static_cast<double>(b.total_ns) /
                                 static_cast<double>(grand_total)
                           : 0.0);
      table.add_row(std::move(row));
    }
  }
  return table;
}

}  // namespace arvis

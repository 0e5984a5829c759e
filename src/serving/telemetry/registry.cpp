#include "serving/telemetry/registry.hpp"

#include <bit>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace arvis {

void TelemetryHistogram::record(double value) noexcept {
  ++buckets_[bucket_index(value)];
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    if (value < min_) min_ = value;
    if (value > max_) max_ = value;
  }
  ++count_;
  sum_ += value;
}

std::size_t TelemetryHistogram::bucket_index(double value) noexcept {
  if (!(value >= 1.0)) return 0;  // negatives and NaN land with the < 1 tail
  if (value >= 9.223372036854776e18) return kBuckets - 1;  // 2^63 and beyond
  const auto v = static_cast<std::uint64_t>(value);
  return static_cast<std::size_t>(std::bit_width(v));
}

double TelemetryHistogram::bucket_lower_bound(std::size_t b) noexcept {
  if (b == 0) return 0.0;
  return std::ldexp(1.0, static_cast<int>(b) - 1);  // 2^(b-1)
}

double TelemetryHistogram::percentile(double p) const noexcept {
  if (count_ == 0) return 0.0;
  // Nearest-rank: the smallest sample with at least ceil(p/100 * count)
  // samples at or below it; reported as its bucket's lower bound.
  const double exact = p / 100.0 * static_cast<double>(count_);
  auto rank = static_cast<std::uint64_t>(std::ceil(exact));
  if (rank < 1) rank = 1;
  if (rank > count_) rank = count_;
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    cumulative += buckets_[b];
    if (cumulative >= rank) return bucket_lower_bound(b);
  }
  return bucket_lower_bound(kBuckets - 1);
}

TelemetryCounter& TelemetryRegistry::counter(std::string_view name) {
  for (auto& entry : counters_) {
    if (entry.name == name) return entry.instrument;
  }
  // emplace + assign (not push_back of a temporary): the counter's atomic
  // member makes Entry immovable.
  counters_.emplace_back();
  counters_.back().name = std::string(name);
  return counters_.back().instrument;
}

TelemetryHistogram& TelemetryRegistry::histogram(std::string_view name) {
  for (auto& entry : histograms_) {
    if (entry.name == name) return entry.instrument;
  }
  histograms_.push_back({std::string(name), {}});
  return histograms_.back().instrument;
}

const TelemetryCounter* TelemetryRegistry::find_counter(
    std::string_view name) const noexcept {
  for (const auto& entry : counters_) {
    if (entry.name == name) return &entry.instrument;
  }
  return nullptr;
}

const TelemetryHistogram* TelemetryRegistry::find_histogram(
    std::string_view name) const noexcept {
  for (const auto& entry : histograms_) {
    if (entry.name == name) return &entry.instrument;
  }
  return nullptr;
}

CsvTable TelemetryRegistry::counters_table() const {
  CsvTable table({"counter", "value"});
  for (const auto& entry : counters_) {
    table.add_row({entry.name,
                   static_cast<std::int64_t>(entry.instrument.value())});
  }
  return table;
}

CsvTable TelemetryRegistry::histograms_table() const {
  CsvTable table(
      {"histogram", "count", "min", "max", "mean", "p50", "p95", "p99"});
  for (const auto& entry : histograms_) {
    const TelemetryHistogram& h = entry.instrument;
    table.add_row({entry.name, static_cast<std::int64_t>(h.count()), h.min(),
                   h.max(), h.mean(), h.percentile(50.0), h.percentile(95.0),
                   h.percentile(99.0)});
  }
  return table;
}

namespace {

void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_json_double(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

}  // namespace

std::string TelemetryRegistry::to_json() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& entry : counters_) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, entry.name);
    out += ':';
    out += std::to_string(entry.instrument.value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& entry : histograms_) {
    if (!first) out += ',';
    first = false;
    const TelemetryHistogram& h = entry.instrument;
    append_json_string(out, entry.name);
    out += ":{\"count\":" + std::to_string(h.count());
    out += ",\"min\":";
    append_json_double(out, h.min());
    out += ",\"max\":";
    append_json_double(out, h.max());
    out += ",\"mean\":";
    append_json_double(out, h.mean());
    out += ",\"p50\":";
    append_json_double(out, h.percentile(50.0));
    out += ",\"p95\":";
    append_json_double(out, h.percentile(95.0));
    out += ",\"p99\":";
    append_json_double(out, h.percentile(99.0));
    out += '}';
  }
  out += "}}";
  return out;
}

const char* to_string(TelemetryMode mode) noexcept {
  switch (mode) {
    case TelemetryMode::kOff: return "off";
    case TelemetryMode::kCounters: return "counters";
    case TelemetryMode::kFullTrace: return "full-trace";
  }
  return "?";
}

void validate_telemetry(const TelemetryConfig& config, const char* who) {
  if (config.mode >= TelemetryMode::kCounters && config.registry == nullptr) {
    throw std::invalid_argument(std::string(who) +
                                ": telemetry mode needs a registry");
  }
  if (config.mode == TelemetryMode::kFullTrace && config.tracer == nullptr) {
    throw std::invalid_argument(std::string(who) +
                                ": full-trace telemetry needs a tracer");
  }
}

}  // namespace arvis

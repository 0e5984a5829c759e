#include "serving/telemetry/flight_recorder.hpp"

#include <cmath>
#include <csignal>
#include <cstdio>
#include <stdexcept>

#include "common/check.hpp"

namespace arvis {

FlightRecorder::FlightRecorder(const FlightRecorderConfig& config) {
  if (config.capacity == 0) {
    throw std::invalid_argument("FlightRecorder: capacity must be > 0");
  }
  ring_.resize(config.capacity);
}

const char* to_string(FlightEventKind kind) noexcept {
  switch (kind) {
    case FlightEventKind::kAdmit: return "admit";
    case FlightEventKind::kReject: return "reject";
    case FlightEventKind::kClose: return "close";
    case FlightEventKind::kPlacementSpill: return "placement_spill";
    case FlightEventKind::kPlacementReject: return "placement_reject";
    case FlightEventKind::kSnapshot: return "snapshot";
    case FlightEventKind::kSloBreach: return "slo_breach";
    case FlightEventKind::kSloRecover: return "slo_recover";
    case FlightEventKind::kFault: return "fault";
    case FlightEventKind::kFailover: return "failover";
    case FlightEventKind::kRetry: return "retry";
    case FlightEventKind::kBrownoutEnter: return "brownout_enter";
    case FlightEventKind::kBrownoutExit: return "brownout_exit";
    case FlightEventKind::kMigration: return "migration";
  }
  return "?";
}

FlightRecorder& global_flight_recorder() {
  static FlightRecorder recorder;
  return recorder;
}

FlightRecorder* resolve_flight_recorder(
    const TelemetryConfig& config) noexcept {
  if (config.flight != nullptr) return config.flight;
  return &global_flight_recorder();
}

namespace {

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

std::string black_box_json(const FlightRecorder& recorder,
                           const TelemetryRegistry* registry,
                           std::string_view config_echo) {
  std::string out = "{\"events\":[";
  const std::size_t n = recorder.size();
  for (std::size_t i = 0; i < n; ++i) {
    const FlightEvent& e = recorder.at(i);
    if (i > 0) out += ',';
    out += "{\"seq\":" + std::to_string(e.seq);
    out += ",\"slot\":" + std::to_string(e.slot);
    out += ",\"tid\":" + std::to_string(e.tid);
    out += ",\"kind\":\"";
    out += to_string(e.kind);
    out += "\",\"a\":";
    append_json_double(out, e.a);
    out += ",\"b\":";
    append_json_double(out, e.b);
    out += '}';
  }
  out += "],\"recorder\":{\"capacity\":" + std::to_string(recorder.capacity());
  out += ",\"recorded_total\":" + std::to_string(recorder.recorded_total());
  out += ",\"dropped\":" + std::to_string(recorder.dropped());
  out += "},\"config\":";
  out += config_echo.empty() ? std::string_view("null") : config_echo;
  out += ",\"registry\":";
  out += registry != nullptr ? registry->to_json() : std::string("null");
  out += '}';
  return out;
}

Status write_black_box(const std::string& path,
                       const FlightRecorder& recorder,
                       const TelemetryRegistry* registry,
                       std::string_view config_echo) {
  // cstdio, not ofstream: this path must stay callable from the abort hook,
  // where iostream static state is not to be trusted (and the lint keeps
  // stream headers out of this TU anyway).
  const std::string body = black_box_json(recorder, registry, config_echo);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot open " + path);
  const std::size_t wrote = std::fwrite(body.data(), 1, body.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (wrote != body.size() || !closed) {
    return Status::IoError("write failed: " + path);
  }
  return Status::Ok();
}

namespace {

// Sanitizer builds keep their own fatal-signal handlers (stack symbolization
// and leak reports depend on them), so the arming never overrides signals
// there; the DCHECK abort hook still fires.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitizedBuild = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitizedBuild = true;
#else
constexpr bool kSanitizedBuild = false;
#endif
#else
constexpr bool kSanitizedBuild = false;
#endif

constexpr int kFatalSignals[] = {SIGSEGV, SIGBUS, SIGILL, SIGFPE};

/// The armed dump target. Function-local static so arming from static
/// constructors works; the strings are owned copies, so the caller's
/// BlackBoxArming may die immediately after arm_black_box().
struct ArmedState {
  bool armed = false;
  bool signals = false;
  std::string path;
  const FlightRecorder* recorder = nullptr;
  const TelemetryRegistry* registry = nullptr;
  std::string config_echo;
};

ArmedState& armed_state() {
  static ArmedState state;
  return state;
}

/// The last-gasp writer. Best-effort by design: on the DCHECK abort path the
/// heap is healthy and this is an ordinary file write; on a fatal signal the
/// allocations below are formally unsafe, but the process is dying and a
/// probably-written black box beats a certainly-lost one.
void crash_dump() noexcept {
  const ArmedState& s = armed_state();
  if (!s.armed || s.recorder == nullptr) return;
  static_cast<void>(
      write_black_box(s.path, *s.recorder, s.registry, s.config_echo));
}

void fatal_signal_handler(int sig) {
  crash_dump();
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

}  // namespace

void arm_black_box(const BlackBoxArming& arming) {
  if (arming.path.empty()) {
    throw std::invalid_argument("arm_black_box: empty dump path");
  }
  ArmedState& s = armed_state();
  s.path = arming.path;
  s.recorder = arming.recorder != nullptr ? arming.recorder
                                          : &global_flight_recorder();
  s.registry = arming.registry;
  s.config_echo = arming.config_echo;
  s.armed = true;
  set_dcheck_failure_hook(&crash_dump);
  if (arming.signal_handlers && !kSanitizedBuild) {
    for (int sig : kFatalSignals) std::signal(sig, &fatal_signal_handler);
    s.signals = true;
  }
}

void disarm_black_box() noexcept {
  ArmedState& s = armed_state();
  if (s.signals) {
    for (int sig : kFatalSignals) std::signal(sig, SIG_DFL);
    s.signals = false;
  }
  set_dcheck_failure_hook(nullptr);
  s.armed = false;
  s.recorder = nullptr;
  s.registry = nullptr;
}

}  // namespace arvis

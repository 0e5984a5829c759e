// FlightRecorder: the runtime's always-on black box.
//
// A fixed-capacity ring of recent structured lifecycle events — admissions,
// rejects, closes, placement spills, faults and migrations, snapshot deltas,
// SLO transitions — recorded by the serving runtime in Release builds by
// *default*. The cost contract that makes default-on viable:
//
//   - record() is a relaxed atomic slot claim plus six plain stores into
//     preallocated memory — no allocation, no locks, no clock reads;
//   - the runtime records only at lifecycle edges (a session arriving,
//     departing, spilling; a link failing; a snapshot firing), never per
//     session·slot — a steady-state slot with no churn records nothing, so
//     the counting-operator-new probes hold with the recorder on.
//
// When something goes wrong the ring is the first minutes of the incident
// tape: black_box_json() renders the held events plus a registry snapshot
// and a config echo as one self-contained JSON document, and arm_black_box()
// wires that dump into the ARVIS_DCHECK abort path (via
// set_dcheck_failure_hook) and the fatal-signal path, so a crashing run
// leaves its recent history on disk. The EventLoop triggers the same dump on
// a sustained SLO breach (see telemetry/slo.hpp).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "serving/telemetry/registry.hpp"

namespace arvis {

/// What happened. Payload fields `a`/`b` are kind-specific (documented per
/// enumerator); `tid` is the telemetry lane (link index, kClusterTid,
/// kDriverTid — same ids as the phase tracer).
enum class FlightEventKind : std::uint8_t {
  /// Admission accepted a session. a = session id, b = active count after.
  kAdmit,
  /// Admission refused a session. a = session id, b = active count.
  kReject,
  /// A session departed or was closed. a = session id, b = lifetime slots.
  kClose,
  /// Placement admitted a session on a non-first-choice link. a = session
  /// id, b = the link it landed on.
  kPlacementSpill,
  /// Every offered link refused the session. a = session id, b = links
  /// tried.
  kPlacementReject,
  /// A periodic driver snapshot fired. a = active sessions,
  /// b = window utilization.
  kSnapshot,
  /// An SLO entered sustained breach. a = spec index, b = fast-window value.
  kSloBreach,
  /// A breached SLO recovered. a = spec index, b = fast-window value.
  kSloRecover,
  /// A fault-plane control event fired. a = link, b = FaultKind ordinal
  /// (0 = link-down, 1 = link-up, 2 = capacity-scale, 3 = link-degrade).
  kFault,
  /// A displaced session was re-placed on a surviving link. a = session id,
  /// b = the link it landed on.
  kFailover,
  /// A rejected or fault-evicted session was rescheduled by the driver's
  /// retry loop. a = session id, b = attempt number.
  kRetry,
  /// Brownout degradation engaged: quality ceilings lowered. a = utilization
  /// that tripped it, b = active count.
  kBrownoutEnter,
  /// Brownout degradation released: full candidate sets restored.
  /// a = utilization at exit, b = active count.
  kBrownoutExit,
  /// An active session migrated between links mid-stream. a = session id,
  /// b = reason * 1048576 + from_link * 1024 + to_link (reason codes:
  /// 0 = degraded-link handover, 1 = rebalance-on-departure, 2 = explicit
  /// migrate_session call). The 10-bit link fields are why EdgeCluster
  /// refuses more than 1024 links.
  kMigration,
};

const char* to_string(FlightEventKind kind) noexcept;

/// One recorded event. seq is the 1-based global record number, so dumps
/// show exactly how many events the wrap discarded before the window.
struct FlightEvent {
  std::uint64_t seq = 0;
  std::size_t slot = 0;
  std::uint32_t tid = 0;
  FlightEventKind kind = FlightEventKind::kAdmit;
  double a = 0.0;
  double b = 0.0;
};

struct FlightRecorderConfig {
  /// Ring capacity in events; once full the oldest are overwritten
  /// (dropped() reports how many). Preallocated at construction.
  std::size_t capacity = 4096;
};

class FlightRecorder {
 public:
  /// Throws std::invalid_argument on zero capacity.
  explicit FlightRecorder(const FlightRecorderConfig& config = {});

  /// Stores one event (overwrites the oldest once the ring is full). The
  /// slot claim is a relaxed fetch-add, so concurrent recorders from
  /// different threads write distinct ring slots; the payload stores are
  /// plain (readers consume the ring only at quiescent points — dumps and
  /// end-of-run exports).
  void record(FlightEventKind kind, std::size_t slot, std::uint32_t tid,
              double a = 0.0, double b = 0.0) noexcept {
    const std::uint64_t n = next_.fetch_add(1, std::memory_order_relaxed);
    FlightEvent& e = ring_[static_cast<std::size_t>(n % ring_.size())];
    e.seq = n + 1;
    e.slot = slot;
    e.tid = tid;
    e.kind = kind;
    e.a = a;
    e.b = b;
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return ring_.size(); }

  /// Events ever recorded, including overwritten ones.
  [[nodiscard]] std::uint64_t recorded_total() const noexcept {
    return next_.load(std::memory_order_relaxed);
  }
  /// Events currently held (min(recorded_total, capacity)).
  [[nodiscard]] std::size_t size() const noexcept {
    const std::uint64_t total = recorded_total();
    return total < ring_.size() ? static_cast<std::size_t>(total)
                                : ring_.size();
  }
  /// Events lost to ring wraparound.
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    const std::uint64_t total = recorded_total();
    return total > ring_.size() ? total - ring_.size() : 0;
  }

  /// i-th held event, oldest first (i < size()).
  [[nodiscard]] const FlightEvent& at(std::size_t i) const noexcept {
    const std::uint64_t total = recorded_total();
    if (total <= ring_.size()) return ring_[i];
    return ring_[static_cast<std::size_t>((total + i) % ring_.size())];
  }

 private:
  std::vector<FlightEvent> ring_;
  std::atomic<std::uint64_t> next_{0};
};

/// The process-global recorder every runtime records into by default (see
/// TelemetryConfig::flight for a per-run override). Constructed on first
/// use with the default capacity; lives for the process.
FlightRecorder& global_flight_recorder();

/// Resolves a config's recorder wiring: the caller-supplied override when
/// set, the process-global ring otherwise. Called once per runtime
/// construction — the hot path keeps the resolved pointer.
FlightRecorder* resolve_flight_recorder(const TelemetryConfig& config) noexcept;

/// Renders the recorder as a self-contained JSON black box: the held events
/// (oldest first), the recorder's own stats, `config_echo` verbatim under
/// "config" (must be a valid JSON value; empty = null), and the registry's
/// full snapshot under "registry" (null registry = null).
[[nodiscard]] std::string black_box_json(const FlightRecorder& recorder,
                                         const TelemetryRegistry* registry,
                                         std::string_view config_echo);

/// black_box_json() to a file. IoError on failure.
[[nodiscard]] Status write_black_box(const std::string& path,
                                     const FlightRecorder& recorder,
                                     const TelemetryRegistry* registry,
                                     std::string_view config_echo);

/// Crash-dump arming: where the black box lands when the process dies.
struct BlackBoxArming {
  /// Dump file path (required).
  std::string path;
  /// Recorder to dump; nullptr = the process-global one.
  const FlightRecorder* recorder = nullptr;
  /// Registry snapshot to embed; nullptr = omitted.
  const TelemetryRegistry* registry = nullptr;
  /// JSON value echoed under "config" (empty = null).
  std::string config_echo;
  /// Also install fatal-signal handlers (SIGSEGV/SIGBUS/SIGILL/SIGFPE) that
  /// dump before re-raising. Best-effort — a corrupted heap may defeat the
  /// dump — and skipped under ASan/TSan builds, whose own handlers must win.
  bool signal_handlers = true;
};

/// Arms the crash dump: installs the ARVIS_DCHECK failure hook (and,
/// optionally, fatal-signal handlers) so the process writes `arming.path`
/// on its way down. The recorder/registry must outlive the arming. Re-arming
/// replaces the previous arming.
void arm_black_box(const BlackBoxArming& arming);

/// Removes the hook and forgets the arming (signal handlers are restored to
/// their defaults). Safe to call when never armed.
void disarm_black_box() noexcept;

}  // namespace arvis

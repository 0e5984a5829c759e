#include "serving/driver/trace.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <variant>

namespace arvis {

namespace {

/// The header for a given optional-column mix. Every option rides only when
/// used (f_delay additionally requires the fault columns), so six
/// permutations exist; parse accepts them all, serialization picks the
/// smallest that fits the trace.
std::vector<std::string> trace_header(bool with_close, bool with_fault,
                                      bool with_delay) {
  std::vector<std::string> header{"t_arrive", "duration", "profile", "weight",
                                  "qos"};
  if (with_close) header.push_back("t_close");
  if (with_fault) {
    header.insert(header.end(), {"fault", "f_link", "f_slot", "f_scale"});
    if (with_delay) header.push_back("f_delay");
  }
  return header;
}

/// A non-negative integer cell. The CSV parser types numeric-looking fields
/// for us, but a hand-edited file may carry an integral double ("12.0").
bool cell_to_size(const CsvCell& cell, std::size_t& out) {
  if (const auto* i = std::get_if<std::int64_t>(&cell)) {
    if (*i < 0) return false;
    out = static_cast<std::size_t>(*i);
    return true;
  }
  if (const auto* d = std::get_if<double>(&cell)) {
    if (*d < 0.0 || *d != std::floor(*d) ||
        *d > 9.007199254740992e15) {  // 2^53: beyond it doubles skip integers
      return false;
    }
    out = static_cast<std::size_t>(*d);
    return true;
  }
  return false;
}

bool cell_to_double(const CsvCell& cell, double& out) {
  if (const auto* d = std::get_if<double>(&cell)) {
    out = *d;
    return true;
  }
  if (const auto* i = std::get_if<std::int64_t>(&cell)) {
    out = static_cast<double>(*i);
    return true;
  }
  return false;
}

}  // namespace

const char* to_string(QosClass qos) noexcept {
  switch (qos) {
    case QosClass::kBestEffort: return "best-effort";
    case QosClass::kStandard: return "standard";
    case QosClass::kPremium: return "premium";
  }
  return "?";
}

Result<QosClass> parse_qos_class(const std::string& text) {
  if (text == "best-effort") return QosClass::kBestEffort;
  if (text == "standard") return QosClass::kStandard;
  if (text == "premium") return QosClass::kPremium;
  return Status::ParseError("unknown qos class: \"" + text + "\"");
}

double default_qos_weight(QosClass qos) noexcept {
  switch (qos) {
    case QosClass::kBestEffort: return 0.5;
    case QosClass::kStandard: return 1.0;
    case QosClass::kPremium: return 2.0;
  }
  return 1.0;
}

std::size_t WorkloadTrace::arrival_horizon() const noexcept {
  return events.empty() ? 0 : events.back().t_arrive + 1;
}

CsvTable WorkloadTrace::to_table() const {
  // Optional columns ride only when used, so close-free fault-free traces
  // serialize to the legacy five-column file byte for byte.
  bool any_close = false;
  for (const TraceEvent& e : events) {
    if (e.t_close != 0) {
      any_close = true;
      break;
    }
  }
  const bool any_fault = !faults.empty();
  bool any_delay = false;
  for (const FaultEvent& f : faults) {
    if (f.delay != 0.0) {
      any_delay = true;
      break;
    }
  }
  CsvTable table(trace_header(any_close, any_fault, any_delay));
  // Fault j rides row j; the streams are independent, so whichever is
  // shorter pads its cells with empties (a trace can be all faults).
  const std::size_t rows = std::max(events.size(), faults.size());
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<CsvCell> row;
    if (r < events.size()) {
      const TraceEvent& e = events[r];
      row = {static_cast<std::int64_t>(e.t_arrive),
             static_cast<std::int64_t>(e.duration),
             static_cast<std::int64_t>(e.profile), e.weight,
             std::string(to_string(e.qos))};
      if (any_close) row.push_back(static_cast<std::int64_t>(e.t_close));
    } else {
      row.assign(any_close ? 6 : 5, std::monostate{});
    }
    if (any_fault) {
      if (r < faults.size()) {
        const FaultEvent& f = faults[r];
        row.push_back(std::string(to_string(f.kind)));
        row.push_back(static_cast<std::int64_t>(f.link));
        row.push_back(static_cast<std::int64_t>(f.slot));
        if (fault_carries_scale(f.kind)) {
          row.push_back(f.scale);
        } else {
          // Non-scale faults carry exactly 1.0 in memory (validated), so an
          // empty cell loses nothing and the round-trip stays exact.
          row.push_back(std::monostate{});
        }
        if (any_delay) {
          if (f.kind == FaultKind::kLinkDegrade) {
            row.push_back(f.delay);
          } else {
            // Same contract as f_scale: non-degrade faults carry exactly
            // 0.0 in memory (validated).
            row.push_back(std::monostate{});
          }
        }
      } else {
        row.insert(row.end(), any_delay ? 5 : 4, std::monostate{});
      }
    }
    table.add_row(std::move(row));
  }
  return table;
}

Status WorkloadTrace::write_csv_file(const std::string& path) const {
  return to_table().write_file(path);
}

Status validate_workload_trace(const WorkloadTrace& trace,
                               std::size_t profile_count) {
  std::size_t previous_arrival = 0;
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const TraceEvent& e = trace.events[i];
    const std::string row = "trace event " + std::to_string(i);
    if (e.t_arrive < previous_arrival) {
      return Status::InvalidArgument(row + ": t_arrive decreases");
    }
    previous_arrival = e.t_arrive;
    if (!std::isfinite(e.weight) || e.weight < 0.0) {
      return Status::InvalidArgument(row + ": weight must be finite and >= 0");
    }
    if (profile_count > 0 && e.profile >= profile_count) {
      return Status::InvalidArgument(
          row + ": profile id " + std::to_string(e.profile) +
          " out of range (have " + std::to_string(profile_count) +
          " profiles)");
    }
    if (e.t_close != 0 && e.t_close <= e.t_arrive) {
      return Status::InvalidArgument(row +
                                     ": t_close must be 0 or > t_arrive");
    }
  }
  // Link bounds stay unchecked here (0): the trace does not know the
  // cluster shape; the replayer validates against its link count.
  FaultPlan plan;
  plan.events = trace.faults;
  return validate_fault_plan(plan, 0);
}

Result<WorkloadTrace> parse_workload_trace(const CsvTable& table) {
  bool has_close = false;
  bool has_fault = false;
  bool has_delay = false;
  bool known = false;
  for (const bool close : {false, true}) {
    for (const bool fault : {false, true}) {
      for (const bool delay : {false, true}) {
        if (delay && !fault) continue;  // f_delay rides the fault columns
        if (table.header() == trace_header(close, fault, delay)) {
          has_close = close;
          has_fault = fault;
          has_delay = delay;
          known = true;
        }
      }
    }
  }
  if (!known) {
    return Status::ParseError(
        "workload trace: expected header "
        "t_arrive,duration,profile,weight,qos[,t_close]"
        "[,fault,f_link,f_slot,f_scale[,f_delay]]");
  }
  const std::size_t session_columns = has_close ? 6 : 5;
  WorkloadTrace trace;
  trace.events.reserve(table.row_count());
  for (std::size_t r = 0; r < table.row_count(); ++r) {
    const std::string row = "workload trace row " + std::to_string(r);
    // A row whose session cells are all empty carries only a fault (the
    // fault stream outlived the arrival stream).
    const bool fault_only =
        std::holds_alternative<std::monostate>(table.at(r, 0));
    if (fault_only) {
      if (!has_fault) {
        return Status::ParseError(row + ": empty t_arrive");
      }
      for (std::size_t c = 1; c < session_columns; ++c) {
        if (!std::holds_alternative<std::monostate>(table.at(r, c))) {
          return Status::ParseError(
              row + ": fault-only rows must leave every session cell empty");
        }
      }
    } else {
      TraceEvent e;
      std::size_t profile = 0;
      if (!cell_to_size(table.at(r, 0), e.t_arrive)) {
        return Status::ParseError(row + ": t_arrive must be an integer >= 0");
      }
      if (!cell_to_size(table.at(r, 1), e.duration)) {
        return Status::ParseError(row + ": duration must be an integer >= 0");
      }
      if (!cell_to_size(table.at(r, 2), profile) ||
          profile > std::numeric_limits<std::uint32_t>::max()) {
        return Status::ParseError(row + ": bad profile id");
      }
      e.profile = static_cast<std::uint32_t>(profile);
      if (!cell_to_double(table.at(r, 3), e.weight)) {
        return Status::ParseError(row + ": weight must be numeric");
      }
      const auto* qos = std::get_if<std::string>(&table.at(r, 4));
      if (qos == nullptr) {
        return Status::ParseError(row + ": qos must be a string");
      }
      const Result<QosClass> parsed = parse_qos_class(*qos);
      if (!parsed.ok()) {
        return Status::ParseError(row + ": " + parsed.status().message());
      }
      e.qos = *parsed;
      if (has_close && !cell_to_size(table.at(r, 5), e.t_close)) {
        return Status::ParseError(row + ": t_close must be an integer >= 0");
      }
      trace.events.push_back(e);
    }
    if (has_fault) {
      const CsvCell& kind_cell = table.at(r, session_columns);
      if (std::holds_alternative<std::monostate>(kind_cell)) {
        if (fault_only) {
          return Status::ParseError(row + ": fault-only row without a fault");
        }
        for (std::size_t c = 1; c < (has_delay ? 5u : 4u); ++c) {
          if (!std::holds_alternative<std::monostate>(
                  table.at(r, session_columns + c))) {
            return Status::ParseError(
                row + ": fault cells must be all empty or a full fault");
          }
        }
        continue;
      }
      const auto* kind_text = std::get_if<std::string>(&kind_cell);
      FaultEvent f;
      if (kind_text == nullptr || !parse_fault_kind(*kind_text, f.kind)) {
        return Status::ParseError(row + ": unknown fault kind");
      }
      std::size_t link = 0;
      if (!cell_to_size(table.at(r, session_columns + 1), link) ||
          link > std::numeric_limits<std::uint32_t>::max()) {
        return Status::ParseError(row + ": bad f_link");
      }
      f.link = static_cast<std::uint32_t>(link);
      if (!cell_to_size(table.at(r, session_columns + 2), f.slot)) {
        return Status::ParseError(row + ": f_slot must be an integer >= 0");
      }
      const CsvCell& scale_cell = table.at(r, session_columns + 3);
      if (fault_carries_scale(f.kind)) {
        if (!cell_to_double(scale_cell, f.scale)) {
          return Status::ParseError(
              row + ": scale-carrying fault needs f_scale");
        }
      } else if (!std::holds_alternative<std::monostate>(scale_cell)) {
        return Status::ParseError(
            row + ": f_scale is only meaningful for scale-carrying faults");
      }
      if (has_delay) {
        const CsvCell& delay_cell = table.at(r, session_columns + 4);
        if (f.kind == FaultKind::kLinkDegrade) {
          if (!cell_to_double(delay_cell, f.delay)) {
            return Status::ParseError(row +
                                      ": link-degrade fault needs f_delay");
          }
        } else if (!std::holds_alternative<std::monostate>(delay_cell)) {
          return Status::ParseError(
              row + ": f_delay is only meaningful for link-degrade faults");
        }
      }
      trace.faults.push_back(f);
    }
  }
  if (const Status status = validate_workload_trace(trace); !status.ok()) {
    return Status::ParseError(status.message());
  }
  return trace;
}

Result<WorkloadTrace> load_workload_trace(const std::string& path) {
  Result<CsvTable> table = read_csv_file(path);
  if (!table.ok()) return table.status();
  return parse_workload_trace(*table);
}

}  // namespace arvis

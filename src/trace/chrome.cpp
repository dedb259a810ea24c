#include "trace/chrome.hpp"

#include <cinttypes>
#include <cstdio>
#include <sstream>

namespace buffy::trace {

namespace {

// Per-kind argument labels, part of the trace schema (DESIGN.md §8).
struct ArgNames {
  const char* arg0;
  const char* arg1;        // null = arg1 unused (not emitted)
  bool arg1_is_double = false;  // arg1 holds IEEE-754 double bits
};

ArgNames arg_names(EventKind kind) {
  switch (kind) {
    case EventKind::Exploration: return {"engine", "channels"};
    case EventKind::Simulation: return {"size", "states"};
    case EventKind::Wave: return {"candidates", "size"};
    case EventKind::SizeEval: return {"size", nullptr};
    case EventKind::CacheHit: return {"size", nullptr};
    case EventKind::DominanceSkip: return {"size", nullptr};
    case EventKind::EngineReset: return {"size", nullptr};
    case EventKind::ParetoPoint: return {"size", "throughput", true};
    case EventKind::LpPrune: return {"size", nullptr};
    case EventKind::BoxHit: return {"size", nullptr};
  }
  return {"arg0", "arg1"};
}

// Microseconds with nanosecond precision, as Chrome expects.
void print_us(std::ostream& out, std::int64_t ns) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%" PRId64 ".%03d", ns / 1000,
                static_cast<int>(ns % 1000));
  out << buf;
}

}  // namespace

void write_chrome_trace(const std::vector<Event>& events, std::ostream& out) {
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  for (const Event& e : events) {
    if (!first) out << ",";
    first = false;
    out << "\n  {\"name\": \"" << kind_name(e.kind)
        << "\", \"cat\": \"buffy\", \"pid\": 1, \"tid\": " << e.thread
        << ", \"ts\": ";
    print_us(out, e.ts_ns);
    if (e.dur_ns >= 0) {
      out << ", \"ph\": \"X\", \"dur\": ";
      print_us(out, e.dur_ns);
    } else {
      out << ", \"ph\": \"i\", \"s\": \"t\"";
    }
    const ArgNames names = arg_names(e.kind);
    out << ", \"args\": {\"" << names.arg0 << "\": " << e.arg0;
    if (names.arg1 != nullptr) {
      out << ", \"" << names.arg1 << "\": ";
      if (names.arg1_is_double) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", e.arg1_bits_as_double());
        out << buf;
      } else {
        out << e.arg1;
      }
    }
    out << ", \"seq\": " << e.seq << "}}";
  }
  out << "\n]}\n";
}

std::string chrome_trace_json(const std::vector<Event>& events) {
  std::ostringstream out;
  write_chrome_trace(events, out);
  return out.str();
}

}  // namespace buffy::trace

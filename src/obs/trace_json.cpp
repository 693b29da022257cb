#include "obs/trace_json.hpp"

#include <cinttypes>
#include <cstdio>
#include <string>

#include "obs/json.hpp"

namespace ppscan::obs {
namespace {

const char* slot_name(const TraceCollector& tc, int slot) {
  if (slot == tc.master_slot()) return "master";
  return nullptr;  // workers are named with their index below
}

void append_us(std::string& out, std::uint64_t ns) {
  // Microseconds with ns precision kept as a decimal fraction.
  char buf[40];
  std::snprintf(buf, sizeof buf, "%" PRIu64 ".%03u", ns / 1000,
                static_cast<unsigned>(ns % 1000));
  out += buf;
}

void write_event(std::string& out, int tid, const TraceEvent& ev, bool& first) {
  const char* ph = nullptr;
  switch (ev.kind) {
    case TraceEventKind::PhaseBegin:
      ph = "B";
      break;
    case TraceEventKind::PhaseEnd:
      ph = "E";
      break;
    case TraceEventKind::TaskRun:
      ph = "X";
      break;
    case TraceEventKind::TaskSkip:
    case TraceEventKind::Steal:
    case TraceEventKind::GovernorTrip:
    case TraceEventKind::KernelDispatch:
    case TraceEventKind::Mark:
      ph = "i";
      break;
    // Async span pair: Perfetto groups "b"/"e" rows by (cat, id), which
    // is what turns per-query events into per-query swimlanes — unlike
    // B/E, overlapping spans from interleaved queries need not nest.
    case TraceEventKind::SpanBegin:
      ph = "b";
      break;
    case TraceEventKind::SpanEnd:
      ph = "e";
      break;
  }
  if (!first) out += ",\n";
  first = false;
  out += R"({"name":")";
  out += json_escape(ev.name == nullptr ? "(null)" : ev.name);
  out += R"(","ph":")";
  out += ph;
  out += R"(","pid":0,"tid":)";
  out += std::to_string(tid);
  out += R"(,"ts":)";
  append_us(out, ev.t_ns);
  if (ev.kind == TraceEventKind::TaskRun) {
    out += R"(,"dur":)";
    append_us(out, ev.dur_ns);
  }
  if (ph[0] == 'i') out += R"(,"s":"t")";
  if (ph[0] == 'b' || ph[0] == 'e') {
    out += R"(,"cat":"serve","id":)";
    out += std::to_string(ev.arg);
  }
  out += R"(,"args":{"arg":)";
  out += std::to_string(ev.arg);
  out += "}}";
}

void write_thread_name(std::string& out, int tid, const std::string& name,
                       bool& first) {
  if (!first) out += ",\n";
  first = false;
  out += R"({"name":"thread_name","ph":"M","pid":0,"tid":)";
  out += std::to_string(tid);
  out += R"(,"args":{"name":")";
  out += json_escape(name);
  out += R"("}})";
}

}  // namespace

void write_chrome_trace(std::ostream& out, const TraceCollector& tc) {
  std::string body;
  bool first = true;
  for (int slot = 0; slot < tc.num_slots(); ++slot) {
    const char* fixed = slot_name(tc, slot);
    const std::string name =
        fixed != nullptr ? fixed : "worker " + std::to_string(slot);
    write_thread_name(body, slot, name, first);
  }
  for (int slot = 0; slot < tc.num_slots(); ++slot) {
    for (const TraceEvent& ev : tc.buffer(slot).snapshot()) {
      write_event(body, slot, ev, first);
    }
  }
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
      << body << "\n]}\n";
}

}  // namespace ppscan::obs

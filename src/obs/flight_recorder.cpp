#include "obs/flight_recorder.hpp"

#include <atomic>
#include <csignal>
#include <cstring>
#include <fstream>

#include <fcntl.h>
#include <unistd.h>

#include "util/sigsafe.hpp"

namespace ppscan::obs {
namespace {

void copy_field(char* dst, std::size_t cap, const char* src) {
  if (src == nullptr) src = "";
  std::size_t i = 0;
  for (; i + 1 < cap && src[i] != '\0'; ++i) dst[i] = src[i];
  dst[i] = '\0';
}

}  // namespace

FlightRecorder::FlightRecorder(std::size_t capacity)
    : ring_capacity_(capacity == 0 ? 1 : capacity),
      epoch_(std::chrono::steady_clock::now()) {
  CheckedLock lock(flight_mu);
  ring_.resize(ring_capacity_);
}

void FlightRecorder::record(EventKind kind, const char* label,
                            std::uint64_t id, const char* detail) {
  Event ev;
  ev.t_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
  ev.id = id;
  ev.kind = kind;
  copy_field(ev.label, kLabelBytes, label);
  copy_field(ev.detail, kDetailBytes, detail);

  CheckedLock lock(flight_mu);
  ring_[next_] = ev;
  next_ = (next_ + 1) % ring_capacity_;
  ++recorded_count_;
}

std::vector<FlightRecorder::Event> FlightRecorder::events() const {
  CheckedLock lock(flight_mu);
  std::vector<Event> out;
  const std::size_t live = recorded_count_ < ring_capacity_
                               ? static_cast<std::size_t>(recorded_count_)
                               : ring_capacity_;
  out.reserve(live);
  // Oldest first: when the ring has wrapped, next_ points at the oldest.
  const std::size_t start =
      recorded_count_ < ring_capacity_ ? 0 : next_;
  for (std::size_t i = 0; i < live; ++i) {
    out.push_back(ring_[(start + i) % ring_capacity_]);
  }
  return out;
}

std::uint64_t FlightRecorder::recorded() const {
  CheckedLock lock(flight_mu);
  return recorded_count_;
}

const char* FlightRecorder::kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::Lifecycle: return "lifecycle";
    case EventKind::Admission: return "admission";
    case EventKind::Refusal: return "refusal";
    case EventKind::Exception: return "exception";
  }
  return "?";
}

JsonValue FlightRecorder::dump_json(const char* reason) const {
  JsonValue doc = JsonValue::object();
  doc.set("schema", JsonValue::string("ppscan-flight-v1"));
  doc.set("reason", JsonValue::string(reason == nullptr ? "" : reason));
  doc.set("capacity", JsonValue::number_u64(ring_capacity_));
  doc.set("recorded", JsonValue::number_u64(recorded()));
  JsonValue rows = JsonValue::array();
  for (const Event& ev : events()) {
    JsonValue row = JsonValue::object();
    row.set("t_ns", JsonValue::number_u64(ev.t_ns));
    row.set("kind", JsonValue::string(kind_name(ev.kind)));
    row.set("label", JsonValue::string(ev.label));
    row.set("id", JsonValue::number_u64(ev.id));
    row.set("detail", JsonValue::string(ev.detail));
    rows.push(std::move(row));
  }
  doc.set("events", std::move(rows));
  return doc;
}

bool FlightRecorder::dump_to_file(const std::string& path,
                                  const char* reason) const {
  std::ofstream out(path);
  if (!out) return false;
  out << dump_json(reason).dump(2) << "\n";
  return static_cast<bool>(out);
}

// The crash path: no locks (the crashing thread may hold flight_mu), no
// heap, write()-only. Reading the ring racily can yield one torn event;
// the dump is explicitly best-effort and the validator tolerates any
// byte content inside the fixed-width fields.
void FlightRecorder::dump_signal_safe(int fd, const char* reason) const
    PPSCAN_NO_THREAD_SAFETY_ANALYSIS {
  namespace ss = util::sigsafe;
  char buf[512];
  std::size_t pos = 0;
  pos = ss::append_str(buf, sizeof buf, pos,
                       "{\"schema\":\"ppscan-flight-v1\",\"reason\":\"");
  pos = ss::append_json_str(buf, sizeof buf, pos,
                            reason == nullptr ? "" : reason);
  pos = ss::append_str(buf, sizeof buf, pos, "\",\"capacity\":");
  pos = ss::append_u64(buf, sizeof buf, pos, ring_capacity_);
  pos = ss::append_str(buf, sizeof buf, pos, ",\"recorded\":");
  pos = ss::append_u64(buf, sizeof buf, pos, recorded_count_);
  pos = ss::append_str(buf, sizeof buf, pos, ",\"events\":[");
  ss::write_all(fd, buf, pos);

  const std::size_t live = recorded_count_ < ring_capacity_
                               ? static_cast<std::size_t>(recorded_count_)
                               : ring_capacity_;
  const std::size_t start =
      recorded_count_ < ring_capacity_ ? 0 : next_;
  for (std::size_t i = 0; i < live; ++i) {
    const Event& ev = ring_[(start + i) % ring_capacity_];
    pos = 0;
    if (i > 0) pos = ss::append_str(buf, sizeof buf, pos, ",");
    pos = ss::append_str(buf, sizeof buf, pos, "{\"t_ns\":");
    pos = ss::append_u64(buf, sizeof buf, pos, ev.t_ns);
    pos = ss::append_str(buf, sizeof buf, pos, ",\"kind\":\"");
    pos = ss::append_str(buf, sizeof buf, pos, kind_name(ev.kind));
    pos = ss::append_str(buf, sizeof buf, pos, "\",\"label\":\"");
    pos = ss::append_json_str(buf, sizeof buf, pos, ev.label);
    pos = ss::append_str(buf, sizeof buf, pos, "\",\"id\":");
    pos = ss::append_u64(buf, sizeof buf, pos, ev.id);
    pos = ss::append_str(buf, sizeof buf, pos, ",\"detail\":\"");
    pos = ss::append_json_str(buf, sizeof buf, pos, ev.detail);
    pos = ss::append_str(buf, sizeof buf, pos, "\"}");
    ss::write_all(fd, buf, pos);
  }
  ss::write_all(fd, "]}\n", 3);
}

bool validate_flight_json(const JsonValue& doc, std::string* error) {
  const auto fail = [error](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  if (!doc.is_object()) return fail("flight: document is not an object");
  if (!doc.has("schema") || !doc.at("schema").is_string() ||
      doc.at("schema").as_string() != "ppscan-flight-v1") {
    return fail("flight: schema key missing or not 'ppscan-flight-v1'");
  }
  if (!doc.has("reason") || !doc.at("reason").is_string() ||
      doc.at("reason").as_string().empty()) {
    return fail("flight: reason missing or empty");
  }
  for (const char* key : {"capacity", "recorded"}) {
    if (!doc.has(key) || !doc.at(key).is_number()) {
      return fail(std::string("flight: ") + key + " missing or not a number");
    }
  }
  if (!doc.has("events") || !doc.at("events").is_array()) {
    return fail("flight: events missing or not an array");
  }
  const auto& rows = doc.at("events");
  if (rows.size() > doc.at("capacity").as_u64()) {
    return fail("flight: more events than capacity");
  }
  static const char* kKinds[] = {"lifecycle", "admission", "refusal",
                                 "exception"};
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& row = rows.at(i);
    const std::string at = "flight: events[" + std::to_string(i) + "]";
    if (!row.is_object()) return fail(at + " is not an object");
    for (const char* key : {"t_ns", "id"}) {
      if (!row.has(key) || !row.at(key).is_number()) {
        return fail(at + "." + key + " missing or not a number");
      }
    }
    for (const char* key : {"kind", "label", "detail"}) {
      if (!row.has(key) || !row.at(key).is_string()) {
        return fail(at + "." + key + " missing or not a string");
      }
    }
    bool known = false;
    for (const char* k : kKinds) known |= row.at("kind").as_string() == k;
    if (!known) {
      return fail(at + ".kind unknown: " + row.at("kind").as_string());
    }
  }
  return true;
}

namespace {

// Fatal-signal dump registration. The handler runs on the crashing
// thread; it acquire-loads the recorder pointer (paired with the release
// store in install_flight_signal_dump, which also publishes the path
// bytes written before it).
// protocol: release-acquire — installer release-stores after writing
// g_flight_path; the signal handler acquire-loads before reading it.
std::atomic<const FlightRecorder*> g_flight_recorder{nullptr};
char g_flight_path[256] = {};

extern "C" void flight_signal_handler(int signo) {
  const FlightRecorder* rec =
      g_flight_recorder.load(std::memory_order_acquire);
  if (rec != nullptr) {
    const int fd =
        ::open(g_flight_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      rec->dump_signal_safe(fd, "signal");
      ::close(fd);
    }
  }
  ::signal(signo, SIG_DFL);
  ::raise(signo);
}

}  // namespace

void install_flight_signal_dump(const FlightRecorder* recorder,
                                const char* path) {
  if (recorder == nullptr || path == nullptr) {
    g_flight_recorder.store(nullptr, std::memory_order_release);
    return;
  }
  copy_field(g_flight_path, sizeof g_flight_path, path);
  g_flight_recorder.store(recorder, std::memory_order_release);
  struct sigaction sa = {};
  sa.sa_handler = flight_signal_handler;
  ::sigemptyset(&sa.sa_mask);
  for (int signo : {SIGSEGV, SIGBUS, SIGFPE, SIGABRT}) {
    ::sigaction(signo, &sa, nullptr);
  }
}

}  // namespace ppscan::obs

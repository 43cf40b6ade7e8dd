#include "metrics/recorder.hpp"

#include "common/assert.hpp"
#include "metrics/trace.hpp"

namespace p2plab::metrics {

namespace {

thread_local FlightRecorder* g_active = nullptr;

void crash_dump() {
  FlightRecorder* rec = g_active;
  if (rec == nullptr || rec->rendered_events().empty()) return;
  const std::size_t held = rec->rendered_events().size();
  // Best effort from a dying process: prefer the results dir, fall back to
  // stderr so the post-mortem is never silently lost.
  if (rec->flush_to_results("trace.jsonl")) {
    std::fprintf(stderr,
                 "p2plab: flight recorder dumped %zu events to "
                 "$P2PLAB_RESULTS_DIR/trace.jsonl\n",
                 held);
  } else {
    std::fprintf(stderr, "p2plab: flight recorder (%zu events):\n", held);
    rec->flush(stderr);
  }
}

}  // namespace

FlightRecorder::~FlightRecorder() {
  if (g_active == this) set_active(nullptr);
}

void FlightRecorder::record(SimTime t, std::string_view subsystem,
                            std::string_view kind,
                            std::vector<TraceField> fields) {
  events_.push_back(RenderedEvent{t, render_line(t, subsystem, kind, fields)});
}

std::string FlightRecorder::escape_json(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string FlightRecorder::render_line(SimTime t, std::string_view subsystem,
                                        std::string_view kind,
                                        const std::vector<TraceField>& fields) {
  char num[64];
  std::string out = "{\"t\":";
  std::snprintf(num, sizeof num, "%.9f", t.to_seconds());
  out += num;
  out += ",\"subsystem\":\"";
  out += escape_json(subsystem);
  out += "\",\"kind\":\"";
  out += escape_json(kind);
  out += '"';
  for (const TraceField& f : fields) {
    out += ",\"";
    out += escape_json(f.key);
    out += "\":";
    if (f.numeric) {
      std::snprintf(num, sizeof num, "%.10g", f.num);
      out += num;
    } else {
      out += '"';
      out += escape_json(f.str);
      out += '"';
    }
  }
  out += '}';
  return out;
}

void FlightRecorder::flush(std::FILE* out) const {
  for (const RenderedEvent& ev : events_) {
    std::fputs(ev.line.c_str(), out);
    std::fputc('\n', out);
  }
}

bool FlightRecorder::flush_to_results(const char* filename) const {
  ResultsFile out(filename);
  if (out.stream() == nullptr) return false;
  flush(out.stream());
  return out.close();
}

void FlightRecorder::set_active(FlightRecorder* recorder) {
  g_active = recorder;
  p2plab::detail::g_assert_hook = recorder != nullptr ? &crash_dump : nullptr;
}

FlightRecorder* FlightRecorder::active() { return g_active; }

}  // namespace p2plab::metrics

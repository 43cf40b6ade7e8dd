#include "metrics/recorder.hpp"

#include "common/assert.hpp"
#include "metrics/trace.hpp"

namespace p2plab::metrics {

namespace {

thread_local FlightRecorder* g_active = nullptr;

void crash_dump() {
  FlightRecorder* rec = g_active;
  if (rec == nullptr || rec->size() == 0) return;
  // Best effort from a dying process: prefer the results dir, fall back to
  // stderr so the post-mortem is never silently lost.
  if (rec->flush_to_results("trace.jsonl")) {
    std::fprintf(stderr,
                 "p2plab: flight recorder dumped %zu events to "
                 "$P2PLAB_RESULTS_DIR/trace.jsonl\n",
                 rec->size());
  } else {
    std::fprintf(stderr, "p2plab: flight recorder (%zu events):\n",
                 rec->size());
    rec->flush(stderr);
  }
}

}  // namespace

FlightRecorder::FlightRecorder(std::size_t capacity) {
  P2PLAB_ASSERT(capacity > 0);
  buf_.resize(capacity);
}

FlightRecorder::~FlightRecorder() {
  if (g_active == this) set_active(nullptr);
}

void FlightRecorder::record(SimTime t, std::string_view subsystem,
                            std::string_view kind,
                            std::vector<TraceField> fields) {
  Event& slot = buf_[next_];
  slot.t = t;
  slot.subsystem.assign(subsystem);
  slot.kind.assign(kind);
  slot.fields = std::move(fields);
  next_ = (next_ + 1) % buf_.size();
  ++total_;
}

std::size_t FlightRecorder::size() const {
  return total_ < buf_.size() ? static_cast<std::size_t>(total_)
                              : buf_.size();
}

std::uint64_t FlightRecorder::dropped() const {
  return total_ <= buf_.size() ? 0 : total_ - buf_.size();
}

void FlightRecorder::clear() {
  next_ = 0;
  total_ = 0;
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

std::string FlightRecorder::render_line(const Event& ev) {
  char num[64];
  std::string out = "{\"t\":";
  std::snprintf(num, sizeof num, "%.9f", ev.t.to_seconds());
  out += num;
  out += ",\"subsystem\":\"";
  out += escape_json(ev.subsystem);
  out += "\",\"kind\":\"";
  out += escape_json(ev.kind);
  out += '"';
  for (const TraceField& f : ev.fields) {
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
  const std::size_t held = size();
  const std::size_t start = total_ > buf_.size() ? next_ : 0;
  for (std::size_t i = 0; i < held; ++i) {
    const Event& ev = buf_[(start + i) % buf_.size()];
    std::fputs(render_line(ev).c_str(), out);
    std::fputc('\n', out);
  }
}

std::vector<FlightRecorder::RenderedEvent> FlightRecorder::rendered_events()
    const {
  std::vector<RenderedEvent> out;
  const std::size_t held = size();
  out.reserve(held);
  const std::size_t start = total_ > buf_.size() ? next_ : 0;
  for (std::size_t i = 0; i < held; ++i) {
    const Event& ev = buf_[(start + i) % buf_.size()];
    out.push_back(RenderedEvent{ev.t, render_line(ev)});
  }
  return out;
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

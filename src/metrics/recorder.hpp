// Flight recorder: a bounded ring of structured trace events.
//
// Long runs fail rarely and expensively — a 5760-node experiment that trips
// an assertion after 40 minutes must leave a post-mortem. Subsystems record
// low-rate structured events (subsystem, sim-time, kind, key/value payload)
// into a fixed-capacity ring; the newest events overwrite the oldest, so
// memory stays bounded no matter how long the run. The ring is flushed as
// JSONL to $P2PLAB_RESULTS_DIR/trace.jsonl on demand, and automatically on
// assertion failure via the common/assert.hpp crash hook.
//
// Recording is for *events*, not samples: piece completions, connection
// aborts, health ticks. Per-packet paths use the registry counters instead.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/time.hpp"

namespace p2plab::metrics {

/// One key/value of a trace event payload; numbers and strings only.
struct TraceField {
  std::string key;
  bool numeric;
  double num = 0.0;
  std::string str;

  template <typename T,
            typename = std::enable_if_t<std::is_arithmetic_v<T>>>
  TraceField(std::string k, T v)
      : key(std::move(k)), numeric(true), num(static_cast<double>(v)) {}
  TraceField(std::string k, std::string v)
      : key(std::move(k)), numeric(false), str(std::move(v)) {}
  TraceField(std::string k, const char* v)
      : key(std::move(k)), numeric(false), str(v) {}
};

class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t capacity = 1 << 16);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  void record(SimTime t, std::string_view subsystem, std::string_view kind,
              std::vector<TraceField> fields = {});

  std::size_t capacity() const { return buf_.size(); }
  /// Events currently held (<= capacity).
  std::size_t size() const;
  /// Events recorded over the recorder's lifetime.
  std::uint64_t recorded() const { return total_; }
  /// Events overwritten by ring wraparound.
  std::uint64_t dropped() const;
  void clear();

  /// Write held events, oldest first, one JSON object per line.
  void flush(std::FILE* out) const;
  /// Flush to $P2PLAB_RESULTS_DIR/<filename> (a metrics::ResultsFile);
  /// true iff written.
  bool flush_to_results(const char* filename = "trace.jsonl") const;

  /// One held event rendered to the exact bytes flush() would write for it
  /// (sans trailing newline), paired with its timestamp as a sort key.
  struct RenderedEvent {
    SimTime t;
    std::string line;
  };
  /// Render held events, oldest first. The parallel engine merges the
  /// per-shard rings into one time-sorted trace from these; because the
  /// bytes match flush(), the merged file of K shards is byte-identical to
  /// a single recorder's flush when no ring dropped events.
  std::vector<RenderedEvent> rendered_events() const;

  /// The active recorder used by P2PLAB_TRACE and dumped on assertion
  /// failure (to trace.jsonl, or stderr without a results dir). Thread
  /// local: each parallel-engine worker activates its shard's recorder for
  /// the duration of the run, so recording never crosses threads.
  /// Pass nullptr to deactivate; destruction deactivates automatically.
  static void set_active(FlightRecorder* recorder);
  static FlightRecorder* active();

  /// JSON string-body escaping (exposed for tests).
  static std::string escape_json(std::string_view s);

 private:
  struct Event {
    SimTime t;
    std::string subsystem;
    std::string kind;
    std::vector<TraceField> fields;
  };

  static std::string render_line(const Event& ev);

  std::vector<Event> buf_;
  std::size_t next_ = 0;   // slot the next record lands in
  std::uint64_t total_ = 0;
};

}  // namespace p2plab::metrics

/// Record a trace event iff a recorder is active; the payload expression is
/// not evaluated otherwise (free when tracing is off).
/// Usage: P2PLAB_TRACE(sim.now(), "bt", "torrent_complete",
///                     {{"ip", ip_str}, {"secs", t.to_seconds()}});
#define P2PLAB_TRACE(t, subsystem, kind, ...)                            \
  do {                                                                   \
    if (auto* p2plab_rec_ = ::p2plab::metrics::FlightRecorder::active()) \
      p2plab_rec_->record((t), (subsystem), (kind), __VA_ARGS__);        \
  } while (0)

// Flight recorder: the complete log of a run's structured trace events.
//
// Long runs fail rarely and expensively — a 5760-node experiment that trips
// an assertion after 40 minutes must leave a post-mortem. Subsystems record
// low-rate structured events (subsystem, sim-time, kind, key/value payload);
// each is rendered to its JSONL line once, at record time, and appended, so
// nothing is ever dropped and memory grows only with what was recorded. The
// log is flushed to $P2PLAB_RESULTS_DIR/trace.jsonl on demand, and
// automatically on assertion failure via the common/assert.hpp crash hook.
//
// Recording is for *events*, not samples: fault injections and recoveries,
// failed announces, torrent completions. Per-packet paths use the registry
// counters instead.
#pragma once

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
  FlightRecorder() = default;
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  void record(SimTime t, std::string_view subsystem, std::string_view kind,
              std::vector<TraceField> fields = {});

  /// Write every recorded event, in record order, one JSON object per line.
  void flush(std::FILE* out) const;
  /// Flush to $P2PLAB_RESULTS_DIR/<filename> (a metrics::ResultsFile);
  /// true iff written.
  bool flush_to_results(const char* filename = "trace.jsonl") const;

  /// One recorded event rendered to the exact bytes flush() writes for it
  /// (sans trailing newline), paired with its timestamp as a sort key.
  struct RenderedEvent {
    SimTime t;
    std::string line;
  };
  /// Every recorded event, in record order. The parallel engine merges the
  /// per-shard logs into one time-sorted trace from these; because the
  /// bytes match flush(), the merged file of K shards is byte-identical to
  /// a single recorder's flush.
  const std::vector<RenderedEvent>& rendered_events() const {
    return events_;
  }

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
  static std::string render_line(SimTime t, std::string_view subsystem,
                                 std::string_view kind,
                                 const std::vector<TraceField>& fields);

  std::vector<RenderedEvent> events_;
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

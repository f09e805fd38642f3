// Bench-side span tracer: spans recorded around calls into the program's
// layers, kept in memory and written out as Chrome trace-event JSON (opens
// in Perfetto or chrome://tracing), plus a per-span self-time table.
//
// Off unless Tracer::Enable() ran; a disabled ScopedSpan costs one load.
// A span's parent is the innermost open span of its own thread, or — for
// spans on pool threads with nothing open — the innermost open *ambient*
// span (the phase or virtual iteration the coordinating thread is in), so
// storage calls made from worker threads still nest under their phase.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic clock in nanoseconds (CLOCK_MONOTONIC: comparable across the
/// benchmark's processes, so worker spans merge into one timeline).
int64_t NowNs();

struct SpanEvent {
  std::string name;
  std::string layer;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int pid = 0;
  int tid = 0;
  int64_t id = 0;
  int64_t parent = 0;  // 0 = root
};

/// One row of the self-time table: all spans of one name.
struct SpanSummary {
  std::string layer;
  std::string name;
  int64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

class Tracer {
 public:
  /// Turns recording on for this process.
  static void Enable();
  static bool enabled();

  /// Opens a span on the calling thread; returns its id (0 when off).
  /// `ambient` spans become the parent of spans opened on threads that
  /// have nothing open themselves.
  static int64_t Begin(const char* name, const char* layer,
                       bool ambient = false);
  /// Closes the innermost open span of the calling thread, which must be
  /// `id`; a non-null `rename` replaces the name given at Begin.
  static void End(int64_t id, const char* rename = nullptr);
  /// Records an already-finished span (the worker processes' spans, merged
  /// after they exit).
  static void AddForeign(SpanEvent event);

  /// Every recorded span, ordered by start time.
  static std::vector<SpanEvent> Snapshot();
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, const char* layer, bool ambient = false)
      : id_(Tracer::enabled() ? Tracer::Begin(name, layer, ambient) : 0) {}
  ~ScopedSpan() {
    if (id_ != 0) Tracer::End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int64_t id_;
};

/// Self time of every span (its duration minus the union of its
/// children's intervals), summed per (layer, name), largest self first.
std::vector<SpanSummary> SummarizeSelfTime(
    const std::vector<SpanEvent>& events);

/// Chrome trace-event JSON ("X" complete events, microsecond timestamps).
/// `other_data` is a rendered JSON object stored under "otherData".
std::string RenderChromeTrace(const std::vector<SpanEvent>& events,
                              const std::string& other_data);

/// Spans as a compact JSON array (the worker -> coordinator hand-off).
std::string RenderSpanArray(const std::vector<SpanEvent>& events);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_

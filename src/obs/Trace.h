//===- obs/Trace.h - Chrome-trace-event JSON exporter -----------*- C++ -*-===//
//
// The timing half of the observability subsystem: a process-wide
// collector of Chrome trace events (the JSON format chrome://tracing and
// Perfetto load) with spans for pipeline stages, simulator launches,
// worker-pool activity and compile-service requests.
//
// Tracing is off by default and costs one relaxed atomic load per
// potential span while off. It turns on either programmatically
// (TraceCollector::global().enable(path) — descendc --trace-json=<file>)
// or through the DESCEND_TRACE environment variable, parsed with the
// same strictness discipline as DESCEND_WORKERS (parseTraceEnv below):
// unset / "0" / "off" disable silently, "1" / "on" enable with the
// default output path, any other clean token is the output path itself,
// and garbage (empty, whitespace, control characters) disables tracing
// with a one-time stderr warning instead of guessing. The collector
// writes its file when flushed explicitly or from its destructor at
// process exit, so env-driven binaries need no cooperation.
//
//===----------------------------------------------------------------------===//

#ifndef DESCEND_OBS_TRACE_H
#define DESCEND_OBS_TRACE_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace descend::obs {

/// One Chrome trace event. Complete events ("ph":"X") have a duration;
/// instant events ("ph":"i") mark a point in time.
struct TraceEvent {
  std::string Name;
  std::string Cat;
  char Ph = 'X';
  double TsUs = 0;  ///< microseconds since the collector's epoch
  double DurUs = 0; ///< complete events only
  uint32_t Tid = 0;
  std::string ArgsJson; ///< pre-rendered JSON object body, may be empty
};

/// Strict DESCEND_TRACE parser (the DESCEND_WORKERS discipline).
/// Returns true when tracing should be on, with *PathOut set to the
/// output file. On garbage input returns false and, when \p Warning is
/// non-null, fills it with a one-line diagnostic (empty on clean input).
bool parseTraceEnv(const char *Env, std::string *PathOut,
                   std::string *Warning);

/// Default output path used by DESCEND_TRACE=1/on.
inline constexpr const char *DefaultTracePath = "descend_trace.json";

class TraceCollector {
public:
  /// The process-wide collector. First use parses DESCEND_TRACE.
  static TraceCollector &global();

  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }

  /// Turns tracing on and (re)targets the output file. Overrides any
  /// DESCEND_TRACE setting.
  void enable(std::string Path);
  void disable();

  void addComplete(const char *Cat, const char *Name,
                   std::chrono::steady_clock::time_point Begin,
                   std::chrono::steady_clock::time_point End,
                   std::string ArgsJson = {});
  void addInstant(const char *Cat, const char *Name,
                  std::string ArgsJson = {});

  /// Renders the full {"traceEvents":[...]} document.
  std::string renderJson() const;

  /// Writes renderJson() to \p Path; returns false (and warns on stderr)
  /// on I/O failure.
  bool writeTo(const std::string &Path) const;

  /// Writes to the configured path if tracing is enabled and any events
  /// were collected. Safe to call repeatedly; the destructor calls it.
  void flush();

  /// Test hook: drops all collected events and the enabled state.
  void resetForTest();

  size_t eventCount() const;
  const std::string &path() const { return Path; }

  ~TraceCollector() { flush(); }

private:
  TraceCollector();

  std::atomic<bool> Enabled{false};
  mutable std::mutex M;
  std::string Path = DefaultTracePath;
  std::vector<TraceEvent> Events;
  std::chrono::steady_clock::time_point Epoch;
};

/// RAII span: records a complete event over its lifetime. Cheap when
/// tracing is off (one relaxed load in the constructor, one in the
/// destructor). \p Cat and \p Name must outlive the span (string
/// literals in practice).
class Span {
public:
  Span(const char *Cat, const char *Name, std::string ArgsJson = {})
      : Cat(Cat), Name(Name), Args(std::move(ArgsJson)),
        Live(TraceCollector::global().enabled()) {
    if (Live)
      Begin = std::chrono::steady_clock::now();
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;
  ~Span() {
    if (Live && TraceCollector::global().enabled())
      TraceCollector::global().addComplete(
          Cat, Name, Begin, std::chrono::steady_clock::now(),
          std::move(Args));
  }

private:
  const char *Cat;
  const char *Name;
  std::string Args;
  bool Live;
  std::chrono::steady_clock::time_point Begin;
};

} // namespace descend::obs

#endif // DESCEND_OBS_TRACE_H

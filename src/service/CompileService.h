//===- service/CompileService.h - Long-lived compile service ----*- C++ -*-===//
//
// Part of the Descend reproduction. A thread-safe, long-lived front end
// for serving compile requests: each request carries source text, `-D`
// nat bindings and a backend name; replies carry the textual artifact
// and — for the vm backend — the directly executable CompiledProgram.
// Successful results are cached in an LRU keyed by (backend, fn-suffix,
// sorted defines, schedule passes, full source text), so re-requesting a
// kernel at the same specialization is a cache probe instead of a
// recompile, and requesting the same source at a different `-D` binding
// or schedule-pass configuration is a distinct entry — the autotuner
// leans on this to sweep tile sizes and pass configs. One mutex guards
// the LRU; compiles run outside it, so two requests that miss the same
// key at once both compile and the second to finish refreshes the entry
// the first inserted.
//
// Error discipline: malformed or hostile sources produce a reply with
// structured diagnostics; failures are never cached (they do not poison
// the cache) and nothing ever throws across compile(). This is the
// engine behind the `descendd` tool and the serving-loop rows of
// bench_throughput.
//
//===----------------------------------------------------------------------===//

#ifndef DESCEND_SERVICE_COMPILESERVICE_H
#define DESCEND_SERVICE_COMPILESERVICE_H

#include "vm/Bytecode.h"

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace descend {
namespace service {

struct CompileRequest {
  std::string Source;
  std::map<std::string, long long> Defines; ///< -D nat bindings
  std::string Backend = "vm";
  std::string FnSuffix;
  std::string BufferName = "<service>"; ///< diagnostics point here
  kir::PassConfig Passes; ///< opt-in schedule passes; part of the cache key
};

struct CompileReply {
  bool Ok = false;
  bool CacheHit = false; ///< served from the LRU without compiling
  double CompileMs = 0.0; ///< wall-clock serve time of this request

  /// Rendered diagnostics when !Ok. Never empty on failure.
  std::string Diagnostics;

  /// The backend's textual artifact (vm: the disassembly listing).
  std::string Artifact;

  /// The executable artifact (vm backend only). Immutable and shared:
  /// concurrent callers may launch it on their own devices.
  std::shared_ptr<const vm::CompiledProgram> Program;
};

struct ServiceStats {
  uint64_t Hits = 0;      ///< served from cache
  uint64_t Misses = 0;    ///< compiled successfully (cold)
  uint64_t Failures = 0;  ///< requests that produced diagnostics
  uint64_t Evictions = 0; ///< entries dropped by the LRU policy
  size_t Entries = 0;     ///< current cache size
};

/// Serve-latency histogram over every finished request (hits included —
/// the distribution's bimodality IS the cache story). Log2 buckets in
/// milliseconds: bucket I covers [upper(I-1), upper(I)) with
/// upper(I) = 0.25 * 2^I, and the last bucket is open-ended.
struct LatencyHistogram {
  static constexpr size_t NumBuckets = 12;
  uint64_t Counts[NumBuckets] = {};
  uint64_t Total = 0;
  double MaxMs = 0.0;
  double SumMs = 0.0;

  /// Upper bound of bucket \p I in ms (infinity for the last).
  static double bucketUpperMs(size_t I);
  void record(double Ms);
  /// Upper bound of the bucket holding quantile \p Q in [0,1] — a
  /// conservative p50/p95 estimate; 0 when empty.
  double quantileUpperMs(double Q) const;
};

/// The long-lived compile front end. All public members are thread-safe;
/// compilation itself runs outside the cache lock, so concurrent
/// requests for different keys compile in parallel.
class CompileService {
public:
  /// \p Capacity: maximum cached artifacts before LRU eviction.
  explicit CompileService(size_t Capacity = 64);

  /// Serves one request. Never throws; every failure mode (parse errors,
  /// type errors, unknown backend, internal faults) is a reply with
  /// Diagnostics set.
  CompileReply compile(const CompileRequest &Req);

  ServiceStats stats() const;

  /// Snapshot of the serve-latency histogram (descendd METRICS).
  LatencyHistogram latency() const;

  /// Drops every cached artifact (stats keep accumulating).
  void clear();

private:
  CompileReply doCompile(const CompileRequest &Req);
  static std::string makeKey(const CompileRequest &Req);

  const size_t Capacity;

  mutable std::mutex M;
  /// LRU list, most recent first; the map points into it.
  std::list<std::pair<std::string, CompileReply>> Lru;
  std::unordered_map<
      std::string,
      std::list<std::pair<std::string, CompileReply>>::iterator>
      Cache;
  ServiceStats Stats;
  LatencyHistogram Latency;
};

} // namespace service
} // namespace descend

#endif // DESCEND_SERVICE_COMPILESERVICE_H

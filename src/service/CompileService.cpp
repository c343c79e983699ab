//===- service/CompileService.cpp - Long-lived compile service --------------===//

#include "service/CompileService.h"

#include "driver/Pipeline.h"
#include "obs/Trace.h"

#include <chrono>
#include <cmath>
#include <limits>

using namespace descend;
using namespace descend::service;

double LatencyHistogram::bucketUpperMs(size_t I) {
  if (I + 1 >= NumBuckets)
    return std::numeric_limits<double>::infinity();
  return 0.25 * static_cast<double>(1ull << I);
}

void LatencyHistogram::record(double Ms) {
  size_t I = 0;
  while (I + 1 < NumBuckets && Ms >= bucketUpperMs(I))
    ++I;
  ++Counts[I];
  ++Total;
  SumMs += Ms;
  if (Ms > MaxMs)
    MaxMs = Ms;
}

double LatencyHistogram::quantileUpperMs(double Q) const {
  if (Total == 0)
    return 0.0;
  // Nearest-rank: the smallest value with at least ceil(Q * Total)
  // observations at or below it.
  uint64_t Rank = static_cast<uint64_t>(std::ceil(Q * Total));
  if (Rank < 1)
    Rank = 1;
  if (Rank > Total)
    Rank = Total;
  uint64_t Seen = 0;
  for (size_t I = 0; I < NumBuckets; ++I) {
    Seen += Counts[I];
    if (Seen >= Rank)
      return I + 1 < NumBuckets ? bucketUpperMs(I) : MaxMs;
  }
  return MaxMs;
}

CompileService::CompileService(size_t Capacity)
    : Capacity(Capacity ? Capacity : 1) {}

std::string CompileService::makeKey(const CompileRequest &Req) {
  // Collision-proof: the full source text is part of the key (the LRU
  // bounds memory, so there is no need to risk a hash collision serving
  // the wrong artifact). std::map keeps the defines sorted.
  std::string Key = Req.Backend;
  Key += '\x1f';
  Key += Req.FnSuffix;
  Key += '\x1f';
  for (const auto &[Name, Value] : Req.Defines) {
    Key += Name;
    Key += '=';
    Key += std::to_string(Value);
    Key += ';';
  }
  Key += '\x1f';
  Key += Req.Passes.cacheKey();
  Key += '\x1f';
  Key += Req.Source;
  return Key;
}

CompileReply CompileService::doCompile(const CompileRequest &Req) {
  CompileReply Rep;
  try {
    CompilerInvocation Inv;
    Inv.BufferName = Req.BufferName;
    Inv.Defines = Req.Defines;
    Inv.BackendName = Req.Backend;
    Inv.FnSuffix = Req.FnSuffix;
    Inv.Passes = Req.Passes;
    // The vm backend's executable artifact comes from vm::compile — run
    // the pipeline to typecheck and compile once, instead of letting
    // emit() compile for the listing and then compiling again.
    bool IsVm = Req.Backend == "vm";
    Inv.RunUntil = IsVm ? Stage::Typecheck : Stage::Codegen;

    Session S(Inv);
    CompileResult R = S.run(Req.Source);
    if (!R.Ok) {
      Rep.Diagnostics = S.renderDiagnostics();
      if (Rep.Diagnostics.empty())
        Rep.Diagnostics = "compilation failed (no diagnostics rendered)";
      return Rep;
    }
    if (IsVm) {
      vm::CompileVmResult C = vm::compile(*S.module(), Req.Passes);
      if (!C.Ok) {
        Rep.Diagnostics = "vm: " + C.Error;
        return Rep;
      }
      Rep.Program = C.Program;
      Rep.Artifact = vm::disassemble(*C.Program);
    } else {
      Rep.Artifact = R.Artifact;
    }
    Rep.Ok = true;
  } catch (const std::exception &E) {
    Rep.Ok = false;
    Rep.Program.reset();
    Rep.Diagnostics =
        std::string("internal error while serving compile request: ") +
        E.what();
  } catch (...) {
    Rep.Ok = false;
    Rep.Program.reset();
    Rep.Diagnostics = "internal error while serving compile request";
  }
  return Rep;
}

CompileReply CompileService::compile(const CompileRequest &Req) {
  auto T0 = std::chrono::steady_clock::now();
  auto Elapsed = [&T0] {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - T0)
        .count();
  };

  // Stamps the reply's latency into the histogram and emits one trace
  // span per request, named after how it was served.
  auto Finish = [&](CompileReply Rep, const char *How) {
    Rep.CompileMs = Elapsed();
    {
      std::lock_guard<std::mutex> G(M);
      Latency.record(Rep.CompileMs);
    }
    if (obs::TraceCollector::global().enabled()) [[unlikely]]
      obs::TraceCollector::global().addComplete(
          "compile", How, T0, std::chrono::steady_clock::now(),
          "{\"backend\":\"" + Req.Backend + "\"}");
    return Rep;
  };

  const std::string Key = makeKey(Req);
  CompileReply Rep;
  bool Hit = false;
  {
    std::lock_guard<std::mutex> G(M);
    if (auto It = Cache.find(Key); It != Cache.end()) {
      Lru.splice(Lru.begin(), Lru, It->second); // refresh recency
      ++Stats.Hits;
      Rep = It->second->second;
      Hit = true;
    }
  }
  if (Hit) {
    Rep.CacheHit = true;
    return Finish(std::move(Rep), "hit");
  }

  Rep = doCompile(Req); // outside the lock; never throws

  {
    std::lock_guard<std::mutex> G(M);
    if (Rep.Ok) {
      ++Stats.Misses;
      auto [It, Inserted] = Cache.try_emplace(Key);
      if (!Inserted) {
        // Another request compiled the same key meanwhile: refresh its
        // entry. A second node for the key would outlive its map entry,
        // which evicting either node erases.
        Lru.splice(Lru.begin(), Lru, It->second);
      } else {
        Lru.emplace_front(Key, Rep);
        It->second = Lru.begin();
        while (Lru.size() > Capacity) {
          Cache.erase(Lru.back().first);
          Lru.pop_back();
          ++Stats.Evictions;
        }
      }
    } else {
      // Failures are never cached: a later identical request recompiles
      // (the source may race with a fix) and the cache never serves a
      // poisoned entry.
      ++Stats.Failures;
    }
    Stats.Entries = Lru.size();
  }

  const char *How = Rep.Ok ? "miss" : "fail";
  return Finish(std::move(Rep), How);
}

ServiceStats CompileService::stats() const {
  std::lock_guard<std::mutex> G(M);
  return Stats;
}

LatencyHistogram CompileService::latency() const {
  std::lock_guard<std::mutex> G(M);
  return Latency;
}

void CompileService::clear() {
  std::lock_guard<std::mutex> G(M);
  Lru.clear();
  Cache.clear();
  Stats.Entries = 0;
}

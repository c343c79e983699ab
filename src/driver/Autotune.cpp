//===- driver/Autotune.cpp - Schedule-pass autotuner ------------------------===//

#include "driver/Autotune.h"

#include "obs/Counters.h"
#include "service/CompileService.h"
#include "sim/Sim.h"
#include "support/StringUtils.h"
#include "vm/Interp.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>

using namespace descend;

namespace {

//===----------------------------------------------------------------------===//
// Candidate execution
//===----------------------------------------------------------------------===//

/// Everything one candidate run produced: the observable output bytes of
/// every host-array parameter (in declaration order) and the summed
/// launch counters.
struct RunOutcome {
  bool Ok = false;
  std::string Error;
  std::vector<std::vector<std::byte>> OutBytes;
  uint64_t Conflicts = 0, SharedTransactions = 0, Barriers = 0,
           GlobalAccesses = 0;
  double RunMs = 0.0;
};

/// Executes \p P's host `fn main` on a fresh device with counters on,
/// binding its arguments like Session::executeMain (vm::bindMainArgs) so
/// `--autotune --args ...` and `--run --args ...` see the same program.
RunOutcome runProgram(const vm::CompiledProgram &P,
                      const std::vector<double> &ArgFills) {
  RunOutcome Out;
  const vm::HostFnIR *Main = P.findHostFn("main");
  if (!Main) {
    Out.Error = "no host `fn main` to execute (define one under "
                "`cpu.thread`)";
    return Out;
  }

  sim::GpuDevice Dev;
  Dev.setCounters(true);
  vm::MainArgs Bound = vm::bindMainArgs(Dev, *Main, ArgFills);

  auto T0 = std::chrono::steady_clock::now();
  vm::RunStatus St = vm::runHostFn(Dev, P, *Main, Bound.Args);
  Out.RunMs = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - T0)
                  .count();
  if (!St.Ok) {
    Out.Error = St.Error;
    return Out;
  }

  for (const obs::LaunchStats &LS : Dev.launchLog()) {
    Out.Conflicts += LS.bankConflicts();
    Out.SharedTransactions += LS.sharedTransactions();
    Out.Barriers += LS.barriers();
    Out.GlobalAccesses += LS.globalLoads() + LS.globalStores();
  }
  for (const auto &Arr : Bound.Arrays)
    Out.OutBytes.push_back(Arr->Bytes);
  Out.Ok = true;
  return Out;
}

//===----------------------------------------------------------------------===//
// Rendering helpers
//===----------------------------------------------------------------------===//

/// \p Rank is 1-based; 0 marks a candidate excluded from ranking (failed
/// or not bit-identical) and serializes as null.
std::string rowJson(const AutotuneRow &R, unsigned Rank) {
  std::ostringstream OS;
  OS << "{\"rank\":";
  if (Rank)
    OS << Rank;
  else
    OS << "null";
  OS << ",\"defines\":{";
  bool First = true;
  for (const auto &[Name, Value] : R.Defines) {
    if (!First)
      OS << ',';
    First = false;
    OS << '"' << jsonEscape(Name) << "\":" << Value;
  }
  OS << "},\"pad\":" << R.Passes.SharedPad << ",\"vectorize\":"
     << (R.Passes.Vectorize ? "true" : "false") << ",\"ok\":"
     << (R.Ok ? "true" : "false") << ",\"bit_identical\":"
     << (R.BitIdentical ? "true" : "false") << ",\"cache_hit\":"
     << (R.CacheHit ? "true" : "false") << ",\"conflicts\":" << R.Conflicts
     << ",\"shared_transactions\":" << R.SharedTransactions
     << ",\"barriers\":" << R.Barriers << ",\"global_accesses\":"
     << R.GlobalAccesses;
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), ",\"run_ms\":%.3f", R.RunMs);
  OS << Buf;
  if (!R.Error.empty())
    OS << ",\"error\":\"" << jsonEscape(R.Error) << '"';
  OS << ",\"label\":\"" << jsonEscape(R.label()) << "\"}";
  return OS.str();
}

} // namespace

//===----------------------------------------------------------------------===//
// Public API
//===----------------------------------------------------------------------===//

std::string AutotuneRow::label() const {
  std::string L;
  for (const auto &[Name, Value] : Defines)
    L += (L.empty() ? "-D " : " -D ") + Name + "=" + std::to_string(Value);
  if (Passes.SharedPad) {
    if (!L.empty())
      L += ' ';
    L += "--pad-shared=" + std::to_string(Passes.SharedPad);
  }
  if (Passes.Vectorize) {
    if (!L.empty())
      L += ' ';
    L += "--vectorize";
  }
  return L.empty() ? "(default)" : L;
}

std::string AutotuneResult::table() const {
  std::ostringstream OS;
  OS << "autotune: " << Rows.size() << " candidates\n";
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf), "%-4s %-10s %-10s %-9s %-9s %-9s %s\n",
                "rank", "conflicts", "sharedTx", "barriers", "global",
                "ms", "config");
  OS << Buf;
  unsigned Rank = 0;
  for (const AutotuneRow &R : Rows) {
    ++Rank;
    if (!R.Ok) {
      // One row per candidate: the rendered diagnostic's first line.
      const std::string Why(
          trim(std::string_view(R.Error).substr(0, R.Error.find('\n'))));
      std::snprintf(Buf, sizeof(Buf), "%-4s %-51s %s  [failed: %s]\n", "-",
                    "", R.label().c_str(), Why.c_str());
      OS << Buf;
      continue;
    }
    std::snprintf(Buf, sizeof(Buf),
                  "%-4u %-10llu %-10llu %-9llu %-9llu %-9.3f %s%s%s\n", Rank,
                  static_cast<unsigned long long>(R.Conflicts),
                  static_cast<unsigned long long>(R.SharedTransactions),
                  static_cast<unsigned long long>(R.Barriers),
                  static_cast<unsigned long long>(R.GlobalAccesses), R.RunMs,
                  R.label().c_str(), R.CacheHit ? "  [cached]" : "",
                  R.BitIdentical ? "" : "  [OUTPUT DIFFERS - excluded]");
    OS << Buf;
  }
  if (Ok && BestIndex < Rows.size())
    OS << "best: " << Rows[BestIndex].label() << "\n";
  return OS.str();
}

std::string AutotuneResult::json() const {
  std::ostringstream OS;
  OS << "{\"ok\":" << (Ok ? "true" : "false");
  if (!Error.empty())
    OS << ",\"error\":\"" << jsonEscape(Error) << '"';
  OS << ",\"candidates\":[";
  // Verified rows come first (the sort in autotune()), so positional
  // ranks stay 1..N over exactly the ranked prefix; excluded rows get
  // rank null.
  unsigned Rank = 0;
  size_t Idx = 0;
  for (const AutotuneRow &R : Rows) {
    if (Idx++)
      OS << ',';
    OS << rowJson(R, R.Ok && R.BitIdentical ? ++Rank : 0);
  }
  OS << ']';
  if (Ok && BestIndex < Rows.size())
    OS << ",\"best\":" << rowJson(Rows[BestIndex],
                                  static_cast<unsigned>(BestIndex) + 1);
  OS << "}\n";
  return OS.str();
}

AutotuneResult descend::autotune(const std::string &Source,
                                 const AutotuneOptions &Opts) {
  AutotuneResult Result;

  // The cartesian product over the tuned nats, in deterministic order
  // (names sorted by the map, values in the order given).
  std::vector<std::map<std::string, long long>> Combos;
  Combos.push_back(Opts.BaseDefines);
  for (const auto &[Name, Values] : Opts.TuneGrid) {
    if (Values.empty()) {
      Result.Error = "--tune " + Name + " has no candidate values";
      return Result;
    }
    std::vector<std::map<std::string, long long>> Next;
    for (const auto &Combo : Combos)
      for (long long V : Values) {
        Next.push_back(Combo);
        Next.back()[Name] = V;
      }
    Combos = std::move(Next);
  }

  // Pass grid: baseline first so every combo's reference output exists
  // before its transformed variants are checked against it.
  const kir::PassConfig PassGrid[] = {
      {},
      {/*SharedPad=*/1, /*Vectorize=*/false},
      {/*SharedPad=*/0, /*Vectorize=*/true},
      {/*SharedPad=*/1, /*Vectorize=*/true},
  };

  service::CompileService Service;
  struct Scored {
    size_t RowIdx;
    size_t EnumIdx;
  };
  std::vector<Scored> Ranked;
  std::vector<size_t> Unranked;

  size_t EnumIdx = 0;
  for (const auto &Combo : Combos) {
    std::vector<std::vector<std::byte>> Reference;
    bool HaveReference = false;
    for (const kir::PassConfig &Passes : PassGrid) {
      AutotuneRow Row;
      Row.Defines = Combo;
      Row.Passes = Passes;

      service::CompileRequest Req;
      Req.Source = Source;
      Req.Defines = Combo;
      Req.Backend = "vm";
      Req.BufferName = Opts.BufferName;
      Req.Passes = Passes;
      service::CompileReply Rep = Service.compile(Req);
      Row.CacheHit = Rep.CacheHit;
      if (!Rep.Ok || !Rep.Program) {
        Row.Error = Rep.Ok ? "vm backend produced no program"
                           : Rep.Diagnostics;
      } else {
        RunOutcome Run = runProgram(*Rep.Program, Opts.ArgFills);
        Row.Ok = Run.Ok;
        Row.Error = Run.Error;
        Row.Conflicts = Run.Conflicts;
        Row.SharedTransactions = Run.SharedTransactions;
        Row.Barriers = Run.Barriers;
        Row.GlobalAccesses = Run.GlobalAccesses;
        Row.RunMs = Run.RunMs;
        if (Run.Ok && !Passes.any()) {
          Reference = std::move(Run.OutBytes);
          HaveReference = true;
          Row.BitIdentical = true; // the baseline defines the reference
        } else if (Run.Ok && HaveReference) {
          Row.BitIdentical = Run.OutBytes == Reference;
        }
      }

      Result.Rows.push_back(std::move(Row));
      const AutotuneRow &R = Result.Rows.back();
      if (R.Ok && R.BitIdentical)
        Ranked.push_back({Result.Rows.size() - 1, EnumIdx});
      else
        Unranked.push_back(Result.Rows.size() - 1);
      ++EnumIdx;
    }
  }

  if (Ranked.empty()) {
    Result.Error = Result.Rows.empty()
                       ? "no candidates to evaluate"
                       : "no candidate ran successfully (see the rows)";
    return Result;
  }

  // Lexicographic score; wall-clock deliberately LAST before the
  // enumeration index so counter-identical configs rank reproducibly.
  auto Key = [&](const Scored &S) {
    const AutotuneRow &R = Result.Rows[S.RowIdx];
    unsigned Simplicity =
        (R.Passes.SharedPad ? 1u : 0u) + (R.Passes.Vectorize ? 1u : 0u);
    return std::make_tuple(R.Conflicts, R.SharedTransactions, R.Barriers,
                           R.GlobalAccesses, Simplicity, R.RunMs, S.EnumIdx);
  };
  std::sort(Ranked.begin(), Ranked.end(),
            [&](const Scored &A, const Scored &B) { return Key(A) < Key(B); });

  std::vector<AutotuneRow> Ordered;
  Ordered.reserve(Result.Rows.size());
  for (const Scored &S : Ranked)
    Ordered.push_back(std::move(Result.Rows[S.RowIdx]));
  for (size_t I : Unranked)
    Ordered.push_back(std::move(Result.Rows[I]));
  Result.Rows = std::move(Ordered);
  Result.BestIndex = 0;
  Result.Ok = true;
  return Result;
}

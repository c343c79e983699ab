//===- bench/Report.h - Bench timing, rows and JSON reports -----*- C++ -*-===//
//
// What every bench/ binary shares: Fig. 8's paired, interleaved timing
// with its quartiles, the counted (untimed) run whose launch stats a row
// embeds, a small JSON object writer, and the provenance block (`meta`)
// each BENCH_<name>.json carries.
//
// `bench_<name> OUT_DIR` writes OUT_DIR/BENCH_<name>.json after its
// table; without an argument a bench prints its table only.
// tools/check_bench.py gates the files against tools/bench_baseline.json.
//
//===----------------------------------------------------------------------===//

#ifndef DESCEND_BENCH_REPORT_H
#define DESCEND_BENCH_REPORT_H

#include "sim/Fault.h"
#include "sim/Sim.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

namespace descend::bench {

//===----------------------------------------------------------------------===//
// Timing
//===----------------------------------------------------------------------===//

/// One side's repetition times in ms: the median and the quartiles.
struct Spread {
  double Median = 0, Q1 = 0, Q3 = 0;
};

/// The order statistics at n/4, n/2 and 3n/4 of \p Ms (n >= 1).
inline Spread spreadOf(std::vector<double> Ms) {
  std::sort(Ms.begin(), Ms.end());
  const size_t N = Ms.size();
  return Spread{Ms[N / 2], Ms[N / 4], Ms[3 * N / 4]};
}

/// Handwritten (A) and generated (B) sides of one paired measurement.
struct PairedMs {
  Spread A, B;
};

/// Paired, interleaved measurement: one warm-up call each, then \p Reps
/// alternating A/B repetitions, so machine drift hits both sides alike.
inline PairedMs pairedMs(const std::function<void()> &A,
                         const std::function<void()> &B, int Reps) {
  std::vector<double> TA, TB;
  TA.reserve(Reps);
  TB.reserve(Reps);
  A();
  B();
  for (int I = 0; I != Reps; ++I) {
    auto T0 = std::chrono::steady_clock::now();
    A();
    auto T1 = std::chrono::steady_clock::now();
    B();
    auto T2 = std::chrono::steady_clock::now();
    TA.push_back(std::chrono::duration<double, std::milli>(T1 - T0).count());
    TB.push_back(std::chrono::duration<double, std::milli>(T2 - T1).count());
  }
  return PairedMs{spreadOf(std::move(TA)), spreadOf(std::move(TB))};
}

/// Runs \p F once with perf counters on and returns the launch stats it
/// accumulated. Call it strictly after the timed repetitions, so the
/// counting branch never sits in a measured loop.
template <typename Fn>
sim::LaunchStats countedRun(sim::GpuDevice &Dev, Fn &&F) {
  Dev.setCounters(true);
  F();
  sim::LaunchStats LS = Dev.totalStats();
  Dev.setCounters(false);
  Dev.resetStats();
  return LS;
}

//===----------------------------------------------------------------------===//
// JSON
//===----------------------------------------------------------------------===//

/// A JSON object written field by field, in insertion order.
class Json {
public:
  /// Adds a field whose value is already rendered JSON.
  Json &raw(const char *Key, const std::string &Value) {
    Fields += Fields.empty() ? "\"" : ",\"";
    Fields += Key;
    Fields += "\":";
    Fields += Value;
    return *this;
  }
  Json &str(const char *Key, const std::string &Value) {
    return raw(Key, '"' + jsonEscape(Value) + '"');
  }
  /// Integers print exactly, doubles in their shortest round-trip form,
  /// and a NaN or infinity as null.
  template <typename T> Json &num(const char *Key, T Value) {
    if constexpr (std::is_integral_v<T>) {
      return raw(Key, std::to_string(Value));
    } else {
      if (!std::isfinite(Value))
        return raw(Key, "null");
      char Buf[32];
      auto End = std::to_chars(Buf, Buf + sizeof(Buf),
                               static_cast<double>(Value)).ptr;
      return raw(Key, std::string(Buf, End));
    }
  }
  Json &array(const char *Key, const std::vector<Json> &Items) {
    std::string Out = "[";
    for (size_t I = 0; I != Items.size(); ++I) {
      if (I)
        Out += ',';
      Out += Items[I].text();
    }
    return raw(Key, Out + "]");
  }
  /// Adds every field of \p Other.
  Json &append(const Json &Other) {
    if (!Fields.empty() && !Other.Fields.empty())
      Fields += ',';
    Fields += Other.Fields;
    return *this;
  }
  std::string text() const { return '{' + Fields + '}'; }

private:
  std::string Fields; ///< the rendered fields, comma-separated
};

/// Prints the header of a Fig. 8 timing table.
inline void printTimingHeader() {
  std::printf("%-10s %-7s %12s %14s %10s\n", "benchmark", "size",
              "CUDA [ms]", "Descend [ms]", "relative");
}

/// Prints one Fig. 8 table line: both medians and their CUDA/Descend
/// ratio.
inline void printTimingRow(const char *Bench, const char *Size,
                           const PairedMs &P) {
  std::printf("%-10s %-7s %12.3f %14.3f %9.3fx\n", Bench, Size, P.A.Median,
              P.B.Median, P.A.Median / P.B.Median);
}

/// Adds a handwritten-vs-generated row's timing fields: each side's
/// median and quartiles, and the CUDA/Descend ratio of the medians.
inline Json &timingFields(Json &Row, const PairedMs &P) {
  return Row.num("cuda_ms", P.A.Median)
      .num("cuda_q1_ms", P.A.Q1)
      .num("cuda_q3_ms", P.A.Q3)
      .num("descend_ms", P.B.Median)
      .num("descend_q1_ms", P.B.Q1)
      .num("descend_q3_ms", P.B.Q3)
      .num("relative", P.A.Median / P.B.Median);
}

//===----------------------------------------------------------------------===//
// Provenance and output
//===----------------------------------------------------------------------===//

/// One provenance field. \p Number marks a value written unquoted.
struct MetaField {
  const char *Key;
  std::string Value;
  bool Number = false;
};

/// The provenance of this run, from what this process sees: the git
/// revision of the source tree ("-dirty" when the tree differs from it),
/// the time, the compiler, the worker count a default device runs with
/// (DESCEND_WORKERS as the device parses it, else the hardware
/// concurrency), the hardware concurrency, and the fault plan and
/// watchdog limits every device runs under.
inline std::vector<MetaField> metaFields() {
  std::string Sha;
  if (FILE *Git = popen("cd '" DESCEND_SOURCE_DIR "' 2>/dev/null && git "
                        "rev-parse HEAD 2>/dev/null && { git diff --quiet "
                        "HEAD || echo -dirty; }",
                        "r")) {
    for (int C; (C = std::fgetc(Git)) != EOF;)
      if (C != '\n')
        Sha += static_cast<char>(C);
    pclose(Git);
  }
  char Stamp[32];
  const std::time_t Now = std::time(nullptr);
  std::tm Utc{};
  gmtime_r(&Now, &Utc);
  std::strftime(Stamp, sizeof(Stamp), "%Y-%m-%dT%H:%M:%SZ", &Utc);
  const sim::GpuDevice Dev;
  const sim::GpuDevice::WatchdogConfig Wd = Dev.watchdog();
  const sim::FaultInjector &Faults = sim::FaultInjector::global();
  return {
      {"git_sha", Sha.empty() ? "unknown" : Sha},
      {"timestamp_utc", Stamp},
      {"compiler", __VERSION__},
      {"workers", std::to_string(Dev.effectiveWorkers()), true},
      {"hardware_concurrency",
       std::to_string(std::thread::hardware_concurrency()), true},
      {"faults", Faults.armed() ? Faults.plan().str() : "disabled"},
      {"watchdog", Wd.StepBudget || Wd.LaunchTimeoutMs
                       ? strfmt("steps=%llu,ms=%llu",
                                (unsigned long long)Wd.StepBudget,
                                (unsigned long long)Wd.LaunchTimeoutMs)
                       : "disabled"},
  };
}

/// The output directory a bench was given, or null without an argument.
/// Exits with status 2 on any other command line.
inline const char *outputDir(int Argc, char **Argv) {
  if (Argc > 2 || (Argc == 2 && Argv[1][0] == '-')) {
    std::fprintf(stderr, "usage: %s [OUT_DIR]\n", Argv[0]);
    std::exit(2);
  }
  return Argc == 2 ? Argv[1] : nullptr;
}

/// Writes Dir/BENCH_<Name>.json: "bench", the fields of \p Body, then
/// "meta". Does nothing for a null \p Dir. Returns false, with a message
/// on stderr, when the file cannot be written.
inline bool writeReport(const char *Dir, const char *Name, const Json &Body) {
  if (!Dir)
    return true;
  Json Meta;
  for (const MetaField &F : metaFields()) {
    if (F.Number)
      Meta.raw(F.Key, F.Value);
    else
      Meta.str(F.Key, F.Value);
  }
  Json Out;
  Out.str("bench", Name).append(Body).raw("meta", Meta.text());

  const std::string Path = std::string(Dir) + "/BENCH_" + Name + ".json";
  std::ofstream File(Path);
  File << Out.text() << '\n';
  File.close();
  if (!File) {
    std::fprintf(stderr, "cannot write %s\n", Path.c_str());
    return false;
  }
  std::printf("-> %s\n", Path.c_str());
  return true;
}

} // namespace descend::bench

#endif // DESCEND_BENCH_REPORT_H

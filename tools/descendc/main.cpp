//===- tools/descendc/main.cpp - The Descend compiler driver ----------------===//
//
// Usage:
//   descendc INPUT.descend [--emit=check|<backend>] [-D name=value]...
//            [--fn-suffix=SUFFIX] [--time-passes[=json]]
//            [--dump-kir[=pre|post]] [--pad-shared=N] [--vectorize]
//            [--trace-json=FILE] [-o OUTPUT]
//   descendc --run INPUT.descend [-D name=value]... [--args N...]
//   descendc --kernel-stats[=json] INPUT.descend [-D name=value]...
//            [--args N...]
//   descendc --autotune[=json] INPUT.descend [-D name=value]...
//            [--tune name=v1,v2,...]... [--args N...]
//   descendc --list-backends
//   descendc --help | -h
//
// --emit=check only type-checks (default); any registered backend name
// (cuda, sim, vm) runs the full pipeline and writes the artifact to
// OUTPUT (or stdout). -D instantiates generic nat parameters, mirroring
// the launch-site instantiation of Section 3.5. --time-passes reports the
// wall-clock time of every executed stage. --dump-kir type-checks,
// lowers every kernel for the simulator and prints the structured phase
// program (StraightPhase / PhaseLoop tree, see codegen/PhaseIR.h) with
// every phase body rendered statement by statement in the typed kernel
// IR (kir::dump) instead of an artifact. --list-backends prints the
// registered backend names.
//
// --pad-shared=N and --vectorize enable the opt-in, semantics-preserving
// schedule passes (kir/Schedule.h) for every mode that lowers kernels;
// --dump-kir=pre prints the IR with the passes off (the historical
// output) and --dump-kir=post (the default) with the invocation's passes
// applied, so `diff <(... =pre) <(... =post)` shows exactly what a pass
// rewrote.
//
// --autotune sweeps the candidate grid (every --tune nat binding times
// pad 0/1 times vectorize off/on), compiles each through a compile
// service, runs it on the simulator with counters on, rejects any
// candidate whose output is not bit-identical to the same-binding
// baseline, and prints a ranked table (or one JSON object with `=json`)
// plus the best config. See driver/Autotune.h for the scoring order.
//
// --run compiles through the vm backend and executes the program's host
// `fn main` in-process on a simulated device — no C++ compiler in the
// loop. --args supplies one number per `main` parameter (fill value for
// array parameters, value for scalars). --kernel-stats runs the same way
// with the device's perf counters on and reports one per-launch counter
// block (obs::LaunchStats) per kernel launch, human-readable by default
// or as one JSON object with `=json`. --time-passes=json prints the
// stage table as one JSON object on stdout (the plain form keeps its
// stderr table). --trace-json=FILE records a Chrome-trace-event JSON of
// the whole invocation (pipeline stages, launches, pool activity),
// equivalent to DESCEND_TRACE=FILE. Exit codes keep the driver contract:
// 0 success, 1 compile/runtime diagnostic, 2 usage error.
//
//===----------------------------------------------------------------------===//

#include "codegen/PhaseIR.h"
#include "driver/Autotune.h"
#include "driver/Pipeline.h"
#include "obs/Trace.h"
#include "support/StringUtils.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

using namespace descend;

static void printUsage(std::FILE *Out) {
  std::string Emits = "check";
  for (const std::string &Name : codegen::BackendRegistry::instance().names())
    Emits += "|" + Name;
  std::fprintf(Out,
               "usage: descendc INPUT.descend [--emit=%s] "
               "[-D name=value]... [--fn-suffix=SUFFIX] [--time-passes[=json]] "
               "[--dump-kir[=pre|post]] [--pad-shared=N] "
               "[--vectorize] [--trace-json=FILE] [-o OUTPUT]\n"
               "       descendc --run INPUT.descend [-D name=value]... "
               "[--args N...]\n"
               "       descendc --kernel-stats[=json] INPUT.descend "
               "[-D name=value]... [--args N...]\n"
               "       descendc --autotune[=json] INPUT.descend "
               "[-D name=value]... [--tune name=v1,v2,...]... [--args N...]\n"
               "       descendc --list-backends\n"
               "       descendc --help\n\n"
               "backends:\n",
               Emits.c_str());
  for (const std::string &Name :
       codegen::BackendRegistry::instance().names()) {
    const codegen::Backend *B =
        codegen::BackendRegistry::instance().lookup(Name);
    std::fprintf(Out, "  %-6s %s\n", Name.c_str(), B->description());
  }
}

static int usage() {
  printUsage(stderr);
  return 2;
}

/// Reports a command-line error and the usage block; exit code 2
/// distinguishes driver misuse from compilation failures (exit code 1).
static int usageError(const std::string &Msg) {
  std::fprintf(stderr, "descendc: error: %s\n", Msg.c_str());
  return usage();
}

/// Parses "name=integer" into \p Defines. Rejects a missing '=', an empty
/// name, a non-integer value and one outside the 64-bit range instead of
/// silently mis-reading them.
static bool parseDefine(const std::string &Def,
                        std::map<std::string, long long> &Defines,
                        std::string &Err) {
  size_t Eq = Def.find('=');
  if (Eq == std::string::npos || Eq == 0) {
    Err = "malformed -D argument '" + Def + "': expected name=value";
    return false;
  }
  std::string Name = Def.substr(0, Eq);
  std::string Value = Def.substr(Eq + 1);
  char *End = nullptr;
  errno = 0;
  long long V = std::strtoll(Value.c_str(), &End, 10);
  if (Value.empty() || End == Value.c_str() || *End != '\0') {
    Err = "malformed -D argument '" + Def + "': '" + Value +
          "' is not an integer";
    return false;
  }
  if (errno == ERANGE) {
    Err = "-D argument '" + Def + "': '" + Value +
          "' is out of range for a 64-bit integer";
    return false;
  }
  Defines[Name] = V;
  return true;
}

/// Parses "name=v1,v2,..." into \p Grid for --tune.
static bool parseTune(const std::string &Spec,
                      std::map<std::string, std::vector<long long>> &Grid,
                      std::string &Err) {
  size_t Eq = Spec.find('=');
  if (Eq == std::string::npos || Eq == 0) {
    Err = "malformed --tune argument '" + Spec +
          "': expected name=v1,v2,...";
    return false;
  }
  std::string Name = Spec.substr(0, Eq);
  std::vector<long long> Values;
  std::string Rest = Spec.substr(Eq + 1);
  size_t Pos = 0;
  while (Pos <= Rest.size()) {
    size_t Comma = Rest.find(',', Pos);
    std::string Val = Rest.substr(
        Pos, Comma == std::string::npos ? std::string::npos : Comma - Pos);
    char *End = nullptr;
    errno = 0;
    long long V = std::strtoll(Val.c_str(), &End, 10);
    if (Val.empty() || End == Val.c_str() || *End != '\0') {
      Err = "malformed --tune argument '" + Spec + "': '" + Val +
            "' is not an integer";
      return false;
    }
    if (errno == ERANGE) {
      Err = "--tune argument '" + Spec + "': '" + Val +
            "' is out of range for a 64-bit integer";
      return false;
    }
    Values.push_back(V);
    if (Comma == std::string::npos)
      break;
    Pos = Comma + 1;
  }
  Grid[Name] = std::move(Values);
  return true;
}

/// `--time-passes=json`: one JSON object on stdout. The plain form's
/// stderr table stays unchanged; both render the same StageTiming rows.
static void printTimingsJson(const std::string &Input, Stage Reached,
                             const std::vector<StageTiming> &Timings) {
  std::string J = "{\"file\":\"" + jsonEscape(Input) + "\",\"reached\":\"";
  J += stageName(Reached);
  J += "\",\"stages\":[";
  bool First = true;
  for (const StageTiming &T : Timings) {
    if (!First)
      J += ',';
    First = false;
    char Buf[128];
    std::snprintf(Buf, sizeof(Buf),
                  "{\"name\":\"%s\",\"ms\":%.3f,\"failed\":%s}",
                  stageName(T.S), T.Millis, T.Failed ? "true" : "false");
    J += Buf;
  }
  J += "]}\n";
  std::fwrite(J.data(), 1, J.size(), stdout);
}

static int listBackends() {
  std::string Line;
  for (const std::string &Name :
       codegen::BackendRegistry::instance().names())
    Line += Line.empty() ? Name : " " + Name;
  std::printf("%s\n", Line.c_str());
  return 0;
}

int main(int argc, char **argv) {
  std::string Input, Output, Emit = "check";
  bool TimePasses = false, TimePassesJson = false;
  bool DumpKIR = false, DumpKIRPre = false;
  bool Run = false, EmitSeen = false;
  bool KernelStats = false, KernelStatsJson = false;
  bool Autotune = false, AutotuneJson = false;
  std::map<std::string, std::vector<long long>> TuneGrid;
  std::vector<double> RunArgs;
  CompilerInvocation Inv;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--help" || Arg == "-h") {
      printUsage(stdout);
      return 0;
    } else if (Arg == "--list-backends") {
      return listBackends();
    } else if (Arg == "--run") {
      Run = true;
    } else if (Arg == "--args") {
      // Consumes the rest of the command line: one number per `main`
      // parameter. (Values may be negative, so they cannot double as
      // options anyway.)
      for (++I; I < argc; ++I) {
        std::string Val = argv[I];
        char *End = nullptr;
        double V = std::strtod(Val.c_str(), &End);
        if (Val.empty() || End == Val.c_str() || *End != '\0')
          return usageError("--args expects numbers, got '" + Val + "'");
        RunArgs.push_back(V);
      }
    } else if (Arg.rfind("--emit=", 0) == 0) {
      Emit = Arg.substr(7);
      EmitSeen = true;
    } else if (Arg.rfind("--fn-suffix=", 0) == 0) {
      Inv.FnSuffix = Arg.substr(12);
    } else if (Arg == "--time-passes") {
      TimePasses = true;
    } else if (Arg == "--time-passes=json") {
      TimePasses = TimePassesJson = true;
    } else if (Arg.rfind("--time-passes=", 0) == 0) {
      return usageError("unknown --time-passes mode '" + Arg.substr(14) +
                        "' (the only mode is json)");
    } else if (Arg == "--kernel-stats") {
      KernelStats = true;
    } else if (Arg == "--kernel-stats=json") {
      KernelStats = KernelStatsJson = true;
    } else if (Arg.rfind("--kernel-stats=", 0) == 0) {
      return usageError("unknown --kernel-stats mode '" + Arg.substr(15) +
                        "' (the only mode is json)");
    } else if (Arg.rfind("--trace-json=", 0) == 0) {
      std::string Path = Arg.substr(13);
      if (Path.empty())
        return usageError("--trace-json expects a file path: "
                          "--trace-json=FILE");
      obs::TraceCollector::global().enable(Path);
    } else if (Arg == "--trace-json") {
      return usageError("--trace-json expects a file path: "
                        "--trace-json=FILE");
    } else if (Arg == "--dump-kir" || Arg == "--dump-kir=post") {
      DumpKIR = true;
    } else if (Arg == "--dump-kir=pre") {
      DumpKIR = DumpKIRPre = true;
    } else if (Arg.rfind("--dump-kir=", 0) == 0) {
      return usageError("unknown --dump-kir mode '" + Arg.substr(11) +
                        "' (modes: pre, post)");
    } else if (Arg.rfind("--pad-shared=", 0) == 0) {
      std::string Val = Arg.substr(13);
      char *End = nullptr;
      long long V = std::strtoll(Val.c_str(), &End, 10);
      if (Val.empty() || End == Val.c_str() || *End != '\0' || V < 0)
        return usageError("--pad-shared expects a non-negative integer, "
                          "got '" + Val + "'");
      Inv.Passes.SharedPad = static_cast<unsigned>(V);
    } else if (Arg == "--vectorize") {
      Inv.Passes.Vectorize = true;
    } else if (Arg == "--autotune") {
      Autotune = true;
    } else if (Arg == "--autotune=json") {
      Autotune = AutotuneJson = true;
    } else if (Arg.rfind("--autotune=", 0) == 0) {
      return usageError("unknown --autotune mode '" + Arg.substr(11) +
                        "' (the only mode is json)");
    } else if (Arg == "--tune") {
      if (I + 1 >= argc)
        return usageError("--tune expects an argument: "
                          "--tune name=v1,v2,...");
      std::string Err;
      if (!parseTune(argv[++I], TuneGrid, Err))
        return usageError(Err);
    } else if (Arg.rfind("--tune=", 0) == 0) {
      std::string Err;
      if (!parseTune(Arg.substr(7), TuneGrid, Err))
        return usageError(Err);
    } else if (Arg == "-D") {
      if (I + 1 >= argc)
        return usageError("-D expects an argument: -D name=value");
      std::string Err;
      if (!parseDefine(argv[++I], Inv.Defines, Err))
        return usageError(Err);
    } else if (Arg.rfind("-D", 0) == 0 && Arg.size() > 2) {
      std::string Err;
      if (!parseDefine(Arg.substr(2), Inv.Defines, Err))
        return usageError(Err);
    } else if (Arg == "-o") {
      if (I + 1 >= argc)
        return usageError("-o expects an output path");
      Output = argv[++I];
    } else if (!Arg.empty() && Arg[0] != '-') {
      if (!Input.empty())
        return usageError("unexpected extra input '" + Arg +
                          "' (input is already '" + Input + "')");
      Input = Arg;
    } else {
      return usageError("unrecognized option '" + Arg + "'");
    }
  }
  if (Input.empty())
    return usageError("no input file");
  if (Autotune) {
    if (EmitSeen || Run || KernelStats || DumpKIR || !Output.empty())
      return usageError("--autotune cannot be combined with --emit, --run, "
                        "--kernel-stats, --dump-kir or -o");
    if (Inv.Passes.any())
      return usageError("--autotune sweeps the schedule passes itself; drop "
                        "--pad-shared/--vectorize");
  } else if (!TuneGrid.empty()) {
    return usageError("--tune requires --autotune");
  }
  if (KernelStats) {
    // --kernel-stats is --run with counters on; it inherits --run's
    // conflict rules and may be combined with --run itself.
    Run = true;
    Inv.CollectKernelStats = true;
  }
  if (Run) {
    const char *Mode = KernelStats ? "--kernel-stats" : "--run";
    if (EmitSeen)
      return usageError(std::string(Mode) +
                        " cannot be combined with --emit (it always "
                        "executes through the vm backend)");
    if (DumpKIR)
      return usageError(std::string(Mode) +
                        " cannot be combined with --dump-kir");
    if (!Output.empty())
      return usageError(std::string(Mode) +
                        " cannot be combined with -o (results go to "
                        "stdout)");
  }
  if (!RunArgs.empty() && !Run && !Autotune)
    return usageError("--args requires --run, --kernel-stats or "
                      "--autotune");
  if (DumpKIR && Emit != "check")
    return usageError("--dump-kir cannot be combined with --emit=" + Emit);
  if (Emit == "check" || DumpKIR) {
    Inv.RunUntil = Stage::Typecheck;
  } else {
    Inv.RunUntil = Stage::Codegen;
    Inv.BackendName = Emit;
    if (!codegen::BackendRegistry::instance().lookup(Emit)) {
      std::fprintf(stderr, "descendc: error: unknown backend '%s'\n",
                   Emit.c_str());
      return usage();
    }
  }

  std::ifstream In(Input);
  if (!In) {
    std::fprintf(stderr, "descendc: error: cannot open '%s'\n",
                 Input.c_str());
    return 1;
  }
  std::stringstream SS;
  SS << In.rdbuf();

  Inv.BufferName = Input;

  if (Autotune) {
    AutotuneOptions Opts;
    Opts.BaseDefines = Inv.Defines;
    Opts.TuneGrid = TuneGrid;
    Opts.ArgFills = RunArgs;
    Opts.BufferName = Input;
    AutotuneResult R = descend::autotune(SS.str(), Opts);
    if (AutotuneJson) {
      std::string J = R.json();
      std::fwrite(J.data(), 1, J.size(), stdout);
    } else {
      std::string T = R.table();
      std::fwrite(T.data(), 1, T.size(), stdout);
    }
    if (!R.Ok) {
      std::fprintf(stderr, "descendc: error: %s\n", R.Error.c_str());
      return 1;
    }
    return 0;
  }

  if (Run) {
    Session S(Inv);
    ExecuteResult E = S.executeMain(SS.str(), RunArgs);
    std::string Rendered = S.renderDiagnostics();
    if (!Rendered.empty())
      std::fprintf(stderr, "%s", Rendered.c_str());
    if (TimePasses) {
      if (TimePassesJson) {
        printTimingsJson(Input, S.reached(), S.timings());
      } else {
        std::fprintf(stderr,
                     "descendc: pass timings for '%s' (stage reached: %s)\n",
                     Input.c_str(), stageName(S.reached()));
        for (const StageTiming &T : S.timings())
          std::fprintf(stderr, "  %-12s %9.3f ms%s\n", stageName(T.S),
                       T.Millis, T.Failed ? "  (failed)" : "");
      }
    }
    // Counters are reported even when the run failed: a trapping launch
    // is precisely the one whose counters are worth reading.
    if (KernelStats) {
      if (KernelStatsJson) {
        std::string J = "{\"file\":\"" + jsonEscape(Input) +
                        "\",\"launches\":[";
        for (size_t I = 0; I != E.KernelStats.size(); ++I) {
          if (I)
            J += ',';
          J += E.KernelStats[I].json();
        }
        J += "]}\n";
        std::fwrite(J.data(), 1, J.size(), stdout);
      } else {
        for (const obs::LaunchStats &LS : E.KernelStats)
          std::fprintf(stdout, "%s", LS.str().c_str());
      }
    }
    if (!E.Ok) {
      std::fprintf(stderr, "descendc: error: %s\n", E.Error.c_str());
      return 1;
    }
    // --kernel-stats=json keeps stdout a single JSON object; the RESULT
    // digest lines are the human modes' output.
    if (!KernelStatsJson)
      std::fwrite(E.Output.data(), 1, E.Output.size(), stdout);
    return 0;
  }

  Session S(Inv);
  CompileResult R = S.run(SS.str());

  std::string Rendered = S.renderDiagnostics();
  if (!Rendered.empty())
    std::fprintf(stderr, "%s", Rendered.c_str());

  if (TimePasses) {
    if (TimePassesJson) {
      printTimingsJson(Input, R.Reached, R.Timings);
    } else {
      std::fprintf(stderr, "descendc: pass timings for '%s' (stage reached: "
                           "%s)\n",
                   Input.c_str(), stageName(R.Reached));
      // A stage that ran but failed is timed too; mark it so the table
      // agrees with the stage-reached label above.
      for (const StageTiming &T : R.Timings)
        std::fprintf(stderr, "  %-12s %9.3f ms%s\n", stageName(T.S), T.Millis,
                     T.Failed ? "  (failed)" : "");
    }
  }

  if (!R.Ok)
    return 1;

  std::string Payload = R.Artifact;
  if (DumpKIR) {
    // =pre dumps with every pass off (the historical output); =post —
    // the default — applies the invocation's passes.
    std::string Error;
    if (!codegen::dumpKernelIRs(*S.module(), Payload, Error,
                                DumpKIRPre ? kir::PassConfig{}
                                           : Inv.Passes)) {
      std::fprintf(stderr, "descendc: error: %s\n", Error.c_str());
      return 1;
    }
  } else if (Emit == "check") {
    return 0;
  }

  if (Output.empty()) {
    std::fwrite(Payload.data(), 1, Payload.size(), stdout);
    return 0;
  }
  std::ofstream OutFile(Output);
  if (!OutFile) {
    std::fprintf(stderr, "descendc: error: cannot write '%s'\n",
                 Output.c_str());
    return 1;
  }
  OutFile << Payload;
  return 0;
}

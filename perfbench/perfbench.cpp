//===- perfbench/perfbench.cpp - End-to-end benchmark of one workload -------===//
//
// Runs one named workload of the repository benchmark in this process:
//
//   perfbench --workload serve|compile|kernels --seed N --seconds S
//             [--trace] [--sha SHA] [--spans FILE]
//
// A single closed-loop client thread drives the public APIs the way a
// descendd caller does: it sends the next request only after the reply
// to the previous one arrived. Every output is checked against an
// independent reference (closed forms, known verdicts, a CPU reference),
// never against the compiler under test. The last line of stdout is one
// JSON object with the end-to-end metrics (untraced run) or the
// per-layer metrics derived from spans (traced run, --trace). Sources
// are read relative to the working directory, the repository root.
//
// See README.md beside this file for why each workload exists and which
// end-to-end metric each per-layer metric should move.
//
//===----------------------------------------------------------------------===//

#include "harness.h"

#include "codegen/Lowerer.h"
#include "driver/Pipeline.h"
#include "obs/Trace.h"
#include "service/CompileService.h"
#include "sim/Sim.h"
#include "vm/Interp.h"

#include "gen_pb_matmul.h"    // matmul_pb                  (nt=PB_MATMUL_NT)
#include "gen_pb_reduce.h"    // reduce_pb                  (nb=PB_REDUCE_NB)
#include "gen_pb_scan.h"      // scan_blocks_pb, add_sums_pb (nb=PB_SCAN_NB)
#include "gen_pb_transpose.h" // transpose_pb               (n=PB_TRANSPOSE_N)

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>

using namespace descend;
using namespace perfbench;

namespace {

//===----------------------------------------------------------------------===//
// Fixed design constants (see README.md for the measurements behind them)
//===----------------------------------------------------------------------===//

/// Both devices run every block on the calling thread. serve requests
/// launch 1-16 blocks, and waking pool workers for those is scheduler
/// noise. On kernels, pool workers on a shared virtual machine left
/// launches waiting for a descheduled vCPU: its pass time spread twice
/// as far between runs as with one worker (see README.md).
constexpr unsigned ServeWorkers = 1;
constexpr unsigned KernelsWorkers = 1;

/// Units of work per second of --seconds. Counts are fixed by the
/// benchmark, not by elapsed time, so both sides of a comparison do the
/// same work; the rates make a run last about --seconds on a 4-core
/// x86-64 machine.
constexpr double ServeRate = 5000;
constexpr double CompileRate = 2500;
constexpr double KernelsRate = 4;

/// sim::GpuDevice keeps every device allocation until it dies (about
/// 8 KB per serve request), so the serve client replaces its device
/// after this many requests: the run's memory stays bounded while
/// peak_rss_mb still carries one device lifetime's growth.
constexpr size_t ServeDeviceRequests = 16384;

/// Busy time before the first set-up.
constexpr double WarmSeconds = 1.0;
/// Set-up runs this many times per run; setup_s is the median.
constexpr int SetupReps = 5;
/// throughput_rps is the median rate over this many equal batches.
constexpr int Batches = 20;
/// Generated-code passes per kernels pass: one vm pass takes about as
/// long as this many generated passes, so each engine is half a pass.
constexpr int GenRepsPerPass = 20;

const char *const FigKernels[] = {"reduce", "scan_blocks", "add_sums",
                                  "transpose", "matmul"};

/// The compile corpus: every source under kernels/ and programs/, with
/// the nat it is instantiated over and the sizes drawn for it.
struct CorpusEntry {
  const char *Dir, *Stem, *Nat;
  std::vector<long long> Sizes;
};
const std::vector<CorpusEntry> &corpus() {
  static const std::vector<CorpusEntry> C = {
      {"kernels", "reduce", "nb", {2, 8, 64}},
      {"kernels", "scan", "nb", {2, 8, 64}},
      {"kernels", "transpose", "n", {64, 128, 256}},
      {"kernels", "matmul", "nt", {1, 2, 4}},
      {"kernels", "scale_vec", "nb", {2, 8, 64}},
      {"kernels", "scale2", "nb", {2, 8, 64}},
      {"programs", "quickstart_host", "nb", {2, 8, 64}},
      {"programs", "reduction_host", "nb", {2, 8, 64}},
      {"programs", "matmul_host", "nt", {1, 2, 4}},
      {"programs", "bad_host_deref", "nb", {8}},
      {"programs", "bad_launch_config", "nb", {8}},
      {"programs", "bad_size_mismatch", "nb", {8}},
      {"programs", "bad_swapped_copy", "nb", {8}},
  };
  return C;
}

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

struct Metric {
  double Value = 0;
  std::string Unit;
};

/// Every per-layer metric name with its unit, in output order. The
/// traced run prints all of them for every workload (0 where the
/// workload's requests never reach the layer).
std::vector<std::pair<std::string, std::string>> layerMetricTable() {
  std::vector<std::pair<std::string, std::string>> T = {
      {"parser.ms", "ms"},
      {"parser.kb_per_ms", "KB/ms"},
      {"driver.instantiate_ms", "ms"},
      {"typeck.ms", "ms"},
      {"typeck.rejects", "count"},
      {"codegen.lower_ms", "ms"},
      {"codegen.phase_nodes", "count"},
      {"kir.rewrites", "count"},
      {"vm.compile_ms", "ms"},
      {"vm.bytecode_ms", "ms"},
      {"vm.instrs", "count"},
      {"vm.disasm_ms", "ms"},
      {"hostgen.emit_ms", "ms"},
      {"hostgen.artifact_kb", "KB"},
      {"service.miss_ms", "ms"},
      {"service.evictions", "count"},
  };
  for (const CorpusEntry &E : corpus())
    T.push_back({std::string("compile.ms.") + E.Stem, "ms"});
  for (auto P : std::initializer_list<std::pair<const char *, const char *>>{
           {"service.hit_us", "us"},
           {"service.hit_ratio", "ratio"},
           {"vm.host_ms", "ms"},
           {"sim.launches_per_req", "count"},
           {"sim.launch_us", "us"},
           {"runtime.device_kb_per_req", "KB"},
           {"client.us", "us"},
           {"vm.pass_ms", "ms"},
           {"gen.pass_ms", "ms"}})
    T.push_back({P.first, P.second});
  for (const char *K : FigKernels) {
    std::string S = K;
    T.push_back({"vm.launch_ms." + S, "ms"});
    T.push_back({"gen.launch_ms." + S, "ms"});
    T.push_back({"vm.tax." + S, "ratio"});
    T.push_back({"sim.blocks." + S, "count"});
    T.push_back({"sim.barriers." + S, "count"});
    T.push_back({"sim.global_accesses." + S, "count"});
    T.push_back({"sim.shared_transactions." + S, "count"});
    T.push_back({"sim.bank_conflicts." + S, "count"});
    T.push_back({"sim.chunk_claims." + S, "count"});
  }
  T.push_back({"kernels.peak_rss_mb", "MB"});
  T.push_back({"error_rate", "ratio"});
  return T;
}

struct Report {
  uint64_t Attempted = 0, Failed = 0;
  std::vector<std::pair<std::string, Metric>> E2E;
  std::map<std::string, double> Layer;

  void e2e(const std::string &Name, double V, const char *Unit) {
    E2E.push_back({Name, {V, Unit}});
  }
  /// Counts one checked result, and a wrong one as failed.
  void check(bool Ok, const std::string &What) {
    ++Attempted;
    if (!Ok)
      fail(What);
  }
  /// Counts a wrong result of an attempt already counted, with a
  /// diagnostic on stderr for the first few.
  void fail(const std::string &What) {
    if (++Failed <= 5)
      std::fprintf(stderr, "perfbench: wrong result: %s\n", What.c_str());
  }
  void add(const Report &O) {
    Attempted += O.Attempted;
    Failed += O.Failed;
  }
};

double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KB
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    std::fprintf(stderr, "perfbench: cannot read %s\n", Path.c_str());
    std::exit(2);
  }
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// The end-to-end figures shared by every workload: samples are the
/// per-unit latencies in ms, BatchMs the wall time of each of the
/// Batches equal batches of units.
void reportLatency(Report &R, const std::vector<double> &SamplesMs,
                   const std::vector<double> &BatchMs, size_t PerBatch,
                   double TailCap) {
  std::vector<double> Rates;
  for (double Ms : BatchMs)
    Rates.push_back(static_cast<double>(PerBatch) / (Ms / 1000.0));
  double Tail = tailPercentile(SamplesMs.size(), TailCap);
  R.e2e("throughput_rps", median(Rates), "1/s");
  R.e2e("latency_p50_ms", median(SamplesMs), "ms");
  R.e2e("latency_tail_ms", percentile(SamplesMs, Tail), "ms");
  std::printf("perfbench: samples=%zu tail=p%g batches=%zu x %zu "
              "batch_rate_min=%.6g batch_rate_max=%.6g\n",
              SamplesMs.size(), Tail, BatchMs.size(), PerBatch,
              percentile(Rates, 1), percentile(Rates, 100));

}

/// Keeps the calling thread busy for \p Seconds. A virtual machine's
/// idle vCPU runs slowly for up to a second after it wakes, which
/// otherwise lands in the first set-ups of a run.
void warmCpu(double Seconds) {
  auto Until = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(Seconds));
  volatile uint64_t X = 0;
  while (Clock::now() < Until)
    for (int I = 0; I != 1000; ++I)
      X = X + I;
}

/// Runs \p Setup SetupReps times; returns the median wall time in s.
/// The instance built by the last repetition is the one measured.
template <typename T>
double timedSetup(std::unique_ptr<T> &Out,
                  const std::function<std::unique_ptr<T>()> &Setup) {
  std::vector<double> Secs;
  for (int I = 0; I != SetupReps; ++I) {
    Out.reset(); // the previous instance's memory is not part of set-up
    auto T0 = Clock::now();
    Out = Setup();
    Secs.push_back(msBetween(T0, Clock::now()) / 1000.0);
  }

  return median(Secs);
}

//===----------------------------------------------------------------------===//
// Aligning the program's own obs spans with the benchmark's spans
//===----------------------------------------------------------------------===//

/// Complete events of the process-wide obs collector, in the span
/// recorder's time base (us since its epoch).
struct ObsEvent {
  double Start, Dur;
};

/// Switches the program's existing obs spans on, anchored to \p Rec's
/// epoch with a zero-length marker event.
void enableObs(const SpanRecorder &Rec, const std::string &Path) {
  auto &TC = obs::TraceCollector::global();
  TC.enable(Path);
  TC.addComplete("perfbench", "epoch", Rec.epoch(), Rec.epoch());
}

/// Extracts every `Cat`/`Name` complete event from the collector and
/// switches it off again (so nothing is flushed at exit).
std::vector<ObsEvent> takeObsEvents(const char *Cat, const char *Name) {
  auto &TC = obs::TraceCollector::global();
  std::string Doc = TC.renderJson();
  TC.disable();
  auto Find = [&](const std::string &Prefix) {
    std::vector<ObsEvent> Out;
    for (size_t P = Doc.find(Prefix); P != std::string::npos;
         P = Doc.find(Prefix, P + 1)) {
      const char *S = Doc.c_str() + P + Prefix.size();
      char *E = nullptr;
      double Ts = std::strtod(S, &E);
      static const char DurKey[] = ",\"dur\":";
      if (std::strncmp(E, DurKey, sizeof(DurKey) - 1) != 0)
        continue;
      Out.push_back({Ts, std::strtod(E + sizeof(DurKey) - 1, nullptr)});
    }
    return Out;
  };
  auto Head = [](const char *C, const char *N) {
    return std::string("{\"name\":\"") + N + "\",\"cat\":\"" + C +
           "\",\"ph\":\"X\",\"ts\":";
  };
  std::vector<ObsEvent> Epoch = Find(Head("perfbench", "epoch"));
  std::vector<ObsEvent> Out = Find(Head(Cat, Name));
  double Base = Epoch.empty() ? 0.0 : Epoch.front().Start;
  for (ObsEvent &E : Out)
    E.Start -= Base;
  std::sort(Out.begin(), Out.end(),
            [](const ObsEvent &A, const ObsEvent &B) {
              return A.Start < B.Start;
            });
  return Out;
}

//===----------------------------------------------------------------------===//
// serve
//===----------------------------------------------------------------------===//

struct ServeKind {
  enum Shape { Scale, Reduce, Scale2, Matmul } S;
  long long Size; // nb, or nt for matmul
  service::CompileRequest Req;
};

struct ServeRequest {
  uint8_t Kind;
  double FillA, FillB;
};

struct ServeState {
  std::vector<ServeKind> Kinds;
  std::vector<ServeRequest> Requests;
  std::unique_ptr<service::CompileService> Svc;
  std::unique_ptr<sim::GpuDevice> Dev;
  Report Warm; ///< results checked in the warm-up
};

/// The seeded serve mix: quickstart_host nb in {1,2,4,8} (3/8),
/// reduction_host nb in {1,2,4,8} (3/8), scale2 nb in {1,2,4} with
/// --vectorize (3/16) and matmul_host nt=1 (1/16), in 32nds.
std::vector<ServeRequest> serveRequests(uint64_t Seed, size_t N) {
  static const std::vector<unsigned> Weights = {3, 3, 3, 3, 3, 3, 3,
                                                3, 2, 2, 2, 2};
  Rng R(Seed);
  std::vector<ServeRequest> Out(N);
  for (ServeRequest &Q : Out) {
    Q.Kind = static_cast<uint8_t>(R.weighted(Weights));
    Q.FillA = static_cast<double>(1 + R.below(16)) * 0.25;
    Q.FillB = static_cast<double>(1 + R.below(16)) * 0.25;
  }
  return Out;
}

/// Builds one request's host arguments (filled host arrays).
std::vector<std::shared_ptr<vm::HostArray>> serveInputs(const ServeKind &K,
                                                        const ServeRequest &Q) {
  auto Arr = [](size_t N, double Fill) {
    return vm::makeHostArray(ScalarKind::F64, N, Fill);
  };
  size_t N = static_cast<size_t>(K.Size);
  switch (K.S) {
  case ServeKind::Scale:
    return {Arr(N * 256, Q.FillA)};
  case ServeKind::Reduce:
    return {Arr(N * 256, Q.FillA), Arr(N, 0.0), Arr(1, 0.0)};
  case ServeKind::Scale2:
    return {Arr(N * 512, Q.FillA)};
  case ServeKind::Matmul:
    return {Arr(N * N * 256, Q.FillA), Arr(N * N * 256, Q.FillB),
            Arr(N * N * 256, 0.0)};
  }
  return {};
}

bool serveCheck(const ServeKind &K, const ServeRequest &Q,
                const std::vector<std::shared_ptr<vm::HostArray>> &A) {
  size_t N = static_cast<size_t>(K.Size);
  switch (K.S) {
  case ServeKind::Scale:
  case ServeKind::Scale2:
    return checkScaled(A[0]->Bytes.data(), A[0]->Count, Q.FillA);
  case ServeKind::Reduce:
    return checkReduction(A[1]->Bytes.data(), N, A[2]->Bytes.data(),
                          Q.FillA);
  case ServeKind::Matmul:
    return checkMatmul(A[2]->Bytes.data(), N * 16, Q.FillA, Q.FillB);
  }
  return false;
}

/// One served request: cache probe, host-IR interpretation with its
/// device allocations, copies and launches.
bool serveOne(ServeState &St, const ServeKind &K,
              std::vector<std::shared_ptr<vm::HostArray>> &Args,
              SpanRecorder *Rec, uint64_t Id) {
  int Sp = Rec ? Rec->begin("service.compile", Id) : -1;
  service::CompileReply Rep = St.Svc->compile(K.Req);
  if (Rec)
    Rec->end(Sp);
  if (!Rep.Ok || !Rep.Program)
    return false;
  const vm::HostFnIR *Main = Rep.Program->findHostFn("main");
  if (!Main)
    return false;
  std::vector<vm::HostVal> Vals;
  for (auto &A : Args)
    Vals.push_back(vm::HostVal::array(A));
  Sp = Rec ? Rec->begin("vm.runHostFn", Id) : -1;
  vm::RunStatus RS = vm::runHostFn(*St.Dev, *Rep.Program, *Main, Vals);
  if (Rec)
    Rec->end(Sp);
  return RS.Ok;
}

std::unique_ptr<ServeState> serveSetup(uint64_t Seed, size_t N) {
  auto St = std::make_unique<ServeState>();
  std::string Quick = readFile("programs/quickstart_host.descend");
  std::string Red = readFile("programs/reduction_host.descend");
  std::string Sc2 = readFile("kernels/scale2.descend");
  std::string Mm = readFile("programs/matmul_host.descend");
  auto Add = [&](ServeKind::Shape S, const std::string &Src, const char *Nat,
                 long long Size, bool Vec) {
    ServeKind K{S, Size, {}};
    K.Req.Source = Src;
    K.Req.Defines[Nat] = Size;
    K.Req.Backend = "vm";
    K.Req.Passes.Vectorize = Vec;
    St->Kinds.push_back(std::move(K));
  };
  for (long long NB : {1, 2, 4, 8})
    Add(ServeKind::Scale, Quick, "nb", NB, false);
  for (long long NB : {1, 2, 4, 8})
    Add(ServeKind::Reduce, Red, "nb", NB, false);
  for (long long NB : {1, 2, 4})
    Add(ServeKind::Scale2, Sc2, "nb", NB, true);
  Add(ServeKind::Matmul, Mm, "nt", 1, false);

  St->Requests = serveRequests(Seed, N);
  St->Svc = std::make_unique<service::CompileService>();
  St->Dev = std::make_unique<sim::GpuDevice>();
  St->Dev->setWorkers(ServeWorkers);

  // Cold-compile the working set, then warm every kind end to end.
  for (int Round = 0; Round != 8; ++Round)
    for (const ServeKind &K : St->Kinds) {
      ServeRequest Q{0, 1.0, 1.0};
      auto Args = serveInputs(K, Q);
      St->Warm.check(serveOne(*St, K, Args, nullptr, 0) &&
                         serveCheck(K, Q, Args),
                     "warm-up serve " +
                         std::string(K.Req.Defines.begin()->first) +
                         "=" + std::to_string(K.Size));
    }
  return St;
}

void runServe(uint64_t Seed, double Seconds,
              bool Trace, const std::string &ObsPath, Report &R,
              SpanRecorder &Rec) {
  const size_t N = static_cast<size_t>(ServeRate * Seconds);
  std::unique_ptr<ServeState> St;
  double SetupS = timedSetup<ServeState>(
      St, [&] { return serveSetup(Seed, N); });
  std::printf("perfbench: requests=%zu workers=%u device_lifetime=%zu\n",
              N, ServeWorkers, ServeDeviceRequests);
  R.add(St->Warm);

  if (Trace) {
    Rec.spans().reserve(N * 5);
    enableObs(Rec, ObsPath);
  }
  service::ServiceStats S0 = St->Svc->stats();
  // Device allocations are never freed before the device dies, so the
  // peak grows with every request of the first device's lifetime; that
  // growth is the per-request device footprint.
  double Rss0 = peakRssMb(), Rss1 = 0;
  const size_t Lifetime = std::min(N, ServeDeviceRequests);
  std::vector<double> Lat(N), ClientUs(N), BatchMs;
  const size_t PerBatch = N / Batches;
  auto BatchT0 = Clock::now();
  for (size_t I = 0; I != N; ++I) {
    if (I == Lifetime)
      Rss1 = peakRssMb();
    if (I != 0 && I % ServeDeviceRequests == 0) {
      St->Dev = std::make_unique<sim::GpuDevice>();
      St->Dev->setWorkers(ServeWorkers);
    }
    const ServeRequest &Q = St->Requests[I];
    const ServeKind &K = St->Kinds[Q.Kind];
    SpanRecorder *RP = Trace ? &Rec : nullptr;
    int Root0 = RP ? Rec.begin("request", I) : -1;
    auto T0 = Clock::now();
    auto Args = serveInputs(K, Q);
    auto T1 = Clock::now();
    bool Ok = serveOne(*St, K, Args, RP, I);
    auto T2 = Clock::now();
    Ok = Ok && serveCheck(K, Q, Args);
    auto T3 = Clock::now();
    if (RP)
      Rec.end(Root0);
    ++R.Attempted;
    if (!Ok)
      R.fail("serve request " + std::to_string(I));
    Lat[I] = msBetween(T1, T2);
    ClientUs[I] = (msBetween(T0, T1) + msBetween(T2, T3)) * 1000.0;
    if ((I + 1) % PerBatch == 0 && BatchMs.size() < Batches) {
      auto Now = Clock::now();
      BatchMs.push_back(msBetween(BatchT0, Now));
      BatchT0 = Now;
    }
  }
  if (Lifetime == N)
    Rss1 = peakRssMb();
  service::ServiceStats S1 = St->Svc->stats();

  R.e2e("setup_s", SetupS, "s");
  reportLatency(R, Lat, BatchMs, PerBatch, 99.0);
  R.e2e("peak_rss_mb", peakRssMb(), "MB");

  if (!Trace)
    return;
  // Per-layer attribution: the program's sim/launch spans fall inside
  // the benchmark's vm.runHostFn spans (one worker: launches run on the
  // calling thread).
  std::vector<ObsEvent> Launches = takeObsEvents("sim", "launch");
  std::vector<double> HitUs, HostMs, LaunchUs;
  size_t L = 0, Attributed = 0;
  for (const SpanRec &S : Rec.spans()) {
    if (S.Name == "service.compile")
      HitUs.push_back(S.dur());
    if (S.Name != "vm.runHostFn")
      continue;
    while (L != Launches.size() && Launches[L].Start < S.Start)
      ++L;
    double InLaunch = 0;
    for (; L != Launches.size() && Launches[L].Start <= S.End; ++L) {
      InLaunch += Launches[L].Dur;
      LaunchUs.push_back(Launches[L].Dur);
      ++Attributed;
    }
    HostMs.push_back(std::max(0.0, S.dur() - InLaunch) / 1000.0);
  }
  uint64_t Hits = S1.Hits - S0.Hits, Misses = S1.Misses - S0.Misses;
  R.Layer["service.hit_us"] = median(HitUs);
  R.Layer["service.hit_ratio"] =
      static_cast<double>(Hits) / static_cast<double>(Hits + Misses);
  R.Layer["vm.host_ms"] = median(HostMs);
  R.Layer["sim.launches_per_req"] =
      static_cast<double>(Attributed) / static_cast<double>(N);
  R.Layer["sim.launch_us"] = median(LaunchUs);
  R.Layer["runtime.device_kb_per_req"] =
      (Rss1 - Rss0) * 1024.0 / static_cast<double>(Lifetime);
  R.Layer["client.us"] = median(ClientUs);
}

//===----------------------------------------------------------------------===//
// compile
//===----------------------------------------------------------------------===//

struct CompileRequestDesc {
  uint8_t Source;
  long long Size;
  uint8_t Backend; // 0 vm, 1 sim, 2 cuda
  uint8_t Passes;  // bit 0: pad=1, bit 1: vectorize
};

const char *const BackendNames[] = {"vm", "sim", "cuda"};

/// Seeded compile mix: any corpus source (bad_* included) at one of its
/// sizes, vm for half the requests and sim/cuda for a quarter each, and
/// one of the four schedule-pass configurations.
std::vector<CompileRequestDesc> compileRequests(uint64_t Seed, size_t N) {
  Rng R(Seed);
  std::vector<CompileRequestDesc> Out(N);
  for (CompileRequestDesc &D : Out) {
    D.Source = static_cast<uint8_t>(R.below(corpus().size()));
    const auto &Sizes = corpus()[D.Source].Sizes;
    D.Size = Sizes[R.below(Sizes.size())];
    D.Backend = static_cast<uint8_t>(R.weighted({2, 1, 1}));
    D.Passes = static_cast<uint8_t>(R.below(4));
  }
  return Out;
}

struct CompileState {
  std::vector<std::string> Sources;
  std::vector<CompileRequestDesc> Requests;
  std::unique_ptr<service::CompileService> Svc;
  Report Warm; ///< results checked in the warm-up
};

/// Builds request \p I: the source as an editor re-sends it, with a
/// per-request comment line that makes every key distinct.
service::CompileRequest makeCompileRequest(const CompileState &St,
                                           uint64_t Seed, size_t I) {
  const CompileRequestDesc &D = St.Requests[I];
  const CorpusEntry &E = corpus()[D.Source];
  service::CompileRequest Q;
  Q.Source = St.Sources[D.Source];
  Q.Source += "// edit " + std::to_string(Seed) + "." + std::to_string(I) +
              "\n";
  Q.Defines[E.Nat] = D.Size;
  Q.Backend = BackendNames[D.Backend];
  Q.Passes.SharedPad = (D.Passes & 1) ? 1 : 0;
  Q.Passes.Vectorize = (D.Passes & 2) != 0;
  Q.BufferName = E.Stem;
  return Q;
}

bool expectAccepted(const CorpusEntry &E) {
  return std::strncmp(E.Stem, "bad_", 4) != 0;
}

std::unique_ptr<CompileState> compileSetup(uint64_t Seed, size_t N) {
  auto St = std::make_unique<CompileState>();
  for (const CorpusEntry &E : corpus())
    St->Sources.push_back(
        readFile(std::string(E.Dir) + "/" + E.Stem + ".descend"));
  St->Requests = compileRequests(Seed, N);
  St->Svc = std::make_unique<service::CompileService>();
  // Warm-up: every source at every size on every backend, through a
  // service of its own so the measured one starts empty.
  service::CompileService WarmSvc;
  CompileState Tmp;
  Tmp.Sources = St->Sources;
  for (uint8_t S = 0; S != corpus().size(); ++S)
    for (long long Size : corpus()[S].Sizes)
      for (uint8_t B = 0; B != 3; ++B)
        Tmp.Requests.push_back({S, Size, B, static_cast<uint8_t>(B)});
  for (size_t I = 0; I != Tmp.Requests.size(); ++I) {
    service::CompileReply Rep =
        WarmSvc.compile(makeCompileRequest(Tmp, Seed, I));
    const CorpusEntry &E = corpus()[Tmp.Requests[I].Source];
    St->Warm.check(checkVerdict(expectAccepted(E), Rep.Ok, Rep.Artifact,
                                Rep.Diagnostics),
                   std::string("warm-up compile verdict on ") + E.Stem);
  }
  return St;
}

/// Counts every instruction of a compiled program.
size_t countInstrs(const vm::CompiledProgram &P) {
  std::function<size_t(const std::vector<vm::VmNode> &)> Nodes =
      [&](const std::vector<vm::VmNode> &V) {
        size_t N = 0;
        for (const vm::VmNode &Node : V)
          N += Node.Body.Instrs.size() + Node.Lo.Instrs.size() +
               Node.Hi.Instrs.size() + Nodes(Node.Children);
        return N;
      };
  size_t N = 0;
  for (const vm::VmKernel &K : P.Kernels)
    N += Nodes(K.Nodes);
  return N;
}

/// Per-layer counters of the compile workload's traced run.
struct CompileLayers {
  double ParseKb = 0, ParseMs = 0;
  uint64_t Rejects = 0, PhaseNodes = 0, Rewrites = 0, Instrs = 0;
  std::vector<double> ArtifactKb, BytecodeMs;
};

/// Re-runs request \p Q's pipeline stage by stage through the public
/// calls, each in its own span, after the service has answered it. This
/// attributes the service's compile time to layers without any tracing
/// inside the program. Returns whether every stage succeeded.
bool shadowCompile(const service::CompileRequest &Q, SpanRecorder &Rec,
                   uint64_t Id, CompileLayers &L) {
  int Root = Rec.begin("shadow", Id);
  CompilerInvocation Inv;
  Inv.BufferName = Q.BufferName;
  Inv.Defines = Q.Defines;
  Inv.BackendName = Q.Backend;
  Inv.Passes = Q.Passes;
  Session S(Inv);
  // Runs F in a span named Name; returns the span's length in ms.
  auto Timed = [&](const char *Name, const auto &F) {
    int Sp = Rec.begin(Name, Id);
    F();
    Rec.end(Sp);
    return Rec.spans()[Sp].dur() / 1000.0;
  };
  bool Ok = false;
  L.ParseMs += Timed("parser", [&] { Ok = S.parse(Q.Source); });
  L.ParseKb += static_cast<double>(Q.Source.size()) / 1024.0;
  if (Ok)
    Timed("driver.instantiate", [&] { Ok = S.instantiate(); });
  if (Ok) {
    Timed("typeck", [&] { Ok = S.typecheck(); });
    L.Rejects += !Ok;
  }
  if (Ok) {
    const Module &M = *S.module();
    bool Cuda = Q.Backend == "cuda";
    double LowerMs = Timed("codegen.lower", [&] {
      for (const auto &Fn : M.Fns) {
        if (!Fn->isGpuFn())
          continue;
        codegen::Lowerer Low(M, Cuda ? codegen::LowerTarget::Cuda
                                     : codegen::LowerTarget::Sim,
                             Q.Passes);
        Ok &= Low.runKernel(*Fn);
        if (!Cuda)
          L.PhaseNodes += Low.Program.straightCount();
        L.Rewrites += Low.SchedStats.PaddedBuffers +
                      Low.SchedStats.FusedStorePairs +
                      Low.SchedStats.FusedLoadPairs;
      }
    });
    if (Q.Backend == "vm") {
      vm::CompileVmResult C;
      double VmMs = Timed("vm.compile", [&] { C = vm::compile(M, Q.Passes); });
      L.BytecodeMs.push_back(std::max(0.0, VmMs - LowerMs));
      Ok &= C.Ok;
      if (C.Ok) {
        L.Instrs += countInstrs(*C.Program);
        Timed("vm.disassemble",
              [&] { Ok &= !vm::disassemble(*C.Program).empty(); });
      }
    } else {
      codegen::GenResult G;
      Timed("hostgen.emit", [&] { G = S.emit(); });
      Ok &= G.Ok;
      L.ArtifactKb.push_back(static_cast<double>(G.Code.size()) / 1024.0);
    }
  }
  Rec.end(Root);
  return Ok;
}

void runCompile(uint64_t Seed, double Seconds,
                bool Trace, Report &R, SpanRecorder &Rec) {
  const size_t N = static_cast<size_t>(CompileRate * Seconds);
  std::unique_ptr<CompileState> St;
  double SetupS = timedSetup<CompileState>(
      St, [&] { return compileSetup(Seed, N); });
  std::printf("perfbench: requests=%zu workers=0 (no kernel runs)\n", N);
  R.add(St->Warm);

  if (Trace)
    Rec.spans().reserve(N * 12);
  service::ServiceStats S0 = St->Svc->stats();
  CompileLayers CL;
  uint64_t BadRequests = 0;
  std::vector<double> Lat(N), BatchMs;
  std::vector<std::vector<double>> PerSource(corpus().size());
  const size_t PerBatch = N / Batches;
  auto BatchT0 = Clock::now();
  for (size_t I = 0; I != N; ++I) {
    int Root0 = Trace ? Rec.begin("request", I) : -1;
    service::CompileRequest Q = makeCompileRequest(*St, Seed, I);
    int Sp = Trace ? Rec.begin("service.compile", I) : -1;
    auto T1 = Clock::now();
    service::CompileReply Rep = St->Svc->compile(Q);
    auto T2 = Clock::now();
    if (Trace)
      Rec.end(Sp);
    const CorpusEntry &E = corpus()[St->Requests[I].Source];
    bool Ok = checkVerdict(expectAccepted(E), Rep.Ok, Rep.Artifact,
                           Rep.Diagnostics);
    if (Trace)
      Rec.end(Root0);
    BadRequests += !expectAccepted(E);
    Lat[I] = msBetween(T1, T2);
    PerSource[St->Requests[I].Source].push_back(Lat[I]);
    // The stage-by-stage re-run runs outside the request's span and must
    // reach the same verdict.
    if (Trace)
      Ok &= shadowCompile(Q, Rec, I, CL) == expectAccepted(E);
    ++R.Attempted;
    if (!Ok)
      R.fail(std::string("compile verdict on ") + E.Stem);
    if ((I + 1) % PerBatch == 0 && BatchMs.size() < Batches) {
      auto Now = Clock::now();
      BatchMs.push_back(msBetween(BatchT0, Now));
      BatchT0 = Now;
    }
  }
  service::ServiceStats S1 = St->Svc->stats();

  R.e2e("setup_s", SetupS, "s");
  reportLatency(R, Lat, BatchMs, PerBatch, 99.0);
  R.e2e("peak_rss_mb", peakRssMb(), "MB");

  if (!Trace)
    return;
  std::map<std::string, std::vector<double>> ByName;
  for (const SpanRec &S : Rec.spans())
    ByName[S.Name].push_back(S.dur() / 1000.0);
  std::vector<double> MissMs;
  for (size_t I = 0; I != N; ++I)
    if (expectAccepted(corpus()[St->Requests[I].Source]))
      MissMs.push_back(Lat[I]);
  R.Layer["parser.ms"] = median(ByName["parser"]);
  R.Layer["parser.kb_per_ms"] = CL.ParseMs > 0 ? CL.ParseKb / CL.ParseMs : 0;
  R.Layer["driver.instantiate_ms"] = median(ByName["driver.instantiate"]);
  R.Layer["typeck.ms"] = median(ByName["typeck"]);
  R.Layer["typeck.rejects"] = static_cast<double>(CL.Rejects);
  R.Layer["codegen.lower_ms"] = median(ByName["codegen.lower"]);
  R.Layer["codegen.phase_nodes"] = static_cast<double>(CL.PhaseNodes);
  R.Layer["kir.rewrites"] = static_cast<double>(CL.Rewrites);
  R.Layer["vm.compile_ms"] = median(ByName["vm.compile"]);
  R.Layer["vm.bytecode_ms"] = median(CL.BytecodeMs);
  R.Layer["vm.instrs"] = static_cast<double>(CL.Instrs);
  R.Layer["vm.disasm_ms"] = median(ByName["vm.disassemble"]);
  R.Layer["hostgen.emit_ms"] = median(ByName["hostgen.emit"]);
  R.Layer["hostgen.artifact_kb"] = median(CL.ArtifactKb);
  R.Layer["service.miss_ms"] = median(MissMs);
  R.Layer["service.evictions"] =
      static_cast<double>(S1.Evictions - S0.Evictions);
  for (size_t S = 0; S != corpus().size(); ++S)
    R.Layer[std::string("compile.ms.") + corpus()[S].Stem] =
        median(PerSource[S]);
  R.check(CL.Rejects == BadRequests,
          "typecheck rejected " + std::to_string(CL.Rejects) +
              " requests, expected the " + std::to_string(BadRequests) +
              " bad_* ones");
}

//===----------------------------------------------------------------------===//
// kernels
//===----------------------------------------------------------------------===//

constexpr size_t RedN = PB_REDUCE_NB * 256, ScanN = PB_SCAN_NB * 256,
                 TrN = PB_TRANSPOSE_N, MmN = PB_MATMUL_NT * 16;

/// One engine's buffers: inputs, outputs and the host-side scan offsets.
template <typename Buf> struct EngineBufs {
  Buf RedIn, RedOut, ScanIn, ScanOut, ScanSums, ScanOffs, TrIn, TrOut, A, B,
      C;
};

struct KernelsState {
  std::unique_ptr<sim::GpuDevice> Dev;
  std::vector<std::shared_ptr<const vm::CompiledProgram>> Progs;
  const vm::VmKernel *K[5] = {};
  EngineBufs<vm::DevBuf> V;
  EngineBufs<sim::GpuDevice::Buffer<double>> G;
  // CPU references.
  std::vector<double> RefRed, RefScan, RefTr, RefC;
  Report Warm; ///< results checked in the warm-up
};

double *ptr(vm::DevBuf &B) { return reinterpret_cast<double *>(B.Data); }
double *ptr(sim::GpuDevice::Buffer<double> &B) { return B.data(); }

/// The host step between the two scan kernels: inclusive prefix sums of
/// the block totals become the offsets add_sums applies.
template <typename Buf> void scanOffsets(EngineBufs<Buf> &E) {
  double Acc = 0;
  for (size_t I = 0; I != PB_SCAN_NB; ++I)
    ptr(E.ScanOffs)[I] = Acc += ptr(E.ScanSums)[I];
}

/// Launches kernel \p I of FigKernels on the vm.
bool vmLaunch(KernelsState &St, int I) {
  auto &V = St.V;
  std::vector<vm::DevBuf> Args;
  switch (I) {
  case 0: Args = {V.RedIn, V.RedOut}; break;
  case 1: Args = {V.ScanIn, V.ScanOut, V.ScanSums}; break;
  case 2: scanOffsets(V); Args = {V.ScanOut, V.ScanOffs}; break;
  case 3: Args = {V.TrIn, V.TrOut}; break;
  default: Args = {V.A, V.B, V.C}; break;
  }
  return vm::launchKernel(*St.Dev, *St.K[I], Args).Ok;
}

/// Launches kernel \p I of FigKernels as build-time generated code.
void genLaunch(KernelsState &St, int I) {
  auto &G = St.G;
  sim::GpuDevice &D = *St.Dev;
  switch (I) {
  case 0: gen::reduce_pb(D, G.RedIn, G.RedOut); break;
  case 1: gen::scan_blocks_pb(D, G.ScanIn, G.ScanOut, G.ScanSums); break;
  case 2: scanOffsets(G); gen::add_sums_pb(D, G.ScanOut, G.ScanOffs); break;
  case 3: gen::transpose_pb(D, G.TrIn, G.TrOut); break;
  default: gen::matmul_pb(D, G.A, G.B, G.C); break;
  }
}

/// Bit-equality of one engine's four outputs with the CPU references;
/// returns the number of wrong outputs.
template <typename Buf>
int kernelsCheck(KernelsState &St, EngineBufs<Buf> &E) {
  return !bitEqual(ptr(E.RedOut), St.RefRed) +
         !bitEqual(ptr(E.ScanOut), St.RefScan) +
         !bitEqual(ptr(E.TrOut), St.RefTr) + !bitEqual(ptr(E.C), St.RefC);
}

std::unique_ptr<KernelsState> kernelsSetup(uint64_t Seed) {
  auto St = std::make_unique<KernelsState>();
  St->Dev = std::make_unique<sim::GpuDevice>();
  St->Dev->setWorkers(KernelsWorkers);
  sim::GpuDevice &D = *St->Dev;

  struct Src {
    const char *Stem, *Nat;
    long long Size;
  };
  const Src Srcs[] = {{"reduce", "nb", PB_REDUCE_NB},
                      {"scan", "nb", PB_SCAN_NB},
                      {"transpose", "n", PB_TRANSPOSE_N},
                      {"matmul", "nt", PB_MATMUL_NT}};
  for (const Src &S : Srcs) {
    CompilerInvocation Inv;
    Inv.BufferName = S.Stem;
    Inv.Defines[S.Nat] = S.Size;
    Inv.RunUntil = Stage::Typecheck;
    Session Ses(Inv);
    std::string Text = readFile(std::string("kernels/") + S.Stem + ".descend");
    if (!Ses.run(Text).Ok) {
      std::fprintf(stderr, "%s", Ses.renderDiagnostics().c_str());
      std::exit(1);
    }
    vm::CompileVmResult C = vm::compile(*Ses.module());
    if (!C.Ok) {
      std::fprintf(stderr, "perfbench: vm::compile: %s\n", C.Error.c_str());
      std::exit(1);
    }
    St->Progs.push_back(C.Program);
  }
  const int ProgOf[5] = {0, 1, 1, 2, 3}; // FigKernels -> Srcs
  for (int I = 0; I != 5; ++I) {
    St->K[I] = St->Progs[ProgOf[I]]->findKernel(FigKernels[I]);
    if (!St->K[I]) {
      std::fprintf(stderr, "perfbench: no kernel %s\n", FigKernels[I]);
      std::exit(1);
    }
  }

  auto VA = [&](size_t N) { return vm::allocDev(D, ScalarKind::F64, N); };
  auto GA = [&](size_t N) { return D.alloc<double>(N); };
  St->V = {VA(RedN), VA(PB_REDUCE_NB), VA(ScanN), VA(ScanN), VA(PB_SCAN_NB),
           VA(PB_SCAN_NB), VA(TrN * TrN), VA(TrN * TrN), VA(MmN * MmN),
           VA(MmN * MmN), VA(MmN * MmN)};
  St->G = {GA(RedN), GA(PB_REDUCE_NB), GA(ScanN), GA(ScanN), GA(PB_SCAN_NB),
           GA(PB_SCAN_NB), GA(TrN * TrN), GA(TrN * TrN), GA(MmN * MmN),
           GA(MmN * MmN), GA(MmN * MmN)};

  // Inputs are halves (reduce, scan, transpose) and small integers
  // (matmul), so every f64 sum below is exact in any order and the CPU
  // reference must match both engines bit for bit.
  Rng R(Seed);
  auto Half = [&] { return (static_cast<double>(R.below(17)) - 8.0) * 0.5; };
  auto Int = [&] { return static_cast<double>(R.below(9)) - 4.0; };
  auto Fill = [&](size_t N, auto Gen, vm::DevBuf &VB,
                  sim::GpuDevice::Buffer<double> &GB) {
    std::vector<double> H(N);
    for (double &X : H)
      X = Gen();
    std::memcpy(VB.Data, H.data(), N * sizeof(double));
    std::memcpy(GB.data(), H.data(), N * sizeof(double));
    return H;
  };
  std::vector<double> Red = Fill(RedN, Half, St->V.RedIn, St->G.RedIn);
  std::vector<double> Scan = Fill(ScanN, Half, St->V.ScanIn, St->G.ScanIn);
  std::vector<double> Tr = Fill(TrN * TrN, Half, St->V.TrIn, St->G.TrIn);
  std::vector<double> A = Fill(MmN * MmN, Int, St->V.A, St->G.A);
  std::vector<double> B = Fill(MmN * MmN, Int, St->V.B, St->G.B);

  St->RefRed.assign(PB_REDUCE_NB, 0.0);
  for (size_t I = 0; I != RedN; ++I)
    St->RefRed[I / 256] += Red[I];
  St->RefScan.resize(ScanN);
  double Acc = 0;
  for (size_t I = 0; I != ScanN; ++I)
    St->RefScan[I] = Acc += Scan[I];
  St->RefTr.resize(TrN * TrN);
  for (size_t I = 0; I != TrN; ++I)
    for (size_t J = 0; J != TrN; ++J)
      St->RefTr[J * TrN + I] = Tr[I * TrN + J];
  St->RefC.assign(MmN * MmN, 0.0);
  for (size_t I = 0; I != MmN; ++I)
    for (size_t K = 0; K != MmN; ++K)
      for (size_t J = 0; J != MmN; ++J)
        St->RefC[I * MmN + J] += A[I * MmN + K] * B[K * MmN + J];

  // Warm-up: one full pass on each engine, checked.
  bool Ok = true;
  for (int I = 0; I != 5; ++I)
    Ok &= vmLaunch(*St, I);
  for (int Rep = 0; Rep != GenRepsPerPass; ++Rep)
    for (int I = 0; I != 5; ++I)
      genLaunch(*St, I);
  St->Warm.check(Ok && !kernelsCheck(*St, St->V), "warm-up kernels vm pass");
  St->Warm.check(!kernelsCheck(*St, St->G), "warm-up kernels generated pass");
  return St;
}

void runKernels(uint64_t Seed, double Seconds,
                bool Trace, Report &R, SpanRecorder &Rec) {
  const size_t N = static_cast<size_t>(KernelsRate * Seconds);
  std::unique_ptr<KernelsState> St;
  double SetupS = timedSetup<KernelsState>(
      St, [&] { return kernelsSetup(Seed); });
  std::printf("perfbench: passes=%zu workers=%u gen_reps_per_pass=%d\n", N,
              KernelsWorkers, GenRepsPerPass);
  R.add(St->Warm);

  std::vector<double> PassMs(N), VmMs(N), GenMs(N), BatchMs;
  const size_t PerBatch = std::max<size_t>(1, N / Batches);
  auto BatchT0 = Clock::now();
  for (size_t P = 0; P != N; ++P) {
    int Root0 = Trace ? Rec.begin("pass", P) : -1;
    auto T0 = Clock::now();
    int Sp = Trace ? Rec.begin("vm.pass", P) : -1;
    bool Ok = true;
    for (int I = 0; I != 5; ++I) {
      int K = Trace ? Rec.begin(FigKernels[I], P) : -1;
      Ok &= vmLaunch(*St, I);
      if (Trace)
        Rec.end(K);
    }
    if (Trace)
      Rec.end(Sp);
    auto T1 = Clock::now();
    Sp = Trace ? Rec.begin("gen.pass", P) : -1;
    for (int Rep = 0; Rep != GenRepsPerPass; ++Rep)
      for (int I = 0; I != 5; ++I) {
        int K = Trace ? Rec.begin(FigKernels[I], P) : -1;
        genLaunch(*St, I);
        if (Trace)
          Rec.end(K);
      }
    if (Trace)
      Rec.end(Sp);
    auto T2 = Clock::now();
    if (Trace)
      Rec.end(Root0);
    R.Attempted += 2;
    if (!Ok || kernelsCheck(*St, St->V))
      R.fail("kernels vm pass " + std::to_string(P));
    if (kernelsCheck(*St, St->G))
      R.fail("kernels generated pass " + std::to_string(P));
    VmMs[P] = msBetween(T0, T1);
    GenMs[P] = msBetween(T1, T2) / GenRepsPerPass;
    PassMs[P] = msBetween(T0, T2);
    if ((P + 1) % PerBatch == 0 && BatchMs.size() < Batches) {
      auto Now = Clock::now();
      BatchMs.push_back(msBetween(BatchT0, Now));
      BatchT0 = Now;
    }
  }

  R.e2e("setup_s", SetupS, "s");
  // Every pass does identical work, so a tail would only sample machine
  // noise: the kernels workload reports its median as its tail.
  reportLatency(R, PassMs, BatchMs, PerBatch, 50.0);
  R.e2e("peak_rss_mb", peakRssMb(), "MB");
  std::printf("perfbench: vm_pass_ms=%.4f gen_pass_ms=%.4f\n", median(VmMs),
              median(GenMs));

  if (!Trace)
    return;
  R.Layer["vm.pass_ms"] = median(VmMs);
  R.Layer["gen.pass_ms"] = median(GenMs);
  std::map<std::string, std::vector<double>> VmLaunch, GenLaunch;
  for (const SpanRec &S : Rec.spans()) {
    if (S.Parent < 0)
      continue;
    const std::string &P = Rec.spans()[S.Parent].Name;
    if (P == "vm.pass")
      VmLaunch[S.Name].push_back(S.dur() / 1000.0);
    else if (P == "gen.pass")
      GenLaunch[S.Name].push_back(S.dur() / 1000.0);
  }
  // One counted pass per engine: the counters are deterministic and must
  // agree between the two engines.
  St->Dev->setCounters(true);
  for (int I = 0; I != 5; ++I) {
    std::string K = FigKernels[I];
    vmLaunch(*St, I);
    obs::LaunchStats V = St->Dev->lastLaunchStats();
    genLaunch(*St, I);
    obs::LaunchStats G = St->Dev->lastLaunchStats();
    R.check(V == G, "device counters differ between engines on " + K);
    double VMs = median(VmLaunch[K]), GMs = median(GenLaunch[K]);
    R.Layer["vm.launch_ms." + K] = VMs;
    R.Layer["gen.launch_ms." + K] = GMs;
    R.Layer["vm.tax." + K] = GMs > 0 ? VMs / GMs : 0;
    R.Layer["sim.blocks." + K] = static_cast<double>(V.Blocks);
    R.Layer["sim.barriers." + K] = static_cast<double>(V.barriers());
    R.Layer["sim.global_accesses." + K] =
        static_cast<double>(V.globalLoads() + V.globalStores());
    R.Layer["sim.shared_transactions." + K] =
        static_cast<double>(V.sharedTransactions());
    R.Layer["sim.bank_conflicts." + K] =
        static_cast<double>(V.bankConflicts());
    R.Layer["sim.chunk_claims." + K] = static_cast<double>(V.ChunkClaims);
  }
  St->Dev->setCounters(false);
  R.Layer["kernels.peak_rss_mb"] = peakRssMb();
}

//===----------------------------------------------------------------------===//
// Driver
//===----------------------------------------------------------------------===//

void writeSpans(const std::string &Path, const SpanRecorder &Rec) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", Path.c_str());
    return;
  }
  std::vector<double> Self = selfTimes(Rec.spans());
  std::fprintf(F, "name\treq\tparent\tstart_us\tend_us\tself_us\n");
  for (size_t I = 0; I != Rec.spans().size(); ++I) {
    const SpanRec &S = Rec.spans()[I];
    std::fprintf(F, "%s\t%llu\t%d\t%.3f\t%.3f\t%.3f\n", S.Name.c_str(),
                 static_cast<unsigned long long>(S.Req), S.Parent, S.Start,
                 S.End, Self[I]);
  }
  std::fclose(F);
}

void printJson(const std::string &Workload, uint64_t Seed, const Report &R,
               bool Trace) {
  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"correct\":%s,"
              "\"attempted\":%llu,\"failed\":%llu,\"end_to_end\":{",
              Workload.c_str(), static_cast<unsigned long long>(Seed),
              R.Failed ? "false" : "true",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed));
  for (size_t I = 0; I != R.E2E.size(); ++I)
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", I ? "," : "",
                R.E2E[I].first.c_str(), R.E2E[I].second.Value,
                R.E2E[I].second.Unit.c_str());
  std::printf("},\"per_layer\":{");
  if (Trace) {
    bool First = true;
    for (const auto &[Name, Unit] : layerMetricTable()) {
      auto It = R.Layer.find(Name);
      double V = It == R.Layer.end() ? 0.0 : It->second;
      std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                  First ? "" : ",", Name.c_str(), V, Unit.c_str());
      First = false;
    }
  }
  std::printf("}}\n");
}

//===----------------------------------------------------------------------===//
// Self-test: harness units and checkers fed corrupted outputs
//===----------------------------------------------------------------------===//

int selfTest() {
  int Fails = 0;
  auto Expect = [&](bool Cond, const std::string &What) {
    std::printf("%s: %s\n", Cond ? "ok" : "FAIL", What.c_str());
    Fails += !Cond;
  };

  // The seeded generators: same seed, same requests; new seed, new ones.
  auto SameServe = [](const std::vector<ServeRequest> &A,
                      const std::vector<ServeRequest> &B) {
    return A.size() == B.size() &&
           std::equal(A.begin(), A.end(), B.begin(), [](auto &X, auto &Y) {
             return X.Kind == Y.Kind && X.FillA == Y.FillA &&
                    X.FillB == Y.FillB;
           });
  };
  auto SameCompile = [](const std::vector<CompileRequestDesc> &A,
                        const std::vector<CompileRequestDesc> &B) {
    return A.size() == B.size() &&
           std::equal(A.begin(), A.end(), B.begin(), [](auto &X, auto &Y) {
             return X.Source == Y.Source && X.Size == Y.Size &&
                    X.Backend == Y.Backend && X.Passes == Y.Passes;
           });
  };
  Expect(SameServe(serveRequests(7, 2000), serveRequests(7, 2000)),
         "serve: same seed gives the same requests");
  Expect(!SameServe(serveRequests(7, 2000), serveRequests(8, 2000)),
         "serve: another seed gives other requests");
  Expect(SameCompile(compileRequests(7, 2000), compileRequests(7, 2000)),
         "compile: same seed gives the same requests");
  Expect(!SameCompile(compileRequests(7, 2000), compileRequests(8, 2000)),
         "compile: another seed gives other requests");

  // The percentile helper: the highest ladder percentile with at least
  // ten samples beyond its rank, and none above it that qualifies.
  Expect(tailPercentile(1000, 99) == 99, "tail of 1000 samples is p99");
  Expect(tailPercentile(999, 99) == 98, "tail of 999 samples is p98");
  Expect(tailPercentile(200, 99) == 95, "tail of 200 samples is p95");
  Expect(tailPercentile(20, 99) == 50, "tail of 20 samples is p50");
  Expect(tailPercentile(19, 99) == 0, "19 samples support no tail");
  Expect(tailPercentile(100000, 99) == 99, "the cap bounds the tail");
  bool Ladder = true;
  for (size_t N = 1; N != 5000; ++N) {
    double P = tailPercentile(N, 99.9);
    size_t Rank = static_cast<size_t>(std::ceil(P / 100.0 * N));
    Ladder &= P == 0 || N - Rank >= 10;
  }
  Expect(Ladder, "every tail leaves at least ten samples beyond it");
  std::vector<double> Hundred;
  for (int I = 1; I <= 100; ++I)
    Hundred.push_back(I);
  Expect(percentile(Hundred, 50) == 50 && percentile(Hundred, 99) == 99 &&
             percentile(Hundred, 100) == 100,
         "nearest-rank percentiles of 1..100");

  // Span self time: children overlap each other and one pokes out of its
  // parent; the union inside the parent is what gets subtracted.
  std::vector<SpanRec> Sp = {{"root", 0, 100, -1, 1},  {"a", 10, 30, 0, 1},
                             {"b", 20, 50, 0, 1},      {"a.x", 12, 14, 1, 1},
                             {"c", 90, 120, 0, 1}};
  std::vector<double> Self = selfTimes(Sp);
  Expect(Self[0] == 50 && Self[1] == 18 && Self[2] == 30 && Self[3] == 2 &&
             Self[4] == 30,
         "self time subtracts the union of children clipped to the parent");
  Expect(!spansNest(Sp), "a child outside its parent is caught");
  Sp[4].End = 100;
  Expect(spansNest(Sp), "children inside their parents nest");
  Sp[3].Req = 2;
  Expect(!spansNest(Sp), "a child of another request is caught");
  SpanRecorder Rec;
  int R0 = Rec.begin("request", 3);
  int C0 = Rec.begin("service.compile", 3);
  Rec.end(C0);
  int C1 = Rec.begin("vm.runHostFn", 3);
  int G1 = Rec.begin("launch", 3);
  Rec.end(G1);
  Rec.end(C1);
  Rec.end(R0);
  std::vector<double> RSelf = selfTimes(Rec.spans());
  double Sum = 0;
  bool NonNeg = true;
  for (double X : RSelf) {
    Sum += X;
    NonNeg &= X >= 0;
  }
  Expect(spansNest(Rec.spans()) && Rec.spans()[G1].Parent == C1 &&
             Rec.spans()[C1].Parent == R0,
         "recorded spans nest with their parents");
  Expect(NonNeg && std::fabs(Sum - Rec.spans()[R0].dur()) < 1e-6,
         "self times are non-negative and add up to the root span");

  // serve checkers on real outputs, then on corrupted ones.
  auto St = serveSetup(1, 16);
  for (const ServeKind &K : St->Kinds) {
    ServeRequest Q{0, 1.25, 0.75};
    auto Args = serveInputs(K, Q);
    bool Ran = serveOne(*St, K, Args, nullptr, 0);
    std::string Name = K.Req.Defines.begin()->first + "=" +
                       std::to_string(K.Size) + " shape " +
                       std::to_string(static_cast<int>(K.S));
    Expect(Ran && serveCheck(K, Q, Args), "serve output correct: " + Name);
    std::byte *Out = (K.S == ServeKind::Reduce ? Args[2] : Args.back())
                         ->Bytes.data();
    double Bad = loadF64(Out, 0) + 0.25;
    std::memcpy(Out, &Bad, sizeof(double));
    Expect(!serveCheck(K, Q, Args), "serve corruption caught: " + Name);
  }

  // compile checker: verdicts of real replies, then corrupted replies.
  service::CompileService Svc;
  CompileState CS;
  for (const CorpusEntry &E : corpus())
    CS.Sources.push_back(
        readFile(std::string(E.Dir) + "/" + E.Stem + ".descend"));
  for (uint8_t S = 0; S != corpus().size(); ++S)
    CS.Requests.push_back({S, corpus()[S].Sizes[0], 0, 0});
  for (size_t I = 0; I != CS.Requests.size(); ++I) {
    const CorpusEntry &E = corpus()[CS.Requests[I].Source];
    service::CompileReply Rep = Svc.compile(makeCompileRequest(CS, 1, I));
    bool Want = expectAccepted(E);
    Expect(checkVerdict(Want, Rep.Ok, Rep.Artifact, Rep.Diagnostics),
           std::string("compile verdict correct: ") + E.Stem);
    Expect(!checkVerdict(Want, !Rep.Ok, Rep.Artifact, Rep.Diagnostics),
           std::string("compile flipped verdict caught: ") + E.Stem);
    Expect(!checkVerdict(Want, Rep.Ok, "", ""),
           std::string("compile empty reply caught: ") + E.Stem);
  }

  // kernels checker: both engines' real outputs, then one corrupted
  // element in each output of each engine.
  auto KS = kernelsSetup(1);
  Expect(kernelsCheck(*KS, KS->V) == 0 && kernelsCheck(*KS, KS->G) == 0,
         "kernels outputs equal the CPU reference on both engines");
  auto Corrupt = [&](double *P, const char *What) {
    P[1] += 0.5;
    Expect(kernelsCheck(*KS, KS->V) + kernelsCheck(*KS, KS->G) == 1,
           std::string("kernels corruption caught: ") + What);
    P[1] -= 0.5;
  };
  Corrupt(ptr(KS->V.RedOut), "vm reduce");
  Corrupt(ptr(KS->V.ScanOut), "vm scan");
  Corrupt(ptr(KS->V.TrOut), "vm transpose");
  Corrupt(ptr(KS->V.C), "vm matmul");
  Corrupt(ptr(KS->G.RedOut), "generated reduce");
  Corrupt(ptr(KS->G.ScanOut), "generated scan");
  Corrupt(ptr(KS->G.TrOut), "generated transpose");
  Corrupt(ptr(KS->G.C), "generated matmul");

  std::printf("perfbench self-test: %s\n", Fails ? "FAILED" : "passed");
  return Fails ? 1 : 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload serve|compile|kernels --seed N "
               "--seconds S [--trace] [--sha SHA] "
               "[--spans FILE]\n"
               "       perfbench --selftest\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Workload, Sha = "unknown", SpansPath;
  uint64_t Seed = 0;
  double Seconds = 0;
  bool Trace = false, HaveSeed = false, SelfTest = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (A == "--selftest") {
      SelfTest = true;
    } else if (A == "--trace") {
      Trace = true;
    } else if (A == "--workload" && (V = Next())) {
      Workload = V;
    } else if (A == "--seed" && (V = Next())) {
      char *End = nullptr;
      Seed = std::strtoull(V, &End, 10);
      HaveSeed = End && *End == '\0' && *V;
    } else if (A == "--seconds" && (V = Next())) {
      Seconds = std::atof(V);
    } else if (A == "--sha" && (V = Next())) {
      Sha = V;
    } else if (A == "--spans" && (V = Next())) {
      SpansPath = V;
    } else {
      return usage();
    }
  }
  if (SelfTest)
    return selfTest();
  if (!HaveSeed || Seconds <= 0 || Seconds > 60 ||
      (Workload != "serve" && Workload != "compile" && Workload != "kernels"))
    return usage();

  // Fault injection, env-driven tracing and watchdogs change what a
  // request costs; a measurement taken under them is not comparable.
  for (const char *Env : {"DESCEND_FAULTS", "DESCEND_TRACE",
                          "DESCEND_WATCHDOG"})
    if (std::getenv(Env)) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", Env);
      return 2;
    }

  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d "
              "nproc=%ld sha=%s build=%s\n",
              Workload.c_str(), static_cast<unsigned long long>(Seed),
              Seconds, Trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
              Sha.c_str(), PB_BUILD_TYPE);
  std::fflush(stdout);

  warmCpu(WarmSeconds);
  Report R;
  SpanRecorder Rec;
  if (Workload == "serve")
    runServe(Seed, Seconds, Trace,
             SpansPath.empty() ? "perfbench_obs.json" : SpansPath + ".obs",
             R, Rec);
  else if (Workload == "compile")
    runCompile(Seed, Seconds, Trace, R, Rec);
  else
    runKernels(Seed, Seconds, Trace, R, Rec);

  R.Layer["error_rate"] =
      static_cast<double>(R.Failed) / static_cast<double>(R.Attempted);
  std::printf("perfbench: attempted=%llu failed=%llu error_rate=%g\n",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed),
              R.Layer["error_rate"]);
  if (Trace) {
    R.check(spansNest(Rec.spans()), "recorded spans nest");
    if (!SpansPath.empty())
      writeSpans(SpansPath, Rec);
  }
  printJson(Workload, Seed, R, Trace);
  return R.Failed ? 1 : 0;
}

//===- tests/service_test.cpp - CompileService robustness -------------------===//
//
// The compile service is a long-lived boundary: whatever arrives — every
// negative fixture in programs/bad_*.descend, truncated sources, binary
// garbage — must come back as a reply with structured diagnostics, never
// as an exception across compile(), and must never be cached (a failure
// must not poison the LRU). Also exercises concurrent compile requests
// from many threads (the TSan job runs this test), including identical
// requests that miss the same key at once, and the descendd protocol.
//
//===----------------------------------------------------------------------===//

#include "service/CompileService.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include <sys/wait.h>

using namespace descend;

namespace {

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "cannot open " << Path;
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

std::vector<std::string> badFixtures() {
  std::vector<std::string> Paths;
  for (const auto &Entry :
       std::filesystem::directory_iterator(DESCEND_PROGRAM_DIR)) {
    std::string Name = Entry.path().filename().string();
    if (Name.rfind("bad_", 0) == 0 &&
        Entry.path().extension() == ".descend")
      Paths.push_back(Entry.path().string());
  }
  return Paths;
}

TEST(ServiceRobustness, EveryBadFixtureYieldsDiagnosticsAndNoCacheEntry) {
  std::vector<std::string> Fixtures = badFixtures();
  ASSERT_FALSE(Fixtures.empty())
      << "no programs/bad_*.descend fixtures found";

  service::CompileService Svc;
  uint64_t ExpectedFailures = 0;
  for (const std::string &Path : Fixtures) {
    service::CompileRequest Req;
    Req.Source = readFile(Path);
    Req.Defines["nb"] = 8;
    Req.BufferName = Path;
    service::CompileReply Rep;
    ASSERT_NO_THROW(Rep = Svc.compile(Req)) << Path;
    EXPECT_FALSE(Rep.Ok) << Path << " unexpectedly compiled";
    EXPECT_FALSE(Rep.Diagnostics.empty())
        << Path << " failed without diagnostics";
    EXPECT_FALSE(Rep.Program) << Path;
    ++ExpectedFailures;

    // A failure is never cached: the identical retry recompiles and the
    // cache stays empty.
    service::CompileReply Retry = Svc.compile(Req);
    EXPECT_FALSE(Retry.Ok);
    EXPECT_FALSE(Retry.CacheHit);
    ++ExpectedFailures;
  }

  service::ServiceStats St = Svc.stats();
  EXPECT_EQ(St.Failures, ExpectedFailures);
  EXPECT_EQ(St.Entries, 0u) << "a failure poisoned the cache";
  EXPECT_EQ(St.Hits, 0u);
  EXPECT_EQ(St.Misses, 0u);
}

TEST(ServiceRobustness, HostileInputsNeverThrow) {
  // Truncated and garbage inputs of every stripe; compile() must reply
  // with diagnostics for each of them.
  std::string Good = "fn scale<nb: nat>(v: &uniq gpu.global [f64; nb*256])\n"
                     "-[grid: gpu.grid<X<nb>, X<256>>]-> () {\n"
                     "  sched(X) block in grid {\n"
                     "    sched(X) thread in block {\n"
                     "      v.group::<256>[[block]][[thread]] = 1.0\n"
                     "    }\n"
                     "  }\n"
                     "}\n";
  std::vector<std::string> Hostile;
  Hostile.push_back("");                          // empty
  Hostile.push_back(std::string("\0\0\0\x7f", 4) + Good); // leading NULs
  Hostile.push_back(std::string(4096, '('));      // deep nonsense nesting
  Hostile.push_back("fn fn fn fn <<<<>>>> [f64; ]"); // token soup
  for (size_t Cut = 1; Cut < Good.size(); Cut += 29)
    Hostile.push_back(Good.substr(0, Cut));       // every truncation stride

  service::CompileService Svc;
  for (const std::string &Src : Hostile) {
    service::CompileRequest Req;
    Req.Source = Src;
    Req.Defines["nb"] = 4;
    service::CompileReply Rep;
    ASSERT_NO_THROW(Rep = Svc.compile(Req));
    if (!Rep.Ok)
      EXPECT_FALSE(Rep.Diagnostics.empty());
  }
  // Nothing above may have poisoned the service for real work.
  service::CompileRequest Req;
  Req.Source = Good;
  Req.Defines["nb"] = 4;
  service::CompileReply Rep = Svc.compile(Req);
  EXPECT_TRUE(Rep.Ok) << Rep.Diagnostics;
}

std::string tinyKernel(const char *Rhs) {
  return std::string("fn scale<nb: nat>(v: &uniq gpu.global "
                     "[f64; nb*256])\n"
                     "-[grid: gpu.grid<X<nb>, X<256>>]-> () {\n"
                     "  sched(X) block in grid {\n"
                     "    sched(X) thread in block {\n"
                     "      v.group::<256>[[block]][[thread]] = ") +
         Rhs + "\n    }\n  }\n}\n";
}

TEST(ServiceRobustness, UnknownBackendIsADiagnosticNotACrash) {
  service::CompileService Svc;
  service::CompileRequest Req;
  Req.Source = tinyKernel("4.0");
  Req.Defines["nb"] = 2;
  Req.Backend = "no-such-backend";
  service::CompileReply Rep = Svc.compile(Req);
  EXPECT_FALSE(Rep.Ok);
  EXPECT_NE(Rep.Diagnostics.find("no-such-backend"), std::string::npos)
      << Rep.Diagnostics;
  EXPECT_EQ(Svc.stats().Entries, 0u);
}

TEST(ServiceConcurrency, ParallelMixedRequestsAreThreadSafe) {
  // Many threads hammer the service with a mix of distinct
  // specializations (distinct keys compile in parallel), repeats (cache
  // hits) and bad sources (failures) — the TSan job runs this.
  std::string Good = "fn scale<nb: nat>(v: &uniq gpu.global [f64; nb*256])\n"
                     "-[grid: gpu.grid<X<nb>, X<256>>]-> () {\n"
                     "  sched(X) block in grid {\n"
                     "    sched(X) thread in block {\n"
                     "      v.group::<256>[[block]][[thread]] = 2.0\n"
                     "    }\n"
                     "  }\n"
                     "}\n";
  service::CompileService Svc(/*Capacity=*/8);

  const int Threads = 8, PerThread = 12;
  std::vector<std::thread> Pool;
  std::vector<int> OkCounts(Threads, 0), FailCounts(Threads, 0);
  for (int T = 0; T != Threads; ++T)
    Pool.emplace_back([&, T] {
      for (int I = 0; I != PerThread; ++I) {
        service::CompileRequest Req;
        if (I % 4 == 3) {
          // Unique per (thread, iteration): every failure is its own
          // request, counted once in Stats.Failures.
          Req.Source = "garbage ##### " + std::to_string(T * 100 + I);
        } else {
          Req.Source = Good;
          // Only a handful of distinct keys: threads collide on purpose,
          // exercising the cache-hit path and concurrent misses of one
          // key.
          Req.Defines["nb"] = 1 + (T + I) % 3;
        }
        service::CompileReply Rep = Svc.compile(Req);
        if (Rep.Ok) {
          ++OkCounts[T];
          EXPECT_TRUE(Rep.Program);
        } else {
          ++FailCounts[T];
          EXPECT_FALSE(Rep.Diagnostics.empty());
        }
      }
    });
  for (std::thread &Th : Pool)
    Th.join();

  int Ok = 0, Fail = 0;
  for (int T = 0; T != Threads; ++T) {
    Ok += OkCounts[T];
    Fail += FailCounts[T];
  }
  EXPECT_EQ(Ok, Threads * PerThread * 3 / 4);
  EXPECT_EQ(Fail, Threads * PerThread / 4);

  service::ServiceStats St = Svc.stats();
  EXPECT_EQ(St.Hits + St.Misses, static_cast<uint64_t>(Ok));
  EXPECT_EQ(St.Failures, static_cast<uint64_t>(Fail));
  EXPECT_LE(St.Entries, 8u);
}

TEST(ServiceConcurrency, IdenticalConcurrentRequestsShareOneEntry) {
  // All threads ask for the same cold key at once. Each one that misses
  // compiles; whichever finishes after the first refreshes the entry the
  // first inserted instead of pushing a second LRU node. Every reply must
  // carry the same artifact.
  std::string Src = tinyKernel("5.0");
  service::CompileService Svc;

  const int Threads = 8;
  std::atomic<bool> Go{false};
  std::vector<std::thread> Pool;
  std::vector<service::CompileReply> Replies(Threads);
  for (int T = 0; T != Threads; ++T)
    Pool.emplace_back([&, T] {
      service::CompileRequest Req;
      Req.Source = Src;
      Req.Defines["nb"] = 2;
      while (!Go.load())
        std::this_thread::yield();
      Replies[T] = Svc.compile(Req);
    });
  Go.store(true); // release every thread at once, so misses overlap
  for (std::thread &Th : Pool)
    Th.join();

  for (int T = 0; T != Threads; ++T) {
    EXPECT_TRUE(Replies[T].Ok) << Replies[T].Diagnostics;
    EXPECT_EQ(Replies[T].Artifact, Replies[0].Artifact);
  }
  service::ServiceStats St = Svc.stats();
  EXPECT_EQ(St.Hits + St.Misses, static_cast<uint64_t>(Threads));
  EXPECT_EQ(St.Entries, 1u) << "one key, one LRU node";
}

TEST(ServiceRobustness, SchedulePassesAreDistinctCacheKeys) {
  // Same source, same defines, different PassConfig: each config is its
  // own cache entry (the autotuner depends on this — a padded candidate
  // must never be served the default artifact), and re-requesting any of
  // them is a hit.
  service::CompileService Svc;
  service::CompileRequest Plain;
  Plain.Source = tinyKernel("7.0");
  Plain.Defines["nb"] = 2;
  service::CompileRequest Padded = Plain;
  Padded.Passes.SharedPad = 1;
  service::CompileRequest Vectorized = Plain;
  Vectorized.Passes.Vectorize = true;

  EXPECT_FALSE(Svc.compile(Plain).CacheHit);
  EXPECT_FALSE(Svc.compile(Padded).CacheHit);
  EXPECT_FALSE(Svc.compile(Vectorized).CacheHit);
  service::ServiceStats St = Svc.stats();
  EXPECT_EQ(St.Misses, 3u);
  EXPECT_EQ(St.Entries, 3u);

  EXPECT_TRUE(Svc.compile(Plain).CacheHit);
  EXPECT_TRUE(Svc.compile(Padded).CacheHit);
  EXPECT_TRUE(Svc.compile(Vectorized).CacheHit);
  EXPECT_EQ(Svc.stats().Hits, 3u);
}

//===----------------------------------------------------------------------===//
// Serve-latency histogram (descendd METRICS)
//===----------------------------------------------------------------------===//

TEST(ServiceLatency, EmptyHistogramReportsZeroes) {
  service::LatencyHistogram H;
  EXPECT_EQ(H.Total, 0u);
  EXPECT_EQ(H.quantileUpperMs(0.5), 0.0);
  EXPECT_EQ(H.quantileUpperMs(0.95), 0.0);
  EXPECT_EQ(H.MaxMs, 0.0);
}

TEST(ServiceLatency, BucketsAreLog2WithOpenEnd) {
  EXPECT_DOUBLE_EQ(service::LatencyHistogram::bucketUpperMs(0), 0.25);
  EXPECT_DOUBLE_EQ(service::LatencyHistogram::bucketUpperMs(1), 0.5);
  EXPECT_DOUBLE_EQ(service::LatencyHistogram::bucketUpperMs(2), 1.0);
  EXPECT_TRUE(std::isinf(service::LatencyHistogram::bucketUpperMs(
      service::LatencyHistogram::NumBuckets - 1)));
}

TEST(ServiceLatency, QuantilesReturnConservativeBucketBounds) {
  service::LatencyHistogram H;
  for (int I = 0; I != 9; ++I)
    H.record(0.1); // bucket 0 (< 0.25 ms)
  H.record(100.0); // bucket [64, 128)
  EXPECT_EQ(H.Total, 10u);
  EXPECT_DOUBLE_EQ(H.MaxMs, 100.0);
  EXPECT_DOUBLE_EQ(H.quantileUpperMs(0.5), 0.25);
  // Conservative: the tail sample reports its bucket's upper bound.
  EXPECT_DOUBLE_EQ(H.quantileUpperMs(0.95), 128.0);

  // A sample in the open-ended last bucket reports the observed maximum
  // instead of infinity.
  service::LatencyHistogram Tail;
  Tail.record(1000.0);
  EXPECT_DOUBLE_EQ(Tail.quantileUpperMs(0.95), 1000.0);
}

TEST(ServiceLatency, EveryServedRequestIsRecorded) {
  service::CompileService Svc;
  service::CompileRequest Req;
  Req.Source = tinyKernel("4.0");
  Req.Defines["nb"] = 2;
  ASSERT_TRUE(Svc.compile(Req).Ok);
  service::CompileReply Hit = Svc.compile(Req);
  ASSERT_TRUE(Hit.Ok);
  EXPECT_TRUE(Hit.CacheHit);

  service::LatencyHistogram H = Svc.latency();
  EXPECT_EQ(H.Total, 2u) << "hits are recorded too";
  EXPECT_GT(H.MaxMs, 0.0);
}

//===----------------------------------------------------------------------===//
// descendd protocol: METRICS and STATS answer even on an idle daemon
//===----------------------------------------------------------------------===//

struct DaemonRun {
  int ExitCode = -1;
  std::string Stdout;
};

/// Pipes \p Input into `descendd <Flags>` and returns its exit code and
/// stdout.
DaemonRun runDaemon(const std::string &Input, const std::string &Flags = "") {
  static int Counter = 0;
  std::string Base = ::testing::TempDir() + "descendd_io_" +
                     std::to_string(Counter++);
  std::string InFile = Base + ".in", OutFile = Base + ".out";
  {
    std::ofstream Out(InFile);
    Out << Input;
  }
  std::string Cmd = std::string(DESCENDD_BIN) + Flags + " < " + InFile +
                    " > " + OutFile + " 2>/dev/null";
  int Status = std::system(Cmd.c_str());
  DaemonRun R;
  R.ExitCode = WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  R.Stdout = readFile(OutFile);
  std::remove(InFile.c_str());
  std::remove(OutFile.c_str());
  return R;
}

/// Pipes \p Input into the descendd binary and returns its stdout. The
/// daemon must always exit 0 — EOF, QUIT and even a truncated payload are
/// orderly shutdowns.
std::string runDescendd(const std::string &Input) {
  DaemonRun R = runDaemon(Input);
  EXPECT_EQ(R.ExitCode, 0);
  return R.Stdout;
}

TEST(DescenddProtocol, MetricsBeforeAnyCompileIsOneCompleteLine) {
  std::string Out = runDescendd("METRICS\nQUIT\n");
  // One complete, newline-terminated line — never silence on an empty
  // cache.
  ASSERT_FALSE(Out.empty());
  EXPECT_EQ(Out.back(), '\n') << Out;
  EXPECT_EQ(Out.rfind("METRICS ", 0), 0u) << Out;
  EXPECT_NE(Out.find("requests=0"), std::string::npos) << Out;
  EXPECT_NE(Out.find("hit_rate=0.000"), std::string::npos) << Out;
  EXPECT_NE(Out.find("latency_count=0"), std::string::npos) << Out;
  EXPECT_NE(Out.find("latency_p95_ms=0.000"), std::string::npos) << Out;
}

TEST(DescenddProtocol, StatsBeforeAnyCompileIsOneCompleteLine) {
  std::string Out = runDescendd("STATS\nQUIT\n");
  ASSERT_FALSE(Out.empty());
  EXPECT_EQ(Out.back(), '\n') << Out;
  EXPECT_EQ(Out.rfind("STATS ", 0), 0u) << Out;
  EXPECT_NE(Out.find("hit_rate=0.000"), std::string::npos) << Out;
}

TEST(DescenddProtocol, MetricsReflectsServedCompiles) {
  std::string Src = tinyKernel("4.0");
  std::string Req = "COMPILE vm " + std::to_string(Src.size()) + " nb=2\n";
  std::string Out =
      runDescendd(Req + Src + Req + Src + "METRICS\nQUIT\n");
  size_t M = Out.find("METRICS ");
  ASSERT_NE(M, std::string::npos) << Out;
  std::string Line = Out.substr(M);
  EXPECT_NE(Line.find("requests=2"), std::string::npos) << Line;
  EXPECT_NE(Line.find("hits=1"), std::string::npos) << Line;
  EXPECT_NE(Line.find("misses=1"), std::string::npos) << Line;
  EXPECT_NE(Line.find("hit_rate=0.500"), std::string::npos) << Line;
  EXPECT_NE(Line.find("latency_count=2"), std::string::npos) << Line;
}

TEST(DescenddProtocol, PingIsALivenessProbe) {
  // PONG comes back without touching the compile service — and the
  // daemon keeps serving afterwards (METRICS still answers).
  std::string Out = runDescendd("PING\nMETRICS\nPING\nQUIT\n");
  EXPECT_EQ(Out.rfind("PONG\n", 0), 0u) << Out;
  EXPECT_NE(Out.find("METRICS requests=0"), std::string::npos) << Out;
  // Two PONGs: one before, one after the METRICS line.
  size_t First = Out.find("PONG\n");
  EXPECT_NE(Out.find("PONG\n", First + 1), std::string::npos) << Out;
}

TEST(DescenddProtocol, TruncatedPayloadAnswersErrAndExitsCleanly) {
  // The header promises 4096 bytes but stdin ends after a few: the
  // client died mid-request. The daemon must answer ERR (the client may
  // still be reading) and exit 0 — runDescendd asserts the exit status.
  std::string Out = runDescendd("COMPILE vm 4096 nb=2\nshort");
  EXPECT_EQ(Out.rfind("ERR ", 0), 0u) << Out;
  EXPECT_NE(Out.find("truncated payload"), std::string::npos) << Out;
  EXPECT_NE(Out.find("shutting down"), std::string::npos) << Out;
}

TEST(DescenddProtocol, EofWithoutQuitIsACleanExit) {
  // A client that just closes the pipe (no QUIT) is an orderly shutdown:
  // exit 0, and everything requested before the EOF was answered.
  std::string Src = tinyKernel("4.0");
  std::string Out = runDescendd("COMPILE vm " + std::to_string(Src.size()) +
                                " nb=2\n" + Src);
  EXPECT_EQ(Out.rfind("OK hit=0", 0), 0u) << Out.substr(0, 80);
}

TEST(DescenddProtocol, OversizedPayloadIsRefusedAndDrained) {
  // A declared size past the 1 MiB limit gets ERR naming the limit; the
  // payload is drained and the daemon keeps serving.
  const size_t Limit = 1 << 20;
  DaemonRun R =
      runDaemon("COMPILE vm " + std::to_string(Limit + 1) + " nb=2\n" +
                std::string(Limit + 1, 'x') + "PING\n");
  const std::string Msg =
      "payload of 1048577 bytes exceeds the limit of 1048576 bytes\n";
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_EQ(R.Stdout, "ERR " + std::to_string(Msg.size()) + "\n" + Msg +
                          "PONG\n");

  // A size no client can send ends at EOF as an orderly exit, not as an
  // allocation failure.
  DaemonRun Huge = runDaemon("COMPILE vm 100000000000000\n");
  EXPECT_EQ(Huge.ExitCode, 0);
  EXPECT_EQ(Huge.Stdout.rfind("ERR ", 0), 0u) << Huge.Stdout;
}

TEST(DescenddProtocol, CacheCapacityMustBeAPositiveInteger) {
  for (const char *Bad : {"abc", "0", "-5", "12x", ""}) {
    SCOPED_TRACE(Bad);
    EXPECT_EQ(runDaemon("QUIT\n", std::string(" --cache-capacity=") + Bad)
                  .ExitCode,
              2);
  }
  EXPECT_EQ(runDaemon("QUIT\n", " --cache-capacity=3").ExitCode, 0);
}

TEST(DescenddProtocol, OutOfRangeDefineIsRefusedAndServingGoesOn) {
  // strtoll saturates 10^20 to 2^63 - 1; the daemon refuses the value it
  // cannot represent instead of compiling with another one, drains the
  // payload, and serves the next request.
  std::string Src = tinyKernel("4.0");
  std::string Size = std::to_string(Src.size());
  std::string Out = runDescendd("COMPILE vm " + Size +
                                " nb=99999999999999999999\n" + Src +
                                "COMPILE vm " + Size + " nb=2\n" + Src +
                                "QUIT\n");
  const std::string Msg = "define `nb=99999999999999999999` is out of range "
                          "for a 64-bit integer\n";
  EXPECT_EQ(Out.rfind("ERR " + std::to_string(Msg.size()) + "\n" + Msg, 0),
            0u)
      << Out;
  EXPECT_NE(Out.find("OK hit=0"), std::string::npos) << Out;
}

TEST(DescenddProtocol, RetiredOptionsAreRefused) {
  // descendd answers one request at a time: there is no request timeout
  // and no queue to bound.
  for (const char *Flag : {" --request-timeout-ms=5", " --max-queue=2"}) {
    SCOPED_TRACE(Flag);
    EXPECT_EQ(runDaemon("QUIT\n", Flag).ExitCode, 2);
  }
}

} // namespace

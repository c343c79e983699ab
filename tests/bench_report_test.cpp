//===- tests/bench_report_test.cpp - Benches write their own JSON ---------===//
//
// Runs bench_safety into a temporary directory and checks the
// BENCH_safety.json it writes: every verdict row, the summary, and the
// provenance worker count, which must be the count the devices actually
// run with, also when DESCEND_WORKERS holds garbage. Also pins the
// quartiles bench/Report.h reports next to each median.
//
//===----------------------------------------------------------------------===//

#include "bench/Report.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <sys/wait.h>
#include <unistd.h>

using namespace descend;

namespace {

TEST(BenchReport, SpreadIsMedianAndQuartiles) {
  bench::Spread S = bench::spreadOf({9, 1, 8, 2, 7, 3, 6, 4, 5});
  EXPECT_EQ(S.Q1, 3);
  EXPECT_EQ(S.Median, 5);
  EXPECT_EQ(S.Q3, 7);
}

/// Runs `<Env> bench_safety <dir>` and returns BENCH_safety.json.
std::string safetyJson(const std::string &Env) {
  namespace fs = std::filesystem;
  const fs::path Dir = fs::path(::testing::TempDir()) /
                       ("bench_report_" + std::to_string(getpid()));
  fs::remove_all(Dir);
  fs::create_directories(Dir);
  const std::string Cmd = Env + " " + BENCH_SAFETY_BIN + " " +
                          Dir.string() + " > " + (Dir / "log").string();
  const int Status = std::system(Cmd.c_str());
  EXPECT_TRUE(WIFEXITED(Status) && WEXITSTATUS(Status) == 0) << Cmd;
  std::ifstream In(Dir / "BENCH_safety.json");
  std::stringstream SS;
  SS << In.rdbuf();
  fs::remove_all(Dir);
  return SS.str();
}

size_t metaWorkers(const std::string &Json) {
  const size_t Meta = Json.find("\"meta\":{");
  const size_t At = Json.find("\"workers\":", Meta);
  if (Meta == std::string::npos || At == std::string::npos)
    return 0;
  return std::stoul(Json.substr(At + 10));
}

TEST(BenchReport, SafetyBenchWritesRowsSummaryAndMeta) {
  const std::string Json = safetyJson("");
  size_t Rows = 0;
  for (size_t P = Json.find("{\"id\":"); P != std::string::npos;
       P = Json.find("{\"id\":", P + 1))
    ++Rows;
  EXPECT_EQ(Rows, 16u) << Json;
  EXPECT_NE(Json.find("\"correct\":16,\"total\":16"), std::string::npos)
      << Json;
  EXPECT_EQ(metaWorkers(Json), sim::GpuDevice().effectiveWorkers()) << Json;
}

TEST(BenchReport, MetaRecordsTheWorkerCountTheDevicesUse) {
  // A DESCEND_WORKERS value the device rejects falls back to the
  // hardware concurrency; the provenance must say so, not echo the text.
  const unsigned HW = std::thread::hardware_concurrency();
  for (const char *Bad : {"0", "four"})
    EXPECT_EQ(metaWorkers(safetyJson(std::string("DESCEND_WORKERS=") + Bad)),
              HW ? HW : 1u)
        << Bad;
}

} // namespace

//===- obs/Counters.cpp - Simulator performance counters ------------------===//

#include "obs/Counters.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace descend::obs {

PhaseCounters &PhaseCounters::operator+=(const PhaseCounters &O) {
  GlobalLoads += O.GlobalLoads;
  GlobalStores += O.GlobalStores;
  SharedLoads += O.SharedLoads;
  SharedStores += O.SharedStores;
  SharedTransactions += O.SharedTransactions;
  BankConflicts += O.BankConflicts;
  Barriers += O.Barriers;
  return *this;
}

namespace {
template <typename Fn>
uint64_t sumPhases(const std::vector<PhaseCounters> &Phases, Fn Field) {
  uint64_t N = 0;
  for (const PhaseCounters &P : Phases)
    N += Field(P);
  return N;
}
} // namespace

uint64_t LaunchStats::globalLoads() const {
  return sumPhases(Phases, [](const PhaseCounters &P) { return P.GlobalLoads; });
}
uint64_t LaunchStats::globalStores() const {
  return sumPhases(Phases,
                   [](const PhaseCounters &P) { return P.GlobalStores; });
}
uint64_t LaunchStats::sharedLoads() const {
  return sumPhases(Phases, [](const PhaseCounters &P) { return P.SharedLoads; });
}
uint64_t LaunchStats::sharedStores() const {
  return sumPhases(Phases,
                   [](const PhaseCounters &P) { return P.SharedStores; });
}
uint64_t LaunchStats::sharedTransactions() const {
  return sumPhases(Phases,
                   [](const PhaseCounters &P) { return P.SharedTransactions; });
}
uint64_t LaunchStats::bankConflicts() const {
  return sumPhases(Phases,
                   [](const PhaseCounters &P) { return P.BankConflicts; });
}
uint64_t LaunchStats::barriers() const {
  return sumPhases(Phases, [](const PhaseCounters &P) { return P.Barriers; });
}

void LaunchStats::merge(const LaunchStats &O) {
  if (Label.empty())
    Label = O.Label;
  Launches += O.Launches;
  Blocks += O.Blocks;
  ThreadsPerBlock = std::max(ThreadsPerBlock, O.ThreadsPerBlock);
  ArenaBytesPerBlock = std::max(ArenaBytesPerBlock, O.ArenaBytesPerBlock);
  ArenaBytesTotal += O.ArenaBytesTotal;
  Traps += O.Traps;
  RaceLogEntries += O.RaceLogEntries;
  if (Phases.size() < O.Phases.size())
    Phases.resize(O.Phases.size());
  for (size_t I = 0; I < O.Phases.size(); ++I)
    Phases[I] += O.Phases[I];
  ChunkClaims += O.ChunkClaims;
  Workers = std::max(Workers, O.Workers);
}

std::string LaunchStats::str() const {
  char Buf[256];
  std::string Out;
  std::snprintf(Buf, sizeof(Buf),
                "%s: launches=%" PRIu64 " blocks=%" PRIu64
                " threads/block=%" PRIu64 " arena=%" PRIu64 " B/block\n",
                Label.empty() ? "<kernel>" : Label.c_str(), Launches, Blocks,
                ThreadsPerBlock, ArenaBytesPerBlock);
  Out += Buf;
  std::snprintf(Buf, sizeof(Buf),
                "  global: %" PRIu64 " loads, %" PRIu64 " stores\n",
                globalLoads(), globalStores());
  Out += Buf;
  std::snprintf(Buf, sizeof(Buf),
                "  shared: %" PRIu64 " loads, %" PRIu64 " stores, %" PRIu64
                " transactions, %" PRIu64 " bank conflicts\n",
                sharedLoads(), sharedStores(), sharedTransactions(),
                bankConflicts());
  Out += Buf;
  std::snprintf(Buf, sizeof(Buf),
                "  barriers=%" PRIu64 " traps=%" PRIu64
                " race-log=%" PRIu64 " claims=%" PRIu64 " workers=%" PRIu64
                "\n",
                barriers(), Traps, RaceLogEntries, ChunkClaims, Workers);
  Out += Buf;
  for (size_t I = 0; I < Phases.size(); ++I) {
    const PhaseCounters &P = Phases[I];
    if (P.empty())
      continue;
    std::snprintf(Buf, sizeof(Buf),
                  "  phase %zu: global %" PRIu64 "/%" PRIu64 " shared %" PRIu64
                  "/%" PRIu64 " conflicts=%" PRIu64 " barriers=%" PRIu64 "\n",
                  I, P.GlobalLoads, P.GlobalStores, P.SharedLoads,
                  P.SharedStores, P.BankConflicts, P.Barriers);
    Out += Buf;
  }
  return Out;
}

std::string LaunchStats::json() const {
  char Buf[512];
  std::string Out = "{";
  // Labels come from kernel names in user source.
  Out += "\"label\":\"" + jsonEscape(Label) + "\",";
  std::snprintf(
      Buf, sizeof(Buf),
      "\"launches\":%" PRIu64 ",\"blocks\":%" PRIu64
      ",\"threads_per_block\":%" PRIu64 ",\"arena_bytes_per_block\":%" PRIu64
      ",\"arena_bytes_total\":%" PRIu64 ",\"global_loads\":%" PRIu64
      ",\"global_stores\":%" PRIu64 ",\"shared_loads\":%" PRIu64
      ",\"shared_stores\":%" PRIu64 ",\"shared_transactions\":%" PRIu64
      ",\"bank_conflicts\":%" PRIu64 ",\"barriers\":%" PRIu64
      ",\"traps\":%" PRIu64 ",\"race_log_entries\":%" PRIu64
      ",\"chunk_claims\":%" PRIu64 ",\"workers\":%" PRIu64 ",\"phases\":[",
      Launches, Blocks, ThreadsPerBlock, ArenaBytesPerBlock, ArenaBytesTotal,
      globalLoads(), globalStores(), sharedLoads(), sharedStores(),
      sharedTransactions(), bankConflicts(), barriers(), Traps, RaceLogEntries,
      ChunkClaims, Workers);
  Out += Buf;
  for (size_t I = 0; I < Phases.size(); ++I) {
    const PhaseCounters &P = Phases[I];
    std::snprintf(Buf, sizeof(Buf),
                  "%s{\"global_loads\":%" PRIu64 ",\"global_stores\":%" PRIu64
                  ",\"shared_loads\":%" PRIu64 ",\"shared_stores\":%" PRIu64
                  ",\"shared_transactions\":%" PRIu64
                  ",\"bank_conflicts\":%" PRIu64 ",\"barriers\":%" PRIu64 "}",
                  I ? "," : "", P.GlobalLoads, P.GlobalStores, P.SharedLoads,
                  P.SharedStores, P.SharedTransactions, P.BankConflicts,
                  P.Barriers);
    Out += Buf;
  }
  Out += "]}";
  return Out;
}

void BlockCounters::beginPhase(unsigned StaticPhase) {
  flushWarp();
  LastThread = ~0u;
  CurWarp = ~0u;
  Seq = 0;
  if (Phases.size() <= StaticPhase)
    Phases.resize(StaticPhase + 1);
  CurPhase = StaticPhase;
  ++Phases[CurPhase].Barriers;
}

void BlockCounters::countShared(size_t ByteOffset, bool Write,
                                unsigned Thread) {
  PhaseCounters &P = Phases[CurPhase];
  if (Write)
    ++P.SharedStores;
  else
    ++P.SharedLoads;
  if (Thread != LastThread) {
    Seq = 0;
    unsigned Warp = Thread / 32;
    if (Warp != CurWarp) {
      flushWarp();
      CurWarp = Warp;
    }
    LastThread = Thread;
  }
  if (Seq >= OrdinalWords.size())
    OrdinalWords.emplace_back();
  OrdinalWords[Seq].push_back(static_cast<uint32_t>(ByteOffset / 4));
  ++Seq;
}

void BlockCounters::flushWarp() {
  PhaseCounters &P = Phases[CurPhase];
  for (std::vector<uint32_t> &Words : OrdinalWords) {
    if (Words.empty())
      continue;
    // Distinct words per bank; quadratic in the warp width (<= 32).
    uint32_t PerBank[32] = {};
    for (size_t I = 0; I < Words.size(); ++I) {
      bool Seen = false;
      for (size_t J = 0; J < I && !Seen; ++J)
        Seen = Words[J] == Words[I];
      if (!Seen)
        ++PerBank[Words[I] % 32];
    }
    uint64_t Transactions = 1;
    for (uint32_t N : PerBank)
      Transactions = std::max<uint64_t>(Transactions, N);
    P.SharedTransactions += Transactions;
    P.BankConflicts += Transactions - 1;
    Words.clear();
  }
}

} // namespace descend::obs

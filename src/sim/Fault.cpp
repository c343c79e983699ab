//===- sim/Fault.cpp - Sticky errors and deterministic fault injection ----===//
//
// Implementation of the DESCEND_FAULTS parser and the FaultInjector
// singleton. Parsing is strict in the same way detail::parseWorkerCount
// is strict: a malformed plan is rejected as a whole (with a one-time
// warning when it came from the environment), never partially applied.
//
//===----------------------------------------------------------------------===//

#include "sim/Fault.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

namespace descend {
namespace sim {

const char *errorCodeName(ErrorCode E) {
  switch (E) {
  case ErrorCode::Ok:
    return "ok";
  case ErrorCode::KernelTrap:
    return "kernel_trap";
  case ErrorCode::KernelTimeout:
    return "kernel_timeout";
  case ErrorCode::AllocFailed:
    return "alloc_failed";
  case ErrorCode::CopyFailed:
    return "copy_failed";
  case ErrorCode::InvalidValue:
    return "invalid_value";
  }
  return "unknown";
}

//===----------------------------------------------------------------------===//
// FaultPlan parsing
//===----------------------------------------------------------------------===//

namespace {

/// Strictly parses a 1-based positive ordinal: decimal digits only, no
/// sign, no whitespace, no trailing garbage, fits uint64, nonzero.
bool parseOrdinal(const std::string &S, uint64_t &Out) {
  if (S.empty() || S[0] < '0' || S[0] > '9')
    return false;
  errno = 0;
  char *End = nullptr;
  unsigned long long V = std::strtoull(S.c_str(), &End, 10);
  if (errno == ERANGE || End != S.c_str() + S.size() || V == 0)
    return false;
  Out = V;
  return true;
}

void splitOn(const std::string &S, char Sep, std::vector<std::string> &Out) {
  size_t Pos = 0;
  while (true) {
    size_t Next = S.find(Sep, Pos);
    if (Next == std::string::npos) {
      Out.push_back(S.substr(Pos));
      return;
    }
    Out.push_back(S.substr(Pos, Next - Pos));
    Pos = Next + 1;
  }
}

bool setErr(std::string *Err, const std::string &Msg) {
  if (Err)
    *Err = Msg;
  return false;
}

} // namespace

bool FaultPlan::parse(const std::string &Text, FaultPlan &Out,
                      std::string *Err) {
  FaultPlan P;
  if (Text.empty()) {
    Out = P;
    return true;
  }

  std::vector<std::string> Clauses;
  splitOn(Text, ',', Clauses);
  for (const std::string &Clause : Clauses) {
    std::vector<std::string> Parts; // colon-separated fields
    splitOn(Clause, ':', Parts);
    const std::string &Key = Parts[0];

    if (Key == "alloc") {
      // alloc:N
      if (Parts.size() != 2 || !parseOrdinal(Parts[1], P.AllocFailAt))
        return setErr(Err, "bad clause '" + Clause + "' (want alloc:N)");
    } else if (Key == "trap") {
      // trap:launch=N
      if (Parts.size() != 2 || Parts[1].rfind("launch=", 0) != 0 ||
          !parseOrdinal(Parts[1].substr(7), P.TrapAtLaunch))
        return setErr(Err, "bad clause '" + Clause + "' (want trap:launch=N)");
    } else if (Key == "delay") {
      // delay:worker=K:ms=M
      if (Parts.size() != 3 || Parts[1].rfind("worker=", 0) != 0 ||
          Parts[2].rfind("ms=", 0) != 0 ||
          !parseOrdinal(Parts[1].substr(7), P.DelayWorker) ||
          !parseOrdinal(Parts[2].substr(3), P.DelayMs))
        return setErr(Err,
                      "bad clause '" + Clause + "' (want delay:worker=K:ms=M)");
    } else {
      return setErr(Err, "unknown fault kind '" + Key + "' in '" + Clause +
                             "'");
    }
  }
  Out = P;
  return true;
}

std::string FaultPlan::str() const {
  if (!armed())
    return "off";
  std::string S;
  auto Append = [&S](const std::string &Clause) {
    if (!S.empty())
      S += ',';
    S += Clause;
  };
  if (AllocFailAt)
    Append("alloc:" + std::to_string(AllocFailAt));
  if (TrapAtLaunch)
    Append("trap:launch=" + std::to_string(TrapAtLaunch));
  if (DelayWorker)
    Append("delay:worker=" + std::to_string(DelayWorker) +
           ":ms=" + std::to_string(DelayMs));
  return S;
}

//===----------------------------------------------------------------------===//
// FaultInjector
//===----------------------------------------------------------------------===//

FaultInjector::FaultInjector() {
  const char *Env = std::getenv("DESCEND_FAULTS");
  if (!Env || !*Env)
    return;
  FaultPlan P;
  std::string Err;
  if (!FaultPlan::parse(Env, P, &Err)) {
    std::fprintf(stderr,
                 "descend: warning: ignoring invalid DESCEND_FAULTS=\"%s\": "
                 "%s\n",
                 Env, Err.c_str());
    return;
  }
  Plan = P;
  Armed.store(P.armed(), std::memory_order_relaxed);
}

FaultInjector &FaultInjector::global() {
  static FaultInjector I;
  return I;
}

void FaultInjector::setPlanForTest(const FaultPlan &P) {
  std::lock_guard<std::mutex> L(PlanM);
  Plan = P;
  AllocSeen.store(0, std::memory_order_relaxed);
  LaunchSeen.store(0, std::memory_order_relaxed);
  Armed.store(P.armed(), std::memory_order_relaxed);
}

FaultPlan FaultInjector::plan() const {
  std::lock_guard<std::mutex> L(PlanM);
  return Plan;
}

bool FaultInjector::shouldFailAlloc() {
  if (!armed())
    return false;
  FaultPlan P = plan();
  if (!P.AllocFailAt)
    return false;
  return AllocSeen.fetch_add(1, std::memory_order_relaxed) + 1 ==
         P.AllocFailAt;
}

bool FaultInjector::shouldTrapLaunch() {
  if (!armed())
    return false;
  FaultPlan P = plan();
  if (!P.TrapAtLaunch)
    return false;
  return LaunchSeen.fetch_add(1, std::memory_order_relaxed) + 1 ==
         P.TrapAtLaunch;
}

bool FaultInjector::shouldDelayWorker(uint64_t WorkerOrdinal,
                                      uint64_t &DelayMsOut) {
  if (!armed())
    return false;
  FaultPlan P = plan();
  if (!P.DelayWorker || WorkerOrdinal != P.DelayWorker)
    return false;
  DelayMsOut = P.DelayMs;
  return true;
}

} // namespace sim
} // namespace descend

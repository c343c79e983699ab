//===- obs/Trace.cpp - Chrome-trace-event JSON exporter -------------------===//

#include "obs/Trace.h"
#include "support/StringUtils.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace descend::obs {

namespace {

uint32_t threadId() {
  static std::atomic<uint32_t> Next{1};
  thread_local uint32_t Id = Next.fetch_add(1, std::memory_order_relaxed);
  return Id;
}

} // namespace

bool parseTraceEnv(const char *Env, std::string *PathOut,
                   std::string *Warning) {
  if (Warning)
    Warning->clear();
  if (!Env)
    return false; // unset: off, silently
  std::string V(Env);
  bool Garbage = V.empty();
  for (char C : V)
    if (std::isspace((unsigned char)C) || std::iscntrl((unsigned char)C))
      Garbage = true;
  if (Garbage) {
    if (Warning)
      *Warning = "descend: warning: ignoring invalid DESCEND_TRACE value '" +
                 V + "' (want 0/off, 1/on, or a file path); tracing is off";
    return false;
  }
  if (V == "0" || V == "off")
    return false; // explicit off, silently
  if (PathOut)
    *PathOut = (V == "1" || V == "on") ? DefaultTracePath : V;
  return true;
}

TraceCollector &TraceCollector::global() {
  static TraceCollector G;
  return G;
}

TraceCollector::TraceCollector() : Epoch(std::chrono::steady_clock::now()) {
  std::string EnvPath, Warning;
  if (parseTraceEnv(std::getenv("DESCEND_TRACE"), &EnvPath, &Warning)) {
    Path = EnvPath;
    Enabled.store(true, std::memory_order_relaxed);
  } else if (!Warning.empty()) {
    std::fprintf(stderr, "%s\n", Warning.c_str());
  }
}

void TraceCollector::enable(std::string P) {
  std::lock_guard<std::mutex> L(M);
  Path = std::move(P);
  Enabled.store(true, std::memory_order_relaxed);
}

void TraceCollector::disable() {
  Enabled.store(false, std::memory_order_relaxed);
}

void TraceCollector::addComplete(const char *Cat, const char *Name,
                                 std::chrono::steady_clock::time_point Begin,
                                 std::chrono::steady_clock::time_point End,
                                 std::string ArgsJson) {
  if (!enabled())
    return; // callers guard for speed; the API is safe without it
  TraceEvent E;
  E.Name = Name;
  E.Cat = Cat;
  E.Ph = 'X';
  E.Tid = threadId();
  E.ArgsJson = std::move(ArgsJson);
  std::lock_guard<std::mutex> L(M);
  E.TsUs = std::chrono::duration<double, std::micro>(Begin - Epoch).count();
  E.DurUs = std::chrono::duration<double, std::micro>(End - Begin).count();
  Events.push_back(std::move(E));
}

void TraceCollector::addInstant(const char *Cat, const char *Name,
                                std::string ArgsJson) {
  if (!enabled())
    return;
  TraceEvent E;
  E.Name = Name;
  E.Cat = Cat;
  E.Ph = 'i';
  E.Tid = threadId();
  E.ArgsJson = std::move(ArgsJson);
  std::lock_guard<std::mutex> L(M);
  E.TsUs = std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - Epoch)
               .count();
  Events.push_back(std::move(E));
}

std::string TraceCollector::renderJson() const {
  std::lock_guard<std::mutex> L(M);
  std::string Out = "{\"traceEvents\":[";
  char Buf[128];
  for (size_t I = 0; I < Events.size(); ++I) {
    const TraceEvent &E = Events[I];
    if (I)
      Out += ',';
    Out += "{\"name\":\"" + jsonEscape(E.Name) + "\",\"cat\":\"" +
           jsonEscape(E.Cat) + "\",\"ph\":\"";
    Out += E.Ph;
    Out += "\",";
    if (E.Ph == 'X')
      std::snprintf(Buf, sizeof(Buf), "\"ts\":%.3f,\"dur\":%.3f,", E.TsUs,
                    E.DurUs);
    else
      // Instant events need a scope; "t" (thread) keeps them local.
      std::snprintf(Buf, sizeof(Buf), "\"ts\":%.3f,\"s\":\"t\",", E.TsUs);
    Out += Buf;
    std::snprintf(Buf, sizeof(Buf), "\"pid\":1,\"tid\":%u", E.Tid);
    Out += Buf;
    if (!E.ArgsJson.empty())
      Out += ",\"args\":" + E.ArgsJson;
    Out += '}';
  }
  Out += "],\"displayTimeUnit\":\"ms\"}";
  return Out;
}

bool TraceCollector::writeTo(const std::string &P) const {
  std::string Doc = renderJson();
  std::FILE *F = std::fopen(P.c_str(), "wb");
  if (!F) {
    std::fprintf(stderr, "descend: warning: cannot write trace file '%s'\n",
                 P.c_str());
    return false;
  }
  bool Ok = std::fwrite(Doc.data(), 1, Doc.size(), F) == Doc.size();
  Ok = std::fclose(F) == 0 && Ok;
  if (!Ok)
    std::fprintf(stderr, "descend: warning: short write on trace file '%s'\n",
                 P.c_str());
  return Ok;
}

void TraceCollector::flush() {
  if (!enabled())
    return;
  std::string P;
  {
    std::lock_guard<std::mutex> L(M);
    if (Events.empty())
      return;
    P = Path;
  }
  writeTo(P);
}

void TraceCollector::resetForTest() {
  std::lock_guard<std::mutex> L(M);
  Enabled.store(false, std::memory_order_relaxed);
  Events.clear();
  Path = DefaultTracePath;
}

size_t TraceCollector::eventCount() const {
  std::lock_guard<std::mutex> L(M);
  return Events.size();
}

} // namespace descend::obs

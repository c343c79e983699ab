//===- tools/descendd/main.cpp - The Descend compile daemon -----------------===//
//
// A long-lived compile service over a line protocol on stdin/stdout,
// wrapping service::CompileService. One process keeps the LRU of compiled
// artifacts warm across requests, so editors and build drivers pay the
// cold compile once per (source, -D binding, backend) and a cache probe
// thereafter. Requests are answered one at a time, in arrival order.
//
// Protocol (one request per line, length-prefixed payload):
//
//   COMPILE <backend> <bytes> [name=value]...
//   <payload: exactly <bytes> bytes of Descend source>
//     -> OK hit=<0|1> ms=<float> <bytes>\n<artifact bytes>
//     -> ERR <bytes>\n<diagnostics bytes>
//
//   STATS
//     -> STATS hits=<n> misses=<n> failures=<n> evictions=<n>
//              entries=<n> hit_rate=<r>
//        (hit_rate = hits / all requests; 0.000 before the first request)
//
//   METRICS
//     -> METRICS requests=<n> hits=<n> misses=<n> failures=<n>
//                evictions=<n> entries=<n> hit_rate=<r>
//                latency_count=<n> latency_mean_ms=<ms>
//                latency_p50_ms=<ms> latency_p95_ms=<ms> latency_max_ms=<ms>
//        (one line; the latency quantiles are conservative log2-bucket
//        upper bounds over every served request, hits included. All
//        fields are zero before the first COMPILE — the reply is always
//        one complete, flushed line, never silence.)
//
//   PING
//     -> PONG (liveness probe; never touches the service)
//
//   QUIT (or EOF)
//     -> exits 0
//
// Robustness contract: a malformed request line, a malformed define or a
// payload larger than MaxPayloadBytes gets `ERR <bytes>\n<message>`; the
// payload that follows is drained and the daemon keeps serving — hostile
// input must never take the service down. A request truncated
// mid-payload (the client died) is answered with ERR and the daemon exits
// 0: a dead stdin is an orderly shutdown, not a crash. SIGPIPE is ignored
// — a client that closes its read end surfaces as a write error, not a
// silent kill.
//
//===----------------------------------------------------------------------===//

#include "service/CompileService.h"

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

using namespace descend;

namespace {

/// Largest COMPILE payload served. The largest fixture
/// (kernels/scan.descend) is about 4 KB; a larger declared size is
/// refused before anything is allocated for it.
constexpr long long MaxPayloadBytes = 1 << 20;

void reply(const std::string &Head, const std::string &Payload) {
  std::fprintf(stdout, "%s %zu\n", Head.c_str(), Payload.size());
  std::fwrite(Payload.data(), 1, Payload.size(), stdout);
  std::fflush(stdout);
}

void replyErr(const std::string &Msg) { reply("ERR", Msg + "\n"); }

/// Strictly parses a positive decimal integer: digits only, no sign,
/// nonzero, no overflow.
bool parsePositive(const std::string &S, size_t &Out) {
  if (S.empty() || S[0] < '0' || S[0] > '9')
    return false;
  errno = 0;
  char *End = nullptr;
  unsigned long long V = std::strtoull(S.c_str(), &End, 10);
  if (errno == ERANGE || *End != '\0' || V == 0)
    return false;
  Out = V;
  return true;
}

} // namespace

int main(int argc, char **argv) {
  size_t Capacity = 64;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg.rfind("--cache-capacity=", 0) == 0) {
      if (!parsePositive(Arg.substr(17), Capacity)) {
        std::fprintf(stderr,
                     "descendd: error: --cache-capacity expects a positive "
                     "integer, got '%s'\n",
                     Arg.c_str() + 17);
        return 2;
      }
    } else if (Arg == "--help" || Arg == "-h") {
      std::printf(
          "usage: descendd [--cache-capacity=N]\n"
          "Serves COMPILE/STATS/METRICS/PING/QUIT requests on stdin; see\n"
          "the protocol comment in tools/descendd/main.cpp.\n");
      return 0;
    } else {
      std::fprintf(stderr, "descendd: error: unrecognized option '%s'\n",
                   Arg.c_str());
      return 2;
    }
  }

#ifdef SIGPIPE
  // A client closing its read end must surface as a write error on our
  // next reply, not kill the daemon mid-serve.
  std::signal(SIGPIPE, SIG_IGN);
#endif

  service::CompileService Service(Capacity);

  std::string Line;
  while (std::getline(std::cin, Line)) {
    std::istringstream LS(Line);
    std::string Cmd;
    LS >> Cmd;
    if (Cmd.empty())
      continue;
    if (Cmd == "QUIT")
      return 0;
    if (Cmd == "PING") {
      std::fprintf(stdout, "PONG\n");
      std::fflush(stdout);
      continue;
    }
    if (Cmd == "STATS") {
      service::ServiceStats St = Service.stats();
      const unsigned long long Requests = St.Hits + St.Misses + St.Failures;
      const double HitRate =
          Requests ? static_cast<double>(St.Hits) / Requests : 0.0;
      std::fprintf(stdout,
                   "STATS hits=%llu misses=%llu failures=%llu "
                   "evictions=%llu entries=%zu hit_rate=%.3f\n",
                   (unsigned long long)St.Hits, (unsigned long long)St.Misses,
                   (unsigned long long)St.Failures,
                   (unsigned long long)St.Evictions, St.Entries, HitRate);
      std::fflush(stdout);
      continue;
    }
    if (Cmd == "METRICS") {
      service::ServiceStats St = Service.stats();
      service::LatencyHistogram L = Service.latency();
      const unsigned long long Requests = St.Hits + St.Misses + St.Failures;
      const double HitRate =
          Requests ? static_cast<double>(St.Hits) / Requests : 0.0;
      const double MeanMs = L.Total ? L.SumMs / L.Total : 0.0;
      std::fprintf(stdout,
                   "METRICS requests=%llu hits=%llu misses=%llu "
                   "failures=%llu evictions=%llu entries=%zu "
                   "hit_rate=%.3f latency_count=%llu latency_mean_ms=%.3f "
                   "latency_p50_ms=%.3f latency_p95_ms=%.3f "
                   "latency_max_ms=%.3f\n",
                   Requests, (unsigned long long)St.Hits,
                   (unsigned long long)St.Misses,
                   (unsigned long long)St.Failures,
                   (unsigned long long)St.Evictions, St.Entries, HitRate,
                   (unsigned long long)L.Total, MeanMs,
                   L.quantileUpperMs(0.5), L.quantileUpperMs(0.95), L.MaxMs);
      std::fflush(stdout);
      continue;
    }
    if (Cmd != "COMPILE") {
      replyErr("unknown command `" + Cmd + "`");
      continue;
    }

    service::CompileRequest Req;
    Req.BufferName = "<descendd>";
    long long Bytes = -1;
    if (!(LS >> Req.Backend >> Bytes) || Bytes < 0) {
      replyErr("malformed COMPILE request: expected "
               "`COMPILE <backend> <bytes> [name=value]...`");
      continue;
    }
    std::string Refusal;
    if (Bytes > MaxPayloadBytes)
      Refusal = "payload of " + std::to_string(Bytes) +
                " bytes exceeds the limit of " +
                std::to_string(MaxPayloadBytes) + " bytes";
    std::string Def;
    while (Refusal.empty() && LS >> Def) {
      size_t Eq = Def.find('=');
      char *End = nullptr;
      errno = 0;
      long long V = Eq == std::string::npos
                        ? 0
                        : std::strtoll(Def.c_str() + Eq + 1, &End, 10);
      if (Eq == std::string::npos || Eq == 0 || End == Def.c_str() + Eq + 1 ||
          *End != '\0') {
        Refusal = "malformed define `" + Def + "`: expected name=value";
        break;
      }
      if (errno == ERANGE) {
        Refusal = "define `" + Def + "` is out of range for a 64-bit integer";
        break;
      }
      Req.Defines[Def.substr(0, Eq)] = V;
    }
    if (!Refusal.empty()) {
      replyErr(Refusal);
      // The payload still follows; drain it to stay in sync.
      std::cin.ignore(Bytes);
      continue;
    }

    Req.Source.resize((size_t)Bytes);
    std::cin.read(Req.Source.data(), Bytes);
    if (std::cin.gcount() != Bytes) {
      // The client died mid-request: answer (it may still be reading)
      // and shut down in an orderly way — a dead stdin is EOF, not a
      // crash.
      replyErr("truncated payload: expected " + std::to_string(Bytes) +
               " bytes, got " + std::to_string(std::cin.gcount()) +
               "; shutting down");
      return 0;
    }

    service::CompileReply Rep = Service.compile(Req);
    if (!Rep.Ok) {
      reply("ERR", Rep.Diagnostics);
      continue;
    }
    char Head[96];
    std::snprintf(Head, sizeof(Head), "OK hit=%d ms=%.3f",
                  Rep.CacheHit ? 1 : 0, Rep.CompileMs);
    reply(Head, Rep.Artifact);
  }
  return 0;
}

//===- perfbench/harness.h - Benchmark harness helpers ----------*- C++ -*-===//
//
// The parts of the benchmark that are worth testing on their own: the
// seeded generator every workload draws its requests from, the
// percentile helper, the span recorder with its self-time arithmetic,
// and the output checkers. The checkers compare against closed forms or
// a CPU reference, never against the compiler under test.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace perfbench {

//===----------------------------------------------------------------------===//
// Seeded generator
//===----------------------------------------------------------------------===//

/// SplitMix64: small, fast, and the same sequence on every platform, so a
/// seed names one exact request sequence.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}

  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }

  /// Uniform in [0, N); N > 0.
  uint64_t below(uint64_t N) { return next() % N; }

  /// Index drawn with probability Weights[i] / sum(Weights).
  size_t weighted(const std::vector<unsigned> &Weights) {
    unsigned Total = 0;
    for (unsigned W : Weights)
      Total += W;
    uint64_t R = below(Total);
    for (size_t I = 0; I != Weights.size(); ++I) {
      if (R < Weights[I])
        return I;
      R -= Weights[I];
    }
    return Weights.size() - 1;
  }

private:
  uint64_t State;
};

//===----------------------------------------------------------------------===//
// Percentiles
//===----------------------------------------------------------------------===//

/// Nearest-rank percentile \p P (0 < P <= 100) of \p V; 0 when empty.
inline double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(P / 100.0 * V.size()));
  Rank = std::clamp<size_t>(Rank, 1, V.size());
  return V[Rank - 1];
}

inline double median(std::vector<double> V) { return percentile(V, 50.0); }

/// The highest percentile of the ladder 50, 75, 90, 95, 98, 99, 99.9 that
/// is at most \p Cap and leaves at least ten of \p N samples above its
/// nearest rank; 0 when even the median leaves fewer than ten.
inline double tailPercentile(size_t N, double Cap) {
  static const double Ladder[] = {99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0};
  for (double P : Ladder) {
    if (P > Cap)
      continue;
    size_t Rank = static_cast<size_t>(std::ceil(P / 100.0 * N));
    if (N >= Rank + 10)
      return P;
  }
  return 0.0;
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

using Clock = std::chrono::steady_clock;

/// One timed call: [Start, End] in microseconds since the recorder's
/// epoch, the enclosing span (-1 for a root) and the request it served.
struct SpanRec {
  std::string Name;
  double Start = 0, End = 0;
  int Parent = -1;
  uint64_t Req = 0;
  double dur() const { return End - Start; }
};

/// Spans of one run, kept in memory and written out at exit. begin/end
/// must nest (a stack); the recorder fills Parent from the stack.
class SpanRecorder {
public:
  SpanRecorder() : Epoch(Clock::now()) {}

  int begin(const char *Name, uint64_t Req) {
    SpanRec S;
    S.Name = Name;
    S.Start = nowUs();
    S.Parent = Open.empty() ? -1 : Open.back();
    S.Req = Req;
    Spans.push_back(std::move(S));
    Open.push_back(static_cast<int>(Spans.size() - 1));
    return Open.back();
  }

  void end(int Id) {
    Spans[Id].End = nowUs();
    Open.pop_back();
  }

  const std::vector<SpanRec> &spans() const { return Spans; }
  std::vector<SpanRec> &spans() { return Spans; }

  Clock::time_point epoch() const { return Epoch; }

  double nowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - Epoch)
        .count();
  }

private:
  Clock::time_point Epoch;
  std::vector<SpanRec> Spans;
  std::vector<int> Open;
};

/// Self time of every span: its duration minus the part of its interval
/// that the union of its direct children covers (children are clipped to
/// the parent, and overlapping children count once). Never negative.
inline std::vector<double> selfTimes(const std::vector<SpanRec> &Spans) {
  std::vector<std::vector<std::pair<double, double>>> Kids(Spans.size());
  for (const SpanRec &S : Spans)
    if (S.Parent >= 0) {
      const SpanRec &P = Spans[S.Parent];
      double Lo = std::max(S.Start, P.Start), Hi = std::min(S.End, P.End);
      if (Hi > Lo)
        Kids[S.Parent].push_back({Lo, Hi});
    }
  std::vector<double> Self(Spans.size());
  for (size_t I = 0; I != Spans.size(); ++I) {
    auto &K = Kids[I];
    std::sort(K.begin(), K.end());
    double Covered = 0, CurLo = 0, CurHi = -1;
    for (auto [Lo, Hi] : K) {
      if (Lo > CurHi) {
        if (CurHi > CurLo)
          Covered += CurHi - CurLo;
        CurLo = Lo;
        CurHi = Hi;
      } else {
        CurHi = std::max(CurHi, Hi);
      }
    }
    if (CurHi > CurLo)
      Covered += CurHi - CurLo;
    Self[I] = std::max(0.0, Spans[I].dur() - Covered);
  }
  return Self;
}

/// True when every span ends after it starts and lies inside its parent.
inline bool spansNest(const std::vector<SpanRec> &Spans) {
  for (const SpanRec &S : Spans) {
    if (S.End < S.Start)
      return false;
    if (S.Parent >= 0) {
      const SpanRec &P = Spans[S.Parent];
      if (S.Start < P.Start || S.End > P.End || S.Req != P.Req)
        return false;
    }
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Checkers (independent references only)
//===----------------------------------------------------------------------===//

inline double loadF64(const std::byte *P, size_t I) {
  double D;
  std::memcpy(&D, P + I * sizeof(double), sizeof(double));
  return D;
}

/// serve, quickstart_host / scale2: every element was scaled by 3.
inline bool checkScaled(const std::byte *Data, size_t N, double Fill) {
  for (size_t I = 0; I != N; ++I)
    if (loadF64(Data, I) != 3.0 * Fill)
      return false;
  return true;
}

/// serve, reduction_host: each of the NB partials sums 256 copies of
/// Fill and the total sums all NB * 256. Exact: Fill is a multiple of
/// 0.25 and every partial sum stays far below 2^53 quarters.
inline bool checkReduction(const std::byte *Partials, size_t NB,
                           const std::byte *Total, double Fill) {
  for (size_t I = 0; I != NB; ++I)
    if (loadF64(Partials, I) != 256.0 * Fill)
      return false;
  return loadF64(Total, 0) == static_cast<double>(NB * 256) * Fill;
}

/// serve, matmul_host: with A filled with \p A and B with \p B, every
/// cell of the N x N product is N * A * B.
inline bool checkMatmul(const std::byte *C, size_t N, double A, double B) {
  const double Want = static_cast<double>(N) * A * B;
  for (size_t I = 0; I != N * N; ++I)
    if (loadF64(C, I) != Want)
      return false;
  return true;
}

/// compile: the verdict must equal the source's known answer. Accepted
/// sources must produce an artifact; rejected ones a diagnostic.
inline bool checkVerdict(bool ExpectOk, bool Ok, const std::string &Artifact,
                         const std::string &Diagnostics) {
  if (Ok != ExpectOk)
    return false;
  return Ok ? !Artifact.empty() : !Diagnostics.empty();
}

/// kernels: bit-equality with the CPU reference.
inline bool bitEqual(const void *Got, const std::vector<double> &Ref) {
  return std::memcmp(Got, Ref.data(), Ref.size() * sizeof(double)) == 0;
}

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H

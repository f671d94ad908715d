//===----------------------------------------------------------------------===//
//
// Part of convgen. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// In-memory span recording for the benchmark's traced run. Each thread
/// owns one SpanLog (no locking on the hot path); spans carry a name,
/// start and end, the id of the span that caused them, and the request id
/// they belong to. Logs are written out once, when the benchmark ends.
/// With tracing off the benchmark passes a null log and ScopedSpan does
/// nothing, not even read the clock.
///
//===----------------------------------------------------------------------===//

#ifndef CONVGEN_PERFBENCH_TRACE_H
#define CONVGEN_PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

namespace perfbench {

inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanLog {
public:
  /// \p Thread makes span ids unique across the logs of one run.
  explicit SpanLog(int64_t Thread) : Base(Thread * kIdsPerThread) {
    Spans.reserve(1 << 16);
  }

  /// Opens a span and returns its id (never 0; 0 means "no parent").
  int64_t open(const char *Name, int64_t Parent, int64_t Request) {
    Spans.push_back({Name, Parent, Request, nowNs(), 0});
    return Base + static_cast<int64_t>(Spans.size());
  }

  void close(int64_t Id) {
    Spans[static_cast<size_t>(Id - Base - 1)].EndNs = nowNs();
  }

  size_t size() const { return Spans.size(); }

  /// Appends one JSON object per span to \p Out.
  void write(std::FILE *Out, int64_t Epoch) const {
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      std::fprintf(Out,
                   "{\"id\": %lld, \"parent\": %lld, \"request\": %lld, "
                   "\"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f}\n",
                   static_cast<long long>(Base + static_cast<int64_t>(I) + 1),
                   static_cast<long long>(S.Parent),
                   static_cast<long long>(S.Request), S.Name,
                   static_cast<double>(S.StartNs - Epoch) * 1e-3,
                   static_cast<double>(S.EndNs - Epoch) * 1e-3);
    }
  }

private:
  struct Span {
    const char *Name; ///< Always a string literal.
    int64_t Parent;
    int64_t Request;
    int64_t StartNs;
    int64_t EndNs;
  };
  static constexpr int64_t kIdsPerThread = int64_t(1) << 40;
  int64_t Base;
  std::vector<Span> Spans;
};

/// Records one span for its scope when \p Log is non-null.
class ScopedSpan {
public:
  ScopedSpan(SpanLog *Log, const char *Name, int64_t Parent = 0,
             int64_t Request = 0)
      : Log(Log), Id(Log ? Log->open(Name, Parent, Request) : 0) {}
  ~ScopedSpan() {
    if (Log)
      Log->close(Id);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  int64_t id() const { return Id; }

private:
  SpanLog *Log;
  int64_t Id;
};

} // namespace perfbench

#endif // CONVGEN_PERFBENCH_TRACE_H

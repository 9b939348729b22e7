// In-memory span recorder for the traced world_tick run.
//
// One span per stage call, recorded from the benchmark's own code around
// the call into the library (nothing inside src/ is instrumented). Spans
// stay in memory until the run ends, then are written out as Chrome
// trace-event JSON (open in chrome://tracing or https://ui.perfetto.dev).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace worldbench {

class Tracer {
 public:
  static constexpr int kNoParent = -1;

  struct Span {
    const char* name = "";
    double startUs = 0.0;
    double endUs = 0.0;
    int parent = kNoParent;    ///< Index into spans(), or kNoParent.
    std::uint64_t traceId = 0; ///< The tick index: one trace per tick.
  };

  Tracer() : origin_(std::chrono::steady_clock::now()) {}

  /// Open a span; returns its index for close() and as a parent handle.
  int open(const char* name, int parent, std::uint64_t traceId) {
    spans_.push_back(Span{name, nowUs(), 0.0, parent, traceId});
    return static_cast<int>(spans_.size() - 1);
  }
  void close(int span) { spans_[static_cast<std::size_t>(span)].endUs = nowUs(); }

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Self time of every span in microseconds: its duration minus the time
  /// its direct children cover (children of one span run one after
  /// another, so their durations never overlap).
  std::vector<double> selfTimesUs() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].endUs - spans_[i].startUs;
    }
    for (const Span& s : spans_) {
      if (s.parent != kNoParent) {
        self[static_cast<std::size_t>(s.parent)] -= s.endUs - s.startUs;
      }
    }
    return self;
  }

  /// Write every span as a Chrome "complete" event. Returns false when the
  /// file cannot be written.
  bool writeChromeJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::vector<double> self = selfTimesUs();
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const char* parent =
          s.parent == kNoParent ? "" : spans_[static_cast<std::size_t>(s.parent)].name;
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"trace_id\":%llu,"
                   "\"parent\":\"%s\",\"self_us\":%.3f}}",
                   i == 0 ? "" : ",\n", s.name, s.startUs, s.endUs - s.startUs,
                   static_cast<unsigned long long>(s.traceId), parent, self[i]);
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  double nowUs() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace worldbench

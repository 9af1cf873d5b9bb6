// Host-clock spans recorded around the benchmark's own calls into each
// module (graph, cpu, baselines, core, sim, serve).
//
// A span has a name, a start and end on std::chrono::steady_clock, the span
// that was open when it started (its parent), and the workload it belongs
// to. Spans are kept in memory and written once, at exit, as Chrome
// trace-event JSON (opens in Perfetto and chrome://tracing). A layer's self
// time is its span's duration minus the time its child spans cover; every
// per-layer host metric is a sum of self times by span name.
//
// A disabled recorder records nothing: Scope() costs one untaken branch,
// so an untraced run times the same work the traced run breaks down.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  struct Span {
    std::string name;
    double start_us = 0;
    double end_us = 0;
    int32_t parent = -1;  // index into spans(), -1 for a root
  };

  /// Closes its span when it goes out of scope.
  class Scope {
   public:
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();

   private:
    friend class SpanRecorder;
    Scope(SpanRecorder* recorder, int32_t index) : recorder_(recorder), index_(index) {}
    SpanRecorder* recorder_;
    int32_t index_;
  };

  SpanRecorder(std::string workload, bool enabled);

  bool enabled() const { return enabled_; }
  /// Turns recording on or off between spans (never while one is open).
  void set_enabled(bool enabled);

  /// Opens a span named `name` under the innermost open span.
  [[nodiscard]] Scope Open(const char* name);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time in milliseconds summed over every span called `name`.
  double SelfMs(const std::string& name) const;
  /// Number of spans called `name`.
  uint64_t Count(const std::string& name) const;

  /// Chrome trace-event JSON: one complete ("X") event per span on one
  /// thread of a process named after the workload; args carry the parent
  /// span's index and the span's self time.
  std::string ChromeTraceJson() const;

 private:
  double NowUs() const;
  void Close(int32_t index);

  std::string workload_;
  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

}  // namespace perfbench

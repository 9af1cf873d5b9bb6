// Execution timeline: ordered compute and transfer spans on the simulated
// clock. Fig 4 of the paper plots exactly this (data-transfer vs computing
// activity over the run, showing 60-80% overlap for EtaGraph w/o UMP);
// bench_fig4_overlap renders the recorded spans.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace eta::sim {

/// kStall marks simulated time deliberately burned with no device activity
/// (fault-recovery backoff, watchdog windows); it is excluded from the
/// compute/transfer overlap accounting.
enum class SpanKind { kCompute, kTransferH2D, kTransferD2H, kStall };

struct Span {
  SpanKind kind;
  double start_ms = 0;
  double end_ms = 0;
  std::string label;

  double Duration() const { return end_ms - start_ms; }
};

class Timeline {
 public:
  void Add(SpanKind kind, double start_ms, double end_ms, std::string label);
  /// Copies already-recorded spans onto the end (a slice of another
  /// timeline).
  void Append(std::span<const Span> spans) {
    spans_.insert(spans_.end(), spans.begin(), spans.end());
  }

  const std::vector<Span>& Spans() const { return spans_; }
  void Clear() { spans_.clear(); }

  /// Total busy time per kind (spans of one kind never overlap each other).
  double TotalMs(SpanKind kind) const;

  /// Wall time during which a compute span and a transfer span overlap —
  /// the quantity Fig 4 visualizes.
  double OverlapMs() const;

  /// Renders a fixed-width ASCII strip chart ('#' compute, '=' transfer,
  /// '%' both) across [0, horizon_ms]; used by bench_fig4_overlap.
  std::string RenderAscii(double horizon_ms, uint32_t columns = 100) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace eta::sim

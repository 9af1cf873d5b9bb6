// GraphSession — a standing device deployment of one graph.
//
// The serving layer's unit of graph residency: construction stages the CSR
// onto a persistent simulated device (core::ResidentGraph) and the session
// then serves any number of queries, each charged only its incremental
// transfer and kernel time. Unified-memory residency and cache state stay
// warm between queries, which is precisely the amortization the serving
// engine sells over the naive run-per-query path.
#pragma once

#include <span>

#include "core/framework.hpp"
#include "core/pagerank.hpp"
#include "cpu/reference.hpp"
#include "graph/csr.hpp"

namespace eta::serve {

/// Scalar answer of a whole-graph CC run: the number of components (label
/// fixpoint roots, labels[v] == v). The serving layer reports this as the
/// request's reached_vertices.
inline uint64_t CountComponents(const std::vector<graph::Weight>& labels) {
  uint64_t components = 0;
  for (size_t v = 0; v < labels.size(); ++v) {
    if (labels[v] == static_cast<graph::Weight>(v)) ++components;
  }
  return components;
}

/// The CPU fallback's scalar answer for one request: reached count for the
/// per-source traversals, component count for CC, above-uniform-rank count
/// for PageRank. Exact for traversals and CC (same labels the device
/// converges to); PageRank uses the double-precision host reference.
inline uint64_t CpuAnswer(const graph::Csr& csr, core::Algo algo,
                          graph::VertexId source) {
  if (algo == core::Algo::kCc) {
    return CountComponents(cpu::MinLabelPropagation(csr));
  }
  if (algo == core::Algo::kPr) {
    const core::PageRankOptions pr;
    const std::vector<double> ranks =
        cpu::PageRankReference(csr, pr.damping, pr.epsilon, pr.max_iterations);
    const double uniform = 1.0 / static_cast<double>(csr.NumVertices());
    uint64_t above = 0;
    for (double rank : ranks) {
      if (rank > uniform) ++above;
    }
    return above;
  }
  return cpu::CountReached(core::CpuReference(csr, algo, source),
                           core::IsWidest(algo));
}

/// One PageRank query as a RunReport: lowers to the one-shot
/// core::RunPageRank on a side device. query_ms includes that device's own
/// staging (the honest naive-PR bill whose amortization lever is the memo
/// table); the side device has no fault injector, so PR queries never
/// observe injected faults. The answer — the count of vertices whose rank
/// exceeds the uniform 1/n — surfaces through report.activated.
inline core::RunReport RunPageRankAsQuery(const graph::Csr& csr) {
  const core::PageRankOptions pr;
  core::PageRankResult r = core::RunPageRank(csr, pr);
  core::RunReport report;
  report.algo = core::Algo::kPr;
  report.oom = r.oom;
  report.kernel_ms = r.kernel_ms;
  report.query_ms = r.total_ms;
  report.total_ms = r.total_ms;
  report.iterations = r.iterations;
  report.counters = r.counters;
  report.query_counters = r.counters;
  if (!r.oom) {
    const double uniform = 1.0 / static_cast<double>(csr.NumVertices());
    uint64_t above = 0;
    for (float rank : r.ranks) {
      if (rank > uniform) ++above;
    }
    report.activated = above;
  }
  return report;
}

class GraphSession {
 public:
  /// Stages `csr` (weights included iff the CSR has them, so weighted
  /// queries are servable). The CSR must outlive the session.
  explicit GraphSession(const graph::Csr& csr, core::EtaGraphOptions options = {})
      : resident_(csr, options) {}
  /// Stages `csr`, shipping the weight array only when `stage_weights` —
  /// the naive per-query device stages just what its one query reads.
  GraphSession(const graph::Csr& csr, core::EtaGraphOptions options, bool stage_weights)
      : resident_(csr, options, stage_weights) {}

  /// False if device allocation failed; no queries can be served then.
  bool Loaded() const { return !resident_.Oom(); }
  /// True once the session's simulated device has been lost to an injected
  /// fault; the session must be torn down and rebuilt.
  bool DeviceLost() const { return resident_.DeviceLost(); }
  /// Loaded and not lost — the engine dispatches only to healthy sessions.
  bool Healthy() const { return Loaded() && !DeviceLost(); }
  /// Simulated time spent staging the graph (the session's startup cost).
  double LoadMs() const { return resident_.LoadMs(); }
  /// Absolute session clock.
  double NowMs() const { return resident_.NowMs(); }
  uint64_t QueriesServed() const { return resident_.QueriesServed(); }
  /// Exact kDevice footprint staged by this session — what the sharded
  /// fleet's eviction accounting charges once the build has happened.
  uint64_t DeviceBytesPeak() const { return resident_.DeviceBytesPeak(); }
  const graph::Csr& Graph() const { return resident_.Graph(); }

  /// Async staging hook (ResidentGraph::PrefetchTopology): hoists the
  /// first-query topology prefetch into the staging phase so an async
  /// dispatcher can charge load + prefetch as one copy-stream op. Returns
  /// the incremental simulated ms; 0 when there is nothing to hoist.
  double PrefetchTopology() { return resident_.PrefetchTopology(); }

  /// One query against the resident topology; report.query_ms is its
  /// incremental simulated cost. Whole-graph algorithms ignore `source`:
  /// CC runs the resident min-label propagation (full fault/retry
  /// machinery); PageRank lowers to the one-shot core::RunPageRank on a
  /// side device — its query_ms includes that device's own staging (the
  /// honest naive-PR cost whose amortization lever is the memo table) and
  /// it never observes injected faults. Both answers surface through
  /// report.activated (component count / above-uniform-rank count).
  core::RunReport RunQuery(core::Algo algo, graph::VertexId source) {
    if (algo == core::Algo::kCc) {
      core::RunReport report = resident_.RunConnectedComponents();
      if (!report.DeviceFailed()) report.activated = CountComponents(report.labels);
      return report;
    }
    if (algo == core::Algo::kPr) return RunPageRankAsQuery(resident_.Graph());
    return resident_.Run(algo, source);
  }

  /// One attributed multi-source launch for a folded batch; the report's
  /// per_source_reached lets the batcher demultiplex exact per-request
  /// reachability.
  core::RunReport RunBatch(core::Algo algo, std::span<const graph::VertexId> sources) {
    return resident_.RunMultiSource(algo, sources, /*attribute_sources=*/true);
  }

  /// The session's etacheck report (covers every query served so far), or
  /// nullptr when the session's options.check is off.
  const sanitizer::SanitizerReport* CheckReport() const {
    return resident_.CheckReport();
  }

  /// The session's etaprof launch records (covers every launch so far), or
  /// nullptr when the session's options.profile is off.
  const sim::LaunchProfiler* Profiler() const { return resident_.Profiler(); }

  /// The session device's full timeline on its private session clock; the
  /// engine's trace export maps slices of it onto the serve clock.
  const sim::Timeline& DeviceTimeline() const { return resident_.SessionTimeline(); }

  /// Tears the session down (frees resident buffers, runs the leakcheck
  /// sweep). CheckReport() stays readable afterwards; queries do not.
  void Shutdown() { resident_.Shutdown(); }

 private:
  core::ResidentGraph resident_;
};

}  // namespace eta::serve

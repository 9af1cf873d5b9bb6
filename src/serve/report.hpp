// ServeReport — fleet metrics of one trace replay.
//
// Everything an operator would put on a serving dashboard, computed from
// the deterministic simulation: throughput, latency percentiles (p50/p95/
// p99 over simulated end-to-end latency), queue behaviour, batch occupancy
// and the explicit reject/timeout counts. Two replays of the same trace
// with the same options render byte-identical reports.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include <map>

#include "core/run_report.hpp"
#include "prof/trace_export.hpp"
#include "sanitizer/report.hpp"
#include "serve/metrics.hpp"
#include "trace/alerts.hpp"
#include "trace/events.hpp"
#include "trace/flight_recorder.hpp"
#include "verify/verify.hpp"
#include "serve/types.hpp"
#include "util/histogram.hpp"

namespace eta::serve {

/// Per-algorithm estimated-vs-actual cost aggregates (DESIGN.md section 9):
/// the observation feed a future cost-aware admission controller would
/// train on. `mean_abs_error_ms` is the mean |estimate - actual| of the
/// engine's running-mean service-time estimator, evaluated before each
/// dispatch it predicted.
struct CostObservation {
  std::string algo;
  uint64_t queries = 0;          // device-served queries observed
  double mean_service_ms = 0;    // actual per-query device service time
  double mean_abs_error_ms = 0;  // estimator error against that actual
  double mean_cycles = 0;        // device cycles attributed per query
};

/// Per-shard accounting of a replay: one row per shard, so a single-engine
/// (one-shard) report has exactly one.
struct ShardStat {
  uint32_t shard = 0;
  uint64_t dispatches = 0;  // batches this shard executed
  uint64_t served = 0;      // requests answered on this shard's device
  uint64_t degraded = 0;    // requests this shard handed to the CPU fallback
  /// Requests drained *into* this shard from a quarantined peer, and
  /// requests this shard's quarantine drained *out* to peers.
  uint64_t rerouted_in = 0;
  uint64_t rerouted_out = 0;
  uint64_t rebuilds = 0;    // unhealthy sessions torn down and re-staged
  uint64_t evictions = 0;   // resident graphs evicted under the memory budget
  uint64_t reloads = 0;     // re-stagings of a previously staged graph
                            // (evicted or torn down by a rebuild)
  uint64_t launch_failures = 0;  // injected faults observed on this shard
  bool dead = false;        // rebuild budget exhausted; routed around for good
  double busy_ms = 0;       // simulated time spent dispatching (incl. loads)
  uint64_t peak_resident_bytes = 0;  // high-water device residency

  /// Prestaging accounting, DESIGN.md section 11; all zero with
  /// prestaging off (no copy overlaps compute then).
  uint64_t prestages = 0;  // sessions staged ahead on the copy stream
  double prestage_ms = 0;  // copy-stream time spent pre-staging
  double overlap_ms = 0;   // copy/compute engine overlap the shard achieved
};

/// Per-SLO-class accounting of a replay (DESIGN.md §13). Built only from
/// classed requests; empty on legacy classless traces, so legacy report
/// output is byte-identical with the overload layer built.
struct SloStat {
  SloClass slo = SloClass::kNone;
  double slo_target_ms = 0;
  uint64_t offered = 0;    // requests of this class in the trace
  uint64_t ok = 0;         // served on the device
  uint64_t degraded = 0;   // answered by the CPU fallback
  uint64_t shedded = 0;    // shed at admission
  uint64_t timed_out = 0;
  uint64_t rejected = 0;
  /// Completed (ok or degraded) within the class target — the goodput
  /// numerator.
  uint64_t slo_met = 0;
  double p50_ms = 0;  // completion latency percentiles over ok + degraded
  double p99_ms = 0;
  double Goodput() const {
    return offered == 0 ? 0 : static_cast<double>(slo_met) / static_cast<double>(offered);
  }
};

/// One hysteretic ladder level change, on the simulated clock.
struct LadderTransition {
  double at_ms = 0;
  uint32_t from_level = 0;
  uint32_t to_level = 0;
};

/// Overload-control outcome counters (brownout ladder, retry budget,
/// circuit breaker). The `*_configured` flags gate rendering: a legacy run
/// (all features off, classless trace) emits none of these rows/keys.
struct OverloadStats {
  bool slo_active = false;         // any classed request seen
  bool shed_configured = false;    // admission controller armed
  bool brownout_configured = false;
  bool budget_configured = false;
  bool breaker_configured = false;
  bool Active() const {
    return slo_active || shed_configured || brownout_configured || budget_configured ||
           breaker_configured;
  }

  /// Brownout ladder (router backlog estimate → degrade classes to CPU).
  uint32_t brownout_level = 0;      // level at end of replay
  uint32_t brownout_max_level = 0;  // deepest level reached
  uint64_t brownout_degraded = 0;   // requests degraded by the ladder
  std::vector<LadderTransition> brownout_transitions;

  /// Fleet-wide retry-budget token bucket.
  uint64_t retry_granted = 0;
  uint64_t retry_denied = 0;
  uint64_t rebuild_granted = 0;
  uint64_t rebuild_denied = 0;

  /// Circuit breaker over quarantined shards.
  uint64_t breaker_opens = 0;
  uint64_t breaker_probes = 0;
  uint64_t breaker_probe_failures = 0;
};

struct ServeReport {
  ServeMode mode = ServeMode::kSessionBatched;
  /// True when the replay pre-staged on copy streams
  /// (ShardedOptions::async_dispatch). Rendered only when set, so a
  /// prestage-off report has no prestage or overlap rows.
  bool async_dispatch = false;

  /// True when the scheduler popped in earliest-effective-deadline order
  /// (ServeOptions::edf). Rendered only when set (same byte-stability
  /// contract as async_dispatch).
  bool edf = false;

  /// Whole-graph memoization (DESIGN.md section 15): configured when
  /// ServeOptions::memo_window_ms > 0. A hit is an identical whole-graph
  /// (CC/PageRank) request answered from the per-shard memo table at zero
  /// simulated device cost. Rendered only when configured.
  bool memo_configured = false;
  uint64_t memo_hits = 0;

  /// Backlog autoscaling (DESIGN.md section 15): configured when
  /// ShardedOptions::autoscale is armed. `scale_events` are the
  /// active-shard-count changes (from/to in shard-count units) on the
  /// simulated clock; `shards_active` is the count at end of replay.
  /// Rendered only when configured.
  bool autoscale_configured = false;
  uint32_t shards_active = 0;
  std::vector<LadderTransition> scale_events;

  uint64_t total_requests = 0;
  uint64_t completed = 0;
  uint64_t rejected = 0;
  uint64_t timed_out = 0;
  /// Requests the admission controller shed as provably unable to meet
  /// their SLO (QueryStatus::kShedded); disjoint from `completed`.
  uint64_t shedded = 0;
  /// Requests the device path could not answer (faults exhausted every
  /// retry and rebuild) that were served by the CPU fallback instead.
  /// Counted inside `completed` — a degraded answer is still an answer.
  uint64_t degraded = 0;
  /// Unhealthy sessions torn down and re-staged mid-replay.
  uint64_t session_rebuilds = 0;
  /// Dispatches (a folded batch counts once).
  uint64_t batches = 0;

  /// Fault-injection/recovery counters aggregated over every run the replay
  /// executed (all-zero when ServeOptions::graph.faults is off).
  core::FaultStats faults;

  /// Graph staging time (zero in naive mode, where every query restages).
  double load_ms = 0;
  /// Simulated time from t=0 to the last completion.
  double makespan_ms = 0;

  /// Per completed request, in integer microseconds (simulated).
  util::Histogram latency_us;
  util::Histogram queue_wait_us;
  /// Requests per dispatch.
  util::Histogram batch_occupancy;
  /// Remaining queue depth sampled at each dispatch.
  util::Histogram queue_depth;

  /// Sum of reached_vertices over completed requests (work actually done).
  uint64_t reached_total = 0;

  /// Per-request outcomes, sorted by request id.
  std::vector<QueryResult> results;

  /// Serving-layer metrics registry: per-algo queue-wait/service/latency
  /// histograms, batch-size and queue-depth distributions, degradation and
  /// cost-model observations. Always populated (recording is cheap and
  /// deterministic); rendered via metrics.RenderPrometheus() for
  /// etagraph_serve --metrics-out.
  MetricsRegistry metrics;

  /// Per-algo estimated-vs-actual cost aggregates, algo name order.
  std::vector<CostObservation> cost_observations;

  /// Per-shard accounting, shard index order.
  std::vector<ShardStat> shard_stats;

  /// Per-SLO-class accounting, class order (bronze, silver, gold); empty on
  /// classless traces.
  std::vector<SloStat> slo_stats;

  /// Overload-control counters; all-default (and unrendered) on legacy runs.
  OverloadStats overload;

  /// Merged trace spans (device timeline slices mapped onto the serve
  /// clock, per-launch kernel spans, queue/batcher/session/cpu serve
  /// spans). Empty unless ServeOptions::graph.profile is on; rendered via
  /// prof::RenderChromeTrace for --trace-json.
  std::vector<prof::TraceSpan> trace_spans;

  /// etatrace (DESIGN.md section 14). `traced` is set when the replay ran
  /// with EtaGraphOptions::trace_requests; the per-request causal traces
  /// (request id -> events in emission order) are then populated and
  /// rendered by RenderRequestTraceJson(). Empty and unrendered otherwise,
  /// so legacy output stays byte-identical.
  bool traced = false;
  std::map<uint64_t, std::vector<trace::TraceEvent>> request_traces;

  /// Trace exemplars (traced runs only): per algo name, the request id of
  /// the slowest completed request — the trace id behind the per-algo p99
  /// row, so a percentile links straight to its span tree.
  std::map<std::string, uint64_t> latency_exemplars;

  /// Always-on flight-recorder dumps: one per trigger (device loss,
  /// breaker open, shard death), plus one end-of-replay snapshot appended
  /// by the engines, all on the simulated clock. Only rendered on demand
  /// (--blackbox-out), never by Render()/Json().
  std::vector<trace::FlightDump> blackbox;

  /// SLO burn-rate alert evaluations, class order; empty unless
  /// ServeOptions::slo_alerts.enabled, so legacy output is unchanged.
  std::vector<trace::AlertSeries> alerts;

  /// etacheck findings over every device the replay touched (the session
  /// device, or each naive per-query device, merged); empty with
  /// launches_checked == 0 unless ServeOptions::graph.check enabled a
  /// checker.
  sanitizer::SanitizerReport check;

  /// etaverify findings over every shard's recorded stream DAG (merged);
  /// empty with ops_checked == 0 unless ServeOptions::graph.verify_dag
  /// enabled the log (every replay records a stream DAG, with or without
  /// prestaging). Like `check`, not rendered by
  /// Render() — tools print it separately.
  verify::DagReport verify;

  /// Completed requests per simulated second of makespan.
  double ThroughputQps() const;
  /// q in [0,1] over completed-request latency; 0 when nothing completed.
  double LatencyPercentileMs(double q) const;
  double MeanBatchOccupancy() const { return batch_occupancy.Mean(); }

  /// Paper-style text table of the fleet metrics.
  std::string Render(const std::string& title) const;
  /// One JSON object (for BENCH_serve.json).
  std::string Json() const;
  /// The per-request causal traces as one JSON document
  /// ({"traces":[{"id":..,"events":[..]},..]}, request-id order); "" when
  /// the replay was not traced.
  std::string RenderRequestTraceJson() const;
  /// All flight-recorder dumps concatenated (trigger order, then the
  /// end-of-replay snapshot) — the --blackbox-out payload.
  std::string RenderBlackbox() const;
};

}  // namespace eta::serve

#include "serve/router.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <utility>

#include "core/framework.hpp"
#include "core/retry_budget.hpp"
#include "cpu/reference.hpp"
#include "prof/trace_export.hpp"
#include "serve/batcher.hpp"
#include "serve/engine.hpp"
#include "serve/metrics.hpp"
#include "serve/observe.hpp"
#include "serve/overload.hpp"
#include "serve/scheduler.hpp"
#include "serve/session.hpp"
#include "sim/stream.hpp"
#include "trace/sink.hpp"
#include "util/check.hpp"
#include "verify/verify.hpp"

namespace eta::serve {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
using DagPlant = ShardedOptions::DagPlant;
using trace::EventKind;

uint64_t ToMicros(double ms) {
  return static_cast<uint64_t>(std::llround(std::max(0.0, ms) * 1000.0));
}

std::vector<double> QueueDepthBuckets() { return {0, 1, 2, 4, 8, 16, 32, 64}; }
std::vector<double> CycleBuckets() {
  return {1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9};
}

/// Per-algo running aggregates behind the cost-model observations: the
/// estimator is the running mean of per-query device service time, so each
/// dispatch is predicted from history only (never from itself). Shared
/// fleet-wide, so routing on shard 3 learns from dispatches on shard 0.
struct CostAgg {
  uint64_t queries = 0;
  double service_sum = 0;
  double abs_err_sum = 0;
  double cycles_sum = 0;

  double EstimateMs() const {
    return queries > 0 ? service_sum / static_cast<double>(queries) : 0;
  }
};

/// One graph resident on one shard's device.
struct ResidentSession {
  uint32_t graph_id = 0;
  std::unique_ptr<GraphSession> session;
  uint64_t resident_bytes = 0;
  uint64_t last_used = 0;  // LRU ordinal (monotone dispatch tick)
  // Trace-export bookmarks into this session's device timeline/profiler.
  size_t spans_done = 0;
  size_t launches_done = 0;
  // Stream state. A pre-staged session finishes its copy-stream staging
  // at ready_ms; consuming dispatches wait on ready_event (invalid for a
  // cold stage). busy_until marks the session un-evictable (mid-copy or
  // mid-compute) until that serve-clock time.
  double ready_ms = 0;
  sim::Event ready_event{};
  double busy_until = 0;
  /// etaverify allocation handles for this staging epoch (kNoAlloc when
  /// the DAG log is off): the session's staged topology and its mutable
  /// per-query state. A re-staged graph gets fresh handles — accesses to
  /// distinct epochs never conflict.
  uint32_t topo_alloc = sim::DagAccess::kNoAlloc;
  uint32_t state_alloc = sim::DagAccess::kNoAlloc;
  /// The copy stream a pre-stage ran on (invalid for cold stages) — the
  /// kSwapRecordWait plant records the ready event here, too late.
  sim::Stream prestage_stream{};
};

/// One memoized whole-graph answer (DESIGN.md section 15): CC/PageRank
/// results carry no per-source attribution, so an identical request inside
/// the memo window is answered from here at zero simulated device cost.
struct MemoEntry {
  double computed_at = 0;  // finish time of the computing dispatch
  uint64_t reached = 0;    // the memoized whole-graph answer
};

struct Shard {
  Shard(size_t queue_capacity, bool edf) : queue(queue_capacity, edf) {}

  uint32_t index = 0;
  core::EtaGraphOptions graph_options{};
  QueryScheduler queue;
  std::vector<ResidentSession> sessions;
  uint64_t resident_bytes = 0;
  /// Serve-clock time when the shard can next dispatch.
  double free_at = 0;
  uint32_t rebuilds_left = 0;
  bool dead = false;
  /// Graphs ever staged here — a second staging of the same graph is a
  /// reload (the eviction policy's cost signal).
  std::set<uint32_t> staged_graphs;
  /// Queued-request composition per algorithm, the routing estimate input.
  std::map<core::Algo, uint64_t> queued_by_algo;
  /// Overload control (DESIGN.md §13): a disabled breaker (the default)
  /// always allows routing, keeping the legacy path byte-identical.
  CircuitBreaker breaker{CircuitBreaker::Options{}};
  /// Backlog autoscaling (DESIGN.md section 15): an inactive shard is a
  /// warm standby — routed around, never dispatching, sessions resident.
  /// Always true on a fixed fleet (autoscaling off).
  bool active = true;
  /// Whole-graph memo table, keyed (graph_id, algo). Filled only when
  /// ServeOptions::memo_window_ms > 0; invalidated with the session (a
  /// re-staged graph is a new staging epoch).
  std::map<std::pair<uint32_t, core::Algo>, MemoEntry> memo;
  ShardStat stat{};
  /// The shard's stream scheduler (one compute engine + one copy engine
  /// per direction), a dense name counter for the per-dispatch streams,
  /// and a backoff mark after a failed pre-stage build (so a staging fault
  /// is not re-drawn at every event tick).
  std::unique_ptr<sim::StreamScheduler> streams;
  uint64_t dispatch_seq = 0;
  double no_prestage_until = 0;
  /// The previous dispatch's stream: the serve loop only dispatches once
  /// free_at is reached, i.e. the host observed that stream complete, so
  /// each new dispatch host-joins it in the DAG log.
  sim::Stream last_dispatch{};
  /// Dense staging-epoch counter for etaverify allocation names.
  uint64_t stage_epochs = 0;

  int16_t TraceIndex() const { return static_cast<int16_t>(index); }
};

/// A request drained out of a quarantined shard, to be re-routed once the
/// global clock reaches the fault time (routing earlier would let a peer
/// dispatch work caused by a failure that has not happened yet).
struct Deferred {
  double ready_ms = 0;
  uint64_t order = 0;  // drain order, the deterministic tiebreaker
  Request request;
};

/// One dispatch in flight on one shard: the batch's unanswered requests,
/// the answers so far, and the shard-local clock the attempts advance.
struct InFlight {
  core::Algo algo = core::Algo::kBfs;
  uint32_t graph_id = 0;
  /// The running-mean prediction made before execution: the estimator has
  /// seen only earlier dispatches of this algorithm.
  double estimate_ms = 0;
  double t = 0;
  double cycles = 0;  // device cycles over every attempt
  std::vector<Request> pending;
  std::vector<QueryResult> outcomes;
  ResidentSession* rs = nullptr;  // the latest attempt's session
};

/// The autoscaler's ladder thresholds: one level per standby shard, at
/// backlog_ms * 1, * 2, ... (empty when autoscaling is off).
std::vector<double> ScaleThresholds(const ShardedOptions& options) {
  std::vector<double> thresholds;
  if (!options.AutoscaleEnabled()) return thresholds;
  for (uint32_t k = 1; k <= options.shards - options.autoscale.min_shards; ++k) {
    thresholds.push_back(options.autoscale.backlog_ms * k);
  }
  return thresholds;
}

/// One deterministic replay of a trace — the serving layer's only event
/// loop. ServeEngine runs it as a one-shard fleet over a one-graph catalog
/// with its batch window; ShardedEngine runs N shards with no window. Run()
/// drives the parts below from one clock, in this order per tick:
///   autoscale  — grow or shrink the active shard count off the backlog;
///   admission  — route arrivals and drained requests (overload control:
///                SLO shedding, brownout, breaker-aware routing);
///   dispatch   — per free shard: memo, batch forming (fold plus the
///                batch-window hold), execute;
///   recovery   — quarantine, rebuild, drain, breaker, shard death, CPU
///                fallback, inside the dispatch that hit the fault;
///   prestage   — copy-stream staging while a shard computes (async only);
/// and Finalize() folds the replay into the report.
class Replay {
 public:
  Replay(const ShardedOptions& options, std::span<const graph::Csr* const> graphs,
         const std::vector<Request>& trace, double batch_window_ms)
      : options_(options),
        base_(options.base),
        ov_(options.base.overload),
        graphs_(graphs),
        trace_(trace),
        window_ms_(batch_window_ms),
        async_(options.async_dispatch),
        profiling_(options.base.graph.profile),
        naive_(options.base.mode == ServeMode::kNaivePerQuery),
        autoscaling_(options.AutoscaleEnabled()),
        min_active_(autoscaling_ ? options.autoscale.min_shards : options.shards),
        tracer_(options.base.graph.trace_requests),
        sink_{&tracer_, &recorder_},
        // Hysteretic ladders over the router's backlog estimate: level 1
        // acts on bronze, level 2 on silver. Active only under
        // slo_admission.
        brownout_({ov_.brownout_bronze_backlog_ms, ov_.brownout_silver_backlog_ms},
                  ov_.hysteresis),
        shed_ladder_({ov_.shed_bronze_backlog_ms, ov_.shed_silver_backlog_ms},
                     ov_.hysteresis),
        scale_ladder_(ScaleThresholds(options), ov_.hysteresis) {
    ETA_CHECK(!graphs.empty());
    ETA_CHECK(options.shards >= 1);
    ETA_CHECK(options.plant == DagPlant::kNone || async_);
    // Holding a batch window open advances the one replay clock, which
    // would stall every other shard's dispatches: one shard only.
    ETA_CHECK(window_ms_ == 0 || options.shards == 1);
    for (size_t i = 0; i < trace.size(); ++i) {
      if (i > 0) ETA_CHECK(trace[i - 1].arrival_ms <= trace[i].arrival_ms);
      ETA_CHECK(trace[i].graph_id < graphs.size());
    }
    report_.mode = base_.mode;
    report_.async_dispatch = async_;
    report_.total_requests = trace.size();
    report_.results.reserve(trace.size());

    // Flat CPU-fallback bill per graph: (n + m) / throughput, deterministic
    // by design.
    for (const graph::Csr* g : graphs) {
      cpu_query_ms_.push_back(static_cast<double>(g->NumVertices() + g->NumEdges()) /
                              std::max(1.0, base_.cpu_fallback_units_per_ms));
    }
    // Overload control (DESIGN.md §13) defaults off: no budget object,
    // disabled breakers, empty ladders.
    if (ov_.retry_tokens_per_s > 0) {
      retry_budget_ = std::make_shared<core::RetryBudget>(
          core::RetryBudget::Config{ov_.retry_tokens_per_s, ov_.retry_burst});
    }
    shards_.reserve(options.shards);
    for (uint32_t i = 0; i < options.shards; ++i) {
      shards_.emplace_back(base_.queue_capacity, base_.edf);
      Shard& s = shards_.back();
      s.index = i;
      s.active = i < min_active_;
      s.graph_options = base_.graph;
      s.graph_options.recovery.budget = retry_budget_;  // nullptr when unconfigured
      s.breaker = CircuitBreaker(
          CircuitBreaker::Options{ov_.breaker_cooldown_ms, ov_.breaker_backoff});
      if (i < options.shard_faults.size()) {
        s.graph_options.faults = options.shard_faults[i];
      } else if (base_.graph.faults.Enabled()) {
        // De-correlate the shards: same rates, per-shard stream.
        s.graph_options.faults.seed = base_.graph.faults.seed + i;
      }
      s.rebuilds_left = base_.max_session_rebuilds;
      s.stat.shard = i;
      s.streams = std::make_unique<sim::StreamScheduler>(base_.graph.spec);
      if (base_.graph.verify_dag) s.streams->EnableDagLog();
    }
  }

  Replay(const Replay&) = delete;
  Replay& operator=(const Replay&) = delete;

  ServeReport Run() {
    while (true) {
      if (retry_budget_ != nullptr) retry_budget_->Advance(now_);
      // Scale the active fleet off the backlog signal before admitting: an
      // arrival burst that pushed the estimate over threshold last tick is
      // routed across the grown fleet this tick.
      UpdateAutoscale();
      AdmitArrivals();
      RerouteDeferred();
      SweepDeadlines();
      bool dispatched = false;
      for (Shard& s : shards_) {
        if (!s.dead && s.active && s.free_at <= now_ && !s.queue.Empty()) {
          Dispatch(s);
          dispatched = true;
        }
      }
      if (dispatched) continue;
      // Busy shards overlap staging with their in-flight compute.
      for (Shard& s : shards_) MaybePrestage(s);
      const double next_t = NextEventMs();
      if (next_t == kInf) break;
      now_ = std::max(now_, next_t);
    }
    return Finalize();
  }

 private:
  // --- Emission and terminal outcomes ----------------------------------------

  void Emit(EventKind kind, uint64_t id, double at, int16_t shard, double a = 0,
            double b = 0, double c = 0, uint8_t status = 0) {
    trace::TraceEvent e;
    e.request_id = id;
    e.kind = kind;
    e.at_ms = at;
    e.shard = shard;
    e.a = a;
    e.b = b;
    e.c = c;
    e.status = status;
    sink_.Emit(e);
  }

  /// Terminal edge shared by every outcome path.
  void EmitComplete(const QueryResult& q) {
    Emit(EventKind::kComplete, q.id, q.finish_ms, -1, q.LatencyMs(),
         static_cast<double>(q.reached_vertices), static_cast<double>(q.batch_size),
         static_cast<uint8_t>(q.status));
  }

  void CountQuery(core::Algo algo, QueryStatus status) {
    report_.metrics
        .GetCounter("serve_queries_total", "Requests by algorithm and terminal status.",
                    {{"algo", core::AlgoName(algo)}, {"status", QueryStatusName(status)}})
        .Inc();
  }

  void ObserveMs(const char* name, const char* help, core::Algo algo, double ms) {
    report_.metrics
        .GetHistogram(name, help, LatencyBucketsMs(), {{"algo", core::AlgoName(algo)}})
        .Observe(ms);
  }

  void ObserveQueueWait(core::Algo algo, double ms) {
    ObserveMs("serve_queue_wait_ms", "Time from arrival to dispatch (or expiry) per request.",
              algo, ms);
  }

  void Reject(const Request& r) {
    const QueryResult q = OutcomeOf(r, QueryStatus::kRejected);
    report_.results.push_back(q);
    ++report_.rejected;
    CountQuery(r.algo, QueryStatus::kRejected);
    double queued = 0;
    for (const Shard& s : shards_) {
      if (!s.dead) queued += static_cast<double>(s.queue.Depth());
    }
    Emit(EventKind::kReject, r.id, r.arrival_ms, -1, queued,
         static_cast<double>(base_.queue_capacity));
    EmitComplete(q);
  }

  /// Shed at admission: a terminal answer stamped at the decision time —
  /// the request never queues, so no device (or deadline-sweep) work is
  /// wasted on it. report.shedded is tallied from results in
  /// FinalizeOverloadReport.
  void Shed(const Request& r, double when_ms, trace::ShedReason reason, double backlog,
            double target) {
    QueryResult q = OutcomeOf(r, QueryStatus::kShedded);
    q.start_ms = when_ms;
    q.finish_ms = when_ms;
    report_.results.push_back(q);
    CountQuery(r.algo, QueryStatus::kShedded);
    // An unroutable fleet has an infinite backlog estimate; the rendered
    // JSON carries -1 (no Inf literals in JSON).
    Emit(EventKind::kShed, r.id, when_ms, -1, backlog == kInf ? -1 : backlog,
         cost_[r.algo].EstimateMs(), target, static_cast<uint8_t>(reason));
    EmitComplete(q);
  }

  void TimeOut(const Request& r, double when_ms) {
    QueryResult q = OutcomeOf(r, QueryStatus::kTimedOut);
    q.start_ms = when_ms;
    q.finish_ms = when_ms;
    report_.results.push_back(q);
    ++report_.timed_out;
    CountQuery(r.algo, QueryStatus::kTimedOut);
    ObserveQueueWait(r.algo, q.QueueMs());
    Emit(EventKind::kTimeout, r.id, when_ms, -1, r.StartDeadline());
    EmitComplete(q);
  }

  /// Serves `r` on the host CPU reference — the degraded terminal state.
  /// The answer is exact (same labels the device would converge to); only
  /// the latency is worse.
  QueryResult ServeCpu(const Request& r, double start, bool fleet_wide) {
    QueryResult q = OutcomeOf(r, QueryStatus::kDegraded);
    q.reached_vertices = CpuAnswer(*graphs_[r.graph_id], r.algo, r.source);
    q.start_ms = start;
    q.finish_ms = start + cpu_query_ms_[r.graph_id];
    ++report_.degraded;
    if (profiling_) {
      prof::TraceSpan span{"serve/cpu-fallback", std::string(core::AlgoName(r.algo)),
                           q.start_ms, q.finish_ms, {}};
      span.args.push_back({"request", std::to_string(r.id), /*number=*/true});
      report_.trace_spans.push_back(std::move(span));
    }
    Emit(EventKind::kCpuFallback, r.id, start, -1, cpu_query_ms_[r.graph_id],
         fleet_wide ? 1 : 0);
    return q;
  }

  /// Serves `r` on the fleet-wide serial CPU timeline — the terminal
  /// fallback when no shard can take it (all dead, or every queue full on
  /// a re-route).
  void ServeCpuGlobal(const Request& r, double now) {
    cpu_free_at_ = std::max(cpu_free_at_, now);
    const QueryResult q = ServeCpu(r, cpu_free_at_, /*fleet_wide=*/true);
    cpu_free_at_ = q.finish_ms;
    Record(q, cost_[r.algo].EstimateMs(), 0);
  }

  /// Records one completed result with the full metrics treatment (the
  /// cost model sees `estimate_ms`, the prediction made before the
  /// dispatch that produced the result).
  void Record(const QueryResult& q, double estimate_ms, double cycles_per_query) {
    MetricsRegistry& metrics = report_.metrics;
    ++report_.completed;
    report_.reached_total += q.reached_vertices;
    report_.latency_us.Add(ToMicros(q.LatencyMs()));
    report_.queue_wait_us.Add(ToMicros(q.QueueMs()));
    CountQuery(q.algo, q.status);
    ObserveQueueWait(q.algo, q.QueueMs());
    ObserveMs("serve_service_ms", "Time from dispatch to completion per request.", q.algo,
              q.finish_ms - q.start_ms);
    ObserveMs("serve_latency_ms", "End-to-end time from arrival to completion.", q.algo,
              q.LatencyMs());
    // batch_size == 0 means no device launch produced this answer (a memo
    // hit, or the CPU): feeding its latency into the running mean would
    // drag the estimator — and every routing/EDF/shed decision built on
    // it — away from the device's real service time.
    if (q.status == QueryStatus::kOk && q.batch_size > 0) {
      const double actual_ms = q.finish_ms - q.start_ms;
      CostAgg& agg = cost_[q.algo];
      ++agg.queries;
      agg.service_sum += actual_ms;
      agg.abs_err_sum += std::abs(actual_ms - estimate_ms);
      agg.cycles_sum += cycles_per_query;
      metrics
          .GetHistogram("serve_cost_error_ms",
                        "Absolute error of the running-mean service-time estimator.",
                        LatencyBucketsMs(), {{"algo", core::AlgoName(q.algo)}})
          .Observe(std::abs(actual_ms - estimate_ms));
      metrics
          .GetHistogram("serve_query_cycles",
                        "Device cycles attributed per device-served query.",
                        CycleBuckets(), {{"algo", core::AlgoName(q.algo)}})
          .Observe(cycles_per_query);
    }
    if (profiling_ && q.QueueMs() > 0) {
      prof::TraceSpan span{"serve/queue", std::string(core::AlgoName(q.algo)),
                           q.arrival_ms, q.start_ms, {}};
      span.args.push_back({"request", std::to_string(q.id), /*number=*/true});
      report_.trace_spans.push_back(std::move(span));
    }
    max_finish_ = std::max(max_finish_, q.finish_ms);
    EmitComplete(q);
    report_.results.push_back(q);
  }

  // --- Admission and overload control ----------------------------------------

  /// The routing estimate: time until the shard is next free plus its
  /// queued work costed by the running-mean estimator.
  double BacklogMs(const Shard& s, double now) {
    double b = std::max(0.0, s.free_at - now);
    for (const auto& [algo, n] : s.queued_by_algo) {
      b += static_cast<double>(n) * cost_[algo].EstimateMs();
    }
    return b;
  }

  /// The admission controller's fleet backlog estimate: the least estimated
  /// backlog over shards a request could actually route to (kInf when none
  /// is routable). Uses the breaker's side-effect-free preview so the
  /// estimate never consumes a half-open probe slot.
  double MinBacklogMs(double now) {
    double b = kInf;
    for (const Shard& s : shards_) {
      if (s.dead || !s.active || !s.breaker.WouldAllow(now, s.queue.Empty())) continue;
      b = std::min(b, BacklogMs(s, now));
    }
    return b;
  }

  bool FleetDead() const {
    return std::all_of(shards_.begin(), shards_.end(), [](const Shard& s) { return s.dead; });
  }

  /// Load-aware admission. Tries live shards in increasing estimated
  /// backlog — ties broken by queue depth (so a cold estimator, whose mean
  /// is still 0, spreads a burst instead of piling it on one shard), then
  /// by shard index. A breaker-open shard is skipped (and reported via
  /// `breaker_blocked`); a half-open one admits a single probe. Returns the
  /// shard that admitted `r`, or nullptr when every live queue is full (or
  /// the fleet is dead).
  Shard* Route(const Request& r, double now, bool* breaker_blocked = nullptr) {
    std::vector<std::tuple<double, size_t, uint32_t>> order;
    order.reserve(shards_.size());
    for (Shard& s : shards_) {
      if (s.dead || !s.active) continue;
      if (!s.breaker.AllowRoute(now, s.queue.Empty())) {
        if (breaker_blocked != nullptr) *breaker_blocked = true;
        // A breaker-held shard is still a considered candidate (c=0), so
        // the span tree shows why the router looked past it.
        Emit(EventKind::kRouteCandidate, r.id, now, s.TraceIndex(), 0,
             static_cast<double>(s.queue.Depth()));
        continue;
      }
      const double b = BacklogMs(s, now);
      Emit(EventKind::kRouteCandidate, r.id, now, s.TraceIndex(), b,
           static_cast<double>(s.queue.Depth()), /*routable=*/1);
      order.emplace_back(b, s.queue.Depth(), s.index);
    }
    std::sort(order.begin(), order.end());
    for (const auto& [backlog, depth, index] : order) {
      Shard& s = shards_[index];
      // The EDF key (when armed) freezes at admission off the same
      // running-mean estimate the routing decision just used.
      if (!s.queue.Admit(r, cost_[r.algo].EstimateMs())) continue;
      ++s.queued_by_algo[r.algo];
      // A request entering a half-open shard's queue IS the breaker probe;
      // this is where probes are counted (not in AllowRoute, which also
      // answers for candidates the request never routes to).
      s.breaker.OnProbeAdmitted();
      // b = the fleet-wide minimum estimate.
      Emit(EventKind::kRoute, r.id, now, s.TraceIndex(), backlog, std::get<0>(order.front()));
      Emit(EventKind::kAdmit, r.id, now, s.TraceIndex(), static_cast<double>(s.queue.Depth()),
           backlog);
      return &s;
    }
    return nullptr;
  }

  /// Single admission point for fresh arrivals and quarantine re-routes;
  /// returns the admitting shard, or nullptr when the request reached a
  /// terminal state here. Classless requests keep the legacy path (route,
  /// else reject — or the CPU for re-routes); classed requests under
  /// slo_admission go through AdmitClassed.
  Shard* Admit(const Request& r, double at, bool rerouted) {
    if (FleetDead()) {
      ServeCpuGlobal(r, at);
      return nullptr;
    }
    if (ov_.slo_admission && r.slo != SloClass::kNone) return AdmitClassed(r, at);
    // If the breaker (when configured) held every live shard out of
    // routing, degrade instead of rejecting: the queues were not full, the
    // fleet was cooling down.
    bool breaker_blocked = false;
    Shard* target = Route(r, at, &breaker_blocked);
    if (target != nullptr) return target;
    if (rerouted || breaker_blocked) {
      ServeCpuGlobal(r, at);
    } else {
      Reject(r);
    }
    return nullptr;
  }

  /// The admission controller, in precedence order: brownout degrade →
  /// pressure shed → predictive shed → route → class-ordered full-queue
  /// fallback.
  Shard* AdmitClassed(const Request& r, double at) {
    const double b = MinBacklogMs(at);
    const uint32_t brownout_level = brownout_.Update(b, at);
    const uint32_t shed_level = shed_ladder_.Update(b, at);
    const double target = SloTargetMs(ov_, r.slo);
    // (1) Brownout: at level 1 bronze answers come from the CPU fallback,
    // at level 2 silver too — degraded beats shed, shed beats collapse.
    if ((brownout_level >= 1 && r.slo == SloClass::kBronze) ||
        (brownout_level >= 2 && r.slo == SloClass::kSilver)) {
      ++report_.overload.brownout_degraded;
      Emit(EventKind::kBrownout, r.id, at, -1, b == kInf ? -1 : b,
           static_cast<double>(brownout_level), target);
      ServeCpuGlobal(r, at);
      return nullptr;
    }
    if (r.slo != SloClass::kGold) {
      // (2) Pressure shed: class-ordered (bronze first), hysteretic.
      if ((shed_level >= 1 && r.slo == SloClass::kBronze) ||
          (shed_level >= 2 && r.slo == SloClass::kSilver)) {
        Shed(r, at, trace::ShedReason::kPressure, b, target);
        return nullptr;
      }
      // (3) Predictive shed: when even the least-loaded routable shard's
      // queue wait plus the running-mean service estimate lands past the
      // class target, the request provably cannot meet its SLO — shed
      // now, before it wastes a queue slot and device work, instead of
      // timing out later. Strict >: a request that lands exactly on its
      // target is still admitted (the ExpiredAt boundary rule).
      if (b == kInf || at + b + cost_[r.algo].EstimateMs() > r.arrival_ms + target) {
        Shed(r, at, trace::ShedReason::kPredictive, b, target);
        return nullptr;
      }
    }
    Shard* shard = Route(r, at);
    if (shard != nullptr) return shard;
    // (4) Every routable queue is full. Gold is never shed while any shard
    // is alive — it gets a real (if slow) CPU answer; lower classes shed.
    // Shed-vs-reject precedence: a classed request never sees kRejected.
    if (r.slo == SloClass::kGold) {
      ServeCpuGlobal(r, at);
    } else {
      Shed(r, at, trace::ShedReason::kQueueFull, b, target);
    }
    return nullptr;
  }

  /// Admits the trace arrivals the clock has reached.
  void AdmitArrivals() {
    while (next_ < trace_.size() && trace_[next_].arrival_ms <= now_) {
      Admit(trace_[next_], now_, /*rerouted=*/false);
      ++next_;
    }
  }

  /// Re-routes requests drained out of quarantined shards whose fault time
  /// the clock has reached, in drain order.
  void RerouteDeferred() {
    if (deferred_.empty()) return;
    std::vector<Deferred> ready;
    std::vector<Deferred> later;
    for (Deferred& d : deferred_) {
      (d.ready_ms <= now_ ? ready : later).push_back(std::move(d));
    }
    deferred_ = std::move(later);
    std::sort(ready.begin(), ready.end(), [](const Deferred& a, const Deferred& b) {
      return a.ready_ms != b.ready_ms ? a.ready_ms < b.ready_ms : a.order < b.order;
    });
    for (const Deferred& d : ready) {
      Shard* target = Admit(d.request, now_, /*rerouted=*/true);
      if (target != nullptr) {
        ++target->stat.rerouted_in;
        Emit(EventKind::kReroute, d.request.id, now_, target->TraceIndex());
      }
    }
  }

  /// Times out every queued request whose start deadline the clock passed.
  void SweepDeadlines() {
    for (Shard& s : shards_) {
      for (const Request& r : s.queue.ExpireDeadlines(now_)) {
        --s.queued_by_algo[r.algo];
        TimeOut(r, now_);
      }
    }
  }

  /// The next time anything can happen: an arrival, a drained request
  /// becoming routable, or a shard with queued work freeing up. Under
  /// autoscaling every busy active shard wakes the loop when it frees, so
  /// a pending scale-down (busy victim) re-evaluates then.
  double NextEventMs() const {
    double next_t = next_ < trace_.size() ? trace_[next_].arrival_ms : kInf;
    for (const Deferred& d : deferred_) next_t = std::min(next_t, d.ready_ms);
    for (const Shard& s : shards_) {
      if (!s.dead && s.active && s.free_at > now_ && (autoscaling_ || !s.queue.Empty())) {
        next_t = std::min(next_t, s.free_at);
      }
    }
    return next_t;
  }

  // --- Residency --------------------------------------------------------------

  void CaptureDeviceSlice(const Shard& s, ResidentSession& rs, double serve_start,
                          double device_from) {
    if (!profiling_ || rs.session == nullptr) return;
    const double offset = serve_start - device_from;
    // Track "shardN" splits into per-engine threads (compute, copy-h2d,
    // copy-d2h, kernels) in the exporter — the per-stream view of
    // DESIGN.md section 11 rather than one merged device track.
    const std::string track = "shard" + std::to_string(s.index);
    const auto& spans = rs.session->DeviceTimeline().Spans();
    prof::AppendTimelineSpans(std::span<const sim::Span>(spans).subspan(rs.spans_done),
                              track, offset, &report_.trace_spans);
    rs.spans_done = spans.size();
    if (const sim::LaunchProfiler* prof = rs.session->Profiler()) {
      prof::AppendKernelSpans(
          std::span<const sim::KernelProfile>(prof->Launches()).subspan(rs.launches_done),
          track, offset, &report_.trace_spans);
      rs.launches_done = prof->Launches().size();
    }
  }

  /// etaverify: registers this staging epoch's allocations and annotates
  /// the staging copy just enqueued as writing both (it materializes the
  /// topology and the session's device state). No-op — one untaken branch
  /// — when the DAG log is off.
  void RegisterStageAllocs(Shard& s, ResidentSession& rs) {
    if (s.streams == nullptr || !s.streams->DagLogEnabled()) return;
    const std::string name = "shard" + std::to_string(s.index) + "/g" +
                             std::to_string(rs.graph_id) + "#" +
                             std::to_string(s.stage_epochs++);
    rs.topo_alloc = s.streams->RegisterAlloc(name + "/topo");
    rs.state_alloc = s.streams->RegisterAlloc(name + "/state");
    s.streams->AnnotateLastOp({{rs.topo_alloc, true}, {rs.state_alloc, true}});
  }

  /// Tears a session down (running the leakcheck sweep) and folds its
  /// etacheck report into the fleet report.
  void ShutdownSession(GraphSession& session) {
    session.Shutdown();
    if (const sanitizer::SanitizerReport* c = session.CheckReport()) {
      report_.check.Merge(*c);
    }
  }

  /// Retires one resident session, releasing its residency accounting.
  void RetireSession(Shard& s, size_t idx) {
    ResidentSession& rs = s.sessions[idx];
    ShutdownSession(*rs.session);
    s.resident_bytes -= rs.resident_bytes;
    // The memoized whole-graph answers rode on this staging epoch; a
    // rebuilt/re-staged session must recompute them.
    for (auto it = s.memo.begin(); it != s.memo.end();) {
      it = it->first.first == rs.graph_id ? s.memo.erase(it) : std::next(it);
    }
    s.sessions.erase(s.sessions.begin() + static_cast<long>(idx));
  }

  void RetireAllSessions(Shard& s) {
    while (!s.sessions.empty()) RetireSession(s, s.sessions.size() - 1);
  }

  /// Evicts idle least-recently-used residents until `need` more bytes fit
  /// under the budget. A session still busy at time `t` (mid-copy of a
  /// pre-stage, mid-compute of the in-flight dispatch) is skipped: you
  /// cannot unmap a graph an engine is reading. Stops when nothing
  /// evictable is left, so a dispatch may transiently stage over budget
  /// rather than stall (peak_resident_bytes records the honest high-water
  /// mark).
  void EvictFor(Shard& s, uint64_t need, double t) {
    const uint64_t budget = options_.device_mem_budget_bytes;
    if (budget == 0) return;
    while (s.resident_bytes + need > budget && !s.sessions.empty()) {
      size_t victim = s.sessions.size();
      for (size_t i = 0; i < s.sessions.size(); ++i) {
        if (s.sessions[i].busy_until > t) continue;
        if (victim == s.sessions.size() ||
            s.sessions[i].last_used < s.sessions[victim].last_used) {
          victim = i;
        }
      }
      if (victim == s.sessions.size()) break;
      RetireSession(s, victim);
      ++s.stat.evictions;
    }
  }

  /// Builds (stages) a fresh session for `graph_id` on shard `s`. A naive
  /// session serves one `algo` query, so it stages weights only when that
  /// query reads them.
  ResidentSession BuildSession(const Shard& s, uint32_t graph_id, core::Algo algo) {
    const graph::Csr& csr = *graphs_[graph_id];
    ResidentSession rs;
    rs.graph_id = graph_id;
    rs.session = std::make_unique<GraphSession>(
        csr, s.graph_options, naive_ ? core::IsWeighted(algo) : csr.HasWeights());
    rs.last_used = ++lru_tick_;
    return rs;
  }

  /// Books a successfully staged session into the shard's residency.
  ResidentSession& AddResident(Shard& s, ResidentSession rs) {
    rs.resident_bytes = rs.session->DeviceBytesPeak();
    s.resident_bytes += rs.resident_bytes;
    s.stat.peak_resident_bytes = std::max(s.stat.peak_resident_bytes, s.resident_bytes);
    if (!s.staged_graphs.insert(rs.graph_id).second) ++s.stat.reloads;
    s.sessions.push_back(std::move(rs));
    return s.sessions.back();
  }

  /// Returns the shard's resident session for `graph_id`, staging it for
  /// an `algo` dispatch (and evicting LRU residents under the memory
  /// budget) if needed; `t` is the shard-local clock and is charged the
  /// staging time. `dstream` is the dispatch's stream: cold staging is
  /// placed on it as a copy-engine op (so the engine FIFO and the trace
  /// see it), and a hit on a still-staging pre-staged session waits on its
  /// ready event. Returns nullptr when staging itself failed (injected
  /// allocation fault) — the caller's quarantine loop owns the retry
  /// budget.
  ResidentSession* EnsureSession(Shard& s, uint32_t graph_id, core::Algo algo, double& t,
                                 sim::Stream dstream) {
    for (ResidentSession& rs : s.sessions) {
      if (rs.graph_id != graph_id) continue;
      rs.last_used = ++lru_tick_;
      if (rs.ready_event.valid) {
        // Plants (test-only, see ShardedOptions::DagPlant): the serve
        // clock still honours ready_ms below, so the replay's answers
        // and timestamps stay green — only the recorded DAG loses the
        // ordering edge, which is exactly what etaverify must catch.
        if (options_.plant != DagPlant::kDropReadyWait) {
          s.streams->Wait(dstream, rs.ready_event);
        }
        if (options_.plant == DagPlant::kSwapRecordWait && rs.prestage_stream.valid &&
            !s.streams->Recorded(rs.ready_event)) {
          s.streams->Record(rs.prestage_stream, rs.ready_event);
        }
        t = std::max(t, rs.ready_ms);
      }
      return &rs;
    }
    EvictFor(s, core::ResidentGraph::EstimateDeviceBytes(*graphs_[graph_id], s.graph_options),
             t);
    ResidentSession rs = BuildSession(s, graph_id, algo);
    const double load_ms = rs.session->LoadMs();
    // The staging charge is a copy-engine op on the dispatch stream: with
    // idle engines it lands at [t, t + LoadMs], and when a pre-stage still
    // occupies the copy engine the two transfers serialize honestly.
    s.streams->CopyAsync(dstream, sim::StreamOpKind::kCopyH2D, load_ms,
                         "stage-g" + std::to_string(graph_id),
                         /*earliest_ms=*/t, rs.session->DeviceBytesPeak());
    RegisterStageAllocs(s, rs);
    t = s.streams->Ops().back().end_ms;
    if (profiling_) {
      CaptureDeviceSlice(s, rs, t - load_ms, 0.0);  // fresh device clock starts at 0
      prof::TraceSpan span{"serve/session", "session-load", t - load_ms, t, {}};
      span.args.push_back({"shard", std::to_string(s.index), /*number=*/true});
      report_.trace_spans.push_back(std::move(span));
    }
    if (!rs.session->Loaded()) {
      ShutdownSession(*rs.session);
      return nullptr;
    }
    // A naive replay restages per query; its report carries no load time.
    if (!load_recorded_ && !naive_) {
      report_.load_ms = load_ms;
      load_recorded_ = true;
    }
    return &AddResident(s, std::move(rs));
  }

  // --- Dispatch ---------------------------------------------------------------

  /// Dispatches the head of a free shard's queue: a memo answer, or a
  /// batch executed on the device with recovery and CPU fallback behind it.
  void Dispatch(Shard& s) {
    std::optional<Request> head = s.queue.PopNext();
    ETA_CHECK(head.has_value());
    --s.queued_by_algo[head->algo];
    if (ServeFromMemo(s, *head)) return;
    const double window_open = now_;
    InFlight d;
    d.algo = head->algo;
    d.graph_id = head->graph_id;
    d.pending = FormBatch(s, *head);
    const double start = now_;

    report_.batch_occupancy.Add(d.pending.size());
    report_.queue_depth.Add(s.queue.Depth());
    ++report_.batches;
    ++s.stat.dispatches;
    report_.metrics
        .GetHistogram("serve_batch_size", "Requests folded into one dispatch.",
                      BatchSizeBuckets())
        .Observe(static_cast<double>(d.pending.size()));
    report_.metrics
        .GetHistogram("serve_queue_depth", "Queue depth sampled at each dispatch.",
                      QueueDepthBuckets())
        .Observe(static_cast<double>(s.queue.Depth()));
    if (profiling_ && start > window_open) {
      prof::TraceSpan span{"serve/batcher", "batch-window", window_open, start, {}};
      span.args.push_back({"folded", std::to_string(d.pending.size()), /*number=*/true});
      report_.trace_spans.push_back(std::move(span));
    }

    d.estimate_ms = cost_[d.algo].EstimateMs();
    d.t = start;
    const sim::Stream dstream = NewDispatchStream(s);
    d.rs = EnsureSession(s, d.graph_id, d.algo, d.t, dstream);
    if (d.rs != nullptr) Execute(s, d, dstream);
    Recover(s, d);
    Complete(s, d, start);
  }

  /// Whole-graph memoization (DESIGN.md section 15): a CC/PageRank answer
  /// carries no per-source attribution, so an identical request inside the
  /// memo window replays the memoized answer at zero simulated device cost
  /// — the shard clock is not charged and no batch forms, so the loop
  /// immediately dispatches the next queued request at the same instant.
  /// The cost estimator never sees these (batch_size == 0).
  bool ServeFromMemo(Shard& s, const Request& head) {
    if (base_.memo_window_ms <= 0 || !core::IsWholeGraph(head.algo)) return false;
    const auto it = s.memo.find({head.graph_id, head.algo});
    if (it == s.memo.end() || now_ - it->second.computed_at > base_.memo_window_ms) {
      return false;
    }
    QueryResult q = OutcomeOf(head, QueryStatus::kOk);
    q.reached_vertices = it->second.reached;
    q.batch_size = 0;  // no device launch produced this answer
    q.start_ms = now_;
    q.finish_ms = now_;
    ++report_.memo_hits;
    Emit(EventKind::kMemo, head.id, now_, s.TraceIndex(), now_ - it->second.computed_at,
         static_cast<double>(it->second.reached));
    Record(q, cost_[head.algo].EstimateMs(), 0);
    return true;
  }

  /// Forms the batch `head` leads. Batched mode folds queued compatible
  /// requests, up to max_batch and the attribution cap. With a batch
  /// window the dispatch is held: the window ends at min(open +
  /// batch_window_ms, head start deadline), and each arrival at or before
  /// that end advances the clock to its arrival time, is admitted, sweeps
  /// deadlines and folds when compatible — until the batch is full. The
  /// head can never time out here (the window is capped at its deadline);
  /// folded members that expired while the window stayed open time out at
  /// dispatch.
  std::vector<Request> FormBatch(Shard& s, const Request& head) {
    std::vector<Request> batch = {head};
    if (base_.mode != ServeMode::kSessionBatched || !Batchable(head.algo)) return batch;
    const uint32_t limit =
        std::min<uint32_t>(std::max<uint32_t>(base_.max_batch, 1),
                           core::ResidentGraph::kMaxAttributedSources);
    auto fold = [&] {
      if (batch.size() >= limit) return;
      std::vector<Request> more = s.queue.PopCompatible(
          head.algo, head.graph_id, limit - static_cast<uint32_t>(batch.size()));
      for (const Request& r : more) --s.queued_by_algo[r.algo];
      batch.insert(batch.end(), more.begin(), more.end());
    };
    fold();
    const double window_end = std::min(now_ + window_ms_, head.StartDeadline());
    while (batch.size() < limit && next_ < trace_.size() &&
           trace_[next_].arrival_ms <= window_end) {
      now_ = std::max(now_, trace_[next_].arrival_ms);
      AdmitArrivals();
      SweepDeadlines();
      fold();
    }
    std::vector<Request> live;
    live.reserve(batch.size());
    for (const Request& r : batch) {
      if (r.ExpiredAt(now_)) {
        TimeOut(r, now_);
      } else {
        live.push_back(r);
      }
    }
    return live;
  }

  /// Each ExecuteBatch attempt runs as a DAG on a fresh stream — staging
  /// copy (or a wait on the pre-stage event), then the launch waves as
  /// compute ops. Fresh per attempt, because a wave fault fails its stream
  /// for good; the engine FIFOs carry the persistent serialization across
  /// dispatches.
  sim::Stream NewDispatchStream(Shard& s) {
    // The host only reaches this point once it observed the previous
    // dispatch stream complete (free_at gating, or the quarantine loop
    // retrying after the attempt's fault time): record that knowledge as
    // a join, so cross-dispatch accesses are ordered in the DAG log.
    if (s.last_dispatch.valid) s.streams->HostJoin(s.last_dispatch);
    s.last_dispatch = s.streams->CreateStream("shard" + std::to_string(s.index) +
                                              "-dispatch" + std::to_string(s.dispatch_seq++));
    return s.last_dispatch;
  }

  /// One attempt: runs d.pending on d.rs from the shard-local clock,
  /// collects the answers and leaves the unserved remainder pending.
  void Execute(Shard& s, InFlight& d, sim::Stream dstream) {
    ResidentSession& rs = *d.rs;
    const double dispatch_start = d.t;
    const double device_before = rs.session->NowMs();
    const BatchStreamContext ctx{s.streams.get(), dstream, rs.topo_alloc, rs.state_alloc};
    // One kDispatch per request per attempt: a rebuild-then-retry shows up
    // as a second dispatch edge in the span tree.
    for (const Request& r : d.pending) {
      Emit(EventKind::kDispatch, r.id, d.t, s.TraceIndex(),
           static_cast<double>(d.pending.size()), d.t - r.arrival_ms, d.estimate_ms);
    }
    const BatchTraceContext tctx{&sink_, s.TraceIndex(), tracer_.enabled()};
    BatchOutcome out = ExecuteBatch(*rs.session, Batch{d.algo, d.graph_id, d.pending}, d.t,
                                    ctx, &tctx);
    report_.faults.Merge(out.faults);
    s.stat.launch_failures += out.faults.launch_failures;
    d.t += out.duration_ms;
    d.cycles += out.cycles;
    CaptureDeviceSlice(s, rs, dispatch_start, device_before);
    rs.busy_until = std::max(rs.busy_until, d.t);
    // Flight-recorder trigger: the device fell off the bus mid-batch.
    if (out.faults.device_lost && !out.unserved.empty()) {
      const uint64_t victim = out.unserved.front().id;
      report_.blackbox.push_back(
          {"device-lost", d.t, victim, recorder_.Dump("device-lost", d.t, victim)});
    }
    d.pending = std::move(out.unserved);
    for (QueryResult& q : out.results) d.outcomes.push_back(std::move(q));
  }

  /// Finishes a dispatch: whatever the device path could not answer is
  /// served degraded on this shard's timeline (it owned the requests), the
  /// answers are recorded and the memo filled, and the shard is busy until
  /// the shard-local clock. A naive dispatch then retires its device.
  void Complete(Shard& s, InFlight& d, double start) {
    for (const Request& r : d.pending) {
      d.outcomes.push_back(ServeCpu(r, d.t, /*fleet_wide=*/false));
      d.t += cpu_query_ms_[r.graph_id];
      ++s.stat.degraded;
    }
    const auto served_on_device = static_cast<uint64_t>(
        std::count_if(d.outcomes.begin(), d.outcomes.end(),
                      [](const QueryResult& q) { return q.status == QueryStatus::kOk; }));
    const double cycles_per_query =
        served_on_device > 0 ? d.cycles / static_cast<double>(served_on_device) : 0;
    s.stat.served += served_on_device;
    // Memo fill: a device-served whole-graph answer becomes this shard's
    // memoized answer for (graph, algo), stamped at its completion time.
    if (base_.memo_window_ms > 0 && core::IsWholeGraph(d.algo)) {
      for (const QueryResult& q : d.outcomes) {
        if (q.status == QueryStatus::kOk) {
          s.memo[{d.graph_id, d.algo}] = {q.finish_ms, q.reached_vertices};
        }
      }
    }
    for (const QueryResult& q : d.outcomes) Record(q, d.estimate_ms, cycles_per_query);
    s.free_at = d.t;
    s.stat.busy_ms += d.t - start;
    if (naive_) RetireAllSessions(s);
  }

  // --- Recovery ---------------------------------------------------------------

  /// Fault-aware drain: empties a quarantined shard's queue into the
  /// deferred set, to be re-routed to peers once the global clock reaches
  /// the fault time `t`.
  void DrainQueue(Shard& s, double t) {
    while (std::optional<Request> r = s.queue.PopNext()) {
      --s.queued_by_algo[r->algo];
      ++s.stat.rerouted_out;
      deferred_.push_back({t, drain_order_++, *r});
    }
  }

  /// Quarantine-and-rebuild, with the fault-aware drain: the moment the
  /// shard's device is known lost (or staging failed), its queued work
  /// re-routes to peers rather than stalling behind the rebuild; only the
  /// in-flight remainder retries here. Device loss takes the whole device,
  /// so every resident session is torn down, not just the dispatching one.
  void Recover(Shard& s, InFlight& d) {
    while (!d.pending.empty() && s.rebuilds_left > 0 &&
           (d.rs == nullptr || !d.rs->session->Healthy())) {
      // Fleet-wide retry budget: a rebuild re-stages a whole graph, the
      // most load-amplifying recovery step. A dry bucket defers recovery —
      // the shard keeps its (fast-failing) session and its rebuild budget,
      // the remainder of this dispatch degrades to the CPU, and a later
      // dispatch rebuilds once tokens refill.
      if (retry_budget_ != nullptr && !retry_budget_->TryAcquireRebuild()) {
        Emit(EventKind::kRebuild, d.pending.front().id, d.t, s.TraceIndex(),
             static_cast<double>(s.rebuilds_left), 0, /*denied=*/1);
        break;
      }
      DrainQueue(s, d.t);
      --s.rebuilds_left;
      ++s.stat.rebuilds;
      ++report_.session_rebuilds;
      RetireAllSessions(s);
      Emit(EventKind::kRebuild, d.pending.front().id, d.t, s.TraceIndex(),
           static_cast<double>(s.rebuilds_left));
      const sim::Stream dstream = NewDispatchStream(s);
      d.rs = EnsureSession(s, d.graph_id, d.algo, d.t, dstream);
      if (d.rs != nullptr) Execute(s, d, dstream);
    }
    const bool unhealthy = d.rs == nullptr || !d.rs->session->Healthy();
    if (!d.pending.empty() && unhealthy && s.rebuilds_left == 0) {
      // Rebuild budget exhausted: the shard is dead. Drain whatever queued
      // after the last drain and route around it for good.
      s.dead = true;
      s.stat.dead = true;
      // Flight-recorder trigger: a shard just left the fleet for good.
      const uint64_t victim = d.pending.front().id;
      report_.blackbox.push_back(
          {"shard-dead", d.t, victim, recorder_.Dump("shard-dead", d.t, victim)});
      DrainQueue(s, d.t);
      RetireAllSessions(s);
    }
    // Circuit breaker: a dispatch whose device path ended unhealthy opens
    // the shard's breaker (quarantine with cooldown, then a half-open
    // probe); a healthy end closes it — including a successful probe. The
    // open transition drains the queue to peers, mirroring the dead-shard
    // quarantine. No-ops entirely when the breaker is unconfigured.
    if (!s.breaker.Enabled() || s.dead) return;
    if (!unhealthy) {
      s.breaker.OnDispatchSuccess();
      return;
    }
    const uint64_t opens_before = s.breaker.opens();
    s.breaker.OnDispatchFailure(d.t);
    // Flight-recorder trigger: dump once per open transition (not on every
    // failed dispatch while already open).
    if (s.breaker.opens() > opens_before) {
      const uint64_t victim = d.pending.empty() ? 0 : d.pending.front().id;
      report_.blackbox.push_back(
          {"breaker-open", d.t, victim, recorder_.Dump("breaker-open", d.t, victim)});
    }
    DrainQueue(s, d.t);
  }

  // --- Prestage ---------------------------------------------------------------

  /// Prestaging (async_dispatch): while a shard's compute engine is busy
  /// (free_at in the future), stage the next queued graph on its own copy
  /// stream — the session build plus the hoisted topology prefetch
  /// (GraphSession::PrefetchTopology) run now, overlapping the in-flight
  /// dispatch's compute, and the consuming dispatch waits on the recorded
  /// ready event instead of paying the staging serially. At most one
  /// pre-stage triggers per busy window (once inserted, the head graph is
  /// resident and the trigger condition goes false). On a single-graph
  /// catalog the head graph is always resident, so this never fires and
  /// the replay stays byte-identical to one with prestaging off. A naive
  /// dispatch stages its own fresh device, so nothing is pre-staged.
  void MaybePrestage(Shard& s) {
    if (!async_ || naive_ || s.dead || !s.active || s.queue.Empty()) return;
    if (s.free_at <= now_) return;            // idle shards just dispatch
    if (now_ < s.no_prestage_until) return;   // backing off a failed build
    const std::optional<Request> head = s.queue.PeekNext();
    if (!head.has_value()) return;
    const uint32_t graph_id = head->graph_id;
    for (const ResidentSession& rs : s.sessions) {
      if (rs.graph_id == graph_id) return;   // resident (or already staging)
    }
    if (!PrestageFits(s, graph_id)) return;
    ResidentSession rs = BuildSession(s, graph_id, head->algo);
    // Hoist the first-query topology prefetch into the staging op, so the
    // whole load lands on the copy engine ahead of the dispatch (answers
    // are unaffected — the first query simply finds the pages resident).
    rs.session->PrefetchTopology();
    if (!rs.session->Loaded()) {
      // Injected staging fault: drop the build and sit out this busy
      // window; the consuming dispatch will stage (and retry) under its
      // own quarantine budget.
      ShutdownSession(*rs.session);
      s.no_prestage_until = s.free_at;
      return;
    }
    rs.resident_bytes = rs.session->DeviceBytesPeak();
    const double stage_ms = rs.session->NowMs();  // load + hoisted prefetch
    const std::string stage = "prestage-g" + std::to_string(graph_id);
    const std::string shard_name = "shard" + std::to_string(s.index) + "-";
    const sim::Stream cstream = s.streams->CreateStream(shard_name + stage);
    s.streams->CopyAsync(cstream, sim::StreamOpKind::kCopyH2D, stage_ms, stage,
                         /*earliest_ms=*/now_, rs.resident_bytes);
    RegisterStageAllocs(s, rs);
    rs.prestage_stream = cstream;
    // Copy, not reference: Record() appends to the same ops vector and a
    // reallocation would invalidate a reference taken here.
    const sim::StreamOp op = s.streams->Ops().back();
    rs.ready_event = s.streams->CreateEvent();
    if (options_.plant != DagPlant::kSwapRecordWait) {
      // kSwapRecordWait (test-only): the record the consuming dispatch
      // needs is omitted here and issued — too late — by the consumer.
      s.streams->Record(cstream, rs.ready_event);
    }
    if (options_.plant == DagPlant::kDoublePrestage) {
      // kDoublePrestage (test-only): a duplicate zero-duration staging
      // copy of the same buffer on its own stream, ordered by nothing —
      // timing is untouched (the copy engine tail cannot move backward),
      // but the DAG now carries an unordered write-write pair.
      const sim::Stream dup = s.streams->CreateStream(shard_name + stage + "-dup");
      s.streams->CopyAsync(dup, sim::StreamOpKind::kCopyH2D, 0.0, stage + "-dup",
                           /*earliest_ms=*/now_, 0);
      s.streams->AnnotateLastOp({{rs.topo_alloc, true}});
    }
    rs.ready_ms = op.end_ms;
    rs.busy_until = op.end_ms;  // mid-copy until then; not evictable
    ++s.stat.prestages;
    s.stat.prestage_ms += stage_ms;
    if (profiling_) {
      CaptureDeviceSlice(s, rs, op.start_ms, 0.0);
      prof::TraceSpan span{"serve/session", "prestage", op.start_ms, op.end_ms, {}};
      span.args.push_back({"shard", std::to_string(s.index), /*number=*/true});
      span.args.push_back({"graph", std::to_string(graph_id), /*number=*/true});
      report_.trace_spans.push_back(std::move(span));
    }
    AddResident(s, std::move(rs));
  }

  /// Whether a pre-stage of `graph_id` fits the shard's memory budget,
  /// evicting idle residents to make room when it does. Feasibility first:
  /// only idle sessions are evictable, and unlike a dispatch (which must
  /// stage), a pre-stage that cannot fit simply does not happen — no point
  /// evicting graphs it cannot use.
  bool PrestageFits(Shard& s, uint32_t graph_id) {
    const uint64_t budget = options_.device_mem_budget_bytes;
    if (budget == 0) return true;
    const uint64_t need =
        core::ResidentGraph::EstimateDeviceBytes(*graphs_[graph_id], s.graph_options);
    uint64_t evictable = 0;
    bool all_evictable = true;
    for (const ResidentSession& rs : s.sessions) {
      if (rs.busy_until > now_) {
        all_evictable = false;
      } else {
        evictable += rs.resident_bytes;
      }
    }
    const uint64_t kept = s.resident_bytes - evictable;
    if (kept + need > budget && !(all_evictable && kept == 0)) return false;
    EvictFor(s, need, now_);
    return true;
  }

  // --- Autoscale --------------------------------------------------------------

  /// Backlog autoscaling (DESIGN.md section 15), evaluated at the top of
  /// every event-loop tick. The signal is the mean backlog estimate over
  /// active live shards (kInf when every active shard is dead — which
  /// forces the ladder to its top level and activates the standbys).
  /// Scale-up activates the lowest-index standby immediately; scale-down
  /// deactivates the highest-index active shard only once it is idle,
  /// draining any queued requests to peers — so no request is ever lost to
  /// a scale decision. One scale event per tick that changes the active
  /// count, in active-shard-count units on the simulated clock.
  void UpdateAutoscale() {
    if (!autoscaling_) return;
    double sum = 0;
    uint32_t active_count = 0;
    for (const Shard& s : shards_) {
      if (!s.active || s.dead) continue;
      sum += BacklogMs(s, now_);
      ++active_count;
    }
    const double signal =
        active_count == 0 ? kInf : sum / static_cast<double>(active_count);
    const uint32_t target = min_active_ + scale_ladder_.Update(signal, now_);
    const uint32_t before = active_count;
    while (active_count < target) {
      auto standby = std::find_if(shards_.begin(), shards_.end(),
                                  [](const Shard& s) { return !s.active && !s.dead; });
      if (standby == shards_.end()) break;  // no standby left to wake
      standby->active = true;
      ++active_count;
    }
    while (active_count > target && active_count > min_active_) {
      Shard* victim = nullptr;
      for (Shard& s : shards_) {
        if (s.active && !s.dead) victim = &s;  // highest index wins
      }
      if (victim == nullptr || victim->free_at > now_) break;  // busy: retry next tick
      DrainQueue(*victim, now_);
      victim->active = false;
      --active_count;
    }
    if (active_count != before) {
      scale_events_.push_back({now_, before, active_count});
      Emit(EventKind::kScale, trace::kFleetEventId, now_, -1, static_cast<double>(before),
           static_cast<double>(active_count), signal == kInf ? -1 : signal);
    }
  }

  // --- Finalize ---------------------------------------------------------------

  ServeReport Finalize() {
    MetricsRegistry& metrics = report_.metrics;
    report_.makespan_ms = std::max(max_finish_, now_);
    for (Shard& s : shards_) {
      RetireAllSessions(s);
      s.stat.overlap_ms = s.streams->OverlapMs();
      if (s.streams->DagLogEnabled()) {
        // Returning the report is the host's device-wide synchronize:
        // every stream's tail is observed here, so none is an orphan.
        s.streams->HostJoinAll();
        report_.verify.Merge(verify::VerifyDag(*s.streams));
      }
    }
    for (const auto& [algo, agg] : cost_) {
      if (agg.queries == 0) continue;
      const double n = static_cast<double>(agg.queries);
      report_.cost_observations.push_back({core::AlgoName(algo), agg.queries,
                                           agg.service_sum / n, agg.abs_err_sum / n,
                                           agg.cycles_sum / n});
    }
    metrics
        .GetCounter("serve_session_rebuilds_total",
                    "Unhealthy sessions torn down and re-staged.")
        .Inc(static_cast<double>(report_.session_rebuilds));
    metrics
        .GetCounter("serve_fault_backoff_ms_total",
                    "Simulated time burned in fault-recovery backoff.")
        .Inc(report_.faults.backoff_ms);
    metrics
        .GetGauge("serve_degradation_ratio",
                  "Fraction of completed requests served by the CPU fallback.")
        .Set(report_.completed > 0 ? static_cast<double>(report_.degraded) /
                                         static_cast<double>(report_.completed)
                                   : 0);
    metrics.GetGauge("serve_makespan_ms", "Simulated time from t=0 to last completion.")
        .Set(report_.makespan_ms);
    metrics.GetGauge("serve_load_ms", "Graph staging time of the first session.")
        .Set(report_.load_ms);
    FinalizeShards();
    std::sort(report_.results.begin(), report_.results.end(),
              [](const QueryResult& a, const QueryResult& b) { return a.id < b.id; });
    report_.edf = base_.edf;
    if (base_.memo_window_ms > 0) {
      report_.memo_configured = true;
      metrics
          .GetCounter("serve_memo_hits",
                      "Whole-graph requests answered from the memo table.")
          .Inc(static_cast<double>(report_.memo_hits));
    }
    if (autoscaling_) {
      report_.autoscale_configured = true;
      const auto active_final = static_cast<uint32_t>(
          std::count_if(shards_.begin(), shards_.end(),
                        [](const Shard& s) { return s.active && !s.dead; }));
      report_.shards_active = active_final;
      report_.scale_events = scale_events_;
      metrics
          .GetCounter("serve_scale_events_total",
                      "Autoscaler transitions of the active shard count.")
          .Inc(static_cast<double>(scale_events_.size()));
      metrics
          .GetGauge("serve_shards_active", "Active (non-standby) shards at end of replay.")
          .Set(static_cast<double>(active_final));
    }
    OverloadStats& o = report_.overload;
    o.brownout_level = brownout_.level();
    o.brownout_max_level = brownout_.max_level();
    o.brownout_transitions = brownout_.transitions();
    for (const Shard& s : shards_) {
      o.breaker_opens += s.breaker.opens();
      o.breaker_probes += s.breaker.probes();
      o.breaker_probe_failures += s.breaker.probe_failures();
    }
    FinalizeOverloadReport(ov_, retry_budget_.get(), &report_);
    EvaluateSloAlerts(ov_, base_.slo_alerts, &report_);
    FinalizeTraceReport(base_, tracer_, recorder_, report_.makespan_ms, &report_);
    ETA_CHECK(report_.results.size() == trace_.size());
    return std::move(report_);
  }

  /// Per-shard accounting: the serve_shard_* families and report.shard_stats.
  void FinalizeShards() {
    MetricsRegistry& metrics = report_.metrics;
    metrics.GetGauge("serve_shards", "Shards in the fleet.")
        .Set(static_cast<double>(shards_.size()));
    for (const Shard& s : shards_) {
      const MetricLabels labels = {{"shard", std::to_string(s.index)}};
      auto count = [&](const char* name, const char* help, uint64_t value) {
        metrics.GetCounter(name, help, labels).Inc(static_cast<double>(value));
      };
      count("serve_shard_dispatches_total", "Batches dispatched per shard.",
            s.stat.dispatches);
      count("serve_shard_launch_failures_total", "Injected launch faults observed per shard.",
            s.stat.launch_failures);
      count("serve_shard_rerouted_total",
            "Requests drained to healthy peers per quarantined shard.", s.stat.rerouted_out);
      count("serve_shard_rebuilds_total", "Session rebuilds per shard.", s.stat.rebuilds);
      count("serve_shard_evictions_total",
            "Resident graphs evicted under the residency budget per shard.", s.stat.evictions);
      count("serve_shard_reloads_total", "Re-stagings of a previously staged graph per shard.",
            s.stat.reloads);
      metrics.GetGauge("serve_shard_busy_ms", "Simulated busy time per shard.", labels)
          .Set(s.stat.busy_ms);
      if (async_) {
        // Emitted only with prestaging on, like the report's columns.
        count("serve_shard_prestages_total",
              "Sessions pre-staged on the copy stream per shard.", s.stat.prestages);
        metrics
            .GetGauge("serve_shard_overlap_ms",
                      "Copy/compute engine overlap achieved per shard.", labels)
            .Set(s.stat.overlap_ms);
      }
      report_.shard_stats.push_back(s.stat);
    }
  }

  const ShardedOptions& options_;
  const ServeOptions& base_;
  const OverloadOptions& ov_;
  std::span<const graph::Csr* const> graphs_;
  const std::vector<Request>& trace_;
  const double window_ms_;
  const bool async_;
  const bool profiling_;
  const bool naive_;
  const bool autoscaling_;
  const uint32_t min_active_;

  ServeReport report_;
  // etatrace (DESIGN.md section 14): the flight recorder runs always (a
  // bounded host-side ring); the per-request tracer only when
  // trace_requests armed it. Both feed off the same emission points.
  trace::RequestTracer tracer_;
  trace::FlightRecorder recorder_;
  trace::EventSink sink_;
  std::map<core::Algo, CostAgg> cost_;  // deterministic enum-keyed order
  std::vector<double> cpu_query_ms_;    // per catalog graph
  std::shared_ptr<core::RetryBudget> retry_budget_;
  HysteresisLadder brownout_;
  HysteresisLadder shed_ladder_;
  HysteresisLadder scale_ladder_;
  std::vector<LadderTransition> scale_events_;
  std::vector<Shard> shards_;
  std::vector<Deferred> deferred_;
  uint64_t lru_tick_ = 0;
  uint64_t drain_order_ = 0;
  double cpu_free_at_ = 0;  // serial timeline of the fleet-wide CPU path
  double max_finish_ = 0;
  bool load_recorded_ = false;
  size_t next_ = 0;  // first trace entry that has not yet arrived
  double now_ = 0;
};

}  // namespace

ServeReport ServeEngine::Serve(const graph::Csr& csr,
                               const std::vector<Request>& trace) const {
  ShardedOptions fleet;
  fleet.base = options_;
  fleet.shards = 1;
  const graph::Csr* catalog[] = {&csr};
  return Replay(fleet, catalog, trace, options_.batch_window_ms).Run();
}

ServeReport ShardedEngine::Serve(const graph::Csr& csr,
                                 const std::vector<Request>& trace) const {
  const graph::Csr* catalog[] = {&csr};
  return ServeMany(catalog, trace);
}

ServeReport ShardedEngine::ServeMany(std::span<const graph::Csr* const> graphs,
                                     const std::vector<Request>& trace) const {
  return Replay(options_, graphs, trace, /*batch_window_ms=*/0).Run();
}

}  // namespace eta::serve

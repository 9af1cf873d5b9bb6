#include "serve/batcher.hpp"

#include <algorithm>
#include <functional>
#include <string>
#include <utility>

#include "util/check.hpp"

namespace eta::serve {

bool Batchable(core::Algo algo) {
  // Multi-source folding needs per-source attribution, which only the
  // frontier traversals with attributed waves provide (SSWP's widest-path
  // semiring lacks attributed multi-source support; whole-graph CC/PageRank
  // answers have no per-source dimension at all — they go through the
  // sequential RunQuery path, where the memo table is their amortization
  // lever instead).
  return algo == core::Algo::kBfs || algo == core::Algo::kSssp;
}

namespace {

/// The launch waves of one ExecuteBatch call, each a compute op on the
/// caller's stream: the functional run happens at enqueue, and the wave's
/// timestamps come from the scheduled op.
class WaveRunner {
 public:
  WaveRunner(const Batch& batch, double start_ms, const BatchStreamContext& ctx,
             const BatchTraceContext* tctx)
      : batch_(batch),
        start_ms_(start_ms),
        t_(start_ms),
        ctx_(ctx),
        sink_(tctx != nullptr ? tctx->sink : nullptr),
        shard_(tctx != nullptr ? tctx->shard : int16_t{-1}),
        tag_ops_(tctx != nullptr && tctx->tag_ops) {}

  /// The batch clock: where the last wave ended.
  double Now() const { return t_; }

  /// Runs one wave; returns false when the stream had already failed and
  /// the wave was cancelled without running.
  bool Run(std::string label, const std::function<core::RunReport()>& run,
           core::RunReport* report, double* wave_start) {
    const sim::StreamOpStatus status = ctx_.streams->LaunchAsync(
        ctx_.stream, std::move(label),
        [&](double) {
          *report = run();
          return sim::StreamScheduler::LaunchOutcome{report->query_ms,
                                                     report->DeviceFailed()};
        },
        /*earliest_ms=*/start_ms_);
    if (status != sim::StreamOpStatus::kCancelled) {
      // Failed waves still ran (the fault struck mid-launch), so they
      // accessed the session's buffers like any other wave.
      ctx_.streams->AnnotateLastOp({{ctx_.topo_alloc, false}, {ctx_.state_alloc, true}});
    }
    const sim::StreamOp& op = ctx_.streams->Ops().back();
    *wave_start = op.start_ms;
    // A cancelled op is stamped at the stream's fault time, which may
    // precede `t`; never move the batch clock backwards.
    t_ = std::max(t_, op.end_ms);
    return status != sim::StreamOpStatus::kCancelled;
  }

  /// Surfaces a wave that will never run as a cancelled op on the schedule
  /// (zero duration at the fault time) instead of silently dropping it.
  void Cancel(const std::string& label) {
    ctx_.streams->LaunchAsync(
        ctx_.stream, label, [](double) { return sim::StreamScheduler::LaunchOutcome{}; },
        /*earliest_ms=*/start_ms_);
  }

  /// Books a wave that ran over requests [begin, begin + count): its fault
  /// and cycle counts, the stream-op tag, and its trace events.
  void Ran(size_t begin, size_t count, double wave_start, const core::RunReport& report,
           BatchOutcome* out) {
    const auto op_id = static_cast<int64_t>(ctx_.streams->Ops().size()) - 1;
    const uint64_t head_id = batch_.requests[begin].id;
    out->faults.Merge(report.faults);
    out->cycles += report.query_counters.elapsed_cycles;
    if (tag_ops_) ctx_.streams->TagLastOp(head_id);
    EmitWave(begin, count, wave_start, report.DeviceFailed(), op_id);
    EmitFaults(report, head_id, wave_start);
  }

 private:
  /// One kWave event per request the wave carried; the op id links the
  /// span tree to the stream-DAG node etaverify reasons about.
  void EmitWave(size_t begin, size_t count, double wave_start, bool failed, int64_t op_id) {
    if (sink_ == nullptr) return;
    for (size_t i = begin; i < begin + count; ++i) {
      trace::TraceEvent e;
      e.request_id = batch_.requests[i].id;
      e.kind = trace::EventKind::kWave;
      e.at_ms = wave_start;
      e.a = static_cast<double>(count);
      e.b = t_ - wave_start;
      e.c = failed ? 1 : 0;
      e.op_id = op_id;
      e.shard = shard_;
      sink_->Emit(e);
    }
  }

  /// Surfaces the retry loop's failures: per-attempt records when the core
  /// layer collected them (trace_requests on), otherwise one aggregate
  /// event so the always-on flight recorder still sees the fault.
  void EmitFaults(const core::RunReport& report, uint64_t head_id, double at_ms) {
    if (sink_ == nullptr || report.faults.launch_failures == 0) return;
    if (!report.attempts.empty()) {
      for (const core::AttemptRecord& rec : report.attempts) {
        if (rec.succeeded) continue;
        trace::TraceEvent e;
        e.request_id = head_id;
        e.kind = trace::EventKind::kFault;
        e.status = rec.fault;
        e.at_ms = at_ms;
        e.a = static_cast<double>(rec.attempt);
        e.b = rec.backoff_ms;
        e.c = rec.budget_denied ? 1 : 0;
        e.shard = shard_;
        sink_->Emit(e);
      }
      return;
    }
    trace::TraceEvent e;
    e.request_id = head_id;
    e.kind = trace::EventKind::kFault;
    e.status = report.faults.device_lost ? 3 : (report.faults.ecc_uncorrectable > 0 ? 1 : 2);
    e.at_ms = at_ms;
    e.a = static_cast<double>(report.faults.launch_failures);
    e.b = report.faults.backoff_ms;
    e.c = report.faults.exhausted ? 1 : 0;
    e.shard = shard_;
    sink_->Emit(e);
  }

  const Batch& batch_;
  const double start_ms_;
  double t_;
  const BatchStreamContext& ctx_;
  trace::EventSink* sink_;
  const int16_t shard_;
  const bool tag_ops_;
};

}  // namespace

BatchOutcome ExecuteBatch(GraphSession& session, const Batch& batch, double start_ms,
                          const BatchStreamContext& ctx, const BatchTraceContext* tctx) {
  ETA_CHECK(!batch.requests.empty());
  ETA_CHECK(ctx.streams != nullptr);
  ETA_CHECK(ctx.stream.valid);
  for (const Request& r : batch.requests) ETA_CHECK(r.algo == batch.algo);
  BatchOutcome out;
  out.results.reserve(batch.requests.size());
  WaveRunner waves(batch, start_ms, ctx, tctx);

  // A wave is one attributed launch of up to kMaxAttributedSources folded
  // sources (the attribution mask's width), or one request on its own.
  const size_t n = batch.requests.size();
  const bool fold = n > 1 && Batchable(batch.algo);
  const size_t width = fold ? core::ResidentGraph::kMaxAttributedSources : 1;
  const std::string label = std::string(core::AlgoName(batch.algo)) + (fold ? "-wave" : "");
  std::vector<graph::VertexId> sources;
  for (size_t begin = 0; begin < n; begin += width) {
    const size_t count = std::min(width, n - begin);
    sources.clear();
    for (size_t i = begin; i < begin + count; ++i) sources.push_back(batch.requests[i].source);
    core::RunReport report;
    double wave_start = waves.Now();
    const bool ran = waves.Run(
        label,
        [&] {
          return fold ? session.RunBatch(batch.algo, sources)
                      : session.RunQuery(batch.algo, sources.front());
        },
        &report, &wave_start);
    if (ran) waves.Ran(begin, count, wave_start, report, &out);
    if (!ran || report.DeviceFailed()) {
      // All-or-nothing per wave: a launch that died answers nobody, and a
      // session that just exhausted its retry budget (or lost its device)
      // is not a place to keep dispatching — this wave and everything
      // behind it goes back to the engine.
      out.unserved.assign(batch.requests.begin() + static_cast<long>(begin),
                          batch.requests.end());
      out.device_failed = true;
      for (size_t b = begin + width; b < n; b += width) waves.Cancel(label);
      break;
    }
    if (fold) ETA_CHECK(report.per_source_reached.size() == count);
    for (size_t i = 0; i < count; ++i) {
      QueryResult q = OutcomeOf(batch.requests[begin + i], QueryStatus::kOk);
      q.reached_vertices = fold ? report.per_source_reached[i] : report.activated;
      q.batch_size = static_cast<uint32_t>(count);
      q.start_ms = wave_start;
      q.finish_ms = waves.Now();
      out.results.push_back(q);
    }
  }
  out.duration_ms = waves.Now() - start_ms;
  return out;
}

}  // namespace eta::serve

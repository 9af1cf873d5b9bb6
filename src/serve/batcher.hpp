// Multi-source batching: fold compatible requests into one launch, then
// demultiplex per-request results.
//
// Requests are compatible when they run the same batchable algorithm (BFS
// or SSSP — the traversals whose multi-source merge plus per-source reach
// attribution reproduce every request's individual answer exactly). A
// folded batch executes as attributed RunMultiSource launch waves: topology
// reads and frontier work are shared across the requests, and each
// request's reached-vertex count is read back from the per-source
// attribution masks, bit-identical to running it alone. Anything that
// cannot be folded — SSWP, or a batch of one — runs one request per wave,
// so batching is purely an optimization, never a semantic change. Every
// wave is a compute op on the caller's stream (BatchStreamContext).
#pragma once

#include <vector>

#include "serve/session.hpp"
#include "serve/types.hpp"
#include "sim/stream.hpp"
#include "trace/sink.hpp"

namespace eta::serve {

/// A set of admitted requests dispatched as one unit. All requests share
/// one algorithm and one target graph.
struct Batch {
  core::Algo algo = core::Algo::kBfs;
  uint32_t graph_id = 0;
  std::vector<Request> requests;
};

/// True if `algo` queries may be folded into one multi-source launch.
bool Batchable(core::Algo algo);

/// What one dispatch did. A device failure (retry budget exhausted, device
/// lost, or mid-query OOM) is an outcome, not a crash: the requests the
/// device could not answer come back in `unserved` for the engine to retry
/// on a rebuilt session or hand to the CPU fallback.
struct BatchOutcome {
  /// Per-request results for everything the device answered, in request
  /// order.
  std::vector<QueryResult> results;
  /// Requests left unanswered by a device failure, in request order.
  std::vector<Request> unserved;
  /// Fault/recovery counters accumulated across the batch's runs (including
  /// failed ones).
  core::FaultStats faults;
  /// Total simulated time the dispatch consumed — failed attempts, retries,
  /// and backoff included.
  double duration_ms = 0;
  /// Device cycles this dispatch consumed (sum of the runs'
  /// query_counters.elapsed_cycles) — the actual-cost observation the
  /// engine's cost model records per served query.
  double cycles = 0;
  /// A run came back DeviceFailed(); `unserved` is non-empty.
  bool device_failed = false;
};

/// Stream dispatch context (DESIGN.md section 11). ExecuteBatch enqueues
/// every launch wave as a compute op on `stream` of `streams`: the wave's
/// start honours the stream tail (anything the caller enqueued first — a
/// staging copy, a wait on a pre-stage event) and the compute engine's
/// FIFO, and its timestamps come from the scheduled op. The functional
/// execution (RunBatch/RunQuery, counters, sanitizer events, fault
/// decisions) happens at enqueue. A wave fault fails the stream, and the
/// remaining waves surface as cancelled ops (zero duration, work never
/// run) rather than silently disappearing from the schedule.
struct BatchStreamContext {
  sim::StreamScheduler* streams = nullptr;
  sim::Stream stream{};
  /// etaverify allocation handles of the session being dispatched
  /// (kNoAlloc when the DAG log is off): each wave that actually runs is
  /// annotated as reading the staged topology and writing the session's
  /// per-query state; cancelled waves never ran and carry no accesses.
  uint32_t topo_alloc = sim::DagAccess::kNoAlloc;
  uint32_t state_alloc = sim::DagAccess::kNoAlloc;
};

/// etatrace emission context (DESIGN.md section 14). When passed, every
/// launch wave emits one kWave event per folded request (op_id = the
/// wave's stream-DAG op index) and the retry loop's failures surface as
/// kFault events attributed to the wave's head request. With tag_ops set
/// (trace_requests on), launch waves are additionally tagged with the head request id via
/// sim::StreamScheduler::TagLastOp so etaverify findings can name their
/// victim request. All host-side bookkeeping: the simulated schedule is
/// untouched.
struct BatchTraceContext {
  trace::EventSink* sink = nullptr;
  int16_t shard = -1;   // stamped into every emitted event
  bool tag_ops = false;
};

/// Executes `batch` on `session` starting at simulated time `start_ms`, as
/// launch waves on `ctx`'s stream. A multi-request batch of a batchable
/// algorithm folds into attributed multi-source waves of at most
/// core::ResidentGraph::kMaxAttributedSources (the 32-bit attribution mask)
/// and is demultiplexed — each wave has its own start/finish stamps and
/// batch_size, so a 64-request dispatch answers bit-identically to two
/// 32-request dispatches. Anything else runs one request per wave (the
/// correctness fallback). On a device failure the failed wave's requests
/// and everything behind it are returned unserved rather than half-answered.
BatchOutcome ExecuteBatch(GraphSession& session, const Batch& batch, double start_ms,
                          const BatchStreamContext& ctx,
                          const BatchTraceContext* tctx = nullptr);

}  // namespace eta::serve

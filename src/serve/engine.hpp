// ServeEngine — deterministic discrete-event replay of a query trace
// against one graph.
//
// The single engine is the serving layer's one event loop (router.cpp,
// DESIGN.md section 10) run as a one-shard fleet over a one-graph catalog.
// It admits requests as the clock reaches their arrival times (rejecting
// on queue overflow), sweeps out requests whose queueing deadline has
// passed, and dispatches the rest in priority/FIFO order. It is the only
// entry point that honours ServeOptions::batch_window_ms: in
// kSessionBatched mode a dispatch holds its forming batch open until
// min(open + batch_window_ms, head start deadline); every arrival at or
// before that end advances the clock to its arrival, is admitted, sweeps
// deadlines and folds when compatible, until the batch reaches
// min(max_batch, kMaxAttributedSources). The folded batch runs as one
// attributed multi-source launch. kNaivePerQuery stages a fresh session
// per dispatch, folds nothing, and retires it afterwards.
//
// Everything else is the fleet's: memo, overload control (SLO admission,
// shed and brownout ladders, retry budget, breaker), and fault tolerance
// (DESIGN.md section 8) — an unhealthy session is quarantined (its queue
// drained and re-admitted at the fault time), rebuilt up to
// max_session_rebuilds times, and requests the device path cannot answer
// are served by the CPU reference as QueryStatus::kDegraded; a spent
// rebuild budget makes the shard dead and sends later requests to the
// fleet-wide CPU timeline. With batch_window_ms = 0 the report is
// byte-identical to ShardedEngine with one shard.
#pragma once

#include <vector>

#include "graph/csr.hpp"
#include "serve/report.hpp"
#include "serve/types.hpp"

namespace eta::serve {

class ServeEngine {
 public:
  explicit ServeEngine(ServeOptions options = {}) : options_(options) {}

  const ServeOptions& Options() const { return options_; }

  /// Replays `trace` (must be sorted by arrival_ms) against `csr` and
  /// returns the fleet report. The per-request outcomes are in
  /// report.results, sorted by request id.
  ServeReport Serve(const graph::Csr& csr, const std::vector<Request>& trace) const;

 private:
  ServeOptions options_;
};

}  // namespace eta::serve

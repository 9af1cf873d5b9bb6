// The benchmark's three workloads (README.md says why each exists).
//
//   paper-web      Table III cells on web stand-ins (uk2005, sk2005) with
//                  device memory scaled so the O.O.M pattern holds
//   serve-session  single-session ServeEngine, batched, open-loop Poisson
//   serve-fleet    4-shard async ShardedEngine over a 4-graph catalog under
//                  a residency budget, bursty arrivals, overload control on
//
// A workload builds its inputs from the seed in Setup(), runs its work in
// RunPass() (the timed phase; a serve workload cycles through its arrival
// traces, one replay per pass), and exposes the simulated values of
// its latest cycle as digest lines: one line per operation (a Table III cell
// or a served request), so two cycles, two runs, or a traced and an untraced
// run can be compared value by value.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/csr.hpp"
#include "spans.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Outcome of checking one cycle's answers against the CPU reference.
struct Verification {
  uint64_t checked = 0;     // operations whose answer was compared
  uint64_t mismatched = 0;  // answers that differ from the reference
  uint64_t refused = 0;     // requests rejected, shed or timed out
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the inputs (datasets, sources, arrival trace) from the seed.
  /// Called several times so set-up time can be reported as a median; each
  /// call rebuilds the inputs from scratch.
  virtual void Setup(SpanRecorder& spans) = 0;
  /// The timed work: every framework/serve call plus report rendering.
  virtual void RunPass(SpanRecorder& spans) = 0;
  /// Passes in one cycle over the inputs: a serve workload replays one of
  /// its arrival traces per pass, in turn.
  virtual uint64_t CyclePasses() const { return 1; }

  /// Operations one pass performs (cells or requests).
  virtual uint64_t OpsPerPass() const = 0;
  /// One line per simulated operation of the latest cycle, then one line per
  /// workload-level simulated value. Host times never appear here.
  virtual std::vector<std::string> DigestLines() const = 0;
  /// Canonical text of the generated inputs (sources, arrival trace).
  virtual std::string InputText() const = 0;
  /// The last pass's rendered report (Table III or ServeReport).
  virtual const std::string& RenderedReport() const = 0;

  /// Checks the latest cycle's answers against the CPU reference.
  virtual Verification Verify(SpanRecorder& spans) const = 0;

  /// Simulated end-to-end metrics of the latest cycle.
  virtual std::vector<Metric> SimMetrics() const = 0;
  /// Per-layer metrics of this workload's layers: host self times from
  /// `spans` (per traced pass) plus counts read from the latest cycle's
  /// reports (per pass). Layers a workload does not exercise are left out.
  virtual std::vector<Metric> LayerMetrics(const SpanRecorder& spans,
                                           uint64_t traced_passes) const = 0;

  /// The first input graph (the substrate of the .gr round-trip probe).
  virtual const eta::graph::Csr& FirstGraph() const = 0;
};

/// Names of every workload, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);

}  // namespace perfbench

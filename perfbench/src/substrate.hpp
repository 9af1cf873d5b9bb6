// Fixed probes of the simulator substrate and the graph file layer, run
// only in traced mode. They call the public sim::SectorCache::Access and
// sim::Device::Launch (Gather / GatherContiguous / GatherBulk) and the
// Galois .gr writer and reader with the same fixed inputs on every commit,
// so their host cost splits a change in `wall_s` between the cache model,
// the coalescer, the unified-memory path and the I/O layer.
#pragma once

#include <string>
#include <vector>

#include "graph/csr.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

/// sim.cache_access_ns, sim.gather_{contiguous,scattered,bulk,um}_ns: host
/// nanoseconds per cache access or per simulated warp gather (median of
/// several repetitions).
std::vector<Metric> ProbeSubstrate(SpanRecorder& spans);

/// graph.gr_roundtrip_ms: WriteGaloisGr + ReadGaloisGr of `csr` through
/// `path` (removed afterwards). Sets *equal to whether the graph read back
/// equals the one written.
Metric ProbeGrRoundTrip(const eta::graph::Csr& csr, const std::string& path,
                        SpanRecorder& spans, bool* equal);

}  // namespace perfbench

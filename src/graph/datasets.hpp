// Dataset registry: scaled stand-ins for the paper's seven graphs.
//
// The paper evaluates on six real graphs (SNAP social networks, WebGraph
// crawls) and one PaRMAT R-MAT graph (Table II). The real downloads are
// unavailable offline and too large for a 1-core simulation budget, so each
// dataset here is a deterministic synthetic graph at ~1/30 linear scale
// whose *shape* matches what the paper reports and what the evaluation
// depends on:
//   - social graphs (Slashdot, LiveJournal, com-Orkut): R-MAT power-law
//     skew with the paper's average degrees;
//   - RMAT25: the paper's own PaRMAT parameters (a=0.45, b=0.22, c=0.22);
//   - web crawls (uk-2005, sk-2005, uk-2006): chained-community graphs that
//     hit the paper's LCC fractions and, critically, its BFS iteration
//     counts (200 / 57 / 4, Table IV) and uk-2006's ~1e-4 activated
//     fraction from the queried source.
// Simulated device memory (sim::DeviceSpec) is scaled by the same factor,
// so each O.O.M entry of Table III reproduces from allocation arithmetic.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "graph/csr.hpp"

namespace eta::graph {

struct PaperStats {
  double vertices_m = 0;   // millions, as reported in Table II
  double edges_m = 0;      // millions
  double avg_degree = 0;
  double lcc_percent = 0;
  uint32_t bfs_iterations = 0;  // Table IV (0 = not reported)
};

struct DatasetInfo {
  std::string name;        // registry key, e.g. "livejournal"
  std::string paper_name;  // label used in the paper, e.g. "LiveJournal"
  std::string kind;        // "social" | "web" | "rmat"
  PaperStats paper;        // the original graph's stats for comparison
};

/// All seven datasets in Table II order.
const std::vector<DatasetInfo>& AllDatasets();

/// Looks up registry metadata; nullopt if the name is unknown.
std::optional<DatasetInfo> FindDataset(const std::string& name);

/// Builds the named stand-in. `scale` in (0, 1] shrinks edge/vertex counts
/// proportionally for smoke tests (default 1 = the calibrated benchmark
/// size). Weights are attached (deterministically derived) so the same Csr
/// serves BFS, SSSP and SSWP. Aborts on unknown name.
Csr BuildDataset(const std::string& name, double scale = 1.0);

/// Same, but caches the built graph as a Galois .gr file under `cache_dir`
/// so repeated bench invocations skip generation. The cache key includes
/// the scale. An entry that fails TryReadGaloisGr (truncated, corrupt) is
/// treated as missing: rebuilt and rewritten.
Csr BuildDatasetCached(const std::string& name, const std::string& cache_dir,
                       double scale = 1.0);

/// The traversal source used by every experiment ("the first source node of
/// each dataset", Section VI-B) — vertex 0 for every stand-in; the
/// generators guarantee a non-trivial traversal from it.
inline constexpr VertexId kQuerySource = 0;

}  // namespace eta::graph

#include "workloads.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <tuple>
#include <utility>

#include "baselines/cusha.hpp"
#include "baselines/gunrock.hpp"
#include "baselines/tigr.hpp"
#include "core/framework.hpp"
#include "core/traversal.hpp"
#include "cpu/reference.hpp"
#include "graph/datasets.hpp"
#include "serve/arrivals.hpp"
#include "serve/engine.hpp"
#include "serve/router.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace perfbench {

using eta::core::Algo;
using eta::graph::Csr;
using eta::graph::VertexId;
namespace core = eta::core;
namespace cpu = eta::cpu;
namespace graph = eta::graph;
namespace serve = eta::serve;
namespace sim = eta::sim;
namespace util = eta::util;

namespace {

// ---------------------------------------------------------------------------
// Shared helpers.

/// "%.17g": every simulated double in a digest round-trips exactly.
std::string Exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string CountersText(const sim::Counters& c) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "wi=%" PRIu64 " ti=%" PRIu64 " l1=%" PRIu64 "/%" PRIu64 " l2=%" PRIu64
                "/%" PRIu64 " dr=%" PRIu64 " dw=%" PRIu64 " sh=%" PRIu64 " at=%" PRIu64
                " lat=%" PRIu64 " launches=%" PRIu64 " cyc=",
                c.warp_instructions, c.thread_instructions, c.l1_hits, c.l1_accesses,
                c.l2_hits, c.l2_accesses, c.dram_read_transactions, c.dram_write_transactions,
                c.shared_accesses, c.atomic_operations, c.mem_latency_cycles, c.launches);
  return buf + Exact(c.elapsed_cycles);
}

uint64_t Fnv1a(const void* data, size_t bytes, uint64_t h = 1469598103934665603ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) h = (h ^ p[i]) * 1099511628211ULL;
  return h;
}

/// Nearest-rank percentile of unsorted samples; 0 when empty.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

uint64_t TotalEdges(const std::vector<Csr>& graphs) {
  uint64_t edges = 0;
  for (const Csr& g : graphs) edges += g.NumEdges();
  return edges;
}

uint64_t Sectors(const sim::Counters& c) { return c.l1_accesses + c.l2_accesses; }

constexpr Algo kAlgos[] = {Algo::kBfs, Algo::kSssp, Algo::kSswp};

/// The CPU oracle's answer for a served request: vertices reachable from
/// the source under the algorithm's label semantics.
class ReachOracle {
 public:
  uint64_t Reached(const Csr& csr, size_t graph_index, Algo algo, VertexId source) {
    const auto key = std::make_tuple(graph_index, static_cast<int>(algo), source);
    auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;
    const uint64_t reached =
        cpu::CountReached(core::CpuReference(csr, algo, source), core::IsWidest(algo));
    memo_.emplace(key, reached);
    return reached;
  }

 private:
  std::map<std::tuple<size_t, int, VertexId>, uint64_t> memo_;
};

// ---------------------------------------------------------------------------
// paper-*: Table III cells.

struct PaperDataset {
  const char* name;
  double scale;
  /// Scale DeviceSpec::device_memory_bytes by `scale` too, so the paper's
  /// O.O.M pattern reproduces from allocation arithmetic.
  bool scale_memory;
};

/// The seed that keeps the paper's source (vertex 0).
constexpr uint64_t kPaperSourceSeed = 1;

struct Framework {
  const char* span;   // span and metric prefix
  const char* label;  // Table III row label
};
constexpr Framework kFrameworks[] = {
    {"baselines.cusha", "CuSha"},       {"baselines.gunrock", "Gunrock"},
    {"baselines.tigr", "Tigr"},         {"core.etagraph", "EtaGraph"},
    {"core.etagraph_noump", "EtaGraph w/o UMP"},
};
constexpr size_t kNumFrameworks = std::size(kFrameworks);
constexpr size_t kEtaGraph = 3;

core::RunReport RunFramework(size_t fw, const Csr& csr, Algo algo, VertexId source,
                             const sim::DeviceSpec& spec) {
  switch (fw) {
    case 0: {
      eta::baselines::CushaOptions o;
      o.spec = spec;
      return eta::baselines::Cusha(o).Run(csr, algo, source);
    }
    case 1: {
      eta::baselines::GunrockOptions o;
      o.spec = spec;
      return eta::baselines::Gunrock(o).Run(csr, algo, source);
    }
    case 2: {
      eta::baselines::TigrOptions o;
      o.spec = spec;
      return eta::baselines::Tigr(o).Run(csr, algo, source);
    }
    default: {
      core::EtaGraphOptions o;
      o.spec = spec;
      if (fw == 4) o.memory_mode = core::MemoryMode::kUnifiedOnDemand;
      return core::EtaGraph(o).Run(csr, algo, source);
    }
  }
}

/// BFS reach and depth of `source` (the traversal's size and iteration
/// count, which set its simulated cost).
std::pair<uint64_t, uint32_t> ReachAndDepth(const Csr& csr, VertexId source) {
  const std::vector<graph::Weight> levels = cpu::BfsLevels(csr, source);
  uint64_t reach = 0;
  uint32_t depth = 0;
  for (graph::Weight l : levels) {
    if (l == cpu::kInf) continue;
    ++reach;
    depth = std::max(depth, l);
  }
  return {reach, depth};
}

/// The traversal source for one dataset. The paper's seed keeps vertex 0;
/// any other seed picks, in seeded order, a vertex within two hops of
/// vertex 0 whose reach and BFS depth are comparable to vertex 0's, so the
/// workload's size does not depend on the seed.
VertexId PickSource(const Csr& csr, uint64_t seed) {
  if (seed == kPaperSourceSeed) return graph::kQuerySource;
  const std::vector<graph::Weight> levels = cpu::BfsLevels(csr, graph::kQuerySource);
  const auto [ref_reach, ref_depth] = ReachAndDepth(csr, graph::kQuerySource);
  std::vector<VertexId> candidates;
  for (VertexId v = 0; v < csr.NumVertices(); ++v) {
    if ((levels[v] == 1 || levels[v] == 2) && csr.OutDegree(v) > 0) candidates.push_back(v);
  }
  util::SplitMix64 rng(util::MixPair(seed, 0x5eed));
  VertexId best = graph::kQuerySource;
  double best_gap = 1e300;
  for (uint32_t tries = 0; tries < 32 && !candidates.empty(); ++tries) {
    const size_t i = rng.NextBounded(candidates.size());
    const VertexId v = candidates[i];
    candidates[i] = candidates.back();
    candidates.pop_back();
    const auto [reach, depth] = ReachAndDepth(csr, v);
    const double reach_gap =
        std::abs(static_cast<double>(reach) - static_cast<double>(ref_reach)) /
        static_cast<double>(ref_reach);
    const double depth_gap =
        std::abs(static_cast<double>(depth) - static_cast<double>(ref_depth)) /
        std::max(1.0, static_cast<double>(ref_depth));
    if (reach_gap <= 0.05 && depth_gap <= 0.05) return v;
    if (reach_gap + depth_gap < best_gap) {
      best_gap = reach_gap + depth_gap;
      best = v;
    }
  }
  return best;
}

class PaperWorkload final : public Workload {
 public:
  PaperWorkload(std::vector<PaperDataset> datasets, uint64_t seed)
      : datasets_(std::move(datasets)), seed_(seed) {}

  void Setup(SpanRecorder& spans) override {
    graphs_.clear();
    sources_.clear();
    for (const PaperDataset& d : datasets_) {
      {
        auto span = spans.Open("graph.generate");
        graphs_.push_back(graph::BuildDataset(d.name, d.scale));
      }
      auto span = spans.Open("cpu.pick_source");
      sources_.push_back(PickSource(graphs_.back(), seed_));
    }
  }

  void RunPass(SpanRecorder& spans) override {
    cells_.clear();
    for (size_t g = 0; g < datasets_.size(); ++g) {
      sim::DeviceSpec spec;
      if (datasets_[g].scale_memory) {
        spec.device_memory_bytes = static_cast<uint64_t>(
            static_cast<double>(spec.device_memory_bytes) * datasets_[g].scale);
      }
      for (Algo algo : kAlgos) {
        for (size_t fw = 0; fw < kNumFrameworks; ++fw) {
          auto span = spans.Open(kFrameworks[fw].span);
          cells_.push_back(
              Cell{fw, g, algo, RunFramework(fw, graphs_[g], algo, sources_[g], spec)});
        }
      }
    }
    auto span = spans.Open("report.render");
    report_ = RenderTables();
  }

  uint64_t OpsPerPass() const override { return datasets_.size() * 3 * kNumFrameworks; }

  std::vector<std::string> DigestLines() const override {
    std::vector<std::string> lines;
    for (const Cell& c : cells_) {
      const core::RunReport& r = c.report;
      std::string line = std::string(kFrameworks[c.framework].span) + " " +
                         datasets_[c.graph].name + " " + core::AlgoName(c.algo) +
                         " src=" + std::to_string(sources_[c.graph]);
      if (r.oom) {
        line += " oom request=" + std::to_string(r.oom_request_bytes);
      } else {
        char labels[24];
        std::snprintf(labels, sizeof(labels), "%016" PRIx64,
                      Fnv1a(r.labels.data(), r.labels.size() * sizeof(r.labels[0])));
        line += " kernel_ms=" + Exact(r.kernel_ms) + " total_ms=" + Exact(r.total_ms) +
                " iters=" + std::to_string(r.iterations) +
                " activated=" + std::to_string(r.activated) +
                " migrations=" + std::to_string(r.migration_sizes.size()) +
                " migrated=" + std::to_string(r.migrated_bytes) +
                " peak=" + std::to_string(r.device_bytes_peak) + " labels=" + labels + " " +
                CountersText(r.counters);
      }
      lines.push_back(std::move(line));
    }
    return lines;
  }

  std::string InputText() const override {
    std::string text;
    for (size_t g = 0; g < datasets_.size(); ++g) {
      text += std::string(datasets_[g].name) + " scale=" + Exact(datasets_[g].scale) +
              " vertices=" + std::to_string(graphs_[g].NumVertices()) +
              " edges=" + std::to_string(graphs_[g].NumEdges()) +
              " source=" + std::to_string(sources_[g]) + "\n";
    }
    return text;
  }

  const std::string& RenderedReport() const override { return report_; }

  Verification Verify(SpanRecorder& spans) const override {
    auto span = spans.Open("cpu.verify");
    Verification v;
    std::map<std::pair<size_t, int>, std::vector<graph::Weight>> expected;
    for (const Cell& c : cells_) {
      if (c.report.DeviceFailed()) continue;  // O.O.M: an expected result
      auto key = std::make_pair(c.graph, static_cast<int>(c.algo));
      auto it = expected.find(key);
      if (it == expected.end()) {
        it = expected
                 .emplace(key, core::CpuReference(graphs_[c.graph], c.algo, sources_[c.graph]))
                 .first;
      }
      ++v.checked;
      if (c.report.labels != it->second) {
        ++v.mismatched;
        std::fprintf(stderr, "perfbench: MISMATCH %s on %s %s\n", kFrameworks[c.framework].span,
                     datasets_[c.graph].name, core::AlgoName(c.algo));
      }
    }
    return v;
  }

  std::vector<Metric> SimMetrics() const override {
    std::vector<double> eta_ms;
    double eta_total = 0;
    uint64_t completed = 0;
    for (const Cell& c : cells_) {
      if (!c.report.DeviceFailed()) ++completed;
      if (c.framework != kEtaGraph) continue;
      eta_ms.push_back(c.report.total_ms);
      eta_total += c.report.total_ms;
    }
    return {
        {"sim_eta_total_ms", eta_total, "ms"},
        {"sim_p50_ms", Percentile(eta_ms, 0.50), "ms"},
        {"sim_p99_ms", Percentile(eta_ms, 0.99), "ms"},
        {"sim_throughput_qps", static_cast<double>(eta_ms.size()) / (eta_total / 1000.0),
         "1/s"},
        {"sim_goodput_frac",
         static_cast<double>(completed) / static_cast<double>(cells_.size()), "frac"},
    };
  }

  std::vector<Metric> LayerMetrics(const SpanRecorder& spans,
                                   uint64_t traced_passes) const override {
    const double per_pass = 1.0 / static_cast<double>(std::max<uint64_t>(1, traced_passes));
    std::vector<Metric> m;
    sim::Counters all;
    uint64_t migrations = 0;
    uint64_t migrated_bytes = 0;
    uint64_t oom_cells = 0;
    double device_host_ms = 0;
    for (size_t fw = 0; fw < kNumFrameworks; ++fw) {
      sim::Counters counters;
      double sim_ms = 0;
      uint64_t iterations = 0;
      for (const Cell& c : cells_) {
        if (c.framework != fw || c.report.DeviceFailed()) {
          if (c.framework == fw && fw < kEtaGraph) ++oom_cells;
          continue;
        }
        counters += c.report.counters;
        sim_ms += c.report.total_ms;
        iterations += c.report.iterations;
        migrations += c.report.migration_sizes.size();
        migrated_bytes += c.report.migrated_bytes;
      }
      all += counters;
      const std::string prefix = kFrameworks[fw].span;
      const double host_ms = spans.SelfMs(prefix) * per_pass;
      device_host_ms += host_ms;
      m.push_back({prefix + ".host_ms", host_ms, "ms"});
      if (fw < kEtaGraph) {
        m.push_back({prefix + ".sectors", static_cast<double>(Sectors(counters)), "count"});
        m.push_back({prefix + ".sim_ms", sim_ms, "ms"});
      } else if (fw == kEtaGraph) {
        m.push_back({prefix + ".iterations", static_cast<double>(iterations), "count"});
        m.push_back({prefix + ".sectors", static_cast<double>(Sectors(counters)), "count"});
      }
    }
    m.push_back({"graph.edges", static_cast<double>(TotalEdges(graphs_)), "count"});
    m.push_back({"baselines.oom_cells", static_cast<double>(oom_cells), "count"});
    m.push_back({"core.etagraph.speedup", Speedup(), "x"});
    m.push_back({"sim.host_ns_per_sector",
                 Sectors(all) == 0 ? 0 : device_host_ms * 1e6 / static_cast<double>(Sectors(all)),
                 "ns"});
    m.push_back({"sim.l1_hit_rate", all.L1HitRate(), "frac"});
    m.push_back({"sim.l2_hit_rate", all.L2HitRate(), "frac"});
    m.push_back({"sim.dram_transactions",
                 static_cast<double>(all.dram_read_transactions + all.dram_write_transactions),
                 "count"});
    m.push_back({"sim.warp_instructions", static_cast<double>(all.warp_instructions), "count"});
    m.push_back({"sim.um_migrations", static_cast<double>(migrations), "count"});
    m.push_back({"sim.um_migrated_mb", static_cast<double>(migrated_bytes) / (1 << 20), "MB"});
    m.push_back({"report.render_ms", spans.SelfMs("report.render") * per_pass, "ms"});
    return m;
  }

  const Csr& FirstGraph() const override { return graphs_.front(); }

 private:
  struct Cell {
    size_t framework;
    size_t graph;
    Algo algo;
    core::RunReport report;
  };

  /// Geomean over cells of (best completed baseline total / EtaGraph
  /// total); cells where every baseline is O.O.M. are skipped.
  double Speedup() const {
    double log_sum = 0;
    uint64_t n = 0;
    for (size_t i = 0; i + kNumFrameworks <= cells_.size(); i += kNumFrameworks) {
      double best = 0;
      for (size_t fw = 0; fw < kEtaGraph; ++fw) {
        const core::RunReport& r = cells_[i + fw].report;
        if (!r.DeviceFailed() && (best == 0 || r.total_ms < best)) best = r.total_ms;
      }
      if (best == 0) continue;
      log_sum += std::log(best / cells_[i + kEtaGraph].report.total_ms);
      ++n;
    }
    return n == 0 ? 0 : std::exp(log_sum / static_cast<double>(n));
  }

  std::string RenderTables() const {
    std::string out;
    for (Algo algo : kAlgos) {
      std::vector<std::string> header = {"Framework"};
      for (const PaperDataset& d : datasets_) header.push_back(d.name);
      util::Table table(header);
      for (size_t fw = 0; fw < kNumFrameworks; ++fw) {
        std::vector<std::string> row = {kFrameworks[fw].label};
        for (const Cell& c : cells_) {
          if (c.framework != fw || c.algo != algo) continue;
          row.push_back(c.report.oom ? "O.O.M"
                                     : util::FormatDouble(c.report.kernel_ms, 3) + "/" +
                                           util::FormatDouble(c.report.total_ms, 3));
        }
        table.AddRow(std::move(row));
      }
      out += table.Render(std::string("Table III (") + core::AlgoName(algo) +
                          ") - t_kernel/t_total in simulated ms");
    }
    return out;
  }

  std::vector<PaperDataset> datasets_;
  uint64_t seed_;
  std::vector<Csr> graphs_;
  std::vector<VertexId> sources_;
  std::vector<Cell> cells_;
  std::string report_;
};

// ---------------------------------------------------------------------------
// serve-*: open-loop trace replays.

struct ServeDataset {
  const char* name;
  double scale;
};

struct ServeConfig {
  std::vector<ServeDataset> catalog;
  /// Independent arrival traces (each `arrivals.num_requests` long, seeded
  /// from the workload seed and the trace index). A pass replays one of
  /// them, in turn, so a run times several short replays instead of one
  /// long one, while the simulated metrics pool every trace's requests.
  uint32_t traces = 1;
  serve::ArrivalOptions arrivals;
  /// Single-session ServeEngine when false, ShardedEngine when true.
  bool sharded = false;
  serve::ServeOptions engine;
  serve::ShardedOptions fleet;
  /// Sharded only: per-shard residency budget as a share of the catalog's
  /// summed staging footprint.
  double budget_share = 0;
};

class ServeWorkload final : public Workload {
 public:
  ServeWorkload(ServeConfig config, uint64_t seed) : config_(std::move(config)), seed_(seed) {}

  void Setup(SpanRecorder& spans) override {
    graphs_.clear();
    VertexId min_vertices = 0;
    for (const ServeDataset& d : config_.catalog) {
      auto span = spans.Open("graph.generate");
      graphs_.push_back(graph::BuildDataset(d.name, d.scale));
      const VertexId n = graphs_.back().NumVertices();
      min_vertices = min_vertices == 0 ? n : std::min(min_vertices, n);
    }
    auto span = spans.Open("serve.generate_arrivals");
    config_.arrivals.num_graphs = static_cast<uint32_t>(graphs_.size());
    traces_.clear();
    for (uint32_t t = 0; t < config_.traces; ++t) {
      config_.arrivals.seed = util::MixPair(seed_, t);
      traces_.push_back(serve::GenerateArrivals(min_vertices, config_.arrivals));
    }
    reports_.clear();
    reports_.resize(traces_.size());
    next_ = 0;
    if (config_.sharded && config_.budget_share > 0) {
      uint64_t footprint = 0;
      for (const Csr& g : graphs_) {
        footprint += core::ResidentGraph::EstimateDeviceBytes(g, {}, /*stage_weights=*/true);
      }
      config_.fleet.device_mem_budget_bytes =
          static_cast<uint64_t>(static_cast<double>(footprint) * config_.budget_share);
    }
  }

  uint64_t CyclePasses() const override { return traces_.size(); }

  void RunPass(SpanRecorder& spans) override {
    const size_t t = next_;
    next_ = (next_ + 1) % traces_.size();
    serve::ServeReport& report = reports_[t];
    {
      auto span = spans.Open("serve.replay");
      if (config_.sharded) {
        std::vector<const Csr*> catalog;
        for (const Csr& g : graphs_) catalog.push_back(&g);
        report = serve::ShardedEngine(config_.fleet).ServeMany(catalog, traces_[t]);
      } else {
        report = serve::ServeEngine(config_.engine).Serve(graphs_.front(), traces_[t]);
      }
    }
    auto span = spans.Open("serve.render");
    rendered_ = report.Render("serve replay of trace " + std::to_string(t));
    prometheus_ = report.metrics.RenderPrometheus();
  }

  uint64_t OpsPerPass() const override { return traces_.front().size(); }

  std::vector<std::string> DigestLines() const override {
    std::vector<std::string> lines;
    for (size_t t = 0; t < reports_.size(); ++t) {
      const serve::ServeReport& report = reports_[t];
      const std::string prefix = "trace " + std::to_string(t) + " ";
      for (const serve::QueryResult& q : report.results) {
        lines.push_back(prefix + "req " + std::to_string(q.id) + " " +
                        serve::QueryStatusName(q.status) + " " + core::AlgoName(q.algo) +
                        " src=" + std::to_string(q.source) +
                        " reached=" + std::to_string(q.reached_vertices) +
                        " batch=" + std::to_string(q.batch_size) +
                        " arrival=" + Exact(q.arrival_ms) + " start=" + Exact(q.start_ms) +
                        " finish=" + Exact(q.finish_ms));
      }
      lines.push_back(prefix + "makespan=" + Exact(report.makespan_ms) +
                      " load=" + Exact(report.load_ms) +
                      " batches=" + std::to_string(report.batches));
      for (const serve::ShardStat& st : report.shard_stats) {
        lines.push_back(prefix + "shard " + std::to_string(st.shard) +
                        " dispatches=" + std::to_string(st.dispatches) +
                        " evictions=" + std::to_string(st.evictions) +
                        " reloads=" + std::to_string(st.reloads) +
                        " prestages=" + std::to_string(st.prestages) +
                        " busy=" + Exact(st.busy_ms) + " prestage=" + Exact(st.prestage_ms) +
                        " overlap=" + Exact(st.overlap_ms));
      }
    }
    return lines;
  }

  std::string InputText() const override {
    std::string text;
    for (size_t g = 0; g < graphs_.size(); ++g) {
      text += std::string(config_.catalog[g].name) +
              " scale=" + Exact(config_.catalog[g].scale) +
              " vertices=" + std::to_string(graphs_[g].NumVertices()) +
              " edges=" + std::to_string(graphs_[g].NumEdges()) + "\n";
    }
    for (size_t t = 0; t < traces_.size(); ++t) {
      for (const serve::Request& r : traces_[t]) {
        text += "trace " + std::to_string(t) + " " + std::to_string(r.id) + " " +
                core::AlgoName(r.algo) + " " + std::to_string(r.source) + " g" +
                std::to_string(r.graph_id) + " " + Exact(r.arrival_ms) + " " +
                Exact(r.deadline_ms) + " " + serve::SloClassName(r.slo) + "\n";
      }
    }
    return text;
  }

  const std::string& RenderedReport() const override { return rendered_; }

  Verification Verify(SpanRecorder& spans) const override {
    auto span = spans.Open("cpu.verify");
    Verification v;
    ReachOracle oracle;
    for (size_t t = 0; t < traces_.size(); ++t) {
      const std::vector<serve::Request>& trace = traces_[t];
      std::vector<bool> answered(trace.size(), false);
      for (const serve::QueryResult& q : reports_[t].results) {
        if (q.id >= trace.size() || answered[q.id]) {
          ++v.mismatched;
          continue;
        }
        answered[q.id] = true;
        if (!Completed(q)) {
          ++v.refused;
          continue;
        }
        const serve::Request& r = trace[q.id];
        ++v.checked;
        if (q.reached_vertices !=
            oracle.Reached(graphs_[r.graph_id], r.graph_id, r.algo, r.source)) {
          ++v.mismatched;
          std::fprintf(stderr, "perfbench: MISMATCH trace %zu request %" PRIu64 "\n", t, q.id);
        }
      }
      // A request without a terminal result was lost.
      v.mismatched += static_cast<uint64_t>(std::count(answered.begin(), answered.end(), false));
    }
    return v;
  }

  std::vector<Metric> SimMetrics() const override {
    std::vector<double> latency;
    uint64_t offered = 0;
    uint64_t met = 0;
    uint64_t completed = 0;
    double makespan_ms = 0;
    for (const serve::ServeReport& report : reports_) {
      for (const serve::QueryResult& q : report.results) {
        if (Completed(q)) latency.push_back(q.LatencyMs());
      }
      for (const serve::SloStat& st : report.slo_stats) {
        offered += st.offered;
        met += st.slo_met;
      }
      completed += report.completed;
      makespan_ms += report.makespan_ms;
    }
    return {
        {"sim_eta_total_ms", DeviceBusyMs(), "ms"},
        {"sim_p50_ms", Percentile(latency, 0.50), "ms"},
        {"sim_p99_ms", Percentile(latency, 0.99), "ms"},
        {"sim_throughput_qps", static_cast<double>(completed) / (makespan_ms / 1000.0), "1/s"},
        {"sim_goodput_frac",
         offered == 0 ? 0 : static_cast<double>(met) / static_cast<double>(offered), "frac"},
    };
  }

  std::vector<Metric> LayerMetrics(const SpanRecorder& spans,
                                   uint64_t traced_passes) const override {
    const double per_pass = 1.0 / static_cast<double>(std::max<uint64_t>(1, traced_passes));
    std::vector<double> queue_wait;
    std::vector<double> service;
    double err_sum = 0;
    uint64_t err_n = 0;
    double occupancy_sum = 0;
    uint64_t dispatches = 0;
    serve::ShardStat total;
    uint64_t rejected = 0, shedded = 0, timed_out = 0, degraded = 0, transitions = 0;
    for (const serve::ServeReport& report : reports_) {
      for (const serve::QueryResult& q : report.results) {
        if (q.status != serve::QueryStatus::kOk) continue;
        queue_wait.push_back(q.QueueMs());
        service.push_back(q.finish_ms - q.start_ms);
      }
      for (const serve::CostObservation& c : report.cost_observations) {
        err_sum += c.mean_abs_error_ms * static_cast<double>(c.queries);
        err_n += c.queries;
      }
      for (const serve::ShardStat& st : report.shard_stats) {
        total.evictions += st.evictions;
        total.reloads += st.reloads;
        total.prestages += st.prestages;
        total.prestage_ms += st.prestage_ms;
        total.overlap_ms += st.overlap_ms;
        total.busy_ms += st.busy_ms;
      }
      occupancy_sum += report.MeanBatchOccupancy() * static_cast<double>(report.batches);
      dispatches += report.batches;
      rejected += report.rejected;
      shedded += report.shedded;
      timed_out += report.timed_out;
      degraded += report.degraded;
      transitions += report.overload.brownout_transitions.size();
    }
    // Counts are per trace (one pass's worth), host times per traced pass.
    const double n = static_cast<double>(reports_.size());
    const double host_ms = spans.SelfMs("serve.replay") * per_pass;
    return {
        {"graph.edges", static_cast<double>(TotalEdges(graphs_)), "count"},
        {"serve.host_ms", host_ms, "ms"},
        {"serve.host_us_per_dispatch",
         dispatches == 0 ? 0 : host_ms * 1000.0 / (static_cast<double>(dispatches) / n), "us"},
        {"serve.render_ms", spans.SelfMs("serve.render") * per_pass, "ms"},
        {"serve.generate_arrivals_ms", spans.SelfMs("serve.generate_arrivals") /
                                           static_cast<double>(std::max<uint64_t>(
                                               1, spans.Count("serve.generate_arrivals"))),
         "ms"},
        {"serve.dispatches", static_cast<double>(dispatches) / n, "count"},
        {"serve.batch_occupancy_mean",
         dispatches == 0 ? 0 : occupancy_sum / static_cast<double>(dispatches), "count"},
        {"serve.queue_wait_p50_ms", Percentile(queue_wait, 0.50), "ms"},
        {"serve.queue_wait_p99_ms", Percentile(queue_wait, 0.99), "ms"},
        {"serve.service_p50_ms", Percentile(service, 0.50), "ms"},
        {"serve.service_p99_ms", Percentile(service, 0.99), "ms"},
        {"serve.cost_est_err_ms", err_n == 0 ? 0 : err_sum / static_cast<double>(err_n), "ms"},
        {"serve.evictions", static_cast<double>(total.evictions) / n, "count"},
        {"serve.reloads", static_cast<double>(total.reloads) / n, "count"},
        {"serve.prestages", static_cast<double>(total.prestages) / n, "count"},
        {"serve.prestage_ms", total.prestage_ms / n, "ms"},
        {"serve.overlap_ms", total.overlap_ms / n, "ms"},
        {"serve.busy_ms", total.busy_ms / n, "ms"},
        {"serve.rejected", static_cast<double>(rejected) / n, "count"},
        {"serve.shedded", static_cast<double>(shedded) / n, "count"},
        {"serve.timed_out", static_cast<double>(timed_out) / n, "count"},
        {"serve.degraded", static_cast<double>(degraded) / n, "count"},
        {"serve.brownout_transitions", static_cast<double>(transitions) / n, "count"},
    };
  }

  const Csr& FirstGraph() const override { return graphs_.front(); }

 private:
  static bool Completed(const serve::QueryResult& q) {
    return q.status == serve::QueryStatus::kOk || q.status == serve::QueryStatus::kDegraded;
  }

  /// Simulated time the device(s) spent staging graphs and running batches,
  /// summed over the traces: a sharded fleet's shard busy time, or a single
  /// session's load plus its distinct batch intervals.
  double DeviceBusyMs() const {
    double busy = 0;
    for (const serve::ServeReport& report : reports_) {
      if (!report.shard_stats.empty()) {
        for (const serve::ShardStat& st : report.shard_stats) busy += st.busy_ms;
        continue;
      }
      std::set<std::pair<double, double>> batches;
      for (const serve::QueryResult& q : report.results) {
        if (q.status == serve::QueryStatus::kOk) batches.emplace(q.start_ms, q.finish_ms);
      }
      busy += report.load_ms;
      for (const auto& [start, finish] : batches) busy += finish - start;
    }
    return busy;
  }

  ServeConfig config_;
  uint64_t seed_;
  std::vector<Csr> graphs_;
  std::vector<std::vector<serve::Request>> traces_;
  std::vector<serve::ServeReport> reports_;
  size_t next_ = 0;
  std::string rendered_;     // printed after the run
  std::string prometheus_;  // rendered as a metrics scrape would; not printed
};

// ---------------------------------------------------------------------------
// Workload definitions. Sizes, rates and budgets are fixed constants, never
// recalibrated per run, so a model change cannot silently move the offered
// load. README.md records what each one stresses.

std::unique_ptr<Workload> MakePaperWeb(uint64_t seed) {
  return std::make_unique<PaperWorkload>(
      std::vector<PaperDataset>{{"uk2005", 0.01, true}, {"sk2005", 0.06, true}}, seed);
}

std::unique_ptr<Workload> MakeServeSession(uint64_t seed) {
  ServeConfig c;
  c.catalog = {{"sk2005", 0.003}};
  c.arrivals.profile = serve::ArrivalProfile::kPoisson;
  c.traces = 3;
  c.arrivals.rate_qps = 500;
  c.arrivals.num_requests = 1000;
  c.engine.mode = serve::ServeMode::kSessionBatched;
  c.engine.batch_window_ms = 1.0;
  c.engine.queue_capacity = 4096;  // admits the whole trace: nothing is rejected
  // Completion targets near this load's latency tail, so goodput measures
  // the tail (the defaults of 50/200/1000 ms would always read 1).
  c.engine.overload.gold_slo_ms = 2.5;
  c.engine.overload.silver_slo_ms = 4;
  c.engine.overload.bronze_slo_ms = 6;
  return std::make_unique<ServeWorkload>(std::move(c), seed);
}

std::unique_ptr<Workload> MakeServeFleet(uint64_t seed) {
  ServeConfig c;
  c.catalog = {{"slashdot", 0.0005}, {"uk2006", 0.002}, {"uk2005", 0.006}, {"sk2005", 0.004}};
  c.arrivals.profile = serve::ArrivalProfile::kBursty;
  c.traces = 3;
  c.arrivals.rate_qps = 2000;
  c.arrivals.num_requests = 850;
  c.arrivals.on_ms = 2;
  c.arrivals.off_ms = 8;
  c.arrivals.hot_graph_fraction = 0.85;
  c.arrivals.gold_deadline_ms = 400;
  c.arrivals.silver_deadline_ms = 800;
  c.arrivals.bronze_deadline_ms = 1600;
  c.sharded = true;
  c.fleet.shards = 4;
  c.fleet.async_dispatch = true;
  c.fleet.base.queue_capacity = 4096;
  // Armed, but set above the backlog this load builds: shedding would
  // count as failed requests. The brownout ladder does engage in bursts.
  serve::OverloadOptions& o = c.fleet.base.overload;
  o.slo_admission = true;
  o.shed_bronze_backlog_ms = 400;
  o.shed_silver_backlog_ms = 800;
  o.brownout_bronze_backlog_ms = 1;
  o.brownout_silver_backlog_ms = 2;
  c.budget_share = 0.6;
  return std::make_unique<ServeWorkload>(std::move(c), seed);
}

struct Entry {
  const char* name;
  std::unique_ptr<Workload> (*make)(uint64_t seed);
};
constexpr Entry kWorkloads[] = {
    {"paper-web", MakePaperWeb},
    {"serve-session", MakeServeSession},
    {"serve-fleet", MakeServeFleet},
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n;
    for (const Entry& e : kWorkloads) n.push_back(e.name);
    return n;
  }();
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  for (const Entry& e : kWorkloads) {
    if (name == e.name) return e.make(seed);
  }
  return nullptr;
}

}  // namespace perfbench

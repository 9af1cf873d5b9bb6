// Tests for the sharded serving fleet (serve::ShardedEngine): answer
// equivalence against the single engine, replay determinism, load-aware
// routing, fault-aware draining of a quarantined shard, and LRU
// eviction/reload under a per-device memory budget.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/framework.hpp"
#include "cpu/reference.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "serve/engine.hpp"
#include "serve/router.hpp"
#include "serve/session.hpp"
#include "serve/trace.hpp"
#include "serve/trace_file.hpp"
#include "sim/fault.hpp"

namespace eta::serve {
namespace {

graph::Csr RandomGraph(uint64_t seed) {
  graph::RmatParams params;
  params.scale = 9;
  params.num_edges = 4000;
  params.seed = seed;
  graph::Csr csr = graph::BuildCsr(graph::GenerateRmat(params));
  csr.DeriveWeights(seed * 3 + 1);
  return csr;
}

uint64_t CpuReached(const graph::Csr& csr, core::Algo algo, graph::VertexId source) {
  return cpu::CountReached(core::CpuReference(csr, algo, source),
                           core::IsWidest(algo));
}

std::vector<Request> BurstTrace(uint32_t count, graph::VertexId num_vertices) {
  std::vector<Request> trace;
  trace.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    Request r;
    r.id = i;
    r.algo = core::Algo::kBfs;
    r.source = (i * 37) % num_vertices;
    r.arrival_ms = 0;
    trace.push_back(r);
  }
  return trace;
}

const ShardStat& StatFor(const ServeReport& report, uint32_t shard) {
  EXPECT_LT(shard, report.shard_stats.size());
  return report.shard_stats[shard];
}

// --- Answer equivalence -------------------------------------------------------

TEST(ShardedEngine, MatchesSingleEngineAnswers) {
  graph::Csr csr = RandomGraph(21);

  TraceOptions trace_options;
  trace_options.num_requests = 48;
  trace_options.seed = 9;
  std::vector<Request> trace = GenerateTrace(csr.NumVertices(), trace_options);

  ServeOptions base;
  base.mode = ServeMode::kSession;
  base.queue_capacity = 128;

  ServeReport single = ServeEngine(base).Serve(csr, trace);
  ShardedOptions options;
  options.base = base;
  options.shards = 2;
  ServeReport fleet = ShardedEngine(options).Serve(csr, trace);

  ASSERT_EQ(single.results.size(), trace.size());
  ASSERT_EQ(fleet.results.size(), trace.size());
  EXPECT_EQ(fleet.completed, trace.size());
  EXPECT_EQ(fleet.rejected, 0u);
  EXPECT_EQ(fleet.timed_out, 0u);
  EXPECT_EQ(fleet.degraded, 0u);
  for (size_t i = 0; i < trace.size(); ++i) {
    ASSERT_EQ(single.results[i].id, fleet.results[i].id);
    ASSERT_EQ(single.results[i].status, QueryStatus::kOk);
    ASSERT_EQ(fleet.results[i].status, QueryStatus::kOk);
    // Which shard served a query must not change its answer.
    EXPECT_EQ(fleet.results[i].reached_vertices, single.results[i].reached_vertices)
        << "request " << fleet.results[i].id;
  }
  EXPECT_EQ(fleet.shard_stats.size(), 2u);
  // The single engine is a one-shard fleet: exactly one shard row.
  ASSERT_EQ(single.shard_stats.size(), 1u);
  EXPECT_EQ(single.shard_stats[0].shard, 0u);
  EXPECT_NE(single.Json().find("\"shards\":[{\"shard\":0,"), std::string::npos);
  EXPECT_EQ(single.Json().find("{\"shard\":1,"), std::string::npos);
  EXPECT_NE(fleet.Json().find("\"shards\""), std::string::npos);
}

// The single engine is a one-shard fleet over a one-graph catalog: with its
// batch window closed it renders byte-identically to ShardedEngine at one
// shard, in every mode and under faults.
struct OneShardCase {
  const char* name;
  ServeMode mode;
  const char* faults;  // sim::FaultConfig spec; "" = none
};

class OneShardEquivalence : public ::testing::TestWithParam<OneShardCase> {};

TEST_P(OneShardEquivalence, SingleEngineEqualsOneShardFleet) {
  graph::Csr csr = RandomGraph(25);
  TraceOptions trace_options;
  trace_options.num_requests = 40;
  trace_options.mean_interarrival_ms = 0.1;
  trace_options.seed = 4;
  const std::vector<Request> trace = GenerateTrace(csr.NumVertices(), trace_options);

  ServeOptions base;
  base.mode = GetParam().mode;
  base.queue_capacity = 64;
  base.batch_window_ms = 0;
  if (GetParam().faults[0] != '\0') {
    std::string error;
    auto faults = sim::FaultConfig::Parse(GetParam().faults, &error);
    ASSERT_TRUE(faults.has_value()) << error;
    base.graph.faults = *faults;
  }
  ShardedOptions options;
  options.base = base;
  options.shards = 1;
  const ServeReport single = ServeEngine(base).Serve(csr, trace);
  const ServeReport fleet = ShardedEngine(options).Serve(csr, trace);

  EXPECT_EQ(single.completed, trace.size());
  EXPECT_EQ(RenderReplayText(single.results), RenderReplayText(fleet.results));
  EXPECT_EQ(single.Render("replay"), fleet.Render("replay"));
  EXPECT_EQ(single.Json(), fleet.Json());
  EXPECT_EQ(single.metrics.RenderPrometheus(), fleet.metrics.RenderPrometheus());
}

constexpr const char* kMixedFaults =
    "seed=3,uecc=0.03,hang=0.02,lost=0.002,alloc=0.05,watchdog=5";

INSTANTIATE_TEST_SUITE_P(
    ModesAndFaults, OneShardEquivalence,
    ::testing::Values(OneShardCase{"session", ServeMode::kSession, ""},
                      OneShardCase{"session_lost", ServeMode::kSession, "seed=3,lost=0.01"},
                      OneShardCase{"session_mixed", ServeMode::kSession, kMixedFaults},
                      OneShardCase{"batched", ServeMode::kSessionBatched, ""},
                      OneShardCase{"batched_lost", ServeMode::kSessionBatched,
                                   "seed=3,lost=0.01"},
                      OneShardCase{"batched_mixed", ServeMode::kSessionBatched, kMixedFaults},
                      OneShardCase{"naive", ServeMode::kNaivePerQuery, ""},
                      OneShardCase{"naive_lost", ServeMode::kNaivePerQuery, "seed=3,lost=0.01"},
                      OneShardCase{"naive_mixed", ServeMode::kNaivePerQuery, kMixedFaults}),
    [](const ::testing::TestParamInfo<OneShardCase>& param_info) {
      return std::string(param_info.param.name);
    });

// --- Determinism --------------------------------------------------------------

TEST(ShardedEngine, ReplayIsByteIdenticalAcrossRuns) {
  graph::Csr csr = RandomGraph(22);

  TraceOptions trace_options;
  trace_options.num_requests = 64;
  trace_options.mean_interarrival_ms = 0.4;
  trace_options.seed = 5;
  std::vector<Request> trace = GenerateTrace(csr.NumVertices(), trace_options);

  ShardedOptions options;
  options.shards = 3;
  ServeReport a = ShardedEngine(options).Serve(csr, trace);
  ServeReport b = ShardedEngine(options).Serve(csr, trace);

  EXPECT_EQ(a.Render("fleet"), b.Render("fleet"));
  EXPECT_EQ(a.Json(), b.Json());
  EXPECT_EQ(a.metrics.RenderPrometheus(), b.metrics.RenderPrometheus());
}

// --- Load-aware routing -------------------------------------------------------

TEST(ShardedEngine, LoadAwareRoutingSpreadsASaturatingTrace) {
  graph::Csr csr = RandomGraph(23);

  TraceOptions trace_options;
  trace_options.num_requests = 64;
  trace_options.mean_interarrival_ms = 0.05;  // far faster than service time
  trace_options.seed = 3;
  std::vector<Request> trace = GenerateTrace(csr.NumVertices(), trace_options);

  ShardedOptions options;
  options.shards = 4;
  ServeReport report = ShardedEngine(options).Serve(csr, trace);

  EXPECT_EQ(report.completed + report.rejected + report.timed_out, trace.size());
  ASSERT_EQ(report.shard_stats.size(), 4u);
  uint64_t dispatches = 0;
  for (const ShardStat& s : report.shard_stats) {
    // Backlog-aware admission must not starve any shard of a saturating load.
    EXPECT_GE(s.dispatches, 1u) << "shard " << s.shard;
    dispatches += s.dispatches;
  }
  EXPECT_EQ(dispatches, report.batches);
}

// --- Fault-aware routing (device loss on one shard) ---------------------------

TEST(ShardedEngine, DeviceLossDrainsQueuedWorkToHealthyPeers) {
  graph::Csr csr = RandomGraph(24);
  std::vector<Request> trace = BurstTrace(24, csr.NumVertices());

  ShardedOptions options;
  options.shards = 3;
  options.base.max_batch = 4;  // leave a queue behind the in-flight batch
  // Pin a scripted device loss to shard 1 only; shards 0 and 2 stay clean.
  options.shard_faults.resize(3);
  options.shard_faults[1].lost_at = 2;

  ServeReport report = ShardedEngine(options).Serve(csr, trace);

  // Every admitted request completes: served on a healthy peer or degraded,
  // never rejected, timed out, or lost.
  ASSERT_EQ(report.results.size(), trace.size());
  EXPECT_EQ(report.completed, trace.size());
  EXPECT_EQ(report.rejected, 0u);
  EXPECT_EQ(report.timed_out, 0u);
  for (const QueryResult& q : report.results) {
    EXPECT_TRUE(q.status == QueryStatus::kOk || q.status == QueryStatus::kDegraded)
        << "request " << q.id;
    EXPECT_EQ(q.reached_vertices, CpuReached(csr, q.algo, q.source))
        << "request " << q.id;
  }

  ASSERT_EQ(report.shard_stats.size(), 3u);
  const ShardStat& lost = StatFor(report, 1);
  // The scripted loss replays on every rebuild, so the budget runs dry.
  EXPECT_GE(lost.launch_failures, 1u);
  EXPECT_EQ(lost.rebuilds, options.base.max_session_rebuilds);
  EXPECT_TRUE(lost.dead);
  // Its queued requests drained out, and only healthy peers took them in.
  EXPECT_GE(lost.rerouted_out, 1u);
  EXPECT_EQ(lost.rerouted_in, 0u);
  EXPECT_EQ(StatFor(report, 0).rerouted_in + StatFor(report, 2).rerouted_in,
            lost.rerouted_out);
  EXPECT_FALSE(StatFor(report, 0).dead);
  EXPECT_FALSE(StatFor(report, 2).dead);
  EXPECT_EQ(StatFor(report, 0).launch_failures, 0u);
  EXPECT_EQ(StatFor(report, 2).launch_failures, 0u);
  // The in-flight remainder on the dead shard was served degraded.
  EXPECT_GE(lost.degraded, 1u);
  EXPECT_EQ(report.degraded, lost.degraded);

  // The fault surfaces in the metrics output under its shard label.
  const std::string metrics = report.metrics.RenderPrometheus();
  EXPECT_NE(metrics.find("serve_shard_launch_failures_total{shard=\"1\"}"),
            std::string::npos);
  EXPECT_NE(metrics.find("serve_shard_rerouted_total{shard=\"1\"}"),
            std::string::npos);
}

TEST(ShardedEngine, FleetWideDeathFallsBackToCpuNotLoss) {
  graph::Csr csr = RandomGraph(25);
  std::vector<Request> trace = BurstTrace(12, csr.NumVertices());
  // Two more arrivals after every shard is dead.
  for (uint32_t i = 0; i < 2; ++i) {
    Request r;
    r.id = 12 + i;
    r.algo = core::Algo::kBfs;
    r.source = i + 1;
    r.arrival_ms = 1e6;
    trace.push_back(r);
  }

  ShardedOptions options;
  options.shards = 2;
  options.shard_faults.resize(2);
  options.shard_faults[0].lost_at = 1;
  options.shard_faults[1].lost_at = 1;

  ServeReport report = ShardedEngine(options).Serve(csr, trace);

  ASSERT_EQ(report.results.size(), trace.size());
  EXPECT_EQ(report.completed, trace.size());
  EXPECT_EQ(report.rejected, 0u);
  EXPECT_EQ(report.degraded, trace.size());  // no device ever survived launch 1
  for (const QueryResult& q : report.results) {
    EXPECT_EQ(q.status, QueryStatus::kDegraded) << "request " << q.id;
    EXPECT_EQ(q.reached_vertices, CpuReached(csr, q.algo, q.source))
        << "request " << q.id;
  }
  for (const ShardStat& s : report.shard_stats) EXPECT_TRUE(s.dead);
}

// --- LRU eviction under the device memory budget ------------------------------

TEST(ShardedEngine, EvictsLeastRecentlyUsedGraphUnderBudget) {
  graph::Csr g0 = RandomGraph(31);
  graph::Csr g1 = RandomGraph(32);
  graph::Csr g2 = RandomGraph(33);
  const graph::Csr* catalog[] = {&g0, &g1, &g2};

  uint64_t max_estimate = 0;
  for (const graph::Csr* g : catalog) {
    max_estimate = std::max(max_estimate, core::ResidentGraph::EstimateDeviceBytes(*g));
  }
  ASSERT_GT(max_estimate, 0u);

  // Room for two residents; the cyclic 0,1,2 access pattern then thrashes
  // LRU on every dispatch after the first two.
  ShardedOptions options;
  options.shards = 1;
  options.device_mem_budget_bytes = 2 * max_estimate;

  std::vector<Request> trace;
  for (uint32_t i = 0; i < 9; ++i) {
    Request r;
    r.id = i;
    r.algo = core::Algo::kBfs;
    r.graph_id = i % 3;
    r.source = 2;
    r.arrival_ms = static_cast<double>(i) * 50.0;  // one dispatch per request
    trace.push_back(r);
  }

  ServeReport report = ShardedEngine(options).ServeMany(catalog, trace);

  ASSERT_EQ(report.results.size(), trace.size());
  EXPECT_EQ(report.completed, trace.size());
  for (const QueryResult& q : report.results) {
    ASSERT_EQ(q.status, QueryStatus::kOk) << "request " << q.id;
  }
  // Eviction must not change answers: each reached count matches the CPU
  // reference on that request's own graph.
  for (size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(report.results[i].reached_vertices,
              CpuReached(*catalog[trace[i].graph_id], core::Algo::kBfs, 2))
        << "request " << i;
  }

  ASSERT_EQ(report.shard_stats.size(), 1u);
  const ShardStat& s = report.shard_stats[0];
  // 9 stagings: the first two fit, the other 7 each evict exactly one LRU
  // victim, and 6 of them re-stage a graph staged before.
  EXPECT_EQ(s.evictions, 7u);
  EXPECT_EQ(s.reloads, 6u);
  EXPECT_LE(s.peak_resident_bytes, options.device_mem_budget_bytes);
  EXPECT_GT(s.peak_resident_bytes, 0u);

  const std::string metrics = report.metrics.RenderPrometheus();
  EXPECT_NE(metrics.find("serve_shard_evictions_total{shard=\"0\"}"),
            std::string::npos);
  EXPECT_NE(metrics.find("serve_shard_reloads_total{shard=\"0\"}"),
            std::string::npos);
}

TEST(ShardedEngine, OverBudgetGraphStillStagesAlone) {
  graph::Csr g0 = RandomGraph(34);
  graph::Csr g1 = RandomGraph(35);
  const graph::Csr* catalog[] = {&g0, &g1};

  // A budget no graph fits under: the budget bounds concurrent residency,
  // it must not make graphs unservable.
  ShardedOptions options;
  options.shards = 1;
  options.device_mem_budget_bytes = 1;

  std::vector<Request> trace;
  const uint32_t graph_ids[] = {0, 1, 0};
  for (uint32_t i = 0; i < 3; ++i) {
    Request r;
    r.id = i;
    r.algo = core::Algo::kBfs;
    r.graph_id = graph_ids[i];
    r.source = 4;
    r.arrival_ms = static_cast<double>(i) * 50.0;
    trace.push_back(r);
  }

  ServeReport report = ShardedEngine(options).ServeMany(catalog, trace);

  EXPECT_EQ(report.completed, 3u);
  for (const QueryResult& q : report.results) {
    EXPECT_EQ(q.status, QueryStatus::kOk) << "request " << q.id;
  }
  ASSERT_EQ(report.shard_stats.size(), 1u);
  const ShardStat& s = report.shard_stats[0];
  EXPECT_EQ(s.evictions, 2u);  // every switch evicts the lone resident
  EXPECT_EQ(s.reloads, 1u);    // the return to graph 0
  EXPECT_GT(s.peak_resident_bytes, options.device_mem_budget_bytes);
}

// --- Multi-graph serving sanity ----------------------------------------------

TEST(ShardedEngine, ServesAMixedGraphCatalogUnlimited) {
  graph::Csr g0 = RandomGraph(41);
  graph::Csr g1 = RandomGraph(42);
  const graph::Csr* catalog[] = {&g0, &g1};

  std::vector<Request> trace;
  for (uint32_t i = 0; i < 16; ++i) {
    Request r;
    r.id = i;
    r.algo = (i % 2 == 0) ? core::Algo::kBfs : core::Algo::kSssp;
    r.graph_id = i % 2;
    r.source = (i * 53) % g0.NumVertices();
    r.arrival_ms = static_cast<double>(i) * 0.5;
    trace.push_back(r);
  }

  ShardedOptions options;
  options.shards = 2;
  ServeReport report = ShardedEngine(options).ServeMany(catalog, trace);

  EXPECT_EQ(report.completed, trace.size());
  EXPECT_EQ(report.rejected, 0u);
  for (size_t i = 0; i < trace.size(); ++i) {
    const QueryResult& q = report.results[i];
    ASSERT_EQ(q.status, QueryStatus::kOk) << "request " << q.id;
    EXPECT_EQ(q.reached_vertices,
              CpuReached(*catalog[trace[i].graph_id], q.algo, q.source))
        << "request " << q.id;
  }
  // No budget, two graphs per shard at most: nothing is ever evicted.
  for (const ShardStat& s : report.shard_stats) {
    EXPECT_EQ(s.evictions, 0u);
    EXPECT_EQ(s.reloads, 0u);
  }
}

// --- Whole-graph memoization (DESIGN.md section 15) ---------------------------

TEST(ShardedEngine, MemoHitsAreBitIdenticalAcrossRebuildEpochs) {
  graph::Csr g0 = RandomGraph(51);
  graph::Csr g1 = RandomGraph(52);
  const graph::Csr* catalog[] = {&g0, &g1};

  uint64_t max_estimate = 0;
  for (const graph::Csr* g : catalog) {
    max_estimate = std::max(max_estimate, core::ResidentGraph::EstimateDeviceBytes(*g));
  }

  // Budget fits one resident graph: every graph switch retires the other
  // graph's session — a fresh staging epoch that invalidates its memo.
  ShardedOptions options;
  options.shards = 1;
  options.device_mem_budget_bytes = max_estimate;
  options.base.mode = ServeMode::kSession;
  options.base.memo_window_ms = 1e9;

  // cc g0 (compute), cc g0 (hit), cc g1 (evicts g0: epoch ends), cc g1
  // (hit), cc g0 (recompute — its memo was invalidated), cc g0 (hit),
  // pr g0 (compute), pr g0 (hit).
  struct Spec {
    core::Algo algo;
    uint32_t graph;
  };
  const std::vector<Spec> specs = {
      {core::Algo::kCc, 0}, {core::Algo::kCc, 0}, {core::Algo::kCc, 1},
      {core::Algo::kCc, 1}, {core::Algo::kCc, 0}, {core::Algo::kCc, 0},
      {core::Algo::kPr, 0}, {core::Algo::kPr, 0},
  };
  std::vector<Request> trace;
  for (size_t i = 0; i < specs.size(); ++i) {
    Request r;
    r.id = i;
    r.algo = specs[i].algo;
    r.graph_id = specs[i].graph;
    r.source = 0;
    r.arrival_ms = static_cast<double>(i) * 500.0;  // one dispatch per request
    trace.push_back(r);
  }

  ServeReport report = ShardedEngine(options).ServeMany(catalog, trace);

  ASSERT_EQ(report.results.size(), trace.size());
  EXPECT_EQ(report.completed, trace.size());
  for (const QueryResult& q : report.results) {
    ASSERT_EQ(q.status, QueryStatus::kOk) << "request " << q.id;
  }
  // Exactly the four repeats hit the memo (batch_size 0 marks a memo-served
  // answer: no device launch produced it).
  EXPECT_EQ(report.memo_hits, 4u);
  EXPECT_TRUE(report.memo_configured);
  for (size_t i : {1u, 3u, 5u, 7u}) {
    EXPECT_EQ(report.results[i].batch_size, 0u) << "request " << i;
  }
  for (size_t i : {0u, 2u, 4u, 6u}) {
    EXPECT_GE(report.results[i].batch_size, 1u) << "request " << i;
  }
  // Each memo hit is bit-identical to the answer its epoch computed, and
  // the post-invalidation recompute (request 4) reproduces request 0's
  // answer exactly — the deterministic device agrees with itself.
  EXPECT_EQ(report.results[1].reached_vertices, report.results[0].reached_vertices);
  EXPECT_EQ(report.results[3].reached_vertices, report.results[2].reached_vertices);
  EXPECT_EQ(report.results[4].reached_vertices, report.results[0].reached_vertices);
  EXPECT_EQ(report.results[5].reached_vertices, report.results[4].reached_vertices);
  EXPECT_EQ(report.results[7].reached_vertices, report.results[6].reached_vertices);
  // CPU verification: the connected-components answers (memoized or not)
  // equal the host min-label-propagation component count.
  EXPECT_EQ(report.results[0].reached_vertices, CpuAnswer(g0, core::Algo::kCc, 0));
  EXPECT_EQ(report.results[1].reached_vertices, CpuAnswer(g0, core::Algo::kCc, 0));
  EXPECT_EQ(report.results[2].reached_vertices, CpuAnswer(g1, core::Algo::kCc, 0));

  // The memo hits never feed the cost estimator: only device-served queries
  // appear in the per-algo observation counts.
  for (const CostObservation& obs : report.cost_observations) {
    if (obs.algo == "CC") {
      EXPECT_EQ(obs.queries, 3u);
    }
    if (obs.algo == "PR") {
      EXPECT_EQ(obs.queries, 1u);
    }
  }

  // Determinism: a double run renders byte-identical reports, memo hits
  // and all.
  ServeReport again = ShardedEngine(options).ServeMany(catalog, trace);
  EXPECT_EQ(report.Render("memo"), again.Render("memo"));
  EXPECT_EQ(report.Json(), again.Json());
  EXPECT_EQ(report.metrics.RenderPrometheus(), again.metrics.RenderPrometheus());
  EXPECT_NE(report.metrics.RenderPrometheus().find("serve_memo_hits"),
            std::string::npos);
}

// --- Backlog autoscaling (DESIGN.md section 15) -------------------------------

TEST(ShardedEngine, AutoscaleGrowsFleetUnderBacklogAndReportsEvents) {
  graph::Csr csr = RandomGraph(53);

  TraceOptions trace_options;
  trace_options.num_requests = 64;
  trace_options.mean_interarrival_ms = 0.05;  // far faster than service time
  trace_options.seed = 7;
  std::vector<Request> trace = GenerateTrace(csr.NumVertices(), trace_options);

  ShardedOptions options;
  options.shards = 4;
  options.base.queue_capacity = 128;
  options.autoscale.min_shards = 1;
  options.autoscale.backlog_ms = 1.0;
  ASSERT_TRUE(options.AutoscaleEnabled());

  ServeReport report = ShardedEngine(options).Serve(csr, trace);

  // No request is lost to a scale decision.
  ASSERT_EQ(report.results.size(), trace.size());
  EXPECT_EQ(report.completed + report.rejected + report.timed_out, trace.size());

  // The saturating burst grew the fleet past the single seed shard...
  EXPECT_TRUE(report.autoscale_configured);
  ASSERT_FALSE(report.scale_events.empty());
  EXPECT_EQ(report.scale_events.front().from_level, 1u);
  EXPECT_GT(report.scale_events.front().to_level, 1u);
  // ...and the woken standbys actually served work.
  uint64_t standby_dispatches = 0;
  for (size_t i = 1; i < report.shard_stats.size(); ++i) {
    standby_dispatches += report.shard_stats[i].dispatches;
  }
  EXPECT_GE(standby_dispatches, 1u);

  const std::string metrics = report.metrics.RenderPrometheus();
  EXPECT_NE(metrics.find("serve_scale_events_total"), std::string::npos);
  EXPECT_NE(metrics.find("serve_shards_active"), std::string::npos);

  // Determinism: double runs render byte-identical reports, scale events
  // timestamped on the simulated clock included.
  ServeReport again = ShardedEngine(options).Serve(csr, trace);
  EXPECT_EQ(report.Render("autoscale"), again.Render("autoscale"));
  EXPECT_EQ(report.Json(), again.Json());
  EXPECT_EQ(report.metrics.RenderPrometheus(), again.metrics.RenderPrometheus());

  // Legacy byte-stability: the fixed fleet never renders the new vocabulary.
  ShardedOptions fixed = options;
  fixed.autoscale = {};
  ServeReport legacy = ShardedEngine(fixed).Serve(csr, trace);
  EXPECT_FALSE(legacy.autoscale_configured);
  EXPECT_EQ(legacy.Render("fleet").find("scale"), std::string::npos);
  EXPECT_EQ(legacy.metrics.RenderPrometheus().find("serve_shards_active"),
            std::string::npos);
}

}  // namespace
}  // namespace eta::serve

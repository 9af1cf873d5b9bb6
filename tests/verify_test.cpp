// Tests for etaverify (src/verify, DESIGN.md section 12): happens-before
// construction over the stream DAG log, every finding kind on hand-built
// DAGs, zero-cost/bit-identity of the disabled log, report determinism,
// and the serve-level contract — the green shards x faults x async matrix
// verifies clean with zero false positives while each surgically planted
// DAG bug (dropped ready wait, swapped Record/Wait, double pre-stage) is
// reported with exact attribution even though the answers stay green.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/framework.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "serve/router.hpp"
#include "serve/trace.hpp"
#include "sim/stream.hpp"
#include "verify/verify.hpp"

namespace eta {
namespace {

using sim::DagAccess;
using sim::Event;
using sim::Stream;
using sim::StreamOpKind;
using sim::StreamScheduler;
using verify::DagFinding;
using verify::DagFindingKind;
using verify::DagReport;
using verify::VerifyDag;

StreamScheduler::LaunchOutcome Ok(double ms) { return {ms, false}; }

size_t CountKind(const DagReport& rep, DagFindingKind kind) {
  size_t n = 0;
  for (const DagFinding& f : rep.findings) n += (f.kind == kind) ? 1 : 0;
  return n;
}

const DagFinding* FindKind(const DagReport& rep, DagFindingKind kind) {
  for (const DagFinding& f : rep.findings) {
    if (f.kind == kind) return &f;
  }
  return nullptr;
}

// The canonical healthy dispatch DAG: stage writes the buffers on the copy
// stream, an event orders the dispatch stream's waves behind it, the host
// joins everything at the end.
void BuildCleanDag(StreamScheduler& sched) {
  Stream copy = sched.CreateStream("copy");
  Stream dispatch = sched.CreateStream("dispatch");
  Event ready = sched.CreateEvent();
  const uint32_t topo = sched.RegisterAlloc("g0/topo");
  const uint32_t state = sched.RegisterAlloc("g0/state");
  sched.CopyAsync(copy, StreamOpKind::kCopyH2D, 2.0, "stage");
  sched.AnnotateLastOp({{topo, true}, {state, true}});
  sched.Record(copy, ready);
  sched.Wait(dispatch, ready);
  sched.LaunchAsync(dispatch, "wave", [](double) { return Ok(1.0); });
  sched.AnnotateLastOp({{topo, false}, {state, true}});
  sched.HostJoinAll();
}

// --- Happens-before unit checks -----------------------------------------------

TEST(EtaVerify, CleanDispatchDagVerifiesClean) {
  StreamScheduler sched;
  sched.EnableDagLog();
  BuildCleanDag(sched);
  const DagReport rep = VerifyDag(sched);
  EXPECT_TRUE(rep.Clean()) << rep.Render(true);
  EXPECT_EQ(rep.Count(), 0u);
  EXPECT_EQ(rep.ops_checked, 4u);  // stage, record, wait, wave
  EXPECT_EQ(rep.streams_checked, 2u);
  EXPECT_EQ(rep.allocs_checked, 2u);
  EXPECT_EQ(rep.events_checked, 1u);
  // Clean renders empty in quiet mode, a summary header in verbose mode.
  EXPECT_TRUE(rep.Render(false).empty());
  EXPECT_NE(rep.Render(true).find("0 finding(s)"), std::string::npos);
}

TEST(EtaVerify, DisabledLogIsTriviallyCleanAndCostFree) {
  StreamScheduler off;
  StreamScheduler on;
  on.EnableDagLog();
  EXPECT_EQ(off.RegisterAlloc("x"), DagAccess::kNoAlloc);
  for (StreamScheduler* sched : {&off, &on}) {
    Stream a = sched->CreateStream("a");
    Stream b = sched->CreateStream("b");
    Event e = sched->CreateEvent();
    sched->CopyAsync(a, StreamOpKind::kCopyH2D, 2.0, "stage");
    sched->Record(a, e);
    sched->Wait(b, e);
    sched->LaunchAsync(b, "wave", [](double) { return Ok(1.0); });
  }
  // The log is pure host-side bookkeeping: the schedule is bit-identical.
  ASSERT_EQ(off.Ops().size(), on.Ops().size());
  for (size_t i = 0; i < off.Ops().size(); ++i) {
    EXPECT_EQ(off.Ops()[i].kind, on.Ops()[i].kind);
    EXPECT_DOUBLE_EQ(off.Ops()[i].start_ms, on.Ops()[i].start_ms);
    EXPECT_DOUBLE_EQ(off.Ops()[i].end_ms, on.Ops()[i].end_ms);
  }
  EXPECT_TRUE(off.DagNodes().empty());
  EXPECT_FALSE(on.DagNodes().empty());
  const DagReport rep = VerifyDag(off);
  EXPECT_TRUE(rep.Clean());
  EXPECT_EQ(rep.ops_checked, 0u);
}

TEST(EtaVerify, DroppedReadyWaitReportsRacesAndUseBeforeReady) {
  StreamScheduler sched;
  sched.EnableDagLog();
  Stream copy = sched.CreateStream("copy");
  Stream dispatch = sched.CreateStream("dispatch");
  const uint32_t topo = sched.RegisterAlloc("g0/topo");
  const uint32_t state = sched.RegisterAlloc("g0/state");
  sched.CopyAsync(copy, StreamOpKind::kCopyH2D, 2.0, "stage");
  sched.AnnotateLastOp({{topo, true}, {state, true}});
  // No event edge: the wave happens to start after the copy only because
  // of engine timing — statically it races the staging write.
  sched.LaunchAsync(dispatch, "wave", [](double) { return Ok(1.0); });
  sched.AnnotateLastOp({{topo, false}, {state, true}});
  sched.HostJoinAll();

  const DagReport rep = VerifyDag(sched);
  ASSERT_FALSE(rep.Clean());
  const DagFinding* rw = FindKind(rep, DagFindingKind::kRaceReadWrite);
  ASSERT_NE(rw, nullptr) << rep.Render(true);
  EXPECT_EQ(rw->buffer, "g0/topo");
  EXPECT_EQ(rw->stream, "dispatch");
  EXPECT_EQ(rw->op, "wave");
  EXPECT_EQ(rw->peer_op, "stage");
  EXPECT_EQ(rw->peer_stream, "copy");
  const DagFinding* ww = FindKind(rep, DagFindingKind::kRaceWriteWrite);
  ASSERT_NE(ww, nullptr) << rep.Render(true);
  EXPECT_EQ(ww->buffer, "g0/state");
  const DagFinding* ubr = FindKind(rep, DagFindingKind::kUseBeforeReady);
  ASSERT_NE(ubr, nullptr) << rep.Render(true);
  EXPECT_EQ(ubr->buffer, "g0/topo");
  EXPECT_EQ(ubr->op, "wave");
}

TEST(EtaVerify, OrderedCrossStreamWritesDoNotRace) {
  StreamScheduler sched;
  sched.EnableDagLog();
  Stream a = sched.CreateStream("a");
  Stream b = sched.CreateStream("b");
  Event e = sched.CreateEvent();
  const uint32_t buf = sched.RegisterAlloc("buf");
  sched.CopyAsync(a, StreamOpKind::kCopyH2D, 1.0, "first");
  sched.AnnotateLastOp({{buf, true}});
  sched.Record(a, e);
  sched.Wait(b, e);
  sched.CopyAsync(b, StreamOpKind::kCopyH2D, 1.0, "second");
  sched.AnnotateLastOp({{buf, true}});
  sched.HostJoinAll();
  EXPECT_TRUE(VerifyDag(sched).Clean());
}

TEST(EtaVerify, UnorderedDoubleWriteReportsWriteWriteRace) {
  StreamScheduler sched;
  sched.EnableDagLog();
  Stream a = sched.CreateStream("a");
  Stream b = sched.CreateStream("b");
  const uint32_t buf = sched.RegisterAlloc("buf");
  sched.CopyAsync(a, StreamOpKind::kCopyH2D, 1.0, "first");
  sched.AnnotateLastOp({{buf, true}});
  sched.CopyAsync(b, StreamOpKind::kCopyH2D, 1.0, "second");
  sched.AnnotateLastOp({{buf, true}});
  sched.HostJoinAll();
  const DagReport rep = VerifyDag(sched);
  ASSERT_EQ(rep.findings.size(), 1u) << rep.Render(true);
  EXPECT_EQ(rep.findings[0].kind, DagFindingKind::kRaceWriteWrite);
  EXPECT_EQ(rep.findings[0].buffer, "buf");
  // Attributed to the later node, with the earlier write as its peer.
  EXPECT_EQ(rep.findings[0].op, "second");
  EXPECT_EQ(rep.findings[0].peer_op, "first");
}

TEST(EtaVerify, DistinctStagingEpochsNeverConflict) {
  // Evict/re-stage: the same graph staged twice registers fresh epoch
  // allocations, so the unordered copies are not a race.
  StreamScheduler sched;
  sched.EnableDagLog();
  Stream a = sched.CreateStream("a");
  Stream b = sched.CreateStream("b");
  const uint32_t epoch0 = sched.RegisterAlloc("g0#0/topo");
  const uint32_t epoch1 = sched.RegisterAlloc("g0#1/topo");
  sched.CopyAsync(a, StreamOpKind::kCopyH2D, 1.0, "stage#0");
  sched.AnnotateLastOp({{epoch0, true}});
  sched.CopyAsync(b, StreamOpKind::kCopyH2D, 1.0, "stage#1");
  sched.AnnotateLastOp({{epoch1, true}});
  sched.HostJoinAll();
  EXPECT_TRUE(VerifyDag(sched).Clean());
}

TEST(EtaVerify, WaitOnNeverRecordedEventIsReported) {
  StreamScheduler sched;
  sched.EnableDagLog();
  Stream a = sched.CreateStream("a");
  Event e = sched.CreateEvent();
  sched.Wait(a, e);
  sched.LaunchAsync(a, "wave", [](double) { return Ok(1.0); });
  sched.HostJoinAll();
  const DagReport rep = VerifyDag(sched);
  const DagFinding* f = FindKind(rep, DagFindingKind::kWaitUnrecorded);
  ASSERT_NE(f, nullptr) << rep.Render(true);
  EXPECT_EQ(f->stream, "a");
  EXPECT_NE(f->note.find("never recorded"), std::string::npos);
  EXPECT_EQ(CountKind(rep, DagFindingKind::kWaitCycle), 0u);
}

TEST(EtaVerify, SwappedRecordWaitPairIsDiagnosed) {
  StreamScheduler sched;
  sched.EnableDagLog();
  Stream copy = sched.CreateStream("copy");
  Stream dispatch = sched.CreateStream("dispatch");
  Event ready = sched.CreateEvent();
  // The author meant Record-then-Wait; the wait lands first, so the
  // "dependency" is a snapshot no-op and the later record is unordered
  // with respect to it.
  sched.Wait(dispatch, ready);
  sched.CopyAsync(copy, StreamOpKind::kCopyH2D, 2.0, "stage");
  sched.Record(copy, ready);
  sched.LaunchAsync(dispatch, "wave", [](double) { return Ok(1.0); });
  sched.HostJoinAll();
  const DagReport rep = VerifyDag(sched);
  const DagFinding* f = FindKind(rep, DagFindingKind::kWaitUnrecorded);
  ASSERT_NE(f, nullptr) << rep.Render(true);
  EXPECT_EQ(f->stream, "dispatch");
  EXPECT_EQ(f->peer_stream, "copy");  // the too-late record
  EXPECT_NE(f->note.find("swapped"), std::string::npos);
}

TEST(EtaVerify, WaitOrderedBeforeItsOnlyRecordIsADeadlock) {
  StreamScheduler sched;
  sched.EnableDagLog();
  Stream a = sched.CreateStream("a");
  Event e = sched.CreateEvent();
  // The wait precedes the only record *in program order on one stream*:
  // under blocking-wait semantics the wait can never be satisfied.
  sched.Wait(a, e);
  sched.Record(a, e);
  sched.HostJoinAll();
  const DagReport rep = VerifyDag(sched);
  const DagFinding* f = FindKind(rep, DagFindingKind::kWaitCycle);
  ASSERT_NE(f, nullptr) << rep.Render(true);
  EXPECT_EQ(f->stream, "a");
  // The cycle diagnosis supersedes the generic unrecorded-wait finding.
  EXPECT_EQ(CountKind(rep, DagFindingKind::kWaitUnrecorded), 0u);
}

TEST(EtaVerify, OrphanStreamIsReportedUntilJoined) {
  StreamScheduler sched;
  sched.EnableDagLog();
  Stream a = sched.CreateStream("a");
  sched.LaunchAsync(a, "tail", [](double) { return Ok(1.0); });
  {
    const DagReport rep = VerifyDag(sched);
    const DagFinding* f = FindKind(rep, DagFindingKind::kOrphanStream);
    ASSERT_NE(f, nullptr) << rep.Render(true);
    EXPECT_EQ(f->stream, "a");
    EXPECT_EQ(f->op, "tail");
  }
  sched.HostJoinAll();
  EXPECT_TRUE(VerifyDag(sched).Clean());
}

TEST(EtaVerify, CancelledOpsCarryNoAccesses) {
  StreamScheduler sched;
  sched.EnableDagLog();
  Stream copy = sched.CreateStream("copy");
  Stream dispatch = sched.CreateStream("dispatch");
  const uint32_t topo = sched.RegisterAlloc("g0/topo");
  sched.CopyAsync(copy, StreamOpKind::kCopyH2D, 2.0, "stage");
  sched.AnnotateLastOp({{topo, true}});
  sched.LaunchAsync(dispatch, "dies",
                    [](double) { return StreamScheduler::LaunchOutcome{1.0, true}; });
  // Cancelled: the functor never ran, so even though the wave *would*
  // have read the topology unordered, no access is recorded and no race
  // may be reported for it.
  sched.LaunchAsync(dispatch, "wave", [](double) { return Ok(1.0); });
  sched.HostJoinAll();
  const DagReport rep = VerifyDag(sched);
  EXPECT_EQ(CountKind(rep, DagFindingKind::kRaceReadWrite), 0u) << rep.Render(true);
}

TEST(EtaVerify, ReportsAggregateRenderAndMergeDeterministically) {
  auto build = [] {
    StreamScheduler sched;
    sched.EnableDagLog();
    Stream copy = sched.CreateStream("copy");
    Stream dispatch = sched.CreateStream("dispatch");
    const uint32_t topo = sched.RegisterAlloc("g0/topo");
    sched.CopyAsync(copy, StreamOpKind::kCopyH2D, 2.0, "stage");
    sched.AnnotateLastOp({{topo, true}});
    // Two identical racing waves: one finding, two occurrences.
    for (int i = 0; i < 2; ++i) {
      sched.LaunchAsync(dispatch, "wave", [](double) { return Ok(1.0); });
      sched.AnnotateLastOp({{topo, false}});
    }
    sched.HostJoinAll();
    return VerifyDag(sched);
  };
  const DagReport a = build();
  const DagReport b = build();
  const DagFinding* f = FindKind(a, DagFindingKind::kRaceReadWrite);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->occurrences, 2u);
  EXPECT_EQ(a.Render(true), b.Render(true));
  EXPECT_EQ(a.Json(), b.Json());
  EXPECT_NE(a.Render(false).find("========= etaverify:"), std::string::npos);
  EXPECT_NE(a.Json().find("\"findings_total\""), std::string::npos);
  // Merge re-aggregates duplicates instead of double-listing them.
  DagReport merged = a;
  merged.Merge(b);
  EXPECT_EQ(merged.findings.size(), a.findings.size());
  EXPECT_EQ(merged.Count(), a.Count() + b.Count());
  EXPECT_EQ(merged.ops_checked, a.ops_checked + b.ops_checked);
}

// --- Serve-level: green matrix clean, every plant reported --------------------

graph::Csr RandomGraph(uint64_t seed) {
  graph::RmatParams params;
  params.scale = 9;
  params.num_edges = 4000;
  params.seed = seed;
  graph::Csr csr = graph::BuildCsr(graph::GenerateRmat(params));
  csr.DeriveWeights(seed * 3 + 1);
  return csr;
}

struct MultiGraphCase {
  std::vector<graph::Csr> storage;
  std::vector<const graph::Csr*> graphs;
  std::vector<serve::Request> trace;
};

// The multi-graph saturating burst from stream_test — the workload whose
// evictions and pre-stages exercise every DAG edge the verifier models.
MultiGraphCase BuildMultiGraphCase() {
  MultiGraphCase c;
  c.storage.push_back(RandomGraph(41));
  c.storage.push_back(RandomGraph(42));
  c.storage.push_back(RandomGraph(43));
  uint32_t min_vertices = c.storage[0].NumVertices();
  for (const graph::Csr& g : c.storage) {
    c.graphs.push_back(&g);
    min_vertices = std::min(min_vertices, g.NumVertices());
  }
  serve::TraceOptions trace_options;
  trace_options.num_requests = 60;
  trace_options.mean_interarrival_ms = 0.01;
  trace_options.seed = 2;
  c.trace = serve::GenerateTrace(min_vertices, trace_options);
  for (size_t i = 0; i < c.trace.size(); ++i) {
    c.trace[i].graph_id = static_cast<uint32_t>(i % c.graphs.size());
  }
  return c;
}

void ExpectSameAnswers(const serve::ServeReport& a, const serve::ServeReport& b) {
  ASSERT_EQ(a.results.size(), b.results.size());
  for (size_t i = 0; i < a.results.size(); ++i) {
    ASSERT_EQ(a.results[i].id, b.results[i].id);
    EXPECT_EQ(a.results[i].status, b.results[i].status) << "request " << a.results[i].id;
    EXPECT_EQ(a.results[i].reached_vertices, b.results[i].reached_vertices)
        << "request " << a.results[i].id;
  }
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.degraded, b.degraded);
}

TEST(EtaVerifyServe, GreenMatrixVerifiesCleanAcrossShardsAndFaults) {
  const MultiGraphCase c = BuildMultiGraphCase();
  for (uint32_t shards : {1u, 2u}) {
    for (bool faults : {false, true}) {
      serve::ShardedOptions options;
      options.shards = shards;
      options.base.queue_capacity = c.trace.size();
      options.async_dispatch = true;
      options.base.graph.verify_dag = true;
      if (faults) {
        options.base.graph.faults.seed = 7;
        options.base.graph.faults.ecc_uncorrectable_rate = 0.05;
        options.base.graph.faults.device_loss_rate = 0.01;
      }
      const serve::ServeReport report =
          serve::ShardedEngine(options).ServeMany(c.graphs, c.trace);
      EXPECT_TRUE(report.verify.Clean())
          << "shards=" << shards << " faults=" << faults << "\n"
          << report.verify.Render(true);
      EXPECT_GT(report.verify.ops_checked, 0u);
    }
  }
}

TEST(EtaVerifyServe, PrestageOffFleetRecordsAndVerifiesItsDag) {
  // Every dispatch runs on streams whether or not prestaging is armed, so
  // a prestage-off fleet records a DAG too: cold staging copies, launch
  // waves, cancelled waves after faults, rebuild retries on fresh streams,
  // and re-stages after evictions under the residency budget.
  const MultiGraphCase c = BuildMultiGraphCase();
  serve::ShardedOptions options;
  options.shards = 2;
  options.base.queue_capacity = c.trace.size();
  options.base.graph.verify_dag = true;
  options.base.graph.faults.seed = 7;
  options.base.graph.faults.ecc_uncorrectable_rate = 0.05;
  options.base.graph.faults.device_loss_rate = 0.01;
  // Room for one graph and a half: the 3-graph round robin keeps evicting.
  options.device_mem_budget_bytes =
      core::ResidentGraph::EstimateDeviceBytes(*c.graphs[0], options.base.graph) * 3 / 2;
  const serve::ServeReport report = serve::ShardedEngine(options).ServeMany(c.graphs, c.trace);
  EXPECT_GT(report.verify.ops_checked, 0u);
  EXPECT_TRUE(report.verify.Clean()) << report.verify.Render(true);
  uint64_t evictions = 0;
  for (const serve::ShardStat& s : report.shard_stats) {
    evictions += s.evictions;
    EXPECT_EQ(s.prestages, 0u);
    EXPECT_EQ(s.overlap_ms, 0.0);  // staging never overlaps compute without prestaging
  }
  EXPECT_GT(evictions, 0u);
  EXPECT_GT(report.faults.launch_failures, 0u);
}

TEST(EtaVerifyServe, VerificationDoesNotPerturbTheSchedule) {
  const MultiGraphCase c = BuildMultiGraphCase();
  serve::ShardedOptions options;
  options.shards = 1;
  options.base.queue_capacity = c.trace.size();
  options.async_dispatch = true;
  const serve::ServeReport off = serve::ShardedEngine(options).ServeMany(c.graphs, c.trace);
  options.base.graph.verify_dag = true;
  const serve::ServeReport on = serve::ShardedEngine(options).ServeMany(c.graphs, c.trace);
  // Bit-identical serving output: the log is bookkeeping, not behavior.
  EXPECT_EQ(off.Render("fleet"), on.Render("fleet"));
  EXPECT_EQ(off.Json(), on.Json());
  EXPECT_TRUE(on.verify.Clean()) << on.verify.Render(true);
}

// Runs the multi-graph case with a surgical DAG plant. Every plant keeps
// the *dynamic* schedule and answers bit-identical to the healthy async
// run (the defect is invisible to replay diffs — timing luck); only the
// static verifier sees it.
serve::ServeReport RunPlanted(const MultiGraphCase& c,
                              serve::ShardedOptions::DagPlant plant,
                              const serve::ServeReport* healthy = nullptr) {
  serve::ShardedOptions options;
  options.shards = 1;
  options.base.queue_capacity = c.trace.size();
  options.async_dispatch = true;
  options.base.graph.verify_dag = true;
  options.plant = plant;
  serve::ServeReport report = serve::ShardedEngine(options).ServeMany(c.graphs, c.trace);
  if (healthy != nullptr) ExpectSameAnswers(*healthy, report);
  return report;
}

TEST(EtaVerifyServe, PlantedDroppedReadyWaitIsReported) {
  const MultiGraphCase c = BuildMultiGraphCase();
  const serve::ServeReport healthy =
      RunPlanted(c, serve::ShardedOptions::DagPlant::kNone);
  ASSERT_TRUE(healthy.verify.Clean()) << healthy.verify.Render(true);
  const serve::ServeReport report =
      RunPlanted(c, serve::ShardedOptions::DagPlant::kDropReadyWait, &healthy);
  ASSERT_FALSE(report.verify.Clean());
  // The wave reads topology the pre-stage copy writes, with the ordering
  // edge surgically removed: read/write race on the staged buffers plus a
  // consumer with no ordered staging write at all.
  const DagFinding* rw = FindKind(report.verify, DagFindingKind::kRaceReadWrite);
  ASSERT_NE(rw, nullptr) << report.verify.Render(true);
  EXPECT_NE(rw->buffer.find("/topo"), std::string::npos);
  EXPECT_NE(rw->peer_op.find("prestage"), std::string::npos);
  EXPECT_NE(FindKind(report.verify, DagFindingKind::kUseBeforeReady), nullptr)
      << report.verify.Render(true);
}

TEST(EtaVerifyServe, PlantedSwappedRecordWaitIsReported) {
  const MultiGraphCase c = BuildMultiGraphCase();
  const serve::ServeReport healthy =
      RunPlanted(c, serve::ShardedOptions::DagPlant::kNone);
  const serve::ServeReport report =
      RunPlanted(c, serve::ShardedOptions::DagPlant::kSwapRecordWait, &healthy);
  ASSERT_FALSE(report.verify.Clean());
  const DagFinding* f = FindKind(report.verify, DagFindingKind::kWaitUnrecorded);
  ASSERT_NE(f, nullptr) << report.verify.Render(true);
  EXPECT_NE(f->note.find("swapped"), std::string::npos);
}

TEST(EtaVerifyServe, PlantedDoublePrestageIsReported) {
  const MultiGraphCase c = BuildMultiGraphCase();
  const serve::ServeReport healthy =
      RunPlanted(c, serve::ShardedOptions::DagPlant::kNone);
  const serve::ServeReport report =
      RunPlanted(c, serve::ShardedOptions::DagPlant::kDoublePrestage, &healthy);
  ASSERT_FALSE(report.verify.Clean());
  // Two unordered writes of one topology buffer (the duplicate copy races
  // the real pre-stage), attributed to the dup op.
  const DagFinding* ww = FindKind(report.verify, DagFindingKind::kRaceWriteWrite);
  ASSERT_NE(ww, nullptr) << report.verify.Render(true);
  EXPECT_NE(ww->buffer.find("/topo"), std::string::npos);
  EXPECT_NE(ww->op.find("dup"), std::string::npos);
}

// The report's snprintf-into-string helper retries past its 512-byte stack
// buffer: op and buffer labels longer than the buffer survive
// Message/Render/Json untruncated.
TEST(DagReport, LongLabelsRenderUntruncated) {
  const std::string long_op(700, 'o');
  const std::string long_buffer(650, 'a');
  DagFinding f;
  f.kind = DagFindingKind::kRaceWriteWrite;
  f.stream = "s0";
  f.op = long_op;
  f.op_index = 1;
  f.buffer = long_buffer;
  f.peer_stream = "s1";
  f.peer_op = "peer";
  f.peer_index = 2;
  EXPECT_NE(f.Message().find(long_op), std::string::npos);
  EXPECT_NE(f.Message().find(long_buffer), std::string::npos);

  DagReport report;
  report.findings.push_back(f);
  report.ops_checked = 2;
  EXPECT_NE(report.Render().find(long_op), std::string::npos);
  EXPECT_NE(report.Json().find(long_op), std::string::npos);
  EXPECT_NE(report.Json().find(long_buffer), std::string::npos);
}

}  // namespace
}  // namespace eta

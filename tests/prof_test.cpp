// Tests for etaprof (DESIGN.md section 9): per-launch kernel profiling
// (recording, reconciliation against query totals, fault annotations, the
// zero-cost off-by-default contract), the nvprof-style summary aggregation,
// and the Chrome trace-event exporter (round-trip parse, determinism, span
// merging across serve and device clocks).
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/framework.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "prof/summary.hpp"
#include "prof/trace_export.hpp"
#include "serve/engine.hpp"
#include "serve/trace.hpp"
#include "sim/fault.hpp"
#include "sim/profiler.hpp"
#include "util/json.hpp"

namespace eta {
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

core::RunReport ProfiledRun(const graph::Csr& csr, core::Algo algo) {
  core::EtaGraphOptions options;
  options.profile = true;
  return core::EtaGraph(options).Run(csr, algo, 0);
}

// --- Recording ----------------------------------------------------------------

TEST(LaunchProfiler, RecordsEveryLaunchAndReconciles) {
  graph::Csr csr = RandomGraph(21);
  auto report = ProfiledRun(csr, core::Algo::kBfs);
  ASSERT_FALSE(report.oom);
  ASSERT_FALSE(report.kernel_profiles.empty());
  EXPECT_EQ(report.kernel_profiles.size(), report.query_counters.launches);

  uint64_t warp_instructions = 0;
  double cycles = 0;
  double kernel_ms = 0;
  uint64_t index = 0;
  for (const sim::KernelProfile& p : report.kernel_profiles) {
    EXPECT_EQ(p.launch_index, ++index);  // 1-based, dense
    EXPECT_FALSE(p.name.empty());
    EXPECT_GT(p.grid_threads, 0u);
    EXPECT_GT(p.block_size, 0u);
    EXPECT_GE(p.end_ms, p.start_ms);
    EXPECT_TRUE(p.Ok());
    EXPECT_EQ(p.counters.launches, 1u);
    warp_instructions += p.counters.warp_instructions;
    cycles += p.counters.elapsed_cycles;
    kernel_ms += p.DurationMs();
  }
  // The profiles tile the query: summed per-launch deltas equal the totals.
  EXPECT_EQ(warp_instructions, report.query_counters.warp_instructions);
  EXPECT_NEAR(cycles, report.query_counters.elapsed_cycles, 1e-6);
  EXPECT_NEAR(kernel_ms, report.kernel_ms, 1e-6);
}

TEST(LaunchProfiler, OffByDefaultAndBitIdentical) {
  graph::Csr csr = RandomGraph(22);
  auto off = core::EtaGraph().Run(csr, core::Algo::kSssp, 0);
  auto on = ProfiledRun(csr, core::Algo::kSssp);
  EXPECT_TRUE(off.kernel_profiles.empty());
  // Host-side recording only: the simulated run must not notice.
  EXPECT_EQ(off.total_ms, on.total_ms);
  EXPECT_EQ(off.kernel_ms, on.kernel_ms);
  EXPECT_EQ(off.labels, on.labels);
  EXPECT_EQ(off.counters.elapsed_cycles, on.counters.elapsed_cycles);
  EXPECT_EQ(off.counters.warp_instructions, on.counters.warp_instructions);
}

TEST(LaunchProfiler, FailedLaunchesAppearWithFaultStatus) {
  graph::Csr csr = RandomGraph(23);
  core::EtaGraphOptions options;
  options.profile = true;
  options.faults.uecc_at = 2;  // second launch dies with an uncorrectable ECC
  auto report = core::EtaGraph(options).Run(csr, core::Algo::kBfs, 0);
  ASSERT_FALSE(report.oom);
  ASSERT_GE(report.kernel_profiles.size(), 2u);

  const sim::KernelProfile& failed = report.kernel_profiles[1];
  EXPECT_FALSE(failed.Ok());
  EXPECT_EQ(failed.status, sim::LaunchStatus::kEccUncorrectable);
  EXPECT_FALSE(failed.fault_buffer.empty());
  // An aborted launch executes no warps: its counter delta is all zero.
  EXPECT_EQ(failed.counters.warp_instructions, 0u);
  EXPECT_EQ(failed.counters.elapsed_cycles, 0);
  // Successful profiles still reconcile with the query totals (which count
  // only completed work).
  uint64_t ok_launches = 0;
  for (const sim::KernelProfile& p : report.kernel_profiles) ok_launches += p.Ok();
  EXPECT_EQ(ok_launches, report.query_counters.launches);
}

// --- Summary ------------------------------------------------------------------

TEST(KernelSummary, AggregatesByNameSortedByTotalTime) {
  graph::Csr csr = RandomGraph(24);
  auto report = ProfiledRun(csr, core::Algo::kBfs);
  auto rows = prof::SummarizeKernels(report.kernel_profiles);
  ASSERT_FALSE(rows.empty());

  uint64_t calls = 0;
  double total_ms = 0;
  double pct = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    calls += rows[i].calls;
    total_ms += rows[i].total_ms;
    pct += rows[i].time_pct;
    EXPECT_LE(rows[i].min_ms, rows[i].avg_ms);
    EXPECT_LE(rows[i].avg_ms, rows[i].max_ms);
    if (i > 0) {
      EXPECT_GE(rows[i - 1].total_ms, rows[i].total_ms);
    }
  }
  EXPECT_EQ(calls, report.kernel_profiles.size());
  EXPECT_NEAR(total_ms, report.kernel_ms, 1e-6);
  EXPECT_NEAR(pct, 100.0, 1e-6);

  const std::string table = prof::RenderKernelSummary(report.kernel_profiles, "t");
  EXPECT_NE(table.find("Kernel"), std::string::npos);
  EXPECT_NE(table.find(rows[0].name), std::string::npos);
}

TEST(KernelSummary, EmptyInputRendersEmptyTable) {
  auto rows = prof::SummarizeKernels({});
  EXPECT_TRUE(rows.empty());
}

// --- Trace export -------------------------------------------------------------

std::vector<prof::TraceSpan> DeviceSpans(const core::RunReport& report) {
  std::vector<prof::TraceSpan> spans;
  prof::AppendTimelineSpans(report.timeline, "device", 0, &spans);
  prof::AppendKernelSpans(report.kernel_profiles, "device", 0, &spans);
  return spans;
}

TEST(TraceExport, RoundTripsThroughJsonParse) {
  graph::Csr csr = RandomGraph(25);
  auto report = ProfiledRun(csr, core::Algo::kBfs);
  auto spans = DeviceSpans(report);
  ASSERT_FALSE(spans.empty());

  const std::string json =
      prof::RenderChromeTrace(spans, {{"dataset", "rmat-test"}});
  std::string error;
  auto doc = util::JsonParse(json, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  ASSERT_TRUE(doc->IsObject());

  const util::JsonValue* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->IsArray());
  // Metadata events (process/thread names) + one X event per span.
  size_t x_events = 0;
  for (const util::JsonValue& e : events->array) {
    const util::JsonValue* ph = e.Find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->string == "X") {
      ++x_events;
      EXPECT_NE(e.Find("name"), nullptr);
      EXPECT_NE(e.Find("ts"), nullptr);
      EXPECT_NE(e.Find("dur"), nullptr);
      EXPECT_GE(e.Find("dur")->number, 0.0);
    } else {
      EXPECT_EQ(ph->string, "M");
    }
  }
  EXPECT_EQ(x_events, spans.size());

  const util::JsonValue* other = doc->Find("otherData");
  ASSERT_NE(other, nullptr);
  ASSERT_NE(other->Find("dataset"), nullptr);
  EXPECT_EQ(other->Find("dataset")->string, "rmat-test");
}

TEST(TraceExport, DeterministicAcrossIdenticalRuns) {
  graph::Csr csr = RandomGraph(26);
  auto a = ProfiledRun(csr, core::Algo::kSssp);
  auto b = ProfiledRun(csr, core::Algo::kSssp);
  EXPECT_EQ(prof::RenderChromeTrace(DeviceSpans(a)),
            prof::RenderChromeTrace(DeviceSpans(b)));
}

TEST(TraceExport, OffsetShiftsSpansOntoCallerClock) {
  graph::Csr csr = RandomGraph(27);
  auto report = ProfiledRun(csr, core::Algo::kBfs);
  std::vector<prof::TraceSpan> base;
  std::vector<prof::TraceSpan> shifted;
  prof::AppendKernelSpans(report.kernel_profiles, "device", 0, &base);
  prof::AppendKernelSpans(report.kernel_profiles, "device", 10.5, &shifted);
  ASSERT_EQ(base.size(), shifted.size());
  for (size_t i = 0; i < base.size(); ++i) {
    EXPECT_DOUBLE_EQ(shifted[i].start_ms, base[i].start_ms + 10.5);
    EXPECT_DOUBLE_EQ(shifted[i].end_ms, base[i].end_ms + 10.5);
  }
}

TEST(TraceExport, EscapesSpanNames) {
  std::vector<prof::TraceSpan> spans;
  spans.push_back({"device/compute", "ker\"nel\n\\x", 0.0, 1.0, {}});
  const std::string json = prof::RenderChromeTrace(spans, {{"data\"set", "a\\b"}});
  std::string error;
  auto doc = util::JsonParse(json, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const util::JsonValue* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  bool found = false;
  for (const util::JsonValue& e : events->array) {
    const util::JsonValue* name = e.Find("name");
    if (name != nullptr && name->string == "ker\"nel\n\\x") found = true;
  }
  EXPECT_TRUE(found);
  ASSERT_NE(doc->Find("otherData"), nullptr);
  EXPECT_EQ(doc->Find("otherData")->Find("data\"set")->string, "a\\b");
}

// --- Serve-layer merge --------------------------------------------------------

TEST(TraceExport, ServeReplayMergesQueueBatcherAndDeviceSpans) {
  graph::Csr csr = RandomGraph(28);
  serve::ServeOptions options;
  options.mode = serve::ServeMode::kSessionBatched;
  options.graph.profile = true;

  serve::TraceOptions trace_options;
  trace_options.num_requests = 16;
  trace_options.seed = 5;
  auto trace = serve::GenerateTrace(csr.NumVertices(), trace_options);

  serve::ServeEngine engine(options);
  auto report = engine.Serve(csr, trace);
  ASSERT_FALSE(report.trace_spans.empty());

  bool has_serve = false;
  bool has_device_kernel = false;
  for (const prof::TraceSpan& s : report.trace_spans) {
    if (s.track.rfind("serve/", 0) == 0) has_serve = true;
    if (s.track == "shard0/kernels") has_device_kernel = true;
    EXPECT_GE(s.end_ms, s.start_ms);
    EXPECT_GE(s.start_ms, 0.0);
  }
  EXPECT_TRUE(has_serve);
  EXPECT_TRUE(has_device_kernel);

  const std::string json = prof::RenderChromeTrace(report.trace_spans);
  std::string error;
  EXPECT_TRUE(util::JsonParse(json, &error).has_value()) << error;

  // Profiling off: no spans are collected.
  serve::ServeOptions plain = options;
  plain.graph.profile = false;
  auto unprofiled = serve::ServeEngine(plain).Serve(csr, trace);
  EXPECT_TRUE(unprofiled.trace_spans.empty());
  // And the replay itself is unchanged (zero-cost contract at serve level).
  EXPECT_EQ(unprofiled.makespan_ms, report.makespan_ms);
  EXPECT_EQ(unprofiled.completed, report.completed);
}

// The exporter's snprintf-into-string helper retries past its 512-byte
// stack buffer: a span name longer than the buffer survives the rendered
// Chrome trace untruncated, and the document still parses.
TEST(ChromeTrace, LongSpanNameRendersUntruncated) {
  const std::string long_name(700, 'k');
  std::vector<prof::TraceSpan> spans;
  prof::TraceSpan s;
  s.track = "device/compute";
  s.name = long_name;
  s.start_ms = 0;
  s.end_ms = 1.5;
  spans.push_back(s);

  const std::string json = prof::RenderChromeTrace(spans);
  EXPECT_NE(json.find(long_name), std::string::npos);
  std::string error;
  auto doc = util::JsonParse(json, &error);
  EXPECT_TRUE(doc.has_value()) << error;
}

}  // namespace
}  // namespace eta

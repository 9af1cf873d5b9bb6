// End-to-end smoke tests: EtaGraph (all memory modes, SMP on/off) against
// the CPU references on small deterministic graphs.
#include <gtest/gtest.h>

#include "core/framework.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"

namespace eta::core {
namespace {

graph::Csr SmallSocialGraph() {
  graph::RmatParams params;
  params.scale = 10;
  params.num_edges = 8000;
  params.seed = 3;
  graph::Csr csr = graph::BuildCsr(graph::GenerateRmat(params));
  csr.DeriveWeights(99);
  return csr;
}

class EtaGraphSmoke : public ::testing::TestWithParam<std::tuple<Algo, bool, MemoryMode>> {};

TEST_P(EtaGraphSmoke, MatchesCpuReference) {
  auto [algo, smp, mode] = GetParam();
  graph::Csr csr = SmallSocialGraph();
  EtaGraphOptions options;
  options.use_smp = smp;
  options.memory_mode = mode;
  EtaGraph framework(options);
  RunReport report = framework.Run(csr, algo, /*source=*/0);
  ASSERT_FALSE(report.oom);
  auto expected = CpuReference(csr, algo, 0);
  ASSERT_EQ(report.labels.size(), expected.size());
  for (size_t v = 0; v < expected.size(); ++v) {
    ASSERT_EQ(report.labels[v], expected[v]) << "vertex " << v;
  }
  EXPECT_GT(report.iterations, 0u);
  EXPECT_GT(report.total_ms, 0.0);
  EXPECT_GT(report.kernel_ms, 0.0);
  EXPECT_LE(report.kernel_ms, report.total_ms + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, EtaGraphSmoke,
    ::testing::Combine(::testing::Values(Algo::kBfs, Algo::kSssp, Algo::kSswp),
                       ::testing::Values(true, false),
                       ::testing::Values(MemoryMode::kUnifiedPrefetch,
                                         MemoryMode::kUnifiedOnDemand,
                                         MemoryMode::kExplicitCopy,
                                         MemoryMode::kChunkedStream)));

TEST(ChunkedStream, TransfersWholeChunksAndWastes) {
  graph::Csr csr = SmallSocialGraph();
  EtaGraphOptions options;
  options.memory_mode = MemoryMode::kChunkedStream;
  options.stream_chunk_bytes = 4096;
  RunReport chunked = EtaGraph(options).Run(csr, Algo::kBfs, 0);
  ASSERT_FALSE(chunked.oom);
  // Whole-chunk granularity: transfers are a multiple of the chunk size and
  // at least cover the traversed adjacency.
  EXPECT_GT(chunked.migrated_bytes, 0u);
  EXPECT_EQ(chunked.migrated_bytes % options.stream_chunk_bytes, 0u);

  options.memory_mode = MemoryMode::kUnifiedOnDemand;
  RunReport um = EtaGraph(options).Run(csr, Algo::kBfs, 0);
  EXPECT_EQ(chunked.labels, um.labels);
}

TEST(ChunkedStream, ReStreamsUnderWindowPressure) {
  graph::Csr csr = SmallSocialGraph();
  EtaGraphOptions options;
  options.memory_mode = MemoryMode::kChunkedStream;
  options.stream_chunk_bytes = 4096;
  // A tiny device forces a small window: chunks evict and re-stream, so the
  // total streamed volume exceeds the topology size.
  options.spec.device_memory_bytes = 320 * 1024;
  RunReport r = EtaGraph(options).Run(csr, Algo::kSssp, 0);
  ASSERT_FALSE(r.oom);
  EXPECT_EQ(r.labels, CpuReference(csr, Algo::kSssp, 0));
}

void ExpectSameSpans(std::span<const sim::Span> a, std::span<const sim::Span> b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind) << "span " << i;
    EXPECT_EQ(a[i].start_ms, b[i].start_ms) << "span " << i;
    EXPECT_EQ(a[i].end_ms, b[i].end_ms) << "span " << i;
    EXPECT_EQ(a[i].label, b[i].label) << "span " << i;
  }
}

// A session query's report carries only the spans recorded since the
// previous report, so the reports' timelines concatenate to the session's;
// a one-shot run still carries its device's whole timeline.
TEST(ResidentGraphTimeline, EachReportCarriesItsOwnSlice) {
  graph::Csr csr = SmallSocialGraph();
  EtaGraphOptions options;
  options.memory_mode = MemoryMode::kExplicitCopy;  // staging records spans
  ResidentGraph session(csr, options, /*stage_weights=*/true);
  ASSERT_GT(session.LoadMs(), 0.0);
  std::vector<RunReport> reports;
  reports.push_back(session.Run(Algo::kBfs, 0));
  reports.push_back(session.Run(Algo::kSssp, 5));
  reports.push_back(session.RunConnectedComponents());
  reports.push_back(session.Run(Algo::kSswp, 17));

  std::vector<sim::Span> concatenated;
  for (const RunReport& r : reports) {
    ASSERT_FALSE(r.timeline.Spans().empty());
    concatenated.insert(concatenated.end(), r.timeline.Spans().begin(),
                        r.timeline.Spans().end());
  }
  ExpectSameSpans(concatenated, session.SessionTimeline().Spans());

  // The first report opens with the staging spans; later ones start after
  // the query before them ended.
  EXPECT_LE(reports[0].timeline.Spans().front().end_ms, session.LoadMs());
  for (size_t q = 1; q < reports.size(); ++q) {
    for (const sim::Span& span : reports[q].timeline.Spans()) {
      EXPECT_GE(span.start_ms, reports[q - 1].total_ms) << "query " << q;
    }
  }

  RunReport one_shot = EtaGraph(options).Run(csr, Algo::kBfs, 0);
  ResidentGraph single(csr, options, /*stage_weights=*/false);
  single.Run(Algo::kBfs, 0);
  ExpectSameSpans(one_shot.timeline.Spans(), single.SessionTimeline().Spans());
  EXPECT_EQ(one_shot.timeline.Spans().front().start_ms, 0.0);
}

}  // namespace
}  // namespace eta::core

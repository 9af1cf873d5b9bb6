// Google-benchmark microbenchmarks of the simulator substrate itself —
// host-side performance of the pieces every experiment leans on (cache
// probes, sector dedup, coalesced vs scattered gathers, warp atomics, UDC
// transform, R-MAT generation, CSR construction, a deep session query). These track the *simulator's* speed, not simulated
// GPU time; they exist so regressions in the hot paths show up.
#include <benchmark/benchmark.h>

#include <numeric>

#include "core/framework.hpp"
#include "core/udc.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "sim/cache.hpp"
#include "sim/device.hpp"
#include "util/rng.hpp"

namespace {

using namespace eta;

void BM_CacheAccess(benchmark::State& state) {
  sim::SectorCache cache(48 * util::kKiB, 4);
  util::SplitMix64 rng(1);
  uint64_t sector = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Access(sector));
    sector = rng.NextBounded(1 << 16);
  }
}
BENCHMARK(BM_CacheAccess);

void BM_GatherContiguous(benchmark::State& state) {
  sim::Device device;
  auto buf = device.Alloc<uint32_t>(1 << 20, sim::MemKind::kDevice, "data");
  for (auto _ : state) {
    device.Launch("k", {1 << 14}, [&](sim::WarpCtx& w) {
      sim::LaneArray<uint32_t> out{};
      w.GatherContiguous(buf, w.WarpId() * 32, w.ActiveMask(), out);
    });
  }
  state.SetItemsProcessed(state.iterations() * (1 << 14));
}
BENCHMARK(BM_GatherContiguous);

void BM_GatherScattered(benchmark::State& state) {
  sim::Device device;
  auto buf = device.Alloc<uint32_t>(1 << 20, sim::MemKind::kDevice, "data");
  for (auto _ : state) {
    device.Launch("k", {1 << 14}, [&](sim::WarpCtx& w) {
      sim::LaneArray<uint64_t> idx{};
      for (uint32_t lane = 0; lane < 32; ++lane) {
        idx[lane] = (w.GlobalThread(lane) * 2654435761u) & ((1 << 20) - 1);
      }
      sim::LaneArray<uint32_t> out{};
      w.Gather(buf, idx, w.ActiveMask(), out);
    });
  }
  state.SetItemsProcessed(state.iterations() * (1 << 14));
}
BENCHMARK(BM_GatherScattered);

// Sector dedup alone, on addresses made at run time: a contiguous warp
// (the ascending fast path) and a scattered one (the hash-set path).
void CoalesceBench(benchmark::State& state, uint64_t stride) {
  std::vector<sim::LaneArray<uint64_t>> warps(256);
  util::SplitMix64 rng(5);
  for (auto& addrs : warps) {
    uint64_t base = (1 << 20) + rng.NextBounded(1 << 24) * 4;
    for (uint32_t lane = 0; lane < 32; ++lane) {
      addrs[lane] = stride == 0 ? (1 << 20) + rng.NextBounded(1 << 24) * 4 : base + lane * stride;
    }
  }
  uint64_t sectors[32];
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::internal::CoalesceSectors(warps[i++ & 255], sim::kFullMask, sectors));
    benchmark::ClobberMemory();
  }
}
void BM_CoalesceAscending(benchmark::State& state) { CoalesceBench(state, 4); }
BENCHMARK(BM_CoalesceAscending);
void BM_CoalesceScattered(benchmark::State& state) { CoalesceBench(state, 0); }
BENCHMARK(BM_CoalesceScattered);

// A warp-wide AtomicAdd where every lane hits one cursor (frontier append)
// versus one element per lane: the serialization count is the difference.
void AtomicAddBench(benchmark::State& state, bool same_address) {
  sim::Device device;
  auto buf = device.Alloc<uint32_t>(1 << 16, sim::MemKind::kDevice, "data");
  for (auto _ : state) {
    device.Launch("k", {1 << 14}, [&](sim::WarpCtx& w) {
      sim::LaneArray<uint64_t> idx{};
      sim::LaneArray<uint32_t> one{};
      one.fill(1);
      if (!same_address) {
        for (uint32_t lane = 0; lane < 32; ++lane) idx[lane] = w.GlobalThread(lane) & 0xffff;
      }
      sim::LaneArray<uint32_t> old{};
      w.AtomicAdd(buf, idx, one, w.ActiveMask(), old);
    });
  }
  state.SetItemsProcessed(state.iterations() * (1 << 14));
}
void BM_AtomicAddSameAddress(benchmark::State& state) { AtomicAddBench(state, true); }
BENCHMARK(BM_AtomicAddSameAddress);
void BM_AtomicAddDistinct(benchmark::State& state) { AtomicAddBench(state, false); }
BENCHMARK(BM_AtomicAddDistinct);

void BM_GatherBulkK16(benchmark::State& state) {
  sim::Device device;
  auto buf = device.Alloc<uint32_t>(1 << 20, sim::MemKind::kDevice, "data");
  for (auto _ : state) {
    device.Launch("k", {1 << 12}, [&](sim::WarpCtx& w) {
      sim::LaneArray<uint64_t> start{};
      sim::LaneArray<uint32_t> count{};
      for (uint32_t lane = 0; lane < 32; ++lane) {
        start[lane] = (w.GlobalThread(lane) * 16) & ((1 << 20) - 1 - 16);
        count[lane] = 16;
      }
      uint32_t out[32 * 16];
      w.GatherBulk(buf, start, count, w.ActiveMask(), out, 16);
    });
  }
  state.SetItemsProcessed(state.iterations() * (1 << 12) * 16);
}
BENCHMARK(BM_GatherBulkK16);

void BM_UdcTransform(benchmark::State& state) {
  graph::RmatParams params;
  params.scale = 16;
  params.num_edges = 1 << 20;
  graph::Csr csr = graph::BuildCsr(graph::GenerateRmat(params));
  std::vector<graph::VertexId> active(csr.NumVertices());
  std::iota(active.begin(), active.end(), 0u);
  for (auto _ : state) {
    auto shadows = core::TransformActiveSet(csr, active, 16);
    benchmark::DoNotOptimize(shadows.data());
  }
  state.SetItemsProcessed(state.iterations() * csr.NumVertices());
}
BENCHMARK(BM_UdcTransform);

void BM_RmatGenerate(benchmark::State& state) {
  for (auto _ : state) {
    graph::RmatParams params;
    params.scale = 16;
    params.num_edges = 1 << 18;
    auto edges = graph::GenerateRmat(params);
    benchmark::DoNotOptimize(edges.data());
  }
  state.SetItemsProcessed(state.iterations() * (1 << 18));
}
BENCHMARK(BM_RmatGenerate);

void BM_BuildCsr(benchmark::State& state) {
  graph::RmatParams params;
  params.scale = 16;
  params.num_edges = 1 << 18;
  auto edges = graph::GenerateRmat(params);
  for (auto _ : state) {
    auto copy = edges;
    auto csr = graph::BuildCsr(std::move(copy));
    benchmark::DoNotOptimize(csr.NumEdges());
  }
  state.SetItemsProcessed(state.iterations() * (1 << 18));
}
BENCHMARK(BM_BuildCsr);

// A query deep into a long ResidentGraph session: its host cost must not
// grow with the number of queries before it (each report carries only its
// own timeline slice).
void BM_ResidentGraphQuery1000(benchmark::State& state) {
  graph::RmatParams params;
  params.scale = 10;
  params.num_edges = 1 << 13;
  graph::Csr csr = graph::BuildCsr(graph::GenerateRmat(params));
  core::ResidentGraph session(csr);
  for (uint32_t q = 0; q < 999; ++q) session.Run(core::Algo::kBfs, q % csr.NumVertices());
  graph::VertexId source = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.Run(core::Algo::kBfs, source).total_ms);
    source = (source + 1) % csr.NumVertices();
  }
}
BENCHMARK(BM_ResidentGraphQuery1000);

void BM_UnifiedMemoryTouch(benchmark::State& state) {
  sim::DeviceSpec spec;
  sim::UnifiedMemory um(spec);
  um.SetDeviceBudget(spec.device_memory_bytes);
  um.Register(1 << 22, 64 * util::kMiB);
  util::SplitMix64 rng(3);
  for (auto _ : state) {
    uint64_t addr = (1 << 22) + rng.NextBounded(64 * util::kMiB);
    benchmark::DoNotOptimize(um.Touch(addr, false, 0.0));
  }
}
BENCHMARK(BM_UnifiedMemoryTouch);

}  // namespace

BENCHMARK_MAIN();

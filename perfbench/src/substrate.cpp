#include "substrate.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ranges>

#include "graph/io.hpp"
#include "sim/cache.hpp"
#include "sim/device.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace sim = eta::sim;
namespace util = eta::util;

namespace {

constexpr int kRepetitions = 5;
constexpr uint64_t kBufferWords = 1 << 20;
constexpr uint64_t kThreads = 1 << 14;  // 512 warps per launch
constexpr uint64_t kWarps = kThreads / sim::kWarpSize;

double MedianOf(std::vector<double> v) {
  std::ranges::sort(v);
  return v[v.size() / 2];
}

/// Median over repetitions of host ns per unit of `body`.
template <typename F>
double NsPerUnit(uint64_t units, F&& body) {
  std::vector<double> ns;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    body();
    const auto t1 = std::chrono::steady_clock::now();
    ns.push_back(std::chrono::duration<double, std::nano>(t1 - t0).count() /
                 static_cast<double>(units));
  }
  return MedianOf(ns);
}

/// A scattered-gather launch over `buf` (one random word per lane).
void ScatteredLaunch(sim::Device& device, const sim::Buffer<uint32_t>& buf) {
  device.Launch("probe_gather", {kThreads}, [&](sim::WarpCtx& w) {
    sim::LaneArray<uint64_t> idx{};
    for (uint32_t lane = 0; lane < sim::kWarpSize; ++lane) {
      idx[lane] = (w.GlobalThread(lane) * 2654435761u) & (kBufferWords - 1);
    }
    sim::LaneArray<uint32_t> out{};
    w.Gather(buf, idx, w.ActiveMask(), out);
  });
}

}  // namespace

std::vector<Metric> ProbeSubstrate(SpanRecorder& spans) {
  auto span = spans.Open("sim.probe");
  std::vector<Metric> m;

  constexpr uint64_t kAccesses = 1 << 20;
  sim::SectorCache cache(48 * util::kKiB, 4);
  m.push_back({"sim.cache_access_ns", NsPerUnit(kAccesses, [&] {
                 util::SplitMix64 rng(1);
                 for (uint64_t i = 0; i < kAccesses; ++i) cache.Access(rng.NextBounded(1 << 16));
               }),
               "ns"});

  sim::Device device;
  const auto dev = device.Alloc<uint32_t>(kBufferWords, sim::MemKind::kDevice, "probe_dev");
  m.push_back({"sim.gather_contiguous_ns", NsPerUnit(kWarps, [&] {
                 device.Launch("probe_contiguous", {kThreads}, [&](sim::WarpCtx& w) {
                   sim::LaneArray<uint32_t> out{};
                   w.GatherContiguous(dev, w.WarpId() * sim::kWarpSize, w.ActiveMask(), out);
                 });
               }),
               "ns"});
  m.push_back({"sim.gather_scattered_ns",
               NsPerUnit(kWarps, [&] { ScatteredLaunch(device, dev); }), "ns"});

  constexpr uint32_t kBulk = 16;
  m.push_back({"sim.gather_bulk_ns", NsPerUnit(kWarps, [&] {
                 device.Launch("probe_bulk", {kThreads}, [&](sim::WarpCtx& w) {
                   sim::LaneArray<uint64_t> start{};
                   sim::LaneArray<uint32_t> count{};
                   for (uint32_t lane = 0; lane < sim::kWarpSize; ++lane) {
                     start[lane] = (w.GlobalThread(lane) * kBulk) & (kBufferWords - 1 - kBulk);
                     count[lane] = kBulk;
                   }
                   uint32_t out[sim::kWarpSize * kBulk];
                   w.GatherBulk(dev, start, count, w.ActiveMask(), out, kBulk);
                 });
               }),
               "ns"});

  // The scattered gather again on a managed buffer; the first launch
  // migrates its pages, so the timed launches measure the resident UM path.
  const auto um = device.Alloc<uint32_t>(kBufferWords, sim::MemKind::kUnified, "probe_um");
  ScatteredLaunch(device, um);
  m.push_back({"sim.gather_um_ns", NsPerUnit(kWarps, [&] { ScatteredLaunch(device, um); }),
               "ns"});
  return m;
}

Metric ProbeGrRoundTrip(const eta::graph::Csr& csr, const std::string& path,
                        SpanRecorder& spans, bool* equal) {
  const auto t0 = std::chrono::steady_clock::now();
  eta::graph::Csr back;
  {
    auto span = spans.Open("graph.gr_roundtrip");
    eta::graph::WriteGaloisGr(csr, path);
    back = eta::graph::ReadGaloisGr(path);
  }
  const auto t1 = std::chrono::steady_clock::now();
  std::remove(path.c_str());
  *equal = std::ranges::equal(back.RowOffsets(), csr.RowOffsets()) &&
           std::ranges::equal(back.ColIndices(), csr.ColIndices()) &&
           std::ranges::equal(back.Weights(), csr.Weights());
  return {"graph.gr_roundtrip_ms",
          std::chrono::duration<double, std::milli>(t1 - t0).count(), "ms"};
}

}  // namespace perfbench

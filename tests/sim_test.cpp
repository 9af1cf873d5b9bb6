// Tests for the GPU simulator: sector cache, device memory, coalescing,
// counters, atomics, the roofline clock, and determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/cache.hpp"
#include "sim/device.hpp"
#include "sim/memory.hpp"
#include "util/rng.hpp"

namespace eta::sim {
namespace {

// --- SectorCache -------------------------------------------------------------

TEST(SectorCache, MissThenHit) {
  SectorCache cache(1024, 4);
  EXPECT_FALSE(cache.Access(7));
  EXPECT_TRUE(cache.Access(7));
  EXPECT_EQ(cache.Accesses(), 2u);
  EXPECT_EQ(cache.Hits(), 1u);
}

TEST(SectorCache, LruEvictionWithinSet) {
  // 4 sets x 2 ways; sectors congruent mod 4 share a set.
  SectorCache cache(8 * 32, 2);
  ASSERT_EQ(cache.NumSets(), 4u);
  EXPECT_FALSE(cache.Access(0));
  EXPECT_FALSE(cache.Access(4));
  EXPECT_TRUE(cache.Access(0));   // refresh 0 -> 4 becomes LRU
  EXPECT_FALSE(cache.Access(8));  // evicts 4
  EXPECT_TRUE(cache.Access(0));
  EXPECT_FALSE(cache.Access(4));  // was evicted
}

TEST(SectorCache, DistinctSetsDoNotConflict) {
  SectorCache cache(8 * 32, 2);
  EXPECT_FALSE(cache.Access(0));
  EXPECT_FALSE(cache.Access(1));
  EXPECT_FALSE(cache.Access(2));
  EXPECT_TRUE(cache.Access(0));
  EXPECT_TRUE(cache.Access(1));
}

TEST(SectorCache, ProbeDoesNotFill) {
  SectorCache cache(1024, 4);
  EXPECT_FALSE(cache.Probe(9));
  EXPECT_FALSE(cache.Access(9));
  EXPECT_TRUE(cache.Probe(9));
}

TEST(SectorCache, InvalidateAll) {
  SectorCache cache(1024, 4);
  cache.Access(3);
  cache.InvalidateAll();
  EXPECT_FALSE(cache.Access(3));
}

TEST(SectorCache, InvalidateRange) {
  SectorCache cache(1024, 4);
  cache.Access(10);
  cache.Access(100);
  cache.InvalidateRange(0, 50);
  EXPECT_FALSE(cache.Probe(10));
  EXPECT_TRUE(cache.Probe(100));
}

// True LRU, kept as the reference the sector cache must match probe for
// probe: each set is a recency list, most recent last.
class ReferenceLru {
 public:
  ReferenceLru(uint32_t sets, uint32_t ways) : sets_(sets), ways_(ways) {}

  bool Access(uint64_t sector) {
    auto& set = sets_[sector % sets_.size()];
    auto it = std::find(set.begin(), set.end(), sector);
    const bool hit = it != set.end();
    if (hit) {
      set.erase(it);
    } else if (set.size() == ways_) {
      set.erase(set.begin());
    }
    set.push_back(sector);
    return hit;
  }
  bool Probe(uint64_t sector) const {
    const auto& set = sets_[sector % sets_.size()];
    return std::find(set.begin(), set.end(), sector) != set.end();
  }
  void InvalidateRange(uint64_t first, uint64_t last) {
    for (auto& set : sets_) {
      std::erase_if(set, [&](uint64_t s) { return s >= first && s < last; });
    }
  }

 private:
  std::vector<std::vector<uint64_t>> sets_;
  uint32_t ways_;
};

TEST(SectorCache, MatchesReferenceLruOnRandomStreams) {
  for (uint32_t ways : {1u, 2u, 4u, 8u}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      SectorCache cache(16 * ways * 32, ways);  // 16 sets
      ReferenceLru ref(cache.NumSets(), ways);
      util::SplitMix64 rng(seed * 100 + ways);
      // A sector range a few times the capacity: hits, conflict misses and
      // evictions all occur.
      const uint64_t range = 4ull * cache.NumSets() * ways;
      uint64_t hits = 0;
      for (uint32_t op = 0; op < 20000; ++op) {
        const uint64_t sector = rng.NextBounded(range);
        const uint64_t kind = rng.NextBounded(100);
        if (kind < 85) {
          const bool hit = ref.Access(sector);
          hits += hit;
          ASSERT_EQ(cache.Access(sector), hit) << "ways " << ways << " op " << op;
        } else if (kind < 98) {
          ASSERT_EQ(cache.Probe(sector), ref.Probe(sector)) << "ways " << ways << " op " << op;
        } else {
          const uint64_t len = rng.NextBounded(range / 4) + 1;
          cache.InvalidateRange(sector, sector + len);
          ref.InvalidateRange(sector, sector + len);
        }
      }
      EXPECT_EQ(cache.Hits(), hits);
      EXPECT_GT(hits, 0u);
    }
  }
}

// --- CoalesceSectors ------------------------------------------------------------

/// The reference dedup: first occurrence in lane order, by linear scan.
std::vector<uint64_t> ReferenceCoalesce(const LaneArray<uint64_t>& addrs, uint32_t mask) {
  std::vector<uint64_t> out;
  for (uint32_t lane = 0; lane < kWarpSize; ++lane) {
    if (!(mask >> lane & 1)) continue;
    const uint64_t sector = addrs[lane] / 32;
    if (std::find(out.begin(), out.end(), sector) == out.end()) out.push_back(sector);
  }
  return out;
}

TEST(CoalesceSectors, MatchesReferenceFirstOccurrenceOrder) {
  util::SplitMix64 rng(42);
  const uint64_t base = 1 << 20;
  for (uint32_t trial = 0; trial < 4000; ++trial) {
    LaneArray<uint64_t> addrs{};
    const uint32_t pattern = trial % 7;
    const uint64_t stride = 4ull << rng.NextBounded(7);  // 4 .. 256 bytes
    const uint64_t start = base + rng.NextBounded(1 << 12) * 4;
    for (uint32_t lane = 0; lane < kWarpSize; ++lane) {
      switch (pattern) {
        case 0: addrs[lane] = start + lane * 4; break;                           // ascending
        case 1: addrs[lane] = start + (kWarpSize - lane) * 4; break;              // descending
        case 2: addrs[lane] = start + (lane / 8) * 4; break;                      // duplicates
        case 3: addrs[lane] = start + lane * stride; break;                       // strided
        case 4: addrs[lane] = start + rng.NextBounded(64) * 4; break;             // clustered
        case 5: addrs[lane] = base + rng.NextBounded(1 << 20) * 4; break;         // scattered
        default:  // ascending, then one lane jumps back
          addrs[lane] = lane == 20 ? start : start + lane * stride;
      }
    }
    // Full, random, holed (one run cleared) and single-lane masks.
    uint32_t mask = kFullMask;
    switch (trial % 4) {
      case 1: mask = static_cast<uint32_t>(rng.Next()); break;
      case 2: mask = kFullMask & ~(((1u << 8) - 1) << rng.NextBounded(24)); break;
      case 3: mask = 1u << rng.NextBounded(kWarpSize); break;
      default: break;
    }
    uint64_t sectors[kWarpSize];
    const uint32_t n = internal::CoalesceSectors(addrs, mask, sectors);
    const std::vector<uint64_t> expected = ReferenceCoalesce(addrs, mask);
    ASSERT_EQ(std::vector<uint64_t>(sectors, sectors + n), expected)
        << "trial " << trial << " pattern " << pattern << " mask " << mask;
  }
  uint64_t sectors[kWarpSize];
  EXPECT_EQ(internal::CoalesceSectors(LaneArray<uint64_t>{}, 0, sectors), 0u);
}

// --- DeviceMemory -------------------------------------------------------------

TEST(DeviceMemory, AllocatesZeroedPageAligned) {
  DeviceMemory mem(1 << 20, 4096);
  RawBuffer b = mem.Allocate(100, MemKind::kDevice, "x");
  EXPECT_EQ(b.base_addr % 4096, 0u);
  EXPECT_EQ(b.bytes, 4096u);  // rounded up
  for (uint64_t i = 0; i < 100; ++i) EXPECT_EQ(static_cast<int>(b.data[i]), 0);
}

TEST(DeviceMemory, OomThrowsWithContext) {
  DeviceMemory mem(8192, 4096);
  mem.Allocate(4096, MemKind::kDevice, "a");
  try {
    mem.Allocate(8192, MemKind::kDevice, "b");
    FAIL() << "expected OomError";
  } catch (const OomError& e) {
    EXPECT_EQ(e.requested_bytes, 8192u);
    EXPECT_EQ(e.used_bytes, 4096u);
    EXPECT_EQ(e.capacity_bytes, 8192u);
  }
}

TEST(DeviceMemory, UnifiedNeverOoms) {
  DeviceMemory mem(4096, 4096);
  RawBuffer b = mem.Allocate(1 << 20, MemKind::kUnified, "big");
  EXPECT_TRUE(b.Valid());
  EXPECT_EQ(mem.DeviceBytesUsed(), 0u);
}

TEST(DeviceMemory, FreeReturnsCapacity) {
  DeviceMemory mem(8192, 4096);
  RawBuffer a = mem.Allocate(8192, MemKind::kDevice, "a");
  mem.Free(a);
  EXPECT_EQ(mem.DeviceBytesUsed(), 0u);
  EXPECT_TRUE(mem.Allocate(8192, MemKind::kDevice, "b").Valid());
}

TEST(DeviceMemory, FindResolvesAddresses) {
  DeviceMemory mem(1 << 20, 4096);
  RawBuffer a = mem.Allocate(4096, MemKind::kDevice, "a");
  RawBuffer b = mem.Allocate(4096, MemKind::kDevice, "b");
  EXPECT_EQ(mem.Find(a.base_addr + 10)->id, a.id);
  EXPECT_EQ(mem.Find(b.base_addr)->id, b.id);
  EXPECT_EQ(mem.Find(a.base_addr + 5000), nullptr);  // guard page
}

// --- Device / WarpCtx ----------------------------------------------------------

DeviceSpec TestSpec() {
  DeviceSpec spec;
  spec.device_memory_bytes = 16 * util::kMiB;
  return spec;
}

TEST(Device, ContiguousGatherCoalescesToFourSectors) {
  Device device(TestSpec());
  auto buf = device.Alloc<uint32_t>(1024, MemKind::kDevice, "data");
  auto result = device.Launch("k", {32}, [&](WarpCtx& w) {
    LaneArray<uint32_t> out{};
    w.GatherContiguous(buf, 0, w.ActiveMask(), out);
  });
  // 32 consecutive 4B elements = 128B = 4 sectors of 32B.
  EXPECT_EQ(result.counters.l1_accesses, 4u);
  EXPECT_EQ(result.counters.dram_read_transactions, 4u);
}

void ExpectSameCounters(const Counters& a, const Counters& b) {
  EXPECT_EQ(a.warp_instructions, b.warp_instructions);
  EXPECT_EQ(a.thread_instructions, b.thread_instructions);
  EXPECT_EQ(a.l1_accesses, b.l1_accesses);
  EXPECT_EQ(a.l1_hits, b.l1_hits);
  EXPECT_EQ(a.l2_accesses, b.l2_accesses);
  EXPECT_EQ(a.l2_hits, b.l2_hits);
  EXPECT_EQ(a.dram_read_transactions, b.dram_read_transactions);
  EXPECT_EQ(a.dram_write_transactions, b.dram_write_transactions);
  EXPECT_EQ(a.shared_accesses, b.shared_accesses);
  EXPECT_EQ(a.atomic_operations, b.atomic_operations);
  EXPECT_EQ(a.mem_latency_cycles, b.mem_latency_cycles);
  EXPECT_EQ(a.elapsed_cycles, b.elapsed_cycles);
  EXPECT_EQ(a.launches, b.launches);
}

// GatherContiguous computes its sectors directly; it must cost and return
// exactly what Gather does with the explicit indices base + lane.
TEST(Device, GatherContiguousMatchesExplicitGather) {
  for (MemKind kind : {MemKind::kDevice, MemKind::kUnified}) {
    DeviceSpec spec = TestSpec();
    // Managed pages oversubscribe a small device: faults, merged migrations
    // and evictions (with their cache flushes) all occur.
    if (kind == MemKind::kUnified) spec.device_memory_bytes = 256 * util::kKiB;
    Device contiguous(spec);
    Device indexed(spec);
    const uint64_t count = 200000;
    auto a = contiguous.Alloc<uint32_t>(count, kind, "data");
    auto b = indexed.Alloc<uint32_t>(count, kind, "data");
    for (uint64_t i = 0; i < count; ++i) {
      a.HostSpan()[i] = static_cast<uint32_t>(i * 7);
      b.HostSpan()[i] = static_cast<uint32_t>(i * 7);
    }
    util::SplitMix64 rng(9);
    for (uint32_t launch = 0; launch < 40; ++launch) {
      // Each warp picks a base and a mask; the tail cases put the highest
      // active lane exactly on, or a masked-off lane past, the last element.
      std::vector<uint64_t> bases(64);
      std::vector<uint32_t> masks(64);
      for (size_t w = 0; w < bases.size(); ++w) {
        const uint32_t shape = static_cast<uint32_t>(rng.NextBounded(5));
        masks[w] = shape == 0 ? kFullMask : static_cast<uint32_t>(rng.Next()) | 1u;
        bases[w] = rng.NextBounded(count - kWarpSize);
        if (shape == 1) {  // partial mask ending on the last element
          const uint32_t hi = 31 - static_cast<uint32_t>(std::countl_zero(masks[w]));
          bases[w] = count - 1 - hi;
        } else if (shape == 2) {  // lanes past the end, all masked off
          masks[w] = kFullMask >> 12;
          bases[w] = count - 20;
        } else if (shape == 3) {  // a run with holes inside one sector span
          masks[w] = 0x0f0f0f0fu;
        }
      }
      std::vector<LaneArray<uint32_t>> out_a(bases.size()), out_b(bases.size());
      const LaunchConfig config{bases.size() * kWarpSize, 256};
      LaunchResult ra = contiguous.Launch("g", config, [&](WarpCtx& w) {
        w.GatherContiguous(a, bases[w.WarpId()], masks[w.WarpId()], out_a[w.WarpId()]);
      });
      LaunchResult rb = indexed.Launch("g", config, [&](WarpCtx& w) {
        LaneArray<uint64_t> idx{};
        for (uint32_t lane = 0; lane < kWarpSize; ++lane) idx[lane] = bases[w.WarpId()] + lane;
        w.Gather(b, idx, masks[w.WarpId()], out_b[w.WarpId()]);
      });
      for (size_t w = 0; w < bases.size(); ++w) {
        WarpCtx::ForActive(masks[w], [&](uint32_t lane) {
          ASSERT_EQ(out_a[w][lane], out_b[w][lane]);
          ASSERT_EQ(out_a[w][lane], static_cast<uint32_t>((bases[w] + lane) * 7));
        });
      }
      ExpectSameCounters(ra.counters, rb.counters);
      EXPECT_EQ(ra.migrated_bytes, rb.migrated_bytes);
      EXPECT_EQ(ra.fault_ops, rb.fault_ops);
      EXPECT_EQ(ra.end_ms, rb.end_ms);
    }
    if (kind == MemKind::kUnified) {
      EXPECT_GT(contiguous.Um().TotalEvictedBytes(), 0u);
      EXPECT_EQ(contiguous.Um().TotalMigratedBytes(), indexed.Um().TotalMigratedBytes());
      EXPECT_EQ(contiguous.Um().TotalEvictedBytes(), indexed.Um().TotalEvictedBytes());
    }
  }
}

TEST(Device, StridedGatherIsUncoalesced) {
  Device device(TestSpec());
  auto buf = device.Alloc<uint32_t>(4096, MemKind::kDevice, "data");
  auto result = device.Launch("k", {32}, [&](WarpCtx& w) {
    LaneArray<uint64_t> idx{};
    for (uint32_t lane = 0; lane < 32; ++lane) idx[lane] = lane * 64;  // 256B stride
    LaneArray<uint32_t> out{};
    w.Gather(buf, idx, w.ActiveMask(), out);
  });
  EXPECT_EQ(result.counters.l1_accesses, 32u);  // one sector per lane
  EXPECT_EQ(result.counters.dram_read_transactions, 32u);
}

TEST(Device, RepeatedGatherHitsCache) {
  Device device(TestSpec());
  auto buf = device.Alloc<uint32_t>(64, MemKind::kDevice, "data");
  auto result = device.Launch("k", {32}, [&](WarpCtx& w) {
    LaneArray<uint32_t> out{};
    w.GatherContiguous(buf, 0, w.ActiveMask(), out);
    w.GatherContiguous(buf, 0, w.ActiveMask(), out);
  });
  EXPECT_EQ(result.counters.l1_accesses, 8u);
  EXPECT_EQ(result.counters.l1_hits, 4u);  // second gather hits
  EXPECT_EQ(result.counters.dram_read_transactions, 4u);
}

TEST(Device, GatherReadsCorrectValues) {
  Device device(TestSpec());
  auto buf = device.Alloc<uint32_t>(256, MemKind::kDevice, "data");
  std::vector<uint32_t> host(256);
  for (uint32_t i = 0; i < 256; ++i) host[i] = i * 3;
  device.CopyToDevice(buf, std::span<const uint32_t>(host));
  device.Launch("k", {32}, [&](WarpCtx& w) {
    LaneArray<uint64_t> idx{};
    for (uint32_t lane = 0; lane < 32; ++lane) idx[lane] = 255 - lane;
    LaneArray<uint32_t> out{};
    w.Gather(buf, idx, w.ActiveMask(), out);
    for (uint32_t lane = 0; lane < 32; ++lane) EXPECT_EQ(out[lane], (255 - lane) * 3);
  });
}

TEST(Device, GatherBulkDeduplicatesSectors) {
  Device device(TestSpec());
  auto buf = device.Alloc<uint32_t>(4096, MemKind::kDevice, "data");
  auto result = device.Launch("k", {32}, [&](WarpCtx& w) {
    LaneArray<uint64_t> start{};
    LaneArray<uint32_t> count{};
    for (uint32_t lane = 0; lane < 32; ++lane) {
      start[lane] = lane * 16;  // 16 elements = 2 sectors each, disjoint
      count[lane] = 16;
    }
    std::vector<uint32_t> out(32 * 16);
    w.GatherBulk(buf, start, count, w.ActiveMask(), out.data(), 16);
  });
  // 32 lanes x 2 sectors, requested exactly once each.
  EXPECT_EQ(result.counters.dram_read_transactions, 64u);
  EXPECT_EQ(result.counters.shared_accesses, 16u * 32);
}

TEST(Device, ScatterWritesThrough) {
  Device device(TestSpec());
  auto buf = device.Alloc<uint32_t>(64, MemKind::kDevice, "data");
  auto result = device.Launch("k", {32}, [&](WarpCtx& w) {
    LaneArray<uint64_t> idx{};
    LaneArray<uint32_t> val{};
    for (uint32_t lane = 0; lane < 32; ++lane) {
      idx[lane] = lane;
      val[lane] = lane + 100;
    }
    w.Scatter(buf, idx, val, w.ActiveMask());
  });
  EXPECT_EQ(result.counters.l2_accesses, 4u);
  auto host = buf.HostSpan();
  EXPECT_EQ(host[0], 100u);
  EXPECT_EQ(host[31], 131u);
}

TEST(Device, AtomicAddReturnsUniqueSlots) {
  Device device(TestSpec());
  auto counter = device.Alloc<uint32_t>(1, MemKind::kDevice, "counter");
  device.Launch("k", {32}, [&](WarpCtx& w) {
    LaneArray<uint64_t> idx{};  // all lanes target slot 0
    LaneArray<uint32_t> one{};
    one.fill(1);
    LaneArray<uint32_t> old{};
    w.AtomicAdd(counter, idx, one, w.ActiveMask(), old);
    std::set<uint32_t> slots(old.begin(), old.end());
    EXPECT_EQ(slots.size(), 32u);  // strictly increasing old values
  });
  EXPECT_EQ(counter.HostSpan()[0], 32u);
}

TEST(Device, AtomicMinKeepsMinimum) {
  Device device(TestSpec());
  auto buf = device.Alloc<uint32_t>(4, MemKind::kDevice, "labels");
  buf.HostSpan()[2] = 50;
  device.Launch("k", {2}, [&](WarpCtx& w) {
    LaneArray<uint64_t> idx{};
    idx[0] = 2;
    idx[1] = 2;
    LaneArray<uint32_t> val{};
    val[0] = 70;  // no improvement
    val[1] = 30;  // improvement
    LaneArray<uint32_t> old{};
    w.AtomicMin(buf, idx, val, w.ActiveMask(), old);
    EXPECT_EQ(old[0], 50u);
  });
  EXPECT_EQ(buf.HostSpan()[2], 30u);
}

TEST(Device, ActiveMaskClampsLastWarp) {
  Device device(TestSpec());
  uint32_t total_lanes = 0;
  device.Launch("k", {40}, [&](WarpCtx& w) {
    total_lanes += WarpCtx::PopCount(w.ActiveMask());
  });
  EXPECT_EQ(total_lanes, 40u);
}

TEST(Device, ClockAdvancesMonotonically) {
  Device device(TestSpec());
  auto buf = device.Alloc<uint32_t>(1024, MemKind::kDevice, "data");
  double t0 = device.NowMs();
  std::vector<uint32_t> host(1024, 1);
  device.CopyToDevice(buf, std::span<const uint32_t>(host));
  double t1 = device.NowMs();
  EXPECT_GT(t1, t0);
  device.Launch("k", {1024}, [&](WarpCtx& w) {
    LaneArray<uint32_t> out{};
    w.GatherContiguous(buf, w.WarpId() * 32, w.ActiveMask(), out);
  });
  EXPECT_GT(device.NowMs(), t1);
}

TEST(Device, LaunchTimeScalesWithWork) {
  Device device(TestSpec());
  auto buf = device.Alloc<uint32_t>(1 << 20, MemKind::kDevice, "data");
  auto small = device.Launch("small", {1 << 10}, [&](WarpCtx& w) {
    LaneArray<uint32_t> out{};
    w.GatherContiguous(buf, w.WarpId() * 32, w.ActiveMask(), out);
  });
  auto big = device.Launch("big", {1 << 20}, [&](WarpCtx& w) {
    LaneArray<uint32_t> out{};
    w.GatherContiguous(buf, w.WarpId() * 32, w.ActiveMask(), out);
  });
  EXPECT_GT(big.compute_ms, small.compute_ms);
}

TEST(Device, DeterministicAcrossRuns) {
  auto run = [] {
    Device device(TestSpec());
    auto buf = device.Alloc<uint32_t>(1 << 16, MemKind::kDevice, "data");
    device.Launch("k", {1 << 16}, [&](WarpCtx& w) {
      LaneArray<uint64_t> idx{};
      for (uint32_t lane = 0; lane < 32; ++lane) {
        idx[lane] = (w.GlobalThread(lane) * 2654435761u) % (1 << 16);
      }
      LaneArray<uint32_t> out{};
      w.Gather(buf, idx, w.ActiveMask(), out);
    });
    return std::make_tuple(device.NowMs(), device.TotalCounters().l1_hits,
                           device.TotalCounters().dram_read_transactions);
  };
  EXPECT_EQ(run(), run());
}

TEST(Device, PageableCopySlowerThanPinned) {
  Device a(TestSpec()), b(TestSpec());
  auto ba = a.Alloc<uint32_t>(1 << 20, MemKind::kDevice, "x");
  auto bb = b.Alloc<uint32_t>(1 << 20, MemKind::kDevice, "x");
  std::vector<uint32_t> host(1 << 20, 0);
  a.CopyToDevice(ba, std::span<const uint32_t>(host), /*pageable=*/true);
  b.CopyToDevice(bb, std::span<const uint32_t>(host), /*pageable=*/false);
  EXPECT_GT(a.NowMs(), b.NowMs());
}

TEST(Counters, DerivedMetrics) {
  Counters c;
  c.warp_instructions = 280;
  c.elapsed_cycles = 10;
  c.l1_accesses = 100;
  c.l1_hits = 40;
  c.l2_accesses = 60;
  c.l2_hits = 30;
  c.dram_read_transactions = 30;
  EXPECT_DOUBLE_EQ(c.Ipc(), 28.0);
  EXPECT_DOUBLE_EQ(c.IpcPerSm(28), 1.0);
  EXPECT_DOUBLE_EQ(c.L1HitRate(), 0.4);
  EXPECT_DOUBLE_EQ(c.L2HitRate(), 0.5);
  EXPECT_EQ(c.DramReadBytes(), 30u * 32);
  Counters sum = c;
  sum += c;
  EXPECT_EQ(sum.warp_instructions, 560u);
}

}  // namespace
}  // namespace eta::sim

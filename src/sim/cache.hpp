// Set-associative sector cache model.
//
// GPU L1/L2 caches serve 32-byte sector requests; a warp's coalesced access
// becomes one probe per distinct sector. This model is functional-free
// (tags only — data lives in host memory) and tracks hits/misses with true
// LRU within each set. Determinism: no randomness, no time — state depends
// only on the probe sequence.
//
// Tags and LRU stamps live in separate arrays: a probe scans the set's tags
// for a hit, and only a miss scans its stamps for the victim (the first way
// holding the smallest stamp).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/spec.hpp"
#include "util/check.hpp"

namespace eta::sim {

class SectorCache {
 public:
  /// capacity_bytes / kSectorBytes sectors, organized `ways`-associative.
  /// The set count is rounded down to a power of two for cheap indexing.
  SectorCache(uint64_t capacity_bytes, uint32_t ways);

  /// Probes for `sector` (an absolute sector index: address / kSectorBytes).
  /// On miss the sector is filled, evicting the set's LRU way.
  /// Returns true on hit. Inline: every simulated sector read probes here.
  bool Access(uint64_t sector) {
    ++accesses_;
    ++tick_;
    const size_t set = (sector & set_mask_) * ways_;
    uint64_t* tags = &tags_[set];
    uint64_t* stamps = &stamps_[set];
    for (uint32_t w = 0; w < ways_; ++w) {
      if (tags[w] == sector) {
        stamps[w] = tick_;
        ++hits_;
        return true;
      }
    }
    uint32_t victim = 0;
    for (uint32_t w = 1; w < ways_; ++w) {
      if (stamps[w] < stamps[victim]) victim = w;
    }
    tags[victim] = sector;
    stamps[victim] = tick_;
    return false;
  }

  /// Probe without fill (used for write-through stores).
  bool Probe(uint64_t sector) const;

  /// Invalidate everything (e.g. when unified-memory pages are evicted the
  /// stale sectors must not produce phantom hits).
  void InvalidateAll();

  /// Invalidates all sectors within [first_sector, last_sector).
  void InvalidateRange(uint64_t first_sector, uint64_t last_sector);

  uint64_t Hits() const { return hits_; }
  uint64_t Accesses() const { return accesses_; }
  uint32_t NumSets() const { return num_sets_; }
  uint32_t Ways() const { return ways_; }

 private:
  static constexpr uint64_t kEmptyTag = ~0ULL;

  uint32_t num_sets_;
  uint32_t set_mask_;
  uint32_t ways_;
  std::vector<uint64_t> tags_;    // num_sets_ * ways_, set-major
  std::vector<uint64_t> stamps_;  // LRU timestamps, parallel to tags_
  uint64_t tick_ = 0;
  uint64_t hits_ = 0;
  uint64_t accesses_ = 0;
};

}  // namespace eta::sim

#include "sim/cache.hpp"

#include <algorithm>
#include <bit>

namespace eta::sim {

SectorCache::SectorCache(uint64_t capacity_bytes, uint32_t ways) {
  ETA_CHECK(ways >= 1);
  uint64_t sectors = capacity_bytes / kSectorBytes;
  ETA_CHECK(sectors >= ways);
  uint64_t sets = std::bit_floor(sectors / ways);
  ETA_CHECK(sets >= 1);
  num_sets_ = static_cast<uint32_t>(sets);
  set_mask_ = num_sets_ - 1;
  ways_ = ways;
  tags_.assign(static_cast<size_t>(num_sets_) * ways_, kEmptyTag);
  stamps_.assign(tags_.size(), 0);
}

bool SectorCache::Probe(uint64_t sector) const {
  const uint64_t* tags = &tags_[(sector & set_mask_) * ways_];
  for (uint32_t w = 0; w < ways_; ++w) {
    if (tags[w] == sector) return true;
  }
  return false;
}

void SectorCache::InvalidateAll() {
  std::fill(tags_.begin(), tags_.end(), kEmptyTag);
  std::fill(stamps_.begin(), stamps_.end(), 0);
}

void SectorCache::InvalidateRange(uint64_t first_sector, uint64_t last_sector) {
  for (size_t i = 0; i < tags_.size(); ++i) {
    if (tags_[i] != kEmptyTag && tags_[i] >= first_sector && tags_[i] < last_sector) {
      tags_[i] = kEmptyTag;
      stamps_[i] = 0;
    }
  }
}

}  // namespace eta::sim

#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace sdfmap {

/// Flat encoding of an execution state as a vector of 64-bit words. Both
/// throughput engines (plain self-timed and the schedule/TDMA-constrained
/// variant) serialize their state into this key to detect the recurrent state
/// that closes the periodic phase ([10]). The throughput-check memoization
/// cache (src/analysis/cache.h) reuses the same key type for its canonical
/// configuration fingerprints.
struct StateKey {
  std::vector<std::int64_t> words;

  friend bool operator==(const StateKey& a, const StateKey& b) { return a.words == b.words; }
};

/// The splitmix64 output finalizer: a full-avalanche 64 -> 64 bit mixer
/// (every input bit flips each output bit with probability ~1/2).
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Hashes whole 64-bit words in four independent lanes, so consecutive
/// words do not wait on each other's multiply: word i goes to lane i mod 4,
/// which xors it in, multiplies by an odd constant and folds the high half
/// down (each step a bijection of the lane, and order-sensitive across steps).
/// The lanes start from distinct seeds and are folded in fixed order through
/// the splitmix64 finalizer, with the length folded in first, so the digest
/// stays sensitive to word order within and across lanes and separates keys
/// that are prefixes of one another. This is the one hash of the recurrence
/// maps, the memory cache shards and the disk cache's segment choice.
struct StateKeyHash {
  static constexpr std::uint64_t kLaneMul = 0x9fb21c651e98df25ULL;

  static constexpr std::uint64_t lane(std::uint64_t state, std::int64_t word) {
    state = (state ^ static_cast<std::uint64_t>(word)) * kLaneMul;
    return state ^ (state >> 32);
  }

  std::size_t operator()(const StateKey& key) const {
    const std::int64_t* w = key.words.data();
    const std::size_t n = key.words.size();
    std::uint64_t l0 = 0x243f6a8885a308d3ULL;
    std::uint64_t l1 = 0x13198a2e03707344ULL;
    std::uint64_t l2 = 0xa4093822299f31d0ULL;
    std::uint64_t l3 = 0x082efa98ec4e6c89ULL;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      l0 = lane(l0, w[i]);
      l1 = lane(l1, w[i + 1]);
      l2 = lane(l2, w[i + 2]);
      l3 = lane(l3, w[i + 3]);
    }
    if (i < n) l0 = lane(l0, w[i]);
    if (i + 1 < n) l1 = lane(l1, w[i + 1]);
    if (i + 2 < n) l2 = lane(l2, w[i + 2]);
    std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ (n * 0xff51afd7ed558ccdULL);
    h = splitmix64(h ^ l0);
    h = splitmix64(h ^ l1);
    h = splitmix64(h ^ l2);
    h = splitmix64(h ^ l3);
    return static_cast<std::size_t>(h);
  }
};

template <typename Snapshot>
using StateMap = std::unordered_map<StateKey, Snapshot, StateKeyHash>;

}  // namespace sdfmap

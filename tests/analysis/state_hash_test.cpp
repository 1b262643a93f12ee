// Quality tests for the word-wise StateKeyHash (four lanes folded through
// splitmix64) on the state-space hot path: equal keys must collide,
// structurally distinct keys (different words, order, or length) must
// spread, and the low output bits — the ones unordered_map buckets on — must
// stay well distributed even for the low-entropy keys real engine states
// produce (small token counts and remaining times).

#include "src/analysis/state_hash.h"

#include <gtest/gtest.h>

#include <bitset>
#include <utility>
#include <cstdint>
#include <unordered_set>
#include <vector>

namespace sdfmap {
namespace {

StateKey key(std::vector<std::int64_t> words) { return StateKey{std::move(words)}; }

TEST(StateKeyHash, EqualKeysHashEqual) {
  const StateKeyHash h;
  EXPECT_EQ(h(key({})), h(key({})));
  EXPECT_EQ(h(key({0})), h(key({0})));
  EXPECT_EQ(h(key({1, 2, 3, -7})), h(key({1, 2, 3, -7})));
}

TEST(StateKeyHash, LengthSeparatesPrefixKeys) {
  // Zero-valued words XOR into the digest as no-ops unless the length is
  // folded into the seed; prefix keys are exactly how engine states of
  // different graphs (or cache fingerprints of different specs) overlap.
  const StateKeyHash h;
  EXPECT_NE(h(key({})), h(key({0})));
  EXPECT_NE(h(key({0})), h(key({0, 0})));
  EXPECT_NE(h(key({5})), h(key({5, 0})));
}

TEST(StateKeyHash, WordOrderMatters) {
  const StateKeyHash h;
  EXPECT_NE(h(key({1, 2})), h(key({2, 1})));
  EXPECT_NE(h(key({0, 7, 0})), h(key({7, 0, 0})));
}

TEST(StateKeyHash, NoCollisionsOnDenseLowEntropyCorpus) {
  // All 16^3 = 4096 three-word keys over {0..15}: the shape of real engine
  // states (small counts in every word). Any collision here would directly
  // cost bucket chaining in the StateMap.
  const StateKeyHash h;
  std::unordered_set<std::size_t> hashes;
  for (std::int64_t a = 0; a < 16; ++a) {
    for (std::int64_t b = 0; b < 16; ++b) {
      for (std::int64_t c = 0; c < 16; ++c) {
        hashes.insert(h(key({a, b, c})));
      }
    }
  }
  EXPECT_EQ(hashes.size(), 4096u);
}

TEST(StateKeyHash, NoCollisionsOnSequentialSingleWordKeys) {
  const StateKeyHash h;
  std::unordered_set<std::size_t> hashes;
  for (std::int64_t v = 0; v < 4096; ++v) hashes.insert(h(key({v})));
  EXPECT_EQ(hashes.size(), 4096u);
}

TEST(StateKeyHash, LowBitsSpreadAcrossBuckets) {
  // unordered_map derives the bucket from the low bits of the hash; counter
  // keys with increments only in the high words must still spread. 4096 keys
  // into 256 low-bit buckets: a fair hash loads each bucket with ~16; demand
  // no bucket exceeds 3x that.
  const StateKeyHash h;
  std::vector<int> buckets(256, 0);
  for (std::int64_t v = 0; v < 4096; ++v) {
    ++buckets[h(key({v, 0, 0, 0})) & 255u];
  }
  for (int load : buckets) EXPECT_LE(load, 48);
}

TEST(StateKeyHash, SingleBitFlipAvalanches) {
  // Flipping any single input bit should flip ~32 of the 64 output bits.
  // Average over all 64 bit positions of each word and require the mean to
  // sit well inside [24, 40]; a positional hash (like summing words) fails
  // this immediately.
  const StateKeyHash h;
  const StateKey base = key({3, 1000, -5, 0});
  const std::uint64_t base_hash = h(base);
  for (std::size_t word = 0; word < base.words.size(); ++word) {
    double flipped_bits = 0;
    for (int bit = 0; bit < 64; ++bit) {
      StateKey mutated = base;
      mutated.words[word] ^= std::int64_t{1} << bit;
      flipped_bits += static_cast<double>(
          std::bitset<64>(base_hash ^ h(mutated)).count());
    }
    const double mean = flipped_bits / 64.0;
    EXPECT_GT(mean, 24.0) << "word " << word;
    EXPECT_LT(mean, 40.0) << "word " << word;
  }
}

TEST(StateKeyHash, EveryLaneTailCounts) {
  // Lengths 0-9 end on every lane (words beyond the last group of four go to
  // lanes 0-2): all-zero keys of each length hash apart, and a change to any
  // single word of any of them changes the hash.
  const StateKeyHash h;
  std::unordered_set<std::size_t> zero_keys;
  for (std::size_t n = 0; n <= 9; ++n) {
    const StateKey zeros = key(std::vector<std::int64_t>(n, 0));
    zero_keys.insert(h(zeros));
    for (std::size_t i = 0; i < n; ++i) {
      StateKey changed = zeros;
      changed.words[i] = 1;
      EXPECT_NE(h(changed), h(zeros)) << "length " << n << ", word " << i;
    }
  }
  EXPECT_EQ(zero_keys.size(), 10u);
}

TEST(StateKeyHash, SwapsWithinAndAcrossLanesChangeTheHash) {
  // Words i and j share a lane when i = j mod 4 (e.g. 0 and 4, or 1 and 5
  // and 9) and sit in different lanes otherwise; swapping any two distinct
  // words of keys of length 2-9 must change the hash either way.
  const StateKeyHash h;
  for (std::size_t n = 2; n <= 9; ++n) {
    std::vector<std::int64_t> words(n);
    for (std::size_t i = 0; i < n; ++i) words[i] = static_cast<std::int64_t>(i + 1);
    const std::size_t base = h(key(words));
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        std::vector<std::int64_t> swapped = words;
        std::swap(swapped[i], swapped[j]);
        EXPECT_NE(h(key(swapped)), base) << "length " << n << ", words " << i << "/" << j;
      }
    }
  }
}

TEST(Splitmix64, MatchesReferenceVectors) {
  // Reference outputs of the splitmix64 finalizer for seed values 0, 1, 2
  // (the widely published test vectors of the generator's output stream).
  EXPECT_EQ(splitmix64(0), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(splitmix64(1), 0x910a2dec89025cc1ULL);
  EXPECT_EQ(splitmix64(2), 0x975835de1c9756ceULL);
}

}  // namespace
}  // namespace sdfmap

// The end-time queue holds one actor's active firings as absolute ends and
// encodes them into state keys as the multiset of remaining times (end - now)
// that a recurrent state must repeat; the RemainingMultiset cases check that
// multiset, the EndTimeQueue and EventCalendar cases the absolute form.

#include "src/analysis/event_calendar.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

namespace sdfmap {
namespace {

std::vector<std::int64_t> encoded(const EndTimeQueue& q, std::int64_t now) {
  std::vector<std::int64_t> words;
  q.encode(now, words);
  return words;
}

TEST(RemainingMultiset, StartsEmpty) {
  const EndTimeQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.ended_at(0), 0);
  EXPECT_EQ(q.total(), 0);
  EXPECT_EQ(encoded(q, 0), std::vector<std::int64_t>{0});
}

TEST(RemainingMultiset, AddMergesEqualValues) {
  EndTimeQueue q;
  q.push(2, 1);
  q.push(5, 3);
  q.push(5, 2);
  EXPECT_EQ(q.total(), 6);
  EXPECT_EQ(q.front_end(), 2u);
  EXPECT_EQ(encoded(q, 0), (std::vector<std::int64_t>{2, 2, 1, 5, 5}));
}

TEST(RemainingMultiset, AddIgnoresNonPositiveCounts) {
  EndTimeQueue q;
  EXPECT_FALSE(q.push(1, 0));
  EXPECT_FALSE(q.push(1, -2));
  EXPECT_TRUE(q.empty());
}

TEST(RemainingMultiset, KeepsSortedOrder) {
  // Firings of one actor (Υ = 4) started at times 3, 5 and 7 end in start
  // order; at time 7 their remaining times are 0, 2 and 4.
  EndTimeQueue q;
  for (const std::uint64_t start : {3u, 5u, 7u}) q.push(start + 4, 1);
  EXPECT_EQ(q.front_end(), 7u);
  EXPECT_EQ(encoded(q, 7), (std::vector<std::int64_t>{3, 0, 1, 2, 1, 4, 1}));
}

TEST(RemainingMultiset, AdvanceAndZeroHandling) {
  EndTimeQueue q;
  q.push(4, 2);
  q.push(9, 1);
  EXPECT_EQ(q.ended_at(3), 0);
  EXPECT_EQ(q.ended_at(4), 2);
  q.pop_front();
  EXPECT_EQ(q.ended_at(4), 0);
  EXPECT_EQ(q.front_end(), 9u);
  EXPECT_EQ(q.total(), 1);
  EXPECT_EQ(encoded(q, 4), (std::vector<std::int64_t>{1, 5, 1}));
}

TEST(RemainingMultiset, EncodeIsCanonical) {
  // The same remaining times give the same words at any absolute time and
  // however the starts were split.
  EndTimeQueue a;
  a.push(2, 3);
  a.push(6, 1);
  EndTimeQueue b;
  b.push(12, 1);
  b.push(12, 2);
  b.push(16, 1);
  EXPECT_EQ(encoded(a, 0), encoded(b, 10));
  EXPECT_EQ(encoded(a, 0), (std::vector<std::int64_t>{2, 2, 3, 6, 1}));
}

TEST(RemainingMultiset, ZeroRemainingEntriesMerge) {
  EndTimeQueue q;
  q.push(8, 2);
  q.push(8, 1);
  EXPECT_EQ(q.ended_at(8), 3);
}

TEST(EndTimeQueue, PushReportsANewFront) {
  EndTimeQueue q;
  EXPECT_TRUE(q.push(5, 1));
  EXPECT_FALSE(q.push(5, 1));
  EXPECT_FALSE(q.push(7, 1));
  q.pop_front();
  q.pop_front();
  EXPECT_TRUE(q.empty());
  EXPECT_TRUE(q.push(9, 1));
}

TEST(EndTimeQueue, EndsPastInt64MaxDoNotWrap) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const std::int64_t now = 10;
  EndTimeQueue q;
  q.push(static_cast<std::uint64_t>(now) + static_cast<std::uint64_t>(kMax - 2), 1);
  EXPECT_GT(q.front_end(), static_cast<std::uint64_t>(kMax));
  EXPECT_EQ(encoded(q, now), (std::vector<std::int64_t>{1, kMax - 2, 1}));
}

TEST(EndTimeQueue, LongQueueStaysInOrderAcrossCompaction) {
  // Keep about 100 firings in flight while 1000 pass through, so the
  // consumed prefix is dropped many times.
  EndTimeQueue q;
  std::uint64_t next_end = 0;
  std::uint64_t expected_front = 0;
  for (int i = 0; i < 100; ++i) q.push(next_end++, 1);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(q.front_end(), expected_front++);
    q.pop_front();
    q.push(next_end++, 1);
  }
  EXPECT_EQ(q.total(), 100);
  const std::vector<std::int64_t> words = encoded(q, static_cast<std::int64_t>(expected_front));
  ASSERT_EQ(words.size(), 201u);
  for (std::int64_t i = 0; i < 100; ++i) EXPECT_EQ(words[1 + 2 * i], i);
}

TEST(EventCalendar, PopsEveryEventAtTheEarliestTime) {
  EventCalendar c;
  c.push(7, 1);
  c.push(3, 2);
  c.push(7, 3);
  c.push(3, 4);
  c.push(5, 5);
  ASSERT_EQ(c.next(), 3u);
  std::vector<std::uint32_t> ids;
  c.pop_at(3, [&](std::uint32_t id) { ids.push_back(id); });
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<std::uint32_t>{2, 4}));
  ASSERT_EQ(c.next(), 5u);
  ids.clear();
  c.pop_at(5, [&](std::uint32_t id) { ids.push_back(id); });
  EXPECT_EQ(ids, std::vector<std::uint32_t>{5});
  ids.clear();
  c.pop_at(7, [&](std::uint32_t id) { ids.push_back(id); });
  EXPECT_EQ(ids.size(), 2u);
  EXPECT_TRUE(c.empty());
}

}  // namespace
}  // namespace sdfmap

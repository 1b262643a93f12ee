#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace sdfmap {

/// The active firings of one actor as a FIFO of absolute end times,
/// run-length encoded. All firings of one actor share its execution time Υ
/// and start in time order, so their ends arrive sorted: a start either
/// merges into the last entry (same end) or appends a later one, and the
/// earliest end is always at the front.
///
/// Ends are unsigned: a start time and Υ are each at most INT64_MAX, so an
/// end never wraps, even when it lies past INT64_MAX. The engines decide
/// where such an end throws (at the time advance that would reach it).
///
/// Self-timed executions of multi-rate graphs start many identical firings at
/// one instant (e.g. all 2376 IQ firings of an H.263 iteration), so a queue
/// typically holds a handful of entries with large counts.
class EndTimeQueue {
 public:
  struct Entry {
    std::uint64_t end;
    std::int64_t count;
  };

  [[nodiscard]] bool empty() const { return head_ == entries_.size(); }

  /// Earliest end; requires non-empty.
  [[nodiscard]] std::uint64_t front_end() const { return entries_[head_].end; }

  /// Number of firings ending at `now` (the front never ends earlier).
  [[nodiscard]] std::int64_t ended_at(std::int64_t now) const {
    return (!empty() && entries_[head_].end == static_cast<std::uint64_t>(now))
               ? entries_[head_].count
               : 0;
  }

  /// Removes the front entry; requires non-empty. The consumed prefix is
  /// dropped once it dominates the buffer, so a queue that never drains
  /// stays proportional to its live entries.
  void pop_front() {
    if (++head_ == entries_.size()) {
      clear();
    } else if (head_ >= 64 && head_ * 2 >= entries_.size()) {
      entries_.erase(entries_.begin(), entries_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

  /// Starts `count` firings that end at `end`, which is no earlier than any
  /// queued end. Returns true when the queue was empty, i.e. when `end` is
  /// the new front.
  bool push(std::uint64_t end, std::int64_t count) {
    if (count <= 0) return false;
    if (empty()) {
      entries_.push_back(Entry{end, count});
      return true;
    }
    if (entries_.back().end == end) {
      entries_.back().count += count;
    } else {
      entries_.push_back(Entry{end, count});
    }
    return false;
  }

  /// Total number of active firings.
  [[nodiscard]] std::int64_t total() const {
    std::int64_t sum = 0;
    for (std::size_t i = head_; i < entries_.size(); ++i) sum += entries_[i].count;
    return sum;
  }

  /// Appends (size, end - now, count, ...) words to a state key: the
  /// multiset of remaining times, ascending, which is what a recurrent
  /// state must repeat.
  void encode(std::int64_t now, std::vector<std::int64_t>& words) const {
    words.push_back(static_cast<std::int64_t>(entries_.size() - head_));
    for (std::size_t i = head_; i < entries_.size(); ++i) {
      words.push_back(static_cast<std::int64_t>(entries_[i].end - static_cast<std::uint64_t>(now)));
      words.push_back(entries_[i].count);
    }
  }

  /// Empties the queue, keeping its storage.
  void clear() {
    entries_.clear();
    head_ = 0;
  }

 private:
  std::vector<Entry> entries_;
  std::size_t head_ = 0;
};

/// Min-heap of pending completion events (time, id): the engines' time
/// advance reads the next event time and pops every event at it, instead of
/// scanning each tile and actor at every instant. Events at one time pop in
/// no particular order; the engines file them into ordered worklists.
class EventCalendar {
 public:
  [[nodiscard]] bool empty() const { return heap_.empty(); }

  /// Earliest event time; requires non-empty.
  [[nodiscard]] std::uint64_t next() const { return heap_.front().time; }

  void push(std::uint64_t time, std::uint32_t id) {
    heap_.push_back(Event{time, id});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  /// Pops every event at `time` (the earliest) and calls f(id) for each.
  template <typename F>
  void pop_at(std::uint64_t time, F&& f) {
    while (!heap_.empty() && heap_.front().time == time) {
      const std::uint32_t id = heap_.front().id;
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      heap_.pop_back();
      f(id);
    }
  }

  /// Calls f(time, id) for every pending event, in no particular order.
  template <typename F>
  void for_each(F&& f) const {
    for (const Event& e : heap_) f(e.time, e.id);
  }

  /// Empties the calendar, keeping its storage.
  void clear() { heap_.clear(); }

 private:
  struct Event {
    std::uint64_t time;
    std::uint32_t id;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const { return a.time > b.time; }
  };
  std::vector<Event> heap_;
};

}  // namespace sdfmap

#ifndef FCBENCH_OBS_RING_H_
#define FCBENCH_OBS_RING_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>

namespace fcbench::obs {

/// Fixed-capacity lock-free ring of trivially copyable records: the
/// storage of the TraceCollector, which holds spans and lifecycle
/// events on one timeline.
///
/// Writers reserve tickets with one fetch_add per published batch, then
/// fill each record's slot with relaxed word stores between a `begin`
/// and an `end` stamp — no locks, no allocation, safe from any thread
/// including failure paths. The ring wraps: it keeps the newest
/// `capacity()` records, and dropped() counts what wrapping discarded.
/// Every slot field is atomic, so a writer lapping the ring while a
/// reader copies is a defined (TSan-clean) race; the reader trusts a
/// slot only when both stamps equal the expected ticket around the
/// copy, and skips it otherwise.
///
/// One writer fills a slot at a time. A writer claims its slot by moving
/// `begin` from the ticket of the slot's last finished record
/// (`begin == end`) to its own, with one compare-exchange. It gives its
/// record up instead when the slot holds a newer ticket (the writer was
/// lapped while delayed, so its record has already wrapped out) or is
/// still being filled (by a writer a lap behind, whose late word stores
/// would otherwise interleave with its own). A record given up that way
/// is skipped by ForEach like a slot in flux, and counts in dropped()
/// once it wraps.
template <typename Record>
class SeqlockRing {
  static_assert(std::is_trivially_copyable_v<Record>);

 public:
  /// At most this many records: capacities come from outside input
  /// (FCBENCH_TRACE_CAP), and std::bit_ceil is undefined past 2^63.
  static constexpr size_t kMaxCapacity = size_t{1} << 20;

  /// `capacity` is clamped to [min_capacity, kMaxCapacity], then rounded
  /// up to a power of two.
  SeqlockRing(size_t capacity, size_t min_capacity)
      : capacity_(std::bit_ceil(
            std::min(std::max(capacity, min_capacity), kMaxCapacity))),
        slots_(new Slot[capacity_]) {}
  SeqlockRing(const SeqlockRing&) = delete;
  SeqlockRing& operator=(const SeqlockRing&) = delete;

  /// Publishes `n` records with one ticket reservation.
  void Publish(const Record* recs, size_t n) {
    if (n == 0) return;
    const uint64_t base = head_.fetch_add(n, std::memory_order_relaxed);
    for (size_t i = 0; i < n; ++i) {
      const uint64_t ticket = base + i + 1;
      Slot& s = slots_[ticket & (capacity_ - 1)];
      if (!Claim(s, ticket)) continue;
      // begin != end marks the slot in flux until the final store; the
      // fence keeps the payload stores from passing the begin stamp.
      std::atomic_thread_fence(std::memory_order_release);
      uint64_t words[kWords] = {};
      std::memcpy(words, &recs[i], sizeof(Record));
      for (size_t w = 0; w < kWords; ++w) {
        s.words[w].store(words[w], std::memory_order_relaxed);
      }
      s.end.store(ticket, std::memory_order_release);
    }
  }

  /// Calls `fn(ticket, record)` for each retained record, oldest first
  /// (tickets are 1-based publish order). Slots a writer is mid-filling
  /// are skipped, so under concurrency fewer than
  /// min(recorded, capacity) records may be visited.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    const uint64_t head = head_.load(std::memory_order_acquire);
    const uint64_t first =
        head > capacity_ ? head - capacity_ + 1 : uint64_t{1};
    for (uint64_t t = first; t <= head; ++t) {
      const Slot& s = slots_[t & (capacity_ - 1)];
      if (s.end.load(std::memory_order_acquire) != t) continue;
      uint64_t words[kWords];
      for (size_t w = 0; w < kWords; ++w) {
        words[w] = s.words[w].load(std::memory_order_relaxed);
      }
      // A writer lapping the ring while we copied bumped begin first.
      std::atomic_thread_fence(std::memory_order_acquire);
      if (s.begin.load(std::memory_order_relaxed) != t) continue;
      Record r;
      std::memcpy(&r, words, sizeof(Record));
      fn(t, r);
    }
  }

  /// Total records ever published (not capped by capacity).
  uint64_t recorded() const { return head_.load(std::memory_order_relaxed); }
  /// Records lost to wraparound (recorded - capacity, floored at 0).
  uint64_t dropped() const {
    const uint64_t head = recorded();
    return head > capacity_ ? head - capacity_ : 0;
  }
  size_t capacity() const { return capacity_; }

 private:
  static constexpr size_t kWords =
      (sizeof(Record) + sizeof(uint64_t) - 1) / sizeof(uint64_t);
  struct Slot {
    std::atomic<uint64_t> begin{0};
    std::atomic<uint64_t> end{0};
    std::atomic<uint64_t> words[kWords] = {};
  };

  /// Moves `s.begin` to `ticket` if the slot's last writer finished and
  /// held an older ticket. Tickets only grow, so begin never repeats a
  /// value and the compare-exchange cannot succeed on a stale read. The
  /// acquire load of `end` orders this writer's word stores after the
  /// previous writer's.
  static bool Claim(Slot& s, uint64_t ticket) {
    uint64_t owner = s.begin.load(std::memory_order_relaxed);
    while (owner < ticket && s.end.load(std::memory_order_acquire) == owner) {
      if (s.begin.compare_exchange_weak(owner, ticket,
                                        std::memory_order_relaxed)) {
        return true;
      }
    }
    return false;
  }

  const size_t capacity_;  // power of two
  std::unique_ptr<Slot[]> slots_;
  std::atomic<uint64_t> head_{0};  // tickets handed out
};

}  // namespace fcbench::obs

#endif  // FCBENCH_OBS_RING_H_

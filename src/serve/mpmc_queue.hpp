// Bounded multi-producer/multi-consumer queue for the serving layer
// (Vyukov's array-based MPMC design): each cell carries a sequence number
// whose distance from the producer/consumer cursor says whether the cell is
// free, full, or still being written by a lagging thread.
//
// Why this shape: the QueryService admission path is many client threads
// enqueueing small request objects against the service workers dequeuing
// them. A mutex-protected deque would serialize admission on exactly the
// path whose concurrency the service exists to provide; the Vyukov queue
// makes enqueue/dequeue one CAS plus one release store each, wait-free for
// the common uncontended case, and — crucially for a *bounded* service —
// refuses instead of growing, so overload turns into backpressure the
// caller can see (try_enqueue returning false) rather than unbounded
// memory.
//
// Blocking is deliberately NOT in here: the queue is non-blocking and the
// service layers its own futex-epoch parking on top (query_service.cpp), so
// the queue itself stays lint-clean single-purpose and trivially testable.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

namespace ppscan::serve {

template <typename T>
class MpmcQueue {
 public:
  /// Capacity is rounded up to the next power of two (minimum 2) so the
  /// cursor-to-cell mapping is a mask, not a division.
  explicit MpmcQueue(std::size_t capacity)
      : capacity_(round_up_pow2(capacity)),
        mask_(capacity_ - 1),
        cells_(std::make_unique<Cell[]>(capacity_)) {
    for (std::size_t i = 0; i < capacity_; ++i) {
      cells_[i].seq.store(static_cast<std::uint64_t>(i),
                          std::memory_order_release);
    }
  }

  MpmcQueue(const MpmcQueue&) = delete;
  MpmcQueue& operator=(const MpmcQueue&) = delete;

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Approximate occupancy (cursor distance); exact only at a quiescent
  /// point, good enough for snapshots and backpressure heuristics.
  [[nodiscard]] std::size_t size_approx() const {
    const std::uint64_t head = enqueue_pos_.load(std::memory_order_relaxed);
    const std::uint64_t tail = dequeue_pos_.load(std::memory_order_relaxed);
    return head >= tail ? static_cast<std::size_t>(head - tail) : 0;
  }

  /// False when the queue is full. `value` is moved from only on success,
  /// so a failed attempt may retry with the same object.
  bool try_enqueue(T&& value) {
    Cell* cell = nullptr;
    std::uint64_t pos = enqueue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[static_cast<std::size_t>(pos) & mask_];
      const std::uint64_t seq = cell->seq.load(std::memory_order_acquire);
      const auto diff = static_cast<std::int64_t>(seq) -
                        static_cast<std::int64_t>(pos);
      if (diff == 0) {
        // Cell free for this ticket; claim it.
        if (enqueue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed,
                                               std::memory_order_relaxed)) {
          break;
        }
      } else if (diff < 0) {
        return false;  // full: consumer of the previous lap not done
      } else {
        pos = enqueue_pos_.load(std::memory_order_relaxed);
      }
    }
    cell->value = std::move(value);
    cell->seq.store(pos + 1, std::memory_order_release);
    return true;
  }

  /// False when the queue is empty.
  bool try_dequeue(T* out) {
    Cell* cell = nullptr;
    std::uint64_t pos = dequeue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[static_cast<std::size_t>(pos) & mask_];
      const std::uint64_t seq = cell->seq.load(std::memory_order_acquire);
      const auto diff = static_cast<std::int64_t>(seq) -
                        static_cast<std::int64_t>(pos + 1);
      if (diff == 0) {
        if (dequeue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed,
                                               std::memory_order_relaxed)) {
          break;
        }
      } else if (diff < 0) {
        return false;  // empty: producer of this lap not done
      } else {
        pos = dequeue_pos_.load(std::memory_order_relaxed);
      }
    }
    *out = std::move(cell->value);
    cell->seq.store(pos + mask_ + 1, std::memory_order_release);
    return true;
  }

 private:
  struct alignas(64) Cell {
    /// Lap ticket: seq == pos ⇒ free for the producer holding ticket pos,
    /// seq == pos + 1 ⇒ full for the consumer holding ticket pos, anything
    /// else ⇒ a same-lap peer is mid-publication.
    /// protocol: release-acquire — publisher=the producer/consumer that
    /// finished moving `value` (release store), consumers=the peer side's
    /// acquire load that makes the moved payload visible.
    std::atomic<std::uint64_t> seq{0};
    T value{};
  };

  static std::size_t round_up_pow2(std::size_t v) {
    std::size_t p = 2;
    while (p < v) p <<= 1;
    return p;
  }

  const std::size_t capacity_;
  const std::size_t mask_;
  std::unique_ptr<Cell[]> cells_;
  // The cursors hand out tickets; the payload handoff is ordered by each
  // cell's seq release/acquire pair, so the cursor RMWs themselves carry no
  // publication duty.
  // protocol: relaxed-guarded — producer ticket counter; the CAS only
  // claims a ticket, the cell seq provides the edge.
  alignas(64) std::atomic<std::uint64_t> enqueue_pos_{0};
  // protocol: relaxed-guarded — consumer ticket counter; same scheme.
  alignas(64) std::atomic<std::uint64_t> dequeue_pos_{0};
};

}  // namespace ppscan::serve

// A heap-allocated array whose elements are accessed atomically.
//
// std::vector<std::atomic<T>> is unusable because atomics are not movable;
// this wrapper owns plain T storage, provides bounds-checked debug access,
// and exposes relaxed-by-default load/store helpers through
// std::atomic_ref. The ppSCAN phases rely on benign read/write races (e.g.
// a neighbor reading sim[e(u,v)] while the owner thread writes it); atomic
// access turns those races into defined behavior at zero cost on x86
// (a relaxed atomic load/store compiles to a plain MOV).
//
// Two ways to size the array:
//   assign(n, init)          — every element is written once, with `init`.
//   assign_for_overwrite(n)  — the storage is allocated and not written.
//                              Contract: store every element before any
//                              load, compare_exchange or fetch_add reads
//                              it; an unwritten element holds an
//                              indeterminate value. The first stores can
//                              then come from the threads that own the
//                              slots, so the page faults and first writes
//                              run in parallel instead of in one serial
//                              fill (ppSCAN's PruneSim writes every arc).
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <memory>

namespace ppscan {

template <typename T>
class AtomicArray {
  static_assert(std::atomic_ref<T>::required_alignment == alignof(T),
                "new T[] must satisfy atomic_ref's alignment");

 public:
  AtomicArray() = default;

  explicit AtomicArray(std::size_t n, T init = T{}) { assign(n, init); }

  void assign(std::size_t n, T init = T{}) {
    assign_for_overwrite(n);
    for (std::size_t i = 0; i < n; ++i) store(i, init);
  }

  void assign_for_overwrite(std::size_t n) {
    data_ = std::make_unique_for_overwrite<T[]>(n);
    size_ = n;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  [[nodiscard]] T load(std::size_t i,
                       std::memory_order order = std::memory_order_relaxed) const {
    return at(i).load(order);
  }

  void store(std::size_t i, T value,
             std::memory_order order = std::memory_order_relaxed) {
    at(i).store(value, order);
  }

  bool compare_exchange(std::size_t i, T& expected, T desired,
                        std::memory_order order = std::memory_order_relaxed) {
    return at(i).compare_exchange_strong(expected, desired, order);
  }

  T fetch_add(std::size_t i, T delta,
              std::memory_order order = std::memory_order_relaxed) {
    return at(i).fetch_add(delta, order);
  }

  /// The storage as plain T, for a phase in which each element is touched
  /// by one thread only and nothing accesses the array atomically at the
  /// same time, such as the first writes after assign_for_overwrite. The
  /// phase barrier orders these accesses before later atomic ones.
  [[nodiscard]] T* exclusive_data() { return data_.get(); }

 private:
  [[nodiscard]] std::atomic_ref<T> at(std::size_t i) const {
    assert(i < size_);
    return std::atomic_ref<T>(data_[i]);
  }

  // Plain storage, accessed through at(), whose callers above forward the
  // caller's memory_order, or through exclusive_data() when no atomic
  // access can run; each AtomicArray *member* declares its own discipline
  // and is checked at its own call sites.
  std::unique_ptr<T[]> data_;
  std::size_t size_ = 0;
};

}  // namespace ppscan

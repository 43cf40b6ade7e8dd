// A first-in first-out queue on a power-of-two ring, for per-connection
// state.
//
// A swarm holds two send queues per stream socket and an upload queue per
// BitTorrent peer, hundreds of thousands of them at scale, most empty or a
// few entries deep. std::deque costs a 512-byte chunk plus its map even
// when empty; Fifo owns no heap until its first push and doubles its ring
// when full. Slots outside the live range hold value-initialized elements,
// so a pop resets its slot and releases whatever the element owned.
// `erase` in the middle serves a CANCEL retracting a queued request.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "common/assert.hpp"

namespace p2plab {

template <typename T>
class Fifo {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  /// Slots owned (zero until the first push, and again after clear()).
  std::size_t capacity() const { return capacity_; }

  /// The i-th element from the front.
  T& operator[](std::size_t i) {
    P2PLAB_ASSERT(i < size_);
    return slots_[(head_ + i) & (capacity_ - 1)];
  }
  const T& operator[](std::size_t i) const {
    P2PLAB_ASSERT(i < size_);
    return slots_[(head_ + i) & (capacity_ - 1)];
  }
  T& front() { return (*this)[0]; }
  T& back() { return (*this)[size_ - 1]; }

  void push_back(T value) {
    if (size_ == capacity_) grow();
    slots_[(head_ + size_) & (capacity_ - 1)] = std::move(value);
    ++size_;
  }

  void pop_front() {
    P2PLAB_ASSERT(size_ > 0);
    slots_[head_] = T{};
    head_ = (head_ + 1) & (capacity_ - 1);
    --size_;
  }

  /// Remove the i-th element; later elements keep their order.
  void erase(std::size_t i) {
    P2PLAB_ASSERT(i < size_);
    for (; i + 1 < size_; ++i) (*this)[i] = std::move((*this)[i + 1]);
    (*this)[size_ - 1] = T{};
    --size_;
  }

  /// Drop every element and release the ring.
  void clear() {
    slots_.reset();
    capacity_ = 0;
    head_ = 0;
    size_ = 0;
  }

 private:
  static constexpr std::uint32_t kInitialCapacity = 4;

  void grow() {
    const std::uint32_t capacity =
        capacity_ == 0 ? kInitialCapacity : capacity_ * 2;
    P2PLAB_ASSERT(capacity > capacity_);
    auto slots = std::make_unique<T[]>(capacity);
    for (std::uint32_t i = 0; i < size_; ++i) {
      slots[i] = std::move(slots_[(head_ + i) & (capacity_ - 1)]);
    }
    slots_ = std::move(slots);
    capacity_ = capacity;
    head_ = 0;
  }

  std::unique_ptr<T[]> slots_;
  std::uint32_t capacity_ = 0;
  std::uint32_t head_ = 0;
  std::uint32_t size_ = 0;
};

}  // namespace p2plab

// Copyright (c) GRNN authors.
// IndexedHeap: an addressable binary min-heap with stable,
// generation-checked handles.
//
// The lazy RkNN algorithm (paper Fig 6/7) keeps a hash table mapping each
// expanded node to the heap entries it inserted, so that a later
// verification query can surgically delete those entries. IndexedHeap
// provides exactly that: Push() returns a Handle, and Erase(handle)
// removes a live entry. Handles embed a generation counter, so erasing
// an entry that was already popped is a safe no-op.

#ifndef GRNN_COMMON_INDEXED_HEAP_H_
#define GRNN_COMMON_INDEXED_HEAP_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/macros.h"

namespace grnn {

/// \brief Addressable binary min-heap.
///
/// \tparam Key ordered priority type (smallest on top).
/// \tparam Value payload carried with each entry.
template <typename Key, typename Value>
class IndexedHeap {
 public:
  /// Opaque reference to a live heap entry. Becomes stale (and harmless)
  /// once the entry is popped or erased.
  struct Handle {
    uint32_t slot = kNullSlot;
    uint32_t generation = 0;

    friend bool operator==(const Handle&, const Handle&) = default;
  };

  IndexedHeap() = default;

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }
  /// Number of entry slots the heap can hold without reallocating.
  /// clear() keeps the backing storage, so a reused heap stops
  /// allocating once it has seen its high-water mark.
  size_t slot_capacity() const { return slots_.capacity(); }

  /// Inserts an entry; O(log n). The returned handle stays valid until the
  /// entry is popped or erased.
  Handle Push(Key key, Value value) {
    uint32_t slot;
    if (free_head_ != kNullSlot) {
      slot = free_head_;
      free_head_ = slots_[slot].next_free;
      slots_[slot].key = std::move(key);
      slots_[slot].value = std::move(value);
    } else {
      slot = static_cast<uint32_t>(slots_.size());
      slots_.push_back(Slot{std::move(key), std::move(value), 0, 0, 0});
    }
    Slot& s = slots_[slot];
    s.heap_pos = static_cast<uint32_t>(heap_.size());
    heap_.push_back(slot);
    SiftUp(s.heap_pos);
    return Handle{slot, s.generation};
  }

  /// Smallest key; heap must be non-empty.
  const Key& top_key() const {
    GRNN_DCHECK(!empty());
    return slots_[heap_[0]].key;
  }

  /// Removes and returns the smallest entry; O(log n).
  std::pair<Key, Value> Pop() {
    GRNN_DCHECK(!empty());
    uint32_t slot = heap_[0];
    std::pair<Key, Value> out{std::move(slots_[slot].key),
                              std::move(slots_[slot].value)};
    RemoveAt(0);
    return out;
  }

  /// True iff the handle still refers to a live entry.
  bool Contains(Handle h) const {
    return h.slot != kNullSlot && h.slot < slots_.size() &&
           slots_[h.slot].generation == h.generation &&
           slots_[h.slot].heap_pos != kNullSlot;
  }

  /// Erases the entry if it is still live; returns whether it was.
  bool Erase(Handle h) {
    if (!Contains(h)) {
      return false;
    }
    RemoveAt(slots_[h.slot].heap_pos);
    return true;
  }

  void clear() {
    slots_.clear();
    heap_.clear();
    free_head_ = kNullSlot;
  }

 private:
  static constexpr uint32_t kNullSlot = UINT32_MAX;

  struct Slot {
    Key key;
    Value value;
    uint32_t heap_pos;    // kNullSlot when the slot is free
    uint32_t next_free;   // free-list link, valid when free
    uint32_t generation;  // bumped on free; stale handles mismatch
  };

  void RemoveAt(uint32_t pos) {
    uint32_t slot = heap_[pos];
    uint32_t last = heap_.back();
    heap_.pop_back();
    if (pos < heap_.size()) {
      heap_[pos] = last;
      slots_[last].heap_pos = pos;
      // The moved entry may need to travel either direction.
      SiftDown(pos);
      SiftUp(slots_[last].heap_pos);
    }
    Slot& s = slots_[slot];
    s.heap_pos = kNullSlot;
    ++s.generation;
    s.next_free = free_head_;
    free_head_ = slot;
  }

  void SiftUp(uint32_t pos) {
    uint32_t slot = heap_[pos];
    while (pos > 0) {
      uint32_t parent = (pos - 1) / 2;
      if (!(slots_[slot].key < slots_[heap_[parent]].key)) {
        break;
      }
      heap_[pos] = heap_[parent];
      slots_[heap_[pos]].heap_pos = pos;
      pos = parent;
    }
    heap_[pos] = slot;
    slots_[slot].heap_pos = pos;
  }

  void SiftDown(uint32_t pos) {
    uint32_t slot = heap_[pos];
    const uint32_t n = static_cast<uint32_t>(heap_.size());
    for (;;) {
      const uint32_t left = pos * 2 + 1;
      if (left >= n) {
        break;
      }
      uint32_t best = left;
      if (left + 1 < n &&
          slots_[heap_[left + 1]].key < slots_[heap_[left]].key) {
        best = left + 1;
      }
      if (!(slots_[heap_[best]].key < slots_[slot].key)) {
        break;
      }
      heap_[pos] = heap_[best];
      slots_[heap_[pos]].heap_pos = pos;
      pos = best;
    }
    heap_[pos] = slot;
    slots_[slot].heap_pos = pos;
  }

  std::vector<Slot> slots_;
  std::vector<uint32_t> heap_;  // heap of slot indices
  uint32_t free_head_ = kNullSlot;
};

}  // namespace grnn

#endif  // GRNN_COMMON_INDEXED_HEAP_H_

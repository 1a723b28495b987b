// Copyright (c) GRNN authors.
// EpochManager: epoch-based reclamation for the serving layer's
// immutable world versions (DESIGN.md, "Serving layer").
//
// The PR 3 per-domain reader-writer protocol serializes every writer
// against all readers of a domain. Epoch snapshots remove readers from
// that equation: a query PINS the current epoch (a lock-free slot
// claim), loads the currently published version pointer, and runs
// against that immutable snapshot; writers publish a replacement
// version, RETIRE the old one tagged with the epoch current at the
// swap, and the manager reclaims a retired version once every pin of
// an epoch <= its retire epoch has drained. Readers therefore never
// block on writers — not on a mutex, not on a shared_mutex — and a
// retired version stays alive exactly as long as some reader may still
// dereference it.
//
// Safety argument (all accesses seq_cst):
//   * Pin stores `epoch + 1` into a free slot, then re-reads the global
//     epoch; it only returns once the slot value equals the current
//     global epoch. From that point until Unpin, the slot is a visible
//     lower bound: any object swapped out AFTER the pin validates is
//     retired with an epoch >= the pinned one.
//   * A reader that observed a pointer P did so after its pin
//     validated and before P was swapped out, so its pinned epoch is
//     <= P's retire epoch. Reclaim frees P only when the minimum
//     pinned epoch is STRICTLY greater than P's retire epoch, which
//     that reader's slot prevents until it unpins.
//   * Retire advances the global epoch after tagging, so under a
//     steady stream of pins the minimum pinned epoch keeps moving and
//     limbo drains; nothing waits for a quiescent instant.
//
// The manager owns retired objects as std::shared_ptr<const void>, so
// "reclaim" is simply dropping the last reference; callers keep their
// live version in a shared_ptr too and hand it over on retirement.
//
// Writer-side calls (Retire, Reclaim) take a small mutex; they are
// already serialized by the engine's exclusive update path. Pin/Unpin
// are lock-free (a bounded CAS scan over the slot array) and safe from
// any number of concurrent threads.

#ifndef GRNN_SERVE_EPOCH_H_
#define GRNN_SERVE_EPOCH_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/macros.h"

namespace grnn::serve {

/// Observability counters of an EpochManager (engine::epoch_stats and
/// the serving benches read these; all-zero when snapshots are off).
struct EpochStats {
  /// Current global epoch (== versions published so far).
  uint64_t epoch = 0;
  /// Completed Pin() calls.
  uint64_t pins = 0;
  /// Pin slot-claim retries (contention / slot-array pressure).
  uint64_t pin_retries = 0;
  /// Objects handed to Retire().
  uint64_t retired = 0;
  /// Retired objects whose epoch drained and were dropped.
  uint64_t reclaimed = 0;
  /// Retired objects still waiting for their epoch to drain.
  uint64_t limbo = 0;
};

class EpochManager {
 public:
  /// Concurrent pins beyond this spin until a slot frees up (counted in
  /// pin_retries). 64 cache-line-sized slots cover far more reader
  /// threads than the engine's callers ever field.
  static constexpr size_t kNumSlots = 64;

  EpochManager() = default;
  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  /// \brief RAII pin of one epoch. Move-only; unpins on destruction.
  /// While alive, no object retired at an epoch >= epoch() is
  /// reclaimed, so every pointer published before the pin validated
  /// stays dereferenceable.
  class Guard {
   public:
    Guard() = default;
    Guard(Guard&& o) noexcept
        : mgr_(o.mgr_), slot_(o.slot_), epoch_(o.epoch_) {
      o.mgr_ = nullptr;
    }
    Guard& operator=(Guard&& o) noexcept {
      if (this != &o) {
        Release();
        mgr_ = o.mgr_;
        slot_ = o.slot_;
        epoch_ = o.epoch_;
        o.mgr_ = nullptr;
      }
      return *this;
    }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;
    ~Guard() { Release(); }

    bool pinned() const { return mgr_ != nullptr; }
    uint64_t epoch() const { return epoch_; }

   private:
    friend class EpochManager;
    Guard(EpochManager* mgr, size_t slot, uint64_t epoch)
        : mgr_(mgr), slot_(slot), epoch_(epoch) {}
    void Release() {
      if (mgr_ != nullptr) {
        mgr_->Unpin(slot_);
        mgr_ = nullptr;
      }
    }

    EpochManager* mgr_ = nullptr;
    size_t slot_ = 0;
    uint64_t epoch_ = 0;
  };

  /// Pins the current epoch. Lock-free; never blocks on writers (spins
  /// only if all kNumSlots slots hold live pins).
  Guard Pin();

  /// Current global epoch.
  uint64_t epoch() const {
    return global_epoch_.load(std::memory_order_seq_cst);
  }

  /// \brief Hands a swapped-out object to the manager. The caller must
  /// have unpublished it FIRST (no new reader can acquire it); the
  /// object is tagged with the current epoch and the global epoch then
  /// advances, so pins taken from now on never delay its reclamation.
  /// Opportunistically reclaims whatever already drained.
  void Retire(std::shared_ptr<const void> object);

  /// Drops every retired object whose retire epoch is strictly below
  /// the minimum pinned epoch. Returns how many were dropped.
  size_t Reclaim();

  /// Minimum epoch over live pins; UINT64_MAX when nothing is pinned.
  uint64_t MinPinnedEpoch() const;

  EpochStats stats() const;

 private:
  friend class Guard;

  // Slot value 0 = free; otherwise pinned epoch + 1.
  static constexpr uint64_t kSlotFree = 0;
  struct alignas(64) Slot {
    std::atomic<uint64_t> state{kSlotFree};
  };

  void Unpin(size_t slot) {
    slots_[slot].state.store(kSlotFree, std::memory_order_seq_cst);
  }

  std::atomic<uint64_t> global_epoch_{0};
  Slot slots_[kNumSlots];
  std::atomic<uint64_t> pins_{0};
  std::atomic<uint64_t> pin_retries_{0};

  struct Retired {
    uint64_t epoch = 0;
    std::shared_ptr<const void> object;
  };
  /// Guards the limbo list and its counters. Writer-side only: Pin and
  /// Unpin never touch it.
  mutable std::mutex limbo_mu_;
  std::vector<Retired> limbo_;
  uint64_t retired_total_ = 0;
  uint64_t reclaimed_total_ = 0;
};

}  // namespace grnn::serve

#endif  // GRNN_SERVE_EPOCH_H_

#include "storage/buffer_pool.h"

#include <cstring>
#include <thread>

#include "common/string_util.h"
#include "obs/trace.h"
#include "storage/wal.h"

namespace grnn::storage {

PageGuard::PageGuard(PageGuard&& other) noexcept
    : pool_(other.pool_),
      shard_(other.shard_),
      frame_(other.frame_),
      page_id_(other.page_id_),
      data_(other.data_),
      owned_(std::move(other.owned_)),
      dirty_passthrough_(other.dirty_passthrough_) {
  other.pool_ = nullptr;
  other.data_ = nullptr;
  other.dirty_passthrough_ = false;
}

PageGuard& PageGuard::operator=(PageGuard&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    shard_ = other.shard_;
    frame_ = other.frame_;
    page_id_ = other.page_id_;
    data_ = other.data_;
    owned_ = std::move(other.owned_);
    dirty_passthrough_ = other.dirty_passthrough_;
    other.pool_ = nullptr;
    other.data_ = nullptr;
    other.dirty_passthrough_ = false;
  }
  return *this;
}

PageGuard::~PageGuard() { Release(); }

uint8_t* PageGuard::mutable_data() {
  GRNN_CHECK(valid());
  if (frame_ != SIZE_MAX) {
    pool_->MarkDirty(shard_, frame_);
  } else {
    dirty_passthrough_ = true;
  }
  return const_cast<uint8_t*>(data_);
}

void PageGuard::Release() {
  if (pool_ != nullptr && data_ != nullptr) {
    if (frame_ != SIZE_MAX) {
      pool_->Unpin(shard_, frame_, /*dirty=*/false);
    } else if (dirty_passthrough_) {
      // Unbuffered write-through.
      pool_->CountPassthroughWrite(page_id_, data_);
    }
  }
  pool_ = nullptr;
  data_ = nullptr;
  owned_.reset();
  dirty_passthrough_ = false;
}

BufferPool::BufferPool(DiskManager* disk, size_t capacity_pages,
                       ReplacementPolicy policy, size_t num_shards)
    : disk_(disk), capacity_(capacity_pages), policy_(policy) {
  GRNN_CHECK(disk != nullptr);
  // An unbuffered pool only needs one shard (stat counting); a buffered
  // pool never carries more shards than frames so every shard can cache.
  size_t shards = num_shards < 1 ? 1 : num_shards;
  if (capacity_ == 0) {
    shards = 1;
  } else if (shards > capacity_) {
    shards = capacity_;
  }
  shards_.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    auto shard = std::make_unique<Shard>();
    // Split the frame budget evenly; the first (capacity % shards) shards
    // absorb the remainder.
    shard->frames.resize(capacity_ / shards +
                         (s < capacity_ % shards ? 1 : 0));
    shards_.push_back(std::move(shard));
  }
}

BufferPool::~BufferPool() { (void)FlushAll(); }

Result<PageGuard> BufferPool::Acquire(PageId id) {
  // Telemetry (obs/trace.h): pins count onto the innermost span of an
  // armed per-query trace; misses — the expensive path — additionally
  // get their own timed span below. One nullptr branch when disarmed.
  obs::TraceContext* trace = obs::CurrentTrace();
  if (trace != nullptr) {
    trace->Note("page.pins", 1);
  }
  Shard& shard = *shards_[ShardOf(id)];
  // Sharding makes all-frames-pinned a TRANSIENT per-shard condition:
  // concurrent callers briefly pinning distinct pages of one small
  // shard must not surface as errors the way genuine pool exhaustion
  // (long-held pins over every frame) does. Bounded retry absorbs the
  // transient case; the error survives for the genuine one.
  constexpr int kPinRetries = 256;
  for (int attempt = 0;; ++attempt) {
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      if (attempt == 0) {
        shard.stats.logical_reads++;
      }

      if (capacity_ == 0) {
        // Unbuffered mode: every access faults into a private buffer.
        obs::ScopedSpan miss(trace, "page.miss");
        shard.stats.physical_reads++;
        auto buf = std::make_unique<uint8_t[]>(disk_->page_size());
        GRNN_RETURN_NOT_OK(disk_->ReadPage(id, buf.get()));
        uint8_t* raw = buf.get();
        return PageGuard(this, 0, SIZE_MAX, id, raw, std::move(buf));
      }

      auto it = shard.page_table.find(id);
      if (it != shard.page_table.end()) {
        Frame& f = shard.frames[it->second];
        f.pins++;
        if (policy_ == ReplacementPolicy::kLru) {
          f.tick = ++shard.tick;
        }
        return PageGuard(this, ShardOf(id), it->second, id, f.data.get(),
                         nullptr);
      }

      Result<size_t> victim_or = FindVictim(shard);
      if (victim_or.ok()) {
        obs::ScopedSpan miss(trace, "page.miss");
        Frame& f = shard.frames[*victim_or];
        if (f.page != kInvalidPage) {
          if (f.dirty) {
            GRNN_RETURN_NOT_OK(FlushWalBeforePageWrite());
            shard.stats.physical_writes++;
            GRNN_RETURN_NOT_OK(disk_->WritePage(f.page, f.data.get()));
          }
          shard.stats.evictions++;
          shard.page_table.erase(f.page);
        }
        if (f.data == nullptr) {
          f.data = std::make_unique<uint8_t[]>(disk_->page_size());
        }
        shard.stats.physical_reads++;
        GRNN_RETURN_NOT_OK(disk_->ReadPage(id, f.data.get()));
        f.page = id;
        f.pins = 1;
        f.dirty = false;
        f.tick = ++shard.tick;
        shard.page_table[id] = *victim_or;
        return PageGuard(this, ShardOf(id), *victim_or, id, f.data.get(),
                         nullptr);
      }
      if (attempt >= kPinRetries) {
        return victim_or.status();
      }
    }
    std::this_thread::yield();
  }
}

Status BufferPool::FlushAll() {
  GRNN_RETURN_NOT_OK(FlushWalBeforePageWrite());
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (Frame& f : shard->frames) {
      if (f.page != kInvalidPage && f.dirty) {
        shard->stats.physical_writes++;
        GRNN_RETURN_NOT_OK(disk_->WritePage(f.page, f.data.get()));
        f.dirty = false;
      }
    }
  }
  return Status::OK();
}

Status BufferPool::Invalidate() {
  GRNN_RETURN_NOT_OK(FlushAll());
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (Frame& f : shard->frames) {
      if (f.page != kInvalidPage && f.pins == 0) {
        shard->page_table.erase(f.page);
        f.page = kInvalidPage;
        f.dirty = false;
      }
    }
  }
  return Status::OK();
}

size_t BufferPool::num_resident() const {
  size_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    n += shard->page_table.size();
  }
  return n;
}

size_t BufferPool::num_pinned() const {
  size_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const Frame& f : shard->frames) {
      n += (f.page != kInvalidPage && f.pins > 0);
    }
  }
  return n;
}

IoStats BufferPool::stats() const {
  IoStats out;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    out += shard->stats;
  }
  return out;
}

IoStats BufferPool::shard_stats(size_t shard) const {
  std::lock_guard<std::mutex> lock(shards_[shard]->mu);
  return shards_[shard]->stats;
}

void BufferPool::ResetStats() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->stats = IoStats{};
  }
}

void BufferPool::Unpin(size_t shard_idx, size_t frame, bool dirty) {
  Shard& shard = *shards_[shard_idx];
  std::lock_guard<std::mutex> lock(shard.mu);
  Frame& f = shard.frames[frame];
  GRNN_DCHECK(f.pins > 0);
  f.pins--;
  f.dirty = f.dirty || dirty;
}

void BufferPool::MarkDirty(size_t shard_idx, size_t frame) {
  Shard& shard = *shards_[shard_idx];
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.frames[frame].dirty = true;
}

void BufferPool::AttachWal(Wal* wal) {
  GRNN_CHECK(wal != nullptr);
  // Unbuffered pools write through on guard release with no way to
  // surface a WAL flush failure; durable stores need a buffered pool.
  GRNN_CHECK(capacity_ > 0);
  GRNN_CHECK(wal->disk() != disk_);
  wal_ = wal;
}

Status BufferPool::FlushWalBeforePageWrite() {
  if (wal_ == nullptr) {
    return Status::OK();
  }
  // The WAL serializes internally and lives on its own device, so this
  // is safe under a shard mutex (no lock cycle, no same-device
  // reentrancy). Usually a no-op: commits flush before acknowledging.
  Result<bool> flushed = wal_->Flush();
  return flushed.ok() ? Status::OK() : flushed.status();
}

void BufferPool::CountPassthroughWrite(PageId page, const uint8_t* data) {
  Shard& shard = *shards_[ShardOf(page)];
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.stats.physical_writes++;
  (void)disk_->WritePage(page, data);
}

Result<size_t> BufferPool::FindVictim(Shard& shard) {
  size_t best = SIZE_MAX;
  uint64_t best_tick = ~0ULL;
  for (size_t i = 0; i < shard.frames.size(); ++i) {
    const Frame& f = shard.frames[i];
    if (f.page == kInvalidPage) {
      return i;  // free frame
    }
    if (f.pins == 0 && f.tick < best_tick) {
      best = i;
      best_tick = f.tick;
    }
  }
  if (best == SIZE_MAX) {
    return Status::ResourceExhausted(
        StrPrintf("all %zu frames of the page's shard are pinned "
                  "(%zu shards over %zu frames)",
                  shard.frames.size(), shards_.size(), capacity_));
  }
  return best;
}

}  // namespace grnn::storage

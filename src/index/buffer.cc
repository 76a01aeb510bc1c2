#include "src/index/buffer.h"

#include <algorithm>
#include <list>
#include <mutex>
#include <utility>
#include <vector>

#include "src/util/check.h"

namespace mst {
namespace internal {

struct BufferFrame {
  PageId id = kInvalidPageId;
  Page page;
  bool dirty = false;
  int pins = 0;        // total outstanding guards
  int write_pins = 0;  // guards from PinMutable (Flush skips these frames)
};

struct BufferShard {
  mutable std::mutex mu;
  // front = most recently used. std::list keeps frame addresses stable while
  // guards hold BufferFrame pointers across splices.
  std::list<BufferFrame> lru;
  // Direct-indexed page table: pages map to shards by id % shard_count, so
  // the per-shard slot id / shard_count is dense. Empty slots hold
  // lru.end(). Page ids are small dense integers, so this replaces a hash
  // lookup per pin — the hottest buffer operation — with an array index.
  std::vector<std::list<BufferFrame>::iterator> index;
  size_t capacity = 0;  // frames this shard may keep resident

  std::list<BufferFrame>::iterator* Slot(PageId id, size_t shard_count) {
    const size_t slot = static_cast<size_t>(id) / shard_count;
    if (slot >= index.size()) index.resize(slot + 1, lru.end());
    return &index[slot];
  }
};

}  // namespace internal

using internal::BufferFrame;
using internal::BufferShard;

PageGuard::PageGuard(PageGuard&& other) noexcept
    : owner_(other.owner_),
      shard_(other.shard_),
      frame_(other.frame_),
      page_(other.page_),
      id_(other.id_),
      writable_(other.writable_) {
  other.owner_ = nullptr;
  other.shard_ = nullptr;
  other.frame_ = nullptr;
  other.page_ = nullptr;
  other.id_ = kInvalidPageId;
  other.writable_ = false;
}

PageGuard& PageGuard::operator=(PageGuard&& other) noexcept {
  if (this != &other) {
    Release();
    owner_ = std::exchange(other.owner_, nullptr);
    shard_ = std::exchange(other.shard_, nullptr);
    frame_ = std::exchange(other.frame_, nullptr);
    page_ = std::exchange(other.page_, nullptr);
    id_ = std::exchange(other.id_, kInvalidPageId);
    writable_ = std::exchange(other.writable_, false);
  }
  return *this;
}

PageGuard::~PageGuard() { Release(); }

void PageGuard::Release() {
  if (frame_ == nullptr) return;
  owner_->Unpin(shard_, frame_, writable_);
  owner_ = nullptr;
  shard_ = nullptr;
  frame_ = nullptr;
  page_ = nullptr;
  id_ = kInvalidPageId;
  writable_ = false;
}

BufferManager::BufferManager(PageFile* file, size_t capacity_pages,
                             size_t num_shards)
    : file_(file), capacity_(capacity_pages) {
  MST_CHECK(file != nullptr);
  MST_CHECK_MSG(capacity_pages >= 1, "buffer needs at least one frame");
  if (num_shards == 0) {
    num_shards = std::min(kDefaultShards, capacity_pages);
  }
  MST_CHECK_MSG(num_shards <= capacity_pages,
                "more shards than buffer frames");
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<BufferShard>());
  }
  AssignShardCapacities();
}

BufferManager::~BufferManager() { Flush(); }

BufferShard& BufferManager::ShardFor(PageId id) const {
  return *shards_[static_cast<size_t>(id) % shards_.size()];
}

void BufferManager::AssignShardCapacities() {
  const size_t n = shards_.size();
  for (size_t i = 0; i < n; ++i) {
    shards_[i]->capacity =
        std::max<size_t>(1, capacity_ / n + (i < capacity_ % n));
  }
}

void BufferManager::EvictLocked(BufferShard& shard) {
  // Scan from the LRU end, skipping pinned frames and never touching the
  // MRU frame (the one the caller just inserted or pinned). If everything
  // else is pinned the shard temporarily exceeds its frame count — pins are
  // short-lived.
  auto it = shard.lru.end();
  while (shard.lru.size() > shard.capacity && it != shard.lru.begin()) {
    const auto candidate = std::prev(it);
    if (candidate == shard.lru.begin()) break;
    if (candidate->pins > 0) {
      it = candidate;
      continue;
    }
    if (candidate->dirty) {
      file_->Write(candidate->id, candidate->page);
    }
    *shard.Slot(candidate->id, shards_.size()) = shard.lru.end();
    it = shard.lru.erase(candidate);
  }
}

PageGuard BufferManager::PinImpl(PageId id, bool writable,
                                 bool load_from_disk) {
  BufferShard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  logical_reads_.fetch_add(1, std::memory_order_relaxed);

  const size_t slot = static_cast<size_t>(id) / shards_.size();
  const auto resident = slot < shard.index.size() ? shard.index[slot]
                                                  : shard.lru.end();
  if (resident == shard.lru.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    shard.lru.emplace_front();
    BufferFrame& inserted = shard.lru.front();
    inserted.id = id;
    if (load_from_disk) {
      // The read happens under the shard lock: the backing PageFile is an
      // in-memory array, so holding the lock across the "I/O" is cheap and
      // spares a racy frame-under-construction state.
      file_->Read(id, &inserted.page);
    }
    *shard.Slot(id, shards_.size()) = shard.lru.begin();
  } else {
    shard.lru.splice(shard.lru.begin(), shard.lru, resident);
  }

  // Pin before evicting so the eviction scan can never reclaim this frame,
  // even when every other frame in the shard is pinned by other threads.
  BufferFrame& frame = shard.lru.front();
  ++frame.pins;
  if (writable) {
    frame.dirty = true;
    ++frame.write_pins;
  }
  EvictLocked(shard);
  return PageGuard(this, &shard, &frame, &frame.page, id, writable);
}

PageGuard BufferManager::Pin(PageId id) {
  return PinImpl(id, /*writable=*/false, /*load_from_disk=*/true);
}

PageGuard BufferManager::PinMutable(PageId id) {
  return PinImpl(id, /*writable=*/true, /*load_from_disk=*/true);
}

void BufferManager::Unpin(BufferShard* shard, BufferFrame* frame,
                          bool writable) {
  std::lock_guard<std::mutex> lock(shard->mu);
  MST_DCHECK(frame->pins > 0);
  --frame->pins;
  if (writable) {
    MST_DCHECK(frame->write_pins > 0);
    --frame->write_pins;
  }
  // An over-full shard (every frame was pinned when it grew) shrinks back
  // as soon as pins drain.
  if (frame->pins == 0) EvictLocked(*shard);
}

PageId BufferManager::AllocatePage() {
  const PageId id = file_->Allocate();
  BufferShard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  // Fresh page: resident dirty frame, no disk read needed. Counts a miss but
  // no logical read — allocation is cache management, not a page access
  // (same accounting as before the pin API).
  misses_.fetch_add(1, std::memory_order_relaxed);
  shard.lru.emplace_front();
  BufferFrame& frame = shard.lru.front();
  frame.id = id;
  frame.dirty = true;
  *shard.Slot(id, shards_.size()) = shard.lru.begin();
  EvictLocked(shard);
  return id;
}

void BufferManager::Flush() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (BufferFrame& frame : shard->lru) {
      if (frame.dirty && frame.write_pins == 0) {
        file_->Write(frame.id, frame.page);
        frame.dirty = false;
      }
    }
  }
}

void BufferManager::Clear() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (auto it = shard->lru.begin(); it != shard->lru.end();) {
      if (it->dirty && it->write_pins == 0) {
        file_->Write(it->id, it->page);
        it->dirty = false;
      }
      if (it->pins == 0) {
        *shard->Slot(it->id, shards_.size()) = shard->lru.end();
        it = shard->lru.erase(it);
      } else {
        ++it;
      }
    }
  }
}

void BufferManager::SetCapacity(size_t capacity_pages) {
  MST_CHECK(capacity_pages >= 1);
  capacity_ = capacity_pages;
  AssignShardCapacities();
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    EvictLocked(*shard);
  }
}

int64_t BufferManager::pinned_frames() const {
  int64_t pinned = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const BufferFrame& frame : shard->lru) {
      if (frame.pins > 0) ++pinned;
    }
  }
  return pinned;
}

size_t BufferManager::resident_frames() const {
  size_t resident = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    resident += shard->lru.size();
  }
  return resident;
}

}  // namespace mst

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
  NodeRef node;
  size_t bytes = 0;  // PlainNodeBytes(*node), for resident_bytes()
  bool dirty = false;
};

struct BufferShard {
  mutable std::mutex mu;
  // front = most recently used.
  std::list<BufferFrame> lru;
  // Direct-indexed page table: pages map to shards by id % shard_count, so
  // the per-shard slot id / shard_count is dense. Empty slots hold
  // lru.end(). Page ids are small dense integers, so this replaces a hash
  // lookup per read — the hottest buffer operation — with an array index.
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

namespace {

// Per-thread tally backing ThreadMisses().
thread_local int64_t tls_misses = 0;

void WriteBack(PageFile* file, BufferFrame* frame) {
  Page page;
  frame->node->EncodeTo(&page);
  file->Write(frame->id, page);
  frame->dirty = false;
}

}  // namespace

int64_t BufferManager::ThreadMisses() { return tls_misses; }

size_t BufferManager::PlainNodeBytes(const IndexNode& node) {
  size_t bytes = sizeof(IndexNode);
  if (node.IsLeaf()) {
    // A column block exists whenever any entry was ever decoded/added.
    if (node.leaves.View().t0 != nullptr) bytes += sizeof(LeafBlock);
  } else {
    bytes += node.internals.capacity() * sizeof(InternalEntry);
  }
  return bytes;
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
  // Every shard keeps at least one frame, so the MRU frame the caller just
  // installed or touched is never the victim.
  while (shard.lru.size() > shard.capacity) {
    BufferFrame& victim = shard.lru.back();
    if (victim.dirty) WriteBack(file_, &victim);
    *shard.Slot(victim.id, shards_.size()) = shard.lru.end();
    shard.lru.pop_back();
  }
}

NodeRef BufferManager::Read(PageId id) {
  BufferShard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  logical_reads_.fetch_add(1, std::memory_order_relaxed);

  auto* slot = shard.Slot(id, shards_.size());
  if (*slot != shard.lru.end()) {
    shard.lru.splice(shard.lru.begin(), shard.lru, *slot);
    return shard.lru.front().node;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  ++tls_misses;
  // The read and the decode happen under the shard lock: the backing
  // PageFile is an in-memory array, and a write to this page, which takes
  // the same lock, cannot interleave with them.
  Page page;
  file_->Read(id, &page);
  NodeRef node = std::make_shared<const IndexNode>(IndexNode::Decode(page, id));
  const size_t bytes = PlainNodeBytes(*node);
  shard.lru.push_front({id, node, bytes, /*dirty=*/false});
  *slot = shard.lru.begin();
  EvictLocked(shard);
  return node;
}

void BufferManager::Write(IndexNode node) {
  const PageId id = node.self;
  MST_DCHECK(id != kInvalidPageId);
  NodeRef ref = std::make_shared<const IndexNode>(std::move(node));
  const size_t bytes = PlainNodeBytes(*ref);

  BufferShard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto* slot = shard.Slot(id, shards_.size());
  if (*slot != shard.lru.end()) {
    shard.lru.splice(shard.lru.begin(), shard.lru, *slot);
    BufferFrame& frame = shard.lru.front();
    frame.node = std::move(ref);
    frame.bytes = bytes;
    frame.dirty = true;
    return;
  }
  shard.lru.push_front({id, std::move(ref), bytes, /*dirty=*/true});
  *slot = shard.lru.begin();
  EvictLocked(shard);
}

void BufferManager::Flush() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (BufferFrame& frame : shard->lru) {
      if (frame.dirty) WriteBack(file_, &frame);
    }
  }
}

void BufferManager::Clear() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (BufferFrame& frame : shard->lru) {
      if (frame.dirty) WriteBack(file_, &frame);
    }
    shard->lru.clear();
    shard->index.clear();
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

size_t BufferManager::resident_frames() const {
  size_t resident = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    resident += shard->lru.size();
  }
  return resident;
}

size_t BufferManager::resident_bytes() const {
  size_t bytes = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const BufferFrame& frame : shard->lru) bytes += frame.bytes;
  }
  return bytes;
}

}  // namespace mst

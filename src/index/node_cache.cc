#include "src/index/node_cache.h"

#include <algorithm>
#include <list>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "src/util/check.h"

namespace mst {
namespace internal {

struct NodeCacheEntry {
  PageId id = kInvalidPageId;
  NodeRef node;
  size_t bytes = 0;  // PlainNodeBytes(*node), for resident_bytes()
};

struct NodeCacheShard {
  mutable std::mutex mu;
  // front = most recently used.
  std::list<NodeCacheEntry> lru;
  std::unordered_map<PageId, std::list<NodeCacheEntry>::iterator> index;
  // Page versions, bumped on Invalidate; absent means version 0. Preserved
  // across Clear/SetCapacity so a re-enabled cache cannot resurrect a node
  // decoded before an intervening write.
  std::unordered_map<PageId, uint64_t> versions;
  size_t budget = 1;  // entries this shard may keep resident
};

}  // namespace internal

using internal::NodeCacheEntry;
using internal::NodeCacheShard;

namespace {

// Per-thread tallies backing ThreadHits/ThreadMisses. A query runs on one
// thread, so before/after deltas are exactly its own hits and misses even
// when other threads use the same cache concurrently.
thread_local int64_t tls_hits = 0;
thread_local int64_t tls_misses = 0;

uint64_t VersionLocked(const NodeCacheShard& shard, PageId id) {
  const auto it = shard.versions.find(id);
  return it == shard.versions.end() ? 0 : it->second;
}

}  // namespace

int64_t NodeCache::ThreadHits() { return tls_hits; }
int64_t NodeCache::ThreadMisses() { return tls_misses; }

size_t NodeCache::PlainNodeBytes(const IndexNode& node) {
  size_t bytes = sizeof(IndexNode);
  if (node.IsLeaf()) {
    // A column block exists whenever any entry was ever decoded/added.
    if (node.leaves.View().t0 != nullptr) bytes += sizeof(LeafBlock);
  } else {
    bytes += node.internals.capacity() * sizeof(InternalEntry);
  }
  return bytes;
}

NodeCache::NodeCache(size_t capacity_nodes, size_t num_shards)
    : capacity_(capacity_nodes) {
  if (num_shards == 0) {
    num_shards = std::min(kDefaultShards, std::max<size_t>(capacity_nodes, 1));
  }
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<NodeCacheShard>());
  }
  AssignShardBudgets();
}

NodeCache::~NodeCache() = default;

NodeCacheShard& NodeCache::ShardFor(PageId id) const {
  return *shards_[static_cast<size_t>(id) % shards_.size()];
}

void NodeCache::AssignShardBudgets() {
  const size_t n = shards_.size();
  for (size_t i = 0; i < n; ++i) {
    shards_[i]->budget =
        std::max<size_t>(1, capacity_ / n + (i < capacity_ % n));
  }
}

void NodeCache::EvictLocked(NodeCacheShard& shard) {
  while (shard.lru.size() > shard.budget) {
    shard.index.erase(shard.lru.back().id);
    shard.lru.pop_back();
  }
}

NodeRef NodeCache::Lookup(PageId id, uint64_t* version_out) const {
  MST_DCHECK(version_out != nullptr);
  if (!enabled()) {
    *version_out = 0;
    return nullptr;
  }
  NodeCacheShard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.index.find(id);
  if (it == shard.index.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    ++tls_misses;
    *version_out = VersionLocked(shard, id);
    return nullptr;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  ++tls_hits;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return shard.lru.front().node;
}

void NodeCache::Insert(PageId id, NodeRef node, uint64_t version_at_read) {
  if (!enabled()) return;
  MST_DCHECK(node != nullptr);
  const size_t bytes = PlainNodeBytes(*node);

  NodeCacheShard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (VersionLocked(shard, id) != version_at_read) return;  // raced a write
  const auto it = shard.index.find(id);
  if (it != shard.index.end()) {
    // Another reader of the same version already published; keep theirs.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.push_front({id, std::move(node), bytes});
  shard.index[id] = shard.lru.begin();
  EvictLocked(shard);
}

void NodeCache::Invalidate(PageId id) {
  NodeCacheShard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  ++shard.versions[id];
  const auto it = shard.index.find(id);
  if (it == shard.index.end()) return;
  shard.lru.erase(it->second);
  shard.index.erase(it);
  invalidations_.fetch_add(1, std::memory_order_relaxed);
}

void NodeCache::Clear() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->lru.clear();
    shard->index.clear();
  }
}

void NodeCache::SetCapacity(size_t capacity_nodes) {
  capacity_ = capacity_nodes;
  AssignShardBudgets();
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    if (capacity_ == 0) {
      shard->lru.clear();
      shard->index.clear();
    } else {
      EvictLocked(*shard);
    }
  }
}

size_t NodeCache::resident_nodes() const {
  size_t resident = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    resident += shard->lru.size();
  }
  return resident;
}

size_t NodeCache::resident_bytes() const {
  size_t bytes = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const NodeCacheEntry& entry : shard->lru) bytes += entry.bytes;
  }
  return bytes;
}

}  // namespace mst

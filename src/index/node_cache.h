// Sharded LRU cache of *decoded* index nodes, layered above the page-level
// BufferManager. A buffer hit still pays a full page decode (header parse +
// entry-vector allocation + 4 KB copy) on every ReadNode; classic R-tree
// engines therefore keep decoded nodes cached above the page buffer, and so
// do we. Cached nodes are immutable `std::shared_ptr<const IndexNode>`
// values, so concurrent queries share one decoded object without copying and
// a node handed out before an eviction stays valid for as long as the caller
// holds the reference.
//
// Sizing: every entry counts 1 against a capacity of decoded nodes. The
// resident bytes are tracked beside the count for reporting only
// (resident_bytes()).
//
// Consistency: every page carries a version, bumped by Invalidate() (called
// from TrajectoryIndex::WriteNode on any modification). A reader observes
// the version before decoding and Insert() rejects the decoded node if the
// version moved meanwhile, so a writer racing a decode can never publish
// stale entries. Counters (hits/misses/invalidations) are relaxed atomics
// whose totals aggregate exactly under concurrency, plus thread-local
// tallies for exact per-query stats (same pattern as
// TrajectoryIndex::ThreadNodeAccesses).

#ifndef MST_INDEX_NODE_CACHE_H_
#define MST_INDEX_NODE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/index/node.h"
#include "src/index/pagefile.h"

namespace mst {

namespace internal {
struct NodeCacheShard;
}  // namespace internal

/// Sharded mutex+LRU cache of immutable decoded nodes keyed by PageId.
///
/// Pages map to shards by `id % shard_count`; each shard owns
/// `capacity / shard_count` entries (±1, min 1) and evicts LRU-first under
/// its own mutex. Capacity 0 disables the cache entirely: lookups miss
/// without counting, inserts are dropped, versions are still maintained so
/// the cache can be re-enabled at any time.
class NodeCache {
 public:
  /// `num_shards` 0 picks min(kDefaultShards, max(capacity, 1)); tests that
  /// need exact global-LRU behaviour pass 1. The shard count is fixed for
  /// the lifetime of the cache.
  explicit NodeCache(size_t capacity_nodes, size_t num_shards = 0);

  NodeCache(const NodeCache&) = delete;
  NodeCache& operator=(const NodeCache&) = delete;

  ~NodeCache();

  /// Default shard count, matching the buffer manager's.
  static constexpr size_t kDefaultShards = 8;

  /// Returns the cached node, or nullptr on a miss. Counts one hit or one
  /// miss (nothing while disabled). On a miss `*version_out` receives the
  /// page's current version; pass it back to Insert() after decoding.
  NodeRef Lookup(PageId id, uint64_t* version_out) const;

  /// Publishes a decoded node if the page's version still equals
  /// `version_at_read` (else the decode raced a write and is dropped).
  /// No-op while disabled.
  void Insert(PageId id, NodeRef node, uint64_t version_at_read);

  /// Bumps the page's version and drops any cached entry. Counts one
  /// invalidation when an entry was actually resident.
  void Invalidate(PageId id);

  /// Drops every cached entry (versions are preserved). Used between
  /// experiment phases for a deliberately cold object cache.
  void Clear();

  /// Resizes the cache; 0 disables it and drops all entries. Shard count is
  /// fixed, so the effective floor of an enabled cache is one entry/shard.
  void SetCapacity(size_t capacity_nodes);

  size_t capacity() const { return capacity_; }
  bool enabled() const { return capacity_ > 0; }
  size_t shard_count() const { return shards_.size(); }

  /// Lookups served from the cache since construction/ResetCounters().
  int64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  /// Lookups that fell through to decode. hits()+misses() equals the number
  /// of lookups performed while the cache was enabled.
  int64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  /// Resident entries dropped by Invalidate().
  int64_t invalidations() const {
    return invalidations_.load(std::memory_order_relaxed);
  }

  void ResetCounters() {
    hits_.store(0, std::memory_order_relaxed);
    misses_.store(0, std::memory_order_relaxed);
    invalidations_.store(0, std::memory_order_relaxed);
  }

  /// Entries currently resident across all shards (diagnostics/tests).
  size_t resident_nodes() const;

  /// Summed PlainNodeBytes of the resident entries (diagnostics).
  size_t resident_bytes() const;

  /// Resident bytes of a decoded entry: the IndexNode shell plus its column
  /// block or internal-entry array. Exposed for the byte-accounting
  /// exactness tests.
  static size_t PlainNodeBytes(const IndexNode& node);

  /// Monotonic per-thread hit/miss tallies across all caches, for exact
  /// per-query deltas under concurrent queries (cf. ThreadNodeAccesses).
  static int64_t ThreadHits();
  static int64_t ThreadMisses();

 private:
  internal::NodeCacheShard& ShardFor(PageId id) const;

  // Evicts LRU entries until the shard is back under its budget. Caller
  // holds the shard mutex.
  void EvictLocked(internal::NodeCacheShard& shard);

  // Distributes capacity_ over the shards (±1 entry, min 1).
  void AssignShardBudgets();

  size_t capacity_;
  std::vector<std::unique_ptr<internal::NodeCacheShard>> shards_;
  mutable std::atomic<int64_t> hits_{0};
  mutable std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> invalidations_{0};
};

}  // namespace mst

#endif  // MST_INDEX_NODE_CACHE_H_

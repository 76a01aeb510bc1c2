// Cross-query DISSIM result cache — the third caching layer, above the page
// buffer and the decoded-node cache. BFMSTSearch's dominant cost under
// repeated traffic is the full-period DISSIM refinement of surviving
// candidates (the §4.4 post-processing integrals); overlapping queries
// re-integrate the same (trajectory, period) pairs from scratch. This cache
// memoizes those refinements across queries, keyed by (query-trajectory
// fingerprint, trajectory id, period, integration policy).
//
// The cache only ever replaces a ComputeDissim call with the value an
// identical earlier call produced, so query results stay byte-identical with
// the cache on or off, and — unlike the node cache, which sits under the
// traversal — it cannot touch node-access accounting at all: the traversal
// never consults it.
//
// Consistency: DISSIM(Q, T) depends on T's stored segments, so a cached
// value goes stale when the index ingests new segments for T. The version
// authority is the index (TrajectoryIndex::TrajectoryWriteVersion, bumped on
// every segment insert — the same write hook that invalidates the node
// cache); entries record the version observed *before* the refinement was
// computed, and Lookup() rejects any entry whose recorded version differs
// from the caller's current one. A writer racing a refinement therefore
// cannot cause a stale serve: the refinement publishes under the old
// version, and every later lookup passes the bumped one.

#ifndef MST_CORE_RESULT_CACHE_H_
#define MST_CORE_RESULT_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/dissim.h"
#include "src/geom/interval.h"
#include "src/geom/trajectory.h"

namespace mst {

namespace internal {
struct ResultCacheShard;
}  // namespace internal

/// 128-bit content fingerprint of a query trajectory's sample sequence
/// (timestamps and positions, bit-exact; the id is deliberately excluded so
/// geometrically identical queries share cache entries). Two independent
/// 64-bit mixing streams make accidental collisions ~2^-64 per pair —
/// negligible next to hardware fault rates.
struct QueryFingerprint {
  uint64_t lo = 0;
  uint64_t hi = 0;

  bool operator==(const QueryFingerprint&) const = default;
};

/// Fingerprints `query`'s samples. O(samples); deterministic.
QueryFingerprint FingerprintQuery(const Trajectory& query);

/// Identity of one memoized refinement: which query geometry, against which
/// stored trajectory, over which period, under which integration policy.
struct ResultCacheKey {
  QueryFingerprint fingerprint;
  TrajectoryId traj_id = kInvalidTrajectoryId;
  TimeInterval period{0.0, 0.0};
  IntegrationPolicy policy = IntegrationPolicy::kExact;

  bool operator==(const ResultCacheKey& o) const {
    return fingerprint == o.fingerprint && traj_id == o.traj_id &&
           period.begin == o.period.begin && period.end == o.period.end &&
           policy == o.policy;
  }
};

/// Sharded mutex+LRU cache of full-period DissimResult values.
///
/// Keys map to shards by hash; each shard owns `capacity / shard_count`
/// entries (±1, min 1) and evicts LRU-first under its own mutex. Capacity 0
/// disables the cache entirely: lookups miss without counting and inserts
/// are dropped (versions live in the index, so disabling loses nothing).
class ResultCache {
 public:
  /// `num_shards` 0 picks min(kDefaultShards, max(capacity, 1)); tests that
  /// need exact global-LRU behaviour pass 1. Shard count is fixed for the
  /// lifetime of the cache.
  explicit ResultCache(size_t capacity_entries, size_t num_shards = 0);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  ~ResultCache();

  /// Default shard count, matching the node cache's.
  static constexpr size_t kDefaultShards = 8;

  /// Returns true and fills `*out` when a value cached under `key` with
  /// exactly `write_version` is resident (counts one hit). A resident entry
  /// recorded under any other version is stale: it is dropped, counted as
  /// one stale drop, and the lookup counts as a miss. Nothing is counted
  /// while disabled. `write_version` is the trajectory's current
  /// TrajectoryIndex::TrajectoryWriteVersion, read by the caller *before*
  /// the lookup (and re-used verbatim for the Insert after a miss).
  bool Lookup(const ResultCacheKey& key, uint64_t write_version,
              DissimResult* out) const;

  /// Publishes a refinement computed while the trajectory's write version
  /// was `write_version` (read before the computation — the NodeCache
  /// observe-then-publish discipline). Overwrites any resident entry for
  /// `key`. No-op while disabled.
  void Insert(const ResultCacheKey& key, const DissimResult& value,
              uint64_t write_version);

  /// Drops every cached entry. Used between experiment phases for a
  /// deliberately cold cache.
  void Clear();

  /// Resizes the cache; 0 disables it and drops all entries. Shard count is
  /// fixed, so the effective floor of an enabled cache is one entry/shard.
  void SetCapacity(size_t capacity_entries);

  size_t capacity() const { return capacity_; }
  bool enabled() const { return capacity_ > 0; }
  size_t shard_count() const { return shards_.size(); }

  /// Lookups served from the cache since construction/ResetCounters().
  int64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  /// Lookups that fell through to a fresh computation. hits()+misses()
  /// equals the number of lookups performed while the cache was enabled.
  int64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  /// Resident entries dropped because their recorded write version no longer
  /// matched the caller's (each also counted one miss).
  int64_t stale_drops() const {
    return stale_drops_.load(std::memory_order_relaxed);
  }

  void ResetCounters() {
    hits_.store(0, std::memory_order_relaxed);
    misses_.store(0, std::memory_order_relaxed);
    stale_drops_.store(0, std::memory_order_relaxed);
  }

  /// Entries currently resident across all shards (diagnostics/tests).
  size_t resident_entries() const;

  /// Monotonic per-thread hit/miss tallies across all result caches, for
  /// exact per-query deltas under concurrent queries (cf.
  /// NodeCache::ThreadHits).
  static int64_t ThreadHits();
  static int64_t ThreadMisses();

 private:
  internal::ResultCacheShard& ShardFor(const ResultCacheKey& key) const;

  // Evicts LRU entries until the shard is back under its budget. Caller
  // holds the shard mutex.
  void EvictLocked(internal::ResultCacheShard& shard);

  // Distributes capacity_ over the shards (±1 entry, min 1).
  void AssignShardBudgets();

  size_t capacity_;
  std::vector<std::unique_ptr<internal::ResultCacheShard>> shards_;
  mutable std::atomic<int64_t> hits_{0};
  mutable std::atomic<int64_t> misses_{0};
  mutable std::atomic<int64_t> stale_drops_{0};
};

}  // namespace mst

#endif  // MST_CORE_RESULT_CACHE_H_

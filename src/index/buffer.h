// Write-back LRU buffer of decoded index nodes in front of a PageFile: the
// one cache between the search and the disk. The paper's experiments (§5)
// put a page-count LRU buffer there; this one counts capacity in pages too,
// one decoded node per page, so a hit hands the search the node itself and
// only a miss reads and decodes a 4 KB page.
//
// Concurrency model: the frame table is split into shards, each with its own
// mutex and LRU list, so concurrent queries mostly touch different locks.
// Frames hold immutable `NodeRef`s; a caller holding one is its pin, because
// eviction only drops the buffer's reference. A miss reads and decodes the
// page under its shard mutex, and a write swaps the frame's node under the
// same mutex, so a reader sees either the old node or the new one, never a
// decode of half-written bytes. The logical-read and miss counters are
// atomics whose totals aggregate exactly under any interleaving, which keeps
// the paper's I/O-counter experiments meaningful when queries run in
// parallel.

#ifndef MST_INDEX_BUFFER_H_
#define MST_INDEX_BUFFER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/index/node.h"
#include "src/index/pagefile.h"

namespace mst {

namespace internal {
struct BufferShard;
}  // namespace internal

/// Sharded LRU cache of decoded nodes keyed by PageId.
///
/// Pages map to shards by `id % shard_count`; each shard holds
/// `capacity / shard_count` frames (±1, min 1) and evicts independently,
/// LRU-first. A dirty frame is encoded to the PageFile once: when it is
/// evicted, on Flush(), or on Clear().
class BufferManager {
 public:
  /// `capacity_pages` must be >= 1. The buffer does not own `file`.
  /// `num_shards` 0 picks min(kDefaultShards, capacity_pages); tests that
  /// need exact global-LRU behaviour pass 1.
  BufferManager(PageFile* file, size_t capacity_pages, size_t num_shards = 0);

  BufferManager(const BufferManager&) = delete;
  BufferManager& operator=(const BufferManager&) = delete;

  /// Flushes every dirty frame.
  ~BufferManager();

  /// Default shard count for index buffers.
  static constexpr size_t kDefaultShards = 8;

  /// Returns page `id`'s decoded node. Counts one logical read; a miss also
  /// counts one miss (globally and in ThreadMisses()), reads the page from
  /// the PageFile, decodes it, installs it and evicts LRU-first.
  NodeRef Read(PageId id);

  /// Installs `node` as the dirty frame of page `node.self` (allocated in
  /// the PageFile), replacing any resident node. Readers that already hold
  /// the old node keep it.
  void Write(IndexNode node);

  /// Encodes every dirty frame to the PageFile; keeps all frames resident.
  void Flush();

  /// Flushes, then drops every frame. Used between experiment phases so a
  /// query sequence starts against a cold cache deliberately.
  void Clear();

  /// Resizes the cache, evicting LRU frames if shrinking. The shard count is
  /// fixed at construction, so the effective floor is one page per shard.
  void SetCapacity(size_t capacity_pages);

  size_t capacity() const { return capacity_; }

  size_t shard_count() const { return shards_.size(); }

  int64_t logical_reads() const {
    return logical_reads_.load(std::memory_order_relaxed);
  }

  /// Buffer misses (physical page reads) since construction or
  /// ResetCounters().
  int64_t misses() const { return misses_.load(std::memory_order_relaxed); }

  void ResetCounters() {
    logical_reads_.store(0, std::memory_order_relaxed);
    misses_.store(0, std::memory_order_relaxed);
  }

  /// Frames currently resident across all shards.
  size_t resident_frames() const;

  /// Summed PlainNodeBytes of the resident frames.
  size_t resident_bytes() const;

  /// Resident bytes of a decoded node: the IndexNode shell plus its column
  /// block or internal-entry array.
  static size_t PlainNodeBytes(const IndexNode& node);

  /// Monotonic per-thread miss tally across all buffers. A query runs on one
  /// thread, so a before/after delta is exactly its own misses even while
  /// other threads read the same buffer.
  static int64_t ThreadMisses();

 private:
  internal::BufferShard& ShardFor(PageId id) const;

  // Evicts LRU frames until the shard is back within its frame count,
  // writing dirty ones back. Caller holds the shard mutex.
  void EvictLocked(internal::BufferShard& shard);

  // Distributes capacity_ frames over the shards (±1, min 1 each).
  void AssignShardCapacities();

  PageFile* file_;
  size_t capacity_;
  std::vector<std::unique_ptr<internal::BufferShard>> shards_;
  std::atomic<int64_t> logical_reads_{0};
  std::atomic<int64_t> misses_{0};
};

}  // namespace mst

#endif  // MST_INDEX_BUFFER_H_

// ShardedIndex: N independent single-threaded index shards behind one
// logical trajectory index — the scatter-gather substrate of the "millions
// of users" roadmap (modeled on TDengine's vnode split: one logical
// service, many self-contained storage shards).
//
// Trajectories are partitioned by a deterministic id hash; each shard owns
// a complete single-node stack — its own TrajectoryStore slice, its own
// TrajectoryIndex (PageFile + BufferManager of decoded nodes), and its own
// cross-query ResultCache — so shards never share mutable state and a
// shard is the natural future unit of NUMA placement, ingestion, and
// replication. A k-MST query over the logical index is answered by
// searching every shard for its local top-k and merging (see
// scatter_gather.h); the partition is disjoint and exhaustive, so the
// merged top-k equals the unsharded answer exactly under exact refinement.
//
// With num_shards == 1 the single shard receives every trajectory in the
// original store order and builds the identical tree: results AND
// node-access counts match the unsharded index bitwise (the bench identity
// gate of bench_shard_scaling runs on exactly this property).

#ifndef MST_SHARD_SHARDED_INDEX_H_
#define MST_SHARD_SHARDED_INDEX_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/core/result_cache.h"
#include "src/geom/trajectory.h"
#include "src/index/trajectory_index.h"

namespace mst {

class ShardedIndex {
 public:
  /// Builds one shard's index instance. Receives the per-shard index
  /// options; returns a fresh, empty index (the sharded index calls
  /// BuildFrom on it with the shard's store slice).
  using IndexFactory = std::function<std::unique_ptr<TrajectoryIndex>(
      const TrajectoryIndex::Options&)>;

  struct Options {
    /// Number of shards (>= 1, checked).
    int num_shards = 4;
    /// Per-shard index construction knobs (buffer pages, R-tree variant).
    /// Every shard gets the same configuration.
    TrajectoryIndex::Options index_options;
    /// Per-shard cross-query result-cache capacity; 0 disables the caches.
    size_t result_cache_entries = 1 << 12;
  };

  /// One shard's complete single-threaded stack.
  struct Shard {
    TrajectoryStore store;
    std::unique_ptr<TrajectoryIndex> index;
    std::unique_ptr<ResultCache> result_cache;
  };

  /// `factory` defaults to the TB-tree (the paper's strongest index for
  /// k-MST and the only one with a per-trajectory access path).
  explicit ShardedIndex(const Options& options, IndexFactory factory = {});

  ShardedIndex(const ShardedIndex&) = delete;
  ShardedIndex& operator=(const ShardedIndex&) = delete;

  /// Partitions `store` by trajectory-id hash and builds every shard's
  /// index from its slice (same round-robin insertion order BuildFrom uses
  /// on the unsharded index, restricted to the shard's trajectories).
  /// Call once; not thread-safe.
  void BuildFrom(const TrajectoryStore& store);

  /// Drops every shard's cached nodes so the next query starts cold (see
  /// TrajectoryIndex::ConfigurePaperBuffer).
  void ConfigurePaperBuffer();

  int num_shards() const { return static_cast<int>(shards_.size()); }

  const Shard& shard(int i) const { return shards_[static_cast<size_t>(i)]; }
  Shard& shard(int i) { return shards_[static_cast<size_t>(i)]; }

  /// Deterministic shard assignment of a trajectory id (splitmix64 mix, so
  /// dense sequential ids spread evenly; stable across runs and platforms).
  /// With one shard everything maps to shard 0 in store order — the N=1
  /// identity anchor.
  static int ShardOf(TrajectoryId id, int num_shards);

  /// Aggregates over all shards (each is the sum/max of the per-shard
  /// value, exact by construction — shard counters are independent).
  int64_t NodeCount() const;
  int64_t SizeBytes() const;
  int64_t EntryCount() const;
  int64_t TotalTrajectories() const;
  double max_speed() const;

 private:
  Options options_;
  IndexFactory factory_;
  std::vector<Shard> shards_;
  bool built_ = false;
};

}  // namespace mst

#endif  // MST_SHARD_SHARDED_INDEX_H_

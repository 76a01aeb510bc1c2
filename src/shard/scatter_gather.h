// ScatterGatherSearch: one logical k-MST query over a ShardedIndex. Fans
// the query out to a per-shard BFMSTSearch (each bound to that shard's
// index, store slice, and result cache), merges the per-shard top-k heaps
// into the global top-k, and aggregates per-shard stats exactly.
//
// Correctness: the shards partition the trajectory set disjointly and
// exhaustively, and each shard leg returns its local top-k by the exact
// same (dissim, id) order the unsharded search uses — so re-sorting the
// union of legs and truncating to k yields exactly the unsharded result
// set. Under exact refinement (exact_postprocess, the default) the
// dissimilarity values are the same closed-form integrals computed from
// the same trajectory samples, hence bitwise identical to the unsharded
// search for every shard count (bench_shard_scaling gates on this).
//
// Shard legs of one query run in sequence on the calling thread (the shard
// stacks are single-threaded by design; cross-query parallelism lives in
// ShardFrontEnd). Each leg searches its shard independently, so its stats
// depend only on (shard, query, options), never on the other legs.

#ifndef MST_SHARD_SCATTER_GATHER_H_
#define MST_SHARD_SCATTER_GATHER_H_

#include <memory>
#include <vector>

#include "src/core/mst_search.h"
#include "src/shard/sharded_index.h"

namespace mst {

class ScatterGatherSearch {
 public:
  /// `index` is not owned and must outlive the searcher (as must the
  /// shard stores and result caches it references).
  explicit ScatterGatherSearch(const ShardedIndex* index);

  ScatterGatherSearch(const ScatterGatherSearch&) = delete;
  ScatterGatherSearch& operator=(const ScatterGatherSearch&) = delete;

  /// Runs the query on every shard and merges. Same preconditions as
  /// BFMstSearch::Search. `stats` (optional) receives the exact aggregate
  /// over shards (see AggregateShardStats); `per_shard_stats` (optional)
  /// receives each shard leg's own MstStats, indexed by shard.
  std::vector<MstResult> Search(
      const Trajectory& query, const TimeInterval& period,
      const MstOptions& options = MstOptions(), MstStats* stats = nullptr,
      std::vector<MstStats>* per_shard_stats = nullptr) const;

  /// Merges per-shard top-k lists into the global top-k: sorts the union
  /// by (dissim, id) — the unsharded search's result order — and truncates
  /// to k. Shard lists must come from disjoint trajectory partitions.
  static std::vector<MstResult> MergeShardResults(
      std::vector<std::vector<MstResult>> shard_results, int k);

  /// Exact aggregation of per-shard query stats: every counter is the sum
  /// over shards (each leg's counters are thread-local deltas of its own
  /// BFMstSearch::Search call, so per-(query, shard) isolation holds even
  /// when legs run on different worker threads); terminated_by_heuristic2
  /// is true iff any leg terminated early. With one shard this is the
  /// identity, anchoring the N=1 stats match against the unsharded search.
  static MstStats AggregateShardStats(const std::vector<MstStats>& per_shard);

  const ShardedIndex* sharded_index() const { return index_; }

 private:
  const ShardedIndex* index_;
  // One searcher per shard, bound to the shard's stack at construction.
  std::vector<std::unique_ptr<BFMstSearch>> searchers_;
};

}  // namespace mst

#endif  // MST_SHARD_SCATTER_GATHER_H_

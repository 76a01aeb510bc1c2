#include "src/shard/scatter_gather.h"

#include <algorithm>
#include <utility>

#include "src/exec/kth_bound_board.h"
#include "src/util/check.h"

namespace mst {

ScatterGatherSearch::ScatterGatherSearch(const ShardedIndex* index,
                                         const ScatterGatherOptions& options)
    : index_(index), options_(options) {
  MST_CHECK(index != nullptr);
  searchers_.reserve(static_cast<size_t>(index->num_shards()));
  for (int s = 0; s < index->num_shards(); ++s) {
    const ShardedIndex::Shard& shard = index->shard(s);
    searchers_.push_back(std::make_unique<BFMstSearch>(
        shard.index.get(), &shard.store, shard.result_cache.get()));
  }
}

std::vector<MstResult> ScatterGatherSearch::Search(
    const Trajectory& query, const TimeInterval& period,
    const MstOptions& options, MstStats* stats,
    std::vector<MstStats>* per_shard_stats) const {
  const bool exact_query = options.exact_postprocess &&
                           options.policy == IntegrationPolicy::kExact;
  const bool share = options_.share_cross_shard_bounds && exact_query &&
                     index_->num_shards() > 1;
  KthBoundBoard board;

  std::vector<std::vector<MstResult>> shard_results;
  shard_results.reserve(searchers_.size());
  std::vector<MstStats> shard_stats(searchers_.size());
  for (size_t s = 0; s < searchers_.size(); ++s) {
    const ShardedIndex::Shard& shard = index_->shard(static_cast<int>(s));
    if (shard.store.empty()) {
      // Empty shard: nothing indexed, nothing to search (an empty index
      // would answer the same, with one fewer special case than relying on
      // BFMstSearch's empty-root path for a never-built tree).
      shard_results.emplace_back();
      continue;
    }
    MstOptions leg_options = options;
    if (share) {
      leg_options.initial_kth_upper_bound =
          std::min(leg_options.initial_kth_upper_bound, board.Current());
    }
    std::vector<MstResult> results = searchers_[s]->Search(
        query, period, leg_options, &shard_stats[s]);
    if (share && results.size() == static_cast<size_t>(options.k)) {
      // Full reach only: a shard's exact kth-best over k eligible
      // trajectories upper-bounds the global kth-best. Fewer than k
      // results bound nothing (see KthBoundBoard).
      board.Publish(results.back().dissim);
    }
    shard_results.push_back(std::move(results));
  }

  if (stats != nullptr) *stats = AggregateShardStats(shard_stats);
  if (per_shard_stats != nullptr) *per_shard_stats = std::move(shard_stats);
  return MergeShardResults(std::move(shard_results), options.k);
}

std::vector<MstResult> ScatterGatherSearch::MergeShardResults(
    std::vector<std::vector<MstResult>> shard_results, int k) {
  MST_CHECK(k >= 1);
  std::vector<MstResult> merged;
  for (std::vector<MstResult>& results : shard_results) {
    merged.insert(merged.end(), results.begin(), results.end());
  }
  // The unsharded search's result order: ascending dissim, id tiebreak.
  std::sort(merged.begin(), merged.end(),
            [](const MstResult& a, const MstResult& b) {
              if (a.dissim != b.dissim) return a.dissim < b.dissim;
              return a.id < b.id;
            });
  if (merged.size() > static_cast<size_t>(k)) {
    merged.resize(static_cast<size_t>(k));
  }
  return merged;
}

MstStats ScatterGatherSearch::AggregateShardStats(
    const std::vector<MstStats>& per_shard) {
  MstStats total;
  for (const MstStats& s : per_shard) {
    total.nodes_accessed += s.nodes_accessed;
    total.total_nodes += s.total_nodes;
    total.leaf_entries_seen += s.leaf_entries_seen;
    total.heap_pushes += s.heap_pushes;
    total.mindist_evaluations += s.mindist_evaluations;
    total.candidates_created += s.candidates_created;
    total.candidates_completed += s.candidates_completed;
    total.candidates_rejected += s.candidates_rejected;
    total.leaf_entries_pruned += s.leaf_entries_pruned;
    total.candidates_ineligible += s.candidates_ineligible;
    total.eager_completions += s.eager_completions;
    total.exact_recomputations += s.exact_recomputations;
    total.node_cache_hits += s.node_cache_hits;
    total.node_cache_misses += s.node_cache_misses;
    total.result_cache_hits += s.result_cache_hits;
    total.result_cache_misses += s.result_cache_misses;
    total.terminated_by_heuristic2 |= s.terminated_by_heuristic2;
  }
  return total;
}

}  // namespace mst

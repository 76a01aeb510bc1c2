// BFMSTSearch (§4): best-first k-Most-Similar-Trajectory search over any
// R-tree-family trajectory index, using MINDIST node ordering (Hjaltason–
// Samet), the speed-dependent OPTDISSIM/PESDISSIM candidate bounds
// (Heuristic 1) and the speed-independent MINDISSIMINC termination test
// (Heuristic 2), with the §4.4 error management for the trapezoid
// approximation and an exact post-processing step.

#ifndef MST_CORE_MST_SEARCH_H_
#define MST_CORE_MST_SEARCH_H_

#include <cstdint>
#include <vector>

#include "src/core/dissim.h"
#include "src/core/result_cache.h"
#include "src/geom/interval.h"
#include "src/geom/trajectory.h"
#include "src/index/trajectory_index.h"

namespace mst {

/// One answer of a k-MST query.
struct MstResult {
  TrajectoryId id = kInvalidTrajectoryId;
  /// DISSIM(Q, T) over the query period. Exact when error_bound == 0.
  double dissim = 0.0;
  /// One-sided bound: the true DISSIM lies in [dissim − error_bound, dissim].
  double error_bound = 0.0;
};

/// Per-query instrumentation.
struct MstStats {
  int64_t nodes_accessed = 0;
  int64_t total_nodes = 0;
  int64_t leaf_entries_seen = 0;
  int64_t heap_pushes = 0;
  /// Exact MINDIST evaluations. Entries are pushed keyed by a cheap lower
  /// bound and pay for MinDist only when they reach the top of the queue,
  /// so this is at most heap_pushes (roots are pushed with an exact key).
  int64_t mindist_evaluations = 0;
  int64_t candidates_created = 0;
  int64_t candidates_completed = 0;
  int64_t candidates_rejected = 0;   // by Heuristic 1
  /// Always 0: the batched leaf lower-bound prune it counted was removed
  /// (it never fired beside Heuristic 1). Kept because the perfbench
  /// harness still reads it for `core.leaf_prune_ratio`.
  int64_t leaf_entries_pruned = 0;
  int64_t candidates_ineligible = 0; // lifespan does not cover the period
  int64_t eager_completions = 0;     // candidates completed via chain fetch
  int64_t exact_recomputations = 0;  // post-processing integrals
  /// Buffer traffic of this query: misses are the pages it read and
  /// decoded, hits are the rest of its node accesses, so hits + misses ==
  /// nodes_accessed by construction.
  int64_t node_cache_hits = 0;
  int64_t node_cache_misses = 0;
  /// Cross-query result-cache traffic of this query (hits + misses ==
  /// full-period refinements consulted while a cache is attached and
  /// enabled; both 0 otherwise). A hit skipped one trapezoid/exact
  /// integration entirely; `exact_recomputations` still counts the logical
  /// refinement either way, so it stays byte-identical cache on or off.
  int64_t result_cache_hits = 0;
  int64_t result_cache_misses = 0;
  bool terminated_by_heuristic2 = false;

  /// Fraction of index nodes the query never touched ("pruned space").
  double PruningPower() const {
    if (total_nodes <= 0) return 0.0;
    return 1.0 - static_cast<double>(nodes_accessed) /
                     static_cast<double>(total_nodes);
  }
};

/// Query knobs. Defaults reproduce the paper's configuration.
struct MstOptions {
  /// Number of most-similar trajectories to return.
  int k = 1;
  /// Integration of covered pieces during the search.
  IntegrationPolicy policy = IntegrationPolicy::kTrapezoid;
  /// Heuristic 1: reject candidates whose OPTDISSIM exceeds the current kth
  /// best upper bound.
  bool use_heuristic1 = true;
  /// Heuristic 2: terminate when the popped node's MINDISSIMINC exceeds the
  /// current kth best upper bound.
  bool use_heuristic2 = true;
  /// Recompute the surviving candidates with the exact closed form so the
  /// returned dissimilarities (and their order) are exact (§4.4's
  /// post-processing). With false, incomplete winners are completed with
  /// `policy` and results carry their error bounds.
  bool exact_postprocess = true;
  /// Eager completion (this repository's extension; off by default, which
  /// is the paper-faithful behaviour): when the index offers a direct
  /// per-trajectory access path (the TB-tree's leaf chains) and a candidate
  /// looks like a contender (OPTDISSIM at or below the current kth upper
  /// bound, or the buffer is not full yet), fetch its remaining segments
  /// through the chain and complete it immediately. This tightens the kth
  /// bound early and buys earlier Heuristic 2 termination, at the price of
  /// chain page reads. No effect on result correctness or on indexes
  /// without a fetch path.
  bool use_eager_completion = false;
  /// Trajectory id to skip (useful when the query is itself stored in the
  /// index); kInvalidTrajectoryId skips nothing.
  TrajectoryId exclude_id = kInvalidTrajectoryId;
};

/// k-MST search engine bound to one index + the trajectory table backing it.
/// The store provides lifespans for eligibility checks and the segments
/// needed by exact post-processing; the traversal itself reads only the
/// index, as in the paper.
class BFMstSearch {
 public:
  /// None of the pointers is owned; index and store must outlive the
  /// searcher. `result_cache` (optional) memoizes the full-period DISSIM
  /// refinements of §4.4 post-processing across queries: a hit skips the
  /// whole integration for that candidate while leaving the traversal — and
  /// with it every result and node-access metric — byte-identical to the
  /// uncached search. The cache may be shared by concurrent searchers.
  ///
  /// `delta` (optional) is a second index searched as a two-tree forest with
  /// `index`: one best-first queue ordered by (mindist, tree, page) holds
  /// nodes of both, so the traversal interleaves them by pure MINDIST order.
  /// The ingest engine hands the packed main tree as `index` and the
  /// in-memory tree over not-yet-merged segments as `delta`; correctness
  /// needs only that the two segment sets are disjoint (CandidateList merges
  /// pieces from either tree into one coverage). When the store is a live
  /// snapshot that owns write versions (TrajectorySource::OwnsWriteVersions)
  /// the result cache keys off the snapshot's versions instead of the
  /// index's — rebuilt delta/main instances restart their index-local
  /// versions at 0, which would alias stale cache entries.
  BFMstSearch(const TrajectoryIndex* index, const TrajectorySource* store,
              ResultCache* result_cache = nullptr,
              const TrajectoryIndex* delta = nullptr);

  /// Runs a k-MST query for `query` over `period`. Requirements (checked):
  /// the query trajectory covers the period, the period has positive
  /// duration, options.k >= 1. Returns at most k results ordered by
  /// ascending dissimilarity. Trajectories whose lifespan does not cover the
  /// period are not eligible (Definition 1 needs both trajectories valid
  /// throughout).
  std::vector<MstResult> Search(const Trajectory& query,
                                const TimeInterval& period,
                                const MstOptions& options = MstOptions(),
                                MstStats* stats = nullptr) const;

  /// The attached cross-query result cache, or nullptr.
  ResultCache* result_cache() const { return result_cache_; }

 private:
  const TrajectoryIndex* index_;
  const TrajectorySource* store_;
  ResultCache* result_cache_;
  const TrajectoryIndex* delta_;
};

}  // namespace mst

#endif  // MST_CORE_MST_SEARCH_H_

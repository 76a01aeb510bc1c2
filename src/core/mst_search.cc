#include "src/core/mst_search.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/core/candidate.h"
#include "src/geom/mindist.h"
#include "src/util/check.h"

namespace mst {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// `QueueEntry::box` value of an entry whose key is its exact MINDIST.
constexpr uint32_t kExactKey = (1u << 30) - 1;

// Best-first queue element; min-ordered by (key, tree, page) — the
// tree/page tiebreak makes forest traversal deterministic (page ids of the
// main and delta trees live in separate pagefiles, so they collide freely).
//
// A child is pushed keyed by a cheap lower bound of its MINDIST (the gap
// between its MBB and the query footprint, FootprintMinDist) and keeps its
// MBB in the search's box arena under `box`. The exact MinDist is computed
// only when the entry reaches the top; if it exceeds the key the entry is
// re-pushed with the exact key (`box` = kExactKey), otherwise it is
// processed. Every key is <= its exact MINDIST and the order is total, so
// entries are processed in exactly the order an all-exact queue would
// process them, while most pushed entries never pay for a MinDist.
struct QueueEntry {
  double key;
  PageId page;
  // Box-arena index of the entry's MBB, or kExactKey.
  uint32_t box : 30;
  // Which tree `page` belongs to: 0 = main index, 1 = delta. Ties on the
  // key visit the main tree first.
  uint32_t tree : 1;
  // Whether `page` is a leaf (known from the parent's level when pushed).
  // Leaf pops take the column-streaming read path; not part of the order.
  uint32_t leaf : 1;

  bool operator>(const QueueEntry& o) const {
    if (key != o.key) return key > o.key;
    if (tree != o.tree) return tree > o.tree;
    return page > o.page;
  }
};
static_assert(sizeof(QueueEntry) == 16, "heap entries stay two words");

// The "k-buffer": tracks, for every live candidate, an upper bound of its
// true DISSIM (exact-side value for completed candidates, PESDISSIM for
// partial ones) and answers "current kth best upper bound" queries.
//
// KthValue() is consulted for every processed leaf entry (Heuristic 1) and
// on every heap pop (Heuristic 2), so the bounds are kept split into the k
// smallest (`topk_`) and the rest, with max(topk_) <= min(rest_): the kth
// value is then the largest element of topk_, read in O(1) instead of
// advancing k set nodes per call.
class UpperBounds {
 public:
  explicit UpperBounds(int k) : k_(k) {}

  void Update(TrajectoryId id, double upper) {
    const auto it = current_.find(id);
    if (it != current_.end()) {
      EraseOrdered({it->second, id});
      it->second = upper;
    } else {
      current_[id] = upper;
    }
    InsertOrdered({upper, id});
  }

  void Remove(TrajectoryId id) {
    const auto it = current_.find(id);
    if (it == current_.end()) return;
    EraseOrdered({it->second, id});
    current_.erase(it);
  }

  /// kth smallest upper bound, or +inf while fewer than k candidates exist.
  double KthValue() const {
    if (static_cast<int>(topk_.size()) < k_) return kInf;
    return topk_.rbegin()->first;
  }

  size_t size() const { return current_.size(); }

 private:
  using Key = std::pair<double, TrajectoryId>;

  void InsertOrdered(const Key& key) {
    if (static_cast<int>(topk_.size()) < k_) {
      topk_.insert(key);
      return;
    }
    const auto last = std::prev(topk_.end());
    if (key < *last) {
      rest_.insert(*last);
      topk_.erase(last);
      topk_.insert(key);
    } else {
      rest_.insert(key);
    }
  }

  void EraseOrdered(const Key& key) {
    const auto it = topk_.find(key);
    if (it != topk_.end()) {
      topk_.erase(it);
      if (!rest_.empty()) {
        topk_.insert(*rest_.begin());
        rest_.erase(rest_.begin());
      }
    } else {
      rest_.erase(rest_.find(key));
    }
  }

  int k_;
  std::set<Key> topk_;  // the k smallest bounds (all of them while < k)
  std::set<Key> rest_;  // everything above, max(topk_) <= min(rest_)
  std::unordered_map<TrajectoryId, double> current_;
};

}  // namespace

BFMstSearch::BFMstSearch(const TrajectoryIndex* index,
                         const TrajectorySource* store,
                         ResultCache* result_cache,
                         const TrajectoryIndex* delta)
    : index_(index), store_(store), result_cache_(result_cache),
      delta_(delta) {
  MST_CHECK(index != nullptr && store != nullptr);
}

std::vector<MstResult> BFMstSearch::Search(const Trajectory& query,
                                           const TimeInterval& period,
                                           const MstOptions& options,
                                           MstStats* stats_out) const {
  MST_CHECK_MSG(options.k >= 1, "k must be at least 1");
  MST_CHECK_MSG(period.Duration() > 0.0, "query period must have duration");
  MST_CHECK_MSG(query.Covers(period),
                "query trajectory must cover the query period");

  // An empty delta is the same as no delta (saves a root push per query
  // between merges with a drained delta).
  const TrajectoryIndex* const delta =
      (delta_ != nullptr && !delta_->empty()) ? delta_ : nullptr;

  MstStats stats;
  stats.total_nodes =
      index_->NodeCount() + (delta != nullptr ? delta->NodeCount() : 0);
  // Thread-local before/after deltas rather than resetting the index's
  // shared counters: concurrent queries on one index each get exact
  // per-query stats.
  const int64_t accesses_before = TrajectoryIndex::ThreadNodeAccesses();
  const int64_t cache_misses_before = BufferManager::ThreadMisses();
  const int64_t rc_hits_before = ResultCache::ThreadHits();
  const int64_t rc_misses_before = ResultCache::ThreadMisses();

  std::vector<MstResult> results;
  if (index_->empty() && delta == nullptr) {
    if (stats_out != nullptr) *stats_out = stats;
    return results;
  }

  // V_max (Table 1) is the dataset's max speed plus the query's; it spans
  // both trees: a delta-resident trajectory's speed caps the same OPTDISSIM
  // bounds as a main-resident one.
  const double vmax = std::max(index_->max_speed(),
                               delta != nullptr ? delta->max_speed() : 0.0) +
                      query.MaxSpeed();

  std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                      std::greater<QueueEntry>>
      queue;
  if (!index_->empty()) {
    queue.push({0.0, index_->root(), kExactKey, 0, index_->height() == 1});
    ++stats.heap_pushes;
  }
  if (delta != nullptr) {
    queue.push({0.0, delta->root(), kExactKey, 1, delta->height() == 1});
    ++stats.heap_pushes;
  }
  // MBBs of the entries still keyed by their footprint lower bound.
  std::vector<Mbb3> boxes;

  std::unordered_map<TrajectoryId, CandidateList> valid;
  std::unordered_map<TrajectoryId, CandidateList> completed;
  std::unordered_set<TrajectoryId> rejected;
  UpperBounds uppers(options.k);
  // The query's spatial footprint over the period keys pushed children by
  // a cheap MINDIST lower bound (FootprintMinDist).
  const QueryFootprint query_box = FootprintOf(query, period);
  // Temporal argsort of an unsorted leaf, reused across leaves.
  std::vector<int> order_scratch;
  // Sticky skip cache: exclusion, rejection and completion are monotone over
  // one search (ids only ever enter those states), so once an id skips it
  // skips for good. TB-tree leaves bundle consecutive segments of a single
  // trajectory, so remembering the last skipped id collapses a whole leaf's
  // hash-set probes into one comparison.
  TrajectoryId skip_id = kInvalidTrajectoryId;

  while (!queue.empty()) {
    const QueueEntry top = queue.top();
    queue.pop();

    // Heuristic 2: MINDISSIMINC termination. The quick first test
    // (MINDIST · period length) avoids scanning the Valid set on most pops,
    // exactly as the paper describes at the end of §4. It runs on the key,
    // before any exact MINDIST: MINDISSIMINC is non-decreasing in MINDIST,
    // so a lower-bound key stops the search only where the exact key of the
    // entry an all-exact queue would pop next stops it too.
    if (options.use_heuristic2) {
      const double kth = uppers.KthValue();
      if (kth < kInf) {
        double mindissiminc = top.key * period.Duration();
        if (mindissiminc > kth) {
          for (const auto& [id, list] : valid) {
            mindissiminc =
                std::min(mindissiminc, list.OptDissimInc(top.key));
            if (mindissiminc <= kth) break;
          }
          if (mindissiminc > kth) {
            stats.terminated_by_heuristic2 = true;
            break;
          }
        }
      }
    }

    // A lower-bound key is replaced by the exact MINDIST before the entry
    // is processed; a larger exact key sends it back into the queue.
    if (top.box != kExactKey) {
      const double exact = MinDist(query, boxes[top.box], period);
      ++stats.mindist_evaluations;
      if (exact > top.key) {
        queue.push({exact, top.page, kExactKey, top.tree, top.leaf});
        continue;
      }
    }

    // All page reads of this pop go to the tree the entry was pushed from.
    const TrajectoryIndex* const tree = top.tree == 0 ? index_ : delta;

    if (!top.leaf) {
      const NodeRef node = tree->ReadNode(top.page);
      for (const InternalEntry& e : node->internals) {
        // MINDIST is +inf (the child holds nothing relevant) exactly when
        // its time extent misses the period, which the query covers.
        if (period.Intersect(e.mbb.TimeExtent()).IsEmpty()) continue;
        MST_DCHECK(boxes.size() < kExactKey);
        queue.push({FootprintMinDist(query_box, e.mbb), e.child,
                    static_cast<uint32_t>(boxes.size()), top.tree,
                    node->level == 1});
        boxes.push_back(e.mbb);
        ++stats.heap_pushes;
      }
      continue;
    }

    // Leaf: stream the decoded node's columns in temporal order (the
    // paper's line 10). TB-tree leaves carry the time-sorted header flag —
    // iterate the columns directly; only the 3D R-tree's unsorted leaves
    // argsort an index permutation (no entry copies either way).
    const NodeRef leaf = tree->ReadNode(top.page);
    const LeafView view = leaf->leaves.View();
    const int* order = nullptr;
    if (!view.time_sorted) {
      order_scratch.resize(static_cast<size_t>(view.count));
      for (int i = 0; i < view.count; ++i) order_scratch[i] = i;
      std::sort(order_scratch.begin(), order_scratch.end(),
                [&view](int a, int b) {
                  if (view.t0[a] != view.t0[b]) return view.t0[a] < view.t0[b];
                  if (view.traj_id[a] != view.traj_id[b]) {
                    return view.traj_id[a] < view.traj_id[b];
                  }
                  return a < b;
                });
      order = order_scratch.data();
    }
    for (int pos = 0; pos < view.count; ++pos) {
      const int j = order != nullptr ? order[pos] : pos;
      ++stats.leaf_entries_seen;
      const TrajectoryId id = view.traj_id[j];
      if (id == skip_id) continue;
      if (id == options.exclude_id) {
        skip_id = id;
        continue;
      }
      if (rejected.contains(id) || completed.contains(id)) {
        skip_id = id;
        continue;
      }
      const TimeInterval window = period.Intersect({view.t0[j], view.t1[j]});
      if (window.Duration() <= 0.0) continue;

      auto it = valid.find(id);
      if (it == valid.end()) {
        const Trajectory* t = store_->Find(id);
        if (t == nullptr || !t->Covers(period)) {
          rejected.insert(id);
          skip_id = id;
          ++stats.candidates_ineligible;
          continue;
        }
        it = valid.emplace(id, CandidateList(id, period)).first;
        ++stats.candidates_created;
      }
      CandidateList& list = it->second;

      const SegmentDissim seg =
          ComputeSegmentDissim(query, view, j, window, options.policy);
      list.AddPiece(window, seg.integral, seg.dist_begin, seg.dist_end);

      if (list.IsComplete()) {
        uppers.Update(id, list.covered().value);
        completed.emplace(id, std::move(list));
        valid.erase(it);
        skip_id = id;
        ++stats.candidates_completed;
        continue;
      }
      uppers.Update(id, list.PesDissim(vmax));
      if (options.use_heuristic1) {
        const double kth = uppers.KthValue();
        if (list.OptDissim(vmax) > kth) {
          uppers.Remove(id);
          rejected.insert(id);
          valid.erase(it);
          skip_id = id;
          ++stats.candidates_rejected;
          continue;
        }
      }
      // Eager completion (extension): a contender on an index with a direct
      // trajectory access path gets its remaining segments through the
      // chain right away. The chain is walked page by page through the
      // columnar LeafView (zero repack): no entry vector is ever
      // materialized and out-of-period segments cost two column loads.
      // In forest mode the chain covers only this tree's segments of the
      // trajectory; coverage-based completion stays correct (the candidate
      // completes only once pieces from both trees close the period).
      if (options.use_eager_completion && tree->SupportsTrajectoryFetch()) {
        const double kth = uppers.KthValue();
        if (static_cast<int>(uppers.size()) <= options.k ||
            list.OptDissim(vmax) <= kth) {
          PageId chain = tree->TrajectoryChainHead(id);
          while (chain != kInvalidPageId) {
            const NodeRef link = tree->ReadNode(chain);
            chain = link->next_leaf;
            const LeafView cv = link->leaves.View();
            // A page whose time range misses the period contributes no
            // pieces; one header test skips its entries (the page read
            // above still counts, so I/O accounting is unchanged).
            if (cv.bounds.thi <= period.begin || cv.bounds.tlo >= period.end) {
              continue;
            }
            for (int ci = 0; ci < cv.count; ++ci) {
              const TimeInterval w =
                  period.Intersect({cv.t0[ci], cv.t1[ci]});
              if (w.Duration() <= 0.0 || list.CoversInterval(w)) continue;
              const SegmentDissim sd =
                  ComputeSegmentDissim(query, cv, ci, w, options.policy);
              list.AddPiece(w, sd.integral, sd.dist_begin, sd.dist_end);
              ++stats.leaf_entries_seen;
            }
          }
          if (list.IsComplete()) {
            uppers.Update(id, list.covered().value);
            completed.emplace(id, std::move(list));
            valid.erase(it);
            skip_id = id;
            ++stats.candidates_completed;
            ++stats.eager_completions;
          }
        }
      }
    }
  }

  // Final ranking with error management (§4.4): keep every candidate whose
  // lower bound does not exceed the kth smallest upper bound; resolve the
  // survivors' exact order by recomputation when requested.
  struct Survivor {
    TrajectoryId id;
    double lower;
    double upper;
    bool complete;
  };
  std::vector<Survivor> pool;
  pool.reserve(completed.size() + valid.size());
  for (const auto& [id, list] : completed) {
    pool.push_back({id, list.covered().LowerBound(), list.covered().value,
                    true});
  }
  for (const auto& [id, list] : valid) {
    pool.push_back({id, list.OptDissim(vmax), list.PesDissim(vmax), false});
  }
  if (pool.empty()) {
    if (stats_out != nullptr) *stats_out = stats;
    return results;
  }

  double kth_upper = kInf;
  if (pool.size() >= static_cast<size_t>(options.k)) {
    std::vector<double> ups;
    ups.reserve(pool.size());
    for (const Survivor& s : pool) ups.push_back(s.upper);
    std::nth_element(ups.begin(), ups.begin() + (options.k - 1), ups.end());
    kth_upper = ups[static_cast<size_t>(options.k - 1)];
  }

  // Full-period refinement, memoized through the cross-query result cache
  // when one is attached and enabled. The fingerprint is computed lazily —
  // once, and only if a refinement actually happens.
  ResultCache* const rcache =
      (result_cache_ != nullptr && result_cache_->enabled()) ? result_cache_
                                                             : nullptr;
  QueryFingerprint fp;
  bool fp_ready = false;
  const auto refined_dissim = [&](TrajectoryId id,
                                  IntegrationPolicy policy) -> DissimResult {
    if (rcache == nullptr) {
      return ComputeDissim(query, store_->Get(id), period, policy);
    }
    if (!fp_ready) {
      fp = FingerprintQuery(query);
      fp_ready = true;
    }
    // Read the trajectory's write version BEFORE looking up / computing
    // (observe-then-publish): a concurrent insert for `id`
    // bumps the version, so the value published below under the old version
    // can never be served after the write. A version-owning source (live
    // ingest snapshot) is the authority; otherwise the index is — never the
    // delta tree, whose instances are rebuilt (and their version counters
    // reset) on every append.
    const uint64_t version = store_->OwnsWriteVersions()
                                 ? store_->SourceWriteVersion(id)
                                 : index_->TrajectoryWriteVersion(id);
    const ResultCacheKey key{fp, id, period, policy};
    DissimResult d;
    if (rcache->Lookup(key, version, &d)) return d;
    d = ComputeDissim(query, store_->Get(id), period, policy);
    rcache->Insert(key, d, version);
    return d;
  };

  for (const Survivor& s : pool) {
    if (s.lower > kth_upper) continue;
    MstResult r;
    r.id = s.id;
    if (options.exact_postprocess) {
      r.dissim = refined_dissim(s.id, IntegrationPolicy::kExact).value;
      r.error_bound = 0.0;
      // Counted whether the integral ran or a cache hit skipped it: this is
      // the logical refinement count, byte-identical cache on or off (the
      // physical split is result_cache_hits/misses).
      ++stats.exact_recomputations;
    } else if (s.complete) {
      const CandidateList& list = completed.at(s.id);
      r.dissim = list.covered().value;
      r.error_bound = list.covered().error_bound;
    } else {
      // Complete the partial candidate from the trajectory table with the
      // search policy.
      const DissimResult d = refined_dissim(s.id, options.policy);
      r.dissim = d.value;
      r.error_bound = d.error_bound;
    }
    results.push_back(r);
  }

  std::sort(results.begin(), results.end(),
            [](const MstResult& a, const MstResult& b) {
              if (a.dissim != b.dissim) return a.dissim < b.dissim;
              return a.id < b.id;
            });
  if (results.size() > static_cast<size_t>(options.k)) {
    results.resize(static_cast<size_t>(options.k));
  }

  stats.nodes_accessed =
      TrajectoryIndex::ThreadNodeAccesses() - accesses_before;
  stats.node_cache_misses =
      BufferManager::ThreadMisses() - cache_misses_before;
  stats.node_cache_hits = stats.nodes_accessed - stats.node_cache_misses;
  stats.result_cache_hits = ResultCache::ThreadHits() - rc_hits_before;
  stats.result_cache_misses = ResultCache::ThreadMisses() - rc_misses_before;
  if (stats_out != nullptr) *stats_out = stats;
  return results;
}

}  // namespace mst

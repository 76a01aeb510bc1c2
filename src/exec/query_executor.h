// Concurrent k-MST query execution on one shared index: a fixed worker pool
// behind a bounded submission queue. Builds on the thread-safe buffer
// manager (sharded pin/unpin) so that many BFMSTSearch traversals can read
// the same paged index at once; every query gets its own isolated MstStats.
//
// Results are deterministic: BFMSTSearch's traversal is a pure function of
// (index, query, options) — the page-id tiebreak in its best-first queue
// fixes the node order, and buffer state only affects physical I/O, never
// logical reads — so RunBatch returns, in query order, exactly what a serial
// loop over BFMstSearch::Search would, regardless of worker count or
// scheduling.

#ifndef MST_EXEC_QUERY_EXECUTOR_H_
#define MST_EXEC_QUERY_EXECUTOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/mst_search.h"
#include "src/core/result_cache.h"
#include "src/exec/bounded_queue.h"
#include "src/exec/kth_bound_board.h"
#include "src/geom/interval.h"
#include "src/geom/trajectory.h"
#include "src/index/trajectory_index.h"

namespace mst {

/// A point-in-time read view of one index stack: the packed main tree, an
/// optional delta tree over not-yet-merged segments (searched as a forest,
/// see BFMstSearch), and the trajectory source backing both. The shared_ptrs
/// pin the snapshot for the duration of one search while a live engine
/// publishes newer views concurrently; for a static stack they are
/// non-owning aliases of caller-owned objects.
struct IndexView {
  std::shared_ptr<const TrajectoryIndex> main;
  std::shared_ptr<const TrajectoryIndex> delta;  // null = no delta tree
  std::shared_ptr<const TrajectorySource> source;
};

/// Supplier of the current IndexView. Called by a worker once per dequeued
/// query (dequeue time, not submit time — a queued query runs against the
/// freshest published snapshot); must be thread-safe and never return a view
/// with null `main` or `source`. The ingest engine's ViewProvider() is the
/// live implementation (src/ingest/ingest_engine.h).
using IndexViewProvider = std::function<IndexView()>;

/// Non-owning IndexView over a static (index, store) pair — the adapter the
/// pointer-based QueryExecutor constructors use. Caller keeps ownership;
/// both must outlive every search run against the view.
IndexView MakeStaticIndexView(const TrajectoryIndex* index,
                              const TrajectorySource* store);

/// One unit of work: a k-MST query. Must satisfy BFMstSearch::Search's
/// checked preconditions (k >= 1, positive-duration period covered by the
/// query trajectory).
struct QueryRequest {
  QueryRequest(Trajectory query_in, TimeInterval period_in,
               MstOptions options_in = {})
      : query(std::move(query_in)),
        period(period_in),
        options(options_in) {}

  Trajectory query;
  TimeInterval period;
  MstOptions options;
  /// Optional cross-executor kth-bound board (see kth_bound_board.h). When
  /// set AND the request runs under exact_postprocess with an exact
  /// traversal policy, the worker seeds
  /// MstOptions::initial_kth_upper_bound from the board's current minimum
  /// right before the search starts (dequeue time, not submit time — a
  /// queued request benefits from every bound published while it waited),
  /// and publishes its own exact kth result value afterwards iff the search
  /// returned full reach (exactly k results). The shard layer uses one
  /// board per scatter-gather query, shared by that query's per-shard legs;
  /// the board's soundness contract (disjoint candidate partitions of one
  /// logical query) is the sharer's responsibility. Null = no sharing.
  std::shared_ptr<KthBoundBoard> kth_bound_board;
};

/// What a worker produced for one request.
struct QueryOutcome {
  std::vector<MstResult> results;
  /// Per-query instrumentation, isolated per worker thread.
  MstStats stats;
  /// True when a shutdown dropped the request before a worker ran it (its
  /// `results` are empty and `stats` is default-constructed).
  bool cancelled = false;
  /// True when the shard front-end's admission control turned the request
  /// away before any work was queued (src/shard/shard_frontend.h; the
  /// executor itself never sets this). `results` are empty.
  bool rejected = false;
};

/// Fixed-size worker pool executing k-MST queries against one index + store.
/// Thread-safe: Submit/RunBatch may be called from any thread.
class QueryExecutor {
 public:
  struct Options {
    /// Worker threads; 0 picks std::thread::hardware_concurrency (min 1).
    int num_workers = 0;
    /// Bound of the submission queue; full-queue submits block (backpressure).
    size_t queue_capacity = 128;
    /// Entries of the cross-query DISSIM result cache the workers share
    /// (src/core/result_cache.h); 0 disables it. Results and node-access
    /// stats are byte-identical either way — the cache only skips repeated
    /// post-processing integrals.
    size_t result_cache_entries = 1 << 14;
  };

  /// What happens to queued-but-unstarted requests on shutdown.
  enum class DrainMode {
    kDrain,          // workers finish everything already submitted
    kCancelPending,  // queued requests complete immediately as `cancelled`
  };

  /// Neither pointer is owned; both must outlive the executor. Queries run
  /// against exactly this (index, store) pair for the executor's lifetime.
  QueryExecutor(const TrajectoryIndex* index, const TrajectorySource* store,
                const Options& options);
  QueryExecutor(const TrajectoryIndex* index, const TrajectorySource* store)
      : QueryExecutor(index, store, Options()) {}

  /// Live-view form: each dequeued query re-resolves the provider and
  /// searches the returned snapshot (main + optional delta forest). This is
  /// the ingest seam — appends and merges swap the published view between
  /// queries, never under one.
  QueryExecutor(IndexViewProvider provider, const Options& options);

  QueryExecutor(const QueryExecutor&) = delete;
  QueryExecutor& operator=(const QueryExecutor&) = delete;

  /// Drains outstanding work (Shutdown(kDrain)) before returning.
  ~QueryExecutor();

  /// Enqueues one query. Blocks while the submission queue is full. After
  /// Shutdown the returned future is immediately ready with
  /// `cancelled == true`.
  std::future<QueryOutcome> Submit(QueryRequest request);

  /// Runs every request and returns the outcomes in request order —
  /// identical to a serial loop over BFMstSearch::Search (see header
  /// comment). An empty input returns an empty vector without touching the
  /// workers.
  std::vector<QueryOutcome> RunBatch(const std::vector<QueryRequest>& requests);

  /// Convenience batch API: each trajectory queried over its own lifespan
  /// with `base_options` (k overridden by `k`).
  std::vector<QueryOutcome> RunBatch(const std::vector<Trajectory>& queries,
                                     int k,
                                     const MstOptions& base_options = {});

  /// Stops the pool and joins the workers. Idempotent; safe to call
  /// concurrently with Submit (late submits come back cancelled).
  void Shutdown(DrainMode mode = DrainMode::kDrain);

  int num_workers() const { return static_cast<int>(workers_.size()); }

  /// Queries fully executed so far.
  int64_t completed() const {
    return completed_.load(std::memory_order_relaxed);
  }

  /// Queries cancelled by Shutdown(kCancelPending) or post-shutdown submits.
  int64_t cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// The workers' shared cross-query result cache (capacity 0 = disabled).
  ResultCache& result_cache() { return result_cache_; }
  const ResultCache& result_cache() const { return result_cache_; }

 private:
  struct Task {
    explicit Task(QueryRequest request_in) : request(std::move(request_in)) {}

    QueryRequest request;
    std::promise<QueryOutcome> promise;
  };

  void WorkerLoop();

  IndexViewProvider provider_;
  ResultCache result_cache_;  // shared by the per-task searchers
  BoundedQueue<Task> queue_;
  std::vector<std::thread> workers_;
  std::atomic<bool> shutdown_{false};
  std::atomic<int64_t> completed_{0};
  std::atomic<int64_t> cancelled_{0};
  std::mutex shutdown_mu_;  // serializes Shutdown callers for the join
};

}  // namespace mst

#endif  // MST_EXEC_QUERY_EXECUTOR_H_

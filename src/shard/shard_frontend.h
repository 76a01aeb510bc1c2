// ShardFrontEnd: the service layer of the sharded k-MST engine — one
// logical submission surface over N single-threaded shard stacks, modeled
// on TDengine's query-executor/vnode split: clients talk to one front
// door; storage-level work happens on per-shard workers that never share
// mutable state.
//
// A submitted query fans out to one QueryExecutor per shard (one worker
// and one bounded queue each, so each shard stack stays single-threaded
// and back-pressured independently); a gather worker awaits the per-shard
// legs, merges the per-shard top-k heaps (ScatterGatherSearch::
// MergeShardResults), and aggregates per-(query, shard) stats exactly
// (AggregateShardStats) before resolving the caller's future.
//
// Admission control: at most `max_in_flight_queries` queries may be
// between Submit and gather completion. The policy decides what happens at
// the limit — kBlock makes Submit wait (backpressure toward the client),
// kReject resolves the future immediately with `rejected == true` (load
// shedding). Below the front door, the per-shard bounded queues add a
// second, finer backpressure: a slow shard throttles fan-out onto it.
//
// The legs of one query search their shards independently, so per-query
// results and stats are free of scheduling effects under every policy:
// they equal a serial ScatterGatherSearch over the same ShardedIndex.

#ifndef MST_SHARD_SHARD_FRONTEND_H_
#define MST_SHARD_SHARD_FRONTEND_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/exec/bounded_queue.h"
#include "src/exec/query_executor.h"
#include "src/shard/sharded_index.h"

namespace mst {

class ShardFrontEnd {
 public:
  enum class AdmissionPolicy {
    kBlock,   // Submit blocks until a slot frees (backpressure)
    kReject,  // Submit returns an immediately-ready rejected outcome
  };

  struct Options {
    /// Per-shard submission-queue bound; a full shard queue blocks fan-out.
    size_t per_shard_queue_capacity = 64;
    /// Queries admitted but not yet gathered; 0 = unlimited (no admission
    /// control, per-shard queues still bound the fan-out).
    int max_in_flight_queries = 256;
    AdmissionPolicy admission_policy = AdmissionPolicy::kBlock;
    /// Per-shard-executor cross-query result-cache entries (each shard
    /// worker owns one; 0 disables them).
    size_t result_cache_entries = 1 << 12;
  };

  /// `index` is not owned and must outlive the front-end. Spawns one
  /// worker per shard plus one gather thread.
  ShardFrontEnd(const ShardedIndex* index, const Options& options);
  explicit ShardFrontEnd(const ShardedIndex* index)
      : ShardFrontEnd(index, Options()) {}

  /// Live-view form: one provider per shard (resolved by that shard's
  /// worker at dequeue time), the front door of a sharded ingest service —
  /// each shard's IngestEngine keeps publishing fresh snapshots while
  /// queries stream through. The providers must outlive the front-end.
  ShardFrontEnd(std::vector<IndexViewProvider> shard_views,
                const Options& options);

  ShardFrontEnd(const ShardFrontEnd&) = delete;
  ShardFrontEnd& operator=(const ShardFrontEnd&) = delete;

  /// Drains outstanding work before returning.
  ~ShardFrontEnd();

  /// Admits (or rejects) one query and fans it out to every shard. The
  /// future resolves with the merged top-k and exact aggregated stats once
  /// every shard leg completed. Thread-safe.
  std::future<QueryOutcome> Submit(QueryRequest request);

  /// Runs every request and returns outcomes in request order. Blocking
  /// admission applies per request, so a batch larger than the in-flight
  /// limit streams through the window rather than failing.
  std::vector<QueryOutcome> RunBatch(const std::vector<QueryRequest>& requests);

  /// Stops accepting queries, drains everything admitted, joins all
  /// threads. Idempotent; late Submits resolve as cancelled.
  void Shutdown();

  int num_shards() const { return static_cast<int>(executors_.size()); }

  /// Queries fully gathered so far.
  int64_t completed() const {
    return completed_.load(std::memory_order_relaxed);
  }

  /// Queries turned away by kReject admission control.
  int64_t rejected() const {
    return rejected_.load(std::memory_order_relaxed);
  }

  /// Queries currently between admission and gather completion.
  int in_flight() const;

  /// The executor serving shard `s` (tests/diagnostics).
  QueryExecutor& shard_executor(int s) { return *executors_[s]; }

 private:
  struct GatherTask {
    std::vector<std::future<QueryOutcome>> legs;  // one per shard, in order
    std::promise<QueryOutcome> promise;
    int k = 1;
  };

  void GatherLoop();
  void FinishQuery();  // in-flight decrement + admission wakeup

  const ShardedIndex* index_;
  Options options_;
  std::vector<std::unique_ptr<QueryExecutor>> executors_;
  BoundedQueue<GatherTask> gather_queue_;
  std::thread gather_thread_;

  mutable std::mutex admission_mu_;
  std::condition_variable admission_cv_;
  int in_flight_ = 0;           // guarded by admission_mu_
  bool shutdown_ = false;       // guarded by admission_mu_
  std::mutex shutdown_mu_;      // serializes Shutdown callers for the joins

  std::atomic<int64_t> completed_{0};
  std::atomic<int64_t> rejected_{0};
};

}  // namespace mst

#endif  // MST_SHARD_SHARD_FRONTEND_H_

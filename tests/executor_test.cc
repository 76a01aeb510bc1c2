// QueryExecutor tests: parallel RunBatch must be indistinguishable from a
// serial loop over BFMstSearch::Search — same ids, bitwise-identical
// dissimilarities and error bounds, same per-query traversal stats — and
// shutdown must resolve every outstanding future exactly once.

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "src/core/mst_search.h"
#include "src/exec/bounded_queue.h"
#include "src/exec/query_executor.h"
#include "src/gen/gstd.h"
#include "src/index/rtree3d.h"
#include "src/index/tbtree.h"
#include "src/util/random.h"

namespace mst {
namespace {

enum class IndexKind { kRTree3DBulk, kTBTree };

// Fixture: a 1000-trajectory GSTD dataset indexed both ways, shared across
// the suite (building it per-test would dominate the runtime).
class ExecutorTest : public ::testing::TestWithParam<IndexKind> {
 protected:
  static void SetUpTestSuite() {
    GstdOptions opt;
    opt.num_objects = 1000;
    opt.samples_per_object = 48;
    opt.timestamp_jitter = 0.5;
    opt.seed = 77;
    store_ = new TrajectoryStore(GenerateGstd(opt));
    rtree_ = new RTree3D();
    rtree_->BulkLoad(*store_);
    tbtree_ = new TBTree();
    tbtree_->BuildFrom(*store_);
  }

  static void TearDownTestSuite() {
    delete store_;
    delete rtree_;
    delete tbtree_;
    store_ = nullptr;
    rtree_ = nullptr;
    tbtree_ = nullptr;
  }

  const TrajectoryIndex& index() const {
    return GetParam() == IndexKind::kRTree3DBulk
               ? static_cast<const TrajectoryIndex&>(*rtree_)
               : static_cast<const TrajectoryIndex&>(*tbtree_);
  }

  // Query workload: perturbed slices of stored trajectories, as in the
  // paper's experiments.
  static std::vector<QueryRequest> MakeRequests(int count, int k,
                                                uint64_t seed) {
    Rng rng(seed);
    std::vector<QueryRequest> requests;
    requests.reserve(static_cast<size_t>(count));
    for (int i = 0; i < count; ++i) {
      const Trajectory& base =
          store_->trajectories()[rng.UniformIndex(store_->size())];
      const double span = base.end_time() - base.start_time();
      const double len = span * 0.3;
      const double begin = base.start_time() + rng.Uniform(0.0, span - len);
      const Trajectory slice = *base.Slice({begin, begin + len});
      std::vector<TPoint> samples = slice.samples();
      for (TPoint& s : samples) {
        s.p.x += rng.Uniform(-0.02, 0.02);
        s.p.y += rng.Uniform(-0.02, 0.02);
      }
      Trajectory query(static_cast<TrajectoryId>(100000 + i),
                       std::move(samples));
      const TimeInterval period = query.Lifespan();
      MstOptions options;
      options.k = k;
      requests.emplace_back(std::move(query), period, options);
    }
    return requests;
  }

  static TrajectoryStore* store_;
  static RTree3D* rtree_;
  static TBTree* tbtree_;
};

TrajectoryStore* ExecutorTest::store_ = nullptr;
RTree3D* ExecutorTest::rtree_ = nullptr;
TBTree* ExecutorTest::tbtree_ = nullptr;

TEST_P(ExecutorTest, BatchMatchesSerialLoopExactly) {
  const std::vector<QueryRequest> requests = MakeRequests(48, 4, 9001);

  // Ground truth: a plain serial loop on this thread.
  const BFMstSearch searcher(&index(), store_);
  std::vector<std::vector<MstResult>> serial_results;
  std::vector<MstStats> serial_stats;
  for (const QueryRequest& request : requests) {
    MstStats stats;
    serial_results.push_back(
        searcher.Search(request.query, request.period, request.options,
                        &stats));
    serial_stats.push_back(stats);
  }

  QueryExecutor::Options opt;
  opt.num_workers = 8;
  QueryExecutor executor(&index(), store_, opt);
  ASSERT_EQ(executor.num_workers(), 8);
  const std::vector<QueryOutcome> outcomes = executor.RunBatch(requests);

  ASSERT_EQ(outcomes.size(), requests.size());
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const QueryOutcome& out = outcomes[i];
    EXPECT_FALSE(out.cancelled);
    ASSERT_EQ(out.results.size(), serial_results[i].size()) << "query " << i;
    for (size_t r = 0; r < out.results.size(); ++r) {
      EXPECT_EQ(out.results[r].id, serial_results[i][r].id)
          << "query " << i << " rank " << r;
      // Bitwise equality: the traversal is deterministic, so the floating
      // point work is identical instruction-for-instruction.
      EXPECT_EQ(out.results[r].dissim, serial_results[i][r].dissim);
      EXPECT_EQ(out.results[r].error_bound, serial_results[i][r].error_bound);
    }
    // Per-query stats are isolated per worker: identical to the serial run
    // even with eight traversals interleaving on the same buffer.
    EXPECT_EQ(out.stats.nodes_accessed, serial_stats[i].nodes_accessed);
    EXPECT_EQ(out.stats.leaf_entries_seen, serial_stats[i].leaf_entries_seen);
    EXPECT_EQ(out.stats.heap_pushes, serial_stats[i].heap_pushes);
    EXPECT_EQ(out.stats.candidates_created,
              serial_stats[i].candidates_created);
    EXPECT_EQ(out.stats.candidates_rejected,
              serial_stats[i].candidates_rejected);
    EXPECT_EQ(out.stats.terminated_by_heuristic2,
              serial_stats[i].terminated_by_heuristic2);
  }
  EXPECT_EQ(executor.completed(), static_cast<int64_t>(requests.size()));
  EXPECT_EQ(executor.cancelled(), 0);
}

TEST_P(ExecutorTest, RepeatedBatchesAreStable) {
  const std::vector<QueryRequest> requests = MakeRequests(12, 3, 404);
  QueryExecutor::Options opt;
  opt.num_workers = 4;
  QueryExecutor executor(&index(), store_, opt);
  const std::vector<QueryOutcome> first = executor.RunBatch(requests);
  const std::vector<QueryOutcome> second = executor.RunBatch(requests);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    ASSERT_EQ(first[i].results.size(), second[i].results.size());
    for (size_t r = 0; r < first[i].results.size(); ++r) {
      EXPECT_EQ(first[i].results[r].id, second[i].results[r].id);
      EXPECT_EQ(first[i].results[r].dissim, second[i].results[r].dissim);
    }
    EXPECT_EQ(first[i].stats.nodes_accessed, second[i].stats.nodes_accessed);
  }
}

TEST_P(ExecutorTest, SharingAndCachingOffReproducesSerialStatsExactly) {
  std::vector<QueryRequest> requests;
  for (const QueryRequest& request : MakeRequests(3, 3, 2323)) {
    requests.push_back(request);
    requests.push_back(request);  // duplicates, but nothing may be shared
  }

  QueryExecutor::Options opt;
  opt.num_workers = 2;
  opt.result_cache_entries = 0;
  QueryExecutor executor(&index(), store_, opt);
  ASSERT_FALSE(executor.result_cache().enabled());

  const BFMstSearch searcher(&index(), store_);
  const std::vector<QueryOutcome> outcomes = executor.RunBatch(requests);
  ASSERT_EQ(outcomes.size(), requests.size());
  for (size_t i = 0; i < outcomes.size(); ++i) {
    MstStats stats;
    const std::vector<MstResult> expected =
        searcher.Search(requests[i].query, requests[i].period,
                        requests[i].options, &stats);
    ASSERT_EQ(outcomes[i].results.size(), expected.size());
    for (size_t r = 0; r < expected.size(); ++r) {
      EXPECT_EQ(outcomes[i].results[r].id, expected[r].id);
      EXPECT_EQ(outcomes[i].results[r].dissim, expected[r].dissim);
    }
    // With both mechanisms off, even duplicates traverse identically.
    EXPECT_EQ(outcomes[i].stats.nodes_accessed, stats.nodes_accessed);
    EXPECT_EQ(outcomes[i].stats.result_cache_hits, 0);
    EXPECT_EQ(outcomes[i].stats.result_cache_misses, 0);
  }
}

TEST_P(ExecutorTest, ShutdownWhileQueuedResolvesEveryFuture) {
  QueryExecutor::Options opt;
  opt.num_workers = 1;  // one worker so a backlog actually builds up
  opt.queue_capacity = 64;
  QueryExecutor executor(&index(), store_, opt);

  const std::vector<QueryRequest> requests = MakeRequests(48, 4, 606);
  std::vector<std::future<QueryOutcome>> futures;
  futures.reserve(requests.size());
  for (const QueryRequest& request : requests) {
    futures.push_back(executor.Submit(request));
  }
  executor.Shutdown(QueryExecutor::DrainMode::kCancelPending);

  int64_t done = 0;
  int64_t cancelled = 0;
  for (std::future<QueryOutcome>& future : futures) {
    const QueryOutcome out = future.get();  // must not hang
    if (out.cancelled) {
      EXPECT_TRUE(out.results.empty());
      ++cancelled;
    } else {
      EXPECT_FALSE(out.results.empty());
      ++done;
    }
  }
  EXPECT_EQ(done + cancelled, static_cast<int64_t>(requests.size()));
  EXPECT_EQ(executor.completed(), done);
  EXPECT_EQ(executor.cancelled(), cancelled);
  EXPECT_GE(cancelled, 1);  // 48 queries cannot all finish before Shutdown
}

TEST_P(ExecutorTest, DrainShutdownCompletesEverything) {
  QueryExecutor::Options opt;
  opt.num_workers = 2;
  QueryExecutor executor(&index(), store_, opt);
  const std::vector<QueryRequest> requests = MakeRequests(10, 2, 707);
  std::vector<std::future<QueryOutcome>> futures;
  for (const QueryRequest& request : requests) {
    futures.push_back(executor.Submit(request));
  }
  executor.Shutdown(QueryExecutor::DrainMode::kDrain);
  for (std::future<QueryOutcome>& future : futures) {
    const QueryOutcome out = future.get();
    EXPECT_FALSE(out.cancelled);
    EXPECT_FALSE(out.results.empty());
  }
  EXPECT_EQ(executor.completed(), static_cast<int64_t>(requests.size()));
  EXPECT_EQ(executor.cancelled(), 0);
}

TEST_P(ExecutorTest, EmptyBatchReturnsEmpty) {
  QueryExecutor executor(&index(), store_);
  EXPECT_TRUE(executor.RunBatch(std::vector<QueryRequest>()).empty());
  EXPECT_TRUE(executor.RunBatch(std::vector<Trajectory>(), 3).empty());
  EXPECT_EQ(executor.completed(), 0);
}

TEST_P(ExecutorTest, SubmitAfterShutdownIsCancelled) {
  QueryExecutor executor(&index(), store_);
  executor.Shutdown();
  std::vector<QueryRequest> requests = MakeRequests(1, 1, 808);
  std::future<QueryOutcome> future = executor.Submit(requests[0]);
  const QueryOutcome out = future.get();
  EXPECT_TRUE(out.cancelled);
  EXPECT_TRUE(out.results.empty());
  EXPECT_EQ(executor.cancelled(), 1);
}

TEST_P(ExecutorTest, TrajectoryBatchConvenienceOverload) {
  std::vector<Trajectory> queries;
  Rng rng(505);
  for (int i = 0; i < 6; ++i) {
    queries.push_back(
        store_->trajectories()[rng.UniformIndex(store_->size())]);
  }
  QueryExecutor::Options opt;
  opt.num_workers = 3;
  QueryExecutor executor(&index(), store_, opt);
  const std::vector<QueryOutcome> outcomes = executor.RunBatch(queries, 2);
  ASSERT_EQ(outcomes.size(), queries.size());
  for (size_t i = 0; i < outcomes.size(); ++i) {
    ASSERT_FALSE(outcomes[i].results.empty());
    // Each stored trajectory's most similar match is itself, at dissim 0.
    EXPECT_EQ(outcomes[i].results[0].id, queries[i].id());
    EXPECT_NEAR(outcomes[i].results[0].dissim, 0.0, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(AllIndexes, ExecutorTest,
                         ::testing::Values(IndexKind::kRTree3DBulk,
                                           IndexKind::kTBTree),
                         [](const auto& info) {
                           return info.param == IndexKind::kRTree3DBulk
                                      ? "RTree3DBulk"
                                      : "TBTree";
                         });

// BoundedQueue multi-consumer shutdown discipline (the shard front-end
// runs one queue per shard, so one stranded consumer deadlocks a whole
// shard). These are the regression locks for the cascading-wakeup audit in
// bounded_queue.h.

TEST(BoundedQueueTest, EightPoppersRacingClose) {
  // 8 consumers race Close() against a producer burst, repeatedly: every
  // consumer must observe closed+drained (Pop -> nullopt) and exit, and
  // every item must be popped exactly once — no wakeup pairing may strand
  // a consumer regardless of where Close lands in the interleaving.
  for (int round = 0; round < 50; ++round) {
    BoundedQueue<int> queue(4);  // small bound: pushers block mid-burst
    std::atomic<int> popped{0};
    std::atomic<int> exited{0};
    std::vector<std::thread> poppers;
    poppers.reserve(8);
    for (int i = 0; i < 8; ++i) {
      poppers.emplace_back([&queue, &popped, &exited] {
        while (queue.Pop().has_value()) {
          popped.fetch_add(1, std::memory_order_relaxed);
        }
        exited.fetch_add(1, std::memory_order_relaxed);
      });
    }
    std::atomic<int> pushed{0};
    std::thread pusher([&queue, &pushed] {
      for (int i = 0; i < 64; ++i) {
        if (!queue.Push(i)) break;  // closed mid-burst
        pushed.fetch_add(1, std::memory_order_relaxed);
      }
    });
    if (round % 2 == 0) std::this_thread::yield();
    queue.Close();
    pusher.join();
    for (std::thread& t : poppers) t.join();  // the regression: must return
    EXPECT_EQ(exited.load(), 8) << "round " << round;
    EXPECT_EQ(popped.load(), pushed.load()) << "round " << round;
  }
}

TEST(BoundedQueueTest, ConsumersDrainEverythingQueuedBeforeClose) {
  // Close with items still queued: consumers must drain all of them before
  // reporting exhaustion (kDrain shutdown depends on this).
  BoundedQueue<int> queue(64);
  for (int i = 0; i < 32; ++i) ASSERT_TRUE(queue.Push(i));
  queue.Close();
  EXPECT_FALSE(queue.Push(99));  // closed: rejected, not queued
  std::atomic<int> popped{0};
  std::vector<std::thread> poppers;
  for (int i = 0; i < 6; ++i) {
    poppers.emplace_back([&queue, &popped] {
      while (queue.Pop().has_value()) {
        popped.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : poppers) t.join();
  EXPECT_EQ(popped.load(), 32);
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_TRUE(queue.closed());
}

TEST(BoundedQueueTest, BlockedPushersAllObserveClose) {
  // Producers blocked on a full queue must all fail out of Push when the
  // queue closes while consumers keep popping — the mirror image of the
  // consumer cascade (a failed push must also not swallow a consumer
  // wakeup; see bounded_queue.h).
  BoundedQueue<int> queue(1);
  ASSERT_TRUE(queue.Push(0));  // full: every pusher below blocks
  std::atomic<int> push_ok{0};
  std::atomic<int> push_fail{0};
  std::vector<std::thread> pushers;
  for (int i = 0; i < 4; ++i) {
    pushers.emplace_back([&queue, &push_ok, &push_fail, i] {
      if (queue.Push(1 + i)) {
        push_ok.fetch_add(1, std::memory_order_relaxed);
      } else {
        push_fail.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::thread popper([&queue] {
    while (queue.Pop().has_value()) std::this_thread::yield();
  });
  std::this_thread::yield();
  queue.Close();
  for (std::thread& t : pushers) t.join();  // must not hang
  popper.join();
  EXPECT_EQ(push_ok.load() + push_fail.load(), 4);
}

}  // namespace
}  // namespace mst

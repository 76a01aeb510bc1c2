// Sharded scatter-gather k-MST tests: the partitioned index must be
// indistinguishable from the unsharded one — identical results for every
// shard count (bitwise, under exact refinement), exact per-(query, shard)
// stats aggregation, a sound cross-shard bound board, and a front-end
// whose admission control and shutdown never strand a caller.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "src/core/mst_search.h"
#include "src/exec/kth_bound_board.h"
#include "src/gen/gstd.h"
#include "src/index/rtree3d.h"
#include "src/index/tbtree.h"
#include "src/shard/scatter_gather.h"
#include "src/shard/shard_frontend.h"
#include "src/shard/sharded_index.h"
#include "src/util/random.h"

namespace mst {
namespace {

TrajectoryStore MakeStore(int objects, int samples, uint64_t seed) {
  GstdOptions opt;
  opt.num_objects = objects;
  opt.samples_per_object = samples;
  opt.timestamp_jitter = 0.5;
  opt.seed = seed;
  return GenerateGstd(opt);
}

// Query workload: perturbed slices of stored trajectories (the executor
// test's workload shape).
std::vector<QueryRequest> MakeRequests(const TrajectoryStore& store,
                                       int count, int k, uint64_t seed) {
  Rng rng(seed);
  std::vector<QueryRequest> requests;
  requests.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    const Trajectory& base =
        store.trajectories()[rng.UniformIndex(store.size())];
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

void ExpectSameResults(const std::vector<MstResult>& expected,
                       const std::vector<MstResult>& actual,
                       const char* label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (size_t r = 0; r < expected.size(); ++r) {
    EXPECT_EQ(expected[r].id, actual[r].id) << label << " rank " << r;
    EXPECT_EQ(expected[r].dissim, actual[r].dissim) << label << " rank " << r;
    EXPECT_EQ(expected[r].error_bound, actual[r].error_bound)
        << label << " rank " << r;
  }
}

// ---------------------------------------------------------------------------
// ShardedIndexTest — partitioning and aggregates.

TEST(ShardedIndexTest, PartitionIsDisjointAndExhaustive) {
  const TrajectoryStore store = MakeStore(200, 24, 11);
  ShardedIndex::Options opt;
  opt.num_shards = 8;
  ShardedIndex sharded(opt);
  sharded.BuildFrom(store);

  std::set<TrajectoryId> seen;
  for (int s = 0; s < sharded.num_shards(); ++s) {
    for (const Trajectory& t : sharded.shard(s).store.trajectories()) {
      EXPECT_EQ(ShardedIndex::ShardOf(t.id(), 8), s);
      EXPECT_TRUE(seen.insert(t.id()).second)
          << "trajectory " << t.id() << " in two shards";
    }
  }
  EXPECT_EQ(seen.size(), store.size());
  EXPECT_EQ(sharded.TotalTrajectories(),
            static_cast<int64_t>(store.size()));
  EXPECT_EQ(sharded.EntryCount(), store.TotalSegments());
  EXPECT_DOUBLE_EQ(sharded.max_speed(), store.MaxSpeed());
}

TEST(ShardedIndexTest, ShardOfIsDeterministicAndInRange) {
  for (int shards : {1, 2, 3, 8, 13}) {
    for (TrajectoryId id = 0; id < 1000; ++id) {
      const int s = ShardedIndex::ShardOf(id, shards);
      EXPECT_GE(s, 0);
      EXPECT_LT(s, shards);
      EXPECT_EQ(s, ShardedIndex::ShardOf(id, shards));
    }
  }
  EXPECT_EQ(ShardedIndex::ShardOf(12345, 1), 0);
}

TEST(ShardedIndexTest, SingleShardReproducesUnshardedBuild) {
  const TrajectoryStore store = MakeStore(120, 24, 12);
  TBTree unsharded;
  unsharded.BuildFrom(store);

  ShardedIndex::Options opt;
  opt.num_shards = 1;
  ShardedIndex sharded(opt);
  sharded.BuildFrom(store);

  // One shard sees the identical insertion sequence, so the trees match
  // structurally — same pages, same entries, same height.
  EXPECT_EQ(sharded.NodeCount(), unsharded.NodeCount());
  EXPECT_EQ(sharded.SizeBytes(), unsharded.SizeBytes());
  EXPECT_EQ(sharded.EntryCount(), unsharded.EntryCount());
  EXPECT_EQ(sharded.shard(0).index->height(), unsharded.height());
  EXPECT_DOUBLE_EQ(sharded.max_speed(), unsharded.max_speed());
}

// ---------------------------------------------------------------------------
// ScatterGatherTest — result identity and stats aggregation.

class ScatterGatherTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    store_ = new TrajectoryStore(MakeStore(500, 40, 77));
    unsharded_ = new TBTree();
    unsharded_->BuildFrom(*store_);
    for (const int n : {1, 2, 8}) {
      ShardedIndex::Options opt;
      opt.num_shards = n;
      auto sharded = std::make_unique<ShardedIndex>(opt);
      sharded->BuildFrom(*store_);
      sharded_.push_back(std::move(sharded));
    }
  }

  static void TearDownTestSuite() {
    sharded_.clear();
    delete unsharded_;
    delete store_;
    unsharded_ = nullptr;
    store_ = nullptr;
  }

  static TrajectoryStore* store_;
  static TBTree* unsharded_;
  static std::vector<std::unique_ptr<ShardedIndex>> sharded_;
};

TrajectoryStore* ScatterGatherTest::store_ = nullptr;
TBTree* ScatterGatherTest::unsharded_ = nullptr;
std::vector<std::unique_ptr<ShardedIndex>> ScatterGatherTest::sharded_;

TEST_F(ScatterGatherTest, ResultIdentityAcrossShardCountsAndPolicies) {
  const BFMstSearch oracle(unsharded_, store_);
  const std::vector<QueryRequest> requests =
      MakeRequests(*store_, 12, 4, 9001);
  for (const std::unique_ptr<ShardedIndex>& sharded : sharded_) {
    for (const bool share : {false, true}) {
      ScatterGatherOptions sg_opt;
      sg_opt.share_cross_shard_bounds = share;
      const ScatterGatherSearch search(sharded.get(), sg_opt);
      for (const QueryRequest& request : requests) {
        for (const IntegrationPolicy policy :
             {IntegrationPolicy::kTrapezoid, IntegrationPolicy::kExact}) {
          MstOptions options = request.options;
          options.policy = policy;
          const std::vector<MstResult> expected =
              oracle.Search(request.query, request.period, options);
          const std::vector<MstResult> merged =
              search.Search(request.query, request.period, options);
          ExpectSameResults(expected, merged, "scatter-gather");
        }
      }
    }
  }
}

TEST_F(ScatterGatherTest, SingleShardMatchesUnshardedStatsExactly) {
  const BFMstSearch oracle(unsharded_, store_);
  const ScatterGatherSearch search(sharded_[0].get());
  const std::vector<QueryRequest> requests = MakeRequests(*store_, 8, 3, 42);
  for (const QueryRequest& request : requests) {
    MstStats expected_stats;
    const std::vector<MstResult> expected = oracle.Search(
        request.query, request.period, request.options, &expected_stats);
    MstStats stats;
    const std::vector<MstResult> merged =
        search.Search(request.query, request.period, request.options, &stats);
    ExpectSameResults(expected, merged, "N=1");
    // The one shard holds the identical tree: the whole traversal — and
    // with it every counter — is instruction-for-instruction the same.
    EXPECT_EQ(stats.nodes_accessed, expected_stats.nodes_accessed);
    EXPECT_EQ(stats.total_nodes, expected_stats.total_nodes);
    EXPECT_EQ(stats.heap_pushes, expected_stats.heap_pushes);
    EXPECT_EQ(stats.mindist_evaluations, expected_stats.mindist_evaluations);
    EXPECT_EQ(stats.leaf_entries_seen, expected_stats.leaf_entries_seen);
    EXPECT_EQ(stats.candidates_created, expected_stats.candidates_created);
    EXPECT_EQ(stats.exact_recomputations,
              expected_stats.exact_recomputations);
    EXPECT_EQ(stats.terminated_by_heuristic2,
              expected_stats.terminated_by_heuristic2);
  }
}

TEST_F(ScatterGatherTest, StatsAggregateExactlyPerQueryAndShard) {
  // Satellite lock: MstStats.node_accesses of a sharded query must equal
  // the sum of its per-(query, shard) deltas — the thread-local counters
  // isolate each leg even though all legs run through the same code.
  ScatterGatherOptions sg_opt;
  sg_opt.share_cross_shard_bounds = false;  // leg stats must be schedule-free
  const ScatterGatherSearch search(sharded_[2].get(), sg_opt);  // N=8
  const std::vector<QueryRequest> requests = MakeRequests(*store_, 6, 4, 99);
  for (const QueryRequest& request : requests) {
    MstStats total;
    std::vector<MstStats> per_shard;
    search.Search(request.query, request.period, request.options, &total,
                  &per_shard);
    ASSERT_EQ(per_shard.size(), 8u);
    int64_t nodes = 0;
    int64_t heap = 0;
    int64_t mindist = 0;
    int64_t total_nodes = 0;
    int64_t recomputations = 0;
    for (const MstStats& s : per_shard) {
      nodes += s.nodes_accessed;
      heap += s.heap_pushes;
      mindist += s.mindist_evaluations;
      total_nodes += s.total_nodes;
      recomputations += s.exact_recomputations;
    }
    EXPECT_EQ(total.nodes_accessed, nodes);
    EXPECT_EQ(total.heap_pushes, heap);
    EXPECT_EQ(total.mindist_evaluations, mindist);
    EXPECT_EQ(total.total_nodes, total_nodes);
    EXPECT_EQ(total.exact_recomputations, recomputations);
    EXPECT_GT(total.nodes_accessed, 0);
    EXPECT_EQ(total.total_nodes, sharded_[2]->NodeCount());
  }
}

TEST_F(ScatterGatherTest, CrossShardBoundSharingOnlyEverPrunesMore) {
  // Exact queries with sharing on must return identical results with no
  // more node accesses than sharing off (a sound bound only prunes).
  ScatterGatherOptions off_opt;
  off_opt.share_cross_shard_bounds = false;
  ScatterGatherOptions on_opt;
  on_opt.share_cross_shard_bounds = true;
  const ScatterGatherSearch off(sharded_[2].get(), off_opt);  // N=8
  const ScatterGatherSearch on(sharded_[2].get(), on_opt);
  const std::vector<QueryRequest> requests =
      MakeRequests(*store_, 10, 4, 123);
  for (const QueryRequest& request : requests) {
    MstOptions options = request.options;
    options.policy = IntegrationPolicy::kExact;
    MstStats off_stats;
    const std::vector<MstResult> expected =
        off.Search(request.query, request.period, options, &off_stats);
    MstStats on_stats;
    const std::vector<MstResult> shared =
        on.Search(request.query, request.period, options, &on_stats);
    ExpectSameResults(expected, shared, "sharing");
    EXPECT_LE(on_stats.nodes_accessed, off_stats.nodes_accessed);
  }
}

TEST_F(ScatterGatherTest, RTreeFactoryAnswersIdentically) {
  RTree3D unsharded;
  unsharded.BuildFrom(*store_);
  ShardedIndex::Options opt;
  opt.num_shards = 4;
  ShardedIndex sharded(opt, [](const TrajectoryIndex::Options& io) {
    return std::make_unique<RTree3D>(io);
  });
  sharded.BuildFrom(*store_);
  const BFMstSearch oracle(&unsharded, store_);
  const ScatterGatherSearch search(&sharded);
  for (const QueryRequest& request : MakeRequests(*store_, 6, 3, 314)) {
    const std::vector<MstResult> expected =
        oracle.Search(request.query, request.period, request.options);
    const std::vector<MstResult> merged =
        search.Search(request.query, request.period, request.options);
    ExpectSameResults(expected, merged, "rtree");
  }
}

TEST(ScatterGatherSmallTest, EmptyShardsAndKBeyondShardCandidates) {
  // 5 trajectories over 8 shards: several shards stay empty, and k = 10
  // exceeds every shard's candidate count — the merge must still return
  // exactly the unsharded answer (all eligible trajectories, in order).
  const TrajectoryStore store = MakeStore(5, 16, 333);
  TBTree unsharded;
  unsharded.BuildFrom(store);
  ShardedIndex::Options opt;
  opt.num_shards = 8;
  ShardedIndex sharded(opt);
  sharded.BuildFrom(store);
  int empty_shards = 0;
  for (int s = 0; s < sharded.num_shards(); ++s) {
    if (sharded.shard(s).store.empty()) ++empty_shards;
  }
  ASSERT_GE(empty_shards, 3) << "partition no longer exercises empty shards";

  const BFMstSearch oracle(&unsharded, &store);
  const ScatterGatherSearch search(&sharded);
  for (const QueryRequest& request : MakeRequests(store, 4, 10, 55)) {
    MstStats stats;
    const std::vector<MstResult> expected =
        oracle.Search(request.query, request.period, request.options);
    const std::vector<MstResult> merged = search.Search(
        request.query, request.period, request.options, &stats);
    ExpectSameResults(expected, merged, "small");
    EXPECT_LE(merged.size(), 5u);
    EXPECT_GT(stats.nodes_accessed, 0);
  }
}

// ---------------------------------------------------------------------------
// ShardBoundBoardTest — the cross-shard bound board.

TEST(ShardBoundBoardTest, AtomicMinSemantics) {
  KthBoundBoard board;
  EXPECT_EQ(board.Current(), std::numeric_limits<double>::infinity());
  board.Publish(5.0);
  EXPECT_EQ(board.Current(), 5.0);
  board.Publish(7.0);  // larger: ignored
  EXPECT_EQ(board.Current(), 5.0);
  board.Publish(2.5);
  EXPECT_EQ(board.Current(), 2.5);
  board.Publish(0.0);
  EXPECT_EQ(board.Current(), 0.0);
  // Unusable bounds never poison the board.
  board.Publish(std::numeric_limits<double>::quiet_NaN());
  board.Publish(-1.0);
  board.Publish(std::numeric_limits<double>::infinity());
  EXPECT_EQ(board.Current(), 0.0);
  EXPECT_EQ(board.publish_count(), 7);  // every call counts, ignored or not
  board.Publish(3.0);
  EXPECT_EQ(board.publish_count(), 8);
  EXPECT_EQ(board.Current(), 0.0);
}

TEST(ShardBoundBoardTest, ConcurrentPublishersConvergeToGlobalMin) {
  // TSan hammer: 8 publishers race 4 readers on one board; the board must
  // end at the global minimum and readers must only ever observe values
  // some publisher actually wrote (or +inf).
  KthBoundBoard board;
  constexpr int kPublishers = 8;
  constexpr int kValuesPerPublisher = 4000;
  std::atomic<bool> stop{false};
  double global_min = std::numeric_limits<double>::infinity();
  std::vector<std::vector<double>> values(kPublishers);
  for (int p = 0; p < kPublishers; ++p) {
    Rng rng(1000 + static_cast<uint64_t>(p));
    values[p].reserve(kValuesPerPublisher);
    for (int i = 0; i < kValuesPerPublisher; ++i) {
      const double v = rng.Uniform(0.5, 100.0);
      values[p].push_back(v);
      global_min = std::min(global_min, v);
    }
  }
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&board, &stop] {
      double last = std::numeric_limits<double>::infinity();
      while (!stop.load(std::memory_order_relaxed)) {
        const double cur = board.Current();
        EXPECT_LE(cur, last) << "board went up";
        last = cur;
      }
    });
  }
  std::vector<std::thread> publishers;
  for (int p = 0; p < kPublishers; ++p) {
    publishers.emplace_back([&board, &values, p] {
      for (const double v : values[static_cast<size_t>(p)]) {
        board.Publish(v);
      }
    });
  }
  for (std::thread& t : publishers) t.join();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(board.Current(), global_min);
  EXPECT_EQ(board.publish_count(),
            static_cast<int64_t>(kPublishers) * kValuesPerPublisher);
}

// ---------------------------------------------------------------------------
// ShardFrontEndTest — scatter-gather as a service.

class ShardFrontEndTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    store_ = new TrajectoryStore(MakeStore(400, 32, 88));
    ShardedIndex::Options opt;
    opt.num_shards = 4;
    sharded_ = new ShardedIndex(opt);
    sharded_->BuildFrom(*store_);
  }

  static void TearDownTestSuite() {
    delete sharded_;
    delete store_;
    sharded_ = nullptr;
    store_ = nullptr;
  }

  static TrajectoryStore* store_;
  static ShardedIndex* sharded_;
};

TrajectoryStore* ShardFrontEndTest::store_ = nullptr;
ShardedIndex* ShardFrontEndTest::sharded_ = nullptr;

TEST_F(ShardFrontEndTest, BatchMatchesSerialScatterGatherExactly) {
  const std::vector<QueryRequest> requests =
      MakeRequests(*store_, 24, 4, 777);
  // Sharing off so per-shard traversal work — and with it the aggregated
  // stats — is schedule-independent and comparable bitwise.
  ScatterGatherOptions sg_opt;
  sg_opt.share_cross_shard_bounds = false;
  const ScatterGatherSearch serial(sharded_, sg_opt);
  std::vector<std::vector<MstResult>> expected_results;
  std::vector<MstStats> expected_stats;
  for (const QueryRequest& request : requests) {
    MstStats stats;
    expected_results.push_back(
        serial.Search(request.query, request.period, request.options,
                      &stats));
    expected_stats.push_back(stats);
  }

  ShardFrontEnd::Options fe_opt;
  fe_opt.share_cross_shard_bounds = false;
  fe_opt.result_cache_entries = 0;
  ShardFrontEnd frontend(sharded_, fe_opt);
  ASSERT_EQ(frontend.num_shards(), 4);
  const std::vector<QueryOutcome> outcomes = frontend.RunBatch(requests);
  ASSERT_EQ(outcomes.size(), requests.size());
  for (size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_FALSE(outcomes[i].cancelled);
    EXPECT_FALSE(outcomes[i].rejected);
    ExpectSameResults(expected_results[i], outcomes[i].results, "frontend");
    EXPECT_EQ(outcomes[i].stats.nodes_accessed,
              expected_stats[i].nodes_accessed)
        << "query " << i;
    EXPECT_EQ(outcomes[i].stats.heap_pushes, expected_stats[i].heap_pushes);
    EXPECT_EQ(outcomes[i].stats.total_nodes, expected_stats[i].total_nodes);
  }
  EXPECT_EQ(frontend.completed(), static_cast<int64_t>(requests.size()));
  EXPECT_EQ(frontend.in_flight(), 0);
}

TEST_F(ShardFrontEndTest, CrossShardSharingKeepsResultsUnderLoad) {
  std::vector<QueryRequest> requests = MakeRequests(*store_, 16, 4, 888);
  for (QueryRequest& request : requests) {
    request.options.policy = IntegrationPolicy::kExact;
  }
  ScatterGatherOptions sg_opt;
  sg_opt.share_cross_shard_bounds = false;
  const ScatterGatherSearch serial(sharded_, sg_opt);

  ShardFrontEnd::Options fe_opt;
  fe_opt.share_cross_shard_bounds = true;
  ShardFrontEnd frontend(sharded_, fe_opt);
  const std::vector<QueryOutcome> outcomes = frontend.RunBatch(requests);
  ASSERT_EQ(outcomes.size(), requests.size());
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const std::vector<MstResult> expected =
        serial.Search(requests[i].query, requests[i].period,
                      requests[i].options);
    ExpectSameResults(expected, outcomes[i].results, "shared frontend");
  }
}

TEST_F(ShardFrontEndTest, BlockingAdmissionStreamsLargeBatches) {
  ShardFrontEnd::Options fe_opt;
  fe_opt.max_in_flight_queries = 2;
  fe_opt.admission_policy = ShardFrontEnd::AdmissionPolicy::kBlock;
  ShardFrontEnd frontend(sharded_, fe_opt);
  const std::vector<QueryRequest> requests =
      MakeRequests(*store_, 16, 3, 999);
  const std::vector<QueryOutcome> outcomes = frontend.RunBatch(requests);
  ASSERT_EQ(outcomes.size(), requests.size());
  for (const QueryOutcome& out : outcomes) {
    EXPECT_FALSE(out.cancelled);
    EXPECT_FALSE(out.rejected);
    EXPECT_FALSE(out.results.empty());
  }
  EXPECT_EQ(frontend.completed(), 16);
  EXPECT_EQ(frontend.rejected(), 0);
}

TEST_F(ShardFrontEndTest, RejectAdmissionShedsLoad) {
  ShardFrontEnd::Options fe_opt;
  fe_opt.max_in_flight_queries = 1;
  fe_opt.admission_policy = ShardFrontEnd::AdmissionPolicy::kReject;
  ShardFrontEnd frontend(sharded_, fe_opt);
  std::vector<QueryRequest> requests = MakeRequests(*store_, 40, 8, 1212);
  std::vector<std::future<QueryOutcome>> futures;
  futures.reserve(requests.size());
  for (const QueryRequest& request : requests) {
    futures.push_back(frontend.Submit(request));  // as fast as possible
  }
  int64_t completed = 0;
  int64_t rejected = 0;
  for (std::future<QueryOutcome>& future : futures) {
    const QueryOutcome out = future.get();
    EXPECT_FALSE(out.cancelled);
    if (out.rejected) {
      EXPECT_TRUE(out.results.empty());
      ++rejected;
    } else {
      EXPECT_FALSE(out.results.empty());
      ++completed;
    }
  }
  EXPECT_EQ(completed + rejected, 40);
  EXPECT_EQ(frontend.completed(), completed);
  EXPECT_EQ(frontend.rejected(), rejected);
  // The window is one query and a k-MST search is orders of magnitude
  // slower than a Submit, so the burst must have shed something.
  EXPECT_GE(rejected, 1);
  EXPECT_GE(completed, 1);  // the first admit always completes
}

TEST_F(ShardFrontEndTest, ShutdownResolvesEveryFuture) {
  auto frontend = std::make_unique<ShardFrontEnd>(sharded_);
  const std::vector<QueryRequest> requests =
      MakeRequests(*store_, 12, 3, 1313);
  std::vector<std::future<QueryOutcome>> futures;
  for (const QueryRequest& request : requests) {
    futures.push_back(frontend->Submit(request));
  }
  frontend->Shutdown();
  for (std::future<QueryOutcome>& future : futures) {
    const QueryOutcome out = future.get();  // must not hang
    if (!out.cancelled) {
      EXPECT_FALSE(out.results.empty());
    }
  }
  // Submits after shutdown resolve immediately as cancelled.
  std::future<QueryOutcome> late = frontend->Submit(requests[0]);
  EXPECT_TRUE(late.get().cancelled);
  frontend.reset();  // double-shutdown via destructor must be safe
}

TEST_F(ShardFrontEndTest, ConcurrentSubmittersHammer) {
  // 4 client threads × 8 queries each, all through one front-end with
  // sharing ON — the TSan workout for the board, the per-shard queues, and
  // the gather pipeline. Every client checks its own results against a
  // serial oracle.
  ScatterGatherOptions sg_opt;
  sg_opt.share_cross_shard_bounds = false;
  const ScatterGatherSearch serial(sharded_, sg_opt);
  ShardFrontEnd frontend(sharded_);
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      std::vector<QueryRequest> requests =
          MakeRequests(*store_, 8, 3, 5000 + static_cast<uint64_t>(c));
      for (QueryRequest& request : requests) {
        request.options.policy = IntegrationPolicy::kExact;
      }
      std::vector<std::future<QueryOutcome>> futures;
      for (const QueryRequest& request : requests) {
        futures.push_back(frontend.Submit(request));
      }
      for (size_t i = 0; i < futures.size(); ++i) {
        const QueryOutcome out = futures[i].get();
        const std::vector<MstResult> expected =
            serial.Search(requests[i].query, requests[i].period,
                          requests[i].options);
        if (out.cancelled || out.results.size() != expected.size()) {
          failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        for (size_t r = 0; r < expected.size(); ++r) {
          if (out.results[r].id != expected[r].id ||
              out.results[r].dissim != expected[r].dissim) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(frontend.completed(), 32);
  EXPECT_EQ(frontend.in_flight(), 0);
}

}  // namespace
}  // namespace mst

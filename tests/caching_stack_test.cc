// The full caching stack under one roof: page buffer → decoded-node cache →
// cross-query result cache. Every combination of NodeCache on/off ×
// ResultCache on/off must leave both query families byte-identical to their
// scan oracles — exact-period k-MST through the concurrent executor vs
// LinearScanKMst, and time-relaxed k-MST vs TimeRelaxedKMst (whose index
// traversal runs above the node cache but never touches the result cache).
// Every backend (3D R-tree, TB-tree, STR-tree) behind a paper-sized buffer,
// node cache off/on, must do the same for exact k-MST, with node-access
// counts independent of the node cache.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/linear_scan.h"
#include "src/core/mst_search.h"
#include "src/core/time_relaxed.h"
#include "src/exec/query_executor.h"
#include "src/gen/gstd.h"
#include "src/index/rtree3d.h"
#include "src/index/strtree.h"
#include "src/index/tbtree.h"
#include "src/io/index_io.h"
#include "src/util/random.h"

namespace mst {
namespace {

// (node cache enabled, result cache enabled)
class CachingStackTest
    : public ::testing::TestWithParam<std::tuple<bool, bool>> {
 protected:
  static void SetUpTestSuite() {
    GstdOptions opt;
    opt.num_objects = 48;
    opt.samples_per_object = 110;
    opt.seed = 4451;
    store_ = new TrajectoryStore(GenerateGstd(opt));
  }

  static void TearDownTestSuite() {
    delete store_;
    store_ = nullptr;
  }

  static const TrajectoryStore* store_;
};

const TrajectoryStore* CachingStackTest::store_ = nullptr;

TEST_P(CachingStackTest, ExactKMstMatchesLinearScanThroughExecutor) {
  const auto [node_cache_on, result_cache_on] = GetParam();
  TrajectoryIndex::Options idx_opt;
  idx_opt.node_cache_nodes = node_cache_on ? 4096 : 0;
  TBTree index(idx_opt);
  index.BuildFrom(*store_);
  ASSERT_EQ(index.node_cache().enabled(), node_cache_on);

  QueryExecutor::Options exec_opt;
  exec_opt.num_workers = 2;
  exec_opt.result_cache_entries = result_cache_on ? 1024 : 0;
  QueryExecutor executor(&index, store_, exec_opt);
  ASSERT_EQ(executor.result_cache().enabled(), result_cache_on);

  // Each query twice within the batch, and the whole batch twice. The two
  // in-batch copies may run at once on the two workers and both miss; the
  // second RunBatch starts only after the first published every
  // refinement, so an enabled result cache always serves it.
  std::vector<QueryRequest> requests;
  Rng rng(71);
  for (int i = 0; i < 6; ++i) {
    const Trajectory& q =
        store_->trajectories()[rng.UniformIndex(store_->trajectories().size())];
    MstOptions q_opt;
    q_opt.k = 4;
    q_opt.exclude_id = q.id();
    requests.emplace_back(q, q.Lifespan(), q_opt);
    requests.emplace_back(q, q.Lifespan(), q_opt);
  }
  std::vector<QueryOutcome> outcomes = executor.RunBatch(requests);
  ASSERT_EQ(outcomes.size(), requests.size());
  const std::vector<QueryOutcome> repeats = executor.RunBatch(requests);
  ASSERT_EQ(repeats.size(), requests.size());
  outcomes.insert(outcomes.end(), repeats.begin(), repeats.end());

  for (size_t i = 0; i < outcomes.size(); ++i) {
    const QueryRequest& req = requests[i % requests.size()];
    const QueryOutcome& out = outcomes[i];
    ASSERT_FALSE(out.cancelled);
    const std::vector<MstResult> oracle =
        LinearScanKMst(*store_, req.query, req.period, req.options.k,
                       IntegrationPolicy::kExact, req.options.exclude_id);
    ASSERT_EQ(out.results.size(), oracle.size()) << "query " << i;
    for (size_t j = 0; j < oracle.size(); ++j) {
      EXPECT_EQ(out.results[j].id, oracle[j].id) << "query " << i;
      EXPECT_EQ(out.results[j].dissim, oracle[j].dissim) << "query " << i;
      EXPECT_EQ(out.results[j].error_bound, 0.0) << "query " << i;
    }
    // Disabled layers must stay completely silent.
    if (!node_cache_on) {
      EXPECT_EQ(out.stats.node_cache_hits, 0);
      EXPECT_EQ(out.stats.node_cache_misses, 0);
    }
    if (!result_cache_on) {
      EXPECT_EQ(out.stats.result_cache_hits, 0);
      EXPECT_EQ(out.stats.result_cache_misses, 0);
    } else {
      EXPECT_EQ(out.stats.result_cache_hits + out.stats.result_cache_misses,
                out.stats.exact_recomputations);
    }
  }
  if (result_cache_on) {
    EXPECT_GT(executor.result_cache().hits(), 0);
  }
}

TEST_P(CachingStackTest, TimeRelaxedMatchesScanOracleUnderEveryCacheConfig) {
  const auto [node_cache_on, result_cache_on] = GetParam();
  TrajectoryIndex::Options idx_opt;
  idx_opt.node_cache_nodes = node_cache_on ? 4096 : 0;
  TBTree index(idx_opt);
  index.BuildFrom(*store_);

  // A live result cache on the same index (fed by interleaved exact k-MST
  // queries) must not perturb the time-relaxed path, which bypasses it.
  ResultCache cache(result_cache_on ? 1024 : 0);
  const BFMstSearch kmst(&index, store_, &cache);

  Rng rng(73);
  for (int i = 0; i < 4; ++i) {
    const Trajectory& q =
        store_->trajectories()[rng.UniformIndex(store_->trajectories().size())];
    MstOptions q_opt;
    q_opt.k = 3;
    q_opt.exclude_id = q.id();
    (void)kmst.Search(q, q.Lifespan(), q_opt);

    const std::vector<TimeRelaxedMatch> scan =
        TimeRelaxedKMst(*store_, q, 3, q.id());
    TimeRelaxedSearchStats tr_cached_stats;
    const std::vector<TimeRelaxedMatch> indexed =
        TimeRelaxedIndexKMst(index, *store_, q, 3, q.id(),
                             /*coarse_steps=*/64, &tr_cached_stats);
    ASSERT_EQ(indexed.size(), scan.size());
    for (size_t j = 0; j < indexed.size(); ++j) {
      EXPECT_EQ(indexed[j].id, scan[j].id) << "rank " << j;
      EXPECT_EQ(indexed[j].dissim, scan[j].dissim) << "rank " << j;
      EXPECT_EQ(indexed[j].shift, scan[j].shift) << "rank " << j;
    }
    EXPECT_GT(tr_cached_stats.nodes_accessed, 0);
  }
}

// Node accesses of the time-relaxed traversal are cache-invariant, like the
// exact-period search's: pin it across the node-cache dimension directly.
TEST(CachingStackCrossCheckTest, TimeRelaxedNodeAccessesAreCacheInvariant) {
  GstdOptions opt;
  opt.num_objects = 32;
  opt.samples_per_object = 90;
  opt.seed = 4452;
  const TrajectoryStore store = GenerateGstd(opt);

  TBTree cached;
  cached.BuildFrom(store);
  TrajectoryIndex::Options no_cache_opt;
  no_cache_opt.node_cache_nodes = 0;
  TBTree uncached(no_cache_opt);
  uncached.BuildFrom(store);

  const Trajectory& q = store.trajectories()[5];
  for (int pass = 0; pass < 2; ++pass) {  // second pass hits the warm cache
    TimeRelaxedSearchStats with_cache;
    TimeRelaxedSearchStats without_cache;
    const auto a =
        TimeRelaxedIndexKMst(cached, store, q, 3, q.id(), 64, &with_cache);
    const auto b =
        TimeRelaxedIndexKMst(uncached, store, q, 3, q.id(), 64, &without_cache);
    ASSERT_EQ(a.size(), b.size());
    for (size_t j = 0; j < a.size(); ++j) {
      EXPECT_EQ(a[j].id, b[j].id);
      EXPECT_EQ(a[j].dissim, b[j].dissim);
    }
    EXPECT_EQ(with_cache.nodes_accessed, without_cache.nodes_accessed);
    EXPECT_EQ(with_cache.candidates_refined, without_cache.candidates_refined);
  }
}

// The paper stack — a paper-sized buffer and a small node cache, both
// evicting — must stay byte-identical to the plain default stack, on a
// freshly built tree and on the same tree reloaded from disk, while the
// buffer keeps no more frames resident than its page count.
TEST(CachingStackCrossCheckTest, PaperStackIsByteIdenticalOnReloadedFiles) {
  GstdOptions opt;
  opt.num_objects = 40;
  opt.samples_per_object = 100;
  opt.seed = 4453;
  const TrajectoryStore store = GenerateGstd(opt);

  TBTree plain;
  plain.BuildFrom(store);

  TrajectoryIndex::Options paper_opt;
  // Small cache so it actually evicts during the run.
  paper_opt.node_cache_nodes = 64;
  TBTree paper(paper_opt);
  paper.BuildFrom(store);
  paper.ConfigurePaperBuffer();

  const std::string path = ::testing::TempDir() + "/paper_stack.mst";
  ASSERT_TRUE(SaveIndex(paper, path));
  std::string error;
  const auto loaded = LoadIndex(path, paper_opt, &error);
  ASSERT_NE(loaded, nullptr) << error;
  loaded->ConfigurePaperBuffer();

  const BFMstSearch s_plain(&plain, &store);
  const BFMstSearch s_paper(&paper, &store);
  const BFMstSearch s_loaded(loaded.get(), &store);
  Rng rng(79);
  for (int i = 0; i < 12; ++i) {
    const Trajectory& q =
        store.trajectories()[rng.UniformIndex(store.trajectories().size())];
    MstOptions q_opt;
    q_opt.k = 4;
    q_opt.exclude_id = q.id();
    MstStats st_plain;
    MstStats st_paper;
    MstStats st_loaded;
    const auto a = s_plain.Search(q, q.Lifespan(), q_opt, &st_plain);
    const auto b = s_paper.Search(q, q.Lifespan(), q_opt, &st_paper);
    const auto c = s_loaded.Search(q, q.Lifespan(), q_opt, &st_loaded);
    ASSERT_EQ(b.size(), a.size());
    ASSERT_EQ(c.size(), a.size());
    for (size_t j = 0; j < a.size(); ++j) {
      EXPECT_EQ(b[j].id, a[j].id);
      EXPECT_EQ(b[j].dissim, a[j].dissim);
      EXPECT_EQ(c[j].id, a[j].id);
      EXPECT_EQ(c[j].dissim, a[j].dissim);
    }
    EXPECT_EQ(st_paper.nodes_accessed, st_plain.nodes_accessed);
    EXPECT_EQ(st_loaded.nodes_accessed, st_plain.nodes_accessed);
  }
  // One page per frame: the paper-sized buffer holds exactly its page
  // count once the queries have touched more pages than that.
  EXPECT_EQ(paper.buffer().resident_frames(), paper.buffer().capacity());
  EXPECT_EQ(loaded->buffer().resident_frames(), loaded->buffer().capacity());
  EXPECT_GT(paper.node_cache().hits(), 0);
}

// (node cache enabled, backend: 0 = 3D R-tree, 1 = TB-tree, 2 = STR-tree)
using BackendConfig = std::tuple<bool, int>;

class CachingStackFormatTest : public ::testing::TestWithParam<BackendConfig> {
 protected:
  static void SetUpTestSuite() {
    GstdOptions opt;
    opt.num_objects = 40;
    opt.samples_per_object = 90;
    opt.seed = 4454;
    store_ = new TrajectoryStore(GenerateGstd(opt));
  }

  static void TearDownTestSuite() {
    delete store_;
    store_ = nullptr;
  }

  static const TrajectoryStore* store_;
};

const TrajectoryStore* CachingStackFormatTest::store_ = nullptr;

// Test-name label of a BuildBackend backend number.
std::string BackendName(int backend) {
  switch (backend) {
    case 0:
      return "RTree";
    case 1:
      return "TBTree";
    default:
      return "STRTree";
  }
}

std::unique_ptr<TrajectoryIndex> BuildBackend(
    int backend, const TrajectoryIndex::Options& options,
    const TrajectoryStore& store) {
  std::unique_ptr<TrajectoryIndex> index;
  switch (backend) {
    case 0:
      index = std::make_unique<RTree3D>(options);
      break;
    case 1:
      index = std::make_unique<TBTree>(options);
      break;
    default:
      index = std::make_unique<STRTree>(options);
      break;
  }
  index->BuildFrom(store);
  index->ConfigurePaperBuffer();
  return index;
}

// Exact k-MST through the backend, behind a paper-sized buffer and (when
// on) a small node cache so both evict, must equal LinearScan bitwise; the
// tree shape and node accesses must equal the uncached stack's. Each query
// runs twice so the repeat reads warm caches. With the node cache off every
// leaf is decoded from its buffer frame on every read.
TEST_P(CachingStackFormatTest, KMstMatchesLinearScanOnEveryBackend) {
  const auto [node_cache_on, backend] = GetParam();
  TrajectoryIndex::Options opt;
  opt.node_cache_nodes = node_cache_on ? 32 : 0;
  TrajectoryIndex::Options baseline_opt;
  baseline_opt.node_cache_nodes = 0;

  const auto index = BuildBackend(backend, opt, *store_);
  const auto baseline = BuildBackend(backend, baseline_opt, *store_);
  ASSERT_EQ(index->NodeCount(), baseline->NodeCount()) << index->name();
  ASSERT_EQ(index->root(), baseline->root()) << index->name();
  const BFMstSearch search(index.get(), store_);
  const BFMstSearch base_search(baseline.get(), store_);

  Rng rng(83);
  for (int i = 0; i < 4; ++i) {
    const Trajectory& q = store_->trajectories()[rng.UniformIndex(
        store_->trajectories().size())];
    MstOptions q_opt;
    q_opt.k = 4;
    q_opt.exclude_id = q.id();
    const std::vector<MstResult> oracle =
        LinearScanKMst(*store_, q, q.Lifespan(), q_opt.k,
                       IntegrationPolicy::kExact, q.id());
    MstStats base_stats;
    (void)base_search.Search(q, q.Lifespan(), q_opt, &base_stats);
    for (int pass = 0; pass < 2; ++pass) {
      MstStats stats;
      const auto got = search.Search(q, q.Lifespan(), q_opt, &stats);
      ASSERT_EQ(got.size(), oracle.size()) << index->name();
      for (size_t j = 0; j < oracle.size(); ++j) {
        EXPECT_EQ(got[j].id, oracle[j].id) << index->name() << " rank " << j;
        EXPECT_EQ(got[j].dissim, oracle[j].dissim)
            << index->name() << " rank " << j;
      }
      EXPECT_EQ(stats.nodes_accessed, base_stats.nodes_accessed)
          << index->name();
      EXPECT_EQ(stats.leaf_entries_seen, base_stats.leaf_entries_seen)
          << index->name();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PageFormatMatrix, CachingStackFormatTest,
    ::testing::Combine(::testing::Bool(), ::testing::Values(0, 1, 2)),
    [](const auto& info) {
      // Every file keeps v1 internal pages and v2 leaf pages.
      return std::string("V1Internal_V2Leaf_") +
             (std::get<0>(info.param) ? "NodeCacheOn_" : "NodeCacheOff_") +
             BackendName(std::get<1>(info.param));
    });

INSTANTIATE_TEST_SUITE_P(
    AllCacheConfigs, CachingStackTest,
    ::testing::Combine(::testing::Bool(), ::testing::Bool()),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) ? "NodeCacheOn"
                                                 : "NodeCacheOff") +
             (std::get<1>(info.param) ? "_ResultCacheOn" : "_ResultCacheOff");
    });

}  // namespace
}  // namespace mst

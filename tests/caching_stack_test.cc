// The full caching stack under one roof: buffer of decoded nodes →
// cross-query result cache. Every combination of an 8-page or 4096-page
// node cache × ResultCache on/off must leave both query families
// byte-identical to their scan oracles — exact-period k-MST through the
// concurrent executor vs LinearScanKMst, and time-relaxed k-MST vs
// TimeRelaxedKMst (whose index traversal runs above the node cache but never
// touches the result cache). Every backend (3D R-tree, TB-tree, STR-tree)
// behind an 8-page or 4096-page node cache must do the same for exact k-MST,
// with node-access counts independent of the cache size.

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

// (node cache pages, result cache enabled)
class CachingStackTest
    : public ::testing::TestWithParam<std::tuple<size_t, bool>> {
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
  const auto [cache_pages, result_cache_on] = GetParam();
  TrajectoryIndex::Options idx_opt;
  idx_opt.cache_pages = cache_pages;
  TBTree index(idx_opt);
  index.BuildFrom(*store_);
  ASSERT_EQ(index.node_cache().capacity(), cache_pages);

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
    // The node cache partitions the accesses; a disabled result cache stays
    // completely silent.
    EXPECT_EQ(out.stats.node_cache_hits + out.stats.node_cache_misses,
              out.stats.nodes_accessed);
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
  const auto [cache_pages, result_cache_on] = GetParam();
  TrajectoryIndex::Options idx_opt;
  idx_opt.cache_pages = cache_pages;
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
// exact-period search's: pin it across the cache-size dimension directly.
TEST(CachingStackCrossCheckTest, TimeRelaxedNodeAccessesAreCacheInvariant) {
  GstdOptions opt;
  opt.num_objects = 32;
  opt.samples_per_object = 90;
  opt.seed = 4452;
  const TrajectoryStore store = GenerateGstd(opt);

  TBTree cached;
  cached.BuildFrom(store);
  TrajectoryIndex::Options tiny_opt;
  tiny_opt.cache_pages = 8;
  TBTree uncached(tiny_opt);
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

// A small, evicting cache behind ConfigurePaperBuffer must stay
// byte-identical to the plain default stack, on a freshly built tree and on
// the same tree reloaded from disk, while the buffer keeps exactly its page
// count of frames resident.
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
  paper_opt.cache_pages = 16;
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
  // One page per frame: the buffer holds exactly its page count once the
  // queries have touched more pages than that, and it both hit and missed.
  const TrajectoryIndex* checked[] = {&paper, loaded.get()};
  for (const TrajectoryIndex* index : checked) {
    EXPECT_EQ(index->buffer().capacity(), 16u);
    EXPECT_EQ(index->buffer().resident_frames(), 16u);
    EXPECT_GT(index->buffer().misses(), 0);
    EXPECT_GT(index->buffer().logical_reads(), index->buffer().misses());
  }
}

// The decode-bound regime — TB-tree with eager completion, k = 50, queries
// that are 5 % slices of a data trajectory — at cache capacities from 8
// pages, where nearly every read decodes, to the 4096-page default: answers
// are bitwise equal to each other and to LinearScan, node accesses are
// equal, and every query's hits and misses add up to its node accesses.
TEST(CachingStackCrossCheckTest, EagerRegimeIsIdenticalAtEveryCapacity) {
  GstdOptions opt;
  opt.num_objects = 80;
  opt.samples_per_object = 100;
  opt.seed = 4455;
  const TrajectoryStore store = GenerateGstd(opt);
  std::vector<Trajectory> queries;
  Rng rng(89);
  for (int i = 0; i < 8; ++i) {
    const Trajectory& base =
        store.trajectories()[rng.UniformIndex(store.trajectories().size())];
    const double span = base.end_time() - base.start_time();
    const double begin = base.start_time() + rng.Uniform(0.0, 0.95 * span);
    queries.emplace_back(
        1 << 29, base.Slice({begin, begin + 0.05 * span})->samples());
  }
  MstOptions q_opt;
  q_opt.k = 50;
  q_opt.use_eager_completion = true;

  std::vector<std::vector<MstResult>> first;
  std::vector<int64_t> first_accesses;
  for (const size_t cache_pages : {size_t{8}, size_t{64}, size_t{4096}}) {
    TrajectoryIndex::Options idx_opt;
    idx_opt.cache_pages = cache_pages;
    TBTree index(idx_opt);
    index.BuildFrom(store);
    index.ConfigurePaperBuffer();
    const BFMstSearch search(&index, &store);
    for (int pass = 0; pass < 2; ++pass) {  // cold, then warm
      for (size_t i = 0; i < queries.size(); ++i) {
        const Trajectory& q = queries[i];
        MstStats stats;
        const std::vector<MstResult> got =
            search.Search(q, q.Lifespan(), q_opt, &stats);
        EXPECT_EQ(stats.node_cache_hits + stats.node_cache_misses,
                  stats.nodes_accessed)
            << cache_pages << " pages, query " << i;
        if (first.size() < queries.size()) {
          const std::vector<MstResult> oracle =
              LinearScanKMst(store, q, q.Lifespan(), q_opt.k,
                             IntegrationPolicy::kExact);
          ASSERT_EQ(oracle.size(), static_cast<size_t>(q_opt.k));
          ASSERT_EQ(got.size(), oracle.size()) << "query " << i;
          for (size_t j = 0; j < oracle.size(); ++j) {
            EXPECT_EQ(got[j].id, oracle[j].id) << "query " << i;
            EXPECT_EQ(got[j].dissim, oracle[j].dissim) << "query " << i;
          }
          first.push_back(got);
          first_accesses.push_back(stats.nodes_accessed);
          continue;
        }
        ASSERT_EQ(got.size(), first[i].size());
        for (size_t j = 0; j < got.size(); ++j) {
          EXPECT_EQ(got[j].id, first[i][j].id)
              << cache_pages << " pages, query " << i;
          EXPECT_EQ(got[j].dissim, first[i][j].dissim)
              << cache_pages << " pages, query " << i;
          EXPECT_EQ(got[j].error_bound, first[i][j].error_bound)
              << cache_pages << " pages, query " << i;
        }
        EXPECT_EQ(stats.nodes_accessed, first_accesses[i])
            << cache_pages << " pages, query " << i;
      }
    }
    if (cache_pages == 8) {
      EXPECT_GT(index.buffer().misses(), 0);
    }
  }
}

// (node cache pages, backend: 0 = 3D R-tree, 1 = TB-tree, 2 = STR-tree)
using BackendConfig = std::tuple<size_t, int>;

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

// Exact k-MST through the backend, built and searched behind an 8-page
// cache (evicting dirty nodes during the build and decoding nearly every
// read) or the default 4096-page one, must equal LinearScan bitwise; the
// tree shape and node accesses must equal the default stack's. Each query
// runs twice so the repeat reads warm caches.
TEST_P(CachingStackFormatTest, KMstMatchesLinearScanOnEveryBackend) {
  const auto [cache_pages, backend] = GetParam();
  TrajectoryIndex::Options opt;
  opt.cache_pages = cache_pages;
  const TrajectoryIndex::Options baseline_opt;

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
    ::testing::Combine(::testing::Values(size_t{8}, size_t{4096}),
                       ::testing::Values(0, 1, 2)),
    [](const auto& info) {
      // Every file keeps v1 internal pages and v2 leaf pages.
      return std::string("V1Internal_V2Leaf_NodeCache") +
             std::to_string(std::get<0>(info.param)) + "_" +
             BackendName(std::get<1>(info.param));
    });

INSTANTIATE_TEST_SUITE_P(
    AllCacheConfigs, CachingStackTest,
    ::testing::Combine(::testing::Values(size_t{8}, size_t{4096}),
                       ::testing::Bool()),
    [](const auto& info) {
      // 4096 pages hold every page of these indexes, so that node cache is
      // effectively on; 8 pages evict on almost every read.
      return std::string(std::get<0>(info.param) == 8 ? "NodeCacheTiny"
                                                      : "NodeCacheOn") +
             (std::get<1>(info.param) ? "_ResultCacheOn" : "_ResultCacheOff");
    });

}  // namespace
}  // namespace mst

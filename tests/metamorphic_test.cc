// Metamorphic test tier: properties that must hold between related runs of
// the search, across every index family and heuristic configuration.
//
//  - With exact post-processing, BFMSTSearch over any index equals the
//    LinearScan ground truth (ids and dissimilarities).
//  - Without it, every returned dissimilarity brackets the truth within its
//    Lemma-1 error bound.
//  - Growing k only extends the result list; the first k entries never
//    change (exact mode).
//  - Results are sorted, duplicate-free, and respect exclude_id.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/linear_scan.h"
#include "src/core/mst_search.h"
#include "src/exec/query_executor.h"
#include "src/gen/gstd.h"
#include "src/index/rtree3d.h"
#include "src/index/strtree.h"
#include "src/index/tbtree.h"
#include "src/ingest/ingest_engine.h"
#include "src/ingest/wal_storage.h"
#include "src/util/random.h"

namespace mst {
namespace {

enum class IndexKind { kRTree3D, kRTree3DRStar, kRTree3DBulk, kTBTree,
                       kSTRTree };

const char* KindName(IndexKind kind) {
  switch (kind) {
    case IndexKind::kRTree3D: return "RTree3D";
    case IndexKind::kRTree3DRStar: return "RTree3DRStar";
    case IndexKind::kRTree3DBulk: return "RTree3DBulk";
    case IndexKind::kTBTree: return "TBTree";
    case IndexKind::kSTRTree: return "STRTree";
  }
  return "?";
}

// Fixture: one GSTD dataset, indexed four ways.
class MetamorphicTest
    : public ::testing::TestWithParam<std::tuple<IndexKind, uint64_t>> {
 protected:
  static void SetUpTestSuite() {
    GstdOptions opt;
    opt.num_objects = 60;
    opt.samples_per_object = 90;
    opt.timestamp_jitter = 0.5;
    opt.seed = 11;
    store_ = new TrajectoryStore(GenerateGstd(opt));
    rtree_ = new RTree3D();
    rtree_->BuildFrom(*store_);
    TrajectoryIndex::Options rstar_opt;
    rstar_opt.rtree_variant = RTreeVariant::kRStar;
    rtree_rstar_ = new RTree3D(rstar_opt);
    rtree_rstar_->BuildFrom(*store_);
    rtree_bulk_ = new RTree3D();
    rtree_bulk_->BulkLoad(*store_);
    tbtree_ = new TBTree();
    tbtree_->BuildFrom(*store_);
    strtree_ = new STRTree();
    strtree_->BuildFrom(*store_);
  }

  static void TearDownTestSuite() {
    delete store_;
    delete rtree_;
    delete rtree_rstar_;
    delete rtree_bulk_;
    delete tbtree_;
    delete strtree_;
    store_ = nullptr;
    rtree_ = nullptr;
    rtree_rstar_ = nullptr;
    rtree_bulk_ = nullptr;
    tbtree_ = nullptr;
    strtree_ = nullptr;
  }

  const TrajectoryIndex& index() const {
    switch (std::get<0>(GetParam())) {
      case IndexKind::kRTree3D: return *rtree_;
      case IndexKind::kRTree3DRStar: return *rtree_rstar_;
      case IndexKind::kRTree3DBulk: return *rtree_bulk_;
      case IndexKind::kTBTree: return *tbtree_;
      case IndexKind::kSTRTree: return *strtree_;
    }
    return *rtree_;
  }
  uint64_t seed() const { return std::get<1>(GetParam()); }

  static Trajectory MakeQuery(Rng* rng, double length_fraction) {
    const Trajectory& base =
        store_->trajectories()[rng->UniformIndex(store_->size())];
    const double span = base.end_time() - base.start_time();
    const double len = span * length_fraction;
    const double begin = base.start_time() + rng->Uniform(0.0, span - len);
    const Trajectory slice = *base.Slice({begin, begin + len});
    std::vector<TPoint> samples = slice.samples();
    for (TPoint& s : samples) {
      s.p.x += rng->Uniform(-0.05, 0.05);
      s.p.y += rng->Uniform(-0.05, 0.05);
    }
    return Trajectory(424242, std::move(samples));
  }

  static TrajectoryStore* store_;
  static RTree3D* rtree_;
  static RTree3D* rtree_rstar_;
  static RTree3D* rtree_bulk_;
  static TBTree* tbtree_;
  static STRTree* strtree_;
};

TrajectoryStore* MetamorphicTest::store_ = nullptr;
RTree3D* MetamorphicTest::rtree_ = nullptr;
RTree3D* MetamorphicTest::rtree_rstar_ = nullptr;
RTree3D* MetamorphicTest::rtree_bulk_ = nullptr;
TBTree* MetamorphicTest::tbtree_ = nullptr;
STRTree* MetamorphicTest::strtree_ = nullptr;

TEST_P(MetamorphicTest, ExactModeMatchesLinearScanForAllHeuristics) {
  Rng rng(seed());
  const BFMstSearch searcher(&index(), store_);
  for (int trial = 0; trial < 4; ++trial) {
    const Trajectory query = MakeQuery(&rng, 0.25);
    const TimeInterval period = query.Lifespan();
    const int k = 1 + trial * 2;
    const std::vector<MstResult> want =
        LinearScanKMst(*store_, query, period, k, IntegrationPolicy::kExact);

    for (const bool h1 : {false, true}) {
      for (const bool h2 : {false, true}) {
        MstOptions options;
        options.k = k;
        options.use_heuristic1 = h1;
        options.use_heuristic2 = h2;
        options.exact_postprocess = true;
        const std::vector<MstResult> got =
            searcher.Search(query, period, options);
        ASSERT_EQ(got.size(), want.size())
            << KindName(std::get<0>(GetParam())) << " h1=" << h1
            << " h2=" << h2;
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].id, want[i].id)
              << "rank " << i << " h1=" << h1 << " h2=" << h2;
          EXPECT_NEAR(got[i].dissim, want[i].dissim,
                      1e-6 * std::max(1.0, want[i].dissim));
          EXPECT_EQ(got[i].error_bound, 0.0);
        }
      }
    }
  }
}

TEST_P(MetamorphicTest, ApproximateDissimBracketsTruthWithinLemma1Bound) {
  Rng rng(seed() + 1);
  const BFMstSearch searcher(&index(), store_);
  for (int trial = 0; trial < 4; ++trial) {
    const Trajectory query = MakeQuery(&rng, 0.3);
    const TimeInterval period = query.Lifespan();

    // Exact truth for every eligible trajectory.
    const std::vector<MstResult> truth_list =
        LinearScanKMst(*store_, query, period,
                       static_cast<int>(store_->size()),
                       IntegrationPolicy::kExact);
    std::map<TrajectoryId, double> truth;
    for (const MstResult& r : truth_list) truth[r.id] = r.dissim;

    MstOptions options;
    options.k = 5;
    options.exact_postprocess = false;  // keep the trapezoid approximation
    const std::vector<MstResult> got = searcher.Search(query, period, options);
    ASSERT_FALSE(got.empty());
    for (const MstResult& r : got) {
      ASSERT_TRUE(truth.count(r.id)) << "id " << r.id;
      const double exact = truth[r.id];
      const double slack = 1e-9 * std::max(1.0, std::abs(exact));
      // Lemma 1: the reported value overestimates, by at most error_bound.
      EXPECT_LE(exact, r.dissim + slack) << "id " << r.id;
      EXPECT_GE(exact, r.dissim - r.error_bound - slack) << "id " << r.id;
    }
  }
}

TEST_P(MetamorphicTest, GrowingKExtendsButNeverReordersThePrefix) {
  Rng rng(seed() + 2);
  const BFMstSearch searcher(&index(), store_);
  for (int trial = 0; trial < 3; ++trial) {
    const Trajectory query = MakeQuery(&rng, 0.25);
    const TimeInterval period = query.Lifespan();

    MstOptions small;
    small.k = 3;
    MstOptions large;
    large.k = 8;
    const std::vector<MstResult> few = searcher.Search(query, period, small);
    const std::vector<MstResult> many = searcher.Search(query, period, large);
    ASSERT_LE(few.size(), many.size());
    for (size_t i = 0; i < few.size(); ++i) {
      EXPECT_EQ(few[i].id, many[i].id) << "rank " << i;
      EXPECT_NEAR(few[i].dissim, many[i].dissim,
                  1e-9 * std::max(1.0, many[i].dissim));
    }
  }
}

TEST_P(MetamorphicTest, ResultsSortedUniqueAndExclusionRespected) {
  Rng rng(seed() + 3);
  const BFMstSearch searcher(&index(), store_);
  const Trajectory query = MakeQuery(&rng, 0.25);
  const TimeInterval period = query.Lifespan();

  MstOptions options;
  options.k = 6;
  std::vector<MstResult> got = searcher.Search(query, period, options);
  ASSERT_GE(got.size(), 2u);
  for (size_t i = 1; i < got.size(); ++i) {
    EXPECT_LE(got[i - 1].dissim, got[i].dissim) << "rank " << i;
    for (size_t j = 0; j < i; ++j) {
      EXPECT_NE(got[i].id, got[j].id);
    }
  }

  // Re-run excluding the winner: it disappears, the rest shift up.
  const TrajectoryId winner = got[0].id;
  options.exclude_id = winner;
  const std::vector<MstResult> without =
      searcher.Search(query, period, options);
  ASSERT_FALSE(without.empty());
  for (const MstResult& r : without) EXPECT_NE(r.id, winner);
  EXPECT_EQ(without[0].id, got[1].id);
}

// R* equivalence sweep: the construction variant changes the tree shape and
// nothing else. With exact post-processing the answers are a pure function
// of the trajectory set, so a quadratic-built and an R*-built R-tree must
// return bitwise-identical (id, dissim, error_bound) lists — under every
// traversal policy, behind an 8-page or a 4096-page node buffer — and both
// must agree with the LinearScan ground truth on ids and ranks.
TEST(RStarEquivalenceTest, BitwiseEqualAcrossPoliciesAndCaches) {
  GstdOptions opt;
  opt.num_objects = 50;
  opt.samples_per_object = 80;
  opt.timestamp_jitter = 0.5;
  opt.seed = 37;
  const TrajectoryStore store(GenerateGstd(opt));

  for (const size_t cache_pages : {size_t{8}, size_t{4096}}) {
    TrajectoryIndex::Options quad_opt;
    quad_opt.cache_pages = cache_pages;
    RTree3D quad(quad_opt);
    quad.BuildFrom(store);

    TrajectoryIndex::Options rstar_opt = quad_opt;
    rstar_opt.rtree_variant = RTreeVariant::kRStar;
    RTree3D rstar(rstar_opt);
    rstar.BuildFrom(store);

    const BFMstSearch quad_search(&quad, &store);
    const BFMstSearch rstar_search(&rstar, &store);
    Rng rng(39);
    for (int trial = 0; trial < 4; ++trial) {
      const Trajectory& base =
          store.trajectories()[rng.UniformIndex(store.size())];
      const double span = base.end_time() - base.start_time();
      const double begin = base.start_time() + rng.Uniform(0.0, 0.7 * span);
      const Trajectory query(515151,
                             base.Slice({begin, begin + 0.25 * span})->samples());
      const TimeInterval period = query.Lifespan();

      for (const IntegrationPolicy policy :
           {IntegrationPolicy::kTrapezoid, IntegrationPolicy::kExact,
            IntegrationPolicy::kAdaptive}) {
        MstOptions options;
        options.k = 7;
        options.policy = policy;
        options.exact_postprocess = true;
        options.exclude_id = base.id();
        const std::vector<MstResult> want =
            quad_search.Search(query, period, options);
        const std::vector<MstResult> got =
            rstar_search.Search(query, period, options);
        ASSERT_EQ(got.size(), want.size())
            << "policy=" << static_cast<int>(policy)
            << " cache=" << cache_pages << " trial=" << trial;
        for (size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(got[i].id, want[i].id) << "rank " << i;
          EXPECT_EQ(got[i].dissim, want[i].dissim) << "rank " << i;
          EXPECT_EQ(got[i].error_bound, want[i].error_bound) << "rank " << i;
        }

        const std::vector<MstResult> truth = LinearScanKMst(
            store, query, period, options.k, IntegrationPolicy::kExact,
            base.id());
        ASSERT_EQ(want.size(), truth.size());
        for (size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(want[i].id, truth[i].id) << "rank " << i;
        }
      }
    }
  }
}

// Ingest metamorphic property: however appends and merges interleave, the
// engine's answers equal a fresh STR bulk-load of the final trajectory set
// — under every traversal policy, with the result cache on or off, and with
// node-access counts identical cache on vs cache off.
class IngestMetamorphicTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IngestMetamorphicTest, InterleavedAppendsAndMergesMatchFreshBulkLoad) {
  Rng rng(GetParam());

  // Random schedule: interleaved sample appends for 16 random-walk
  // trajectories, with merges sprinkled between batches.
  MemWalStorageSet storage;
  IngestEngine engine(&storage);
  constexpr int kIds = 16;
  double last_t[kIds] = {};
  Vec2 pos[kIds];
  for (int i = 0; i < kIds; ++i) {
    pos[i] = {rng.Uniform(0.0, 10.0), rng.Uniform(0.0, 10.0)};
  }
  int merges = 0;
  for (int b = 0; b < 120; ++b) {
    std::vector<WalRecord> batch;
    const int n = 1 + static_cast<int>(rng.UniformIndex(3));
    for (int r = 0; r < n; ++r) {
      const int id = static_cast<int>(rng.UniformIndex(kIds));
      last_t[id] += rng.Uniform(0.1, 0.8);
      pos[id].x += rng.Uniform(-0.4, 0.4);
      pos[id].y += rng.Uniform(-0.4, 0.4);
      batch.push_back({id + 1, last_t[id], pos[id].x, pos[id].y});
    }
    ASSERT_TRUE(engine.Append(batch));
    if (rng.Uniform(0.0, 1.0) < 0.15) {
      engine.Merge();
      ++merges;
    }
  }
  ASSERT_GT(merges, 0) << "schedule never merged; weaken the dice?";

  // Fresh-bulk-load oracle over the final set.
  const TrajectoryStore store = engine.MaterializeStore();
  RTree3D oracle_tree{TrajectoryIndex::Options()};
  oracle_tree.BulkLoad(store);
  const BFMstSearch oracle(&oracle_tree, &store);

  std::vector<Trajectory> queries;
  for (int q = 0; q < 3; ++q) {
    size_t at = rng.UniformIndex(store.size());
    while (store.trajectories()[at].size() < 4) at = (at + 1) % store.size();
    const Trajectory& base = store.trajectories()[at];
    const double span = base.end_time() - base.start_time();
    const TimeInterval window{base.start_time() + 0.2 * span,
                              base.start_time() + 0.7 * span};
    queries.emplace_back(660000 + q, base.Slice(window)->samples());
  }

  for (const IntegrationPolicy policy :
       {IntegrationPolicy::kTrapezoid, IntegrationPolicy::kExact,
        IntegrationPolicy::kAdaptive}) {
    std::vector<QueryRequest> requests;
    for (const Trajectory& query : queries) {
      MstOptions options;
      options.k = 5;
      options.policy = policy;
      options.exact_postprocess = true;
      requests.emplace_back(query, query.Lifespan(), options);
    }
    std::vector<std::vector<QueryOutcome>> runs;
    for (const size_t cache_entries : {size_t{0}, size_t{1} << 12}) {
      QueryExecutor::Options exec_options;
      exec_options.num_workers = 2;
      exec_options.result_cache_entries = cache_entries;
      QueryExecutor executor(engine.ViewProvider(), exec_options);
      runs.push_back(executor.RunBatch(requests));
      const auto& outcomes = runs.back();
      ASSERT_EQ(outcomes.size(), requests.size());
      for (size_t q = 0; q < requests.size(); ++q) {
        const auto want = oracle.Search(requests[q].query, requests[q].period,
                                        requests[q].options);
        ASSERT_EQ(outcomes[q].results.size(), want.size())
            << "policy=" << static_cast<int>(policy) << " q=" << q
            << " cache=" << cache_entries;
        for (size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(outcomes[q].results[i].id, want[i].id);
          EXPECT_EQ(outcomes[q].results[i].dissim, want[i].dissim);
          EXPECT_EQ(outcomes[q].results[i].error_bound, 0.0);
        }
      }
    }
    // Cache on/off must not change what the traversal reads.
    for (size_t q = 0; q < requests.size(); ++q) {
      EXPECT_EQ(runs[0][q].stats.nodes_accessed, runs[1][q].stats.nodes_accessed)
          << "policy=" << static_cast<int>(policy) << " q=" << q;
      EXPECT_EQ(runs[0][q].stats.exact_recomputations,
                runs[1][q].stats.exact_recomputations);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Schedules, IngestMetamorphicTest,
                         ::testing::Values(301u, 302u, 303u),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

INSTANTIATE_TEST_SUITE_P(
    AllIndexes, MetamorphicTest,
    ::testing::Combine(::testing::Values(IndexKind::kRTree3D,
                                         IndexKind::kRTree3DRStar,
                                         IndexKind::kRTree3DBulk,
                                         IndexKind::kTBTree,
                                         IndexKind::kSTRTree),
                       ::testing::Values(17u, 23u)),
    [](const auto& info) {
      return std::string(KindName(std::get<0>(info.param))) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace mst

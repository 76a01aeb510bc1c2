// Randomized end-to-end stress sweeps (parameterized over seeds): the
// whole pipeline — generator → all three indexes → BFMST with the paper's
// default configuration — must agree with the exact linear scan on every
// seed, period, and k, including datasets with heterogeneous lifespans.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/core/linear_scan.h"
#include "src/core/mst_search.h"
#include "src/gen/gstd.h"
#include "src/index/rtree3d.h"
#include "src/index/strtree.h"
#include "src/index/tbtree.h"
#include "src/mstsearch.h"
#include "src/util/random.h"
#include "tests/test_util.h"

namespace mst {
namespace {

// A messy dataset: full-window objects plus short-lived ones with irregular
// sampling (the latter are ineligible for most query periods and must be
// filtered, not crash anything).
TrajectoryStore MessyStore(uint64_t seed) {
  GstdOptions opt;
  opt.num_objects = 20;
  opt.samples_per_object = 60;
  opt.timestamp_jitter = 0.6;
  opt.seed = seed;
  TrajectoryStore store = GenerateGstd(opt);
  Rng rng(seed ^ 0xabcdefULL);
  for (int i = 0; i < 6; ++i) {
    const double begin = rng.Uniform(0.0, 0.7);
    const double end = begin + rng.Uniform(0.05, 0.25);
    store.Add(testing_util::RandomIrregularTrajectory(
        &rng, 500 + i, 12, begin, end, 1.0));
  }
  return store;
}

class StressTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StressTest, AllEnginesAgreeWithScanOnMessyData) {
  const uint64_t seed = GetParam();
  const TrajectoryStore store = MessyStore(seed);

  RTree3D rtree;
  rtree.BuildFrom(store);
  rtree.ConfigurePaperBuffer();
  TBTree tbtree;
  tbtree.BuildFrom(store);
  tbtree.ConfigurePaperBuffer();
  STRTree strtree;
  strtree.BuildFrom(store);
  strtree.ConfigurePaperBuffer();
  rtree.CheckInvariants();
  tbtree.CheckInvariants();
  strtree.CheckInvariants();
  tbtree.CheckTBInvariants();

  const TrajectoryIndex* indexes[] = {&rtree, &tbtree, &strtree};

  Rng rng(seed * 31 + 7);
  for (int trial = 0; trial < 4; ++trial) {
    // Query: perturbed slice of a random full-window trajectory.
    const Trajectory& base =
        store.trajectories()[rng.UniformIndex(20)];  // full-window ones
    const double begin = rng.Uniform(0.0, 0.55);
    const double len = rng.Uniform(0.1, 0.4);
    const Trajectory slice = *base.Slice({begin, begin + len});
    std::vector<TPoint> samples = slice.samples();
    for (TPoint& s : samples) {
      s.p.x += rng.Uniform(-0.03, 0.03);
      s.p.y += rng.Uniform(-0.03, 0.03);
    }
    const Trajectory query(8888, std::move(samples));
    const TimeInterval period = query.Lifespan();
    const int k = static_cast<int>(rng.UniformInt(1, 5));

    const auto want =
        LinearScanKMst(store, query, period, k, IntegrationPolicy::kExact);
    for (const TrajectoryIndex* index : indexes) {
      const BFMstSearch searcher(index, &store);
      MstOptions options;
      options.k = k;
      const auto got = searcher.Search(query, period, options);
      ASSERT_EQ(got.size(), want.size())
          << index->name() << " seed " << seed;
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].id, want[i].id)
            << index->name() << " seed " << seed << " rank " << i;
        EXPECT_NEAR(got[i].dissim, want[i].dissim,
                    1e-6 * std::max(1.0, want[i].dissim));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StressTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           34u));

TEST(StressBufferTest, BuildsSurviveHeavyEviction) {
  // A cache of only 4 pages forces constant eviction and dirty write-back
  // mid-insertion; the resulting trees must be byte-for-byte as correct as
  // ones built with a roomy cache.
  GstdOptions opt;
  opt.num_objects = 12;
  opt.samples_per_object = 200;
  opt.seed = 271;
  const TrajectoryStore store = GenerateGstd(opt);
  TrajectoryIndex::Options tiny;
  tiny.cache_pages = 4;

  RTree3D rtree(tiny);
  rtree.BuildFrom(store);
  rtree.CheckInvariants();
  TBTree tbtree(tiny);
  tbtree.BuildFrom(store);
  tbtree.CheckInvariants();
  tbtree.CheckTBInvariants();
  STRTree strtree(tiny);
  strtree.BuildFrom(store);
  strtree.CheckInvariants();

  const Trajectory query(999, store.Get(3).Slice({0.3, 0.6})->samples());
  const auto want = LinearScanKMst(store, query, query.Lifespan(), 2,
                                   IntegrationPolicy::kExact);
  for (const TrajectoryIndex* index :
       {static_cast<const TrajectoryIndex*>(&rtree),
        static_cast<const TrajectoryIndex*>(&tbtree),
        static_cast<const TrajectoryIndex*>(&strtree)}) {
    const BFMstSearch searcher(index, &store);
    MstOptions options;
    options.k = 2;
    const auto got = searcher.Search(query, query.Lifespan(), options);
    ASSERT_EQ(got.size(), want.size()) << index->name();
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, want[i].id) << index->name();
    }
  }
}

TEST(StressBufferTest, BulkLoadedEqualsInsertedUnderSearch) {
  GstdOptions opt;
  opt.num_objects = 15;
  opt.samples_per_object = 120;
  opt.seed = 277;
  const TrajectoryStore store = GenerateGstd(opt);
  RTree3D inserted;
  inserted.BuildFrom(store);
  RTree3D packed;
  packed.BulkLoad(store);

  Rng rng(281);
  for (int trial = 0; trial < 5; ++trial) {
    const Trajectory& base =
        store.trajectories()[rng.UniformIndex(store.size())];
    const double begin = rng.Uniform(0.0, 0.6);
    const Trajectory query(999, base.Slice({begin, begin + 0.3})->samples());
    MstOptions options;
    options.k = 3;
    const auto a =
        BFMstSearch(&inserted, &store).Search(query, query.Lifespan(),
                                              options);
    const auto b =
        BFMstSearch(&packed, &store).Search(query, query.Lifespan(),
                                            options);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id);
      EXPECT_NEAR(a[i].dissim, b[i].dissim, 1e-9);
    }
  }
}

TEST(UmbrellaHeaderTest, CompilesAndExposesTheApi) {
  // The umbrella include is exercised by this TU; spot-check a symbol from
  // several modules.
  const Trajectory t(1, {{0.0, {0, 0}}, {1.0, {1, 1}}});
  EXPECT_DOUBLE_EQ(LDD(1.0, 0.0, 1.0), 1.0);
  EXPECT_EQ(TdTrCompress(t, 0.1).size(), 2u);
  EXPECT_GT(DtwDistance(t, t) + 1.0, 0.99);
}

}  // namespace
}  // namespace mst

#include <gtest/gtest.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/core/linear_scan.h"
#include "src/core/mst_search.h"
#include "src/gen/gstd.h"
#include "src/index/rtree3d.h"
#include "src/index/strtree.h"
#include "src/index/tbtree.h"
#include "src/util/random.h"
#include "tests/test_util.h"

namespace mst {
namespace {

enum class IndexKind { kRTree3D, kTBTree };

// Fixture: a shared synthetic dataset indexed both ways.
class MstSearchTest
    : public ::testing::TestWithParam<std::tuple<IndexKind, int>> {
 protected:
  static void SetUpTestSuite() {
    GstdOptions opt;
    // Well above the largest k, so every k leaves candidates outside the
    // k-buffer's top k and Heuristics 1 and 2 can prune.
    opt.num_objects = 200;
    opt.samples_per_object = 120;
    opt.timestamp_jitter = 0.5;  // heterogeneous sampling
    opt.seed = 31;
    store_ = new TrajectoryStore(GenerateGstd(opt));
    rtree_ = new RTree3D();
    rtree_->BuildFrom(*store_);
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
    return std::get<0>(GetParam()) == IndexKind::kRTree3D
               ? static_cast<const TrajectoryIndex&>(*rtree_)
               : static_cast<const TrajectoryIndex&>(*tbtree_);
  }
  int k() const { return std::get<1>(GetParam()); }

  static TrajectoryStore* store_;
  static RTree3D* rtree_;
  static TBTree* tbtree_;
};

TrajectoryStore* MstSearchTest::store_ = nullptr;
RTree3D* MstSearchTest::rtree_ = nullptr;
TBTree* MstSearchTest::tbtree_ = nullptr;

// A query built as a perturbed slice of a stored trajectory (the paper's
// query workload shape), excluded from matching itself.
Trajectory MakeQuery(const TrajectoryStore& store, Rng* rng,
                     double length_fraction, TrajectoryId query_id = 9999) {
  const size_t pick = rng->UniformIndex(store.size());
  const Trajectory& base = store.trajectories()[pick];
  const double span = base.end_time() - base.start_time();
  const double len = span * length_fraction;
  const double begin =
      base.start_time() + rng->Uniform(0.0, span - len);
  const Trajectory slice = *base.Slice({begin, begin + len});
  std::vector<TPoint> samples = slice.samples();
  for (TPoint& s : samples) {
    s.p.x += rng->Uniform(-0.02, 0.02);
    s.p.y += rng->Uniform(-0.02, 0.02);
  }
  return Trajectory(query_id, std::move(samples));
}

TEST_P(MstSearchTest, MatchesLinearScanGroundTruth) {
  Rng rng(101 + static_cast<uint64_t>(k()));
  const BFMstSearch searcher(&index(), store_);
  for (int trial = 0; trial < 12; ++trial) {
    const Trajectory query = MakeQuery(*store_, &rng, 0.25);
    const TimeInterval period = query.Lifespan();

    MstOptions options;
    options.k = k();
    MstStats stats;
    const std::vector<MstResult> got =
        searcher.Search(query, period, options, &stats);
    const std::vector<MstResult> want = LinearScanKMst(
        *store_, query, period, k(), IntegrationPolicy::kExact);

    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, want[i].id) << "rank " << i;
      EXPECT_NEAR(got[i].dissim, want[i].dissim,
                  1e-6 * std::max(1.0, want[i].dissim));
      EXPECT_EQ(got[i].error_bound, 0.0);  // exact post-processing
    }
    EXPECT_EQ(stats.total_nodes, index().NodeCount());
    EXPECT_LE(stats.nodes_accessed, stats.total_nodes);
  }
}

TEST_P(MstSearchTest, HeuristicsOffStillCorrect) {
  Rng rng(301 + static_cast<uint64_t>(k()));
  const BFMstSearch searcher(&index(), store_);
  const Trajectory query = MakeQuery(*store_, &rng, 0.2);
  const TimeInterval period = query.Lifespan();
  const std::vector<MstResult> want =
      LinearScanKMst(*store_, query, period, k(), IntegrationPolicy::kExact);

  for (const bool h1 : {false, true}) {
    for (const bool h2 : {false, true}) {
      MstOptions options;
      options.k = k();
      options.use_heuristic1 = h1;
      options.use_heuristic2 = h2;
      const std::vector<MstResult> got =
          searcher.Search(query, period, options);
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].id, want[i].id)
            << "h1=" << h1 << " h2=" << h2 << " rank " << i;
      }
    }
  }
}

TEST_P(MstSearchTest, ExactPolicySearchAlsoCorrect) {
  Rng rng(401 + static_cast<uint64_t>(k()));
  const BFMstSearch searcher(&index(), store_);
  const Trajectory query = MakeQuery(*store_, &rng, 0.3);
  const TimeInterval period = query.Lifespan();
  MstOptions options;
  options.k = k();
  options.policy = IntegrationPolicy::kExact;
  const std::vector<MstResult> got = searcher.Search(query, period, options);
  const std::vector<MstResult> want =
      LinearScanKMst(*store_, query, period, k(), IntegrationPolicy::kExact);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id);
  }
}

TEST_P(MstSearchTest, NonExactResultsBracketTruth) {
  Rng rng(501 + static_cast<uint64_t>(k()));
  const BFMstSearch searcher(&index(), store_);
  const Trajectory query = MakeQuery(*store_, &rng, 0.2);
  const TimeInterval period = query.Lifespan();
  MstOptions options;
  options.k = k();
  options.exact_postprocess = false;
  const std::vector<MstResult> got = searcher.Search(query, period, options);
  for (const MstResult& r : got) {
    const double truth =
        ComputeDissim(query, store_->Get(r.id), period,
                      IntegrationPolicy::kExact)
            .value;
    EXPECT_LE(truth, r.dissim + 1e-9);
    EXPECT_GE(truth, r.dissim - r.error_bound - 1e-9);
  }
}

TEST_P(MstSearchTest, PrunesSubstantially) {
  Rng rng(601);
  const BFMstSearch searcher(&index(), store_);
  const Trajectory query = MakeQuery(*store_, &rng, 0.1);
  MstOptions options;
  options.k = k();
  MstStats stats;
  searcher.Search(query, query.Lifespan(), options, &stats);
  // The headline claim: large parts of the index are never touched. The
  // dataset here is small, so require a modest but real pruning level.
  EXPECT_GT(stats.PruningPower(), 0.3);
  EXPECT_TRUE(stats.terminated_by_heuristic2);
}

INSTANTIATE_TEST_SUITE_P(
    Engines, MstSearchTest,
    ::testing::Combine(::testing::Values(IndexKind::kRTree3D,
                                         IndexKind::kTBTree),
                       ::testing::Values(1, 3, 10, 50)),
    [](const ::testing::TestParamInfo<std::tuple<IndexKind, int>>& info) {
      const char* tree = std::get<0>(info.param) == IndexKind::kRTree3D
                             ? "RTree3D"
                             : "TBTree";
      return std::string(tree) + "_k" + std::to_string(std::get<1>(info.param));
    });

TEST_P(MstSearchTest, EagerCompletionPreservesResults) {
  Rng rng(701 + static_cast<uint64_t>(k()));
  const BFMstSearch searcher(&index(), store_);
  for (int trial = 0; trial < 4; ++trial) {
    const Trajectory query = MakeQuery(*store_, &rng, 0.4);
    MstOptions plain;
    plain.k = k();
    MstOptions eager = plain;
    eager.use_eager_completion = true;
    MstStats eager_stats;
    const auto a = searcher.Search(query, query.Lifespan(), plain);
    const auto b =
        searcher.Search(query, query.Lifespan(), eager, &eager_stats);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id) << "rank " << i;
      EXPECT_NEAR(a[i].dissim, b[i].dissim, 1e-9);
    }
    if (index().SupportsTrajectoryFetch()) {
      EXPECT_GT(eager_stats.eager_completions, 0);
    } else {
      EXPECT_EQ(eager_stats.eager_completions, 0);
    }
  }
}

TEST(MstSearchEdgeTest, EmptyIndexReturnsNothing) {
  TrajectoryStore store;
  RTree3D tree;
  const BFMstSearch searcher(&tree, &store);
  const Trajectory query(1, {{0.0, {0, 0}}, {1.0, {1, 1}}});
  EXPECT_TRUE(searcher.Search(query, {0.0, 1.0}).empty());
}

TEST(MstSearchEdgeTest, ExcludeIdSkipsSelf) {
  GstdOptions opt;
  opt.num_objects = 10;
  opt.samples_per_object = 50;
  opt.seed = 33;
  const TrajectoryStore store = GenerateGstd(opt);
  RTree3D tree;
  tree.BuildFrom(store);
  const BFMstSearch searcher(&tree, &store);

  // Query with a stored trajectory itself: without exclusion it must find
  // itself at dissim 0; with exclusion it must not appear.
  const Trajectory& self = store.trajectories()[3];
  MstOptions options;
  options.k = 1;
  auto got = searcher.Search(self, self.Lifespan(), options);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].id, self.id());
  EXPECT_NEAR(got[0].dissim, 0.0, 1e-9);

  options.exclude_id = self.id();
  got = searcher.Search(self, self.Lifespan(), options);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_NE(got[0].id, self.id());
}

TEST(MstSearchEdgeTest, ShortLivedTrajectoriesAreIneligible) {
  GstdOptions opt;
  opt.num_objects = 8;
  opt.samples_per_object = 40;
  opt.seed = 35;
  TrajectoryStore store = GenerateGstd(opt);
  // One extra trajectory that only exists in the first half of the window.
  store.Add(Trajectory(
      777, {{0.0, {0.5, 0.5}}, {0.2, {0.55, 0.5}}, {0.45, {0.6, 0.5}}}));
  RTree3D tree;
  tree.BuildFrom(store);
  const BFMstSearch searcher(&tree, &store);

  Rng rng(103);
  const Trajectory& base = store.trajectories()[0];
  const Trajectory query(9999, base.samples());
  MstStats stats;
  MstOptions options;
  options.k = static_cast<int>(store.size());
  const auto got = searcher.Search(query, {0.0, 1.0}, options, &stats);
  for (const MstResult& r : got) {
    EXPECT_NE(r.id, 777);
  }
  EXPECT_GE(stats.candidates_ineligible, 0);
}

TEST(MstSearchEdgeTest, KLargerThanDatasetReturnsAll) {
  GstdOptions opt;
  opt.num_objects = 6;
  opt.samples_per_object = 30;
  opt.seed = 37;
  const TrajectoryStore store = GenerateGstd(opt);
  RTree3D tree;
  tree.BuildFrom(store);
  const BFMstSearch searcher(&tree, &store);
  const Trajectory query(9999, store.trajectories()[0].samples());
  MstOptions options;
  options.k = 50;
  const auto got = searcher.Search(query, {0.0, 1.0}, options);
  EXPECT_EQ(got.size(), store.size());
  for (size_t i = 1; i < got.size(); ++i) {
    EXPECT_LE(got[i - 1].dissim, got[i].dissim);
  }
}

TEST(MstSearchEdgeTest, SubPeriodQueriesWork) {
  GstdOptions opt;
  opt.num_objects = 12;
  opt.samples_per_object = 60;
  opt.seed = 39;
  const TrajectoryStore store = GenerateGstd(opt);
  TBTree tree;
  tree.BuildFrom(store);
  const BFMstSearch searcher(&tree, &store);
  const Trajectory query(9999, store.trajectories()[1].samples());
  const TimeInterval period{0.25, 0.5};
  const auto got = searcher.Search(query, period, MstOptions());
  const auto want =
      LinearScanKMst(store, query, period, 1, IntegrationPolicy::kExact);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].id, want[0].id);
  EXPECT_NEAR(got[0].dissim, want[0].dissim, 1e-9);
}

TEST(MstSearchEdgeTest, PeriodOnSampleTimesMatchesLinearScanOnEveryBackend) {
  // Regular sampling (no jitter) puts every trajectory on one time grid, so
  // a period ending on a sample time meets the next segment of every object
  // in a single instant: each leaf entry's window must clip to an empty or
  // zero-length piece there and contribute nothing.
  GstdOptions opt;
  opt.num_objects = 30;
  opt.samples_per_object = 80;
  opt.timestamp_jitter = 0.0;
  opt.seed = 47;
  const TrajectoryStore store = GenerateGstd(opt);
  RTree3D rtree;
  rtree.BuildFrom(store);
  TBTree tbtree;
  tbtree.BuildFrom(store);
  STRTree strtree;
  strtree.BuildFrom(store);

  // The query shares the grid: a stored trajectory's sample times with
  // perturbed positions.
  const Trajectory& base = store.trajectories()[7];
  std::vector<TPoint> samples = base.samples();
  Rng rng(4747);
  for (TPoint& p : samples) {
    p.p.x += rng.Uniform(-0.02, 0.02);
    p.p.y += rng.Uniform(-0.02, 0.02);
  }
  const Trajectory query(9999, std::move(samples));

  const std::pair<size_t, size_t> bounds[] = {
      {0, 79}, {10, 20}, {1, 2}, {40, 79}};
  const TrajectoryIndex* const indexes[] = {&rtree, &tbtree, &strtree};
  MstOptions options;
  options.k = 5;
  for (const auto& [lo, hi] : bounds) {
    const TimeInterval period{base.sample(lo).t, base.sample(hi).t};
    const std::vector<MstResult> want = LinearScanKMst(
        store, query, period, options.k, IntegrationPolicy::kExact);
    for (const TrajectoryIndex* index : indexes) {
      const BFMstSearch searcher(index, &store);
      const std::vector<MstResult> got =
          searcher.Search(query, period, options);
      ASSERT_EQ(got.size(), want.size()) << "samples " << lo << ".." << hi;
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].id, want[i].id)
            << "samples " << lo << ".." << hi << " rank " << i;
        EXPECT_EQ(got[i].dissim, want[i].dissim)
            << "samples " << lo << ".." << hi << " rank " << i;
      }
    }
  }
}

TEST(MstSearchEdgeDeathTest, RejectsBadArguments) {
  TrajectoryStore store;
  RTree3D tree;
  const BFMstSearch searcher(&tree, &store);
  const Trajectory query(1, {{0.0, {0, 0}}, {1.0, {1, 1}}});
  MstOptions options;
  options.k = 0;
  EXPECT_DEATH(searcher.Search(query, {0.0, 1.0}, options), "k must be");
  EXPECT_DEATH(searcher.Search(query, {0.0, 2.0}), "cover");
  EXPECT_DEATH(searcher.Search(query, {0.5, 0.5}), "duration");
}

}  // namespace
}  // namespace mst

namespace mst {
namespace {

// Traversal lock: per-query traversal counters and answers of seeded
// queries on the 3D R-tree, the TB-tree (with and without eager
// completion), the STR-tree and a main + delta forest, checked against a
// golden table. The best-first queue's pop order decides every counter, so
// the table pins that order: a change to how queue entries are keyed or
// evaluated must leave it unchanged. On a mismatch the test prints the
// observed table in source form; re-record it only for a change that is
// meant to alter the traversal.
struct TraversalRecord {
  const char* config;
  int query;
  int64_t nodes_accessed;
  int64_t leaf_entries_seen;
  int64_t heap_pushes;
  int64_t candidates_created;
  int64_t candidates_completed;
  int64_t candidates_rejected;
  int64_t candidates_ineligible;
  int64_t eager_completions;
  bool terminated_by_heuristic2;
  std::vector<TrajectoryId> ids;
  std::vector<double> dissims;
};

const std::vector<TraversalRecord>& GoldenTraversals() {
  static const std::vector<TraversalRecord> kGolden = {
      // Recorded with all-exact MINDIST keys, before lazy keys.
      {"rtree", 0, 6, 202, 28, 20, 2, 4, 0, 0, true,
       {62},
       {0.0010224373677871681}},
      {"rtree", 1, 61, 2452, 116, 70, 6, 34, 0, 0, true,
       {26, 11, 69, 6, 8},
       {0.002926219114069312, 0.029398527089063625, 0.042215307410129493,
        0.046465645870142305, 0.054091450208667381}},
      {"rtree", 2, 122, 5341, 136, 80, 16, 60, 0, 0, true,
       {6, 8, 26, 39, 43, 74, 41, 36, 24, 77, 66, 42},
       {0.0055578095126442651, 0.051530759838862648, 0.07996821107985215,
        0.090745471281077877, 0.091533676678880099, 0.10031467792839935,
        0.10116419421260568, 0.10990402739065257, 0.11494667709090622,
        0.11536499988991239, 0.11641846607675002, 0.12134722944450915}},
      {"rtree", 3, 10, 321, 40, 22, 1, 20, 0, 0, true,
       {76},
       {0.0011036401780152849}},
      {"rtree", 4, 64, 2608, 117, 74, 5, 44, 0, 0, true,
       {26, 11, 69, 6, 35},
       {0.0034132524237517597, 0.031159304413598873, 0.034616759305948694,
        0.045490166281542989, 0.049992975802434572}},
      {"rtree", 5, 121, 5217, 143, 80, 17, 56, 0, 0, true,
       {69, 35, 30, 4, 57, 60, 68, 26, 11, 73, 15, 66},
       {0.0053035062439547587, 0.063452342403361908, 0.096968735990582713,
        0.10197982445452373, 0.10655794316315835, 0.10858552590976628,
        0.11128601528321859, 0.11261702247811774, 0.11317808532681897,
        0.11950862675049419, 0.12018472148263575, 0.12174301294506487}},
      {"tbtree", 0, 22, 1368, 83, 19, 3, 16, 0, 0, true,
       {62},
       {0.0010224373677871681}},
      {"tbtree", 1, 65, 4464, 83, 62, 16, 46, 0, 0, true,
       {26, 11, 69, 6, 8},
       {0.002926219114069312, 0.029398527089063625, 0.042215307410129493,
        0.046465645870142305, 0.054091450208667381}},
      {"tbtree", 2, 134, 6010, 164, 80, 16, 58, 0, 0, true,
       {6, 8, 26, 39, 43, 74, 41, 36, 24, 77, 66, 42},
       {0.0055578095126442651, 0.051530759838862648, 0.07996821107985215,
        0.090745471281077877, 0.091533676678880099, 0.10031467792839935,
        0.10116419421260568, 0.10990402739065257, 0.11494667709090622,
        0.11536499988991239, 0.11641846607675002, 0.12134722944450915}},
      {"tbtree", 3, 63, 4248, 164, 48, 2, 45, 0, 0, true,
       {76},
       {0.0011036401780152849}},
      {"tbtree", 4, 110, 7632, 164, 66, 10, 45, 0, 0, true,
       {26, 11, 69, 6, 35},
       {0.0034132524237517597, 0.031159304413598873, 0.034616759305948694,
        0.045490166281542989, 0.049992975802434572}},
      {"tbtree", 5, 73, 5040, 83, 70, 25, 45, 0, 0, true,
       {69, 35, 30, 4, 57, 60, 68, 26, 11, 73, 15, 66},
       {0.0053035062439547587, 0.063452342403361908, 0.096968735990582713,
        0.10197982445452373, 0.10655794316315835, 0.10858552590976628,
        0.11128601528321859, 0.11261702247811774, 0.11317808532681897,
        0.11950862675049419, 0.12018472148263575, 0.12174301294506487}},
      {"tbtree_eager", 0, 73, 1623, 83, 19, 17, 2, 0, 17, true,
       {62},
       {0.0010224373677871681}},
      {"tbtree_eager", 1, 251, 6765, 83, 62, 62, 0, 0, 62, true,
       {26, 11, 69, 6, 8},
       {0.002926219114069312, 0.029398527089063625, 0.042215307410129493,
        0.046465645870142305, 0.054091450208667381}},
      {"tbtree_eager", 2, 345, 10506, 164, 79, 79, 0, 0, 79, true,
       {6, 8, 26, 39, 43, 74, 41, 36, 24, 77, 66, 42},
       {0.0055578095126442651, 0.051530759838862648, 0.07996821107985215,
        0.090745471281077877, 0.091533676678880099, 0.10031467792839935,
        0.10116419421260568, 0.10990402739065257, 0.11494667709090622,
        0.11536499988991239, 0.11641846607675002, 0.12134722944450915}},
      {"tbtree_eager", 3, 135, 4604, 164, 48, 24, 24, 0, 24, true,
       {76},
       {0.0011036401780152849}},
      {"tbtree_eager", 4, 308, 10074, 164, 66, 66, 0, 0, 66, true,
       {26, 11, 69, 6, 35},
       {0.0034132524237517597, 0.031159304413598873, 0.034616759305948694,
        0.045490166281542989, 0.049992975802434572}},
      {"tbtree_eager", 5, 283, 9206, 83, 70, 70, 0, 0, 70, true,
       {69, 35, 30, 4, 57, 60, 68, 26, 11, 73, 15, 66},
       {0.0053035062439547587, 0.063452342403361908, 0.096968735990582713,
        0.10197982445452373, 0.10655794316315835, 0.10858552590976628,
        0.11128601528321859, 0.11261702247811774, 0.11317808532681897,
        0.11950862675049419, 0.12018472148263575, 0.12174301294506487}},
      {"strtree", 0, 22, 1368, 83, 19, 2, 17, 0, 0, true,
       {62},
       {0.0010224373677871681}},
      {"strtree", 1, 67, 4464, 85, 62, 13, 49, 0, 0, true,
       {26, 11, 69, 6, 8},
       {0.002926219114069312, 0.029398527089063625, 0.042215307410129493,
        0.046465645870142305, 0.054091450208667381}},
      {"strtree", 2, 135, 6010, 165, 80, 16, 59, 0, 0, true,
       {6, 8, 26, 39, 43, 74, 41, 36, 24, 77, 66, 42},
       {0.0055578095126442651, 0.051530759838862648, 0.07996821107985215,
        0.090745471281077877, 0.091533676678880099, 0.10031467792839935,
        0.10116419421260568, 0.10990402739065257, 0.11494667709090622,
        0.11536499988991239, 0.11641846607675002, 0.12134722944450915}},
      {"strtree", 3, 64, 4248, 165, 48, 1, 45, 0, 0, true,
       {76},
       {0.0011036401780152849}},
      {"strtree", 4, 111, 7632, 165, 66, 9, 46, 0, 0, true,
       {26, 11, 69, 6, 35},
       {0.0034132524237517597, 0.031159304413598873, 0.034616759305948694,
        0.045490166281542989, 0.049992975802434572}},
      {"strtree", 5, 75, 5040, 85, 70, 27, 43, 0, 0, true,
       {69, 35, 30, 4, 57, 60, 68, 26, 11, 73, 15, 66},
       {0.0053035062439547587, 0.063452342403361908, 0.096968735990582713,
        0.10197982445452373, 0.10655794316315835, 0.10858552590976628,
        0.11128601528321859, 0.11261702247811774, 0.11317808532681897,
        0.11950862675049419, 0.12018472148263575, 0.12174301294506487}},
      {"forest", 0, 10, 504, 37, 36, 3, 17, 0, 0, true,
       {62},
       {0.0010224373677871681}},
      {"forest", 1, 49, 3096, 74, 80, 6, 59, 0, 0, true,
       {26, 11, 69, 6, 8},
       {0.002926219114069312, 0.029398527089063625, 0.042215307410129493,
        0.046465645870142305, 0.054091450208667381}},
      {"forest", 2, 82, 5560, 87, 80, 17, 62, 0, 0, true,
       {6, 8, 26, 39, 43, 74, 41, 36, 24, 77, 66, 42},
       {0.0055578095126442651, 0.051530759838862648, 0.07996821107985215,
        0.090745471281077877, 0.091533676678880099, 0.10031467792839935,
        0.10116419421260568, 0.10990402739065257, 0.11494667709090622,
        0.11536499988991239, 0.11641846607675002, 0.12134722944450915}},
      {"forest", 3, 12, 576, 38, 41, 2, 27, 0, 0, true,
       {76},
       {0.0011036401780152849}},
      {"forest", 4, 54, 3456, 74, 80, 6, 70, 0, 0, true,
       {26, 11, 69, 6, 35},
       {0.0034132524237517597, 0.031159304413598873, 0.034616759305948694,
        0.045490166281542989, 0.049992975802434572}},
      {"forest", 5, 78, 5328, 87, 80, 16, 64, 0, 0, true,
       {69, 35, 30, 4, 57, 60, 68, 26, 11, 73, 15, 66},
       {0.0053035062439547587, 0.063452342403361908, 0.096968735990582713,
        0.10197982445452373, 0.10655794316315835, 0.10858552590976628,
        0.11128601528321859, 0.11261702247811774, 0.11317808532681897,
        0.11950862675049419, 0.12018472148263575, 0.12174301294506487}},
  };
  return kGolden;
}

void PrintRecord(const TraversalRecord& r) {
  std::printf("      {\"%s\", %d, %" PRId64 ", %" PRId64 ", %" PRId64
              ", %" PRId64 ", %" PRId64 ", %" PRId64 ", %" PRId64
              ", %" PRId64 ", %s,\n       {",
              r.config, r.query, r.nodes_accessed, r.leaf_entries_seen,
              r.heap_pushes, r.candidates_created, r.candidates_completed,
              r.candidates_rejected, r.candidates_ineligible,
              r.eager_completions,
              r.terminated_by_heuristic2 ? "true" : "false");
  for (size_t i = 0; i < r.ids.size(); ++i) {
    std::printf("%s%" PRId64, i == 0 ? "" : ", ", r.ids[i]);
  }
  std::printf("},\n       {");
  for (size_t i = 0; i < r.dissims.size(); ++i) {
    std::printf("%s%.17g", i == 0 ? "" : ", ", r.dissims[i]);
  }
  std::printf("}},\n");
}

TEST(MstTraversalLockTest, CountersAndAnswersMatchGoldenTable) {
  GstdOptions opt;
  opt.num_objects = 80;
  opt.samples_per_object = 150;
  opt.timestamp_jitter = 0.5;
  opt.seed = 41;
  const TrajectoryStore store = GenerateGstd(opt);

  RTree3D rtree;
  rtree.BuildFrom(store);
  TBTree tbtree;
  tbtree.BuildFrom(store);
  STRTree strtree;
  strtree.BuildFrom(store);
  // Forest: the first half of every trajectory's segments in a packed main
  // tree, the rest in a packed delta tree, as the ingest engine splits them.
  std::vector<LeafEntry> main_entries;
  std::vector<LeafEntry> delta_entries;
  for (const Trajectory& t : store.trajectories()) {
    for (size_t i = 0; i + 1 < t.size(); ++i) {
      (2 * i < t.size() ? main_entries : delta_entries)
          .push_back(LeafEntry::Of(t.id(), t.sample(i), t.sample(i + 1)));
    }
  }
  RTree3D forest_main;
  forest_main.BulkLoad(main_entries);
  RTree3D forest_delta;
  forest_delta.BulkLoad(delta_entries);

  struct Config {
    const char* name;
    const TrajectoryIndex* index;
    const TrajectoryIndex* delta;
    bool eager;
  };
  const Config configs[] = {
      {"rtree", &rtree, nullptr, false},
      {"tbtree", &tbtree, nullptr, false},
      {"tbtree_eager", &tbtree, nullptr, true},
      {"strtree", &strtree, nullptr, false},
      {"forest", &forest_main, &forest_delta, false},
  };
  constexpr int kQueries = 6;
  constexpr int kKs[] = {1, 5, 12};
  Rng rng(4242);
  std::vector<Trajectory> queries;
  for (int q = 0; q < kQueries; ++q) {
    queries.push_back(MakeQuery(store, &rng, 0.1 + 0.15 * (q % 3)));
  }

  std::vector<TraversalRecord> observed;
  for (const Config& c : configs) {
    const BFMstSearch searcher(c.index, &store, nullptr, c.delta);
    for (int q = 0; q < kQueries; ++q) {
      MstOptions options;
      options.k = kKs[q % 3];
      options.use_eager_completion = c.eager;
      MstStats st;
      const std::vector<MstResult> got = searcher.Search(
          queries[q], queries[q].Lifespan(), options, &st);
      TraversalRecord r{c.name, q, st.nodes_accessed, st.leaf_entries_seen,
                        st.heap_pushes, st.candidates_created,
                        st.candidates_completed, st.candidates_rejected,
                        st.candidates_ineligible, st.eager_completions,
                        st.terminated_by_heuristic2,
                        {}, {}};
      for (const MstResult& m : got) {
        r.ids.push_back(m.id);
        r.dissims.push_back(m.dissim);
      }
      observed.push_back(std::move(r));
    }
  }

  const std::vector<TraversalRecord>& golden = GoldenTraversals();
  bool same = golden.size() == observed.size();
  for (size_t i = 0; same && i < golden.size(); ++i) {
    const TraversalRecord& g = golden[i];
    const TraversalRecord& o = observed[i];
    same = std::string(g.config) == o.config && g.query == o.query &&
           g.nodes_accessed == o.nodes_accessed &&
           g.leaf_entries_seen == o.leaf_entries_seen &&
           g.heap_pushes == o.heap_pushes &&
           g.candidates_created == o.candidates_created &&
           g.candidates_completed == o.candidates_completed &&
           g.candidates_rejected == o.candidates_rejected &&
           g.candidates_ineligible == o.candidates_ineligible &&
           g.eager_completions == o.eager_completions &&
           g.terminated_by_heuristic2 == o.terminated_by_heuristic2 &&
           g.ids == o.ids && g.dissims.size() == o.dissims.size();
    // Exact DISSIM goes through libm's asinh/sqrt: a relative 1e-12 keeps
    // the table portable across math libraries while any change of which
    // candidates are refined still shows.
    for (size_t j = 0; same && j < g.dissims.size(); ++j) {
      same = std::abs(g.dissims[j] - o.dissims[j]) <=
             1e-12 * std::max(1.0, std::abs(g.dissims[j]));
    }
    EXPECT_TRUE(same) << "row " << i << " (" << o.config << ", query "
                      << o.query << ") differs from the golden table";
  }
  if (!same) {
    std::printf("Observed traversal table:\n");
    for (const TraversalRecord& r : observed) PrintRecord(r);
  }
  EXPECT_EQ(golden.size(), observed.size());
}

TEST(MstTraversalLockTest, MindistEvaluationsBoundedByHeapPushes) {
  GstdOptions opt;
  opt.num_objects = 60;
  opt.samples_per_object = 150;
  opt.seed = 43;
  const TrajectoryStore store = GenerateGstd(opt);
  TBTree tree;
  tree.BuildFrom(store);
  const BFMstSearch searcher(&tree, &store);
  Rng rng(4343);
  for (int trial = 0; trial < 6; ++trial) {
    const Trajectory query = MakeQuery(store, &rng, 0.2);
    MstOptions options;
    options.k = 5;
    MstStats stats;
    searcher.Search(query, query.Lifespan(), options, &stats);
    EXPECT_GT(stats.mindist_evaluations, 0);
    EXPECT_LE(stats.mindist_evaluations, stats.heap_pushes);
  }
}

}  // namespace
}  // namespace mst

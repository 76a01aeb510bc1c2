// IngestEngine unit/property tests: delta+main search identity against
// bulk-load oracles, merge invariance, snapshot isolation, validation
// negative paths, write-version/result-cache interplay, and WAL recovery
// round-trips. Concurrency hammers live in ingest_concurrency_test.cc; the
// crash surface in wal_fault_test.cc.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/core/mst_search.h"
#include "src/exec/query_executor.h"
#include "src/index/node.h"
#include "src/index/rtree3d.h"
#include "src/ingest/delta_index.h"
#include "src/ingest/ingest_engine.h"
#include "src/ingest/wal_storage.h"
#include "src/io/index_io.h"
#include "src/shard/shard_frontend.h"
#include "src/shard/sharded_index.h"
#include "src/shard/sharded_ingest.h"
#include "src/util/random.h"

namespace mst {
namespace {

/// Deterministic batch generator: `num_ids` random-walk trajectories whose
/// samples arrive interleaved, 1–3 records per batch.
class RecordFeed {
 public:
  explicit RecordFeed(uint64_t seed, int num_ids = 10)
      : rng_(seed), num_ids_(num_ids) {}

  std::vector<WalRecord> NextBatch() {
    std::vector<WalRecord> batch;
    const int n = 1 + static_cast<int>(rng_.UniformIndex(3));
    for (int r = 0; r < n; ++r) {
      const TrajectoryId id =
          1 + static_cast<TrajectoryId>(
                  rng_.UniformIndex(static_cast<uint64_t>(num_ids_)));
      State& s = state_[id];
      if (s.samples == 0) {
        s.x = rng_.Uniform(0.0, 10.0);
        s.y = rng_.Uniform(0.0, 10.0);
        s.t = rng_.Uniform(0.0, 0.5);
      } else {
        s.x += rng_.Uniform(-0.4, 0.4);
        s.y += rng_.Uniform(-0.4, 0.4);
        s.t += rng_.Uniform(0.1, 1.0);
      }
      ++s.samples;
      batch.push_back({id, s.t, s.x, s.y});
    }
    return batch;
  }

 private:
  struct State {
    int samples = 0;
    double t = 0.0, x = 0.0, y = 0.0;
  };
  Rng rng_;
  int num_ids_;
  std::unordered_map<TrajectoryId, State> state_;
};

/// A mid-lifespan slice of a trajectory at/after the `pick`-th (first one
/// long enough to slice), reusable as a k-MST query.
Trajectory QueryFrom(const TrajectoryStore& store, size_t pick) {
  size_t at = pick % store.size();
  while (store.trajectories()[at].size() < 4) at = (at + 1) % store.size();
  const Trajectory& base = store.trajectories()[at];
  const double span = base.end_time() - base.start_time();
  const TimeInterval window{base.start_time() + 0.2 * span,
                            base.start_time() + 0.7 * span};
  return Trajectory(880000 + static_cast<TrajectoryId>(pick),
                    base.Slice(window)->samples());
}

MstOptions ExactOptions(IntegrationPolicy policy, int k = 4) {
  MstOptions options;
  options.k = k;
  options.policy = policy;
  options.exact_postprocess = true;
  return options;
}

/// Engine results must be bitwise equal to a fresh STR bulk-load oracle of
/// the same store, under every traversal policy (exact post-processing
/// makes the final values structure-independent).
void ExpectMatchesOracle(const IngestEngine& engine,
                         const TrajectoryIndex::Options& index_options) {
  const TrajectoryStore store = engine.MaterializeStore();
  ASSERT_FALSE(store.empty());
  RTree3D oracle_tree(index_options);
  oracle_tree.BulkLoad(store);
  const BFMstSearch oracle(&oracle_tree, &store);
  for (const IntegrationPolicy policy :
       {IntegrationPolicy::kTrapezoid, IntegrationPolicy::kExact,
        IntegrationPolicy::kAdaptive}) {
    const MstOptions options = ExactOptions(policy);
    for (size_t q = 0; q < 3; ++q) {
      const Trajectory query = QueryFrom(store, 3 * q + 1);
      const TimeInterval period = query.Lifespan();
      const auto want = oracle.Search(query, period, options);
      const auto got = engine.Search(query, period, options);
      ASSERT_EQ(got.size(), want.size())
          << "policy=" << static_cast<int>(policy) << " q=" << q;
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].id, want[i].id) << "rank " << i;
        ASSERT_EQ(got[i].dissim, want[i].dissim) << "rank " << i;
        ASSERT_EQ(got[i].error_bound, 0.0);
      }
    }
  }
}

TEST(DeltaIndexTest, SnapshotIsLazySharedAndInvalidated) {
  DeltaIndex delta{TrajectoryIndex::Options()};
  EXPECT_EQ(delta.Snapshot(), nullptr);  // empty delta = no tree

  std::vector<LeafEntry> entries;
  for (int i = 0; i < 5; ++i) {
    entries.push_back(LeafEntry::Of(
        7, {1.0 * i, {0.5 * i, 1.0}}, {1.0 * i + 1, {0.5 * i + 0.5, 1.5}}));
  }
  delta.Append(entries);
  const auto snap = delta.Snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->EntryCount(), 5);
  // Unchanged entries → the cached snapshot is handed out again.
  EXPECT_EQ(delta.Snapshot(), snap);

  delta.Append({LeafEntry::Of(8, {0.0, {9, 9}}, {1.0, {9.5, 9.5}})});
  const auto snap2 = delta.Snapshot();
  ASSERT_NE(snap2, snap);
  EXPECT_EQ(snap2->EntryCount(), 6);
  // The old snapshot is immutable — views pinned before the append still
  // see exactly 5 entries.
  EXPECT_EQ(snap->EntryCount(), 5);

  delta.DropPrefix(5);
  EXPECT_EQ(delta.entry_count(), 1u);
  EXPECT_EQ(delta.Snapshot()->EntryCount(), 1);
}

TEST(IngestEngineTest, EmptyEngineServesEmptyResults) {
  MemWalStorageSet storage;
  IngestEngine engine(&storage);
  const IndexView view = engine.View();
  ASSERT_NE(view.main, nullptr);
  ASSERT_NE(view.source, nullptr);
  EXPECT_EQ(view.delta, nullptr);
  const Trajectory query(1, {{0.0, {0, 0}}, {1.0, {1, 1}}});
  EXPECT_TRUE(engine.Search(query, query.Lifespan()).empty());
}

TEST(IngestEngineTest, SearchMatchesBulkLoadOracleAcrossPolicies) {
  MemWalStorageSet storage;
  IngestEngine engine(&storage);
  RecordFeed feed(41);

  // Phase 1: everything lives in the delta tree (main is empty).
  for (int b = 0; b < 40; ++b) ASSERT_TRUE(engine.Append(feed.NextBatch()));
  EXPECT_GT(engine.delta_entries(), 0u);
  ExpectMatchesOracle(engine, TrajectoryIndex::Options());

  // Phase 2: merged — everything lives in the packed main tree.
  engine.Merge();
  EXPECT_EQ(engine.delta_entries(), 0u);
  ExpectMatchesOracle(engine, TrajectoryIndex::Options());

  // Phase 3: a mixed forest — packed main plus fresh delta segments.
  for (int b = 0; b < 25; ++b) ASSERT_TRUE(engine.Append(feed.NextBatch()));
  EXPECT_GT(engine.delta_entries(), 0u);
  ExpectMatchesOracle(engine, TrajectoryIndex::Options());
}

// The merge path writes v2 leaf pages next to raw v1 internal pages, and its
// packed main tree survives a save and reload: LoadIndex's structural checks
// (levels, child ids, parent boxes containing their children) accept it.
TEST(IngestEngineTest, MergeEmitsV2LeavesAndV1Internals) {
  MemWalStorageSet storage;
  IngestEngine engine(&storage);
  RecordFeed feed(47, /*num_ids=*/20);
  // Enough segments for a multi-level main tree after the merge.
  for (int b = 0; b < 400; ++b) ASSERT_TRUE(engine.Append(feed.NextBatch()));
  engine.Merge();
  ASSERT_EQ(engine.delta_entries(), 0u);

  const IndexView view = engine.View();
  ASSERT_GT(view.main->height(), 1) << "need at least one internal node";
  view.main->buffer().Flush();
  int v2_leaves = 0;
  int v1_internals = 0;
  Page page;
  for (PageId id = 0; id < view.main->NodeCount(); ++id) {
    view.main->file().Read(id, &page);
    if (page.bytes[1] == 2) ++v2_leaves;
    else if (NodePageLevel(page) > 0 && page.bytes[1] == 0) ++v1_internals;
  }
  EXPECT_EQ(v2_leaves + v1_internals, view.main->NodeCount());
  EXPECT_GT(v2_leaves, 0);
  EXPECT_GT(v1_internals, 0) << "expected raw v1 internal pages";

  const std::string path = ::testing::TempDir() + "/merged_main.mst";
  ASSERT_TRUE(SaveIndex(*view.main, path));
  std::string error;
  const auto loaded = LoadIndex(path, &error);
  ASSERT_NE(loaded, nullptr) << error;
  EXPECT_EQ(loaded->NodeCount(), view.main->NodeCount());
  loaded->CheckInvariants();

  ExpectMatchesOracle(engine, TrajectoryIndex::Options());
}

// The rtree_variant knob flows through Options::index into the engine's
// trees: delta trees grow by one-at-a-time insertion, so with kRStar they
// exercise the full R* path (overlap ChooseSubtree, margin splits, forced
// reinsertion) on live ingested data, while merge targets stay STR-packed
// (bulk load ignores the insertion variant by design). However the entries
// are distributed, the quiesced engine must answer bitwise-identically to a
// fresh bulk load of the final trajectory set.
TEST(IngestEngineTest, RStarVariantMatchesFreshBulkLoadWhenQuiesced) {
  MemWalStorageSet storage;
  IngestEngine::Options options;
  options.index.rtree_variant = RTreeVariant::kRStar;
  IngestEngine engine(&storage, options);
  RecordFeed feed(71, /*num_ids=*/16);

  // Live phase: every segment sits in the R*-inserted delta tree.
  for (int b = 0; b < 60; ++b) ASSERT_TRUE(engine.Append(feed.NextBatch()));
  EXPECT_GT(engine.delta_entries(), 0u);
  ExpectMatchesOracle(engine, options.index);

  // Quiesced: the merge drains the R*-built delta into the packed main.
  engine.Merge();
  ASSERT_EQ(engine.delta_entries(), 0u);
  ExpectMatchesOracle(engine, options.index);

  // Second round, so a non-empty main absorbs another R*-built delta.
  for (int b = 0; b < 30; ++b) ASSERT_TRUE(engine.Append(feed.NextBatch()));
  EXPECT_GT(engine.delta_entries(), 0u);
  engine.Merge();
  ASSERT_EQ(engine.delta_entries(), 0u);
  ExpectMatchesOracle(engine, options.index);
}

TEST(IngestEngineTest, MergePreservesResultsBitwise) {
  MemWalStorageSet storage;
  IngestEngine engine(&storage);
  RecordFeed feed(43);
  for (int b = 0; b < 50; ++b) ASSERT_TRUE(engine.Append(feed.NextBatch()));

  const TrajectoryStore store = engine.MaterializeStore();
  const Trajectory query = QueryFrom(store, 2);
  const TimeInterval period = query.Lifespan();
  const MstOptions options = ExactOptions(IntegrationPolicy::kExact, 5);
  const auto before = engine.Search(query, period, options);
  ASSERT_FALSE(before.empty());

  engine.Merge();
  EXPECT_EQ(engine.delta_entries(), 0u);
  const auto after = engine.Search(query, period, options);
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i].id, before[i].id);
    EXPECT_EQ(after[i].dissim, before[i].dissim);
  }
  // Merging twice in a row is a no-op.
  engine.Merge();
  EXPECT_EQ(engine.delta_entries(), 0u);
}

TEST(IngestEngineTest, PublishIsAmortizedAcrossAppendBursts) {
  MemWalStorageSet storage;
  IngestEngine engine(&storage);
  RecordFeed feed(53);
  const uint64_t base = engine.publish_count();

  // A burst of appends publishes nothing — the view is only marked stale.
  for (int b = 0; b < 40; ++b) ASSERT_TRUE(engine.Append(feed.NextBatch()));
  EXPECT_EQ(engine.publish_count(), base);

  // The first resolution pays for exactly one publish...
  const IndexView v1 = engine.View();
  EXPECT_EQ(engine.publish_count(), base + 1);
  // ...and a clean view is handed out as-is.
  const IndexView v2 = engine.View();
  EXPECT_EQ(engine.publish_count(), base + 1);
  EXPECT_EQ(v1.source, v2.source);

  // The lazily published view answers like a fresh bulk-load oracle.
  ExpectMatchesOracle(engine, TrajectoryIndex::Options());

  // Another burst, another single publish at the next resolution.
  for (int b = 0; b < 5; ++b) ASSERT_TRUE(engine.Append(feed.NextBatch()));
  const uint64_t before_view = engine.publish_count();
  (void)engine.View();
  EXPECT_EQ(engine.publish_count(), before_view + 1);
}

TEST(IngestEngineTest, PinnedViewSurvivesMergeAndLaterAppends) {
  MemWalStorageSet storage;
  IngestEngine engine(&storage);
  RecordFeed feed(47);
  for (int b = 0; b < 30; ++b) ASSERT_TRUE(engine.Append(feed.NextBatch()));

  // Pin the pre-merge snapshot and record what it answers.
  const IndexView pinned = engine.View();
  ASSERT_NE(pinned.delta, nullptr);
  const TrajectoryStore store_then = engine.MaterializeStore();
  const Trajectory query = QueryFrom(store_then, 1);
  const TimeInterval period = query.Lifespan();
  const MstOptions options = ExactOptions(IntegrationPolicy::kExact, 5);
  const BFMstSearch pinned_searcher(pinned.main.get(), pinned.source.get(),
                                    nullptr, pinned.delta.get());
  const auto want = pinned_searcher.Search(query, period, options);

  // Merge and keep appending — the pinned view must not move.
  engine.Merge();
  for (int b = 0; b < 20; ++b) ASSERT_TRUE(engine.Append(feed.NextBatch()));
  const auto still = pinned_searcher.Search(query, period, options);
  ASSERT_EQ(still.size(), want.size());
  for (size_t i = 0; i < still.size(); ++i) {
    EXPECT_EQ(still[i].id, want[i].id);
    EXPECT_EQ(still[i].dissim, want[i].dissim);
  }
  // And it equals a bulk-load oracle of the state at pin time.
  RTree3D oracle_tree{TrajectoryIndex::Options()};
  oracle_tree.BulkLoad(store_then);
  const BFMstSearch oracle(&oracle_tree, &store_then);
  const auto oracle_results = oracle.Search(query, period, options);
  ASSERT_EQ(still.size(), oracle_results.size());
  for (size_t i = 0; i < still.size(); ++i) {
    EXPECT_EQ(still[i].dissim, oracle_results[i].dissim);
  }
}

TEST(IngestEngineTest, RejectsInvalidBatchesBeforeLogging) {
  MemWalStorageSet storage;
  IngestEngine engine(&storage);
  ASSERT_TRUE(engine.Append({{1, 1.0, 0.0, 0.0}, {1, 2.0, 1.0, 1.0}}));
  const uint64_t durable_before = engine.wal().durable_seq();

  // Non-finite coordinates.
  EXPECT_FALSE(
      engine.Append({{2, 1.0, std::numeric_limits<double>::quiet_NaN(), 0.0}}));
  EXPECT_FALSE(engine.Append(
      {{2, 1.0, 0.0, std::numeric_limits<double>::infinity()}}));
  // Timestamp regression against the stored timeline.
  EXPECT_FALSE(engine.Append({{1, 2.0, 2.0, 2.0}}));
  EXPECT_FALSE(engine.Append({{1, 0.5, 2.0, 2.0}}));
  // Timestamp regression inside one batch.
  EXPECT_FALSE(engine.Append({{3, 1.0, 0.0, 0.0}, {3, 1.0, 0.1, 0.1}}));
  EXPECT_EQ(engine.rejected_batches(), 5u);

  // Rejected batches never reached the WAL and never touched the state.
  EXPECT_EQ(engine.wal().durable_seq(), durable_before);
  const TrajectoryStore store = engine.MaterializeStore();
  ASSERT_EQ(store.size(), 1u);
  EXPECT_EQ(store.trajectories()[0].size(), 2u);

  // An atomically-rejected batch leaves even its valid ids untouched, so
  // the same records minus the offender still apply cleanly.
  EXPECT_FALSE(engine.Append({{4, 1.0, 0.0, 0.0}, {1, 1.5, 0.0, 0.0}}));
  EXPECT_TRUE(engine.Append({{4, 1.0, 0.0, 0.0}}));
  EXPECT_TRUE(engine.Append({{1, 3.0, 2.0, 2.0}}));
}

TEST(IngestEngineTest, SnapshotsCarryMonotonicWriteVersions) {
  MemWalStorageSet storage;
  IngestEngine engine(&storage);
  ASSERT_TRUE(engine.Append({{5, 1.0, 0.0, 0.0}}));
  const IndexView v1 = engine.View();
  ASSERT_TRUE(v1.source->OwnsWriteVersions());
  const uint64_t version1 = v1.source->SourceWriteVersion(5);
  EXPECT_GT(version1, 0u);
  EXPECT_EQ(v1.source->SourceWriteVersion(999), 0u);  // absent id

  ASSERT_TRUE(engine.Append({{5, 2.0, 1.0, 1.0}, {6, 1.0, 3.0, 3.0}}));
  const IndexView v2 = engine.View();
  EXPECT_GT(v2.source->SourceWriteVersion(5), version1);
  EXPECT_GT(v2.source->SourceWriteVersion(6), 0u);
  // The older snapshot still reports the version it was published with.
  EXPECT_EQ(v1.source->SourceWriteVersion(5), version1);
  // Merging reshapes trees but appends nothing: versions are unchanged.
  const uint64_t version2 = v2.source->SourceWriteVersion(5);
  engine.Merge();
  EXPECT_EQ(engine.View().source->SourceWriteVersion(5), version2);
}

TEST(IngestEngineTest, ResultCacheInvalidatesWhenTrajectoriesGrow) {
  MemWalStorageSet storage;
  IngestEngine engine(&storage);
  RecordFeed feed(53);
  for (int b = 0; b < 40; ++b) ASSERT_TRUE(engine.Append(feed.NextBatch()));

  QueryExecutor::Options exec_options;
  exec_options.num_workers = 2;
  exec_options.result_cache_entries = 1 << 10;
  QueryExecutor executor(engine.ViewProvider(), exec_options);

  const TrajectoryStore store = engine.MaterializeStore();
  const Trajectory query = QueryFrom(store, 1);
  std::vector<QueryRequest> requests;
  requests.emplace_back(query, query.Lifespan(),
                        ExactOptions(IntegrationPolicy::kExact, 5));

  const auto first = executor.RunBatch(requests);
  ASSERT_FALSE(first[0].results.empty());
  const auto second = executor.RunBatch(requests);
  EXPECT_GT(executor.result_cache().hits(), 0);  // warm repeat
  ASSERT_EQ(second[0].results.size(), first[0].results.size());
  for (size_t i = 0; i < second[0].results.size(); ++i) {
    EXPECT_EQ(second[0].results[i].dissim, first[0].results[i].dissim);
  }

  // Grow every stored trajectory: cached refinements are now stale and
  // must be dropped, and results must reflect the appends.
  for (int b = 0; b < 40; ++b) ASSERT_TRUE(engine.Append(feed.NextBatch()));
  const auto third = executor.RunBatch(requests);
  EXPECT_GT(executor.result_cache().stale_drops(), 0);

  const TrajectoryStore store_now = engine.MaterializeStore();
  RTree3D oracle_tree{TrajectoryIndex::Options()};
  oracle_tree.BulkLoad(store_now);
  const BFMstSearch oracle(&oracle_tree, &store_now);
  const auto want =
      oracle.Search(query, query.Lifespan(),
                    ExactOptions(IntegrationPolicy::kExact, 5));
  ASSERT_EQ(third[0].results.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(third[0].results[i].id, want[i].id);
    EXPECT_EQ(third[0].results[i].dissim, want[i].dissim);
  }
}

TEST(IngestEngineTest, RecoveryRoundTripPreservesStateAndSequence) {
  MemWalStorageSet storage;
  IngestEngine::Options options;
  std::vector<std::vector<MstResult>> want;
  TrajectoryStore store_before;
  uint64_t seq_before = 0;
  {
    IngestEngine engine(&storage, options);
    RecordFeed feed(59);
    for (int b = 0; b < 30; ++b) ASSERT_TRUE(engine.Append(feed.NextBatch()));
    engine.Merge();
    for (int b = 0; b < 10; ++b) ASSERT_TRUE(engine.Append(feed.NextBatch()));
    store_before = engine.MaterializeStore();
    seq_before = engine.applied_seq();
    for (size_t q = 0; q < 3; ++q) {
      const Trajectory query = QueryFrom(store_before, q);
      want.push_back(engine.Search(query, query.Lifespan(),
                                   ExactOptions(IntegrationPolicy::kExact)));
    }
  }

  WalRecoveryInfo info;
  IngestEngine recovered(&storage, options, &info);
  EXPECT_EQ(info.committed_batches, 40u);
  EXPECT_FALSE(info.truncated_tail);
  EXPECT_EQ(recovered.applied_seq(), seq_before);

  const TrajectoryStore store_after = recovered.MaterializeStore();
  ASSERT_EQ(store_after.size(), store_before.size());
  for (size_t i = 0; i < store_after.size(); ++i) {
    EXPECT_EQ(store_after.trajectories()[i].id(),
              store_before.trajectories()[i].id());
    EXPECT_EQ(store_after.trajectories()[i].size(),
              store_before.trajectories()[i].size());
  }
  for (size_t q = 0; q < 3; ++q) {
    const Trajectory query = QueryFrom(store_before, q);
    const auto got = recovered.Search(query, query.Lifespan(),
                                      ExactOptions(IntegrationPolicy::kExact));
    ASSERT_EQ(got.size(), want[q].size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, want[q][i].id);
      EXPECT_EQ(got[i].dissim, want[q][i].dissim);
    }
  }
  // The recovered engine appends at the next sequence.
  ASSERT_TRUE(recovered.Append({{777, 1.0, 0.0, 0.0}}));
  EXPECT_EQ(recovered.applied_seq(), seq_before + 1);
}

TEST(IngestEngineTest, BackgroundMergerDrainsTheDelta) {
  MemWalStorageSet storage;
  IngestEngine::Options options;
  options.background_merge = true;
  options.merge_threshold_entries = 8;
  IngestEngine engine(&storage, options);
  RecordFeed feed(61);
  for (int b = 0; b < 60; ++b) ASSERT_TRUE(engine.Append(feed.NextBatch()));

  // The merger owes us a drain below the threshold (it may legitimately
  // leave a sub-threshold tail).
  for (int spin = 0; spin < 2000 &&
                     engine.delta_entries() >= options.merge_threshold_entries;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_LT(engine.delta_entries(), options.merge_threshold_entries);
  ExpectMatchesOracle(engine, options.index);
}

TEST(ShardedIngestTest, RoutesByIdHashAndServesScatterGatherQueries) {
  ShardedIngest::Options options;
  options.num_shards = 3;
  ShardedIngest ingest(options);
  RecordFeed feed(67, /*num_ids=*/24);
  for (int b = 0; b < 60; ++b) ASSERT_TRUE(ingest.Append(feed.NextBatch()));

  // Each shard holds exactly the ids the hash routes to it.
  for (int s = 0; s < ingest.num_shards(); ++s) {
    const TrajectoryStore shard_store = ingest.engine(s).MaterializeStore();
    for (const Trajectory& t : shard_store.trajectories()) {
      EXPECT_EQ(ShardedIndex::ShardOf(t.id(), ingest.num_shards()), s);
    }
  }

  const TrajectoryStore store = ingest.MaterializeStore();
  RTree3D oracle_tree{TrajectoryIndex::Options()};
  oracle_tree.BulkLoad(store);
  const BFMstSearch oracle(&oracle_tree, &store);

  ShardFrontEnd::Options fe_options;
  ShardFrontEnd frontend(ingest.ViewProviders(), fe_options);
  std::vector<QueryRequest> requests;
  for (size_t q = 0; q < 4; ++q) {
    const Trajectory query = QueryFrom(store, 5 * q + 2);
    requests.emplace_back(query, query.Lifespan(),
                          ExactOptions(IntegrationPolicy::kExact, 5));
  }
  const auto check = [&](const std::vector<QueryOutcome>& outcomes) {
    ASSERT_EQ(outcomes.size(), requests.size());
    for (size_t q = 0; q < requests.size(); ++q) {
      const auto want = oracle.Search(requests[q].query, requests[q].period,
                                      requests[q].options);
      ASSERT_EQ(outcomes[q].results.size(), want.size()) << "q=" << q;
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(outcomes[q].results[i].id, want[i].id);
        EXPECT_EQ(outcomes[q].results[i].dissim, want[i].dissim);
      }
    }
  };
  check(frontend.RunBatch(requests));

  // Merging every shard changes tree shapes, not answers.
  ingest.MergeAll();
  for (int s = 0; s < ingest.num_shards(); ++s) {
    EXPECT_EQ(ingest.engine(s).delta_entries(), 0u);
  }
  check(frontend.RunBatch(requests));
}

TEST(ShardedIngestTest, RecoversPerShardFromExternalStorage) {
  constexpr int kShards = 3;
  std::vector<std::unique_ptr<MemWalStorageSet>> storage;
  std::vector<WalStorageSet*> raw;
  for (int s = 0; s < kShards; ++s) {
    storage.push_back(std::make_unique<MemWalStorageSet>());
    raw.push_back(storage.back().get());
  }
  ShardedIngest::Options options;
  options.num_shards = kShards;

  TrajectoryStore store_before;
  {
    ShardedIngest ingest(raw, options);
    RecordFeed feed(71, /*num_ids=*/18);
    for (int b = 0; b < 40; ++b) ASSERT_TRUE(ingest.Append(feed.NextBatch()));
    store_before = ingest.MaterializeStore();
  }

  std::vector<WalRecoveryInfo> recovery;
  ShardedIngest recovered(raw, options, &recovery);
  ASSERT_EQ(recovery.size(), static_cast<size_t>(kShards));
  uint64_t committed = 0;
  for (const WalRecoveryInfo& info : recovery) {
    committed += info.committed_batches;
    EXPECT_FALSE(info.truncated_tail);
  }
  EXPECT_GT(committed, 0u);

  const TrajectoryStore store_after = recovered.MaterializeStore();
  ASSERT_EQ(store_after.size(), store_before.size());
  for (size_t i = 0; i < store_after.size(); ++i) {
    const Trajectory& a = store_after.trajectories()[i];
    const Trajectory& b = store_before.trajectories()[i];
    ASSERT_EQ(a.id(), b.id());
    ASSERT_EQ(a.size(), b.size());
    for (size_t j = 0; j < a.size(); ++j) {
      EXPECT_EQ(a.sample(j).t, b.sample(j).t);
      EXPECT_EQ(a.sample(j).p, b.sample(j).p);
    }
  }
}

}  // namespace
}  // namespace mst

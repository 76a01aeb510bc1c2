// Tests for the cross-query DISSIM result cache: LRU policy, disablement,
// exact counter accounting, write-version invalidation (unit and end-to-end
// through TrajectoryIndex::Insert), the tentpole byte-identity guarantee
// (results AND node-access metrics unchanged with the cache on or off, across
// every integration policy), and a reader/writer hammer meant to run under
// TSan (-DMST_SANITIZE=thread).

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "src/core/linear_scan.h"
#include "src/core/mst_search.h"
#include "src/core/result_cache.h"
#include "src/gen/gstd.h"
#include "src/index/rtree3d.h"
#include "src/index/tbtree.h"
#include "src/util/random.h"

namespace mst {
namespace {

// A recognizable cached value: the integral encodes (key ordinal, version),
// so a served value can always be checked against the key and version it was
// supposedly computed under.
DissimResult MarkedValue(int ordinal, uint64_t version) {
  DissimResult d;
  d.value = static_cast<double>(ordinal) * 1000.0 + static_cast<double>(version);
  d.error_bound = static_cast<double>(ordinal);
  return d;
}

ResultCacheKey KeyOf(int ordinal) {
  ResultCacheKey key;
  key.fingerprint = {static_cast<uint64_t>(ordinal) * 0x9e3779b97f4a7c15ull,
                     static_cast<uint64_t>(ordinal) + 1};
  key.traj_id = static_cast<TrajectoryId>(ordinal);
  key.period = {0.0, 1.0};
  key.policy = IntegrationPolicy::kExact;
  return key;
}

TEST(ResultCacheTest, FingerprintIsContentBasedAndIdBlind) {
  const Trajectory a(1, {{0.0, {0.25, 0.5}}, {1.0, {0.75, 0.5}}});
  // Same samples, different id: geometrically identical queries must share
  // cache entries.
  const Trajectory b(2, {{0.0, {0.25, 0.5}}, {1.0, {0.75, 0.5}}});
  EXPECT_EQ(FingerprintQuery(a), FingerprintQuery(b));

  // One ULP of one coordinate differs.
  const Trajectory c(1, {{0.0, {0.25, 0.5}}, {1.0, {0.75000000000000011, 0.5}}});
  EXPECT_FALSE(FingerprintQuery(a) == FingerprintQuery(c));

  // A prefix must not alias the full trajectory.
  const Trajectory d(3, {{0.0, {0.25, 0.5}}});
  EXPECT_FALSE(FingerprintQuery(a) == FingerprintQuery(d));
}

TEST(ResultCacheTest, DisabledCacheCountsNothingAndStoresNothing) {
  ResultCache cache(/*capacity_entries=*/0);
  EXPECT_FALSE(cache.enabled());
  DissimResult out;
  EXPECT_FALSE(cache.Lookup(KeyOf(1), /*write_version=*/0, &out));
  cache.Insert(KeyOf(1), MarkedValue(1, 0), /*write_version=*/0);
  EXPECT_FALSE(cache.Lookup(KeyOf(1), /*write_version=*/0, &out));
  EXPECT_EQ(cache.hits(), 0);
  EXPECT_EQ(cache.misses(), 0);
  EXPECT_EQ(cache.resident_entries(), 0u);
}

TEST(ResultCacheTest, SingleShardEvictsLeastRecentlyUsed) {
  ResultCache cache(/*capacity_entries=*/3, /*num_shards=*/1);
  for (int i = 1; i <= 3; ++i) {
    cache.Insert(KeyOf(i), MarkedValue(i, 0), 0);
  }
  EXPECT_EQ(cache.resident_entries(), 3u);

  // Touch 1 so 2 becomes the LRU entry, then overflow with 4.
  DissimResult out;
  ASSERT_TRUE(cache.Lookup(KeyOf(1), 0, &out));
  cache.Insert(KeyOf(4), MarkedValue(4, 0), 0);
  EXPECT_EQ(cache.resident_entries(), 3u);

  EXPECT_FALSE(cache.Lookup(KeyOf(2), 0, &out)) << "LRU entry must be gone";
  for (const int i : {1, 3, 4}) {
    ASSERT_TRUE(cache.Lookup(KeyOf(i), 0, &out)) << "entry " << i;
    EXPECT_EQ(out.value, MarkedValue(i, 0).value);
    EXPECT_EQ(out.error_bound, MarkedValue(i, 0).error_bound);
  }
}

TEST(ResultCacheTest, HitsAndMissesSumToLookups) {
  ResultCache cache(/*capacity_entries=*/2, /*num_shards=*/1);
  DissimResult out;
  EXPECT_FALSE(cache.Lookup(KeyOf(1), 0, &out));  // miss
  cache.Insert(KeyOf(1), MarkedValue(1, 0), 0);
  EXPECT_FALSE(cache.Lookup(KeyOf(2), 0, &out));  // miss
  cache.Insert(KeyOf(2), MarkedValue(2, 0), 0);
  EXPECT_TRUE(cache.Lookup(KeyOf(1), 0, &out));   // hit
  EXPECT_TRUE(cache.Lookup(KeyOf(2), 0, &out));   // hit
  cache.Insert(KeyOf(3), MarkedValue(3, 0), 0);   // evicts 1
  EXPECT_FALSE(cache.Lookup(KeyOf(1), 0, &out));  // miss
  EXPECT_EQ(cache.hits(), 2);
  EXPECT_EQ(cache.misses(), 3);
  EXPECT_EQ(cache.stale_drops(), 0);
}

TEST(ResultCacheTest, MismatchedWriteVersionDropsTheEntry) {
  ResultCache cache(/*capacity_entries=*/8, /*num_shards=*/1);
  cache.Insert(KeyOf(5), MarkedValue(5, 0), /*write_version=*/0);
  DissimResult out;
  // The trajectory gained segments since the entry was computed: a lookup
  // under the bumped version must drop the entry, not serve it.
  EXPECT_FALSE(cache.Lookup(KeyOf(5), /*write_version=*/1, &out));
  EXPECT_EQ(cache.stale_drops(), 1);
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.resident_entries(), 0u);
  // Republished under the current version it serves again — and an entry
  // from a racing late publisher under the old version is likewise dead.
  cache.Insert(KeyOf(5), MarkedValue(5, 1), /*write_version=*/1);
  ASSERT_TRUE(cache.Lookup(KeyOf(5), /*write_version=*/1, &out));
  EXPECT_EQ(out.value, MarkedValue(5, 1).value);
  cache.Insert(KeyOf(5), MarkedValue(5, 0), /*write_version=*/0);
  EXPECT_FALSE(cache.Lookup(KeyOf(5), /*write_version=*/1, &out));
  EXPECT_EQ(cache.stale_drops(), 2);
}

TEST(ResultCacheTest, SetCapacityZeroDisablesAndDropsEverything) {
  ResultCache cache(/*capacity_entries=*/8, /*num_shards=*/1);
  cache.Insert(KeyOf(1), MarkedValue(1, 0), 0);
  ASSERT_EQ(cache.resident_entries(), 1u);
  cache.SetCapacity(0);
  EXPECT_FALSE(cache.enabled());
  EXPECT_EQ(cache.resident_entries(), 0u);
  const int64_t misses_before = cache.misses();
  DissimResult out;
  EXPECT_FALSE(cache.Lookup(KeyOf(1), 0, &out));
  EXPECT_EQ(cache.misses(), misses_before);  // disabled lookups count nothing
  cache.SetCapacity(4);
  EXPECT_TRUE(cache.enabled());
}

// The tentpole guarantee, locked per policy: attaching the cache changes no
// result byte and no node-access metric; it only converts repeated
// post-processing integrals into hits.
class ResultCacheIdentityTest
    : public ::testing::TestWithParam<IntegrationPolicy> {};

TEST_P(ResultCacheIdentityTest, SearchIsByteIdenticalWithCacheOnOrOff) {
  GstdOptions opt;
  opt.num_objects = 50;
  opt.samples_per_object = 120;
  opt.seed = 17;
  const TrajectoryStore store = GenerateGstd(opt);
  TBTree index;
  index.BuildFrom(store);

  ResultCache cache(/*capacity_entries=*/1024);
  const BFMstSearch with_cache(&index, &store, &cache);
  const BFMstSearch without_cache(&index, &store);

  MstOptions q_opt;
  q_opt.k = 5;
  q_opt.policy = GetParam();
  Rng rng(29);
  for (const bool exact_postprocess : {true, false}) {
    q_opt.exact_postprocess = exact_postprocess;
    for (int i = 0; i < 8; ++i) {
      const Trajectory& q =
          store.trajectories()[rng.UniformIndex(store.trajectories().size())];
      q_opt.exclude_id = q.id();
      // Twice per query, so the second pass must be served from the cache.
      for (int pass = 0; pass < 2; ++pass) {
        MstStats cached_stats;
        MstStats plain_stats;
        const std::vector<MstResult> a =
            with_cache.Search(q, q.Lifespan(), q_opt, &cached_stats);
        const std::vector<MstResult> b =
            without_cache.Search(q, q.Lifespan(), q_opt, &plain_stats);

        ASSERT_EQ(a.size(), b.size());
        for (size_t j = 0; j < a.size(); ++j) {
          EXPECT_EQ(a[j].id, b[j].id);
          EXPECT_EQ(a[j].dissim, b[j].dissim);
          EXPECT_EQ(a[j].error_bound, b[j].error_bound);
        }
        // The traversal never consults the result cache, so every
        // node-access metric matches exactly.
        EXPECT_EQ(cached_stats.nodes_accessed, plain_stats.nodes_accessed);
        EXPECT_EQ(cached_stats.leaf_entries_seen, plain_stats.leaf_entries_seen);
        EXPECT_EQ(cached_stats.heap_pushes, plain_stats.heap_pushes);
        EXPECT_EQ(cached_stats.exact_recomputations,
                  plain_stats.exact_recomputations);
        // Without a cache attached nothing is counted.
        EXPECT_EQ(plain_stats.result_cache_hits, 0);
        EXPECT_EQ(plain_stats.result_cache_misses, 0);
        if (exact_postprocess) {
          // Every refinement consults the cache exactly once...
          EXPECT_EQ(cached_stats.result_cache_hits +
                        cached_stats.result_cache_misses,
                    cached_stats.exact_recomputations);
          // ...and a repeated query is served entirely from it.
          if (pass == 1) {
            EXPECT_EQ(cached_stats.result_cache_misses, 0);
            EXPECT_EQ(cached_stats.result_cache_hits,
                      cached_stats.exact_recomputations);
          }
        }
      }
    }
  }
  EXPECT_GT(cache.hits(), 0);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, ResultCacheIdentityTest,
                         ::testing::Values(IntegrationPolicy::kTrapezoid,
                                           IntegrationPolicy::kExact,
                                           IntegrationPolicy::kAdaptive),
                         [](const auto& info) {
                           switch (info.param) {
                             case IntegrationPolicy::kTrapezoid:
                               return "Trapezoid";
                             case IntegrationPolicy::kExact:
                               return "Exact";
                             case IntegrationPolicy::kAdaptive:
                               return "Adaptive";
                           }
                           return "Unknown";
                         });

TEST(ResultCacheTest, IndexInsertInvalidatesCachedRefinements) {
  GstdOptions opt;
  opt.num_objects = 40;
  opt.samples_per_object = 100;
  opt.seed = 23;
  const TrajectoryStore store = GenerateGstd(opt);
  RTree3D index;
  index.BuildFrom(store);

  ResultCache cache(/*capacity_entries=*/1024);
  const BFMstSearch search(&index, &store, &cache);
  const Trajectory& q = store.trajectories()[3];
  MstOptions q_opt;
  q_opt.k = 4;
  q_opt.exclude_id = q.id();

  MstStats warm;
  const std::vector<MstResult> first = search.Search(q, q.Lifespan(), q_opt);
  const std::vector<MstResult> second =
      search.Search(q, q.Lifespan(), q_opt, &warm);
  ASSERT_FALSE(second.empty());
  EXPECT_GT(warm.result_cache_hits, 0);
  EXPECT_EQ(warm.result_cache_misses, 0);

  // The index ingests a new segment for one of the answers: a slow segment
  // far in the future, so neither V_max nor any query window changes — the
  // ONLY observable difference may be the version bump.
  const TrajectoryId touched = second[0].id;
  const uint64_t version_before = index.TrajectoryWriteVersion(touched);
  index.Insert(LeafEntry::Of(touched, {100.0, {0.5, 0.5}},
                             {101.0, {0.5, 0.5}}));
  EXPECT_EQ(index.TrajectoryWriteVersion(touched), version_before + 1);

  const int64_t stale_before = cache.stale_drops();
  MstStats after;
  const std::vector<MstResult> third =
      search.Search(q, q.Lifespan(), q_opt, &after);
  // The touched trajectory's entry was dropped, never served...
  EXPECT_EQ(cache.stale_drops(), stale_before + 1);
  EXPECT_GT(after.result_cache_misses, 0);
  // ...and the answers still match both the pre-insert run and the oracle
  // (the store is unchanged, so the recomputed values are the same).
  ASSERT_EQ(third.size(), second.size());
  for (size_t j = 0; j < third.size(); ++j) {
    EXPECT_EQ(third[j].id, second[j].id);
    EXPECT_EQ(third[j].dissim, second[j].dissim);
  }
  const std::vector<MstResult> oracle = LinearScanKMst(
      store, q, q.Lifespan(), q_opt.k, IntegrationPolicy::kExact, q.id());
  ASSERT_EQ(third.size(), oracle.size());
  for (size_t j = 0; j < third.size(); ++j) {
    EXPECT_EQ(third[j].id, oracle[j].id);
    EXPECT_EQ(third[j].dissim, oracle[j].dissim);
  }
}

TEST(ResultCacheTest, ConcurrentHammerKeepsCountersExactAndValuesFresh) {
  constexpr int kReaders = 8;
  constexpr int kLookupsPerReader = 20000;
  constexpr int kKeys = 64;
  // Small capacity forces constant eviction; one writer bumps per-key write
  // versions so the stale-drop path contends with hits, inserts and
  // evictions.
  ResultCache cache(/*capacity_entries=*/16, /*num_shards=*/8);
  std::array<std::atomic<uint64_t>, kKeys> versions{};

  std::atomic<int64_t> payload_mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kReaders + 1);
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&cache, &versions, &payload_mismatches, t] {
      Rng rng(900 + static_cast<uint64_t>(t));
      for (int i = 0; i < kLookupsPerReader; ++i) {
        const int ordinal = static_cast<int>(rng.UniformIndex(kKeys));
        // Observe the version BEFORE computing/publishing, exactly like the
        // search path does.
        const uint64_t version =
            versions[static_cast<size_t>(ordinal)].load(
                std::memory_order_acquire);
        DissimResult out;
        if (cache.Lookup(KeyOf(ordinal), version, &out)) {
          // A hit must carry the value computed under the exact version the
          // reader asked about, no matter the interleaving.
          if (out.value != MarkedValue(ordinal, version).value) {
            payload_mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        } else {
          cache.Insert(KeyOf(ordinal), MarkedValue(ordinal, version), version);
        }
      }
    });
  }
  std::atomic<bool> stop{false};
  threads.emplace_back([&versions, &stop] {
    Rng rng(77);
    while (!stop.load(std::memory_order_relaxed)) {
      versions[rng.UniformIndex(kKeys)].fetch_add(1,
                                                  std::memory_order_acq_rel);
      std::this_thread::yield();
    }
  });
  for (int t = 0; t < kReaders; ++t) threads[static_cast<size_t>(t)].join();
  stop.store(true, std::memory_order_relaxed);
  threads.back().join();

  EXPECT_EQ(payload_mismatches.load(), 0);
  // Every lookup counted exactly one hit or one miss; stale drops are a
  // subset of the misses.
  EXPECT_EQ(cache.hits() + cache.misses(),
            static_cast<int64_t>(kReaders) * kLookupsPerReader);
  EXPECT_LE(cache.stale_drops(), cache.misses());
  EXPECT_LE(cache.resident_entries(), 16u);
}

}  // namespace
}  // namespace mst

// Tests for the decoded-node cache: LRU policy, version-tagged invalidation
// (including the end-to-end WriteNode path), exact counter aggregation, and
// a multi-threaded hammer meant to run under TSan (-DMST_SANITIZE=thread).
// Also pins the tentpole guarantee that caching never changes *logical*
// node-access counts or query results.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "src/core/mst_search.h"
#include "src/gen/gstd.h"
#include "src/index/node_cache.h"
#include "src/index/rtree3d.h"
#include "src/index/tbtree.h"
#include "src/util/random.h"

namespace mst {
namespace {

// A recognizable leaf node: one entry whose trajectory id doubles as the
// payload marker.
NodeRef MarkedLeaf(PageId self, TrajectoryId marker) {
  auto node = std::make_shared<IndexNode>();
  node->self = self;
  node->level = 0;
  node->leaves.push_back(LeafEntry::Of(
      marker, {0.0, {0.0, 0.0}}, {1.0, {1.0, 1.0}}));
  return node;
}

// Miss-then-insert, the way ReadNode populates the cache.
void Populate(NodeCache* cache, PageId id, TrajectoryId marker) {
  uint64_t version = 0;
  ASSERT_EQ(cache->Lookup(id, &version), nullptr);
  cache->Insert(id, MarkedLeaf(id, marker), version);
}

TEST(NodeCacheTest, DisabledCacheCountsNothingAndStoresNothing) {
  NodeCache cache(/*capacity_nodes=*/0);
  EXPECT_FALSE(cache.enabled());
  uint64_t version = 123;
  EXPECT_EQ(cache.Lookup(7, &version), nullptr);
  cache.Insert(7, MarkedLeaf(7, 1), version);
  EXPECT_EQ(cache.Lookup(7, &version), nullptr);
  EXPECT_EQ(cache.hits(), 0);
  EXPECT_EQ(cache.misses(), 0);
  EXPECT_EQ(cache.resident_nodes(), 0u);
}

TEST(NodeCacheTest, SingleShardEvictsLeastRecentlyUsed) {
  NodeCache cache(/*capacity_nodes=*/3, /*num_shards=*/1);
  Populate(&cache, 1, 101);
  Populate(&cache, 2, 102);
  Populate(&cache, 3, 103);
  EXPECT_EQ(cache.resident_nodes(), 3u);

  // Touch 1 so 2 becomes the LRU entry, then overflow with 4.
  uint64_t version = 0;
  ASSERT_NE(cache.Lookup(1, &version), nullptr);
  Populate(&cache, 4, 104);
  EXPECT_EQ(cache.resident_nodes(), 3u);

  EXPECT_EQ(cache.Lookup(2, &version), nullptr) << "LRU page must be gone";
  for (const PageId id : {PageId{1}, PageId{3}, PageId{4}}) {
    const NodeRef node = cache.Lookup(id, &version);
    ASSERT_NE(node, nullptr) << "page " << id;
    EXPECT_EQ(node->leaves[0].traj_id, 100 + static_cast<TrajectoryId>(id));
  }
}

TEST(NodeCacheTest, HitsAndMissesSumToLookups) {
  NodeCache cache(/*capacity_nodes=*/2, /*num_shards=*/1);
  Populate(&cache, 1, 1);  // miss
  Populate(&cache, 2, 2);  // miss
  uint64_t version = 0;
  EXPECT_NE(cache.Lookup(1, &version), nullptr);  // hit
  EXPECT_NE(cache.Lookup(2, &version), nullptr);  // hit
  Populate(&cache, 3, 3);                         // miss, evicts 1
  EXPECT_EQ(cache.Lookup(1, &version), nullptr);  // miss
  EXPECT_EQ(cache.hits(), 2);
  EXPECT_EQ(cache.misses(), 4);
}

TEST(NodeCacheTest, StaleVersionInsertIsRejected) {
  NodeCache cache(/*capacity_nodes=*/8, /*num_shards=*/1);
  uint64_t version = 0;
  ASSERT_EQ(cache.Lookup(5, &version), nullptr);
  // A write lands between the version read and the insert: the decoded node
  // may predate the write and must not be published.
  cache.Invalidate(5);
  cache.Insert(5, MarkedLeaf(5, 50), version);
  EXPECT_EQ(cache.Lookup(5, &version), nullptr);
  // With the fresh version the insert sticks.
  cache.Insert(5, MarkedLeaf(5, 51), version);
  const NodeRef node = cache.Lookup(5, &version);
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->leaves[0].traj_id, 51);
}

TEST(NodeCacheTest, InvalidateDropsEntryAndCounts) {
  NodeCache cache(/*capacity_nodes=*/8, /*num_shards=*/1);
  Populate(&cache, 1, 1);
  cache.Invalidate(1);
  EXPECT_EQ(cache.invalidations(), 1);
  uint64_t version = 0;
  EXPECT_EQ(cache.Lookup(1, &version), nullptr);
  // Invalidating a non-resident page bumps the version but counts nothing.
  cache.Invalidate(99);
  EXPECT_EQ(cache.invalidations(), 1);
}

TEST(NodeCacheTest, WriteNodeInvalidatesThroughTheIndex) {
  // End-to-end: a cached root must never mask a structural update.
  RTree3D tree;
  tree.Insert(LeafEntry::Of(1, {0.0, {0.0, 0.0}}, {1.0, {1.0, 1.0}}));
  const NodeRef before = tree.ReadNode(tree.root());
  ASSERT_EQ(before->leaves.size(), 1u);

  tree.Insert(LeafEntry::Of(2, {0.0, {2.0, 2.0}}, {1.0, {3.0, 3.0}}));
  const NodeRef after = tree.ReadNode(tree.root());
  EXPECT_EQ(after->leaves.size(), 2u);
  // The earlier handle still sees the old snapshot (immutability), only the
  // cache content moved on.
  EXPECT_EQ(before->leaves.size(), 1u);
}

TEST(NodeCacheTest, CachingKeepsLogicalAccessesAndResultsIdentical) {
  GstdOptions opt;
  opt.num_objects = 40;
  opt.samples_per_object = 120;
  opt.seed = 11;
  const TrajectoryStore store = GenerateGstd(opt);

  TBTree cached;
  cached.BuildFrom(store);
  TrajectoryIndex::Options no_cache_opt;
  no_cache_opt.node_cache_nodes = 0;
  TBTree uncached(no_cache_opt);
  uncached.BuildFrom(store);
  ASSERT_FALSE(uncached.node_cache().enabled());

  const BFMstSearch cached_search(&cached, &store);
  const BFMstSearch uncached_search(&uncached, &store);
  MstOptions q_opt;
  q_opt.k = 5;
  Rng rng(3);
  for (int i = 0; i < 10; ++i) {
    const Trajectory& q =
        store.trajectories()[rng.UniformIndex(store.trajectories().size())];
    q_opt.exclude_id = q.id();
    MstStats with_cache;
    MstStats without_cache;
    const std::vector<MstResult> a =
        cached_search.Search(q, q.Lifespan(), q_opt, &with_cache);
    const std::vector<MstResult> b =
        uncached_search.Search(q, q.Lifespan(), q_opt, &without_cache);

    // Identical answers, bit for bit.
    ASSERT_EQ(a.size(), b.size());
    for (size_t j = 0; j < a.size(); ++j) {
      EXPECT_EQ(a[j].id, b[j].id);
      EXPECT_EQ(a[j].dissim, b[j].dissim);
      EXPECT_EQ(a[j].error_bound, b[j].error_bound);
    }
    // Identical logical node accesses: the cache must be invisible to the
    // paper's I/O accounting.
    EXPECT_EQ(with_cache.nodes_accessed, without_cache.nodes_accessed);
    // Per-query cache traffic partitions the accesses exactly.
    EXPECT_EQ(with_cache.node_cache_hits + with_cache.node_cache_misses,
              with_cache.nodes_accessed);
    EXPECT_EQ(without_cache.node_cache_hits, 0);
    EXPECT_EQ(without_cache.node_cache_misses, 0);
  }
  // Across the whole run the global counters partition the same way.
  EXPECT_EQ(cached.node_cache().hits() + cached.node_cache().misses(),
            cached.node_accesses());
}

TEST(NodeCacheTest, ResetAccessCountersCoversTheCache) {
  TBTree tree;
  tree.Insert(LeafEntry::Of(1, {0.0, {0.0, 0.0}}, {1.0, {1.0, 1.0}}));
  tree.ReadNode(tree.root());
  tree.ReadNode(tree.root());
  EXPECT_GT(tree.node_cache().hits() + tree.node_cache().misses(), 0);
  tree.ResetAccessCounters();
  EXPECT_EQ(tree.node_accesses(), 0);
  EXPECT_EQ(tree.node_cache().hits(), 0);
  EXPECT_EQ(tree.node_cache().misses(), 0);
  EXPECT_EQ(tree.node_cache().invalidations(), 0);
  EXPECT_EQ(tree.buffer().logical_reads(), 0);
}

TEST(NodeCacheTest, ConcurrentHammerKeepsCountersExact) {
  constexpr int kThreads = 8;
  constexpr int kLookupsPerThread = 20000;
  constexpr int kPages = 64;
  // Small capacity forces constant eviction; a few writer threads interleave
  // invalidations so every code path contends.
  NodeCache cache(/*capacity_nodes=*/16, /*num_shards=*/8);

  std::atomic<int64_t> payload_mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads + 2);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &payload_mismatches, t] {
      Rng rng(900 + static_cast<uint64_t>(t));
      for (int i = 0; i < kLookupsPerThread; ++i) {
        const PageId id = static_cast<PageId>(rng.UniformIndex(kPages));
        uint64_t version = 0;
        if (const NodeRef node = cache.Lookup(id, &version)) {
          // Payload must always match the key, no matter the interleaving.
          if (node->leaves[0].traj_id != static_cast<TrajectoryId>(id) ||
              node->self != id) {
            payload_mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        } else {
          cache.Insert(id, MarkedLeaf(id, static_cast<TrajectoryId>(id)),
                       version);
        }
      }
    });
  }
  std::atomic<bool> stop{false};
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&cache, &stop, t] {
      Rng rng(77 + static_cast<uint64_t>(t));
      while (!stop.load(std::memory_order_relaxed)) {
        cache.Invalidate(static_cast<PageId>(rng.UniformIndex(kPages)));
        std::this_thread::yield();
      }
    });
  }
  for (int t = 0; t < kThreads; ++t) threads[static_cast<size_t>(t)].join();
  stop.store(true, std::memory_order_relaxed);
  for (size_t t = kThreads; t < threads.size(); ++t) threads[t].join();

  EXPECT_EQ(payload_mismatches.load(), 0);
  // Every lookup counted exactly one hit or one miss.
  EXPECT_EQ(cache.hits() + cache.misses(),
            static_cast<int64_t>(kThreads) * kLookupsPerThread);
  EXPECT_LE(cache.resident_nodes(), 16u);
}

TEST(NodeCacheTest, ResidentBytesAreExactDecodedBytes) {
  NodeCache cache(/*capacity_nodes=*/8, /*num_shards=*/1);

  // Each resident entry must be accounted exactly PlainNodeBytes.
  size_t expected = 0;
  for (PageId id = 1; id <= 3; ++id) {
    uint64_t version = 0;
    ASSERT_EQ(cache.Lookup(id, &version), nullptr);
    const NodeRef node = MarkedLeaf(id, 100 + static_cast<TrajectoryId>(id));
    expected += NodeCache::PlainNodeBytes(*node);
    cache.Insert(id, node, version);
  }
  EXPECT_EQ(cache.resident_nodes(), 3u);
  EXPECT_EQ(cache.resident_bytes(), expected);

  // Invalidation returns the exact bytes.
  const uint64_t dropped = NodeCache::PlainNodeBytes(*MarkedLeaf(2, 102));
  cache.Invalidate(2);
  EXPECT_EQ(cache.resident_bytes(), expected - dropped);
}

}  // namespace
}  // namespace mst

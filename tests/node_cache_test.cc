// Tests for the index's node cache — the buffer of decoded nodes behind
// ReadNode: LRU policy, exact hit/miss and byte accounting, the WriteNode
// path, and a multi-threaded search hammer meant to run under TSan
// (-DMST_SANITIZE=thread). Also pins the guarantee that the cache size never
// changes *logical* node-access counts or query results.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "src/core/mst_search.h"
#include "src/gen/gstd.h"
#include "src/index/buffer.h"
#include "src/index/rtree3d.h"
#include "src/index/tbtree.h"
#include "src/util/random.h"

namespace mst {
namespace {

// A one-entry leaf on page `self` whose trajectory id is `marker`.
IndexNode MarkedLeaf(PageId self, TrajectoryId marker) {
  IndexNode node;
  node.self = self;
  node.level = 0;
  node.leaves.push_back(
      LeafEntry::Of(marker, {0.0, {0.0, 0.0}}, {1.0, {1.0, 1.0}}));
  return node;
}

// Appends `n` pages to `f`, page id holding MarkedLeaf(id, 100 + id).
void FillMarkedFile(PageFile* f, int n) {
  for (int i = 0; i < n; ++i) {
    const PageId id = f->Allocate();
    Page page;
    MarkedLeaf(id, 100 + id).EncodeTo(&page);
    f->Write(id, page);
  }
}

TEST(NodeCacheTest, SingleShardEvictsLeastRecentlyUsed) {
  PageFile f;
  FillMarkedFile(&f, 5);
  BufferManager cache(&f, /*capacity_pages=*/3, /*num_shards=*/1);
  cache.Read(1);
  cache.Read(2);
  cache.Read(3);
  EXPECT_EQ(cache.resident_frames(), 3u);

  // Touch 1 so 2 becomes the LRU frame, then overflow with 4.
  cache.Read(1);
  cache.Read(4);
  EXPECT_EQ(cache.resident_frames(), 3u);

  const int64_t misses_before = cache.misses();
  for (const PageId id : {PageId{1}, PageId{3}, PageId{4}}) {
    const NodeRef node = cache.Read(id);
    EXPECT_EQ(node->leaves[0].traj_id, 100 + static_cast<TrajectoryId>(id));
  }
  EXPECT_EQ(cache.misses(), misses_before) << "MRU pages must be resident";
  cache.Read(2);
  EXPECT_EQ(cache.misses(), misses_before + 1) << "LRU page must be gone";
}

TEST(NodeCacheTest, HitsAndMissesSumToLookups) {
  PageFile f;
  FillMarkedFile(&f, 4);
  BufferManager cache(&f, /*capacity_pages=*/2, /*num_shards=*/1);
  const int64_t thread_misses_before = BufferManager::ThreadMisses();
  cache.Read(1);  // miss
  cache.Read(2);  // miss
  cache.Read(1);  // hit
  cache.Read(2);  // hit
  cache.Read(3);  // miss, evicts 1
  cache.Read(1);  // miss
  EXPECT_EQ(cache.logical_reads(), 6);
  EXPECT_EQ(cache.misses(), 4);
  EXPECT_EQ(cache.logical_reads() - cache.misses(), 2);  // hits
  EXPECT_EQ(BufferManager::ThreadMisses() - thread_misses_before, 4);
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

  TBTree roomy;
  roomy.BuildFrom(store);
  TrajectoryIndex::Options tiny_opt;
  tiny_opt.cache_pages = 8;
  TBTree tiny(tiny_opt);
  tiny.BuildFrom(store);
  ASSERT_EQ(tiny.node_cache().capacity(), 8u);
  roomy.ResetAccessCounters();
  tiny.ResetAccessCounters();

  const BFMstSearch roomy_search(&roomy, &store);
  const BFMstSearch tiny_search(&tiny, &store);
  MstOptions q_opt;
  q_opt.k = 5;
  Rng rng(3);
  int64_t tiny_misses = 0;
  for (int i = 0; i < 10; ++i) {
    const Trajectory& q =
        store.trajectories()[rng.UniformIndex(store.trajectories().size())];
    q_opt.exclude_id = q.id();
    MstStats with_room;
    MstStats without_room;
    const std::vector<MstResult> a =
        roomy_search.Search(q, q.Lifespan(), q_opt, &with_room);
    const std::vector<MstResult> b =
        tiny_search.Search(q, q.Lifespan(), q_opt, &without_room);

    // Identical answers, bit for bit.
    ASSERT_EQ(a.size(), b.size());
    for (size_t j = 0; j < a.size(); ++j) {
      EXPECT_EQ(a[j].id, b[j].id);
      EXPECT_EQ(a[j].dissim, b[j].dissim);
      EXPECT_EQ(a[j].error_bound, b[j].error_bound);
    }
    // Identical logical node accesses: the cache size must be invisible to
    // the paper's I/O accounting.
    EXPECT_EQ(with_room.nodes_accessed, without_room.nodes_accessed);
    // Per-query cache traffic partitions the accesses exactly.
    for (const MstStats& s : {with_room, without_room}) {
      EXPECT_GE(s.node_cache_hits, 0);
      EXPECT_GE(s.node_cache_misses, 0);
      EXPECT_EQ(s.node_cache_hits + s.node_cache_misses, s.nodes_accessed);
    }
    tiny_misses += without_room.node_cache_misses;
  }
  // Across the whole run the global counters agree with the per-query ones.
  EXPECT_EQ(roomy.buffer().logical_reads(), roomy.node_accesses());
  EXPECT_EQ(tiny.buffer().logical_reads(), tiny.node_accesses());
  EXPECT_EQ(tiny.buffer().misses(), tiny_misses);
  EXPECT_GT(tiny_misses, 0);
}

TEST(NodeCacheTest, ResetAccessCountersCoversTheCache) {
  TBTree tree;
  tree.Insert(LeafEntry::Of(1, {0.0, {0.0, 0.0}}, {1.0, {1.0, 1.0}}));
  tree.ConfigurePaperBuffer();
  tree.ReadNode(tree.root());
  tree.ReadNode(tree.root());
  EXPECT_EQ(tree.buffer().logical_reads(), 2);
  EXPECT_EQ(tree.buffer().misses(), 1);
  tree.ResetAccessCounters();
  EXPECT_EQ(tree.node_accesses(), 0);
  EXPECT_EQ(tree.buffer().logical_reads(), 0);
  EXPECT_EQ(tree.buffer().misses(), 0);
}

TEST(NodeCacheTest, ConcurrentHammerKeepsCountersExact) {
  // 8 threads search one index behind a 16-page cache, so every search
  // evicts and re-decodes nodes other threads are reading. Per-query stats
  // come from thread-local tallies; their sums must equal the shared
  // counters exactly, and every answer must equal the serial one.
  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 6;
  GstdOptions opt;
  opt.num_objects = 30;
  opt.samples_per_object = 80;
  opt.seed = 19;
  const TrajectoryStore store = GenerateGstd(opt);
  TrajectoryIndex::Options idx_opt;
  idx_opt.cache_pages = 16;
  TBTree tree(idx_opt);
  tree.BuildFrom(store);
  const BFMstSearch search(&tree, &store);
  MstOptions q_opt;
  q_opt.k = 3;

  std::vector<std::vector<MstResult>> serial;
  for (int i = 0; i < kQueriesPerThread; ++i) {
    const Trajectory& q = store.trajectories()[static_cast<size_t>(i)];
    serial.push_back(search.Search(q, q.Lifespan(), q_opt));
  }
  tree.ConfigurePaperBuffer();
  tree.ResetAccessCounters();

  std::atomic<int64_t> accesses{0};
  std::atomic<int64_t> misses{0};
  std::atomic<int64_t> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const BFMstSearch local(&tree, &store);
      for (int i = 0; i < kQueriesPerThread; ++i) {
        const int qi = (i + t) % kQueriesPerThread;
        const Trajectory& q = store.trajectories()[static_cast<size_t>(qi)];
        MstStats stats;
        const std::vector<MstResult> got =
            local.Search(q, q.Lifespan(), q_opt, &stats);
        const std::vector<MstResult>& want = serial[static_cast<size_t>(qi)];
        bool same = got.size() == want.size();
        for (size_t j = 0; same && j < got.size(); ++j) {
          same = got[j].id == want[j].id && got[j].dissim == want[j].dissim;
        }
        if (!same ||
            stats.node_cache_hits + stats.node_cache_misses !=
                stats.nodes_accessed) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        accesses.fetch_add(stats.nodes_accessed, std::memory_order_relaxed);
        misses.fetch_add(stats.node_cache_misses, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(accesses.load(), tree.node_accesses());
  EXPECT_EQ(accesses.load(), tree.buffer().logical_reads());
  EXPECT_EQ(misses.load(), tree.buffer().misses());
  EXPECT_GT(misses.load(), 0);
  EXPECT_EQ(tree.buffer().resident_frames(), 16u);
}

TEST(NodeCacheTest, ResidentBytesAreExactDecodedBytes) {
  PageFile f;
  FillMarkedFile(&f, 4);
  BufferManager cache(&f, /*capacity_pages=*/8, /*num_shards=*/1);

  // Each resident frame must be accounted exactly PlainNodeBytes.
  size_t expected = 0;
  for (PageId id = 1; id <= 3; ++id) {
    expected += BufferManager::PlainNodeBytes(*cache.Read(id));
  }
  EXPECT_EQ(cache.resident_frames(), 3u);
  EXPECT_EQ(cache.resident_bytes(), expected);

  // Swapping in an internal node replaces the leaf's bytes exactly.
  IndexNode internal;
  internal.self = 2;
  internal.level = 1;
  for (int i = 0; i < 5; ++i) {
    internal.internals.push_back({MarkedLeaf(0, 0).Bounds(), i, 0});
  }
  const size_t leaf_bytes = BufferManager::PlainNodeBytes(*cache.Read(2));
  cache.Write(internal);
  const size_t internal_bytes = BufferManager::PlainNodeBytes(*cache.Read(2));
  ASSERT_NE(leaf_bytes, internal_bytes);
  expected += internal_bytes - leaf_bytes;
  EXPECT_EQ(cache.resident_bytes(), expected);

  // Eviction returns the exact bytes of the dropped frame (page 1, LRU).
  const size_t dropped = BufferManager::PlainNodeBytes(*cache.Read(1));
  cache.Read(3);
  cache.Read(2);
  cache.SetCapacity(2);
  EXPECT_EQ(cache.resident_bytes(), expected - dropped);
  cache.Clear();
  EXPECT_EQ(cache.resident_bytes(), 0u);
}

}  // namespace
}  // namespace mst

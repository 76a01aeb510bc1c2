#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/index/buffer.h"
#include "src/index/node.h"
#include "src/index/pagefile.h"

namespace mst {
namespace {

TEST(PageTest, ScalarRoundTrip) {
  Page p;
  p.WriteAt<int32_t>(0, -7);
  p.WriteAt<double>(8, 3.25);
  p.WriteAt<int64_t>(100, 1234567890123LL);
  EXPECT_EQ(p.ReadAt<int32_t>(0), -7);
  EXPECT_DOUBLE_EQ(p.ReadAt<double>(8), 3.25);
  EXPECT_EQ(p.ReadAt<int64_t>(100), 1234567890123LL);
}

TEST(PageFileTest, AllocateReadWrite) {
  PageFile f;
  EXPECT_EQ(f.PageCount(), 0);
  const PageId a = f.Allocate();
  const PageId b = f.Allocate();
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);
  EXPECT_EQ(f.PageCount(), 2);
  EXPECT_EQ(f.SizeBytes(), 2 * static_cast<int64_t>(kPageSize));

  Page p;
  p.WriteAt<double>(0, 42.0);
  f.Write(a, p);
  Page q;
  f.Read(a, &q);
  EXPECT_DOUBLE_EQ(q.ReadAt<double>(0), 42.0);
  EXPECT_EQ(f.stats().physical_reads, 1);
  EXPECT_EQ(f.stats().physical_writes, 1);
}

TEST(PageFileTest, FreshPagesAreZeroed) {
  PageFile f;
  const PageId a = f.Allocate();
  Page p;
  f.Read(a, &p);
  for (size_t i = 0; i < kPageSize; i += 512) {
    EXPECT_EQ(p.bytes[i], 0);
  }
}

TEST(PageFileDeathTest, RejectsInvalidPage) {
  PageFile f;
  Page p;
  EXPECT_DEATH(f.Read(0, &p), "IsValid");
  EXPECT_DEATH(f.Write(3, p), "IsValid");
}

// Buffer tests that assert exact LRU order use a single shard; the sharded
// configurations are exercised in buffer_concurrency_test.cc.

TEST(BufferManagerTest, HitsAvoidPhysicalReads) {
  PageFile f;
  BufferManager buf(&f, 4, /*num_shards=*/1);
  const PageId a = buf.AllocatePage();
  buf.Flush();
  const int64_t before = f.stats().physical_reads;
  for (int i = 0; i < 10; ++i) buf.Pin(a);
  EXPECT_EQ(f.stats().physical_reads, before);  // all hits
  EXPECT_EQ(buf.logical_reads(), 10);
}

TEST(BufferManagerTest, EvictsLruAndWritesBackDirty) {
  PageFile f;
  BufferManager buf(&f, 2, /*num_shards=*/1);
  const PageId a = buf.AllocatePage();
  const PageId b = buf.AllocatePage();
  buf.PinMutable(a).mutable_page()->WriteAt<int32_t>(0, 11);
  buf.PinMutable(b).mutable_page()->WriteAt<int32_t>(0, 22);
  // Capacity 2: touching a third page evicts the LRU (a).
  const PageId c = buf.AllocatePage();
  (void)c;
  // a's dirty frame must have reached the file.
  Page raw;
  f.Read(a, &raw);
  EXPECT_EQ(raw.ReadAt<int32_t>(0), 11);
  // Re-reading a is a miss.
  const int64_t misses_before = buf.misses();
  const PageGuard ga = buf.Pin(a);
  EXPECT_EQ(buf.misses(), misses_before + 1);
  EXPECT_EQ(ga->ReadAt<int32_t>(0), 11);
}

TEST(BufferManagerTest, LruOrderRespectsRecency) {
  PageFile f;
  BufferManager buf(&f, 2, /*num_shards=*/1);
  const PageId a = buf.AllocatePage();
  const PageId b = buf.AllocatePage();
  buf.Flush();
  buf.Clear();
  buf.Pin(a);
  buf.Pin(b);
  buf.Pin(a);  // a is now MRU
  const PageId c = buf.AllocatePage();  // evicts b, not a
  (void)c;
  const int64_t misses_before = buf.misses();
  buf.Pin(a);  // hit
  EXPECT_EQ(buf.misses(), misses_before);
  buf.Pin(b);  // miss
  EXPECT_EQ(buf.misses(), misses_before + 1);
}

TEST(BufferManagerTest, FlushPersistsWithoutDropping) {
  PageFile f;
  BufferManager buf(&f, 4, /*num_shards=*/1);
  const PageId a = buf.AllocatePage();
  buf.PinMutable(a).mutable_page()->WriteAt<double>(8, 2.5);
  buf.Flush();
  Page raw;
  f.Read(a, &raw);
  EXPECT_DOUBLE_EQ(raw.ReadAt<double>(8), 2.5);
  // Still cached: no miss on next access.
  const int64_t misses_before = buf.misses();
  buf.Pin(a);
  EXPECT_EQ(buf.misses(), misses_before);
}

TEST(BufferManagerTest, SetCapacityShrinksAndEvicts) {
  PageFile f;
  BufferManager buf(&f, 8, /*num_shards=*/1);
  for (int i = 0; i < 6; ++i) buf.AllocatePage();
  buf.SetCapacity(2);
  EXPECT_EQ(buf.capacity(), 2u);
  EXPECT_LE(buf.resident_frames(), 2u);
  // All six pages must still be readable (write-back happened on eviction).
  for (PageId id = 0; id < 6; ++id) buf.Pin(id);
}

TEST(BufferManagerTest, EveryPageOccupiesOneFrame) {
  // The buffer counts frames, not bytes, and never reads a page's header to
  // size it: a page whose format byte (byte 1) is 3, the retired
  // compressed-leaf layout, still occupies exactly one frame.
  Page page;
  page.bytes[1] = 3;
  PageFile f;
  std::vector<PageId> ids;
  for (int i = 0; i < 16; ++i) {
    ids.push_back(f.Allocate());
    f.Write(ids.back(), page);
  }

  BufferManager buf(&f, 4, /*num_shards=*/1);
  for (const PageId id : ids) buf.Pin(id);
  EXPECT_EQ(buf.resident_frames(), 4u);
  const int64_t misses_before = buf.misses();
  for (const PageId id : ids) buf.Pin(id);
  EXPECT_EQ(buf.misses(), misses_before + 16);  // cyclic scan: all misses
}

TEST(BufferManagerTest, RawPagesKeepExactlyCapacityFrames) {
  // v2 leaf and v1 internal pages alike: the buffer keeps exactly
  // capacity() of them resident — the paper's page-count LRU.
  IndexNode leaf;
  leaf.level = 0;
  leaf.leaves.push_back(LeafEntry::Of(1, {0.0, {0.0, 0.0}}, {1.0, {1.0, 1.0}}));
  IndexNode internal;
  internal.level = 1;
  internal.internals.push_back({leaf.Bounds(), 0, 0});
  Page v2_page;
  Page v1_page;
  leaf.EncodeTo(&v2_page);
  internal.EncodeTo(&v1_page);
  PageFile f;
  for (int i = 0; i < 64; ++i) {
    f.Write(f.Allocate(), i % 2 == 0 ? v2_page : v1_page);
  }

  BufferManager single(&f, 5, /*num_shards=*/1);
  BufferManager sharded(&f, 16);  // default sharding: 2 pages per shard
  for (PageId id = 0; id < 64; ++id) {
    single.Pin(id);
    sharded.Pin(id);
  }
  EXPECT_EQ(single.resident_frames(), single.capacity());
  EXPECT_EQ(sharded.resident_frames(), sharded.capacity());
}

TEST(BufferManagerTest, PinnedFrameSurvivesEvictionPressure) {
  PageFile f;
  BufferManager buf(&f, 2, /*num_shards=*/1);
  for (int i = 0; i < 8; ++i) buf.AllocatePage();
  buf.PinMutable(0).mutable_page()->WriteAt<int32_t>(0, 123);
  const PageGuard pinned = buf.Pin(0);
  EXPECT_EQ(buf.pinned_frames(), 1);
  // Thrash far past capacity: page 0 must stay resident and intact.
  for (PageId id = 1; id < 8; ++id) buf.Pin(id);
  EXPECT_EQ(pinned->ReadAt<int32_t>(0), 123);
  EXPECT_EQ(pinned.id(), 0);
}

TEST(BufferManagerTest, ClearKeepsPinnedFrames) {
  PageFile f;
  BufferManager buf(&f, 4, /*num_shards=*/1);
  const PageId a = buf.AllocatePage();
  const PageId b = buf.AllocatePage();
  const PageGuard ga = buf.Pin(a);
  buf.Clear();
  EXPECT_EQ(buf.resident_frames(), 1u);  // only the pinned frame remains
  const int64_t misses_before = buf.misses();
  buf.Pin(a);  // still cached: hit
  EXPECT_EQ(buf.misses(), misses_before);
  buf.Pin(b);  // dropped by Clear: miss
  EXPECT_EQ(buf.misses(), misses_before + 1);
}

TEST(BufferManagerTest, GuardMoveTransfersThePin) {
  PageFile f;
  BufferManager buf(&f, 4, /*num_shards=*/1);
  const PageId a = buf.AllocatePage();
  PageGuard g1 = buf.Pin(a);
  EXPECT_EQ(buf.pinned_frames(), 1);
  PageGuard g2 = std::move(g1);
  EXPECT_FALSE(g1.valid());  // NOLINT(bugprone-use-after-move): testing it
  EXPECT_TRUE(g2.valid());
  EXPECT_EQ(buf.pinned_frames(), 1);
  g2.Release();
  EXPECT_EQ(buf.pinned_frames(), 0);
}

TEST(BufferManagerDeathTest, ReadOnlyGuardRejectsMutableAccess) {
  PageFile f;
  BufferManager buf(&f, 4, /*num_shards=*/1);
  const PageId a = buf.AllocatePage();
  PageGuard g = buf.Pin(a);
  EXPECT_DEATH(g.mutable_page(), "read-only");
}

TEST(BufferManagerTest, ShardedBufferServesAllPages) {
  PageFile f;
  BufferManager buf(&f, 16);  // default sharding
  EXPECT_EQ(buf.shard_count(), BufferManager::kDefaultShards);
  for (int i = 0; i < 64; ++i) buf.AllocatePage();
  for (PageId id = 0; id < 64; ++id) {
    buf.PinMutable(id).mutable_page()->WriteAt<PageId>(0, id);
  }
  buf.Flush();
  buf.Clear();
  for (PageId id = 0; id < 64; ++id) {
    EXPECT_EQ(buf.Pin(id)->ReadAt<PageId>(0), id);
  }
  EXPECT_LE(buf.resident_frames(), 16u + buf.shard_count());
}

TEST(NodeCodecTest, CapacityIs72With4KPages) {
  EXPECT_EQ(IndexNode::kCapacity, 72);
  EXPECT_EQ(sizeof(LeafEntry), IndexNode::kEntrySize);
  EXPECT_EQ(sizeof(InternalEntry), IndexNode::kEntrySize);
}

TEST(NodeCodecTest, LeafRoundTrip) {
  IndexNode node;
  node.self = 3;
  node.level = 0;
  node.parent = 9;
  node.prev_leaf = 1;
  node.next_leaf = 5;
  for (int i = 0; i < 40; ++i) {
    node.leaves.push_back(LeafEntry::Of(
        100 + i, {static_cast<double>(i), {i * 1.0, i * 2.0}},
        {i + 1.0, {i + 0.5, i * 2.0 + 1.0}}));
  }
  Page page;
  node.EncodeTo(&page);
  const IndexNode decoded = IndexNode::Decode(page, 3);
  EXPECT_EQ(decoded.self, 3);
  EXPECT_EQ(decoded.level, 0);
  EXPECT_EQ(decoded.parent, 9);
  EXPECT_EQ(decoded.prev_leaf, 1);
  EXPECT_EQ(decoded.next_leaf, 5);
  ASSERT_EQ(decoded.leaves.size(), 40u);
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(decoded.leaves[static_cast<size_t>(i)],
              node.leaves[static_cast<size_t>(i)]);
  }
}

TEST(NodeCodecTest, InternalRoundTrip) {
  IndexNode node;
  node.self = 1;
  node.level = 2;
  for (int i = 0; i < IndexNode::kCapacity; ++i) {
    Mbb3 m = Mbb3::OfSegment({i * 1.0, {0.0, 0.0}}, {i + 1.0, {1.0, i * 1.0}});
    node.internals.push_back({m, i + 10, 0});
  }
  Page page;
  node.EncodeTo(&page);
  const IndexNode decoded = IndexNode::Decode(page, 1);
  EXPECT_EQ(decoded.level, 2);
  ASSERT_EQ(decoded.internals.size(),
            static_cast<size_t>(IndexNode::kCapacity));
  for (int i = 0; i < IndexNode::kCapacity; ++i) {
    EXPECT_EQ(decoded.internals[static_cast<size_t>(i)].child, i + 10);
    EXPECT_EQ(decoded.internals[static_cast<size_t>(i)].mbb,
              node.internals[static_cast<size_t>(i)].mbb);
  }
}

TEST(NodeCodecTest, BoundsUnionsEntries) {
  IndexNode node;
  node.level = 0;
  node.leaves.push_back(LeafEntry::Of(1, {0.0, {0, 0}}, {1.0, {2, 3}}));
  node.leaves.push_back(LeafEntry::Of(2, {5.0, {-1, 4}}, {6.0, {0, 5}}));
  const Mbb3 b = node.Bounds();
  EXPECT_DOUBLE_EQ(b.xlo, -1.0);
  EXPECT_DOUBLE_EQ(b.xhi, 2.0);
  EXPECT_DOUBLE_EQ(b.ylo, 0.0);
  EXPECT_DOUBLE_EQ(b.yhi, 5.0);
  EXPECT_DOUBLE_EQ(b.tlo, 0.0);
  EXPECT_DOUBLE_EQ(b.thi, 6.0);
}

TEST(NodeCodecDeathTest, LeafOverflowAborts) {
  // The columnar leaf storage is a fixed 72-slot block, so overflow aborts
  // at the overflowing push_back — before it could ever reach EncodeTo.
  IndexNode node;
  node.level = 0;
  for (int i = 0; i < IndexNode::kCapacity; ++i) {
    node.leaves.push_back(LeafEntry::Of(i, {0.0, {0, 0}}, {1.0, {1, 1}}));
  }
  Page page;
  node.EncodeTo(&page);  // a full node still encodes fine
  EXPECT_DEATH(node.leaves.push_back(
                   LeafEntry::Of(99, {0.0, {0, 0}}, {1.0, {1, 1}})),
               "overflow");
}

}  // namespace
}  // namespace mst

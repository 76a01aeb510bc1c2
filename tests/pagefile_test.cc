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

// A one-entry leaf on page `self` whose trajectory id is `marker`.
IndexNode MarkedLeaf(PageId self, TrajectoryId marker) {
  IndexNode node;
  node.self = self;
  node.level = 0;
  node.leaves.push_back(
      LeafEntry::Of(marker, {0.0, {0.0, 0.0}}, {1.0, {1.0, 1.0}}));
  return node;
}

TrajectoryId Marker(const IndexNode& node) { return node.leaves[0].traj_id; }

// Appends `n` pages to `f`, page id holding MarkedLeaf(id, 100 + id).
void FillMarkedFile(PageFile* f, int n) {
  for (int i = 0; i < n; ++i) {
    const PageId id = f->Allocate();
    Page page;
    MarkedLeaf(id, 100 + id).EncodeTo(&page);
    f->Write(id, page);
  }
}

// Marker of page `id` as stored in the file, bypassing any buffer.
TrajectoryId FileMarker(PageFile* f, PageId id) {
  Page page;
  f->Read(id, &page);
  return Marker(IndexNode::Decode(page, id));
}

TEST(BufferManagerTest, HitsAvoidPhysicalReads) {
  PageFile f;
  FillMarkedFile(&f, 1);
  BufferManager buf(&f, 4, /*num_shards=*/1);
  EXPECT_EQ(Marker(*buf.Read(0)), 100);
  EXPECT_EQ(f.stats().physical_reads, 1);
  for (int i = 0; i < 10; ++i) buf.Read(0);
  EXPECT_EQ(f.stats().physical_reads, 1);  // all hits
  EXPECT_EQ(buf.logical_reads(), 11);
  EXPECT_EQ(buf.misses(), 1);
}

TEST(BufferManagerTest, EvictsLruAndWritesBackDirty) {
  PageFile f;
  FillMarkedFile(&f, 3);
  BufferManager buf(&f, 2, /*num_shards=*/1);
  buf.Write(MarkedLeaf(0, 11));
  buf.Write(MarkedLeaf(1, 22));
  EXPECT_EQ(f.stats().physical_writes, 3);  // only the fill so far
  // Capacity 2: reading a third page evicts the LRU frame (page 0), whose
  // dirty node must reach the file, encoded. Page 1 is still only cached.
  buf.Read(2);
  EXPECT_EQ(FileMarker(&f, 0), 11);
  EXPECT_EQ(FileMarker(&f, 1), 101);
  // Re-reading page 0 is a miss that decodes the written-back node.
  const int64_t misses_before = buf.misses();
  EXPECT_EQ(Marker(*buf.Read(0)), 11);
  EXPECT_EQ(buf.misses(), misses_before + 1);
}

TEST(BufferManagerTest, LruOrderRespectsRecency) {
  PageFile f;
  FillMarkedFile(&f, 3);
  BufferManager buf(&f, 2, /*num_shards=*/1);
  buf.Read(0);
  buf.Read(1);
  buf.Read(0);  // page 0 is now MRU
  buf.Read(2);  // evicts page 1, not page 0
  const int64_t misses_before = buf.misses();
  buf.Read(0);  // hit
  EXPECT_EQ(buf.misses(), misses_before);
  buf.Read(1);  // miss
  EXPECT_EQ(buf.misses(), misses_before + 1);
}

TEST(BufferManagerTest, FlushPersistsWithoutDropping) {
  PageFile f;
  FillMarkedFile(&f, 1);
  BufferManager buf(&f, 4, /*num_shards=*/1);
  f.ResetStats();
  buf.Write(MarkedLeaf(0, 25));
  buf.Flush();
  EXPECT_EQ(FileMarker(&f, 0), 25);
  EXPECT_EQ(f.stats().physical_writes, 1);
  buf.Flush();  // the frame is clean now: nothing more to write
  EXPECT_EQ(f.stats().physical_writes, 1);
  // Still cached: no miss on the next read.
  const int64_t misses_before = buf.misses();
  EXPECT_EQ(Marker(*buf.Read(0)), 25);
  EXPECT_EQ(buf.misses(), misses_before);
}

TEST(BufferManagerTest, ClearFlushesDirtyFramesAndDropsEveryFrame) {
  PageFile f;
  FillMarkedFile(&f, 2);
  BufferManager buf(&f, 4, /*num_shards=*/1);
  buf.Write(MarkedLeaf(0, 31));
  const NodeRef held = buf.Read(1);
  buf.Clear();
  EXPECT_EQ(buf.resident_frames(), 0u);
  EXPECT_EQ(buf.resident_bytes(), 0u);
  EXPECT_EQ(FileMarker(&f, 0), 31);
  // A held node outlives the frame it came from.
  EXPECT_EQ(Marker(*held), 101);
  const int64_t misses_before = buf.misses();
  EXPECT_EQ(Marker(*buf.Read(0)), 31);
  buf.Read(1);
  EXPECT_EQ(buf.misses(), misses_before + 2);
}

TEST(BufferManagerTest, WriteSwapsTheFrameAndHoldersKeepTheOldNode) {
  PageFile f;
  FillMarkedFile(&f, 1);
  BufferManager buf(&f, 4, /*num_shards=*/1);
  const NodeRef before = buf.Read(0);
  buf.Write(MarkedLeaf(0, 41));
  const int64_t misses_before = buf.misses();
  EXPECT_EQ(Marker(*buf.Read(0)), 41);
  EXPECT_EQ(buf.misses(), misses_before);  // served from the swapped frame
  EXPECT_EQ(Marker(*before), 100);
  EXPECT_EQ(buf.resident_frames(), 1u);
}

TEST(BufferManagerTest, SetCapacityShrinksAndEvicts) {
  PageFile f;
  FillMarkedFile(&f, 6);
  BufferManager buf(&f, 8, /*num_shards=*/1);
  f.ResetStats();
  for (PageId id = 0; id < 6; ++id) buf.Write(MarkedLeaf(id, 200 + id));
  buf.SetCapacity(2);
  EXPECT_EQ(buf.capacity(), 2u);
  EXPECT_EQ(buf.resident_frames(), 2u);
  // The four evicted frames were dirty: each was written back once.
  EXPECT_EQ(f.stats().physical_writes, 4);
  for (PageId id = 0; id < 6; ++id) {
    EXPECT_EQ(Marker(*buf.Read(id)), 200 + id);
  }
}

TEST(BufferManagerTest, EveryPageOccupiesOneFrame) {
  // The buffer counts frames, not bytes: an empty leaf, a full leaf and an
  // internal node each occupy exactly one.
  IndexNode empty_leaf;
  empty_leaf.level = 0;
  IndexNode full_leaf;
  full_leaf.level = 0;
  for (int i = 0; i < IndexNode::kCapacity; ++i) {
    full_leaf.leaves.push_back(
        LeafEntry::Of(i, {0.0, {0.0, 0.0}}, {1.0, {1.0, 1.0}}));
  }
  IndexNode internal;
  internal.level = 1;
  internal.internals.push_back({full_leaf.Bounds(), 0, 0});
  const IndexNode* kinds[] = {&empty_leaf, &full_leaf, &internal};
  PageFile f;
  for (int i = 0; i < 16; ++i) {
    Page page;
    kinds[i % 3]->EncodeTo(&page);
    f.Write(f.Allocate(), page);
  }

  BufferManager buf(&f, 4, /*num_shards=*/1);
  for (PageId id = 0; id < 16; ++id) buf.Read(id);
  EXPECT_EQ(buf.resident_frames(), 4u);
  const int64_t misses_before = buf.misses();
  for (PageId id = 0; id < 16; ++id) buf.Read(id);
  EXPECT_EQ(buf.misses(), misses_before + 16);  // cyclic scan: all misses
}

TEST(BufferManagerTest, RawPagesKeepExactlyCapacityFrames) {
  // v2 leaf and v1 internal pages alike decode into frames, and the buffer
  // keeps exactly capacity() of them resident — the paper's page-count LRU.
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
    EXPECT_EQ(single.Read(id)->level, id % 2);
    sharded.Read(id);
  }
  EXPECT_EQ(single.resident_frames(), single.capacity());
  EXPECT_EQ(sharded.resident_frames(), sharded.capacity());
}

TEST(BufferManagerTest, PinnedFrameSurvivesEvictionPressure) {
  // A held NodeRef is the pin: thrashing far past capacity evicts the frame
  // from the buffer, never the node from its holder.
  PageFile f;
  FillMarkedFile(&f, 8);
  BufferManager buf(&f, 2, /*num_shards=*/1);
  buf.Write(MarkedLeaf(0, 123));
  const NodeRef pinned = buf.Read(0);
  for (PageId id = 1; id < 8; ++id) buf.Read(id);
  EXPECT_EQ(buf.resident_frames(), 2u);
  EXPECT_EQ(Marker(*pinned), 123);
  EXPECT_EQ(pinned->self, 0);
  EXPECT_EQ(FileMarker(&f, 0), 123);  // written back when evicted
}

TEST(BufferManagerTest, ShardedBufferServesAllPages) {
  PageFile f;
  FillMarkedFile(&f, 64);
  BufferManager buf(&f, 16);  // default sharding
  EXPECT_EQ(buf.shard_count(), BufferManager::kDefaultShards);
  for (PageId id = 0; id < 64; ++id) buf.Write(MarkedLeaf(id, 1000 + id));
  buf.Flush();
  buf.Clear();
  for (PageId id = 0; id < 64; ++id) {
    const NodeRef node = buf.Read(id);
    EXPECT_EQ(node->self, id);
    EXPECT_EQ(Marker(*node), 1000 + id);
  }
  EXPECT_EQ(buf.resident_frames(), 16u);
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

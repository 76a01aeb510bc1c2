// Randomized round-trip tests of the node codec: the v2 (columnar) leaf-page
// layout, internal pages, the version-byte dispatch and the retired layouts
// it refuses, the fixed v2 column offsets, and the guarantee that a saved
// and reloaded index file answers queries identically.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "src/core/mst_search.h"
#include "src/gen/gstd.h"
#include "src/index/node.h"
#include "src/index/pagefile.h"
#include "src/index/tbtree.h"
#include "src/io/index_io.h"
#include "src/util/random.h"

namespace mst {
namespace {

LeafEntry RandomLeafEntry(Rng* rng) {
  LeafEntry e;
  // Ids spanning the full positive int64 range, coordinates of both signs
  // and wildly different magnitudes — the codec must be value-agnostic.
  e.traj_id = rng->UniformInt(0, int64_t{1} << 62);
  e.t0 = rng->Uniform(-1e6, 1e6);
  e.t1 = e.t0 + rng->Uniform(1e-9, 1e4);
  e.x0 = rng->Uniform(-1e8, 1e8);
  e.y0 = rng->Uniform(-1e8, 1e8);
  e.x1 = rng->Uniform(-1e8, 1e8);
  e.y1 = rng->Uniform(-1e8, 1e8);
  return e;
}

IndexNode RandomLeafNode(Rng* rng, int count, bool time_sorted) {
  IndexNode node;
  node.self = static_cast<PageId>(rng->UniformInt(0, 1 << 20));
  node.level = 0;
  node.parent = static_cast<PageId>(rng->UniformInt(-1, 1 << 20));
  node.prev_leaf = static_cast<PageId>(rng->UniformInt(-1, 1 << 20));
  node.next_leaf = static_cast<PageId>(rng->UniformInt(-1, 1 << 20));
  std::vector<LeafEntry> entries;
  entries.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) entries.push_back(RandomLeafEntry(rng));
  if (time_sorted) {
    std::sort(entries.begin(), entries.end(),
              [](const LeafEntry& a, const LeafEntry& b) {
                if (a.t0 != b.t0) return a.t0 < b.t0;
                return a.traj_id < b.traj_id;
              });
  }
  for (const LeafEntry& e : entries) node.leaves.push_back(e);
  return node;
}

bool EntriesTimeSorted(const IndexNode& node) {
  const std::vector<LeafEntry> v = node.leaves.ToVector();
  return std::is_sorted(v.begin(), v.end(),
                        [](const LeafEntry& a, const LeafEntry& b) {
                          if (a.t0 != b.t0) return a.t0 < b.t0;
                          return a.traj_id < b.traj_id;
                        });
}

void ExpectNodesEqual(const IndexNode& got, const IndexNode& want) {
  EXPECT_EQ(got.level, want.level);
  EXPECT_EQ(got.parent, want.parent);
  EXPECT_EQ(got.prev_leaf, want.prev_leaf);
  EXPECT_EQ(got.next_leaf, want.next_leaf);
  ASSERT_EQ(got.Count(), want.Count());
  for (size_t i = 0; i < want.leaves.size(); ++i) {
    EXPECT_EQ(got.leaves[i], want.leaves[i]) << "entry " << i;
  }
  // Derived metadata must round-trip too (the v2 header stores it).
  EXPECT_EQ(got.leaves.time_sorted(), EntriesTimeSorted(want));
  const Mbb3 gb = got.Bounds();
  const Mbb3 wb = want.Bounds();
  EXPECT_EQ(gb.xlo, wb.xlo);
  EXPECT_EQ(gb.ylo, wb.ylo);
  EXPECT_EQ(gb.tlo, wb.tlo);
  EXPECT_EQ(gb.xhi, wb.xhi);
  EXPECT_EQ(gb.yhi, wb.yhi);
  EXPECT_EQ(gb.thi, wb.thi);
}

TEST(NodeCodecRandomTest, LeafRoundTrip) {
  Rng rng(20260805);
  for (int trial = 0; trial < 100; ++trial) {
    const int count =
        static_cast<int>(rng.UniformInt(0, IndexNode::kCapacity));
    const bool sorted = rng.Bernoulli(0.5);
    const IndexNode node = RandomLeafNode(&rng, count, sorted);
    Page page;
    node.EncodeTo(&page);
    const IndexNode decoded = IndexNode::Decode(page, node.self);
    EXPECT_EQ(decoded.self, node.self);
    ExpectNodesEqual(decoded, node);
  }
}

TEST(NodeCodecRandomTest, InternalRoundTrip) {
  Rng rng(77);
  for (int trial = 0; trial < 50; ++trial) {
    IndexNode node;
    node.self = 3;
    node.level = static_cast<int32_t>(rng.UniformInt(1, 5));
    node.parent = static_cast<PageId>(rng.UniformInt(-1, 100));
    const int count = static_cast<int>(rng.UniformInt(1, IndexNode::kCapacity));
    for (int i = 0; i < count; ++i) {
      InternalEntry e;
      e.child = static_cast<PageId>(rng.UniformInt(0, 1 << 20));
      e.mbb = RandomLeafEntry(&rng).Bounds();
      node.internals.push_back(e);
    }
    Page page;
    node.EncodeTo(&page);
    const IndexNode decoded = IndexNode::Decode(page, node.self);
    EXPECT_EQ(decoded.level, node.level);
    EXPECT_EQ(decoded.parent, node.parent);
    ASSERT_EQ(decoded.Count(), node.Count());
    for (int i = 0; i < count; ++i) {
      const size_t s = static_cast<size_t>(i);
      EXPECT_EQ(decoded.internals[s].child, node.internals[s].child);
      EXPECT_EQ(decoded.internals[s].mbb.xlo, node.internals[s].mbb.xlo);
      EXPECT_EQ(decoded.internals[s].mbb.thi, node.internals[s].mbb.thi);
    }
  }
}

TEST(NodeCodecRandomTest, VersionByteDiscriminates) {
  Rng rng(1);
  const IndexNode node = RandomLeafNode(&rng, 10, /*time_sorted=*/true);
  Page v2;
  node.EncodeTo(&v2);
  // Byte 1 is the discriminator: the format version in leaf pages, the
  // second byte of the little-endian level (always 0) in v1 internal pages.
  EXPECT_EQ(v2.bytes[1], 2);
  IndexNode internal;
  internal.level = 1;
  internal.internals.push_back({node.Bounds(), 7, 0});
  Page pi;
  internal.EncodeTo(&pi);
  EXPECT_EQ(pi.bytes[1], 0);
  EXPECT_EQ(IndexNode::Decode(pi, 0).level, 1);
  EXPECT_EQ(ValidateNodePage(v2), "");
  EXPECT_EQ(ValidateNodePage(pi), "");
  // A v1 leaf (level 0 under format byte 0) is not a supported layout.
  Page v1_leaf = pi;
  v1_leaf.WriteAt<int32_t>(0, 0);
  EXPECT_NE(ValidateNodePage(v1_leaf).find("v1 (row-major) leaf"),
            std::string::npos);
  // Format byte 3 was the retired v3 compressed leaf layout.
  Page v3_leaf = v2;
  v3_leaf.bytes[1] = 3;
  EXPECT_NE(ValidateNodePage(v3_leaf)
                .find("v3 leaf pages are no longer supported"),
            std::string::npos);
  // Format byte 4 was the retired v3 compressed internal layout.
  Page v3_internal = pi;
  v3_internal.bytes[1] = 4;
  EXPECT_NE(ValidateNodePage(v3_internal)
                .find("v3 internal pages are no longer supported"),
            std::string::npos);
}

TEST(NodeCodecRandomTest, V2ColumnsAtFixedOffsets) {
  // Locks the on-disk v2 layout: capacity-strided columns starting right
  // after the 64-byte header, in t0 x0 y0 t1 x1 y1 id order.
  Rng rng(9);
  const IndexNode node = RandomLeafNode(&rng, 17, /*time_sorted=*/false);
  Page page;
  node.EncodeTo(&page);
  const size_t stride = sizeof(double) * static_cast<size_t>(kNodeCapacity);
  for (size_t i = 0; i < node.leaves.size(); ++i) {
    const LeafEntry e = node.leaves[i];
    double d = 0.0;
    std::memcpy(&d, &page.bytes[kLeafHeaderV2Size + i * 8], 8);
    EXPECT_EQ(d, e.t0);
    std::memcpy(&d, &page.bytes[kLeafHeaderV2Size + stride + i * 8], 8);
    EXPECT_EQ(d, e.x0);
    std::memcpy(&d, &page.bytes[kLeafHeaderV2Size + 5 * stride + i * 8], 8);
    EXPECT_EQ(d, e.y1);
    TrajectoryId id = 0;
    std::memcpy(&id, &page.bytes[kLeafHeaderV2Size + 6 * stride + i * 8], 8);
    EXPECT_EQ(id, e.traj_id);
  }
  EXPECT_EQ(page.bytes[3], 17);  // count byte
}

TEST(NodeCodecRandomTest, EncodeDeterministicAndIdempotent) {
  Rng rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    const int count =
        static_cast<int>(rng.UniformInt(0, IndexNode::kCapacity));
    const IndexNode node = RandomLeafNode(&rng, count, rng.Bernoulli(0.5));
    Page a;
    Page b;
    node.EncodeTo(&a);
    node.EncodeTo(&b);
    EXPECT_EQ(a.bytes, b.bytes) << "same node must encode identically";
    // decode(encode(n)) re-encodes to the same bytes (zero-tail invariant).
    const IndexNode decoded = IndexNode::Decode(a, node.self);
    Page c;
    decoded.EncodeTo(&c);
    EXPECT_EQ(a.bytes, c.bytes);
  }
}

TEST(NodeCodecRandomTest, ClearedAndRefilledLeafEncodesLikeFresh) {
  // clear() must restore the zero-tail invariant so reused nodes stay
  // byte-deterministic (buffer frames are recycled the same way).
  Rng rng(7);
  IndexNode reused = RandomLeafNode(&rng, IndexNode::kCapacity, false);
  Rng rng2(123);
  IndexNode fresh = RandomLeafNode(&rng2, 5, true);
  reused.leaves.clear();
  for (size_t i = 0; i < fresh.leaves.size(); ++i) {
    reused.leaves.push_back(fresh.leaves[i]);
  }
  reused.level = fresh.level;
  reused.parent = fresh.parent;
  reused.prev_leaf = fresh.prev_leaf;
  reused.next_leaf = fresh.next_leaf;
  Page a;
  Page b;
  reused.EncodeTo(&a);
  fresh.EncodeTo(&b);
  EXPECT_EQ(a.bytes, b.bytes);
}

// A tree built in memory and the same tree saved and reloaded must produce
// bitwise-identical results and identical node-access counts.
TEST(NodeCodecCompatTest, ReloadedFileQueriesIdentical) {
  GstdOptions gopt;
  gopt.num_objects = 40;
  gopt.samples_per_object = 60;
  gopt.timestamp_jitter = 0.4;
  gopt.seed = 424242;
  const TrajectoryStore store = GenerateGstd(gopt);

  TBTree tree;
  tree.BuildFrom(store);
  const std::string path = ::testing::TempDir() + "/reloaded_index.bin";
  ASSERT_TRUE(SaveIndex(tree, path));
  std::string error;
  const auto loaded = LoadIndex(path, &error);
  ASSERT_NE(loaded, nullptr) << error;
  ASSERT_EQ(loaded->NodeCount(), tree.NodeCount());
  ASSERT_EQ(loaded->root(), tree.root());
  loaded->CheckInvariants();

  const BFMstSearch s_built(&tree, &store);
  const BFMstSearch s_loaded(loaded.get(), &store);
  MstOptions options;
  options.k = 5;
  for (size_t qi = 0; qi < store.size(); qi += 7) {
    const Trajectory& query = store.trajectories()[qi];
    options.exclude_id = query.id();
    const TimeInterval period = query.Lifespan();
    MstStats st_built;
    MstStats st_loaded;
    const auto r_built = s_built.Search(query, period, options, &st_built);
    const auto r_loaded = s_loaded.Search(query, period, options, &st_loaded);
    ASSERT_EQ(r_loaded.size(), r_built.size());
    for (size_t i = 0; i < r_built.size(); ++i) {
      EXPECT_EQ(r_loaded[i].id, r_built[i].id);
      EXPECT_EQ(r_loaded[i].dissim, r_built[i].dissim);
    }
    EXPECT_EQ(st_loaded.nodes_accessed, st_built.nodes_accessed);
    EXPECT_EQ(st_loaded.leaf_entries_seen, st_built.leaf_entries_seen);
  }
}

}  // namespace
}  // namespace mst

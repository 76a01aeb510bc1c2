// Randomized round-trip tests of the node codec: the v2 (columnar) and v3
// (compressed columnar) leaf-page layouts, internal pages, the version-byte
// dispatch, the fixed v2 column offsets, and the guarantee that an index
// file written in any supported format answers queries identically.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "src/core/mst_search.h"
#include "src/gen/gstd.h"
#include "src/index/leaf_codec_v3.h"
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
  // Derived metadata must round-trip too (both formats store it in the
  // header).
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

TEST(NodeCodecRandomTest, LeafRoundTripBothFormats) {
  Rng rng(20260805);
  for (const LeafPageFormat format :
       {LeafPageFormat::kV2Soa, LeafPageFormat::kV3Compressed}) {
    for (int trial = 0; trial < 100; ++trial) {
      const int count =
          static_cast<int>(rng.UniformInt(0, IndexNode::kCapacity));
      const bool sorted = rng.Bernoulli(0.5);
      const IndexNode node = RandomLeafNode(&rng, count, sorted);
      Page page;
      node.EncodeTo(&page, format);
      const IndexNode decoded = IndexNode::Decode(page, node.self);
      EXPECT_EQ(decoded.self, node.self);
      ExpectNodesEqual(decoded, node);
    }
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
  Page v3;
  node.EncodeTo(&v2, LeafPageFormat::kV2Soa);
  node.EncodeTo(&v3, LeafPageFormat::kV3Compressed);
  // Byte 1 is the discriminator: the format version in leaf pages, the
  // second byte of the little-endian level (always 0) in v1 internal pages.
  EXPECT_EQ(v2.bytes[1], static_cast<uint8_t>(LeafPageFormat::kV2Soa));
  EXPECT_EQ(v3.bytes[1], static_cast<uint8_t>(LeafPageFormat::kV3Compressed));
  // Internal nodes take the v1 path regardless of the leaf format.
  IndexNode internal;
  internal.level = 1;
  internal.internals.push_back({node.Bounds(), 7, 0});
  Page pi;
  internal.EncodeTo(&pi, LeafPageFormat::kV2Soa);
  EXPECT_EQ(pi.bytes[1], 0);
  EXPECT_EQ(IndexNode::Decode(pi, 0).level, 1);
  EXPECT_EQ(ValidateNodePage(v2), "");
  EXPECT_EQ(ValidateNodePage(v3), "");
  EXPECT_EQ(ValidateNodePage(pi), "");
  // A v1 leaf (level 0 under format byte 0) is not a supported layout.
  Page v1_leaf = pi;
  v1_leaf.WriteAt<int32_t>(0, 0);
  EXPECT_NE(ValidateNodePage(v1_leaf).find("v1 (row-major) leaf"),
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
  node.EncodeTo(&page, LeafPageFormat::kV2Soa);
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
    node.EncodeTo(&a, LeafPageFormat::kV2Soa);
    node.EncodeTo(&b, LeafPageFormat::kV2Soa);
    EXPECT_EQ(a.bytes, b.bytes) << "same node must encode identically";
    // decode(encode(n)) re-encodes to the same bytes (zero-tail invariant).
    const IndexNode decoded = IndexNode::Decode(a, node.self);
    Page c;
    decoded.EncodeTo(&c, LeafPageFormat::kV2Soa);
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
  reused.EncodeTo(&a, LeafPageFormat::kV2Soa);
  fresh.EncodeTo(&b, LeafPageFormat::kV2Soa);
  EXPECT_EQ(a.bytes, b.bytes);
}

// ---------------------------------------------------------------------------
// v3 compressed leaf pages.

// Exact bit patterns, not just value equality: -0.0 vs 0.0 and denormals
// must survive the codec, which operator== on doubles cannot see.
void ExpectBitwiseEqualLeaves(const IndexNode& got, const IndexNode& want) {
  ASSERT_EQ(got.Count(), want.Count());
  for (size_t i = 0; i < want.leaves.size(); ++i) {
    const LeafEntry g = got.leaves[i];
    const LeafEntry w = want.leaves[i];
    EXPECT_EQ(std::bit_cast<uint64_t>(g.t0), std::bit_cast<uint64_t>(w.t0));
    EXPECT_EQ(std::bit_cast<uint64_t>(g.x0), std::bit_cast<uint64_t>(w.x0));
    EXPECT_EQ(std::bit_cast<uint64_t>(g.y0), std::bit_cast<uint64_t>(w.y0));
    EXPECT_EQ(std::bit_cast<uint64_t>(g.t1), std::bit_cast<uint64_t>(w.t1));
    EXPECT_EQ(std::bit_cast<uint64_t>(g.x1), std::bit_cast<uint64_t>(w.x1));
    EXPECT_EQ(std::bit_cast<uint64_t>(g.y1), std::bit_cast<uint64_t>(w.y1));
    EXPECT_EQ(g.traj_id, w.traj_id) << "entry " << i;
  }
}

// A TB-tree-shaped leaf: consecutive segments of one trajectory, so end
// columns chain into the next start (kColLink territory) and the id column
// is constant.
IndexNode ChainLeafNode(Rng* rng, int count) {
  IndexNode node;
  node.self = 5;
  node.level = 0;
  node.parent = 2;
  node.prev_leaf = 4;
  node.next_leaf = 6;
  const TrajectoryId id = rng->UniformInt(0, 1 << 20);
  double t = rng->Uniform(100.0, 1000.0);
  double x = rng->Uniform(100.0, 150.0);
  double y = rng->Uniform(100.0, 150.0);
  for (int i = 0; i < count; ++i) {
    LeafEntry e;
    e.traj_id = id;
    e.t0 = t;
    e.x0 = x;
    e.y0 = y;
    t += rng->Uniform(0.5, 2.0);
    x += rng->Uniform(-0.5, 0.5);
    y += rng->Uniform(-0.5, 0.5);
    e.t1 = t;
    e.x1 = x;
    e.y1 = y;
    node.leaves.push_back(e);
  }
  return node;
}

TEST(NodeCodecV3Test, ChainLeafUsesLinkAndConstAndCompresses) {
  Rng rng(20260808);
  for (int trial = 0; trial < 20; ++trial) {
    const IndexNode node = ChainLeafNode(&rng, IndexNode::kCapacity);
    Page page;
    node.EncodeTo(&page, LeafPageFormat::kV3Compressed);
    ASSERT_TRUE(IsV3LeafPage(page));
    const auto tags = V3ColumnTags(page);
    EXPECT_EQ(tags[3], kColLink);   // t1 chains into t0
    EXPECT_EQ(tags[4], kColLink);   // x1 chains into x0
    EXPECT_EQ(tags[5], kColLink);   // y1 chains into y0
    EXPECT_EQ(tags[6], kColConst);  // single trajectory id
    // The page must beat the 2x compression the format exists for.
    EXPECT_LT(LeafPageOccupiedBytes(page), kPageSize / 2);
    const IndexNode decoded = IndexNode::Decode(page, node.self);
    ExpectNodesEqual(decoded, node);
    ExpectBitwiseEqualLeaves(decoded, node);
  }
}

TEST(NodeCodecV3Test, GridAlignedCoordinatesUseFixedPoint) {
  Rng rng(88);
  IndexNode node;
  node.self = 1;
  node.level = 0;
  double t = 0.0;
  for (int i = 0; i < IndexNode::kCapacity; ++i) {
    LeafEntry e;
    e.traj_id = 7;
    e.t0 = t;
    e.t1 = (t += 1.0);
    // Coordinates on a 2^-10 grid spanning [0, 1000): exactly reproducible
    // as scaled integers, but spread across enough binades that plain FoR
    // over the double bits cannot beat the fixed-point form.
    e.x0 = static_cast<double>(rng.UniformInt(0, 1024000)) / 1024.0;
    e.y0 = static_cast<double>(rng.UniformInt(0, 1024000)) / 1024.0;
    e.x1 = static_cast<double>(rng.UniformInt(0, 1024000)) / 1024.0;
    e.y1 = static_cast<double>(rng.UniformInt(0, 1024000)) / 1024.0;
    node.leaves.push_back(e);
  }
  Page page;
  node.EncodeTo(&page, LeafPageFormat::kV3Compressed);
  ASSERT_TRUE(IsV3LeafPage(page));
  const auto tags = V3ColumnTags(page);
  EXPECT_EQ(tags[1], kColFixed);  // x0
  EXPECT_EQ(tags[2], kColFixed);  // y0
  const IndexNode decoded = IndexNode::Decode(page, node.self);
  ExpectBitwiseEqualLeaves(decoded, node);
}

TEST(NodeCodecV3Test, ConstantColumnsCollapseToOneWord) {
  LeafEntry e;
  e.traj_id = 123456789;
  e.t0 = 10.25;
  e.t1 = 11.5;
  e.x0 = -3.75;
  e.y0 = 1e-3;
  e.x1 = -3.5;
  e.y1 = 2e-3;
  IndexNode node;
  node.self = 9;
  node.level = 0;
  for (int i = 0; i < IndexNode::kCapacity; ++i) node.leaves.push_back(e);
  Page page;
  node.EncodeTo(&page, LeafPageFormat::kV3Compressed);
  ASSERT_TRUE(IsV3LeafPage(page));
  for (const uint8_t tag : V3ColumnTags(page)) EXPECT_EQ(tag, kColConst);
  // Header + subheader + 7 one-word payloads.
  EXPECT_EQ(LeafPageOccupiedBytes(page), kV3OffPayload + 7 * 8);
  ExpectBitwiseEqualLeaves(IndexNode::Decode(page, node.self), node);
}

TEST(NodeCodecV3Test, ExtremeValuesRoundTripBitwise) {
  // NaN-free adversarial doubles: extremes of magnitude, denormals, and the
  // two zeros. Mixed signs defeat every compressed encoding, so this also
  // exercises raw columns inside a v3 page (few entries, so it still fits).
  const double specials[] = {std::numeric_limits<double>::max(),
                             -std::numeric_limits<double>::max(),
                             std::numeric_limits<double>::min(),
                             std::numeric_limits<double>::denorm_min(),
                             -std::numeric_limits<double>::denorm_min(),
                             -0.0,
                             0.0,
                             1.0 + std::numeric_limits<double>::epsilon()};
  IndexNode node;
  node.self = 3;
  node.level = 0;
  const int n = static_cast<int>(std::size(specials));
  for (int i = 0; i < n; ++i) {
    LeafEntry e;
    e.traj_id = (int64_t{1} << 62) + i;
    e.t0 = specials[i];
    e.t1 = specials[(i + 1) % n];
    e.x0 = specials[(i + 2) % n];
    e.y0 = specials[(i + 3) % n];
    e.x1 = specials[(i + 4) % n];
    e.y1 = specials[(i + 5) % n];
    node.leaves.push_back(e);
  }
  Page page;
  node.EncodeTo(&page, LeafPageFormat::kV3Compressed);
  ASSERT_TRUE(IsV3LeafPage(page));
  ExpectBitwiseEqualLeaves(IndexNode::Decode(page, node.self), node);
}

TEST(NodeCodecV3Test, SingleEntryAndEmptyLeavesRoundTrip) {
  Rng rng(5);
  for (const int count : {0, 1}) {
    const IndexNode node = RandomLeafNode(&rng, count, true);
    Page page;
    node.EncodeTo(&page, LeafPageFormat::kV3Compressed);
    ASSERT_TRUE(IsV3LeafPage(page));
    ExpectNodesEqual(IndexNode::Decode(page, node.self), node);
  }
}

TEST(NodeCodecV3Test, IncompressibleFullLeafDegradesToV2Page) {
  // A full leaf of sign-mixed wide-range randoms compresses under no
  // encoding; the writer must fall back to a plain v2 page rather than
  // overflow, and the reader dispatches on the version byte as usual.
  Rng rng(606);
  const IndexNode node = RandomLeafNode(&rng, IndexNode::kCapacity, false);
  Page page;
  node.EncodeTo(&page, LeafPageFormat::kV3Compressed);
  EXPECT_FALSE(IsV3LeafPage(page));
  ASSERT_EQ(page.bytes[1], static_cast<uint8_t>(LeafPageFormat::kV2Soa));
  EXPECT_EQ(LeafPageOccupiedBytes(page), kPageSize);
  ExpectNodesEqual(IndexNode::Decode(page, node.self), node);
}

TEST(NodeCodecV3Test, EncodeDeterministicAndIdempotent) {
  Rng rng(4242);
  for (int trial = 0; trial < 20; ++trial) {
    const int count = static_cast<int>(rng.UniformInt(1, IndexNode::kCapacity));
    const IndexNode node = ChainLeafNode(&rng, count);
    Page a;
    Page b;
    node.EncodeTo(&a, LeafPageFormat::kV3Compressed);
    node.EncodeTo(&b, LeafPageFormat::kV3Compressed);
    EXPECT_EQ(a.bytes, b.bytes) << "same node must encode identically";
    const IndexNode decoded = IndexNode::Decode(a, node.self);
    Page c;
    decoded.EncodeTo(&c, LeafPageFormat::kV3Compressed);
    EXPECT_EQ(a.bytes, c.bytes);
  }
}

TEST(NodeCodecV3Test, ValidateAcceptsSoundAndNamesCorruption) {
  Rng rng(17);
  const IndexNode node = ChainLeafNode(&rng, 40);
  Page good;
  node.EncodeTo(&good, LeafPageFormat::kV3Compressed);
  ASSERT_TRUE(IsV3LeafPage(good));
  EXPECT_EQ(ValidateV3LeafPage(good), "");

  Page v2;
  node.EncodeTo(&v2, LeafPageFormat::kV2Soa);
  EXPECT_NE(ValidateV3LeafPage(v2).find("not a v3"), std::string::npos);

  Page bad = good;
  bad.bytes[kV3OffTags] = 200;  // no such encoding
  EXPECT_NE(ValidateV3LeafPage(bad).find("encoding tag"), std::string::npos);

  bad = good;
  bad.bytes[kV3OffTags] = kColLink;  // link is only legal on end columns
  EXPECT_NE(ValidateV3LeafPage(bad).find("start column"), std::string::npos);

  bad = good;
  bad.bytes[3] = 255;  // count beyond capacity
  EXPECT_NE(ValidateV3LeafPage(bad).find("entry count"), std::string::npos);

  bad = good;
  // Column 0's little-endian uint16 length, inflated past the page.
  bad.bytes[kV3OffLengths] = 0xff;
  bad.bytes[kV3OffLengths + 1] = 0xff;
  EXPECT_NE(ValidateV3LeafPage(bad).find("overflow"), std::string::npos);

  bad = good;
  bad.bytes[kV3OffLengths] += 1;  // mis-sized but still fits the page
  EXPECT_NE(ValidateV3LeafPage(bad).find("mis-sized"), std::string::npos);
}

// Both leaf formats, built in memory and saved and reloaded (a v3 file may
// mix v2 fallback pages for incompressible leaves in with the v3 ones), must
// produce bitwise-identical results and identical node-access counts.
TEST(NodeCodecCompatTest, MixedFormatFilesQueryIdentical) {
  GstdOptions gopt;
  gopt.num_objects = 40;
  gopt.samples_per_object = 60;
  gopt.timestamp_jitter = 0.4;
  gopt.seed = 424242;
  const TrajectoryStore store = GenerateGstd(gopt);

  TBTree v2tree;  // default options write v2 pages
  v2tree.BuildFrom(store);
  TBTree::Options v3opt;
  v3opt.leaf_format = LeafPageFormat::kV3Compressed;
  TBTree v3tree(v3opt);
  v3tree.BuildFrom(store);

  // Compression must not change the tree shape: same pages, same root.
  ASSERT_EQ(v3tree.NodeCount(), v2tree.NodeCount());
  ASSERT_EQ(v3tree.root(), v2tree.root());
  v3tree.CheckInvariants();

  const std::string v2_path = ::testing::TempDir() + "/v2_index.bin";
  const std::string v3_path = ::testing::TempDir() + "/v3_index.bin";
  ASSERT_TRUE(SaveIndex(v2tree, v2_path));
  ASSERT_TRUE(SaveIndex(v3tree, v3_path));
  std::string error;
  const auto loaded_v2 = LoadIndex(v2_path, &error);
  ASSERT_NE(loaded_v2, nullptr) << error;
  const auto loaded_v3 = LoadIndex(v3_path, &error);
  ASSERT_NE(loaded_v3, nullptr) << error;
  loaded_v2->CheckInvariants();
  loaded_v3->CheckInvariants();

  const BFMstSearch s_v2(&v2tree, &store);
  const BFMstSearch s_v3(&v3tree, &store);
  const BFMstSearch s_loaded_v2(loaded_v2.get(), &store);
  const BFMstSearch s_loaded_v3(loaded_v3.get(), &store);
  MstOptions options;
  options.k = 5;
  for (size_t qi = 0; qi < store.size(); qi += 7) {
    const Trajectory& query = store.trajectories()[qi];
    options.exclude_id = query.id();
    const TimeInterval period = query.Lifespan();
    MstStats st_v2;
    MstStats st_v3;
    MstStats st_loaded_v2;
    MstStats st_loaded_v3;
    const auto r_v2 = s_v2.Search(query, period, options, &st_v2);
    const auto r_v3 = s_v3.Search(query, period, options, &st_v3);
    const auto r_loaded_v2 =
        s_loaded_v2.Search(query, period, options, &st_loaded_v2);
    const auto r_loaded_v3 =
        s_loaded_v3.Search(query, period, options, &st_loaded_v3);
    ASSERT_EQ(r_v3.size(), r_v2.size());
    ASSERT_EQ(r_loaded_v2.size(), r_v2.size());
    ASSERT_EQ(r_loaded_v3.size(), r_v2.size());
    for (size_t i = 0; i < r_v2.size(); ++i) {
      EXPECT_EQ(r_v3[i].id, r_v2[i].id);
      EXPECT_EQ(r_v3[i].dissim, r_v2[i].dissim);
      EXPECT_EQ(r_loaded_v2[i].id, r_v2[i].id);
      EXPECT_EQ(r_loaded_v2[i].dissim, r_v2[i].dissim);
      EXPECT_EQ(r_loaded_v3[i].id, r_v2[i].id);
      EXPECT_EQ(r_loaded_v3[i].dissim, r_v2[i].dissim);
    }
    // Node accesses (the paper's I/O metric) are layout-independent.
    EXPECT_EQ(st_v3.nodes_accessed, st_v2.nodes_accessed);
    EXPECT_EQ(st_loaded_v2.nodes_accessed, st_v2.nodes_accessed);
    EXPECT_EQ(st_loaded_v3.nodes_accessed, st_v2.nodes_accessed);
    EXPECT_EQ(st_v3.leaf_entries_seen, st_v2.leaf_entries_seen);
  }
}

}  // namespace
}  // namespace mst

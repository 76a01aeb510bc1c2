#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>

#include "src/core/linear_scan.h"
#include "src/core/mst_search.h"
#include "src/gen/gstd.h"
#include "src/index/rtree3d.h"
#include "src/index/strtree.h"
#include "src/index/tbtree.h"
#include "src/io/csv.h"
#include "src/io/index_io.h"

namespace mst {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void WriteFile(const std::string& path, const std::string& content) {
  FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
}

TrajectoryStore SampleStore() {
  GstdOptions opt;
  opt.num_objects = 8;
  opt.samples_per_object = 40;
  opt.timestamp_jitter = 0.5;
  opt.seed = 81;
  return GenerateGstd(opt);
}

TEST(CsvTest, SaveLoadRoundTrip) {
  const TrajectoryStore store = SampleStore();
  const std::string path = TempPath("roundtrip.csv");
  ASSERT_TRUE(SaveTrajectoriesCsv(store, path));

  std::string error;
  const auto loaded = LoadTrajectoriesCsv(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  ASSERT_EQ(loaded->size(), store.size());
  for (const Trajectory& t : store.trajectories()) {
    const Trajectory* l = loaded->Find(t.id());
    ASSERT_NE(l, nullptr);
    ASSERT_EQ(l->size(), t.size());
    for (size_t i = 0; i < t.size(); ++i) {
      // %.17g printing round-trips doubles exactly.
      EXPECT_EQ(l->sample(i).t, t.sample(i).t);
      EXPECT_EQ(l->sample(i).p, t.sample(i).p);
    }
  }
}

TEST(CsvTest, LoadIgnoresCommentsAndBlanks) {
  const std::string path = TempPath("comments.csv");
  WriteFile(path,
            "# header\n"
            "\n"
            "1,0.0,1.0,2.0\n"
            "1,1.0,2.0,3.0\n"
            "# trailing comment\n"
            "2,0.5,0.0,0.0\n");
  std::string error;
  const auto loaded = LoadTrajectoriesCsv(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->size(), 2u);
  EXPECT_EQ(loaded->Get(1).size(), 2u);
  EXPECT_EQ(loaded->Get(2).size(), 1u);
}

TEST(CsvTest, LoadRejectsMalformedLine) {
  const std::string path = TempPath("bad.csv");
  WriteFile(path, "1,0.0,oops,2.0\n");
  std::string error;
  EXPECT_FALSE(LoadTrajectoriesCsv(path, &error).has_value());
  EXPECT_NE(error.find("malformed"), std::string::npos);
}

TEST(CsvTest, LoadRejectsNonIncreasingTime) {
  const std::string path = TempPath("order.csv");
  WriteFile(path, "1,1.0,0,0\n1,1.0,1,1\n");
  std::string error;
  EXPECT_FALSE(LoadTrajectoriesCsv(path, &error).has_value());
  EXPECT_NE(error.find("timestamp"), std::string::npos);
}

TEST(CsvTest, LoadMissingFileFails) {
  std::string error;
  EXPECT_FALSE(LoadTrajectoriesCsv("/nonexistent/x.csv", &error).has_value());
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

TEST(CsvTest, TrucksPortalFormatParses) {
  const std::string path = TempPath("trucks.csv");
  WriteFile(path,
            "0962;10962;10/09/2002;09:15:59;23.845089;38.018470;486253;"
            "4207588\n"
            "0962;10962;10/09/2002;09:16:29;23.845179;38.018069;486261;"
            "4207543\n"
            "0963;10963;10/09/2002;09:15:59;23.8;38.0;480000;4200000\n"
            "0963;10963;11/09/2002;09:15:59;23.8;38.0;480001;4200001\n");
  std::string error;
  const auto loaded = LoadTrucksPortalCsv(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->size(), 2u);
  const Trajectory& a = loaded->Get(10962);
  ASSERT_EQ(a.size(), 2u);
  EXPECT_DOUBLE_EQ(a.sample(0).t, 0.0);   // earliest instant in the file
  EXPECT_DOUBLE_EQ(a.sample(1).t, 30.0);  // 30 s later
  EXPECT_DOUBLE_EQ(a.sample(0).p.x, 486253.0);
  const Trajectory& b = loaded->Get(10963);
  ASSERT_EQ(b.size(), 2u);
  EXPECT_DOUBLE_EQ(b.sample(1).t - b.sample(0).t, 86400.0);  // next day
}

TEST(CsvTest, TrucksPortalDropsDuplicateTimestamps) {
  const std::string path = TempPath("trucks_dup.csv");
  WriteFile(path,
            "1;11;10/09/2002;09:00:00;0;0;100;100\n"
            "1;11;10/09/2002;09:00:00;0;0;999;999\n"
            "1;11;10/09/2002;09:00:05;0;0;105;105\n");
  std::string error;
  const auto loaded = LoadTrucksPortalCsv(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  const Trajectory& t = loaded->Get(11);
  ASSERT_EQ(t.size(), 2u);
  EXPECT_DOUBLE_EQ(t.sample(0).p.x, 100.0);  // first kept
}

TEST(IndexIoTest, SaveLoadRoundTripServesIdenticalQueries) {
  const TrajectoryStore store = SampleStore();
  TBTree tree;
  tree.BuildFrom(store);
  const std::string path = TempPath("index.mst");
  ASSERT_TRUE(SaveIndex(tree, path));

  std::string error;
  const std::unique_ptr<TrajectoryIndex> loaded = LoadIndex(path, &error);
  ASSERT_NE(loaded, nullptr) << error;
  EXPECT_EQ(loaded->root(), tree.root());
  EXPECT_EQ(loaded->height(), tree.height());
  EXPECT_EQ(loaded->NodeCount(), tree.NodeCount());
  EXPECT_EQ(loaded->EntryCount(), tree.EntryCount());
  EXPECT_DOUBLE_EQ(loaded->max_speed(), tree.max_speed());
  EXPECT_NE(loaded->name().find("loaded"), std::string::npos);
  loaded->CheckInvariants();

  // The loaded index must answer MST queries exactly like the original.
  const BFMstSearch searcher(loaded.get(), &store);
  const Trajectory query(999, store.Get(3).Slice({0.2, 0.6})->samples());
  const auto got = searcher.Search(query, query.Lifespan(), MstOptions());
  const auto want = LinearScanKMst(store, query, query.Lifespan(), 1,
                                   IntegrationPolicy::kExact);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].id, want[0].id);
  EXPECT_NEAR(got[0].dissim, want[0].dissim, 1e-9);
}

TEST(IndexIoTest, LoadedIndexRejectsInserts) {
  const TrajectoryStore store = SampleStore();
  TBTree tree;
  tree.BuildFrom(store);
  const std::string path = TempPath("index_ro.mst");
  ASSERT_TRUE(SaveIndex(tree, path));
  std::string error;
  const auto loaded = LoadIndex(path, &error);
  ASSERT_NE(loaded, nullptr) << error;
  EXPECT_DEATH(loaded->Insert(LeafEntry::Of(1, {0.0, {0, 0}}, {1.0, {1, 1}})),
               "read-only");
}

TEST(IndexIoTest, RejectsGarbageFile) {
  const std::string path = TempPath("garbage.mst");
  WriteFile(path, "this is not an index");
  std::string error;
  EXPECT_EQ(LoadIndex(path, &error), nullptr);
  EXPECT_NE(error.find("not an index"), std::string::npos);
}

/// Overwrites `size` bytes of `path` at `offset` (for header corruption).
void PatchFile(const std::string& path, long offset, const void* bytes,
               size_t size) {
  FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(bytes, 1, size, f), size);
  std::fclose(f);
}

// Byte offsets into the saved file: 8 bytes of magic, then the header
// (page_count i64, root i32, height i32, entry_count i64, max_speed f64,
// name[32]).
constexpr long kRootOffset = 8 + 8;
constexpr long kHeightOffset = 8 + 12;
constexpr long kEntryCountOffset = 8 + 16;
constexpr long kMaxSpeedOffset = 8 + 24;

TEST(IndexIoTest, OpenRejectsZeroBufferPagesBeforeAnyIo) {
  TrajectoryIndex::Options options;
  options.cache_pages = 0;
  std::string error;
  // The path does not even exist — invalid options fail first, explicitly.
  EXPECT_EQ(LoadIndex("/nonexistent/opts.mst", options, &error), nullptr);
  EXPECT_NE(error.find("cache_pages must be at least 1"), std::string::npos)
      << error;
}

TEST(IndexIoTest, RejectsTrailingBytesAfterPagePayload) {
  const TrajectoryStore store = SampleStore();
  TBTree tree;
  tree.BuildFrom(store);
  const std::string path = TempPath("trailing.mst");
  ASSERT_TRUE(SaveIndex(tree, path));
  FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  std::fputc('x', f);
  std::fclose(f);
  std::string error;
  EXPECT_EQ(LoadIndex(path, &error), nullptr);
  EXPECT_NE(error.find("trailing bytes"), std::string::npos);
}

TEST(IndexIoTest, RejectsCorruptEntryCountAndMaxSpeed) {
  const TrajectoryStore store = SampleStore();
  TBTree tree;
  tree.BuildFrom(store);
  const std::string path = TempPath("corrupt_stats.mst");

  ASSERT_TRUE(SaveIndex(tree, path));
  const int64_t negative_count = -1;
  PatchFile(path, kEntryCountOffset, &negative_count, sizeof(negative_count));
  std::string error;
  EXPECT_EQ(LoadIndex(path, &error), nullptr);
  EXPECT_NE(error.find("corrupt header"), std::string::npos);

  ASSERT_TRUE(SaveIndex(tree, path));
  const double nan_speed = std::nan("");
  PatchFile(path, kMaxSpeedOffset, &nan_speed, sizeof(nan_speed));
  EXPECT_EQ(LoadIndex(path, &error), nullptr);
  EXPECT_NE(error.find("corrupt header"), std::string::npos);

  ASSERT_TRUE(SaveIndex(tree, path));
  const double negative_speed = -2.5;
  PatchFile(path, kMaxSpeedOffset, &negative_speed, sizeof(negative_speed));
  EXPECT_EQ(LoadIndex(path, &error), nullptr);
  EXPECT_NE(error.find("corrupt header"), std::string::npos);
}

TEST(IndexIoTest, OpenOptionsConfigureTheLoadedIndex) {
  const TrajectoryStore store = SampleStore();
  TBTree tree;
  tree.BuildFrom(store);
  const std::string path = TempPath("opts_honored.mst");
  ASSERT_TRUE(SaveIndex(tree, path));

  TrajectoryIndex::Options options;
  options.cache_pages = 8;
  std::string error;
  const auto loaded = LoadIndex(path, options, &error);
  ASSERT_NE(loaded, nullptr) << error;
  EXPECT_EQ(loaded->buffer().capacity(), 8u);
  EXPECT_EQ(loaded->EntryCount(), tree.EntryCount());
  const BFMstSearch searcher(loaded.get(), &store);
  const Trajectory query(999, store.Get(3).Slice({0.2, 0.6})->samples());
  MstStats stats;
  const auto got =
      searcher.Search(query, query.Lifespan(), MstOptions(), &stats);
  ASSERT_FALSE(got.empty());
  // The loaded index starts cold behind its 8-page cache.
  EXPECT_GT(stats.node_cache_misses, 0);
  EXPECT_EQ(stats.node_cache_hits + stats.node_cache_misses,
            stats.nodes_accessed);
  EXPECT_EQ(loaded->buffer().resident_frames(), 8u);
}

// Byte offset of the first page whose format byte (byte 1) is `version`
// inside a saved index file, or -1 when none exists. Pages start after the
// 8-byte magic and the 64-byte header.
long FindPageOffset(const std::string& path, uint8_t version) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return -1;
  for (long offset = 8 + 64;; offset += static_cast<long>(kPageSize)) {
    uint8_t head[2];
    if (std::fseek(f, offset, SEEK_SET) != 0 ||
        std::fread(head, 1, 2, f) != 2) {
      std::fclose(f);
      return -1;
    }
    if (head[1] == version) {
      std::fclose(f);
      return offset;
    }
  }
}

// Format byte (byte 1) of a v2 leaf page.
constexpr uint8_t kV2LeafFormat = 2;

// The retired v3 compressed leaf layout (format byte 3) is refused by name,
// so an old file asks for a rebuild instead of aborting its first query.
TEST(IndexIoTest, RejectsV3LeafPages) {
  const TrajectoryStore store = SampleStore();
  TBTree tree;
  tree.BuildFrom(store);
  const std::string path = TempPath("v3_leaf.mst");
  ASSERT_TRUE(SaveIndex(tree, path));
  const long leaf = FindPageOffset(path, kV2LeafFormat);
  ASSERT_GT(leaf, 0);

  const uint8_t version = 3;
  PatchFile(path, leaf + 1, &version, 1);
  std::string error;
  EXPECT_EQ(LoadIndex(path, &error), nullptr);
  EXPECT_NE(error.find("v3 leaf pages are no longer supported; rebuild the "
                       "index"),
            std::string::npos)
      << error;
}

// Raw pages carry an entry count the decoders trust. An out-of-range count
// must fail the load by name, not abort the first query.
TEST(IndexIoTest, RejectsOversizedEntryCounts) {
  const TrajectoryStore store = SampleStore();
  TBTree tree;  // default: v2 leaves, v1 internal pages
  tree.BuildFrom(store);
  const std::string path = TempPath("oversized_count.mst");
  ASSERT_TRUE(SaveIndex(tree, path));
  const long leaf =
      FindPageOffset(path, kV2LeafFormat);
  const long internal = FindPageOffset(path, 0);
  ASSERT_GT(leaf, 0);
  ASSERT_GT(internal, 0) << "expected a v1 internal page";

  TrajectoryIndex::Options small;
  small.cache_pages = 8;
  const uint8_t count = 200;  // v2 leaves store the count in byte 3
  PatchFile(path, leaf + 3, &count, 1);
  std::string error;
  EXPECT_EQ(LoadIndex(path, &error), nullptr);
  EXPECT_NE(error.find("corrupt v2 leaf page"), std::string::npos) << error;
  EXPECT_NE(error.find("entry count 200"), std::string::npos) << error;
  EXPECT_EQ(LoadIndex(path, small, &error), nullptr);

  ASSERT_TRUE(SaveIndex(tree, path));
  const int32_t v1_count = 73;  // v1 pages store an int32 count at byte 4
  PatchFile(path, internal + 4, &v1_count, sizeof(v1_count));
  EXPECT_EQ(LoadIndex(path, &error), nullptr);
  EXPECT_NE(error.find("corrupt v1 internal page"), std::string::npos)
      << error;
  EXPECT_NE(error.find("entry count 73"), std::string::npos) << error;
}

TEST(IndexIoTest, RejectsUnknownPageFormatByte) {
  const TrajectoryStore store = SampleStore();
  TBTree tree;
  tree.BuildFrom(store);
  const std::string path = TempPath("unknown_format.mst");
  ASSERT_TRUE(SaveIndex(tree, path));
  const long leaf =
      FindPageOffset(path, kV2LeafFormat);
  ASSERT_GT(leaf, 0);

  const uint8_t version = 9;
  PatchFile(path, leaf + 1, &version, 1);
  std::string error;
  EXPECT_EQ(LoadIndex(path, &error), nullptr);
  EXPECT_NE(error.find("unsupported page format byte 9"), std::string::npos)
      << error;
}

// Row-major v1 leaf pages are no longer read; a file holding one must be
// refused at load with a message that says so.
TEST(IndexIoTest, RejectsV1LeafPages) {
  const TrajectoryStore store = SampleStore();
  TBTree tree;
  tree.BuildFrom(store);
  const std::string path = TempPath("v1_leaf.mst");
  ASSERT_TRUE(SaveIndex(tree, path));
  const long leaf =
      FindPageOffset(path, kV2LeafFormat);
  ASSERT_GT(leaf, 0);

  // A v1 header: int32 level 0 (a leaf) and int32 entry count 5.
  const int32_t v1_header[2] = {0, 5};
  PatchFile(path, leaf, v1_header, sizeof(v1_header));
  std::string error;
  EXPECT_EQ(LoadIndex(path, &error), nullptr);
  EXPECT_NE(error.find("v1 (row-major) leaf page"), std::string::npos)
      << error;
}

// The retired v3 compressed internal layout (format byte 4) is refused by
// name, so an old file asks for a rebuild instead of failing obscurely.
TEST(IndexIoTest, RejectsV3InternalPages) {
  const TrajectoryStore store = SampleStore();
  TBTree tree;
  tree.BuildFrom(store);
  const std::string path = TempPath("v3_internal.mst");
  ASSERT_TRUE(SaveIndex(tree, path));
  const long internal = FindPageOffset(path, 0);
  ASSERT_GT(internal, 0) << "expected a v1 internal page";

  const uint8_t version = 4;
  PatchFile(path, internal + 1, &version, 1);
  std::string error;
  EXPECT_EQ(LoadIndex(path, &error), nullptr);
  EXPECT_NE(error.find("v3 internal pages are no longer supported; rebuild "
                       "the index"),
            std::string::npos)
      << error;
}

// File offset of the child page id of entry 0 in internal page `id`: pages
// follow the 8-byte magic and the 64-byte header; v1 entries (child MBB,
// then the child id) follow the 24-byte node header.
long FirstChildIdOffset(PageId id) {
  return 8 + 64 + static_cast<long>(id) * static_cast<long>(kPageSize) +
         static_cast<long>(kNodeHeaderV1Size + sizeof(Mbb3));
}

// A child id outside the page file, or a root in a file with no pages, used
// to load fine and then abort the first query on its buffer pin.
TEST(IndexIoTest, RejectsOutOfRangePageIds) {
  const TrajectoryStore store = SampleStore();
  TBTree tree;
  tree.BuildFrom(store);
  ASSERT_GE(tree.height(), 2);
  const std::string path = TempPath("child_out_of_range.mst");
  ASSERT_TRUE(SaveIndex(tree, path));
  std::string error;
  ASSERT_NE(LoadIndex(path, &error), nullptr) << error;

  const PageId far = 1 << 20;
  PatchFile(path, FirstChildIdOffset(tree.root()), &far, sizeof(far));
  EXPECT_EQ(LoadIndex(path, &error), nullptr);
  EXPECT_NE(error.find("child page 1048576 outside [0, " +
                       std::to_string(tree.NodeCount()) + ")"),
            std::string::npos)
      << error;

  ASSERT_TRUE(SaveIndex(tree, path));
  const PageId negative = -2;
  PatchFile(path, FirstChildIdOffset(tree.root()), &negative,
            sizeof(negative));
  EXPECT_EQ(LoadIndex(path, &error), nullptr);
  EXPECT_NE(error.find("child page -2 outside"), std::string::npos) << error;

  const TBTree empty;
  ASSERT_TRUE(SaveIndex(empty, path));
  ASSERT_NE(LoadIndex(path, &error), nullptr) << error;
  const PageId root = 0;
  PatchFile(path, kRootOffset, &root, sizeof(root));
  EXPECT_EQ(LoadIndex(path, &error), nullptr);
  EXPECT_NE(error.find("corrupt header"), std::string::npos) << error;
}

// A child one level off — here the root naming itself, a cycle — used to
// load fine and then send the first query into an endless traversal. A
// header height that disagrees with the root's level is refused too.
TEST(IndexIoTest, RejectsChildLevelMismatch) {
  const TrajectoryStore store = SampleStore();
  TBTree tree;
  tree.BuildFrom(store);
  ASSERT_GE(tree.height(), 2);
  const std::string path = TempPath("child_level.mst");
  ASSERT_TRUE(SaveIndex(tree, path));

  const PageId root = tree.root();
  PatchFile(path, FirstChildIdOffset(root), &root, sizeof(root));
  std::string error;
  EXPECT_EQ(LoadIndex(path, &error), nullptr);
  EXPECT_NE(error.find("page " + std::to_string(root) + ": child page " +
                       std::to_string(root) + " has level " +
                       std::to_string(tree.height() - 1) + ", expected " +
                       std::to_string(tree.height() - 2)),
            std::string::npos)
      << error;

  ASSERT_TRUE(SaveIndex(tree, path));
  const int32_t height = tree.height() + 1;
  PatchFile(path, kHeightOffset, &height, sizeof(height));
  EXPECT_EQ(LoadIndex(path, &error), nullptr);
  EXPECT_NE(error.find("expected height - 1"), std::string::npos) << error;
}

// A parent entry whose box does not contain its child used to load fine; a
// query then pruned the child's subtree on the narrowed box and returned
// wrong answers. Here the root's first entry loses most of its time extent.
TEST(IndexIoTest, RejectsParentBoxNotContainingChild) {
  const TrajectoryStore store = SampleStore();
  TBTree tree;
  tree.BuildFrom(store);
  ASSERT_GE(tree.height(), 2);
  const std::string path = TempPath("parent_box.mst");
  ASSERT_TRUE(SaveIndex(tree, path));

  const NodeRef root = tree.ReadNode(tree.root());
  const InternalEntry& entry = root->internals.front();
  // A v1 entry's MBB (xlo ylo tlo xhi yhi thi) ends right before its child
  // id, so thi is the double just before it.
  const double thi = entry.mbb.tlo;
  ASSERT_LT(thi, entry.mbb.thi);
  PatchFile(path,
            FirstChildIdOffset(tree.root()) -
                static_cast<long>(sizeof(double)),
            &thi, sizeof(thi));
  std::string error;
  EXPECT_EQ(LoadIndex(path, &error), nullptr);
  EXPECT_NE(error.find("page " + std::to_string(tree.root()) +
                       ": child page " + std::to_string(entry.child) +
                       " lies outside its parent entry's box"),
            std::string::npos)
      << error;
}

// A v2 leaf's stored box must contain each of its segments: the header box
// is what the leaf reports as its bounds.
TEST(IndexIoTest, RejectsLeafBoxNotContainingEntry) {
  const TrajectoryStore store = SampleStore();
  TBTree tree;
  tree.BuildFrom(store);
  const std::string path = TempPath("leaf_box.mst");
  ASSERT_TRUE(SaveIndex(tree, path));
  const long leaf = FindPageOffset(path, kV2LeafFormat);
  ASSERT_GT(leaf, 0);
  const PageId leaf_id =
      static_cast<PageId>((leaf - 8 - 64) / static_cast<long>(kPageSize));
  const Mbb3 stored = tree.ReadNode(leaf_id)->Bounds();
  ASSERT_LT(stored.tlo, stored.thi);

  // The v2 header stores the box at byte 16; narrow its thi to its tlo.
  PatchFile(path, leaf + 16 + static_cast<long>(5 * sizeof(double)),
            &stored.tlo, sizeof(stored.tlo));
  std::string error;
  EXPECT_EQ(LoadIndex(path, &error), nullptr);
  EXPECT_NE(error.find("page " + std::to_string(leaf_id) + ": entry "),
            std::string::npos)
      << error;
  EXPECT_NE(error.find("lies outside the leaf's stored box"),
            std::string::npos)
      << error;
}

// Every way this codebase builds a tree — incremental 3D R-tree (quadratic
// and R*), STR bulk load, TB-tree, STR-tree — saves to a file that passes
// every load-time check and reloads to the same tree.
TEST(IndexIoTest, EveryBackendSavedTreeLoads) {
  const TrajectoryStore store = SampleStore();
  TrajectoryIndex::Options rstar;
  rstar.rtree_variant = RTreeVariant::kRStar;
  std::vector<std::unique_ptr<TrajectoryIndex>> trees;
  trees.push_back(std::make_unique<RTree3D>());
  trees.push_back(std::make_unique<RTree3D>(rstar));
  trees.push_back(std::make_unique<TBTree>());
  trees.push_back(std::make_unique<STRTree>());
  for (const auto& tree : trees) tree->BuildFrom(store);
  auto bulk = std::make_unique<RTree3D>();
  bulk->BulkLoad(store);
  trees.push_back(std::move(bulk));

  for (size_t i = 0; i < trees.size(); ++i) {
    const TrajectoryIndex& tree = *trees[i];
    ASSERT_GE(tree.height(), 2) << tree.name();
    const std::string path = TempPath("backend" + std::to_string(i) + ".mst");
    ASSERT_TRUE(SaveIndex(tree, path));
    std::string error;
    const auto loaded = LoadIndex(path, &error);
    ASSERT_NE(loaded, nullptr) << tree.name() << ": " << error;
    EXPECT_EQ(loaded->NodeCount(), tree.NodeCount()) << tree.name();
    EXPECT_EQ(loaded->root(), tree.root()) << tree.name();
    loaded->CheckInvariants();
  }
}

TEST(IndexIoTest, RejectsTruncatedFile) {
  const TrajectoryStore store = SampleStore();
  TBTree tree;
  tree.BuildFrom(store);
  const std::string path = TempPath("trunc.mst");
  ASSERT_TRUE(SaveIndex(tree, path));
  // Truncate the file in the middle of the page payload.
  FILE* f = std::fopen(path.c_str(), "r+");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(ftruncate(fileno(f), 8 + 64 + 3 * kPageSize + 100), 0);
  std::fclose(f);
  std::string error;
  EXPECT_EQ(LoadIndex(path, &error), nullptr);
  EXPECT_NE(error.find("truncated"), std::string::npos);
}

}  // namespace
}  // namespace mst

#include "src/index/node.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "src/util/check.h"

namespace mst {

namespace {

// v2 leaf-page header field offsets (see the layout comment in node.h).
// Byte 0 is the level (0 for leaves), byte 1 the format version — the byte
// that is provably 0 in every v1 internal page, where it holds the second
// byte of the little-endian int32 level.
constexpr size_t kV2OffLevel = 0;
constexpr size_t kV2OffVersion = 1;
constexpr size_t kV2OffFlags = 2;
constexpr size_t kV2OffCount = 3;
constexpr size_t kV2OffParent = 4;
constexpr size_t kV2OffPrevLeaf = 8;
constexpr size_t kV2OffNextLeaf = 12;
constexpr size_t kV2OffBounds = 16;
constexpr size_t kV2OffColumns = kLeafHeaderV2Size;

constexpr uint8_t kV2FlagTimeSorted = 1u;

// Format byte of v2 leaf pages.
constexpr uint8_t kV2LeafVersion = 2;
// Format bytes of the retired v3 compressed leaf and internal pages, kept
// only so ValidateNodePage can name them.
constexpr uint8_t kRetiredV3LeafVersion = 3;
constexpr uint8_t kRetiredV3InternalVersion = 4;

static_assert(sizeof(Mbb3) == 48, "v2 header embeds the MBB verbatim");
static_assert(kV2OffBounds + sizeof(Mbb3) == kLeafHeaderV2Size);

// Per-thread freelist of recycled column blocks. Leaf decode allocates one
// 4 KB block per read; with the node cache disabled that is an allocator
// round trip per node access, which shows up in the k-MST hot path.
// Donated blocks hold arbitrary bytes — consumers either overwrite the
// whole block (AssignFromSoa, copy) or re-zero it (EnsureBlock). The list
// is thread-local, so no synchronization; the cap bounds each thread at
// 512 KB of standby blocks.
constexpr size_t kBlockFreelistCap = 128;
thread_local std::vector<std::unique_ptr<LeafBlock>> tls_block_freelist;

std::unique_ptr<LeafBlock> AcquireBlock() {
  if (!tls_block_freelist.empty()) {
    std::unique_ptr<LeafBlock> b = std::move(tls_block_freelist.back());
    tls_block_freelist.pop_back();
    return b;
  }
  return std::make_unique_for_overwrite<LeafBlock>();
}

void RecycleBlock(std::unique_ptr<LeafBlock> b) {
  if (b != nullptr && tls_block_freelist.size() < kBlockFreelistCap) {
    tls_block_freelist.push_back(std::move(b));
  }
}

}  // namespace

LeafColumns::~LeafColumns() { RecycleBlock(std::move(block_)); }

void LeafColumns::EnsureBlock() {
  if (block_ != nullptr) return;
  block_ = AcquireBlock();
  std::memset(block_.get(), 0, sizeof(LeafBlock));
}

void LeafColumns::clear() {
  if (block_ != nullptr && count_ > 0) {
    // Re-zero only the used prefix of each column; the tail is already zero
    // (zero-tail invariant keeps v2 page encodes byte-deterministic).
    const size_t n = static_cast<size_t>(count_);
    std::fill_n(block_->t0, n, 0.0);
    std::fill_n(block_->x0, n, 0.0);
    std::fill_n(block_->y0, n, 0.0);
    std::fill_n(block_->t1, n, 0.0);
    std::fill_n(block_->x1, n, 0.0);
    std::fill_n(block_->y1, n, 0.0);
    std::fill_n(block_->traj_id, n, TrajectoryId{0});
  }
  count_ = 0;
  sorted_ = true;
  mbb_ = Mbb3();
}

std::vector<LeafEntry> LeafColumns::ToVector() const {
  std::vector<LeafEntry> out;
  out.reserve(size());
  for (size_t i = 0; i < size(); ++i) out.push_back((*this)[i]);
  return out;
}

void LeafColumns::AssignFromSoa(const uint8_t* src, int count,
                                bool time_sorted, const Mbb3& bounds) {
  // No EnsureBlock here: the full-block copy overwrites every byte anyway
  // (v2 pages carry the zero tail), so a recycled block needs no re-zeroing
  // — this is the decode hot path with the node cache disabled.
  if (block_ == nullptr) block_ = AcquireBlock();
  std::memcpy(block_.get(), src, sizeof(LeafBlock));
  count_ = count;
  sorted_ = time_sorted;
  mbb_ = bounds;
}

Mbb3 IndexNode::Bounds() const {
  if (IsLeaf()) return leaves.bounds();
  Mbb3 m;
  for (const InternalEntry& e : internals) m.Expand(e.mbb);
  return m;
}

void IndexNode::EncodeTo(Page* page) const {
  const int count = Count();
  MST_CHECK_MSG(count <= kCapacity, "node overflow at encode time");

  if (IsLeaf()) {  // v2 columnar leaf layout
    page->WriteAt<uint8_t>(kV2OffLevel, 0);
    page->WriteAt<uint8_t>(kV2OffVersion, kV2LeafVersion);
    const uint8_t flags = leaves.time_sorted() ? kV2FlagTimeSorted : 0u;
    page->WriteAt<uint8_t>(kV2OffFlags, flags);
    page->WriteAt<uint8_t>(kV2OffCount, static_cast<uint8_t>(count));
    page->WriteAt<PageId>(kV2OffParent, parent);
    page->WriteAt<PageId>(kV2OffPrevLeaf, prev_leaf);
    page->WriteAt<PageId>(kV2OffNextLeaf, next_leaf);
    page->WriteAt<Mbb3>(kV2OffBounds, leaves.bounds());
    uint8_t* dst = page->bytes.data() + kV2OffColumns;
    const LeafView v = leaves.View();
    if (v.t0 != nullptr) {
      // Single full-block copy; the zero-tail invariant makes it
      // deterministic regardless of count.
      std::memcpy(dst, v.t0, sizeof(LeafBlock));
    } else {
      std::memset(dst, 0, sizeof(LeafBlock));
    }
    return;
  }

  // v1 internal layout.
  page->WriteAt<int32_t>(0, level);
  page->WriteAt<int32_t>(4, count);
  page->WriteAt<PageId>(8, parent);
  page->WriteAt<PageId>(12, prev_leaf);
  page->WriteAt<PageId>(16, next_leaf);
  page->WriteAt<int32_t>(20, 0);
  if (count > 0) {
    std::memcpy(page->bytes.data() + kHeaderSize, internals.data(),
                static_cast<size_t>(count) * kEntrySize);
  }
}

IndexNode IndexNode::Decode(const Page& page, PageId self) {
  IndexNode node;
  node.self = self;

  const uint8_t version = page.ReadAt<uint8_t>(kV2OffVersion);
  if (version == kV2LeafVersion) {
    node.level = 0;
    const uint8_t flags = page.ReadAt<uint8_t>(kV2OffFlags);
    const int count = page.ReadAt<uint8_t>(kV2OffCount);
    MST_CHECK_MSG(count <= kCapacity, "corrupt v2 leaf count");
    node.parent = page.ReadAt<PageId>(kV2OffParent);
    node.prev_leaf = page.ReadAt<PageId>(kV2OffPrevLeaf);
    node.next_leaf = page.ReadAt<PageId>(kV2OffNextLeaf);
    const Mbb3 bounds = page.ReadAt<Mbb3>(kV2OffBounds);
    node.leaves.AssignFromSoa(page.bytes.data() + kV2OffColumns, count,
                              (flags & kV2FlagTimeSorted) != 0, bounds);
    return node;
  }
  MST_CHECK_MSG(version == 0, "unknown node format version");

  // v1 internal layout.
  node.level = page.ReadAt<int32_t>(0);
  MST_CHECK_MSG(node.level >= 1, "unsupported v1 leaf page");
  const int32_t count = page.ReadAt<int32_t>(4);
  MST_CHECK_MSG(count >= 0 && count <= kCapacity, "corrupt node count");
  node.parent = page.ReadAt<PageId>(8);
  node.prev_leaf = page.ReadAt<PageId>(12);
  node.next_leaf = page.ReadAt<PageId>(16);
  node.internals.resize(static_cast<size_t>(count));
  if (count > 0) {
    std::memcpy(node.internals.data(), page.bytes.data() + kHeaderSize,
                static_cast<size_t>(count) * kEntrySize);
  }
  return node;
}

std::string ValidateNodePage(const Page& page) {
  const uint8_t version = page.ReadAt<uint8_t>(kV2OffVersion);
  if (version == kV2LeafVersion) {
    const int count = page.ReadAt<uint8_t>(kV2OffCount);
    if (count > kNodeCapacity) {
      return "corrupt v2 leaf page: entry count " + std::to_string(count) +
             " exceeds the node capacity " + std::to_string(kNodeCapacity);
    }
    return "";
  }
  if (version == kRetiredV3LeafVersion) {
    return "v3 leaf pages are no longer supported; rebuild the index";
  }
  if (version == kRetiredV3InternalVersion) {
    return "v3 internal pages are no longer supported; rebuild the index";
  }
  if (version != 0) {
    return "unsupported page format byte " + std::to_string(version);
  }
  const int32_t level = page.ReadAt<int32_t>(0);
  if (level == 0) {
    return "unsupported v1 (row-major) leaf page; rebuild the index with v2 "
           "leaves";
  }
  if (level < 0) return "corrupt v1 internal page: negative level";
  const int32_t count = page.ReadAt<int32_t>(4);
  if (count < 0 || count > kNodeCapacity) {
    return "corrupt v1 internal page: entry count " + std::to_string(count) +
           " outside [0, " + std::to_string(kNodeCapacity) + "]";
  }
  return "";
}

int32_t NodePageLevel(const Page& page) {
  const uint8_t version = page.ReadAt<uint8_t>(kV2OffVersion);
  if (version == kV2LeafVersion) return 0;
  return page.ReadAt<int32_t>(0);
}

}  // namespace mst

// On-page node format shared by the 3D R-tree and the TB-tree.
//
// A node occupies exactly one 4 KB page, in one of two raw layouts:
//
//   v2 leaf (SoA):   64-byte header (version byte, time-sorted flag, count,
//                    parent/prev/next pages, exact per-leaf MBB) followed
//                    by column-major entry arrays at fixed offsets:
//                    t0[72] x0[72] y0[72] t1[72] x1[72] y1[72] id[72].
//                    The columns fill the page exactly (64 + 72·56 = 4096),
//                    so a decode is a single 4032-byte memcpy and DISSIM
//                    kernels stream over contiguous columns with no
//                    AoS→SoA repack.
//   v1 internal:     a 24-byte header (level, entry count, parent page, two
//                    unused page links) followed by 56-byte row-major
//                    entries (child MBB + child page).
//
// Fanout is (4096 − 24) / 56 = 72 entries at every level, which is what the
// paper's Table 2 / Fig 8–10 index sizes and node-access counts are
// computed from.
//
// Format discrimination: byte 1 of the page. v1 internal pages store the node
// level there as the second byte of a little-endian int32 — always 0 for the
// tiny tree heights involved — while v2 leaf pages store the version value
// 2. (The codec assumes a little-endian host.) Three retired layouts are
// refused by name: row-major v1 *leaf* pages, v3 compressed leaf pages
// (format byte 3) and v3 compressed internal pages (format byte 4).
// ValidateNodePage names them, and Decode aborts on them.

#ifndef MST_INDEX_NODE_H_
#define MST_INDEX_NODE_H_

#include <cstdint>
#include <cstddef>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "src/geom/interval.h"
#include "src/geom/mbb.h"
#include "src/geom/point.h"
#include "src/geom/trajectory.h"
#include "src/index/pagefile.h"
#include "src/util/check.h"

namespace mst {

/// One indexed trajectory line segment, as stored in leaf pages. `t0 < t1`.
struct LeafEntry {
  TrajectoryId traj_id = kInvalidTrajectoryId;
  double t0 = 0.0;
  double x0 = 0.0;
  double y0 = 0.0;
  double t1 = 0.0;
  double x1 = 0.0;
  double y1 = 0.0;

  /// Builds the entry for the segment sample `a` → sample `b` (a.t < b.t).
  static LeafEntry Of(TrajectoryId id, const TPoint& a, const TPoint& b) {
    return {id, a.t, a.p.x, a.p.y, b.t, b.p.x, b.p.y};
  }

  TPoint Start() const { return {t0, {x0, y0}}; }
  TPoint End() const { return {t1, {x1, y1}}; }
  TimeInterval TimeSpan() const { return {t0, t1}; }

  /// Speed of the object along this segment.
  double Speed() const {
    return Distance(Start().p, End().p) / (t1 - t0);
  }

  Mbb3 Bounds() const { return Mbb3::OfSegment(Start(), End()); }

  friend bool operator==(const LeafEntry& a, const LeafEntry& b) {
    return a.traj_id == b.traj_id && a.t0 == b.t0 && a.x0 == b.x0 &&
           a.y0 == b.y0 && a.t1 == b.t1 && a.x1 == b.x1 && a.y1 == b.y1;
  }
};
static_assert(sizeof(LeafEntry) == 56, "page layout depends on this size");
static_assert(std::is_trivially_copyable_v<LeafEntry>);

/// Routing entry of an internal node: child MBB + child page id.
struct InternalEntry {
  Mbb3 mbb;
  PageId child = kInvalidPageId;
  int32_t pad = 0;
};
static_assert(sizeof(InternalEntry) == 56, "page layout depends on this size");
static_assert(std::is_trivially_copyable_v<InternalEntry>);

/// v1 header size / entry size and the per-node fanout of every level.
inline constexpr size_t kNodeHeaderV1Size = 24;
inline constexpr size_t kNodeEntrySize = 56;
inline constexpr int kNodeCapacity =
    static_cast<int>((kPageSize - kNodeHeaderV1Size) / kNodeEntrySize);

/// Fixed-size column block backing a leaf node in memory. The field order
/// and packing mirror the v2 page's column region byte-for-byte, so a v2
/// decode is a single memcpy of the whole block. Unused tail slots are kept
/// zeroed so encoded pages are byte-deterministic.
struct LeafBlock {
  double t0[kNodeCapacity];
  double x0[kNodeCapacity];
  double y0[kNodeCapacity];
  double t1[kNodeCapacity];
  double x1[kNodeCapacity];
  double y1[kNodeCapacity];
  TrajectoryId traj_id[kNodeCapacity];
};
static_assert(sizeof(LeafBlock) ==
              static_cast<size_t>(kNodeCapacity) * kNodeEntrySize);
static_assert(std::is_trivially_copyable_v<LeafBlock>);

/// v2 leaf-page header size; the columns fill the rest of the page exactly.
inline constexpr size_t kLeafHeaderV2Size = 64;
static_assert(kLeafHeaderV2Size + sizeof(LeafBlock) == kPageSize,
              "v2 columns must fill the page at full fanout");

/// Borrowed, read-only columnar view of one leaf node's entries. Valid for
/// as long as the owning node (NodeRef) is alive. This is what the DISSIM
/// hot path and the batched leaf-pruning pass stream over.
struct LeafView {
  const double* t0 = nullptr;
  const double* x0 = nullptr;
  const double* y0 = nullptr;
  const double* t1 = nullptr;
  const double* x1 = nullptr;
  const double* y1 = nullptr;
  const TrajectoryId* traj_id = nullptr;
  int count = 0;
  /// True when entries are sorted by (t0, traj_id) — the temporal processing
  /// order of the search. TB-tree leaves always are.
  bool time_sorted = true;
  /// Union MBB over the entries (empty box for an empty leaf).
  Mbb3 bounds;

  /// Materializes entry `i` (for cold paths; hot paths read the columns).
  LeafEntry Entry(int i) const {
    return {traj_id[i], t0[i], x0[i], y0[i], t1[i], x1[i], y1[i]};
  }
};

/// Columnar (structure-of-arrays) storage of a leaf node's entries, with a
/// std::vector<LeafEntry>-compatible surface so insertion/split code reads
/// naturally. The union MBB and the (t0, traj_id) time-sorted flag are
/// maintained incrementally so EncodeTo can stamp them into the v2 header
/// without an extra scan.
class LeafColumns {
 public:
  LeafColumns() = default;
  /// Donates the column block to a per-thread freelist — node decode
  /// allocates one block per leaf read, so recycling elides the allocator
  /// round trip on the hot path.
  ~LeafColumns();
  LeafColumns(LeafColumns&&) noexcept = default;
  LeafColumns& operator=(LeafColumns&&) noexcept = default;
  LeafColumns(const LeafColumns& o) { *this = o; }
  LeafColumns& operator=(const LeafColumns& o) {
    if (this == &o) return *this;
    block_ = o.block_ ? std::make_unique<LeafBlock>(*o.block_) : nullptr;
    count_ = o.count_;
    sorted_ = o.sorted_;
    mbb_ = o.mbb_;
    return *this;
  }
  LeafColumns& operator=(const std::vector<LeafEntry>& entries) {
    assign(entries.begin(), entries.end());
    return *this;
  }

  size_t size() const { return static_cast<size_t>(count_); }
  bool empty() const { return count_ == 0; }

  /// Materializes entry `i` from the columns.
  LeafEntry operator[](size_t i) const {
    MST_DCHECK(i < size());
    const LeafBlock& b = *block_;
    return {b.traj_id[i], b.t0[i], b.x0[i], b.y0[i],
            b.t1[i], b.x1[i], b.y1[i]};
  }
  LeafEntry front() const { return (*this)[0]; }
  LeafEntry back() const { return (*this)[size() - 1]; }

  void push_back(const LeafEntry& e) {
    MST_CHECK_MSG(count_ < kNodeCapacity, "leaf node overflow");
    EnsureBlock();
    LeafBlock& b = *block_;
    const int i = count_++;
    b.t0[i] = e.t0;
    b.x0[i] = e.x0;
    b.y0[i] = e.y0;
    b.t1[i] = e.t1;
    b.x1[i] = e.x1;
    b.y1[i] = e.y1;
    b.traj_id[i] = e.traj_id;
    if (i > 0 && (e.t0 < b.t0[i - 1] ||
                  (e.t0 == b.t0[i - 1] && e.traj_id < b.traj_id[i - 1]))) {
      sorted_ = false;
    }
    mbb_.Expand(e.Bounds());
  }

  void clear();

  template <typename It>
  void assign(It first, It last) {
    clear();
    for (; first != last; ++first) push_back(*first);
  }

  /// Copies the entries out row-major (split/rebuild paths).
  std::vector<LeafEntry> ToVector() const;

  /// True when entries are sorted by (t0, traj_id).
  bool time_sorted() const { return sorted_; }

  /// Union MBB over the entries (empty box when empty), maintained exactly.
  const Mbb3& bounds() const { return mbb_; }

  /// Borrowed columnar view (null column pointers when no entry was ever
  /// added; count is 0 then, so loops never dereference them).
  LeafView View() const {
    LeafView v;
    if (block_ != nullptr) {
      v.t0 = block_->t0;
      v.x0 = block_->x0;
      v.y0 = block_->y0;
      v.t1 = block_->t1;
      v.x1 = block_->x1;
      v.y1 = block_->y1;
      v.traj_id = block_->traj_id;
    }
    v.count = count_;
    v.time_sorted = sorted_;
    v.bounds = mbb_;
    return v;
  }

  /// Proxy iterator materializing LeafEntry values on dereference; enough
  /// for range-for and the range-insert/assign call sites.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = LeafEntry;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = LeafEntry;

    const_iterator() = default;
    const_iterator(const LeafColumns* cols, size_t i) : cols_(cols), i_(i) {}
    LeafEntry operator*() const { return (*cols_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++i_;
      return old;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.i_ == b.i_;
    }
    friend bool operator!=(const const_iterator& a, const const_iterator& b) {
      return a.i_ != b.i_;
    }

   private:
    const LeafColumns* cols_ = nullptr;
    size_t i_ = 0;
  };
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size()}; }

  /// Adopts a v2 page's column region verbatim (single memcpy) together
  /// with the header's precomputed metadata.
  void AssignFromSoa(const uint8_t* src, int count, bool time_sorted,
                     const Mbb3& bounds);

 private:
  // Obtains a zeroed block (recycled or fresh) on first use.
  void EnsureBlock();

  std::unique_ptr<LeafBlock> block_;  // zero tail beyond count_
  int count_ = 0;
  bool sorted_ = true;
  Mbb3 mbb_;
};

/// A decoded index node. `level` 0 is a leaf (uses `leaves`); higher levels
/// are internal (use `internals`).
struct IndexNode {
  static constexpr size_t kHeaderSize = kNodeHeaderV1Size;
  static constexpr size_t kEntrySize = kNodeEntrySize;
  /// Maximum entries per node (same at every level): 72 with 4 KB pages.
  static constexpr int kCapacity = kNodeCapacity;

  PageId self = kInvalidPageId;
  int32_t level = 0;
  PageId parent = kInvalidPageId;
  /// TB-tree per-trajectory leaf chaining; unused (-1) in the 3D R-tree.
  PageId prev_leaf = kInvalidPageId;
  PageId next_leaf = kInvalidPageId;

  std::vector<InternalEntry> internals;
  LeafColumns leaves;

  bool IsLeaf() const { return level == 0; }

  int Count() const {
    return static_cast<int>(IsLeaf() ? leaves.size() : internals.size());
  }

  bool IsFull() const { return Count() >= kCapacity; }

  /// Union MBB over the node's entries (empty box for an empty node).
  Mbb3 Bounds() const;

  /// Serializes into `page` (asserts Count() <= kCapacity): leaf nodes in
  /// the v2 layout, internal nodes in the v1 layout.
  void EncodeTo(Page* page) const;

  /// Parses a node from `page`, dispatching on the page's format byte;
  /// `self` is recorded for convenience. Aborts on a page ValidateNodePage
  /// rejects.
  static IndexNode Decode(const Page& page, PageId self);
};

/// Shared handle to an immutable decoded node, as returned by
/// TrajectoryIndex::ReadNode and held by the decoded-node cache. The
/// columnar leaf storage travels with it, so cache hits hand hot loops the
/// columns directly. Stays valid for as long as the caller keeps the
/// reference, independent of buffer eviction or cache invalidation.
using NodeRef = std::shared_ptr<const IndexNode>;

/// Structural validation of an untrusted page (index file loads): a known
/// format byte, an entry count within the node capacity, and none of the
/// retired layouts (row-major v1 leaf, v3 leaf, v3 internal page). Empty
/// string when the page decodes safely, else the first problem found,
/// naming the page flavor.
std::string ValidateNodePage(const Page& page);

/// Tree level stored in a page ValidateNodePage accepted: 0 for a leaf
/// page, the header level for an internal page.
int32_t NodePageLevel(const Page& page);

}  // namespace mst

#endif  // MST_INDEX_NODE_H_

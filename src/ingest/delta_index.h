// In-memory delta index: the segments appended since the last delta→main
// merge, served behind the TrajectoryIndex interface by STR-bulk-loading a
// fresh immutable 3D R-tree snapshot whenever the entry set changes. The
// snapshot is what queries traverse (as the `delta` tree of BFMstSearch's
// two-tree forest); the entry vector is what the merger drains into the
// packed main tree. Not thread-safe — the ingest engine mutates it only
// under its state lock and hands out only the immutable snapshots.

#ifndef MST_INGEST_DELTA_INDEX_H_
#define MST_INGEST_DELTA_INDEX_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "src/index/node.h"
#include "src/index/trajectory_index.h"

namespace mst {

class DeltaIndex {
 public:
  /// `options` configures each snapshot tree (buffer pages — the delta
  /// serves the same read path as the main tree).
  explicit DeltaIndex(const TrajectoryIndex::Options& options)
      : options_(options) {}

  /// Adds freshly appended segments (invalidates the cached snapshot).
  void Append(const std::vector<LeafEntry>& entries) {
    entries_.insert(entries_.end(), entries.begin(), entries.end());
    snapshot_.reset();
  }

  /// Drops the first `n` entries — they just became part of the main tree.
  /// Called by the merger with the exact prefix size it captured, so the
  /// delta and the new main stay disjoint and jointly exhaustive.
  void DropPrefix(size_t n) {
    entries_.erase(entries_.begin(),
                   entries_.begin() + static_cast<ptrdiff_t>(n));
    snapshot_.reset();
  }

  size_t entry_count() const { return entries_.size(); }

  /// Segments currently in the delta, in append order (the merge prefix).
  const std::vector<LeafEntry>& entries() const { return entries_; }

  /// Immutable tree over the current entries; rebuilt lazily after a
  /// mutation, shared by every view published until the next one. Null when
  /// the delta is empty (BFMstSearch treats a null delta as "main only").
  std::shared_ptr<const TrajectoryIndex> Snapshot();

 private:
  TrajectoryIndex::Options options_;
  std::vector<LeafEntry> entries_;
  std::shared_ptr<const TrajectoryIndex> snapshot_;
};

}  // namespace mst

#endif  // MST_INGEST_DELTA_INDEX_H_

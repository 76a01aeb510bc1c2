// Common interface of the R-tree-family trajectory indexes (3D R-tree and
// TB-tree). The point of the paper is that MST search needs nothing beyond
// this general-purpose interface — no dedicated similarity index.

#ifndef MST_INDEX_TRAJECTORY_INDEX_H_
#define MST_INDEX_TRAJECTORY_INDEX_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/geom/trajectory.h"
#include "src/index/buffer.h"
#include "src/index/node.h"
#include "src/index/pagefile.h"

namespace mst {

/// Insertion policy of the 3D R-tree (only RTree3D reads it; the TB-tree and
/// STR-tree have their own placement rules, and bulk loading is always STR).
/// kQuadratic is Guttman's original algorithm and stays the default so every
/// existing build remains bit-identical; kRStar enables the R*-tree
/// construction path (Beckmann et al.): overlap-minimizing ChooseSubtree at
/// the leaf level, margin-based split axis choice with minimum-overlap
/// distribution, and forced reinsertion on first overflow per level.
enum class RTreeVariant : uint8_t {
  kQuadratic = 0,
  kRStar = 1,
};

/// Abstract paged trajectory index over 3D (x, y, t) line segments.
///
/// Shared machinery (page file, buffer manager, node I/O and access
/// accounting, dataset max-speed tracking) lives here; subclasses implement
/// the insertion policy. The index stores one LeafEntry per trajectory
/// segment, exactly as in the paper's setup.
class TrajectoryIndex {
 public:
  /// Construction-time knobs. `cache_pages` sizes the one page-count LRU
  /// buffer of decoded nodes between ReadNode and the page file, for builds
  /// and queries alike (see buffer.h). It is an engineering knob, not part
  /// of the paper's I/O model: logical node accesses are counted
  /// identically at every capacity. Leaves are always written as v2 pages
  /// and internal nodes as v1 pages (see node.h).
  struct Options {
    size_t cache_pages = 4096;
    /// Incremental-insert policy of the 3D R-tree (see RTreeVariant). Tree
    /// shape only: page formats, bulk loading (always STR), and exact k-MST
    /// results are unaffected by this knob.
    RTreeVariant rtree_variant = RTreeVariant::kQuadratic;
    /// Time-axis weight of the R* build's margin-based decisions (split-axis
    /// choice, margin tiebreaks, reinsertion distances). Volume comparisons
    /// are invariant under axis scaling, so this steers only where margins
    /// decide. >1 prioritizes temporally tight nodes, which is what the
    /// paper's time-windowed k-MST workload prunes on (every query restricts
    /// search to its lifespan window before any distance bound applies);
    /// 1.0 is the isotropic textbook R* measure. The default is calibrated
    /// on the Table 3 query mix — see bench_index_quality / EXPERIMENTS.
    double rstar_time_weight = 16.0;
  };

  virtual ~TrajectoryIndex();

  TrajectoryIndex(const TrajectoryIndex&) = delete;
  TrajectoryIndex& operator=(const TrajectoryIndex&) = delete;

  /// Inserts one trajectory segment.
  virtual void Insert(const LeafEntry& entry) = 0;

  /// Short human-readable name ("3D R-tree", "TB-tree").
  virtual std::string name() const = 0;

  /// True when the index offers a direct per-trajectory access path (the
  /// TB-tree's chained leaves). Enables BFMST's eager-completion
  /// optimization.
  virtual bool SupportsTrajectoryFetch() const { return false; }

  /// First leaf page of `id`'s segment chain, or kInvalidPageId when the
  /// index has no direct per-trajectory access path (or the id is unknown).
  /// Callers follow next_leaf pointers and read segments straight from each
  /// node's columnar LeafView, in temporal order; node reads are accounted
  /// like any other access.
  virtual PageId TrajectoryChainHead(TrajectoryId) const {
    return kInvalidPageId;
  }

  /// Inserts every segment of every trajectory in `store`, in temporal order
  /// per trajectory, trajectories interleaved round-robin as produced by
  /// concurrently moving objects (the realistic MOD arrival order, which the
  /// TB-tree's append policy is designed for).
  void BuildFrom(const TrajectoryStore& store);

  /// Root page id; kInvalidPageId while the index is empty.
  PageId root() const { return root_; }

  bool empty() const { return root_ == kInvalidPageId; }

  /// Height of the tree (1 = root is a leaf); 0 when empty.
  int height() const { return height_; }

  /// Reads a node, counting one node access (always — cache hits included,
  /// so logical access counts are independent of caching), then asks the
  /// buffer, which decodes the page on a miss. The returned node is
  /// immutable and shared; callers needing to modify entries must copy them.
  NodeRef ReadNode(PageId id) const;

  /// Number of nodes (== allocated pages).
  int64_t NodeCount() const { return file_.PageCount(); }

  /// Index size in bytes (pages * 4 KB).
  int64_t SizeBytes() const { return file_.SizeBytes(); }

  /// Total leaf entries inserted.
  int64_t EntryCount() const { return entry_count_; }

  /// Max speed observed across inserted segments — the dataset component of
  /// V_max used by the speed-dependent pruning bounds (Table 1).
  double max_speed() const { return max_speed_; }

  /// Node accesses (logical node reads) since the last ResetAccessCounters().
  /// The counter is atomic: with concurrent queries it aggregates exactly,
  /// but Reset + read is only meaningful single-threaded — concurrent query
  /// paths use ThreadNodeAccesses() deltas for per-query stats instead.
  int64_t node_accesses() const {
    return node_accesses_.load(std::memory_order_relaxed);
  }

  /// Resets the logical node-access counter together with the buffer's
  /// logical-read/miss counters, so a reset-then-measure experiment reads
  /// every layer from zero (see EXPERIMENTS.md).
  void ResetAccessCounters() const {
    node_accesses_.store(0, std::memory_order_relaxed);
    buffer_.ResetCounters();
  }

  /// Current write version of trajectory `id`'s indexed segments, bumped on
  /// every segment insert for that trajectory — the version authority behind
  /// the cross-query result cache's invalidation (src/core/result_cache.h).
  /// A DISSIM value refined against `id` is valid exactly as long as this
  /// version is unchanged. Never-written ids report 0. Thread-safe.
  uint64_t TrajectoryWriteVersion(TrajectoryId id) const;

  /// Monotonic count of node accesses performed *by the calling thread*
  /// across all indexes. Query code records the value before/after a
  /// traversal to get per-query access counts that stay exact when many
  /// queries run in parallel on a shared index.
  static int64_t ThreadNodeAccesses();

  /// Drops every cached node (after writing dirty ones back) so the next
  /// query starts cold. The capacity stays `Options::cache_pages`: the
  /// paper sizes its buffer at 10 % of the index, max 1000 pages, but on
  /// this engine that rule measured 12–18 % slower p50 on the sharded
  /// service path and no faster on a single index (DESIGN.md §3d). The
  /// buffer-size experiment itself is ablation A4, which sets each capacity
  /// explicitly.
  void ConfigurePaperBuffer();

  BufferManager& buffer() const { return buffer_; }
  /// Same object as buffer(), under the name the benchmark harness uses.
  BufferManager& node_cache() const { return buffer_; }
  PageFile& file() const { return file_; }

  /// Structural invariant check (MBB containment, counts, parent links where
  /// maintained). Aborts on violation; O(nodes). For tests.
  void CheckInvariants() const;

 protected:
  explicit TrajectoryIndex(const Options& options);

  /// Copies a node for modification; changes must be stored via WriteNode.
  IndexNode ReadNodeForUpdate(PageId id);

  /// Installs `node` as its page's dirty buffer frame; it is encoded to the
  /// page file when evicted or flushed. Pass an rvalue when the caller is
  /// done with the node, to spare a copy.
  void WriteNode(IndexNode node);

  /// Expands ancestor routing MBBs by `box`, starting from `node`'s entry in
  /// its parent and following parent pointers to the root. Only valid for
  /// index variants that maintain parent pointers (TB-tree, STR-tree).
  void ExpandAncestorsViaParents(PageId node, const Mbb3& box);

  /// Allocates a fresh node page.
  PageId AllocateNode();

  /// Bookkeeping hooks for subclasses.
  void set_root(PageId root) { root_ = root; }
  void set_height(int height) { height_ = height; }
  void NoteInsert(const LeafEntry& entry);

  /// Restores aggregate counters when deserializing an index from disk.
  void RestoreStats(int64_t entry_count, double max_speed) {
    entry_count_ = entry_count;
    max_speed_ = max_speed;
  }

 private:
  // Recursive helper of CheckInvariants. `parent_id` validates parent
  // pointers where a variant maintains them (non-kInvalidPageId headers).
  void CheckSubtree(PageId id, int expected_level, const Mbb3* parent_box,
                    PageId parent_id) const;

  // Per-trajectory write versions (see TrajectoryWriteVersion). Sharded by
  // id so build-time bumps and query-time reads stay contention-free; a
  // mutex per shard suffices — reads happen once per surviving candidate,
  // not per node access.
  struct TrajectoryVersionShard {
    mutable std::mutex mu;
    std::unordered_map<TrajectoryId, uint64_t> versions;
  };
  static constexpr size_t kTrajectoryVersionShards = 16;

  TrajectoryVersionShard& VersionShardFor(TrajectoryId id) const;

  mutable PageFile file_;
  mutable BufferManager buffer_;
  PageId root_ = kInvalidPageId;
  int height_ = 0;
  int64_t entry_count_ = 0;
  double max_speed_ = 0.0;
  mutable std::atomic<int64_t> node_accesses_{0};
  mutable std::array<TrajectoryVersionShard, kTrajectoryVersionShards>
      traj_versions_;
};

}  // namespace mst

#endif  // MST_INDEX_TRAJECTORY_INDEX_H_

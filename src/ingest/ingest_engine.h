// The streaming write path: WAL-durable sample appends feeding an LSM-style
// delta+main index pair, with point-in-time snapshot views for queries.
//
// Write flow of one Append(batch):
//   1. validate + reserve under the reservation lock (timestamps strictly
//      extend each trajectory; reservation order == WAL sequence order, so
//      applies never interleave inconsistently),
//   2. stage the batch's frames in the WAL and wait for durability
//      (group commit: concurrent batches share one fsync),
//   3. apply to the in-memory state in WAL-sequence ticket order and mark
//      the published view stale. The next View() resolution republishes a
//      fresh immutable IndexView (main tree shared, delta tree rebuilt over
//      the unmerged segments, trajectory snapshot copied) — so a burst of
//      appends between two queries costs one table copy and one delta
//      rebuild, not one per append.
//
// Queries resolve a view once (QueryExecutor does this at dequeue time) and
// run entirely against that snapshot: they never see a half-applied batch,
// and a concurrent merge — which swaps which tree holds a segment but not
// the segment set — changes results not at all (tested by
// IngestEngineTest.MergeDuringQueryIdentity and the metamorphic suite).
//
// Versioning: the engine owns a monotonic per-trajectory write version,
// carried by each snapshot (TrajectorySource::OwnsWriteVersions). The
// result cache keys off it, so entries cached against an old snapshot are
// unservable the moment the trajectory grows — the index-local version
// scheme cannot be used here because delta/main tree instances are rebuilt
// (and their counters reset) on every publish.

#ifndef MST_INGEST_INGEST_ENGINE_H_
#define MST_INGEST_INGEST_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/core/mst_search.h"
#include "src/exec/query_executor.h"
#include "src/geom/trajectory.h"
#include "src/index/trajectory_index.h"
#include "src/ingest/delta_index.h"
#include "src/ingest/wal.h"

namespace mst {

/// Immutable point-in-time trajectory table, the TrajectorySource behind
/// every published view. Holds shared ownership of its Trajectory objects —
/// unchanged trajectories are shared across snapshots, a grown one gets a
/// fresh object while older snapshots keep the old.
class IngestSnapshot : public TrajectorySource {
 public:
  struct Entry {
    std::shared_ptr<const Trajectory> trajectory;
    uint64_t version = 0;
  };

  explicit IngestSnapshot(std::unordered_map<TrajectoryId, Entry> by_id)
      : by_id_(std::move(by_id)) {}

  const Trajectory* Find(TrajectoryId id) const override {
    const auto it = by_id_.find(id);
    return it == by_id_.end() ? nullptr : it->second.trajectory.get();
  }

  bool OwnsWriteVersions() const override { return true; }

  uint64_t SourceWriteVersion(TrajectoryId id) const override {
    const auto it = by_id_.find(id);
    return it == by_id_.end() ? 0 : it->second.version;
  }

  size_t size() const { return by_id_.size(); }

 private:
  std::unordered_map<TrajectoryId, Entry> by_id_;
};

class IngestEngine {
 public:
  struct Options {
    Wal::Options wal;
    /// Page-buffer and node-cache configuration of the main and delta trees.
    TrajectoryIndex::Options index;
    /// Delta size (segments) at which the background merger kicks in.
    size_t merge_threshold_entries = 4096;
    /// Run the background merger thread. Off: merges happen only via
    /// explicit Merge() calls (deterministic tests).
    bool background_merge = false;
  };

  /// Opens over `wal_storage` (borrowed; must outlive the engine),
  /// recovering the durable log: committed batches are replayed, damaged
  /// tails truncated (`recovery` reports what happened), and the recovered
  /// segments are merged into a packed main tree before the first view is
  /// published.
  IngestEngine(WalStorageSet* wal_storage, const Options& options,
               WalRecoveryInfo* recovery = nullptr);
  explicit IngestEngine(WalStorageSet* wal_storage);  // default Options

  IngestEngine(const IngestEngine&) = delete;
  IngestEngine& operator=(const IngestEngine&) = delete;

  /// Stops the background merger (if any).
  ~IngestEngine();

  /// Durably appends `batch` as one atomic unit. Every record needs finite
  /// coordinates and a timestamp strictly greater than its trajectory's
  /// newest (including records earlier in the same batch); a batch failing
  /// validation is rejected whole before touching the WAL. Returns true
  /// once the batch is durable AND applied — the next resolved view shows
  /// all of it. Thread-safe; concurrent batches group-commit.
  bool Append(const std::vector<WalRecord>& batch);

  /// Synchronously merges the current delta prefix into a freshly
  /// STR-bulk-loaded main tree. Query results are invariant under merges;
  /// only the tree shapes and node counts change. Thread-safe (merges
  /// serialize; appends continue during the off-lock bulk load).
  void Merge();

  /// The current snapshot view (never null parts except `delta`, which is
  /// null when every segment lives in the main tree). Republishes first when
  /// appends have landed since the last publish — the amortization point:
  /// publishing is deferred from the append path to the first view
  /// resolution that needs it.
  IndexView View() const;

  /// Provider form of View() for QueryExecutor's live constructor.
  IndexViewProvider ViewProvider() const;

  /// Convenience: one k-MST query against the current view.
  std::vector<MstResult> Search(const Trajectory& query,
                                const TimeInterval& period,
                                const MstOptions& options = MstOptions(),
                                MstStats* stats = nullptr) const;

  /// Deep copy of the current trajectory table in first-append order — the
  /// input for quiesced oracle rebuilds in tests and benches.
  TrajectoryStore MaterializeStore() const;

  /// Segments currently in the delta (unmerged).
  size_t delta_entries() const {
    return delta_count_.load(std::memory_order_relaxed);
  }

  /// Newest WAL sequence applied to the published state.
  uint64_t applied_seq() const;

  /// Batches rejected by validation (never logged).
  uint64_t rejected_batches() const {
    return rejected_.load(std::memory_order_relaxed);
  }

  /// Views published so far (diagnostics: appends mark the view stale
  /// instead of publishing, so this grows with view resolutions and merges,
  /// not with append volume).
  uint64_t publish_count() const {
    return publishes_.load(std::memory_order_relaxed);
  }

  const Wal& wal() const { return *wal_; }

 private:
  void ApplyLocked(const std::vector<WalRecord>& batch);
  // Rebuilds view_ from the current state (const: View() republishes
  // on-demand from under the state lock; only view-cache members mutate).
  void PublishLocked() const;
  void MergerLoop();

  const Options options_;
  // Built in the constructor body: recovery replays straight into the maps
  // below, so every other member must be constructed first.
  std::unique_ptr<Wal> wal_;

  // Reservation state: validation + WAL staging happen under this lock so
  // that WAL sequence order equals validation order (see header comment).
  std::mutex reserve_mu_;
  std::unordered_map<TrajectoryId, double> reserved_last_t_;

  // Applied state, guarded by state_mu_. apply_cv_ sequences ticket waits.
  mutable std::mutex state_mu_;
  std::condition_variable apply_cv_;
  uint64_t applied_seq_ = 0;
  bool poisoned_ = false;
  std::unordered_map<TrajectoryId, std::vector<TPoint>> samples_;
  std::unordered_map<TrajectoryId, IngestSnapshot::Entry> table_;
  std::vector<TrajectoryId> first_seen_;  // append order, for oracles
  std::vector<LeafEntry> main_entries_;   // segments inside main_tree_
  std::shared_ptr<const TrajectoryIndex> main_tree_;
  // The delta and the published-view cache mutate inside const View()
  // (lazy republish under state_mu_), hence mutable.
  mutable DeltaIndex delta_;
  mutable std::shared_ptr<const IndexView> view_;  // last published snapshot
  mutable bool view_stale_ = false;  // appends landed since last publish

  std::atomic<size_t> delta_count_{0};
  std::atomic<uint64_t> rejected_{0};
  mutable std::atomic<uint64_t> publishes_{0};

  std::mutex merge_mu_;  // serializes Merge() bodies

  // Background merger.
  std::mutex merger_mu_;
  std::condition_variable merger_cv_;
  bool stop_merger_ = false;
  std::thread merger_;
};

}  // namespace mst

#endif  // MST_INGEST_INGEST_ENGINE_H_

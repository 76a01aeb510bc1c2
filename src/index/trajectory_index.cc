#include "src/index/trajectory_index.h"

#include <algorithm>
#include <vector>

#include "src/util/check.h"

namespace mst {
namespace {

// Per-thread node-access tally backing ThreadNodeAccesses(). A query runs on
// one thread, so the before/after delta is exactly its own access count even
// when other threads traverse the same index concurrently.
thread_local int64_t tls_node_accesses = 0;

}  // namespace

int64_t TrajectoryIndex::ThreadNodeAccesses() { return tls_node_accesses; }

TrajectoryIndex::TrajectoryIndex(const Options& options)
    : file_(),
      buffer_(&file_, options.build_buffer_pages),
      node_cache_(options.node_cache_nodes) {}

TrajectoryIndex::~TrajectoryIndex() = default;

void TrajectoryIndex::BuildFrom(const TrajectoryStore& store) {
  // Global temporal arrival order: all objects move simultaneously, so their
  // segments reach the MOD interleaved by segment start time.
  struct Pending {
    double t0;
    uint32_t traj;
    uint32_t seg;
  };
  std::vector<Pending> arrivals;
  arrivals.reserve(static_cast<size_t>(store.TotalSegments()));
  const auto& trajs = store.trajectories();
  for (uint32_t ti = 0; ti < trajs.size(); ++ti) {
    const Trajectory& t = trajs[ti];
    for (uint32_t si = 0; si + 1 < t.size(); ++si) {
      arrivals.push_back({t.sample(si).t, ti, si});
    }
  }
  std::sort(arrivals.begin(), arrivals.end(),
            [](const Pending& a, const Pending& b) {
              if (a.t0 != b.t0) return a.t0 < b.t0;
              if (a.traj != b.traj) return a.traj < b.traj;
              return a.seg < b.seg;
            });
  for (const Pending& p : arrivals) {
    const Trajectory& t = trajs[p.traj];
    Insert(LeafEntry::Of(t.id(), t.sample(p.seg), t.sample(p.seg + 1)));
  }
}

NodeRef TrajectoryIndex::ReadNode(PageId id) const {
  // Count the logical access unconditionally: Table-2/Fig-10 node-access
  // numbers must be byte-identical whether the node cache is on or off.
  node_accesses_.fetch_add(1, std::memory_order_relaxed);
  ++tls_node_accesses;
  uint64_t version = 0;
  if (NodeRef cached = node_cache_.Lookup(id, &version)) return cached;
  const PageGuard guard = buffer_.Pin(id);
  NodeRef node = std::make_shared<const IndexNode>(IndexNode::Decode(*guard, id));
  node_cache_.Insert(id, node, version);
  return node;
}

IndexNode TrajectoryIndex::ReadNodeForUpdate(PageId id) {
  const PageGuard guard = buffer_.Pin(id);
  return IndexNode::Decode(*guard, id);
}

void TrajectoryIndex::WriteNode(const IndexNode& node) {
  MST_DCHECK(node.self != kInvalidPageId);
  {
    PageGuard guard = buffer_.PinMutable(node.self);
    node.EncodeTo(guard.mutable_page());
  }
  // Bump the page version after the bytes change: a concurrent decode of
  // the old bytes observed the old version and will fail to publish.
  node_cache_.Invalidate(node.self);
}

PageId TrajectoryIndex::AllocateNode() { return buffer_.AllocatePage(); }

void TrajectoryIndex::ExpandAncestorsViaParents(PageId node_id,
                                                const Mbb3& box) {
  IndexNode node = ReadNodeForUpdate(node_id);
  PageId cur = node_id;
  PageId parent_id = node.parent;
  while (parent_id != kInvalidPageId) {
    IndexNode parent = ReadNodeForUpdate(parent_id);
    bool found = false;
    for (InternalEntry& e : parent.internals) {
      if (e.child == cur) {
        e.mbb.Expand(box);
        found = true;
        break;
      }
    }
    MST_CHECK_MSG(found, "broken parent pointer");
    WriteNode(parent);
    cur = parent_id;
    parent_id = parent.parent;
  }
}

TrajectoryIndex::TrajectoryVersionShard& TrajectoryIndex::VersionShardFor(
    TrajectoryId id) const {
  return traj_versions_[static_cast<uint64_t>(id) % kTrajectoryVersionShards];
}

uint64_t TrajectoryIndex::TrajectoryWriteVersion(TrajectoryId id) const {
  TrajectoryVersionShard& shard = VersionShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.versions.find(id);
  return it == shard.versions.end() ? 0 : it->second;
}

void TrajectoryIndex::NoteInsert(const LeafEntry& entry) {
  ++entry_count_;
  max_speed_ = std::max(max_speed_, entry.Speed());
  // Bump the trajectory's write version so cross-query cached DISSIM values
  // for it can never be served again (cf. WriteNode → NodeCache::Invalidate
  // for pages).
  TrajectoryVersionShard& shard = VersionShardFor(entry.traj_id);
  std::lock_guard<std::mutex> lock(shard.mu);
  ++shard.versions[entry.traj_id];
}

void TrajectoryIndex::ConfigurePaperBuffer() {
  const int64_t pages = NodeCount();
  const int64_t target =
      std::clamp<int64_t>(pages / 10, /*lo=*/1, /*hi=*/1000);
  buffer_.Clear();
  buffer_.SetCapacity(static_cast<size_t>(target));
  node_cache_.Clear();
}

void TrajectoryIndex::CheckSubtree(PageId id, int expected_level,
                                   const Mbb3* parent_box,
                                   PageId parent_id) const {
  const NodeRef node = ReadNode(id);
  MST_CHECK_MSG(node->level == expected_level, "node level mismatch");
  MST_CHECK(node->Count() <= IndexNode::kCapacity);
  if (parent_box != nullptr) {
    MST_CHECK_MSG(parent_box->Contains(node->Bounds()),
                  "parent MBB does not contain child contents");
  }
  if (node->parent != kInvalidPageId) {
    MST_CHECK_MSG(node->parent == parent_id, "stale parent pointer");
  }
  if (node->IsLeaf()) {
    for (const LeafEntry& e : node->leaves) {
      MST_CHECK(e.t0 < e.t1);
      MST_CHECK(e.traj_id != kInvalidTrajectoryId);
    }
    return;
  }
  MST_CHECK_MSG(node->Count() > 0, "empty internal node");
  for (const InternalEntry& e : node->internals) {
    MST_CHECK(e.child != kInvalidPageId);
    CheckSubtree(e.child, expected_level - 1, &e.mbb, id);
  }
}

void TrajectoryIndex::CheckInvariants() const {
  if (empty()) return;
  CheckSubtree(root_, height_ - 1, nullptr, kInvalidPageId);
}

}  // namespace mst

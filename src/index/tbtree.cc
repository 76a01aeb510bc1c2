#include "src/index/tbtree.h"

#include <algorithm>
#include <utility>

#include "src/util/check.h"

namespace mst {

TBTree::TBTree(const Options& options) : TrajectoryIndex(options) {}

PageId TBTree::HeadLeaf(TrajectoryId id) const {
  const auto it = chains_.find(id);
  return it == chains_.end() ? kInvalidPageId : it->second.head;
}

PageId TBTree::TailLeaf(TrajectoryId id) const {
  const auto it = chains_.find(id);
  return it == chains_.end() ? kInvalidPageId : it->second.tail;
}

void TBTree::ExpandAncestors(PageId node_id, const Mbb3& box) {
  ExpandAncestorsViaParents(node_id, box);
}

void TBTree::AttachRight(PageId child, const Mbb3& box, int child_level) {
  const int parent_level = child_level + 1;
  const int root_level = height() - 1;

  if (parent_level > root_level) {
    // Grow the tree: new root adopting the old root and the new child.
    IndexNode old_root = ReadNodeForUpdate(root());
    IndexNode new_root;
    new_root.self = AllocateNode();
    new_root.level = parent_level;
    new_root.internals.push_back({old_root.Bounds(), old_root.self, 0});
    new_root.internals.push_back({box, child, 0});
    WriteNode(new_root);

    old_root.parent = new_root.self;
    WriteNode(old_root);
    IndexNode child_node = ReadNodeForUpdate(child);
    child_node.parent = new_root.self;
    WriteNode(child_node);

    set_root(new_root.self);
    set_height(height() + 1);
    if (static_cast<int>(rightmost_.size()) <= parent_level) {
      rightmost_.resize(parent_level + 1, kInvalidPageId);
    }
    rightmost_[parent_level] = new_root.self;
    rightmost_[child_level] = child;
    return;
  }

  const PageId parent_id = rightmost_[parent_level];
  MST_CHECK(parent_id != kInvalidPageId);
  IndexNode parent = ReadNodeForUpdate(parent_id);
  if (!parent.IsFull()) {
    parent.internals.push_back({box, child, 0});
    WriteNode(parent);
    IndexNode child_node = ReadNodeForUpdate(child);
    child_node.parent = parent_id;
    WriteNode(child_node);
    rightmost_[child_level] = child;
    ExpandAncestors(parent_id, box);
    return;
  }

  // Rightmost parent is full: open a fresh rightmost node at parent_level
  // holding just the new child, and attach it one level up.
  IndexNode fresh;
  fresh.self = AllocateNode();
  fresh.level = parent_level;
  fresh.internals.push_back({box, child, 0});
  WriteNode(fresh);
  IndexNode child_node = ReadNodeForUpdate(child);
  child_node.parent = fresh.self;
  WriteNode(child_node);
  rightmost_[parent_level] = fresh.self;
  rightmost_[child_level] = child;
  AttachRight(fresh.self, box, parent_level);
}

void TBTree::Insert(const LeafEntry& entry) {
  NoteInsert(entry);
  const Mbb3 box = entry.Bounds();

  Chain& chain = chains_[entry.traj_id];
  if (chain.tail != kInvalidPageId) {
    MST_CHECK_MSG(entry.t0 >= chain.last_t1,
                  "TB-tree requires per-trajectory temporal insert order");
  }
  chain.last_t1 = entry.t1;

  if (chain.tail != kInvalidPageId) {
    IndexNode tail = ReadNodeForUpdate(chain.tail);
    if (!tail.IsFull()) {
      tail.leaves.push_back(entry);
      WriteNode(std::move(tail));
      ExpandAncestors(chain.tail, box);
      return;
    }
  }

  // Need a fresh leaf for this trajectory.
  IndexNode leaf;
  leaf.self = AllocateNode();
  leaf.level = 0;
  leaf.leaves.push_back(entry);
  leaf.prev_leaf = chain.tail;
  WriteNode(leaf);

  if (chain.tail != kInvalidPageId) {
    IndexNode old_tail = ReadNodeForUpdate(chain.tail);
    old_tail.next_leaf = leaf.self;
    WriteNode(std::move(old_tail));
  } else {
    chain.head = leaf.self;
  }
  chain.tail = leaf.self;

  if (empty()) {
    set_root(leaf.self);
    set_height(1);
    rightmost_.assign(1, leaf.self);
    return;
  }
  if (static_cast<int>(rightmost_.size()) < 1 ||
      rightmost_[0] == kInvalidPageId) {
    rightmost_.assign(1, root());
  }
  AttachRight(leaf.self, box, /*child_level=*/0);
}

std::vector<LeafEntry> TBTree::RetrieveTrajectory(TrajectoryId id) const {
  std::vector<LeafEntry> out;
  PageId cur = HeadLeaf(id);
  while (cur != kInvalidPageId) {
    const NodeRef leaf = ReadNode(cur);
    for (const LeafEntry& e : leaf->leaves) {
      MST_CHECK(e.traj_id == id);
      out.push_back(e);
    }
    cur = leaf->next_leaf;
  }
  return out;
}

void TBTree::CheckTBInvariants() const {
  for (const auto& [id, chain] : chains_) {
    MST_CHECK(chain.head != kInvalidPageId);
    MST_CHECK(chain.tail != kInvalidPageId);
    PageId cur = chain.head;
    PageId prev = kInvalidPageId;
    double last_t = -1e300;
    while (cur != kInvalidPageId) {
      const NodeRef leaf = ReadNode(cur);
      MST_CHECK_MSG(leaf->IsLeaf(), "chain points at a non-leaf");
      MST_CHECK_MSG(leaf->prev_leaf == prev, "broken prev pointer");
      for (const LeafEntry& e : leaf->leaves) {
        MST_CHECK_MSG(e.traj_id == id, "foreign segment in TB leaf");
        MST_CHECK_MSG(e.t0 >= last_t, "chain out of temporal order");
        last_t = e.t1;
      }
      // Parent pointer must route back to this leaf.
      if (leaf->parent != kInvalidPageId) {
        const NodeRef parent = ReadNode(leaf->parent);
        bool found = false;
        for (const InternalEntry& e : parent->internals) {
          found = found || e.child == cur;
        }
        MST_CHECK_MSG(found, "leaf's parent does not reference it");
      }
      prev = cur;
      cur = leaf->next_leaf;
    }
    MST_CHECK_MSG(prev == chain.tail, "chain tail mismatch");
  }
}

}  // namespace mst

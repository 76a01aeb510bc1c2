// Index persistence: serialize a built trajectory index (its 4 KB pages
// plus root/height/counter metadata) to a file and load it back for
// querying. A loaded index is read-only — the build-time in-memory state of
// the insertion policies (trajectory chains, rightmost paths) is not
// persisted, and BFMST/range/NN search never needs it.

#ifndef MST_IO_INDEX_IO_H_
#define MST_IO_INDEX_IO_H_

#include <memory>
#include <optional>
#include <string>

#include "src/index/trajectory_index.h"

namespace mst {

/// Writes `index` (pages + metadata) to `path`. Returns false on I/O error.
bool SaveIndex(const TrajectoryIndex& index, const std::string& path);

/// Loads an index previously written by SaveIndex. The returned index
/// answers all read-side queries; calling Insert on it aborts. Returns
/// nullptr and fills `*error` on failure: when any page fails
/// ValidateNodePage (unknown format byte, entry count beyond the node
/// capacity, a retired row-major v1 leaf, v3 leaf or v3 internal page), or
/// when the tree reachable from the root is malformed (a child page id
/// outside the file, a child whose level is not its parent's level − 1, a
/// root whose level is not height − 1, a parent entry whose box does not
/// contain its child, a leaf whose stored box does not contain one of its
/// segments).
std::unique_ptr<TrajectoryIndex> LoadIndex(const std::string& path,
                                           std::string* error);

/// LoadIndex with explicit buffer/cache configuration of the loaded index.
/// A zero-page build buffer is an error, reported before any I/O. The
/// two-argument overload is equivalent to passing default options.
std::unique_ptr<TrajectoryIndex> LoadIndex(
    const std::string& path, const TrajectoryIndex::Options& options,
    std::string* error);

}  // namespace mst

#endif  // MST_IO_INDEX_IO_H_

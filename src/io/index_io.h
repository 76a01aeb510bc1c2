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

/// How to open a saved index. Invalid combinations are explicit load
/// errors, never silent fallbacks: requesting read-write fails (a saved
/// index holds no insertion state) — with a format-specific message when
/// the requested leaf format additionally mismatches what the file stores —
/// and a zero-page buffer fails before any I/O.
struct IndexOpenOptions {
  /// Buffer/cache/leaf-format configuration of the loaded index. The leaf
  /// format only matters for writes, which a loaded index rejects; it is
  /// still validated under `read_write` so the error surfaces at open time
  /// rather than on the first insert.
  TrajectoryIndex::Options index;
  /// Request a mutable index. Always an error today (see above) — the flag
  /// exists so callers state intent and get a diagnosis instead of an
  /// abort later.
  bool read_write = false;
};

/// Loads an index previously written by SaveIndex. The returned index
/// answers all read-side queries; calling Insert on it aborts. Returns
/// nullptr and fills `*error` on failure, including when any page fails
/// ValidateNodePage (unknown format byte, entry count beyond the node
/// capacity, a row-major v1 leaf, a corrupt v3 page).
std::unique_ptr<TrajectoryIndex> LoadIndex(const std::string& path,
                                           std::string* error);

/// LoadIndex honoring explicit open options (validated — see
/// IndexOpenOptions). The two-argument overload is equivalent to passing
/// default options.
std::unique_ptr<TrajectoryIndex> LoadIndex(const std::string& path,
                                           const IndexOpenOptions& options,
                                           std::string* error);

}  // namespace mst

#endif  // MST_IO_INDEX_IO_H_

// v3 compressed columnar internal-node pages.
//
// Internal nodes route traversal through child MBBs, and child MBBs are just
// as delta-friendly as leaf segments: sibling boxes are spatially local (FoR
// collapses their coordinates to a few dozen bits) and child page ids of a
// bulk-loaded level are near-sequential (delta-of-delta collapses them to
// almost nothing). A v3 internal page reuses the leaf codec's header and
// subheader geometry with version byte 4:
//
//   offset  0       node level (uint8, ≥ 1 — leaves are never v3-internal)
//   offset  1       format version byte = 4
//   offset  2       flags (0; reserved)
//   offset  3       entry count
//   offset  4..15   parent / prev / next page ids (prev/next unused: -1)
//   offset 16..63   union MBB over the child MBBs (exact, like v2 leaves)
//   offset 64..70   7 per-column encoding tags
//                   (order xlo ylo tlo xhi yhi thi child)
//   offset 71..84   7 uint16 column payload byte lengths
//   offset 85..87   zero padding
//   offset 88..     column payloads, concatenated; tail zeroed
//
// Encodings are the shared v3 set (src/index/v3_column_codec.h) minus
// kColLink — sibling MBBs have no start/end linkage. Child page ids travel
// through the order-preserving int64 bijection, so FoR/DoD apply to them
// unchanged. Fanout stays 72: like v3 leaves, the win is taken as smaller
// resident bytes in the buffer pool, never as a different tree shape.
// When the compressed columns don't fit (never observed for real MBBs, but
// adversarial coordinates can do it), EncodeTo degrades the page to the raw
// v1 internal layout — decode dispatches on the version byte.

#ifndef MST_INDEX_NODE_CODEC_V3_H_
#define MST_INDEX_NODE_CODEC_V3_H_

#include <array>
#include <cstdint>
#include <string>

#include "src/index/leaf_codec_v3.h"
#include "src/index/node.h"
#include "src/index/pagefile.h"

namespace mst {

/// Version byte of a v3 compressed internal page.
inline constexpr uint8_t kV3InternalVersion = 4;

/// Serializes `node` (internal, level ≥ 1) as a v3 internal page, header
/// included. Returns false — leaving `page` untouched — when the compressed
/// columns don't fit; the caller then degrades to the raw v1 layout.
bool EncodeInternalV3(const IndexNode& node, Page* page);

/// Decodes a v3 internal page's column payloads into `entries` (exactly
/// `count` entries are written; `pad` is zeroed). Header fields are the
/// caller's business. Aborts on structurally corrupt pages
/// (ValidateV3InternalPage is the non-aborting variant).
void DecodeInternalV3(const Page& page, int count, InternalEntry* entries);

/// True when `page` holds a v3 compressed internal node (version byte 4).
bool IsV3InternalPage(const Page& page);

/// The seven column encoding tags of a v3 internal page
/// (diagnostics/tests/bench).
std::array<uint8_t, kV3ColumnCount> V3InternalColumnTags(const Page& page);

/// Structural validation for untrusted input (index file loads): count,
/// level, every encoding tag, per-column length consistency, payload fits
/// the page. Empty string when sound, else the first problem found.
std::string ValidateV3InternalPage(const Page& page);

/// Bytes of `page` actually occupied by payload, across every page flavor:
/// header + subheader + compressed columns for v3 leaf AND v3 internal
/// pages, the full 4 KB for raw v1/v2 pages. The buffer pool charges each
/// resident frame this much of its byte budget.
size_t PageOccupiedBytes(const Page& page);

}  // namespace mst

#endif  // MST_INDEX_NODE_CODEC_V3_H_

// v3 compressed columnar leaf pages.
//
// A v3 page keeps the v2 header byte-for-byte (level, version byte — here 3
// — flags, count, parent/prev/next, exact MBB) but stores the seven entry
// columns compressed instead of as raw capacity-strided doubles:
//
//   offset  0..63   v2-compatible header, version byte = 3
//   offset 64..70   7 per-column encoding tags (order t0 x0 y0 t1 x1 y1 id)
//   offset 71..84   7 uint16 column payload byte lengths
//   offset 85..87   zero padding
//   offset 88..     column payloads, concatenated in column order
//   tail            zeroed (encodes stay byte-deterministic)
//
// Per-column encodings, picked independently per column as the smallest
// applicable one (ties broken by the lower tag, so encodes are
// deterministic):
//
//   kColRaw    raw 64-bit words (8n bytes) — the incompressible fallback.
//   kColConst  all n words bit-identical; stores the word once (8 bytes).
//              Wins on the id column of single-trajectory (TB-tree) leaves.
//   kColLink   end columns (t1/x1/y1) whose word i equals the matching
//              start column's word i+1 for every i < n−1 — true whenever a
//              leaf holds consecutive segments of one trajectory; stores
//              only the last word (8 bytes).
//   kColFor    frame of reference over an order-preserving u64 mapping of
//              the doubles: per-leaf minimum as reference plus fixed-width
//              bit-packed deltas (8B ref + 1B width + ceil(n·w/8)). Wins on
//              spatially local coordinate columns (w ≈ 50 vs 64 raw).
//   kColDod    delta-of-delta with zig-zag over the same mapping: first
//              value + first delta verbatim, then bit-packed zig-zagged
//              second differences. Wins on near-evenly-spaced timestamp
//              columns, where the width collapses to a few bits.
//   kColFixed  fixed-point frame of reference: the smallest power-of-two
//              scale that makes every value an exactly-representable
//              integer (verified per value by a bit round-trip at encode
//              time, so decode reproduces the exact input doubles), then
//              FoR bit-packing over the integers. Wins on grid-aligned
//              data; inapplicable columns fall to the encodings above.
//
// Every encoding is lossless for arbitrary finite-or-not doubles: the u64
// mapping is bijective, delta arithmetic is exact mod 2^64, and kColFixed
// verifies each value at encode time. Packed widths are capped at 57 bits
// so a decode lane is one unaligned 64-bit load + shift + mask; the encoder
// keeps 8 spare bytes at the page tail so the last lane's load stays in
// bounds. When the compressed columns don't fit the page (a fully
// incompressible leaf), EncodeTo degrades the page to the raw v2 layout —
// the decode side dispatches on the version byte, so readers never care.

#ifndef MST_INDEX_LEAF_CODEC_V3_H_
#define MST_INDEX_LEAF_CODEC_V3_H_

#include <array>
#include <cstdint>
#include <string>

#include "src/index/node.h"
#include "src/index/pagefile.h"

namespace mst {

/// Per-column encoding tags stored in the v3 subheader.
enum V3ColumnEncoding : uint8_t {
  kColRaw = 0,
  kColConst = 1,
  kColLink = 2,
  kColFor = 3,
  kColDod = 4,
  kColFixed = 5,
};

/// Columns per leaf page / subheader geometry.
inline constexpr int kV3ColumnCount = 7;
inline constexpr size_t kV3OffTags = kLeafHeaderV2Size;       // 64
inline constexpr size_t kV3OffLengths = kV3OffTags + 7;       // 71
inline constexpr size_t kV3OffPayload = kLeafHeaderV2Size + 24;  // 88
/// Spare tail bytes so fixed-width decode lanes may over-read safely.
inline constexpr size_t kV3PayloadSlack = 8;

/// Serializes `node` (a leaf) as a v3 page, header included. Returns false
/// — leaving `page` untouched — when the compressed columns don't fit;
/// the caller then degrades to the raw v2 layout.
bool EncodeLeafV3(const IndexNode& node, Page* page);

/// Decodes a v3 page's column payloads into `block` (all seven columns are
/// fully written: `count` decoded values plus a zeroed tail, preserving the
/// zero-tail invariant). Header fields are the caller's business. Aborts on
/// structurally corrupt pages (ValidateV3LeafPage is the non-aborting
/// variant for untrusted input).
void DecodeV3Columns(const Page& page, int count, LeafBlock* block);

/// True when `page` holds a v3 compressed leaf (format-version byte check).
bool IsV3LeafPage(const Page& page);

/// Bytes of `page` actually occupied by payload: header + subheader +
/// compressed columns for a v3 page, the full 4 KB for anything else. This
/// is what the buffer pool charges every resident frame.
size_t LeafPageOccupiedBytes(const Page& page);

/// The seven column encoding tags of a v3 page (diagnostics/tests/bench).
std::array<uint8_t, kV3ColumnCount> V3ColumnTags(const Page& page);

/// Structural validation of a v3 page for untrusted input (index file
/// loads): checks the count, every encoding tag, per-column length
/// consistency, and that the payload region fits the page. Returns an empty
/// string when sound, else a description of the first problem found.
std::string ValidateV3LeafPage(const Page& page);

}  // namespace mst

#endif  // MST_INDEX_LEAF_CODEC_V3_H_

// Column-compression toolkit behind the v3 compressed leaf codec
// (leaf_codec_v3.cc). Everything here is layout-agnostic: order-preserving
// double/int64 ↔ u64 bijections, zig-zag, fixed-width bit packing, and the
// per-column delta transforms (frame-of-reference, delta-of-delta,
// fixed-point) plus their structural length validator. The functions are
// byte-for-byte the ones the v3 leaf codec shipped with — extracting them
// must not change any encoded page, which the codec determinism tests pin.
//
// Internal header: included by the codec .cc file (and codec tests);
// not part of the index's public surface.

#ifndef MST_INDEX_V3_COLUMN_CODEC_H_
#define MST_INDEX_V3_COLUMN_CODEC_H_

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "src/geom/trajectory.h"
#include "src/index/node.h"

// Force-inline shared decode bodies into each ISA wrapper so the vectorizer
// sees them under that wrapper's target options.
#if defined(__GNUC__)
#define MST_V3_ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define MST_V3_ALWAYS_INLINE inline
#endif

namespace mst {
namespace v3detail {

inline constexpr uint64_t kTopBit = 0x8000000000000000ull;
/// Widest packed lane: one unaligned 64-bit load covers shift (≤7) + width.
inline constexpr int kMaxPackedWidth = 57;
/// Largest fixed-point scale worth probing (doubles carry 52 mantissa bits).
inline constexpr int kMaxFixedScale = 52;

// Order-preserving bijection double → u64: flips the sign bit for
// non-negatives and all bits for negatives, so u64 order equals double
// order (NaNs land at the extremes; the mapping stays bijective, which is
// all losslessness needs). Branchless — the sign mask selects between the
// two xor patterns — because KeyDouble sits in the per-value decode lane.
MST_V3_ALWAYS_INLINE uint64_t DoubleKey(double d) {
  const uint64_t u = std::bit_cast<uint64_t>(d);
  const uint64_t m = static_cast<uint64_t>(static_cast<int64_t>(u) >> 63);
  return u ^ (m | kTopBit);
}

MST_V3_ALWAYS_INLINE double KeyDouble(uint64_t k) {
  const uint64_t m = static_cast<uint64_t>(static_cast<int64_t>(k) >> 63);
  return std::bit_cast<double>(k ^ (kTopBit | ~m));
}

// Order-preserving bijection int64 id → u64 (two's-complement bias flip).
MST_V3_ALWAYS_INLINE uint64_t IdKey(TrajectoryId id) {
  return static_cast<uint64_t>(id) ^ kTopBit;
}

MST_V3_ALWAYS_INLINE TrajectoryId KeyId(uint64_t k) {
  return static_cast<TrajectoryId>(k ^ kTopBit);
}

MST_V3_ALWAYS_INLINE uint64_t ZigZag(uint64_t d) {
  const int64_t v = static_cast<int64_t>(d);
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

MST_V3_ALWAYS_INLINE uint64_t UnZigZag(uint64_t z) {
  return (z >> 1) ^ (0ull - (z & 1ull));
}

MST_V3_ALWAYS_INLINE size_t PackedBytes(int n, int w) {
  return (static_cast<size_t>(n) * static_cast<size_t>(w) + 7) / 8;
}

// Bit-packs n w-bit values into a pre-zeroed region. The read-modify-write
// may touch up to 7 bytes past the packed length, but only ORs zero bits
// there, so later columns written at that cursor are unaffected.
inline void PackBits(const uint64_t* v, int n, int w, uint8_t* dst) {
  for (int i = 0; i < n; ++i) {
    const size_t bit = static_cast<size_t>(i) * static_cast<size_t>(w);
    uint64_t cur;
    std::memcpy(&cur, dst + (bit >> 3), sizeof(cur));
    cur |= v[i] << (bit & 7);
    std::memcpy(dst + (bit >> 3), &cur, sizeof(cur));
  }
}

/// Per-column plan chosen at encode time: tag + exact payload length.
struct ColPlan {
  uint8_t tag = 0;    // a V3ColumnEncoding value
  uint32_t len = 0;   // payload bytes
  uint8_t width = 0;  // kColFor / kColDod / kColFixed
  uint8_t scale = 0;  // kColFixed
};

// Smallest fixed-point scale (power of two) making every value of `c` an
// exactly-representable integer whose bit round-trip reproduces the input,
// or -1 when no scale ≤ kMaxFixedScale does.
inline int FindFixedScale(const double* c, int n) {
  for (int s = 0; s <= kMaxFixedScale; ++s) {
    bool ok = true;
    for (int i = 0; i < n; ++i) {
      const double y = std::ldexp(c[i], s);
      if (!(std::fabs(y) <= 9007199254740992.0)) return -1;  // 2^53; NaN too
      if (std::nearbyint(y) != y) {
        ok = false;
        break;
      }
      const int64_t q = static_cast<int64_t>(y);
      if (std::bit_cast<uint64_t>(std::ldexp(static_cast<double>(q), -s)) !=
          std::bit_cast<uint64_t>(c[i])) {
        ok = false;  // e.g. -0.0, whose integer round trip loses the sign
        break;
      }
    }
    if (ok) return s;
  }
  return -1;
}

// Fixed-point integers of column `c` at scale `s` and their FoR width.
// Returns false when the packed width exceeds kMaxPackedWidth.
inline bool FixedDeltas(const double* c, int n, int s, uint64_t* deltas,
                        int64_t* ref, int* width) {
  int64_t qmin = 0;
  int64_t q[kNodeCapacity];
  for (int i = 0; i < n; ++i) {
    q[i] = static_cast<int64_t>(std::ldexp(c[i], s));
    if (i == 0 || q[i] < qmin) qmin = q[i];
  }
  uint64_t dmax = 0;
  for (int i = 0; i < n; ++i) {
    deltas[i] = static_cast<uint64_t>(q[i] - qmin);
    if (deltas[i] > dmax) dmax = deltas[i];
  }
  const int w = std::bit_width(dmax);
  if (w > kMaxPackedWidth) return false;
  *ref = qmin;
  *width = w;
  return true;
}

// FoR deltas over monotone keys and their width; false when too wide.
inline bool ForDeltas(const uint64_t* keys, int n, uint64_t* deltas,
                      uint64_t* ref, int* width) {
  uint64_t kmin = keys[0];
  for (int i = 1; i < n; ++i) kmin = std::min(kmin, keys[i]);
  uint64_t dmax = 0;
  for (int i = 0; i < n; ++i) {
    deltas[i] = keys[i] - kmin;
    if (deltas[i] > dmax) dmax = deltas[i];
  }
  const int w = std::bit_width(dmax);
  if (w > kMaxPackedWidth) return false;
  *ref = kmin;
  *width = w;
  return true;
}

// Zig-zagged second differences of monotone keys (n ≥ 2); false when too
// wide. All arithmetic is mod 2^64, so reconstruction is exact regardless
// of key order.
inline bool DodDeltas(const uint64_t* keys, int n, uint64_t* zz, int* width) {
  uint64_t zmax = 0;
  uint64_t prev_d = keys[1] - keys[0];
  for (int i = 2; i < n; ++i) {
    const uint64_t d = keys[i] - keys[i - 1];
    zz[i - 2] = ZigZag(d - prev_d);
    prev_d = d;
    if (zz[i - 2] > zmax) zmax = zz[i - 2];
  }
  const int w = std::bit_width(zmax);
  if (w > kMaxPackedWidth) return false;
  *width = w;
  return true;
}

// Expected payload length of a column given its tag and the widths/scale
// read from the payload itself; kInvalidLen when the tag/region is
// structurally impossible. `payload` points at the column's first byte and
// is only dereferenced at offsets < min_len already validated by callers.
// Tag values match V3ColumnEncoding (leaf_codec_v3.h); spelled numerically
// here to keep the detail header free of the leaf codec's public header.
inline constexpr uint32_t kInvalidLen = 0xffffffffu;

inline uint32_t ExpectedLen(uint8_t tag, int n, const uint8_t* payload,
                            uint32_t len) {
  switch (tag) {
    case 0:  // kColRaw
      return static_cast<uint32_t>(8 * n);
    case 1:  // kColConst
    case 2:  // kColLink
      return n >= 1 ? 8u : kInvalidLen;
    case 3: {  // kColFor
      if (n < 1 || len < 9) return kInvalidLen;
      const int w = payload[8];
      if (w > kMaxPackedWidth) return kInvalidLen;
      return static_cast<uint32_t>(9 + PackedBytes(n, w));
    }
    case 4: {  // kColDod
      if (n < 1) return kInvalidLen;
      if (n == 1) return 8u;
      if (len < 17) return kInvalidLen;
      const int w = payload[16];
      if (w > kMaxPackedWidth) return kInvalidLen;
      return static_cast<uint32_t>(17 + PackedBytes(n - 2, w));
    }
    case 5: {  // kColFixed
      if (n < 1 || len < 10) return kInvalidLen;
      if (payload[0] > kMaxFixedScale) return kInvalidLen;
      const int w = payload[9];
      if (w > kMaxPackedWidth) return kInvalidLen;
      return static_cast<uint32_t>(10 + PackedBytes(n, w));
    }
    default:
      return kInvalidLen;
  }
}

}  // namespace v3detail
}  // namespace mst

#endif  // MST_INDEX_V3_COLUMN_CODEC_H_

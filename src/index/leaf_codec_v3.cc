#include "src/index/leaf_codec_v3.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "src/index/v3_column_codec.h"
#include "src/util/check.h"

// Force-inline the shared decode body into each ISA wrapper so the
// vectorizer sees it under that wrapper's target options.
#if defined(__GNUC__)
#define MST_ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define MST_ALWAYS_INLINE inline
#endif

namespace mst {
namespace {

// Header field offsets shared with the v2 layout (see node.cc).
constexpr size_t kOffLevel = 0;
constexpr size_t kOffVersion = 1;
constexpr size_t kOffFlags = 2;
constexpr size_t kOffCount = 3;
constexpr size_t kOffParent = 4;
constexpr size_t kOffPrevLeaf = 8;
constexpr size_t kOffNextLeaf = 12;
constexpr size_t kOffBounds = 16;

constexpr uint8_t kFlagTimeSorted = 1u;
constexpr uint8_t kV3Version = 3;

static_assert(kV3OffPayload >= kV3OffLengths + 2 * kV3ColumnCount,
              "subheader must fit tags + lengths");

// The generic column machinery (key bijections, bit packing, delta
// transforms, length validation) lives in the toolkit header
// v3_column_codec.h.
using v3detail::ColPlan;
using v3detail::DodDeltas;
using v3detail::DoubleKey;
using v3detail::ExpectedLen;
using v3detail::FindFixedScale;
using v3detail::FixedDeltas;
using v3detail::ForDeltas;
using v3detail::IdKey;
using v3detail::KeyDouble;
using v3detail::KeyId;
using v3detail::kInvalidLen;
using v3detail::kMaxFixedScale;
using v3detail::kMaxPackedWidth;
using v3detail::PackBits;
using v3detail::PackedBytes;
using v3detail::UnZigZag;
using v3detail::ZigZag;

// Raw 64-bit words of column `col` (bit patterns, not monotone keys).
void ColumnWords(const LeafView& v, int col, int n, uint64_t* words) {
  const double* const dcols[6] = {v.t0, v.x0, v.y0, v.t1, v.x1, v.y1};
  if (col < 6) {
    std::memcpy(words, dcols[col], static_cast<size_t>(n) * 8);
  } else {
    for (int i = 0; i < n; ++i) {
      words[i] = static_cast<uint64_t>(v.traj_id[i]);
    }
  }
}

// Monotone u64 keys of column `col`.
void ColumnKeys(const LeafView& v, int col, int n, uint64_t* keys) {
  const double* const dcols[6] = {v.t0, v.x0, v.y0, v.t1, v.x1, v.y1};
  if (col < 6) {
    const double* c = dcols[col];
    for (int i = 0; i < n; ++i) keys[i] = DoubleKey(c[i]);
  } else {
    for (int i = 0; i < n; ++i) keys[i] = IdKey(v.traj_id[i]);
  }
}

ColPlan PlanColumn(const LeafView& v, int col, int n) {
  ColPlan raw{kColRaw, static_cast<uint32_t>(8 * n), 0, 0};
  if (n == 0) return ColPlan{kColRaw, 0, 0, 0};

  uint64_t words[kNodeCapacity];
  uint64_t keys[kNodeCapacity] = {};  // zeroed to appease -Wmaybe-uninitialized
  uint64_t scratch[kNodeCapacity];
  ColumnWords(v, col, n, words);
  ColumnKeys(v, col, n, keys);

  ColPlan best = raw;
  const auto consider = [&best](const ColPlan& p) {
    if (p.len < best.len || (p.len == best.len && p.tag < best.tag)) best = p;
  };

  bool all_equal = true;
  for (int i = 1; i < n && all_equal; ++i) all_equal = words[i] == words[0];
  if (all_equal) consider({kColConst, 8, 0, 0});

  if (col >= 3 && col < 6) {
    uint64_t partner[kNodeCapacity];
    ColumnWords(v, col - 3, n, partner);
    bool linked = true;
    for (int i = 0; i + 1 < n && linked; ++i) {
      linked = words[i] == partner[i + 1];
    }
    if (linked) consider({kColLink, 8, 0, 0});
  }

  if (col < 6) {
    const double* const dcols[6] = {v.t0, v.x0, v.y0, v.t1, v.x1, v.y1};
    const int s = FindFixedScale(dcols[col], n);
    if (s >= 0) {
      int64_t ref;
      int w;
      if (FixedDeltas(dcols[col], n, s, scratch, &ref, &w)) {
        consider({kColFixed, static_cast<uint32_t>(10 + PackedBytes(n, w)),
                  static_cast<uint8_t>(w), static_cast<uint8_t>(s)});
      }
    }
  }

  {
    uint64_t ref;
    int w;
    if (ForDeltas(keys, n, scratch, &ref, &w)) {
      consider({kColFor, static_cast<uint32_t>(9 + PackedBytes(n, w)),
                static_cast<uint8_t>(w), 0});
    }
  }

  if (n == 1) {
    consider({kColDod, 8, 0, 0});
  } else {
    int w;
    if (DodDeltas(keys, n, scratch, &w)) {
      consider({kColDod, static_cast<uint32_t>(17 + PackedBytes(n - 2, w)),
                static_cast<uint8_t>(w), 0});
    }
  }

  return best;
}

void WriteColumn(const LeafView& v, int col, int n, const ColPlan& plan,
                 uint8_t* dst) {
  uint64_t words[kNodeCapacity] = {};
  uint64_t keys[kNodeCapacity] = {};  // zeroed to appease -Wmaybe-uninitialized
  uint64_t scratch[kNodeCapacity];
  const auto put64 = [&dst](uint64_t x) {
    std::memcpy(dst, &x, 8);
    dst += 8;
  };
  switch (plan.tag) {
    case kColRaw:
      if (n > 0) {
        ColumnWords(v, col, n, words);
        std::memcpy(dst, words, static_cast<size_t>(n) * 8);
      }
      return;
    case kColConst:
      ColumnWords(v, col, n, words);
      put64(words[0]);
      return;
    case kColLink:
      ColumnWords(v, col, n, words);
      put64(words[n - 1]);
      return;
    case kColFor: {
      ColumnKeys(v, col, n, keys);
      uint64_t ref;
      int w;
      MST_CHECK(ForDeltas(keys, n, scratch, &ref, &w));
      put64(ref);
      *dst++ = static_cast<uint8_t>(w);
      if (w > 0) PackBits(scratch, n, w, dst);
      return;
    }
    case kColDod: {
      ColumnKeys(v, col, n, keys);
      put64(keys[0]);
      if (n == 1) return;
      put64(keys[1] - keys[0]);
      int w;
      MST_CHECK(DodDeltas(keys, n, scratch, &w));
      *dst++ = static_cast<uint8_t>(w);
      if (w > 0 && n > 2) PackBits(scratch, n - 2, w, dst);
      return;
    }
    case kColFixed: {
      const double* const dcols[6] = {v.t0, v.x0, v.y0, v.t1, v.x1, v.y1};
      int64_t ref;
      int w;
      MST_CHECK(FixedDeltas(dcols[col], n, plan.scale, scratch, &ref, &w));
      *dst++ = plan.scale;
      put64(static_cast<uint64_t>(ref));
      *dst++ = static_cast<uint8_t>(w);
      if (w > 0) PackBits(scratch, n, w, dst);
      return;
    }
  }
  MST_CHECK_MSG(false, "unreachable column tag");
}

}  // namespace

bool IsV3LeafPage(const Page& page) {
  return page.ReadAt<uint8_t>(kOffVersion) == kV3Version;
}

std::array<uint8_t, kV3ColumnCount> V3ColumnTags(const Page& page) {
  MST_DCHECK(IsV3LeafPage(page));
  std::array<uint8_t, kV3ColumnCount> tags;
  std::memcpy(tags.data(), page.bytes.data() + kV3OffTags, tags.size());
  return tags;
}

size_t LeafPageOccupiedBytes(const Page& page) {
  if (!IsV3LeafPage(page)) return kPageSize;
  size_t total = kV3OffPayload;
  for (int c = 0; c < kV3ColumnCount; ++c) {
    total += page.ReadAt<uint16_t>(kV3OffLengths + 2 * static_cast<size_t>(c));
  }
  return std::min(total, kPageSize);
}

bool EncodeLeafV3(const IndexNode& node, Page* page) {
  MST_CHECK(node.IsLeaf());
  const LeafView v = node.leaves.View();
  const int n = v.count;
  MST_CHECK_MSG(n <= kNodeCapacity, "node overflow at encode time");

  ColPlan plans[kV3ColumnCount];
  size_t total = kV3OffPayload;
  for (int c = 0; c < kV3ColumnCount; ++c) {
    plans[c] = PlanColumn(v, c, n);
    total += plans[c].len;
  }
  if (total + kV3PayloadSlack > kPageSize) return false;

  std::memset(page->bytes.data(), 0, kPageSize);
  page->WriteAt<uint8_t>(kOffLevel, 0);
  page->WriteAt<uint8_t>(kOffVersion, kV3Version);
  page->WriteAt<uint8_t>(kOffFlags,
                         v.time_sorted ? kFlagTimeSorted : 0u);
  page->WriteAt<uint8_t>(kOffCount, static_cast<uint8_t>(n));
  page->WriteAt<PageId>(kOffParent, node.parent);
  page->WriteAt<PageId>(kOffPrevLeaf, node.prev_leaf);
  page->WriteAt<PageId>(kOffNextLeaf, node.next_leaf);
  page->WriteAt<Mbb3>(kOffBounds, v.bounds);

  uint8_t* const bytes = page->bytes.data();
  size_t cursor = kV3OffPayload;
  for (int c = 0; c < kV3ColumnCount; ++c) {
    bytes[kV3OffTags + static_cast<size_t>(c)] = plans[c].tag;
    page->WriteAt<uint16_t>(kV3OffLengths + 2 * static_cast<size_t>(c),
                            static_cast<uint16_t>(plans[c].len));
    WriteColumn(v, c, n, plans[c], bytes + cursor);
    cursor += plans[c].len;
  }
  return true;
}

namespace {

// Shared decode body. kThreePassDod selects the delta-of-delta shape: the
// fused single pass wins on baseline x86-64 (shorter dependency window per
// iteration), while the three-pass split wins once the extraction and the
// key→double mapping passes vectorize — so the AVX2 clone below instantiates
// the split and the portable path keeps the fused loop.
template <bool kThreePassDod>
MST_ALWAYS_INLINE void DecodeV3ColumnsBody(const Page& page, int count,
                                           LeafBlock* block) {
  MST_CHECK_MSG(count >= 0 && count <= kNodeCapacity, "corrupt v3 leaf count");
  const uint8_t* const bytes = page.bytes.data();
  const int n = count;

  uint32_t lens[kV3ColumnCount];
  size_t total = kV3OffPayload;
  for (int c = 0; c < kV3ColumnCount; ++c) {
    lens[c] = page.ReadAt<uint16_t>(kV3OffLengths + 2 * static_cast<size_t>(c));
    total += lens[c];
  }
  MST_CHECK_MSG(total + kV3PayloadSlack <= kPageSize,
                "corrupt v3 leaf column lengths");

  double* const dcols[6] = {block->t0, block->x0, block->y0,
                            block->t1, block->x1, block->y1};
  size_t cursor = kV3OffPayload;
  for (int c = 0; c < kV3ColumnCount; ++c) {
    const uint8_t tag = bytes[kV3OffTags + static_cast<size_t>(c)];
    const uint8_t* p = bytes + cursor;
    MST_CHECK_MSG(ExpectedLen(tag, n, p, lens[c]) == lens[c],
                  "corrupt v3 leaf column");
    MST_CHECK_MSG(tag != kColLink || c >= 3, "corrupt v3 leaf column tag");
    cursor += lens[c];

    const auto get64 = [&p]() {
      uint64_t x;
      std::memcpy(&x, p, 8);
      p += 8;
      return x;
    };
    // Packed lane i of the current cursor `p`: one unaligned 64-bit load,
    // one shift, one mask (w ≤ 57 keeps shift + width inside the load; the
    // encoder's kV3PayloadSlack keeps the last load inside the page). Each
    // case fuses this extraction with its value transform — no scratch
    // array round-trip, which is what keeps the decode within reach of the
    // v2 memcpy.
    const auto lane = [&p](size_t bit, uint64_t mask) {
      uint64_t cur;
      std::memcpy(&cur, p + (bit >> 3), sizeof(cur));
      return (cur >> (bit & 7)) & mask;
    };
    // __restrict: the output columns live in the LeafBlock, never inside
    // the page, so column stores cannot alias the byte loads — without the
    // annotation the char-typed page reads would order against every store.
    double* const __restrict out = c < 6 ? dcols[c] : nullptr;

    switch (tag) {
      case kColRaw:
        if (c < 6) {
          std::memcpy(out, p, static_cast<size_t>(n) * 8);
        } else {
          for (int i = 0; i < n; ++i) {
            uint64_t w;
            std::memcpy(&w, p + 8 * static_cast<size_t>(i), 8);
            block->traj_id[i] = static_cast<TrajectoryId>(w);
          }
        }
        break;
      case kColConst: {
        const uint64_t w = get64();
        if (c < 6) {
          const double d = std::bit_cast<double>(w);
          std::fill_n(out, n, d);
        } else {
          std::fill_n(block->traj_id, n, static_cast<TrajectoryId>(w));
        }
        break;
      }
      case kColLink: {
        // Partner start column (same index − 3) is already decoded.
        const double* partner = dcols[c - 3];
        std::memcpy(out, partner + 1, static_cast<size_t>(n - 1) * 8);
        out[n - 1] = std::bit_cast<double>(get64());
        break;
      }
      case kColFor: {
        const uint64_t ref = get64();
        const int w = *p++;
        const uint64_t mask = (1ull << w) - 1ull;
        size_t bit = 0;
        if (c < 6) {
          for (int i = 0; i < n; ++i, bit += static_cast<size_t>(w)) {
            out[i] = KeyDouble(ref + lane(bit, mask));
          }
        } else {
          for (int i = 0; i < n; ++i, bit += static_cast<size_t>(w)) {
            block->traj_id[i] = KeyId(ref + lane(bit, mask));
          }
        }
        break;
      }
      case kColDod: {
        uint64_t key = get64();
        uint64_t d = 0;
        int w = 0;
        uint64_t mask = 0;
        if (n >= 2) {
          d = get64();
          w = *p++;
          mask = (1ull << w) - 1ull;
        }
        if constexpr (kThreePassDod) {
          // Split shape: the lane extraction and the key→value mapping each
          // vectorize; only the short prefix-sum chain in the middle stays
          // serial.
          uint64_t keys[kNodeCapacity];
          keys[0] = key;
          if (n >= 2) {
            size_t bit = 0;
            for (int i = 2; i < n; ++i, bit += static_cast<size_t>(w)) {
              keys[i] = UnZigZag(lane(bit, mask));
            }
            key += d;
            keys[1] = key;
            for (int i = 2; i < n; ++i) {
              d += keys[i];
              key += d;
              keys[i] = key;
            }
          }
          if (c < 6) {
            for (int i = 0; i < n; ++i) out[i] = KeyDouble(keys[i]);
          } else {
            for (int i = 0; i < n; ++i) block->traj_id[i] = KeyId(keys[i]);
          }
        } else {
          // Fused shape: the chain is inherently serial (key += d += zigzag
          // lane); without wide registers, one pass keeps the per-iteration
          // work minimal.
          if (c < 6) {
            out[0] = KeyDouble(key);
            if (n >= 2) {
              key += d;
              out[1] = KeyDouble(key);
              size_t bit = 0;
              for (int i = 2; i < n; ++i, bit += static_cast<size_t>(w)) {
                d += UnZigZag(lane(bit, mask));
                key += d;
                out[i] = KeyDouble(key);
              }
            }
          } else {
            block->traj_id[0] = KeyId(key);
            if (n >= 2) {
              key += d;
              block->traj_id[1] = KeyId(key);
              size_t bit = 0;
              for (int i = 2; i < n; ++i, bit += static_cast<size_t>(w)) {
                d += UnZigZag(lane(bit, mask));
                key += d;
                block->traj_id[i] = KeyId(key);
              }
            }
          }
        }
        break;
      }
      case kColFixed: {
        const int s = *p++;
        const int64_t ref = static_cast<int64_t>(get64());
        const int w = *p++;
        const uint64_t mask = (1ull << w) - 1ull;
        // Exact: |ref + delta| ≤ 2^53 and the scale is a power of two, so
        // the product reproduces the encoded double bit-for-bit.
        const double inv = std::ldexp(1.0, -s);
        size_t bit = 0;
        for (int i = 0; i < n; ++i, bit += static_cast<size_t>(w)) {
          out[i] = static_cast<double>(
                       ref + static_cast<int64_t>(lane(bit, mask))) *
                   inv;
        }
        break;
      }
      default:
        MST_CHECK_MSG(false, "corrupt v3 leaf column tag");
    }

    // Zero the tail slot-by-slot: recycled blocks arrive dirty, and the
    // zero-tail invariant keeps later re-encodes byte-deterministic.
    if (c < 6) {
      std::fill_n(out + n, kNodeCapacity - n, 0.0);
    } else {
      std::fill_n(block->traj_id + n, kNodeCapacity - n, TrajectoryId{0});
    }
  }
}

#if defined(__x86_64__) && defined(__GNUC__)
// Wide clones: baseline x86-64 codegen leaves the packed-lane loops scalar;
// compiled for AVX2 (4-wide) or AVX-512 (8-wide) the FoR loop and both
// vector passes of the split DoD auto-vectorize, roughly halving decode
// ns/entry on the hot tag mix. Dispatch picks the widest ISA at first use.
__attribute__((target("avx2"))) void DecodeV3ColumnsAvx2(const Page& page,
                                                         int count,
                                                         LeafBlock* block) {
  DecodeV3ColumnsBody<true>(page, count, block);
}

__attribute__((target("avx512f,avx512dq,avx512vl,avx512bw"))) void
DecodeV3ColumnsAvx512(const Page& page, int count, LeafBlock* block) {
  DecodeV3ColumnsBody<true>(page, count, block);
}

int PickDecodeIsa() {
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512dq") &&
      __builtin_cpu_supports("avx512vl") &&
      __builtin_cpu_supports("avx512bw")) {
    return 2;
  }
  return __builtin_cpu_supports("avx2") ? 1 : 0;
}
#endif

}  // namespace

void DecodeV3Columns(const Page& page, int count, LeafBlock* block) {
#if defined(__x86_64__) && defined(__GNUC__)
  static const int isa = PickDecodeIsa();
  if (isa == 2) {
    DecodeV3ColumnsAvx512(page, count, block);
    return;
  }
  if (isa == 1) {
    DecodeV3ColumnsAvx2(page, count, block);
    return;
  }
#endif
  DecodeV3ColumnsBody<false>(page, count, block);
}

std::string ValidateV3LeafPage(const Page& page) {
  if (!IsV3LeafPage(page)) return "not a v3 leaf page";
  const int n = page.ReadAt<uint8_t>(kOffCount);
  if (n > kNodeCapacity) return "oversized entry count";

  uint32_t lens[kV3ColumnCount];
  size_t total = kV3OffPayload;
  for (int c = 0; c < kV3ColumnCount; ++c) {
    lens[c] = page.ReadAt<uint16_t>(kV3OffLengths + 2 * static_cast<size_t>(c));
    total += lens[c];
  }
  if (total + kV3PayloadSlack > kPageSize) {
    return "column lengths overflow the page";
  }

  size_t cursor = kV3OffPayload;
  for (int c = 0; c < kV3ColumnCount; ++c) {
    const uint8_t tag = page.ReadAt<uint8_t>(kV3OffTags + static_cast<size_t>(c));
    if (tag > kColFixed) return "bad column encoding tag";
    if (tag == kColLink && c < 3) return "link encoding on a start column";
    const uint32_t expected =
        ExpectedLen(tag, n, page.bytes.data() + cursor, lens[c]);
    if (expected == kInvalidLen || expected != lens[c]) {
      return "truncated or mis-sized column payload";
    }
    cursor += lens[c];
  }
  return std::string();
}

}  // namespace mst

// Cross-worker kth-upper-bound board: a lock-free atomic minimum over the
// exact kth-best DISSIM values published by cooperating sub-searches of one
// logical k-MST query. The shard layer (src/shard/) hands one board to the
// per-shard legs of a scatter-gather query: a shard that completes first
// publishes its exact kth result value, and legs that start later seed
// MstOptions::initial_kth_upper_bound from the board's current minimum.
//
// Soundness contract (the reason publishing is restricted): every
// participant of one board must search a *disjoint subset* of one logical
// query's candidate set, under exact_postprocess with an exact traversal
// policy, and may publish only a full-reach kth value (exactly k results
// returned). Then each published value is the exact kth-best DISSIM over k
// globally-eligible trajectories, hence a true upper bound of the global
// kth-best — which is precisely initial_kth_upper_bound's contract (the
// search adds its own relative slack before pruning with it, see
// MstOptions). Values from approximate traversals, partial reaches, or
// overlapping candidate sets are NOT sound and must never be published.

#ifndef MST_EXEC_KTH_BOUND_BOARD_H_
#define MST_EXEC_KTH_BOUND_BOARD_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <limits>

namespace mst {

/// Monotonically decreasing shared upper bound (starts at +inf). Publish is
/// an atomic fetch-min plus a diagnostic count; Current is one relaxed load.
/// Safe for any number of concurrent publishers and readers; no ordering is
/// implied between a publish and the reads of other data (the bound's
/// *value* is self-certifying — a sound bound is sound whenever it is
/// observed).
class KthBoundBoard {
 public:
  KthBoundBoard() = default;

  KthBoundBoard(const KthBoundBoard&) = delete;
  KthBoundBoard& operator=(const KthBoundBoard&) = delete;

  /// The smallest bound published so far; +inf before the first publish.
  double Current() const {
    return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
  }

  /// Lowers the board to min(current, bound) and counts the publish.
  /// Non-finite or negative bounds are counted but otherwise ignored (never
  /// a usable prune bound; a NaN would poison the min).
  void Publish(double bound) {
    publishes_.fetch_add(1, std::memory_order_relaxed);
    if (!(bound >= 0.0) || bound == std::numeric_limits<double>::infinity()) {
      return;
    }
    const uint64_t new_bits = std::bit_cast<uint64_t>(bound);
    uint64_t cur = bits_.load(std::memory_order_relaxed);
    // Non-negative doubles order the same as their bit patterns, so the
    // fetch-min runs on raw bits.
    while (std::bit_cast<double>(cur) > bound &&
           !bits_.compare_exchange_weak(cur, new_bits,
                                        std::memory_order_relaxed)) {
    }
  }

  /// Publish calls since construction (diagnostics: how often shard legs
  /// offered the board a bound).
  int64_t publish_count() const {
    return publishes_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> bits_{
      std::bit_cast<uint64_t>(std::numeric_limits<double>::infinity())};
  std::atomic<int64_t> publishes_{0};
};

}  // namespace mst

#endif  // MST_EXEC_KTH_BOUND_BOARD_H_

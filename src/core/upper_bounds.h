// The k-buffer of BFMSTSearch (§4.3): one upper bound of DISSIM per live
// candidate (PESDISSIM while partial, the covered value once complete) and
// the kth smallest of them, which Heuristics 1 and 2 read on every leaf entry
// and every heap pop.

#ifndef MST_CORE_UPPER_BOUNDS_H_
#define MST_CORE_UPPER_BOUNDS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "src/util/check.h"

namespace mst {

/// Upper bounds keyed by dense candidate slot (0, 1, 2, ... as the search
/// discovers candidates). The keys (bound, slot) are split into the k
/// smallest, kept sorted in a flat array so KthValue() is its last element,
/// and the rest, kept in a min-heap with lazy deletion: a heap entry whose
/// slot has since left the rest or been pushed again is skipped when it
/// surfaces, and the heap is compacted in place once stale entries outnumber
/// live ones. Invariant: every top key is below every rest key, and the rest
/// is empty while fewer than k keys exist. Past warm-up nothing allocates.
class UpperBounds {
 public:
  explicit UpperBounds(int k) : k_(static_cast<size_t>(k)) {
    MST_CHECK(k >= 1);
    top_.reserve(k_);
  }

  /// Sets the bound of `slot`, adding the slot if it has none.
  void Update(uint32_t slot, double upper) {
    MST_DCHECK(!std::isnan(upper));
    if (slot >= slots_.size()) slots_.resize(slot + 1);
    Detach(slot);
    const Key key{upper, slot};
    if (top_.size() < k_) {
      InsertTop(key);
    } else if (key < top_.back()) {
      const Key out = top_.back();
      top_.pop_back();
      InsertTop(key);
      PushRest(out);
    } else {
      PushRest(key);
    }
  }

  /// Drops the bound of `slot`; a no-op if it has none.
  void Remove(uint32_t slot) {
    if (slot < slots_.size()) Detach(slot);
  }

  /// kth smallest bound, or +inf while fewer than k bounds exist.
  double KthValue() const {
    return top_.size() < k_ ? std::numeric_limits<double>::infinity()
                            : top_.back().value;
  }

  /// Number of slots holding a bound.
  size_t size() const { return top_.size() + rest_size_; }

 private:
  struct Key {
    double value;
    uint32_t slot;
    bool operator<(const Key& o) const {
      return value != o.value ? value < o.value : slot < o.slot;
    }
  };
  // A rest entry is live while its slot is in the rest and `stamp` is the
  // slot's latest push.
  struct HeapEntry {
    double value;
    uint32_t slot;
    uint32_t stamp;
    Key key() const { return {value, slot}; }
    bool operator>(const HeapEntry& o) const { return o.key() < key(); }
  };
  enum Where : uint8_t { kNone, kTop, kRest };
  struct SlotState {
    double value = 0.0;
    uint32_t stamp = 0;
    Where where = kNone;
  };

  // Takes `slot`'s key out of the top or the rest; a top vacancy is refilled
  // with the smallest rest key, which is at least every remaining top key.
  void Detach(uint32_t slot) {
    SlotState& s = slots_[slot];
    if (s.where == kTop) {
      s.where = kNone;
      const Key key{s.value, slot};
      top_.erase(std::lower_bound(top_.begin(), top_.end(), key));
      if (rest_size_ > 0) {
        const Key next = PopRest();
        slots_[next.slot].where = kTop;
        top_.push_back(next);
      }
    } else if (s.where == kRest) {
      s.where = kNone;  // its heap entry goes stale
      --rest_size_;
    }
  }

  void InsertTop(const Key& key) {
    SlotState& s = slots_[key.slot];
    s.value = key.value;
    s.where = kTop;
    top_.insert(std::upper_bound(top_.begin(), top_.end(), key), key);
  }

  void PushRest(const Key& key) {
    SlotState& s = slots_[key.slot];
    s.value = key.value;
    s.where = kRest;
    ++rest_size_;
    heap_.push_back({key.value, key.slot, ++s.stamp});
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
    if (heap_.size() > 2 * rest_size_ + 32) {
      std::erase_if(heap_, [this](const HeapEntry& e) { return !Live(e); });
      std::make_heap(heap_.begin(), heap_.end(), std::greater<>());
    }
  }

  // Pops the smallest live rest key (requires rest_size_ > 0).
  Key PopRest() {
    for (;;) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
      const HeapEntry e = heap_.back();
      heap_.pop_back();
      if (Live(e)) {
        slots_[e.slot].where = kNone;
        --rest_size_;
        return e.key();
      }
    }
  }

  bool Live(const HeapEntry& e) const {
    const SlotState& s = slots_[e.slot];
    return s.where == kRest && s.stamp == e.stamp;
  }

  size_t k_;
  std::vector<Key> top_;        // the k smallest keys, ascending
  std::vector<HeapEntry> heap_;  // min-heap of rest keys, some stale
  size_t rest_size_ = 0;         // live rest keys
  std::vector<SlotState> slots_;
};

}  // namespace mst

#endif  // MST_CORE_UPPER_BOUNDS_H_

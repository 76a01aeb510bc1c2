#include "src/core/upper_bounds.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "src/util/random.h"

namespace mst {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Brute-force k-buffer: the live bounds as a sorted multiset.
class ReferenceBounds {
 public:
  explicit ReferenceBounds(int k) : k_(k) {}

  void Update(uint32_t slot, double upper) {
    Remove(slot);
    if (slot >= value_.size()) value_.resize(slot + 1, std::nan(""));
    value_[slot] = upper;
    sorted_.insert(upper);
  }

  void Remove(uint32_t slot) {
    if (slot >= value_.size() || std::isnan(value_[slot])) return;
    sorted_.erase(sorted_.find(value_[slot]));
    value_[slot] = std::nan("");
  }

  bool Has(uint32_t slot) const {
    return slot < value_.size() && !std::isnan(value_[slot]);
  }
  double Value(uint32_t slot) const { return value_[slot]; }

  double KthValue() const {
    if (static_cast<int>(sorted_.size()) < k_) return kInf;
    return *std::next(sorted_.begin(), k_ - 1);
  }

  size_t size() const { return sorted_.size(); }

 private:
  int k_;
  std::multiset<double> sorted_;
  std::vector<double> value_;  // NaN: no bound
};

class UpperBoundsTest : public ::testing::TestWithParam<int> {};

TEST_P(UpperBoundsTest, MatchesSortedMultisetReference) {
  const int k = GetParam();
  for (const bool ties : {false, true}) {
    Rng rng(7001 + static_cast<uint64_t>(k) * 2 + (ties ? 1 : 0));
    // Three times as many slots as k keeps the rest partition populated.
    const uint32_t num_slots = static_cast<uint32_t>(3 * k + 5);
    // With ties, bounds come from a handful of values, so many keys are
    // exactly equal across slots and across one slot's own updates.
    const auto draw = [&]() {
      return ties ? static_cast<double>(rng.UniformIndex(6))
                  : rng.Uniform(0.0, 1000.0);
    };
    UpperBounds got(k);
    ReferenceBounds want(k);
    for (int op = 0; op < 20000; ++op) {
      const uint32_t slot = static_cast<uint32_t>(rng.UniformIndex(num_slots));
      const size_t kind = rng.UniformIndex(10);
      std::string what;
      if (kind == 0) {
        got.Remove(slot);
        want.Remove(slot);
        what = "remove";
      } else if (want.Has(slot) && kind <= 3) {
        // Raise the slot's bound (or keep it, on a tie draw).
        const double v = want.Value(slot) + (ties ? rng.UniformIndex(2)
                                                  : rng.Uniform(0.0, 50.0));
        got.Update(slot, v);
        want.Update(slot, v);
        what = "raise";
      } else if (want.Has(slot) && kind <= 6) {
        const double v = want.Value(slot) - (ties ? rng.UniformIndex(2)
                                                  : rng.Uniform(0.0, 50.0));
        got.Update(slot, v);
        want.Update(slot, v);
        what = "lower";
      } else {
        // A fresh slot, a re-added removed slot, or an arbitrary jump.
        const double v = draw();
        got.Update(slot, v);
        want.Update(slot, v);
        what = "set";
      }
      ASSERT_EQ(got.KthValue(), want.KthValue())
          << "op " << op << " (" << what << " slot " << slot << ")";
      ASSERT_EQ(got.size(), want.size()) << "op " << op;
    }
  }
}

TEST_P(UpperBoundsTest, InfiniteUntilKBoundsExist) {
  const int k = GetParam();
  UpperBounds bounds(k);
  for (int i = 0; i < k - 1; ++i) {
    bounds.Update(static_cast<uint32_t>(i), 10.0 - i);
    EXPECT_EQ(bounds.KthValue(), kInf);
  }
  bounds.Update(static_cast<uint32_t>(k - 1), 100.0);
  EXPECT_EQ(bounds.KthValue(), 100.0);
  bounds.Remove(static_cast<uint32_t>(k - 1));
  EXPECT_EQ(bounds.KthValue(), kInf);
  // Removing an absent slot, or one past every slot seen, changes nothing.
  bounds.Remove(static_cast<uint32_t>(k - 1));
  bounds.Remove(static_cast<uint32_t>(10 * k));
  EXPECT_EQ(bounds.size(), static_cast<size_t>(k - 1));
}

INSTANTIATE_TEST_SUITE_P(
    Ks, UpperBoundsTest, ::testing::Values(1, 50, 100),
    [](const ::testing::TestParamInfo<int>& info) {
      std::string name = "k";
      name += std::to_string(info.param);
      return name;
    });

}  // namespace
}  // namespace mst

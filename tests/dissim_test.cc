#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "src/core/dissim.h"
#include "src/core/dissim_batch.h"
#include "src/util/random.h"
#include "tests/test_util.h"

namespace mst {
namespace {

using testing_util::NumericDissim;
using testing_util::RandomIrregularTrajectory;
using testing_util::RandomTrajectory;

DistanceTrinomial RandomTrinomial(Rng* rng, double min_sep = -9.0) {
  return DistanceTrinomial::Between(
      {rng->Uniform(-9, 9), rng->Uniform(-9, 9)},
      {rng->Uniform(-9, 9), rng->Uniform(-9, 9)},
      {rng->Uniform(min_sep, 9), rng->Uniform(min_sep, 9)},
      {rng->Uniform(min_sep, 9), rng->Uniform(min_sep, 9)},
      rng->Uniform(0.05, 4.0));
}

double NumericIntegral(const DistanceTrinomial& tri, int steps = 100000) {
  const double h = tri.dur / steps;
  double sum = 0.0;
  for (int i = 0; i < steps; ++i) {
    sum += tri.ValueAt((i + 0.5) * h) * h;
  }
  return sum;
}

TEST(ExactIntegralTest, ConstantDistance) {
  const DistanceTrinomial tri = DistanceTrinomial::Between(
      {0, 0}, {0, 0}, {3, 4}, {3, 4}, 2.0);
  EXPECT_DOUBLE_EQ(ExactSegmentIntegral(tri), 10.0);
}

TEST(ExactIntegralTest, PerfectSquareCollision) {
  // Head-on pass through the query point: D(τ) = |τ − 1| over [0, 2].
  const DistanceTrinomial tri = DistanceTrinomial::Between(
      {0, 0}, {0, 0}, {-1, 0}, {1, 0}, 2.0);
  EXPECT_NEAR(ExactSegmentIntegral(tri), 1.0, 1e-12);
}

TEST(ExactIntegralTest, KnownClosedFormCase) {
  // Query at origin; object moves (0,1) → (2,1): D(τ)² = τ² − ... with
  // dur = 2: position (τ, 1), D = sqrt(τ² + 1); ∫₀² sqrt(τ²+1) dτ =
  // [τ√(τ²+1)/2 + asinh(τ)/2]₀² = √5 + asinh(2)/2.
  const DistanceTrinomial tri = DistanceTrinomial::Between(
      {0, 0}, {0, 0}, {0, 1}, {2, 1}, 2.0);
  const double expected = std::sqrt(5.0) + 0.5 * std::asinh(2.0);
  EXPECT_NEAR(ExactSegmentIntegral(tri), expected, 1e-12);
}

TEST(ExactIntegralTest, MatchesNumericQuadrature) {
  Rng rng(51);
  for (int trial = 0; trial < 200; ++trial) {
    const DistanceTrinomial tri = RandomTrinomial(&rng);
    const double exact = ExactSegmentIntegral(tri);
    const double numeric = NumericIntegral(tri);
    EXPECT_NEAR(exact, numeric, 1e-5 * std::max(1.0, numeric));
  }
}

TEST(TrapezoidIntegralTest, OverestimatesAndBoundContainsTruth) {
  // D is convex on every interval, so the trapezoid value is >= the true
  // integral and the Lemma 1 bound brackets it from below.
  Rng rng(53);
  for (int trial = 0; trial < 300; ++trial) {
    const DistanceTrinomial tri = RandomTrinomial(&rng);
    const double exact = ExactSegmentIntegral(tri);
    const DissimResult approx = TrapezoidSegmentIntegral(tri);
    EXPECT_GE(approx.value, exact - 1e-9 * std::max(1.0, exact));
    EXPECT_LE(approx.value - approx.error_bound,
              exact + 1e-9 * std::max(1.0, exact));
    EXPECT_GE(approx.error_bound, 0.0);
  }
}

TEST(TrapezoidIntegralTest, ExactForConstantDistance) {
  const DistanceTrinomial tri = DistanceTrinomial::Between(
      {0, 0}, {0, 0}, {3, 4}, {3, 4}, 2.0);
  const DissimResult r = TrapezoidSegmentIntegral(tri);
  EXPECT_DOUBLE_EQ(r.value, 10.0);
  EXPECT_DOUBLE_EQ(r.error_bound, 0.0);
}

TEST(TrapezoidIntegralTest, NearCollisionBoundFallsBackToValue) {
  // Collision at the midpoint: D'' unbounded, so the bound degrades to the
  // value itself (still one-sided correct).
  const DistanceTrinomial tri = DistanceTrinomial::Between(
      {0, 0}, {0, 0}, {-1, 0}, {1, 0}, 2.0);
  const DissimResult r = TrapezoidSegmentIntegral(tri);
  EXPECT_DOUBLE_EQ(r.value, 2.0);  // trapezoid of endpoints both at 1
  EXPECT_DOUBLE_EQ(r.error_bound, 2.0);
  EXPECT_DOUBLE_EQ(r.LowerBound(), 0.0);
}

TEST(AdaptivePolicyTest, TightensLooseIntervals) {
  Rng rng(55);
  for (int trial = 0; trial < 200; ++trial) {
    const DistanceTrinomial tri = RandomTrinomial(&rng);
    const DissimResult r = IntegrateSegment(tri, IntegrationPolicy::kAdaptive);
    EXPECT_LE(r.error_bound, kAdaptiveRelTol * r.value + 1e-15);
  }
}

TEST(DissimResultTest, LowerBoundClampsAtZero) {
  DissimResult r{1.0, 3.0};
  EXPECT_DOUBLE_EQ(r.LowerBound(), 0.0);
  r = {3.0, 1.0};
  EXPECT_DOUBLE_EQ(r.LowerBound(), 2.0);
}

TEST(DistanceAtTest, MatchesGeometry) {
  const Trajectory q(1, {{0.0, {0, 0}}, {2.0, {2, 0}}});
  const Trajectory t(2, {{0.0, {0, 3}}, {2.0, {2, 5}}});
  EXPECT_DOUBLE_EQ(DistanceAt(q, t, 0.0), 3.0);
  EXPECT_DOUBLE_EQ(DistanceAt(q, t, 2.0), 5.0);
  EXPECT_DOUBLE_EQ(DistanceAt(q, t, 1.0), 4.0);
}

TEST(ComputeDissimTest, IdenticalTrajectoriesGiveZero) {
  Rng rng(57);
  const Trajectory t = RandomTrajectory(&rng, 1, 30);
  const Trajectory copy(2, t.samples());
  const DissimResult d =
      ComputeDissim(t, copy, t.Lifespan(), IntegrationPolicy::kExact);
  EXPECT_NEAR(d.value, 0.0, 1e-12);
}

TEST(ComputeDissimTest, ConstantOffsetIntegratesExactly) {
  // T = Q shifted by (3, 4): distance constantly 5 → DISSIM = 5 · duration.
  Rng rng(59);
  const Trajectory q = RandomTrajectory(&rng, 1, 25, 0.0, 7.0);
  std::vector<TPoint> shifted;
  for (const TPoint& s : q.samples()) {
    shifted.push_back({s.t, {s.p.x + 3.0, s.p.y + 4.0}});
  }
  const Trajectory t(2, std::move(shifted));
  const DissimResult d =
      ComputeDissim(q, t, q.Lifespan(), IntegrationPolicy::kExact);
  EXPECT_NEAR(d.value, 5.0 * 7.0, 1e-9);
}

TEST(ComputeDissimTest, SymmetricInArguments) {
  Rng rng(61);
  const Trajectory q = RandomIrregularTrajectory(&rng, 1, 20, 0.0, 5.0);
  const Trajectory t = RandomIrregularTrajectory(&rng, 2, 35, 0.0, 5.0);
  const double ab =
      ComputeDissim(q, t, {0.5, 4.5}, IntegrationPolicy::kExact).value;
  const double ba =
      ComputeDissim(t, q, {0.5, 4.5}, IntegrationPolicy::kExact).value;
  EXPECT_NEAR(ab, ba, 1e-9 * std::max(1.0, ab));
}

TEST(ComputeDissimTest, MatchesNumericReference) {
  Rng rng(63);
  for (int trial = 0; trial < 20; ++trial) {
    const Trajectory q = RandomIrregularTrajectory(&rng, 1, 25, 0.0, 6.0);
    const Trajectory t = RandomIrregularTrajectory(&rng, 2, 40, 0.0, 6.0);
    const double exact =
        ComputeDissim(q, t, {1.0, 5.0}, IntegrationPolicy::kExact).value;
    const double numeric = NumericDissim(q, t, 1.0, 5.0);
    EXPECT_NEAR(exact, numeric, 1e-3 * std::max(1.0, numeric));
  }
}

TEST(ComputeDissimTest, TrapezoidBracketsExact) {
  Rng rng(65);
  for (int trial = 0; trial < 30; ++trial) {
    const Trajectory q = RandomIrregularTrajectory(&rng, 1, 15, 0.0, 6.0);
    const Trajectory t = RandomIrregularTrajectory(&rng, 2, 55, 0.0, 6.0);
    const double exact =
        ComputeDissim(q, t, {0.0, 6.0}, IntegrationPolicy::kExact).value;
    const DissimResult approx =
        ComputeDissim(q, t, {0.0, 6.0}, IntegrationPolicy::kTrapezoid);
    EXPECT_GE(approx.value, exact - 1e-9);
    EXPECT_LE(approx.LowerBound(), exact + 1e-9);
  }
}

TEST(ComputeDissimTest, RedundantCollinearSamplesDoNotChangeValue) {
  // Inserting an interpolated sample must not change DISSIM — the property
  // that makes the metric robust to different sampling rates (Fig. 1).
  Rng rng(67);
  const Trajectory q = RandomTrajectory(&rng, 1, 10, 0.0, 9.0);
  const Trajectory t = RandomTrajectory(&rng, 2, 10, 0.0, 9.0);
  // Densify t by splitting each segment at its midpoint (positions on the
  // same line).
  std::vector<TPoint> dense;
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    const TPoint& a = t.sample(i);
    const TPoint& b = t.sample(i + 1);
    dense.push_back(a);
    const double mid = 0.5 * (a.t + b.t);
    dense.push_back({mid, Lerp(a, b, mid)});
  }
  dense.push_back(t.samples().back());
  const Trajectory t2(3, std::move(dense));
  const double d1 =
      ComputeDissim(q, t, t.Lifespan(), IntegrationPolicy::kExact).value;
  const double d2 =
      ComputeDissim(q, t2, t.Lifespan(), IntegrationPolicy::kExact).value;
  EXPECT_NEAR(d1, d2, 1e-9 * std::max(1.0, d1));
}

TEST(ComputeDissimTest, AdditiveOverSubPeriods) {
  Rng rng(69);
  const Trajectory q = RandomIrregularTrajectory(&rng, 1, 22, 0.0, 8.0);
  const Trajectory t = RandomIrregularTrajectory(&rng, 2, 33, 0.0, 8.0);
  const double whole =
      ComputeDissim(q, t, {1.0, 7.0}, IntegrationPolicy::kExact).value;
  const double left =
      ComputeDissim(q, t, {1.0, 3.7}, IntegrationPolicy::kExact).value;
  const double right =
      ComputeDissim(q, t, {3.7, 7.0}, IntegrationPolicy::kExact).value;
  EXPECT_NEAR(whole, left + right, 1e-9 * std::max(1.0, whole));
}

TEST(ComputeDissimDeathTest, RequiresCoverage) {
  const Trajectory q(1, {{0.0, {0, 0}}, {1.0, {1, 1}}});
  const Trajectory t(2, {{0.5, {0, 0}}, {2.0, {1, 1}}});
  EXPECT_DEATH(ComputeDissim(q, t, {0.0, 1.0}), "valid over the period");
}

TEST(SegmentDissimTest, MatchesComputeDissimOnASegment) {
  Rng rng(71);
  for (int trial = 0; trial < 40; ++trial) {
    const Trajectory q = RandomIrregularTrajectory(&rng, 1, 30, 0.0, 10.0);
    // A single data segment inside the query's lifespan.
    const double t0 = rng.Uniform(0.0, 8.0);
    const double t1 = t0 + rng.Uniform(0.2, 2.0);
    const TPoint a{t0, {rng.Uniform(0, 10), rng.Uniform(0, 10)}};
    const TPoint b{t1, {rng.Uniform(0, 10), rng.Uniform(0, 10)}};
    const LeafEntry e = LeafEntry::Of(77, a, b);
    const TimeInterval window{t0, t1};
    const SegmentDissim sd =
        ComputeSegmentDissim(q, e, window, IntegrationPolicy::kExact);
    const Trajectory seg_traj(77, {a, b});
    const double ref =
        ComputeDissim(q, seg_traj, window, IntegrationPolicy::kExact).value;
    EXPECT_NEAR(sd.integral.value, ref, 1e-9 * std::max(1.0, ref));
    EXPECT_NEAR(sd.dist_begin, DistanceAt(q, seg_traj, t0), 1e-12);
    EXPECT_NEAR(sd.dist_end, DistanceAt(q, seg_traj, t1), 1e-12);
  }
}

TEST(SegmentDissimTest, WindowClipsSegment) {
  const Trajectory q(1, {{0.0, {0, 0}}, {10.0, {0, 0}}});  // static query
  const LeafEntry e = LeafEntry::Of(5, {2.0, {3, 0}}, {6.0, {3, 0}});
  const SegmentDissim sd =
      ComputeSegmentDissim(q, e, {3.0, 5.0}, IntegrationPolicy::kExact);
  EXPECT_NEAR(sd.integral.value, 3.0 * 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(sd.dist_begin, 3.0);
  EXPECT_DOUBLE_EQ(sd.dist_end, 3.0);
}

// ComputeDissim as a sorted merge of both trajectories' timestamps with one
// PositionAt binary search per cut and trajectory: the bitwise reference.
DissimResult ReferenceDissim(const Trajectory& q, const Trajectory& t,
                             const TimeInterval& period,
                             IntegrationPolicy policy) {
  std::vector<double> cuts{period.begin};
  for (const TPoint& s : q.samples()) {
    if (s.t > period.begin && s.t < period.end) cuts.push_back(s.t);
  }
  for (const TPoint& s : t.samples()) {
    if (s.t > period.begin && s.t < period.end) cuts.push_back(s.t);
  }
  cuts.push_back(period.end);
  std::sort(cuts.begin(), cuts.end());
  TrinomialBatch batch;
  Vec2 q_prev = *q.PositionAt(cuts.front());
  Vec2 t_prev = *t.PositionAt(cuts.front());
  for (size_t i = 0; i + 1 < cuts.size(); ++i) {
    if (cuts[i + 1] <= cuts[i]) continue;  // duplicate timestamps
    const Vec2 q_next = *q.PositionAt(cuts[i + 1]);
    const Vec2 t_next = *t.PositionAt(cuts[i + 1]);
    batch.Add(DistanceTrinomial::Between(q_prev, q_next, t_prev, t_next,
                                         cuts[i + 1] - cuts[i]));
    q_prev = q_next;
    t_prev = t_next;
  }
  return IntegrateBatch(batch, policy);
}

// ComputeSegmentDissim with one PositionAt binary search per query cut: the
// bitwise reference.
SegmentDissim ReferenceSegmentDissim(const Trajectory& q, const LeafEntry& e,
                                     const TimeInterval& window,
                                     IntegrationPolicy policy) {
  std::vector<double> cuts{window.begin};
  for (const TPoint& s : q.samples()) {
    if (s.t > window.begin && s.t < window.end) cuts.push_back(s.t);
  }
  cuts.push_back(window.end);
  TrinomialBatch batch;
  SegmentDissim out;
  Vec2 q_prev = *q.PositionAt(cuts.front());
  Vec2 e_prev = Lerp(e.Start(), e.End(), cuts.front());
  out.dist_begin = Distance(q_prev, e_prev);
  for (size_t i = 0; i + 1 < cuts.size(); ++i) {
    const Vec2 q_next = *q.PositionAt(cuts[i + 1]);
    const Vec2 e_next = Lerp(e.Start(), e.End(), cuts[i + 1]);
    batch.Add(DistanceTrinomial::Between(q_prev, q_next, e_prev, e_next,
                                         cuts[i + 1] - cuts[i]));
    q_prev = q_next;
    e_prev = e_next;
  }
  out.integral = IntegrateBatch(batch, policy);
  out.dist_end = Distance(q_prev, e_prev);
  return out;
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

constexpr IntegrationPolicy kPolicies[] = {IntegrationPolicy::kTrapezoid,
                                           IntegrationPolicy::kExact,
                                           IntegrationPolicy::kAdaptive};

// A time in [lo, hi]: a sample time of `q` in range half of the time, the
// range's own ends now and then, uniform otherwise.
double PickTime(Rng* rng, const Trajectory& q, double lo, double hi) {
  const double u = rng->Uniform(0.0, 1.0);
  if (u < 0.5) {
    const TPoint& s = q.sample(rng->UniformIndex(q.size()));
    if (s.t >= lo && s.t <= hi) return s.t;
  }
  if (u > 0.9) return u > 0.95 ? lo : hi;
  return rng->Uniform(lo, hi);
}

// `q`'s timestamps with a random subset dropped and random extra times
// added, fresh positions: a second trajectory sharing many timestamps with
// q (duplicate cuts in the merge) over the same lifespan.
Trajectory SharingTimestamps(Rng* rng, const Trajectory& q, TrajectoryId id) {
  std::vector<double> times{q.start_time(), q.end_time()};
  for (size_t i = 1; i + 1 < q.size(); ++i) {
    if (rng->Uniform(0.0, 1.0) < 0.6) times.push_back(q.sample(i).t);
  }
  for (int i = 0; i < 5; ++i) {
    times.push_back(rng->Uniform(q.start_time(), q.end_time()));
  }
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());
  std::vector<TPoint> samples;
  for (const double t : times) {
    samples.push_back({t, {rng->Uniform(0, 10), rng->Uniform(0, 10)}});
  }
  return Trajectory(id, std::move(samples));
}

TEST(ComputeDissimTest, BitwiseEqualToPositionAtReference) {
  Rng rng(79);
  for (int trial = 0; trial < 600; ++trial) {
    const int n = 2 + static_cast<int>(rng.UniformIndex(30));
    const Trajectory q = RandomIrregularTrajectory(&rng, 1, n, 0.0, 10.0);
    const Trajectory t =
        trial % 2 == 0
            ? SharingTimestamps(&rng, q, 2)
            : RandomIrregularTrajectory(
                  &rng, 2, 2 + static_cast<int>(rng.UniformIndex(30)), 0.0,
                  10.0);
    const double pb = PickTime(&rng, q, 0.0, 10.0);
    const double pe = PickTime(&rng, trial % 3 == 0 ? t : q, pb, 10.0);
    const TimeInterval period{pb, pe};
    for (const IntegrationPolicy policy : kPolicies) {
      const DissimResult want = ReferenceDissim(q, t, period, policy);
      const DissimResult got = ComputeDissim(q, t, period, policy);
      ASSERT_EQ(Bits(got.value), Bits(want.value)) << "trial " << trial;
      ASSERT_EQ(Bits(got.error_bound), Bits(want.error_bound))
          << "trial " << trial;
    }
  }
}

TEST(ComputeDissimTest, BitwiseEqualOnIdenticalSampleGrids) {
  // Both trajectories sampled at the same instants: every interior cut is a
  // duplicate in the merged sequence.
  Rng rng(83);
  for (int trial = 0; trial < 100; ++trial) {
    const Trajectory q = RandomIrregularTrajectory(&rng, 1, 20, 0.0, 10.0);
    std::vector<TPoint> samples = q.samples();
    for (TPoint& s : samples) s.p = {rng.Uniform(0, 10), rng.Uniform(0, 10)};
    const Trajectory t(2, std::move(samples));
    const TimeInterval period{PickTime(&rng, q, 0.0, 5.0),
                              PickTime(&rng, q, 5.0, 10.0)};
    for (const IntegrationPolicy policy : kPolicies) {
      const DissimResult want = ReferenceDissim(q, t, period, policy);
      const DissimResult got = ComputeDissim(q, t, period, policy);
      ASSERT_EQ(Bits(got.value), Bits(want.value)) << "trial " << trial;
      ASSERT_EQ(Bits(got.error_bound), Bits(want.error_bound));
    }
  }
}

TEST(SegmentDissimTest, BitwiseEqualToPositionAtReference) {
  Rng rng(89);
  for (int trial = 0; trial < 1500; ++trial) {
    const int n = 2 + static_cast<int>(rng.UniformIndex(30));
    const Trajectory q = RandomIrregularTrajectory(&rng, 1, n, 0.0, 10.0);
    // Segment endpoints and window edges land on query sample times, on
    // the lifespan's ends, or anywhere in between.
    const double t0 = PickTime(&rng, q, 0.0, 9.9);
    const double t1 = PickTime(&rng, q, t0 + 0.05, 10.0);
    const LeafEntry e =
        LeafEntry::Of(7, {t0, {rng.Uniform(0, 10), rng.Uniform(0, 10)}},
                      {t1, {rng.Uniform(0, 10), rng.Uniform(0, 10)}});
    const double wb =
        rng.Uniform(0.0, 1.0) < 0.5 ? t0 : PickTime(&rng, q, t0, t1);
    const double we =
        rng.Uniform(0.0, 1.0) < 0.5 ? t1 : PickTime(&rng, q, wb, t1);
    if (we <= wb) continue;
    const TimeInterval window{wb, we};
    for (const IntegrationPolicy policy : kPolicies) {
      const SegmentDissim want = ReferenceSegmentDissim(q, e, window, policy);
      const SegmentDissim got = ComputeSegmentDissim(q, e, window, policy);
      ASSERT_EQ(Bits(got.integral.value), Bits(want.integral.value))
          << "trial " << trial;
      ASSERT_EQ(Bits(got.integral.error_bound),
                Bits(want.integral.error_bound));
      ASSERT_EQ(Bits(got.dist_begin), Bits(want.dist_begin));
      ASSERT_EQ(Bits(got.dist_end), Bits(want.dist_end));
    }
  }
}

TEST(SegmentDissimTest, WindowEndingAtQueryEndTime) {
  Rng rng(97);
  for (int trial = 0; trial < 100; ++trial) {
    const Trajectory q = RandomIrregularTrajectory(&rng, 1, 12, 0.0, 10.0);
    const double wb = PickTime(&rng, q, 0.0, 9.0);
    const LeafEntry e = LeafEntry::Of(7, {wb, {1.0, 2.0}}, {10.0, {4.0, 3.0}});
    const TimeInterval window{wb, q.end_time()};
    for (const IntegrationPolicy policy : kPolicies) {
      const SegmentDissim want = ReferenceSegmentDissim(q, e, window, policy);
      const SegmentDissim got = ComputeSegmentDissim(q, e, window, policy);
      ASSERT_EQ(Bits(got.integral.value), Bits(want.integral.value));
      ASSERT_EQ(Bits(got.dist_end), Bits(want.dist_end));
    }
  }
}

}  // namespace
}  // namespace mst

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/geom/mindist.h"
#include "src/util/random.h"
#include "tests/test_util.h"

namespace mst {
namespace {

// MinDist as a scan of every query segment clipped against the window, with
// no segment search and no prefilter: the bitwise reference for MinDist.
double ReferenceMinDist(const Trajectory& q, const Mbb3& box,
                        const TimeInterval& period) {
  const TimeInterval window =
      period.Intersect(box.TimeExtent()).Intersect(q.Lifespan());
  if (window.IsEmpty()) return std::numeric_limits<double>::infinity();

  double best = std::numeric_limits<double>::infinity();
  if (q.size() == 1 || window.Duration() == 0.0) {
    const Vec2 p = *q.PositionAt(window.begin);
    return PointRectDistance(p, box.xlo, box.ylo, box.xhi, box.yhi);
  }
  for (size_t i = 0; i + 1 < q.size(); ++i) {
    const TPoint& s0 = q.sample(i);
    const TPoint& s1 = q.sample(i + 1);
    const TimeInterval sub = window.Intersect({s0.t, s1.t});
    if (sub.IsEmpty()) continue;
    const double d = sub.Duration();
    if (d == 0.0) {
      const Vec2 p = Lerp(s0, s1, sub.begin);
      best = std::min(
          best, PointRectDistance(p, box.xlo, box.ylo, box.xhi, box.yhi));
      continue;
    }
    const Vec2 p0 = Lerp(s0, s1, sub.begin);
    const Vec2 p1 = Lerp(s0, s1, sub.end);
    best = std::min(best, MovingPointRectMinDistance(p0, p1, d, box.xlo,
                                                     box.ylo, box.xhi,
                                                     box.yhi));
    if (best <= 0.0) return 0.0;
  }
  return best;
}

// A query shifted by (offset, offset): the large-coordinate variant.
Trajectory Shifted(const Trajectory& q, double offset) {
  std::vector<TPoint> samples = q.samples();
  for (TPoint& s : samples) {
    s.p.x += offset;
    s.p.y += offset;
  }
  return Trajectory(q.id(), std::move(samples));
}

// A time in [lo, hi] that is, with probability 1/2, a query sample time
// (when one falls in range) — box and period edges on sample times are
// where clipping and interpolation meet.
double PickTime(Rng* rng, const Trajectory& q, double lo, double hi) {
  if (rng->Uniform(0.0, 1.0) < 0.5) {
    const TPoint& s = q.sample(rng->UniformIndex(q.size()));
    if (s.t >= lo && s.t <= hi) return s.t;
  }
  return rng->Uniform(lo, hi);
}

// A box around the query's neighbourhood: spatial edges drawn near the
// query's positions (sometimes exactly on an interpolated position, a
// zero-gap contact), time edges from PickTime, sometimes a single instant.
Mbb3 RandomBoxNear(Rng* rng, const Trajectory& q) {
  Mbb3 box;
  box.tlo = PickTime(rng, q, q.start_time(), q.end_time());
  box.thi = rng->Uniform(0.0, 1.0) < 0.1
                ? box.tlo
                : PickTime(rng, q, box.tlo, q.end_time());
  const Vec2 anchor = *q.PositionAt(rng->Uniform(q.start_time(),
                                                 q.end_time()));
  const double reach = std::pow(10.0, rng->Uniform(-12.0, 0.5));
  const int side = static_cast<int>(rng->UniformIndex(3));
  // side 0: box starts exactly at the anchor; 1: just beyond it; 2: random.
  const double gap = side == 0 ? 0.0 : side == 1 ? reach : rng->Uniform(-2, 2);
  box.xlo = anchor.x + gap;
  box.xhi = box.xlo + rng->Uniform(0.0, 3.0);
  box.ylo = anchor.y + (side == 2 ? rng->Uniform(-2, 2) : -reach);
  box.yhi = box.ylo + rng->Uniform(0.0, 3.0);
  return box;
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

TEST(PointRectDistanceTest, InsideIsZero) {
  EXPECT_DOUBLE_EQ(PointRectDistance({1.0, 1.0}, 0, 0, 2, 2), 0.0);
  EXPECT_DOUBLE_EQ(PointRectDistance({0.0, 2.0}, 0, 0, 2, 2), 0.0);  // edge
}

TEST(PointRectDistanceTest, OutsideAxisAndCorner) {
  EXPECT_DOUBLE_EQ(PointRectDistance({-3.0, 1.0}, 0, 0, 2, 2), 3.0);
  EXPECT_DOUBLE_EQ(PointRectDistance({1.0, 5.0}, 0, 0, 2, 2), 3.0);
  EXPECT_DOUBLE_EQ(PointRectDistance({5.0, 6.0}, 0, 0, 2, 2), 5.0);  // 3-4-5
}

TEST(MovingPointRectTest, PassThroughRectGivesZero) {
  // Moves from left of the box straight through it.
  EXPECT_DOUBLE_EQ(
      MovingPointRectMinDistance({-2.0, 1.0}, {4.0, 1.0}, 1.0, 0, 0, 2, 2),
      0.0);
}

TEST(MovingPointRectTest, ParallelFlybyKeepsConstantGap) {
  // Moves parallel to the top edge at y = 5, box yhi = 2: distance 3.
  EXPECT_DOUBLE_EQ(
      MovingPointRectMinDistance({-1.0, 5.0}, {3.0, 5.0}, 1.0, 0, 0, 2, 2),
      3.0);
}

TEST(MovingPointRectTest, ClosestApproachInteriorOfPiece) {
  // Diagonal approach toward the corner (2,2), closest mid-flight.
  const double d =
      MovingPointRectMinDistance({4.0, 0.0}, {0.0, 4.0}, 1.0, -1, -1, 1, 1);
  // Closest point of the segment x+y=4 to corner (1,1) is (2,2): dist √2.
  EXPECT_NEAR(d, std::sqrt(2.0), 1e-12);
}

TEST(MovingPointRectTest, MatchesDenseSampling) {
  Rng rng(41);
  for (int trial = 0; trial < 300; ++trial) {
    const Vec2 q0{rng.Uniform(-5, 5), rng.Uniform(-5, 5)};
    const Vec2 q1{rng.Uniform(-5, 5), rng.Uniform(-5, 5)};
    const double dur = rng.Uniform(0.1, 3.0);
    const double xlo = rng.Uniform(-3, 0);
    const double xhi = xlo + rng.Uniform(0.1, 3.0);
    const double ylo = rng.Uniform(-3, 0);
    const double yhi = ylo + rng.Uniform(0.1, 3.0);
    const double analytic =
        MovingPointRectMinDistance(q0, q1, dur, xlo, ylo, xhi, yhi);
    double sampled = std::numeric_limits<double>::infinity();
    for (int i = 0; i <= 2000; ++i) {
      const Vec2 p = q0 + (q1 - q0) * (static_cast<double>(i) / 2000.0);
      sampled = std::min(sampled, PointRectDistance(p, xlo, ylo, xhi, yhi));
    }
    // The analytic minimum can only be <= any sampled value, and dense
    // sampling approaches it.
    EXPECT_LE(analytic, sampled + 1e-9);
    EXPECT_NEAR(analytic, sampled, 5e-3);
  }
}

TEST(MinDistTest, InfinityWithoutTemporalOverlap) {
  Rng rng(43);
  const Trajectory q = testing_util::RandomTrajectory(&rng, 1, 10, 0.0, 1.0);
  const Mbb3 box = Mbb3::OfSegment({5.0, {0, 0}}, {6.0, {1, 1}});
  EXPECT_TRUE(std::isinf(MinDist(q, box, {0.0, 1.0})));
  // Also infinite when the box overlaps the trajectory but not the period.
  const Mbb3 box2 = Mbb3::OfSegment({0.2, {0, 0}}, {0.4, {1, 1}});
  EXPECT_TRUE(std::isinf(MinDist(q, box2, {0.6, 0.9})));
}

TEST(MinDistTest, ZeroWhenTrajectoryEntersBox) {
  const Trajectory q(1, {{0.0, {-5.0, 0.0}}, {1.0, {5.0, 0.0}}});
  const Mbb3 box = Mbb3::OfSegment({0.0, {-1.0, -1.0}}, {1.0, {1.0, 1.0}});
  EXPECT_DOUBLE_EQ(MinDist(q, box, {0.0, 1.0}), 0.0);
}

TEST(MinDistTest, RespectsQueryPeriodClipping) {
  // The trajectory enters the box only after t = 0.4; querying [0, 0.2]
  // keeps the point far away.
  const Trajectory q(1, {{0.0, {-10.0, 0.0}}, {1.0, {0.0, 0.0}}});
  const Mbb3 box = Mbb3::OfSegment({0.0, {-1.0, -1.0}}, {1.0, {1.0, 1.0}});
  const double d_early = MinDist(q, box, {0.0, 0.2});
  const double d_full = MinDist(q, box, {0.0, 1.0});
  EXPECT_NEAR(d_early, 7.0, 1e-12);  // at t=0.2 the point is at x=-8
  EXPECT_DOUBLE_EQ(d_full, 0.0);
}

TEST(MinDistTest, MatchesDenseSamplingOnRandomTrajectories) {
  Rng rng(47);
  for (int trial = 0; trial < 60; ++trial) {
    const Trajectory q =
        testing_util::RandomIrregularTrajectory(&rng, 1, 20, 0.0, 10.0, 6.0);
    Mbb3 box;
    const double x0 = rng.Uniform(-2.0, 6.0);
    const double y0 = rng.Uniform(-2.0, 6.0);
    box.xlo = x0;
    box.xhi = x0 + rng.Uniform(0.5, 3.0);
    box.ylo = y0;
    box.yhi = y0 + rng.Uniform(0.5, 3.0);
    box.tlo = rng.Uniform(0.0, 5.0);
    box.thi = box.tlo + rng.Uniform(0.5, 5.0);
    const TimeInterval period{rng.Uniform(0.0, 4.0), rng.Uniform(6.0, 10.0)};
    const double analytic = MinDist(q, box, period);
    const TimeInterval window =
        period.Intersect(box.TimeExtent()).Intersect(q.Lifespan());
    if (window.IsEmpty()) {
      EXPECT_TRUE(std::isinf(analytic));
      continue;
    }
    double sampled = std::numeric_limits<double>::infinity();
    for (int i = 0; i <= 4000; ++i) {
      const double t =
          window.begin + window.Duration() * i / 4000.0;
      sampled = std::min(sampled, PointRectDistance(*q.PositionAt(t), box.xlo,
                                                    box.ylo, box.xhi,
                                                    box.yhi));
    }
    EXPECT_LE(analytic, sampled + 1e-9);
    EXPECT_NEAR(analytic, sampled, 1e-2);
  }
}

TEST(MinDistTest, MonotoneUnderBoxGrowth) {
  // MINDIST to a child box is >= MINDIST to its parent — the property the
  // best-first traversal relies on.
  Rng rng(49);
  for (int trial = 0; trial < 50; ++trial) {
    const Trajectory q = testing_util::RandomTrajectory(&rng, 1, 15, 0.0, 8.0);
    Mbb3 child;
    child.xlo = rng.Uniform(-4, 4);
    child.xhi = child.xlo + rng.Uniform(0.2, 2.0);
    child.ylo = rng.Uniform(-4, 4);
    child.yhi = child.ylo + rng.Uniform(0.2, 2.0);
    child.tlo = rng.Uniform(0.0, 6.0);
    child.thi = child.tlo + rng.Uniform(0.2, 2.0);
    Mbb3 parent = child;
    parent.xlo -= rng.Uniform(0.0, 2.0);
    parent.xhi += rng.Uniform(0.0, 2.0);
    parent.ylo -= rng.Uniform(0.0, 2.0);
    parent.yhi += rng.Uniform(0.0, 2.0);
    parent.tlo = std::max(0.0, parent.tlo - rng.Uniform(0.0, 2.0));
    parent.thi += rng.Uniform(0.0, 2.0);
    const TimeInterval period{0.0, 8.0};
    EXPECT_GE(MinDist(q, child, period) + 1e-12,
              MinDist(q, parent, period));
  }
}

TEST(MinDistTest, BitwiseEqualToFullSegmentScan) {
  Rng rng(53);
  for (int trial = 0; trial < 3000; ++trial) {
    const int n = 2 + static_cast<int>(rng.UniformIndex(40));
    Trajectory q =
        testing_util::RandomIrregularTrajectory(&rng, 1, n, 0.0, 10.0, 6.0);
    if (trial % 3 == 1) q = Shifted(q, 1e7);
    const double pb = PickTime(&rng, q, 0.0, 10.0);
    const TimeInterval period{pb, PickTime(&rng, q, pb, 10.0)};
    const Mbb3 box = RandomBoxNear(&rng, q);
    const double want = ReferenceMinDist(q, box, period);
    const double got = MinDist(q, box, period);
    ASSERT_EQ(Bits(got), Bits(want))
        << "trial " << trial << ": " << got << " vs " << want;
  }
}

TEST(FootprintMinDistTest, NeverExceedsMinDist) {
  Rng rng(59);
  int positive = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    const int n = 2 + static_cast<int>(rng.UniformIndex(40));
    Trajectory q =
        testing_util::RandomIrregularTrajectory(&rng, 1, n, 0.0, 10.0, 6.0);
    if (trial % 4 == 1) q = Shifted(q, 1e7);
    if (trial % 4 == 2) q = Shifted(q, -3e12);
    const double pb = PickTime(&rng, q, 0.0, 9.0);
    const TimeInterval period{pb, PickTime(&rng, q, pb + 0.5, 10.0)};
    const QueryFootprint f = FootprintOf(q, period);
    const Mbb3 box = RandomBoxNear(&rng, q);
    const double exact = MinDist(q, box, period);
    if (std::isinf(exact)) continue;
    const double bound = FootprintMinDist(f, box);
    ASSERT_LE(bound, exact) << "trial " << trial;
    ASSERT_GE(bound, 0.0);
    if (bound > 0.0) ++positive;
  }
  // The bound is useful, not trivially zero.
  EXPECT_GT(positive, 500);
}

TEST(FootprintMinDistTest, FootprintSpansThePeriodPositions) {
  Rng rng(61);
  for (int trial = 0; trial < 200; ++trial) {
    const Trajectory q =
        testing_util::RandomIrregularTrajectory(&rng, 1, 25, 0.0, 10.0, 6.0);
    const TimeInterval period{rng.Uniform(0.0, 4.0), rng.Uniform(6.0, 10.0)};
    const QueryFootprint f = FootprintOf(q, period);
    for (int i = 0; i <= 100; ++i) {
      const Vec2 p = *q.PositionAt(period.begin + period.Duration() * i / 100);
      EXPECT_GE(p.x, f.xlo - 1e-12);
      EXPECT_LE(p.x, f.xhi + 1e-12);
      EXPECT_GE(p.y, f.ylo - 1e-12);
      EXPECT_LE(p.y, f.yhi + 1e-12);
    }
    // A box far from the footprint is bounded by nearly its true gap.
    Mbb3 far;
    far.xlo = f.xhi + 5.0;
    far.xhi = far.xlo + 1.0;
    far.ylo = f.ylo;
    far.yhi = f.yhi;
    far.tlo = period.begin;
    far.thi = period.end;
    EXPECT_NEAR(FootprintMinDist(f, far), 5.0, 1e-6);
  }
}

}  // namespace
}  // namespace mst

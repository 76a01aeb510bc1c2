#include "src/geom/mindist.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "src/util/check.h"

namespace mst {
namespace {

// Penalty distance along one axis: how far `v` lies outside [lo, hi].
double AxisPenalty(double v, double lo, double hi) {
  if (v < lo) return lo - v;
  if (v > hi) return v - hi;
  return 0.0;
}

// Breakpoint times of the piecewise-linear axis penalties: 0, dur, and up
// to one boundary crossing per rectangle edge. Fixed-capacity stack storage
// — this sits on the MINDIST hot path (once per routing entry per query),
// where a heap-allocated vector per call dominated the profile.
struct TauList {
  double v[6];
  int n = 0;
  void push(double tau) { v[n++] = tau; }
  // Insertion sort of v[0..n): at most six values, and unlike std::sort over
  // the fixed array it gives g++ no out-of-bounds path to warn about.
  void sort() {
    for (int i = 1; i < n; ++i) {
      const double tau = v[i];
      int j = i;
      for (; j > 0 && v[j - 1] > tau; --j) v[j] = v[j - 1];
      v[j] = tau;
    }
  }
};

// Adds the local times in (0, dur) at which the linear motion v0→v1 crosses
// the boundary value `bound`.
void AddCrossing(double v0, double v1, double dur, double bound,
                 TauList* taus) {
  const double dv = v1 - v0;
  if (dv == 0.0) return;
  const double tau = (bound - v0) / dv * dur;
  if (tau > 0.0 && tau < dur) taus->push(tau);
}

// Margin, relative to the coordinate magnitude, by which a rectangle of
// query positions is inflated before its gap to a box is used as a lower
// bound of MinDist. Interpolated positions and penalty differences round by
// a few ulps (~1e-16) of the coordinates; 1e-9 covers that with a wide
// safety factor and loosens the bound by a negligible amount.
constexpr double kGapMargin = 1e-9;

// Largest |coordinate| of the box's spatial rectangle.
double BoxScale(const Mbb3& b) {
  return std::max({std::abs(b.xlo), std::abs(b.xhi), std::abs(b.ylo),
                   std::abs(b.yhi)});
}

// Distance between the rectangle [xlo, xhi] × [ylo, yhi], grown by `margin`
// on every side, and the box's spatial rectangle; 0 when they meet.
double InflatedGap(double xlo, double ylo, double xhi, double yhi,
                   double margin, const Mbb3& b) {
  const double dx =
      std::max({b.xlo - (xhi + margin), (xlo - margin) - b.xhi, 0.0});
  const double dy =
      std::max({b.ylo - (yhi + margin), (ylo - margin) - b.yhi, 0.0});
  return std::sqrt(dx * dx + dy * dy);
}

}  // namespace

double PointRectDistance(Vec2 p, double xlo, double ylo, double xhi,
                         double yhi) {
  const double dx = AxisPenalty(p.x, xlo, xhi);
  const double dy = AxisPenalty(p.y, ylo, yhi);
  return std::sqrt(dx * dx + dy * dy);
}

double MovingPointRectMinDistance(Vec2 q0, Vec2 q1, double dur, double xlo,
                                  double ylo, double xhi, double yhi) {
  MST_CHECK(dur > 0.0);
  TauList taus;
  taus.push(0.0);
  taus.push(dur);
  AddCrossing(q0.x, q1.x, dur, xlo, &taus);
  AddCrossing(q0.x, q1.x, dur, xhi, &taus);
  AddCrossing(q0.y, q1.y, dur, ylo, &taus);
  AddCrossing(q0.y, q1.y, dur, yhi, &taus);
  taus.sort();

  auto position = [&](double tau) -> Vec2 {
    return q0 + (q1 - q0) * (tau / dur);
  };

  double best2 = std::numeric_limits<double>::infinity();
  for (int i = 0; i + 1 < taus.n; ++i) {
    const double ta = taus.v[i];
    const double tb = taus.v[i + 1];
    const Vec2 pa = position(ta);
    const Vec2 pb = position(tb);
    const double dxa = AxisPenalty(pa.x, xlo, xhi);
    const double dxb = AxisPenalty(pb.x, xlo, xhi);
    const double dya = AxisPenalty(pa.y, ylo, yhi);
    const double dyb = AxisPenalty(pb.y, ylo, yhi);
    // Endpoints always contribute.
    best2 = std::min(best2, dxa * dxa + dya * dya);
    best2 = std::min(best2, dxb * dxb + dyb * dyb);
    if (tb <= ta) continue;
    // On this piece each axis penalty is linear: p(τ) = α τ + β.
    const double ax = (dxb - dxa) / (tb - ta);
    const double bx = dxa - ax * ta;
    const double ay = (dyb - dya) / (tb - ta);
    const double by = dya - ay * ta;
    // Squared distance A τ² + B τ + C; interior vertex if A > 0.
    const double coef_a = ax * ax + ay * ay;
    const double coef_b = 2.0 * (ax * bx + ay * by);
    if (coef_a > 0.0) {
      const double tv = -coef_b / (2.0 * coef_a);
      if (tv > ta && tv < tb) {
        const double dxv = ax * tv + bx;
        const double dyv = ay * tv + by;
        best2 = std::min(best2, dxv * dxv + dyv * dyv);
      }
    }
    if (best2 <= 0.0) return 0.0;
  }
  return std::sqrt(std::max(0.0, best2));
}

double MinDist(const Trajectory& q, const Mbb3& box,
               const TimeInterval& period) {
  const TimeInterval window =
      period.Intersect(box.TimeExtent()).Intersect(q.Lifespan());
  if (window.IsEmpty()) return std::numeric_limits<double>::infinity();

  double best = std::numeric_limits<double>::infinity();
  if (q.size() == 1 || window.Duration() == 0.0) {
    const std::optional<Vec2> p = q.PositionAt(window.begin);
    MST_DCHECK(p.has_value());
    return PointRectDistance(*p, box.xlo, box.ylo, box.xhi, box.yhi);
  }
  // Segments overlapping the window run from the one ending at the first
  // sample at or after window.begin to the last one starting at or before
  // window.end — exactly the segments whose clipped sub-interval is
  // non-empty, visited in the same order as a scan of all of them.
  const std::vector<TPoint>& s = q.samples();
  size_t i = static_cast<size_t>(
      std::lower_bound(s.begin(), s.end(), window.begin,
                       [](const TPoint& p, double v) { return p.t < v; }) -
      s.begin());
  if (i > 0) --i;
  const double box_scale = BoxScale(box);
  for (; i + 1 < s.size() && s[i].t <= window.end; ++i) {
    const TPoint& s0 = s[i];
    const TPoint& s1 = s[i + 1];
    // Every position this segment contributes lies in its endpoint
    // rectangle (up to interpolation rounding, which the margin absorbs),
    // so when that rectangle is farther than `best` the segment's minimum
    // is too and cannot lower `best`.
    const double scale =
        std::max({box_scale, std::abs(s0.p.x), std::abs(s0.p.y),
                  std::abs(s1.p.x), std::abs(s1.p.y)});
    if (InflatedGap(std::min(s0.p.x, s1.p.x), std::min(s0.p.y, s1.p.y),
                    std::max(s0.p.x, s1.p.x), std::max(s0.p.y, s1.p.y),
                    kGapMargin * scale, box) > best) {
      continue;
    }
    const TimeInterval sub = window.Intersect({s0.t, s1.t});
    MST_DCHECK(!sub.IsEmpty());
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

QueryFootprint FootprintOf(const Trajectory& q, const TimeInterval& period) {
  QueryFootprint f;
  const auto add = [&f](const Vec2& p) {
    f.xlo = std::min(f.xlo, p.x);
    f.ylo = std::min(f.ylo, p.y);
    f.xhi = std::max(f.xhi, p.x);
    f.yhi = std::max(f.yhi, p.y);
  };
  add(*q.PositionAt(period.begin));
  add(*q.PositionAt(period.end));
  for (const TPoint& s : q.samples()) {
    if (s.t > period.begin && s.t < period.end) add(s.p);
    f.scale = std::max({f.scale, std::abs(s.p.x), std::abs(s.p.y)});
  }
  return f;
}

double FootprintMinDist(const QueryFootprint& f, const Mbb3& box) {
  const double margin = kGapMargin * std::max(f.scale, BoxScale(box));
  return InflatedGap(f.xlo, f.ylo, f.xhi, f.yhi, margin, box);
}

}  // namespace mst

#include "src/core/dissim.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/core/dissim_batch.h"
#include "src/util/check.h"

namespace mst {
namespace {

// Antiderivative of sqrt(a τ² + b τ + c) for a > 0 and 4ac − b² > 0.
double Antiderivative(double a, double b, double disc, double tau, double f) {
  const double root_f = std::sqrt(f);
  const double u = 2.0 * a * tau + b;
  return u * root_f / (4.0 * a) +
         disc / (8.0 * a * std::sqrt(a)) * std::asinh(u / std::sqrt(disc));
}

// ∫₀^L sqrt(a)·|τ − τ0| dτ (perfect-square trinomial).
double PerfectSquareIntegral(double a, double tau0, double len) {
  const double root_a = std::sqrt(a);
  if (tau0 <= 0.0) {
    return root_a * (len * len / 2.0 - tau0 * len);
  }
  if (tau0 >= len) {
    return root_a * (tau0 * len - len * len / 2.0);
  }
  const double left = tau0;
  const double right = len - tau0;
  return root_a * (left * left + right * right) / 2.0;
}

}  // namespace

double ExactSegmentIntegral(const DistanceTrinomial& tri) {
  const double len = tri.dur;
  MST_DCHECK(len > 0.0);
  if (tri.a <= 0.0) {
    // a == 0 implies b == 0 (the trinomial is a squared norm): constant D.
    return std::sqrt(std::max(0.0, tri.c)) * len;
  }
  // Near-constant guard: when the quadratic term is negligible against c,
  // the closed form suffers catastrophic cancellation (u/√disc with both
  // tiny). D is then flat to ~1e-12 relative and Simpson's rule is exact to
  // far beyond double precision (|b| ≤ 2√(ac) keeps the linear term small
  // with it).
  if (tri.a * len * len <= 1e-12 * tri.c) {
    return (tri.ValueAt(0.0) + 4.0 * tri.ValueAt(0.5 * len) +
            tri.ValueAt(len)) /
           6.0 * len;
  }
  double disc = tri.FourAcMinusB2();
  // Relative threshold: treat a tiny (possibly negative, from rounding)
  // discriminant as the perfect-square case.
  const double scale = std::max({tri.b * tri.b, 4.0 * tri.a * std::abs(tri.c),
                                 1e-300});
  if (disc <= 1e-12 * scale) {
    return PerfectSquareIntegral(tri.a, tri.FlexTau(), len);
  }
  const double f0 = tri.SquaredAt(0.0);
  const double f1 = tri.SquaredAt(len);
  return Antiderivative(tri.a, tri.b, disc, len, f1) -
         Antiderivative(tri.a, tri.b, disc, 0.0, f0);
}

DissimResult TrapezoidSegmentIntegral(const DistanceTrinomial& tri) {
  const double len = tri.dur;
  MST_DCHECK(len > 0.0);
  DissimResult r;
  r.value = 0.5 * (tri.ValueAt(0.0) + tri.ValueAt(len)) * len;
  if (tri.a <= 0.0) {
    r.error_bound = 0.0;  // constant distance: trapezoid is exact
    return r;
  }
  // Lemma 1: |E| <= len³/12 · max D'' over [0, len]; D'' peaks where the
  // trinomial is smallest (at the flex −b/2a clamped into the interval).
  const double second = tri.SecondDerivativeAt(tri.ArgMinTau());
  double bound = len * len * len / 12.0 * second;
  if (!(bound < r.value)) {
    // Unbounded (touching distance zero) or looser than the trivial bound:
    // the integral is non-negative and the trapezoid over-estimates, so the
    // value itself always bounds the error.
    bound = r.value;
  }
  r.error_bound = bound;
  return r;
}

DissimResult IntegrateSegment(const DistanceTrinomial& tri,
                              IntegrationPolicy policy) {
  switch (policy) {
    case IntegrationPolicy::kExact:
      return {ExactSegmentIntegral(tri), 0.0};
    case IntegrationPolicy::kTrapezoid:
      return TrapezoidSegmentIntegral(tri);
    case IntegrationPolicy::kAdaptive: {
      const DissimResult approx = TrapezoidSegmentIntegral(tri);
      if (approx.error_bound <= kAdaptiveRelTol * approx.value) {
        return approx;
      }
      return {ExactSegmentIntegral(tri), 0.0};
    }
  }
  MST_CHECK_MSG(false, "unknown integration policy");
}

double DistanceAt(const Trajectory& q, const Trajectory& t, double time) {
  const std::optional<Vec2> pq = q.PositionAt(time);
  const std::optional<Vec2> pt = t.PositionAt(time);
  MST_CHECK_MSG(pq.has_value() && pt.has_value(),
                "DistanceAt outside a trajectory's lifespan");
  return Distance(*pq, *pt);
}

namespace {

// Position along a trajectory at non-decreasing times, walking its segments
// forward instead of binary-searching every time. At each time it picks the
// segment Trajectory::SegmentAt would (the last one starting at or before
// the time, clamped to the final segment), so every position is the same
// Lerp of the same samples as PositionAt and bit-identical to it.
class PositionCursor {
 public:
  // Positions the cursor for times >= `start`, which must satisfy
  // t.start_time() <= start < t.end_time() (callers integrate over windows
  // of positive duration inside the lifespan).
  PositionCursor(const Trajectory& t, double start) : s_(t.samples()) {
    MST_DCHECK(t.start_time() <= start && start < t.end_time());
    // The segment starts at the last sample at or before `start`.
    const auto after =
        std::upper_bound(s_.begin(), s_.end(), start,
                         [](double v, const TPoint& p) { return v < p.t; });
    seg_ = static_cast<size_t>(after - s_.begin()) - 1;
  }

  Vec2 At(double time) {
    while (seg_ + 2 < s_.size() && s_[seg_ + 1].t <= time) ++seg_;
    return Lerp(s_[seg_], s_[seg_ + 1], time);
  }

  // End time of the segment the last At() used. After At(time) with
  // time < end_time() it is the first sample time later than `time`: the
  // trajectory's next cut.
  double SegmentEnd() const { return s_[seg_ + 1].t; }

 private:
  const std::vector<TPoint>& s_;
  size_t seg_ = 0;
};

}  // namespace

DissimResult ComputeDissim(const Trajectory& q, const Trajectory& t,
                           const TimeInterval& period,
                           IntegrationPolicy policy) {
  MST_CHECK_MSG(q.Covers(period) && t.Covers(period),
                "DISSIM requires both trajectories valid over the period");
  DissimResult total;
  if (period.Duration() == 0.0) return total;

  // The elementary intervals run between consecutive distinct cuts: the
  // period bounds and every sample time of either trajectory strictly
  // inside the period, in increasing order. Both cursors walk forward with
  // the cuts, which are generated by merging the two sample sequences.
  //
  // Every interval's trinomial goes into a reused SoA batch, integrated in
  // one pass: IntegrateBatch reproduces the scalar per-interval
  // accumulation bit-for-bit while letting the trapezoid values vectorize.
  static thread_local TrinomialBatch batch;
  batch.Clear();
  batch.Reserve(q.size() + t.size() + 2);
  PositionCursor qc(q, period.begin);
  PositionCursor tc(t, period.begin);
  Vec2 q_prev = qc.At(period.begin);
  Vec2 t_prev = tc.At(period.begin);
  double t0 = period.begin;
  while (t0 < period.end) {
    const double t1 =
        std::min({qc.SegmentEnd(), tc.SegmentEnd(), period.end});
    const Vec2 q_next = qc.At(t1);
    const Vec2 t_next = tc.At(t1);
    batch.Add(DistanceTrinomial::Between(q_prev, q_next, t_prev, t_next,
                                         t1 - t0));
    q_prev = q_next;
    t_prev = t_next;
    t0 = t1;
  }
  total = IntegrateBatch(batch, policy);
  return total;
}

namespace {

// Shared core of the two ComputeSegmentDissim overloads: integrates the
// moving segment a → b against q over `window`. Both overloads feed the
// same scalars through here, so the columnar (LeafView) path is
// bit-identical to the LeafEntry path.
SegmentDissim SegmentDissimCore(const Trajectory& q, const TPoint& a,
                                const TPoint& b, const TimeInterval& window,
                                IntegrationPolicy policy) {
  MST_CHECK(window.Duration() > 0.0);
  MST_CHECK(a.t <= window.begin && window.end <= b.t);
  MST_CHECK(q.Covers(window));

  // Called once per candidate leaf entry on the k-MST hot path. The cuts
  // are window.begin, q's samples strictly inside the window, and
  // window.end; one binary search places the query cursor and the rest is
  // a forward walk. The per-interval integrals go through the batch kernel
  // (bit-for-bit identical to the scalar loop, see IntegrateBatch).
  static thread_local TrinomialBatch batch;
  batch.Clear();
  batch.Reserve(q.size() + 1);
  SegmentDissim out;
  PositionCursor qc(q, window.begin);
  Vec2 q_prev = qc.At(window.begin);
  Vec2 e_prev = Lerp(a, b, window.begin);
  out.dist_begin = Distance(q_prev, e_prev);
  double t0 = window.begin;
  while (t0 < window.end) {
    const double t1 = std::min(qc.SegmentEnd(), window.end);
    const Vec2 q_next = qc.At(t1);
    const Vec2 e_next = Lerp(a, b, t1);
    batch.Add(
        DistanceTrinomial::Between(q_prev, q_next, e_prev, e_next, t1 - t0));
    q_prev = q_next;
    e_prev = e_next;
    t0 = t1;
  }
  out.integral = IntegrateBatch(batch, policy);
  out.dist_end = Distance(q_prev, e_prev);
  return out;
}

}  // namespace

SegmentDissim ComputeSegmentDissim(const Trajectory& q, const LeafEntry& entry,
                                   const TimeInterval& window,
                                   IntegrationPolicy policy) {
  return SegmentDissimCore(q, entry.Start(), entry.End(), window, policy);
}

SegmentDissim ComputeSegmentDissim(const Trajectory& q, const LeafView& view,
                                   int i, const TimeInterval& window,
                                   IntegrationPolicy policy) {
  MST_DCHECK(i >= 0 && i < view.count);
  return SegmentDissimCore(q, {view.t0[i], {view.x0[i], view.y0[i]}},
                           {view.t1[i], {view.x1[i], view.y1[i]}}, window,
                           policy);
}

}  // namespace mst

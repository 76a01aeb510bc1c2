// The DISSIM spatiotemporal dissimilarity metric (Definition 1) with its two
// evaluation strategies:
//  * exact closed-form integration of sqrt(a t² + b t + c) per elementary
//    interval (the arcsinh antiderivative the paper quotes from Meratnia/By),
//  * the cheap Trapezoid-Rule approximation of Lemma 1 with its error bound.
//
// Because the inter-object distance D(t) is convex on every elementary
// interval (D'' = (4ac − b²) / (4 f^{3/2}) ≥ 0), the trapezoid value always
// *over*-estimates the true integral: the Lemma 1 bound is one-sided and
// DISSIM_true ∈ [value − error_bound, value]. §4.4's error management relies
// on exactly this.

#ifndef MST_CORE_DISSIM_H_
#define MST_CORE_DISSIM_H_

#include "src/geom/interval.h"
#include "src/geom/moving_distance.h"
#include "src/geom/trajectory.h"
#include "src/index/node.h"

namespace mst {

/// How elementary intervals are integrated.
enum class IntegrationPolicy {
  /// Trapezoid rule + Lemma 1 error bound (the paper's default).
  kTrapezoid,
  /// Exact closed form everywhere (no error).
  kExact,
  /// Trapezoid unless the Lemma 1 bound exceeds kAdaptiveRelTol of the
  /// value (or is unbounded, near touching distance), then exact.
  kAdaptive,
};

/// Relative error tolerance triggering exact fallback under kAdaptive.
inline constexpr double kAdaptiveRelTol = 1e-3;

/// An integral of inter-object distance over some period, with the one-sided
/// approximation error: the true value lies in [value − error_bound, value].
struct DissimResult {
  double value = 0.0;
  double error_bound = 0.0;

  /// Smallest value consistent with the error bound (never below 0).
  double LowerBound() const {
    const double lo = value - error_bound;
    return lo > 0.0 ? lo : 0.0;
  }

  void Accumulate(const DissimResult& piece) {
    value += piece.value;
    error_bound += piece.error_bound;
  }
};

/// Exact ∫₀^dur D(τ) dτ for one elementary interval.
double ExactSegmentIntegral(const DistanceTrinomial& tri);

/// Trapezoid approximation with the Lemma 1 bound. The bound is additionally
/// clamped to `value` (the integral is non-negative), which also covers the
/// near-collision case where D'' is unbounded.
DissimResult TrapezoidSegmentIntegral(const DistanceTrinomial& tri);

/// Integrates one elementary interval under `policy`.
DissimResult IntegrateSegment(const DistanceTrinomial& tri,
                              IntegrationPolicy policy);

/// Euclidean distance between the two trajectories at instant `time`; both
/// must be defined there (checked).
double DistanceAt(const Trajectory& q, const Trajectory& t, double time);

/// DISSIM(Q, T) over `period` (Definition 1). Both trajectories must cover
/// the period (checked). Elementary intervals are delimited by the merged
/// sample timestamps of both trajectories.
DissimResult ComputeDissim(const Trajectory& q, const Trajectory& t,
                           const TimeInterval& period,
                           IntegrationPolicy policy = IntegrationPolicy::kTrapezoid);

/// Contribution of one indexed segment: the distance integral between query
/// `q` and the segment's moving point over `window`, plus the distances at
/// the window boundaries (the gap bounds of §3.1 need them).
struct SegmentDissim {
  DissimResult integral;
  double dist_begin = 0.0;
  double dist_end = 0.0;
};

/// Integrates q-vs-entry over `window`, which must satisfy
/// window ⊆ [entry.t0, entry.t1], window ⊆ q's lifespan, and have positive
/// duration (checked). Query sample timestamps interior to the window
/// delimit elementary intervals.
SegmentDissim ComputeSegmentDissim(const Trajectory& q, const LeafEntry& entry,
                                   const TimeInterval& window,
                                   IntegrationPolicy policy);

/// Zero-repack variant: integrates entry `i` of a columnar leaf view over
/// `window`, reading the segment endpoints straight out of the decoded v2
/// page's column slices — no LeafEntry materialization between the node and
/// the integration. Bit-identical to the LeafEntry overload.
SegmentDissim ComputeSegmentDissim(const Trajectory& q, const LeafView& view,
                                   int i, const TimeInterval& window,
                                   IntegrationPolicy policy);

}  // namespace mst

#endif  // MST_CORE_DISSIM_H_

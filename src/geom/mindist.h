// MINDIST(Q, N): minimum Euclidean distance between the (moving) query
// trajectory and the spatial footprint of an index-node MBB, over the time
// instants where both the query period and the node's temporal extent apply.
// This is the node ordering key of the best-first MST search (adopted from
// the NN-search work the paper cites as [6]).

#ifndef MST_GEOM_MINDIST_H_
#define MST_GEOM_MINDIST_H_

#include <limits>

#include "src/geom/interval.h"
#include "src/geom/mbb.h"
#include "src/geom/point.h"
#include "src/geom/trajectory.h"

namespace mst {

/// Distance from a static point to the (closed) axis-aligned rectangle
/// [xlo, xhi] × [ylo, yhi]; 0 when the point is inside.
double PointRectDistance(Vec2 p, double xlo, double ylo, double xhi,
                         double yhi);

/// Minimum over local time τ ∈ [0, dur] of the distance between a point
/// moving linearly q0→q1 and the static rectangle [xlo, xhi] × [ylo, yhi].
/// Exact: the squared penalty distance is piecewise quadratic in τ with
/// breakpoints where the moving point crosses a rectangle boundary line;
/// each piece is minimized analytically. Requires dur > 0.
double MovingPointRectMinDistance(Vec2 q0, Vec2 q1, double dur, double xlo,
                                  double ylo, double xhi, double yhi);

/// MINDIST(Q, N) of the paper: minimum distance between query trajectory `q`
/// and box `box` over period ∩ box.TimeExtent() ∩ q.Lifespan(). Returns
/// +infinity when that triple intersection is empty (the node holds nothing
/// relevant to the query period). Only the query segments overlapping that
/// window are visited, and a segment whose endpoint rectangle already lies
/// farther from the box than the running minimum is skipped; neither
/// shortcut changes the returned value by a single bit.
double MinDist(const Trajectory& q, const Mbb3& box,
               const TimeInterval& period);

/// Spatial rectangle of a query's positions over a period (the query is
/// piecewise linear, so its boundary positions plus interior samples span
/// it), with the magnitude of the query's coordinates.
struct QueryFootprint {
  double xlo = std::numeric_limits<double>::infinity();
  double ylo = std::numeric_limits<double>::infinity();
  double xhi = -std::numeric_limits<double>::infinity();
  double yhi = -std::numeric_limits<double>::infinity();
  /// Largest |coordinate| over all of the query's samples: the scale of the
  /// rounding error in any position interpolated along the query.
  double scale = 0.0;
};

/// Footprint of `q` over `period`. Requires q.Covers(period).
QueryFootprint FootprintOf(const Trajectory& q, const TimeInterval& period);

/// Cheap lower bound of MinDist(q, box, period) for a box that overlaps
/// `period` in time, where `f` == FootprintOf(q, period): the spatial gap
/// between the box and the footprint. The footprint is first inflated by a
/// margin proportional to the coordinate magnitude, which absorbs the
/// rounding of the positions MinDist interpolates (they can land a few ulps
/// outside the rectangle), so the bound never exceeds the computed MinDist
/// in floating point — even when the true gap is zero.
double FootprintMinDist(const QueryFootprint& f, const Mbb3& box);

}  // namespace mst

#endif  // MST_GEOM_MINDIST_H_

// Batch (structure-of-arrays) evaluation of the per-interval DISSIM
// integrals. The scalar path walks elementary intervals one trinomial at a
// time through IntegrateSegment — a chain of dependent calls the compiler
// cannot vectorize. Here the per-pair trinomials (a, b, c, len) are first
// materialized into flat arrays, then integrated in a tight pass: the
// trapezoid values (the common case — two clamped square roots and a
// multiply per interval) stream over the arrays in an auto-vectorizable
// loop, while the Lemma 1 error bounds and the exact/adaptive fallbacks
// reuse the scalar building blocks so every number matches the scalar path
// bit-for-bit (asserted by tests/dissim_batch_test.cc).

#ifndef MST_CORE_DISSIM_BATCH_H_
#define MST_CORE_DISSIM_BATCH_H_

#include <cstddef>
#include <vector>

#include "src/core/dissim.h"
#include "src/geom/moving_distance.h"

namespace mst {

/// Structure-of-arrays buffer of distance trinomials over their elementary
/// intervals. Reusable: Clear() keeps the capacity, so a thread-local batch
/// amortizes allocation across queries. Fillers must call Reserve() with an
/// upper bound of the interval count before the Add() loop (ComputeDissim
/// passes both trajectories' sample counts), so a thread's first full-period
/// integral grows each array once instead of by doubling mid-fill. A single
/// segment's window has about two intervals; ComputeSegmentDissim integrates
/// those one by one rather than through a batch.
struct TrinomialBatch {
  std::vector<double> a;
  std::vector<double> b;
  std::vector<double> c;
  std::vector<double> len;

  size_t size() const { return a.size(); }
  bool empty() const { return a.empty(); }

  void Clear() {
    a.clear();
    b.clear();
    c.clear();
    len.clear();
  }

  void Reserve(size_t n) {
    a.reserve(n);
    b.reserve(n);
    c.reserve(n);
    len.reserve(n);
  }

  void Add(const DistanceTrinomial& tri) {
    a.push_back(tri.a);
    b.push_back(tri.b);
    c.push_back(tri.c);
    len.push_back(tri.dur);
  }

  /// Reconstructs element `i` for the scalar building blocks.
  DistanceTrinomial At(size_t i) const { return {a[i], b[i], c[i], len[i]}; }
};

/// Integrates every interval of `batch` under `policy` and accumulates the
/// results in index order — exactly the sum the scalar loop
/// `for (tri) total.Accumulate(IntegrateSegment(tri, policy))` produces,
/// bit-for-bit in every policy.
DissimResult IntegrateBatch(const TrinomialBatch& batch,
                            IntegrationPolicy policy);

}  // namespace mst

#endif  // MST_CORE_DISSIM_BATCH_H_

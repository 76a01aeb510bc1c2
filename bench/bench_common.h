// Shared machinery of the reproduction benches: the paper's datasets
// (Table 2), query workloads (Table 3), and per-query measurement loops.

#ifndef MST_BENCH_BENCH_COMMON_H_
#define MST_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/core/mst_search.h"
#include "src/gen/gstd.h"
#include "src/gen/trucks.h"
#include "src/geom/trajectory.h"
#include "src/index/rtree3d.h"
#include "src/index/strtree.h"
#include "src/index/tbtree.h"
#include "src/util/random.h"
#include "src/util/stats.h"
#include "src/util/timer.h"

// Git revision baked in by bench/CMakeLists.txt; benches built outside a
// checkout fall back to "unknown".
#ifndef MST_GIT_REV
#define MST_GIT_REV "unknown"
#endif

namespace mst {
namespace bench {

/// Version of the BENCH_*.json field conventions. Bump when a bench's field
/// set changes shape so downstream perf-trend tooling can tell a schema
/// change from a perf change. v2 added schema_version/git_rev themselves;
/// v3 added the workload "seed" to every JSON bench.
inline constexpr int kBenchJsonSchemaVersion = 3;

/// Writes the fields every BENCH_*.json must carry (call right after the
/// opening "{\n"): the JSON schema version and the producing git revision,
/// which together make the perf trajectory machine-comparable across PRs.
inline void WriteJsonSchemaFields(std::FILE* f) {
  std::fprintf(f,
               "  \"schema_version\": %d,\n"
               "  \"git_rev\": \"%s\",\n",
               kBenchJsonSchemaVersion, MST_GIT_REV);
}

/// Opens `path` for writing and emits the opening brace plus the schema
/// fields above — the one way every JSON bench starts its output file.
/// Returns nullptr when the file cannot be created; the caller prints its
/// own fields (no trailing comma on the last) and the closing "}\n".
inline std::FILE* OpenBenchJson(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return nullptr;
  std::fprintf(f, "{\n");
  WriteJsonSchemaFields(f);
  return f;
}

/// Default workload seed of the reproduction benches (the paper's
/// publication date). Every bench exposes it as --seed so alternative
/// reproducible workload streams are one flag away; each bench's default
/// keeps the stream its committed BENCH_/EXPERIMENTS numbers were produced
/// with.
inline constexpr uint64_t kDefaultBenchSeed = 20070415;

/// One of the paper's synthetic datasets (Table 2): S0100 … S1000, N objects
/// sampled ~2000 times, lognormal(1, 0.6) speed, uniform initial placement.
/// `seed` 0 (the default) keeps the canonical per-cardinality dataset seed
/// all committed results use; any other value generates an alternative but
/// equally reproducible dataset of the same shape.
inline TrajectoryStore MakeSDataset(int num_objects,
                                    int samples_per_object = 2000,
                                    uint64_t seed = 0) {
  GstdOptions opt;
  opt.num_objects = num_objects;
  opt.samples_per_object = samples_per_object;
  opt.speed = GstdOptions::SpeedDistribution::kLogNormal;
  opt.speed_param1 = 1.0;
  opt.speed_param2 = 0.6;
  opt.timestamp_jitter = 0.4;  // realistic heterogeneous sampling instants
  opt.seed = seed != 0 ? seed
                       : kDefaultBenchSeed + static_cast<uint64_t>(num_objects);
  return GenerateGstd(opt);
}

/// The Trucks-like dataset (273 trajectories, ≈112 K segments). `seed` 0
/// (the default) keeps the canonical fleet all committed results use.
inline TrajectoryStore MakeTrucksDataset(uint64_t seed = 0) {
  TrucksOptions opt;
  if (seed != 0) opt.seed = seed;
  return GenerateTrucks(opt);
}

/// Name for the S-series dataset of a given cardinality (e.g. "S0100").
inline std::string SDatasetName(int num_objects) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "S%04d", num_objects);
  return buf;
}

/// The indexes of the experimental study — the paper plots the 3D R-tree
/// and the TB-tree; the STR-tree (also named in §4.5) is built alongside as
/// this repository's extension — over one dataset, each with its node
/// buffer emptied by ConfigurePaperBuffer. The figures report logical node
/// accesses, which the buffer size does not change.
struct IndexedDataset {
  TrajectoryStore store;
  std::unique_ptr<RTree3D> rtree;
  std::unique_ptr<TBTree> tbtree;
  std::unique_ptr<STRTree> strtree;

  std::vector<TrajectoryIndex*> indexes() const {
    return {rtree.get(), tbtree.get(), strtree.get()};
  }
};

inline IndexedDataset BuildBoth(TrajectoryStore store) {
  IndexedDataset out;
  out.store = std::move(store);
  out.rtree = std::make_unique<RTree3D>();
  out.rtree->BuildFrom(out.store);
  out.rtree->ConfigurePaperBuffer();
  out.tbtree = std::make_unique<TBTree>();
  out.tbtree->BuildFrom(out.store);
  out.tbtree->ConfigurePaperBuffer();
  out.strtree = std::make_unique<STRTree>();
  out.strtree->BuildFrom(out.store);
  out.strtree->ConfigurePaperBuffer();
  return out;
}

/// Table 3 query workload: the query trajectory is a slice of a random data
/// trajectory covering `length_fraction` of its lifespan.
inline Trajectory MakeQuery(const TrajectoryStore& store, Rng* rng,
                            double length_fraction,
                            TrajectoryId query_id = 1 << 29) {
  const Trajectory& base =
      store.trajectories()[rng->UniformIndex(store.size())];
  const double span = base.end_time() - base.start_time();
  const double len = span * length_fraction;
  const double begin = base.start_time() +
                       rng->Uniform(0.0, std::max(0.0, span - len));
  const Trajectory slice = *base.Slice({begin, begin + len});
  return Trajectory(query_id, slice.samples());
}

/// Aggregates of one query-set run on one index.
struct QuerySetResult {
  RunningStats time_ms;
  RunningStats pruning_power;
  RunningStats nodes_accessed;
  RunningStats heap_pushes;
  int64_t terminated_early = 0;
};

/// Runs `num_queries` k-MST queries of the given length fraction and
/// aggregates timing and pruning statistics.
inline QuerySetResult RunQuerySet(const TrajectoryIndex& index,
                                  const TrajectoryStore& store,
                                  int num_queries, double length_fraction,
                                  int k, uint64_t seed,
                                  const MstOptions& base_options = {}) {
  Rng rng(seed);
  const BFMstSearch searcher(&index, &store);
  QuerySetResult out;
  for (int i = 0; i < num_queries; ++i) {
    const Trajectory query = MakeQuery(store, &rng, length_fraction);
    MstOptions options = base_options;
    options.k = k;
    MstStats stats;
    WallTimer timer;
    const auto results =
        searcher.Search(query, query.Lifespan(), options, &stats);
    out.time_ms.Add(timer.ElapsedMs());
    out.pruning_power.Add(stats.PruningPower());
    out.nodes_accessed.Add(static_cast<double>(stats.nodes_accessed));
    out.heap_pushes.Add(static_cast<double>(stats.heap_pushes));
    if (stats.terminated_by_heuristic2) ++out.terminated_early;
    (void)results;
  }
  return out;
}

}  // namespace bench
}  // namespace mst

#endif  // MST_BENCH_BENCH_COMMON_H_

// Benchmark of R-tree construction quality: Guttman quadratic insertion vs
// the R* insertion path (Options::rtree_variant = kRStar) vs STR bulk
// loading, on the paper's S-series k-MST workload (Table 3 query mix).
//
// The three trees index the same dataset; only the construction policy
// differs, so every difference in the measured node accesses and cold
// physical page reads is tree shape. Results, by contrast, must NOT differ:
// with exact post-processing the returned (id, dissim) lists are a pure
// function of the trajectory set, so the bench verifies bitwise identity of
// the R* and STR answers against the quadratic-build oracle — and id-level
// agreement with the LinearScan ground truth — for every traversal policy,
// and exits 2 on any divergence. That identity gate is what CI trusts; the
// perf numbers are only meaningful because of it.
//
// Two shape-sensitive costs are recorded per variant, both deterministic
// (no timing, so CI machine load cannot move them):
//   - logical node accesses summed over the query set (the paper's primary
//     cost metric, Fig. 10);
//   - cold physical page reads through the paper's buffer (10 % of index
//     size), measured from an empty buffer — the I/O a cold index restart
//     would pay.
// The headline ratios are quadratic/R* improvement factors (> 1 means R*
// is better); tools/check_bench_regression.py gates on them scale-aware.

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/linear_scan.h"
#include "src/util/flags.h"

namespace mst {
namespace {

constexpr const char* kVariantNames[] = {"quadratic", "rstar", "str"};

struct VariantCost {
  int64_t node_accesses = 0;
  int64_t cold_reads = 0;
};

// Runs the query set once against `index`, starting from an empty buffer of
// the paper's size (10 % of the index, at most 1000 pages), and accumulates
// logical node accesses and physical page reads.
VariantCost MeasureCosts(TrajectoryIndex& index, const TrajectoryStore& store,
                         const std::vector<Trajectory>& queries,
                         const MstOptions& options) {
  index.buffer().Clear();
  index.buffer().SetCapacity(static_cast<size_t>(
      std::clamp<int64_t>(index.NodeCount() / 10, /*lo=*/1, /*hi=*/1000)));
  const BFMstSearch searcher(&index, &store);
  VariantCost cost;
  const int64_t reads_before = index.file().stats().physical_reads;
  for (const Trajectory& q : queries) {
    MstStats stats;
    const auto results = searcher.Search(q, q.Lifespan(), options, &stats);
    cost.node_accesses += stats.nodes_accessed;
    (void)results;
  }
  cost.cold_reads = index.file().stats().physical_reads - reads_before;
  return cost;
}

const char* PolicyName(IntegrationPolicy policy) {
  switch (policy) {
    case IntegrationPolicy::kTrapezoid: return "trapezoid";
    case IntegrationPolicy::kExact: return "exact";
    case IntegrationPolicy::kAdaptive: return "adaptive";
  }
  return "?";
}

// Bitwise identity gate: under exact post-processing the result list is
// independent of tree shape, so any variant diverging from the quadratic
// oracle is a correctness bug, not a perf difference.
bool VerifyIdentity(const std::vector<TrajectoryIndex*>& indexes,
                    const TrajectoryStore& store,
                    const std::vector<Trajectory>& queries, int k) {
  for (const IntegrationPolicy policy :
       {IntegrationPolicy::kTrapezoid, IntegrationPolicy::kExact,
        IntegrationPolicy::kAdaptive}) {
    MstOptions options;
    options.k = k;
    options.policy = policy;
    options.exact_postprocess = true;
    const BFMstSearch oracle(indexes[0], &store);
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const Trajectory& query = queries[qi];
      const TimeInterval period = query.Lifespan();
      const std::vector<MstResult> want = oracle.Search(query, period, options);

      // Id-level agreement with the ground truth (dissimilarities checked to
      // floating-point tolerance: LinearScan accumulates in a different
      // order, so the last bits may differ even though both are "exact").
      const std::vector<MstResult> truth =
          LinearScanKMst(store, query, period, k, IntegrationPolicy::kExact);
      if (truth.size() != want.size()) {
        std::fprintf(stderr,
                     "[index_quality] FAIL: query %zu (%s): oracle returned "
                     "%zu results, LinearScan %zu\n",
                     qi, PolicyName(policy), want.size(), truth.size());
        return false;
      }
      for (size_t i = 0; i < want.size(); ++i) {
        const double tol = 1e-6 * std::fmax(1.0, std::fabs(truth[i].dissim));
        if (want[i].id != truth[i].id ||
            std::fabs(want[i].dissim - truth[i].dissim) > tol) {
          std::fprintf(stderr,
                       "[index_quality] FAIL: query %zu (%s) rank %zu: "
                       "oracle (id=%" PRId64 ", %.17g) vs LinearScan "
                       "(id=%" PRId64 ", %.17g)\n",
                       qi, PolicyName(policy), i,
                       static_cast<int64_t>(want[i].id), want[i].dissim,
                       static_cast<int64_t>(truth[i].id), truth[i].dissim);
          return false;
        }
      }

      // Bitwise identity of the other variants against the oracle.
      for (size_t v = 1; v < indexes.size(); ++v) {
        const BFMstSearch searcher(indexes[v], &store);
        const std::vector<MstResult> got =
            searcher.Search(query, period, options);
        if (got.size() != want.size()) {
          std::fprintf(stderr,
                       "[index_quality] FAIL: query %zu (%s): %s returned "
                       "%zu results, oracle %zu\n",
                       qi, PolicyName(policy), kVariantNames[v], got.size(),
                       want.size());
          return false;
        }
        for (size_t i = 0; i < want.size(); ++i) {
          if (got[i].id != want[i].id || got[i].dissim != want[i].dissim ||
              got[i].error_bound != want[i].error_bound) {
            std::fprintf(stderr,
                         "[index_quality] FAIL: query %zu (%s) rank %zu: %s "
                         "(id=%" PRId64 ", %.17g) vs oracle (id=%" PRId64
                         ", %.17g)\n",
                         qi, PolicyName(policy), i, kVariantNames[v],
                         static_cast<int64_t>(got[i].id), got[i].dissim,
                         static_cast<int64_t>(want[i].id), want[i].dissim);
            return false;
          }
        }
      }
    }
  }
  return true;
}

int Main(int argc, char** argv) {
  int64_t objects = 1000;
  int64_t samples = 200;
  int64_t queries = 40;
  int64_t k = 50;
  int64_t seed = static_cast<int64_t>(bench::kDefaultBenchSeed);
  double length = 0.05;
  double time_weight = -1.0;
  bool quick = false;
  bool help = false;
  std::string out_path = "BENCH_index_quality.json";
  FlagParser flags;
  flags.AddInt("objects", &objects, "dataset cardinality");
  flags.AddInt("samples", &samples, "samples per object");
  flags.AddInt("queries", &queries, "queries in the measured set");
  flags.AddInt("k", &k, "k of the k-MST queries");
  flags.AddInt("seed", &seed, "workload RNG seed");
  flags.AddDouble("length", &length, "query length fraction of a lifespan");
  flags.AddDouble("time_weight", &time_weight,
                  "R* time-axis weight; negative keeps the Options default");
  flags.AddBool("quick", &quick, "CI smoke mode: small dataset, few queries");
  flags.AddBool("help", &help, "print usage");
  flags.AddString("out", &out_path, "JSON output path");
  if (!flags.Parse(argc, argv)) return 1;
  if (help) {
    flags.PrintUsage("bench_index_quality");
    return 0;
  }
  if (quick) {
    objects = 200;
    queries = 20;
  }

  std::fprintf(stderr,
               "[index_quality] building %s three ways (quadratic insert, "
               "R* insert, STR bulk load)...\n",
               bench::SDatasetName(static_cast<int>(objects)).c_str());
  const TrajectoryStore store = bench::MakeSDataset(
      static_cast<int>(objects), static_cast<int>(samples));

  TrajectoryIndex::Options quad_opt;
  WallTimer quad_timer;
  RTree3D quad(quad_opt);
  quad.BuildFrom(store);
  const double quad_build_s = quad_timer.ElapsedMs() / 1e3;

  TrajectoryIndex::Options rstar_opt = quad_opt;
  rstar_opt.rtree_variant = RTreeVariant::kRStar;
  if (time_weight >= 0.0) rstar_opt.rstar_time_weight = time_weight;
  WallTimer rstar_timer;
  RTree3D rstar(rstar_opt);
  rstar.BuildFrom(store);
  const double rstar_build_s = rstar_timer.ElapsedMs() / 1e3;

  WallTimer str_timer;
  RTree3D str(quad_opt);
  str.BulkLoad(store);
  const double str_build_s = str_timer.ElapsedMs() / 1e3;

  const std::vector<TrajectoryIndex*> indexes = {&quad, &rstar, &str};
  for (const TrajectoryIndex* idx : indexes) {
    std::fprintf(stderr, "[index_quality]   %-9s %6" PRId64 " nodes, height %d\n",
                 kVariantNames[idx == &rstar ? 1 : (idx == &str ? 2 : 0)],
                 idx->NodeCount(), idx->height());
  }

  Rng rng(static_cast<uint64_t>(seed));
  std::vector<Trajectory> query_set;
  query_set.reserve(static_cast<size_t>(queries));
  for (int i = 0; i < queries; ++i) {
    query_set.push_back(bench::MakeQuery(store, &rng, length));
  }

  // Identity gate first, while the build-sized buffers still hold the whole
  // trees (the gate cares about answers, not I/O).
  std::fprintf(stderr,
               "[index_quality] identity gate: %" PRId64
               " queries x 3 policies x 3 builds vs oracle + LinearScan...\n",
               queries);
  if (!VerifyIdentity(indexes, store, query_set, static_cast<int>(k))) {
    std::fprintf(stderr,
                 "[index_quality] FAIL: construction policy changed k-MST "
                 "answers\n");
    return 2;
  }

  // Cost legs under the paper's buffer (10 % of index size, <= 1000 pages).
  // Node accesses are shape-deterministic; cold reads start from an empty
  // buffer so each variant pays its own miss pattern.
  MstOptions options;
  options.k = static_cast<int>(k);
  VariantCost costs[3];
  for (int v = 0; v < 3; ++v) {
    costs[v] = MeasureCosts(*indexes[v], store, query_set, options);
  }

  const auto ratio = [](int64_t base, int64_t ours) {
    return ours > 0 ? static_cast<double>(base) / static_cast<double>(ours)
                    : 0.0;
  };
  const double node_access_ratio =
      ratio(costs[0].node_accesses, costs[1].node_accesses);
  const double cold_read_ratio = ratio(costs[0].cold_reads, costs[1].cold_reads);
  const double node_access_reduction =
      node_access_ratio > 0.0 ? 1.0 - 1.0 / node_access_ratio : 0.0;
  const double cold_read_reduction =
      cold_read_ratio > 0.0 ? 1.0 - 1.0 / cold_read_ratio : 0.0;

  std::printf("== R-tree construction quality: quadratic vs R* vs STR ==\n");
  std::printf("dataset %s, %" PRId64 " queries (len %.2f, k=%" PRId64
              "), paper-sized buffer\n",
              bench::SDatasetName(static_cast<int>(objects)).c_str(), queries,
              length, k);
  for (int v = 0; v < 3; ++v) {
    std::printf("%-9s: %6" PRId64 " nodes, height %d, %8" PRId64
                " node accesses, %7" PRId64 " cold reads\n",
                kVariantNames[v], indexes[v]->NodeCount(),
                indexes[v]->height(), costs[v].node_accesses,
                costs[v].cold_reads);
  }
  std::printf("R* vs quadratic: node accesses %.2fx (%.1f%% fewer), cold "
              "reads %.2fx (%.1f%% fewer)\n",
              node_access_ratio, 100.0 * node_access_reduction,
              cold_read_ratio, 100.0 * cold_read_reduction);

  if (std::FILE* f = bench::OpenBenchJson(out_path)) {
    std::fprintf(f,
                 "  \"dataset\": \"%s\",\n"
                 "  \"samples_per_object\": %" PRId64 ",\n"
                 "  \"queries\": %" PRId64 ",\n"
                 "  \"k\": %" PRId64 ",\n"
                 "  \"length_fraction\": %.4f,\n"
                 "  \"seed\": %" PRId64 ",\n"
                 "  \"rstar_time_weight\": %.4f,\n"
                 "  \"nodes_quadratic\": %" PRId64 ",\n"
                 "  \"nodes_rstar\": %" PRId64 ",\n"
                 "  \"nodes_str\": %" PRId64 ",\n"
                 "  \"height_quadratic\": %d,\n"
                 "  \"height_rstar\": %d,\n"
                 "  \"height_str\": %d,\n"
                 "  \"build_seconds_quadratic\": %.3f,\n"
                 "  \"build_seconds_rstar\": %.3f,\n"
                 "  \"build_seconds_str\": %.3f,\n"
                 "  \"node_accesses_quadratic\": %" PRId64 ",\n"
                 "  \"node_accesses_rstar\": %" PRId64 ",\n"
                 "  \"node_accesses_str\": %" PRId64 ",\n"
                 "  \"cold_reads_quadratic\": %" PRId64 ",\n"
                 "  \"cold_reads_rstar\": %" PRId64 ",\n"
                 "  \"cold_reads_str\": %" PRId64 ",\n"
                 "  \"node_access_ratio\": %.4f,\n"
                 "  \"node_access_reduction\": %.4f,\n"
                 "  \"cold_read_ratio\": %.4f,\n"
                 "  \"cold_read_reduction\": %.4f\n"
                 "}\n",
                 bench::SDatasetName(static_cast<int>(objects)).c_str(),
                 samples, queries, k, length, seed,
                 rstar_opt.rstar_time_weight, quad.NodeCount(),
                 rstar.NodeCount(), str.NodeCount(), quad.height(),
                 rstar.height(), str.height(), quad_build_s, rstar_build_s,
                 str_build_s, costs[0].node_accesses, costs[1].node_accesses,
                 costs[2].node_accesses, costs[0].cold_reads,
                 costs[1].cold_reads, costs[2].cold_reads, node_access_ratio,
                 node_access_reduction, cold_read_ratio, cold_read_reduction);
    std::fclose(f);
    std::fprintf(stderr, "[index_quality] wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "[index_quality] cannot write %s\n", out_path.c_str());
    return 3;
  }
  return 0;
}

}  // namespace
}  // namespace mst

int main(int argc, char** argv) { return mst::Main(argc, argv); }

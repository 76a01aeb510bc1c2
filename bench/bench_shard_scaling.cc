// Shard-scaling benchmark for the scatter-gather k-MST service. One query
// workload runs through four engines over the same dataset:
//
//   unsharded — BFMstSearch on one TB-tree (the PR-before-this baseline),
//   N=1/2/8   — ScatterGatherSearch over a ShardedIndex (the pure
//               partition-and-merge cost),
//   frontend  — the same workload submitted concurrently through
//               ShardFrontEnd (N=8, per-shard workers + gather thread),
//               the service-shaped throughput number.
//
// Identity gates (the whole point of the partition design): every sharded
// leg must return bitwise-identical results to the unsharded engine, and
// the N=1 leg must also match its node-access counts exactly — one shard
// receives every trajectory in store order and builds the identical tree.
//
// Exits nonzero on: result/node-access mismatch between a sharded leg and
// the unsharded engine (exit 2), or unwritable JSON (exit 3).

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/shard/scatter_gather.h"
#include "src/shard/shard_frontend.h"
#include "src/shard/sharded_index.h"
#include "src/util/flags.h"
#include "src/util/timer.h"

namespace mst {
namespace {

constexpr int kShardCounts[] = {1, 2, 8};

struct QueryRecord {
  std::vector<MstResult> results;
  int64_t nodes_accessed = 0;
};

struct LegResult {
  std::vector<QueryRecord> records;  // last measured repeat
  double best_seconds = 1e300;       // fastest repeat, whole workload
  int64_t nodes_accessed = 0;        // per repeat (identical across repeats)
};

template <typename SearchFn>
void RunRepeats(const std::vector<Trajectory>& queries,
                const MstOptions& options, int repeats, SearchFn&& search,
                LegResult* out) {
  for (int rep = 0; rep < repeats; ++rep) {
    std::vector<QueryRecord> records;
    records.reserve(queries.size());
    int64_t nodes = 0;
    CpuTimer timer;
    for (const Trajectory& q : queries) {
      MstStats stats;
      QueryRecord rec;
      rec.results = search(q, options, &stats);
      rec.nodes_accessed = stats.nodes_accessed;
      nodes += stats.nodes_accessed;
      records.push_back(std::move(rec));
    }
    const double seconds = timer.ElapsedMs() / 1e3;
    if (seconds < out->best_seconds) out->best_seconds = seconds;
    out->records = std::move(records);
    out->nodes_accessed = nodes;
  }
}

// `equal_nodes`: per-query node accesses must match the reference exactly
// (the N=1 identity gate). Results must always be bitwise identical.
bool LegsAgree(const char* name, const LegResult& ref, const LegResult& leg,
               bool equal_nodes) {
  if (ref.records.size() != leg.records.size()) {
    std::fprintf(stderr, "[shard_scaling] %s: record count differs\n", name);
    return false;
  }
  for (size_t i = 0; i < ref.records.size(); ++i) {
    const QueryRecord& a = ref.records[i];
    const QueryRecord& b = leg.records[i];
    if (equal_nodes && a.nodes_accessed != b.nodes_accessed) {
      std::fprintf(stderr,
                   "[shard_scaling] %s: query %zu node accesses differ "
                   "(ref=%" PRId64 " leg=%" PRId64 ")\n",
                   name, i, a.nodes_accessed, b.nodes_accessed);
      return false;
    }
    if (a.results.size() != b.results.size()) {
      std::fprintf(stderr, "[shard_scaling] %s: query %zu result count\n",
                   name, i);
      return false;
    }
    for (size_t j = 0; j < a.results.size(); ++j) {
      if (a.results[j].id != b.results[j].id ||
          a.results[j].dissim != b.results[j].dissim ||
          a.results[j].error_bound != b.results[j].error_bound) {
        std::fprintf(stderr,
                     "[shard_scaling] %s: query %zu result %zu differs\n",
                     name, i, j);
        return false;
      }
    }
  }
  return true;
}

int Main(int argc, char** argv) {
  int64_t objects = 1000;
  int64_t samples = 2000;
  int64_t queries = 40;
  int64_t k = 50;
  int64_t repeats = 3;
  int64_t seed = static_cast<int64_t>(bench::kDefaultBenchSeed);
  double length = 0.05;
  bool quick = false;
  bool help = false;
  std::string out_path = "BENCH_shard_scaling.json";
  FlagParser flags;
  flags.AddInt("objects", &objects, "dataset cardinality");
  flags.AddInt("samples", &samples, "samples per object");
  flags.AddInt("queries", &queries, "queries in the workload");
  flags.AddInt("k", &k, "k of the k-MST queries");
  flags.AddInt("repeats", &repeats, "measured repeats (fastest counts)");
  flags.AddInt("seed", &seed, "workload RNG seed");
  flags.AddDouble("length", &length, "query length fraction of a lifespan");
  flags.AddBool("quick", &quick, "CI smoke mode: small dataset, few queries");
  flags.AddBool("help", &help, "print usage");
  flags.AddString("out", &out_path, "JSON output path");
  if (!flags.Parse(argc, argv)) return 1;
  if (help) {
    flags.PrintUsage("bench_shard_scaling");
    return 0;
  }
  if (quick) {
    objects = 200;
    samples = 200;
    queries = 12;
    k = 10;
    repeats = 2;
  }

  std::fprintf(stderr,
               "[shard_scaling] building %s (%" PRId64 " samples/obj)...\n",
               bench::SDatasetName(static_cast<int>(objects)).c_str(),
               samples);
  const TrajectoryStore store = bench::MakeSDataset(
      static_cast<int>(objects), static_cast<int>(samples));
  TBTree unsharded;
  unsharded.BuildFrom(store);
  unsharded.ConfigurePaperBuffer();

  std::vector<std::unique_ptr<ShardedIndex>> sharded;
  for (const int n : kShardCounts) {
    ShardedIndex::Options opt;
    opt.num_shards = n;
    // No cross-query result caches here: the legs of one shard count run
    // back to back over the same index, and a cache warmed by an earlier
    // leg would flatter every later one (bench_result_cache measures the
    // caches; this bench measures scatter-gather).
    opt.result_cache_entries = 0;
    auto index = std::make_unique<ShardedIndex>(opt);
    index->BuildFrom(store);
    index->ConfigurePaperBuffer();
    sharded.push_back(std::move(index));
  }

  Rng rng(static_cast<uint64_t>(seed));
  std::vector<Trajectory> query_set;
  query_set.reserve(static_cast<size_t>(queries));
  for (int i = 0; i < queries; ++i) {
    query_set.push_back(bench::MakeQuery(store, &rng, length));
  }
  // Exact refinement: the accuracy-first configuration.
  MstOptions options;
  options.k = static_cast<int>(k);
  options.policy = IntegrationPolicy::kExact;

  std::fprintf(stderr,
               "[shard_scaling] measuring %" PRId64 " repeats of %" PRId64
               " queries (k=%" PRId64 ")...\n",
               repeats, queries, k);
  const BFMstSearch baseline_search(&unsharded, &store);
  LegResult baseline;
  RunRepeats(
      query_set, options, static_cast<int>(repeats),
      [&](const Trajectory& q, const MstOptions& opt, MstStats* stats) {
        return baseline_search.Search(q, q.Lifespan(), opt, stats);
      },
      &baseline);

  std::vector<LegResult> legs(sharded.size());
  for (size_t s = 0; s < sharded.size(); ++s) {
    const ScatterGatherSearch search(sharded[s].get());
    RunRepeats(
        query_set, options, static_cast<int>(repeats),
        [&](const Trajectory& q, const MstOptions& opt, MstStats* stats) {
          return search.Search(q, q.Lifespan(), opt, stats);
        },
        &legs[s]);
  }

  // The service leg: every query in flight at once through the N=8
  // front-end; wall time, not CPU time — this leg exists to measure
  // cross-query parallel throughput.
  const ShardedIndex* widest = sharded.back().get();
  double frontend_best_seconds = 1e300;
  std::vector<QueryRequest> requests;
  requests.reserve(query_set.size());
  for (const Trajectory& q : query_set) {
    requests.emplace_back(q, q.Lifespan(), options);
  }
  ShardFrontEnd::Options fe_opt;
  fe_opt.result_cache_entries = 0;  // same cache-free footing as the legs
  for (int rep = 0; rep < repeats; ++rep) {
    ShardFrontEnd frontend(widest, fe_opt);
    WallTimer timer;
    const std::vector<QueryOutcome> outcomes = frontend.RunBatch(requests);
    const double seconds = timer.ElapsedMs() / 1e3;
    if (seconds < frontend_best_seconds) frontend_best_seconds = seconds;
    for (size_t i = 0; i < outcomes.size(); ++i) {
      if (outcomes[i].results.size() != baseline.records[i].results.size()) {
        std::fprintf(stderr,
                     "[shard_scaling] FAIL: frontend query %zu result count "
                     "differs from the unsharded engine\n",
                     i);
        return 2;
      }
    }
  }

  for (size_t s = 0; s < sharded.size(); ++s) {
    const int n = kShardCounts[s];
    char name[32];
    std::snprintf(name, sizeof(name), "shards=%d", n);
    // Identity gate: results bitwise identical for every N; node accesses
    // exactly equal for N=1 (same tree, same traversal).
    if (!LegsAgree(name, baseline, legs[s], /*equal_nodes=*/n == 1)) {
      std::fprintf(stderr,
                   "[shard_scaling] FAIL: sharded engine (N=%d) diverged "
                   "from the unsharded engine\n",
                   n);
      return 2;
    }
  }

  const double qps_base =
      static_cast<double>(queries) / baseline.best_seconds;
  const double qps_frontend =
      static_cast<double>(queries) / frontend_best_seconds;

  std::printf("== Sharded scatter-gather k-MST (identity-gated) ==\n");
  std::printf("dataset %s, %" PRId64 " queries (len %.2f, k=%" PRId64
              ", exact), %" PRId64 " repeats\n",
              bench::SDatasetName(static_cast<int>(objects)).c_str(), queries,
              length, k, repeats);
  std::printf("unsharded      : %8.1f q/s, %10" PRId64 " nodes\n", qps_base,
              baseline.nodes_accessed);
  for (size_t s = 0; s < sharded.size(); ++s) {
    std::printf("N=%d scatter    : %8.1f q/s, %10" PRId64 " nodes\n",
                kShardCounts[s],
                static_cast<double>(queries) / legs[s].best_seconds,
                legs[s].nodes_accessed);
  }
  const unsigned hardware_threads = std::thread::hardware_concurrency();
  std::printf("N=8 frontend   : %8.1f q/s (wall, %.2fx vs serial "
              "unsharded, %u hw threads)\n",
              qps_frontend, qps_frontend / qps_base, hardware_threads);

  if (std::FILE* f = bench::OpenBenchJson(out_path)) {
    std::fprintf(f,
                 "  \"dataset\": \"%s\",\n"
                 "  \"samples_per_object\": %" PRId64 ",\n"
                 "  \"queries\": %" PRId64 ",\n"
                 "  \"k\": %" PRId64 ",\n"
                 "  \"length_fraction\": %.4f,\n"
                 "  \"repeats\": %" PRId64 ",\n"
                 "  \"seed\": %" PRId64 ",\n"
                 "  \"policy\": \"exact\",\n"
                 "  \"qps_unsharded\": %.2f,\n"
                 "  \"nodes_unsharded\": %" PRId64 ",\n",
                 bench::SDatasetName(static_cast<int>(objects)).c_str(),
                 samples, queries, k, length, repeats, seed, qps_base,
                 baseline.nodes_accessed);
    for (size_t s = 0; s < sharded.size(); ++s) {
      const int n = kShardCounts[s];
      std::fprintf(f,
                   "  \"qps_shards%d\": %.2f,\n"
                   "  \"nodes_shards%d\": %" PRId64 ",\n",
                   n, static_cast<double>(queries) / legs[s].best_seconds, n,
                   legs[s].nodes_accessed);
    }
    // Wall-clock throughput of the parallel leg is a function of the
    // machine; hardware_threads makes the guard treat it as workload shape.
    std::fprintf(f,
                 "  \"hardware_threads\": %u,\n"
                 "  \"qps_frontend_shards8\": %.2f,\n"
                 "  \"frontend_speedup_vs_unsharded\": %.4f\n"
                 "}\n",
                 hardware_threads, qps_frontend, qps_frontend / qps_base);
    std::fclose(f);
    std::fprintf(stderr, "[shard_scaling] wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "[shard_scaling] cannot write %s\n",
                 out_path.c_str());
    return 3;
  }
  return 0;
}

}  // namespace
}  // namespace mst

int main(int argc, char** argv) { return mst::Main(argc, argv); }

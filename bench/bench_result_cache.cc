// Repeated-workload benchmark for the cross-query DISSIM result cache. The
// workload is the production pattern the cache targets: a set of k-MST
// queries replayed for several rounds (monitoring dashboards, alerting
// sweeps, polling clients). Two legs run the identical workload:
//
//   off — BFMstSearch with no result cache (the baseline),
//   on  — BFMstSearch with the result cache attached: round 2+ serves
//         every §4.4 full-period refinement from the cache.
//
// The legs are interleaved and scored by best-of CPU time (single-thread
// cost comparison; robust on loaded CI machines). The bench exits nonzero
// when the cache changes any result byte or any node-access count (exit 2),
// when the JSON cannot be written (exit 3), or when the on-leg hit rate
// falls below --min_hit_rate (exit 4).

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/result_cache.h"
#include "src/util/flags.h"
#include "src/util/timer.h"

namespace mst {
namespace {

struct QueryRecord {
  std::vector<MstResult> results;
  int64_t nodes_accessed = 0;
};

struct LegResult {
  std::vector<QueryRecord> records;  // last measured repeat, all rounds
  double best_seconds = 1e300;       // fastest repeat, whole workload
  int64_t cache_hits = 0;            // measured repeats only
  int64_t cache_misses = 0;
};

// One measured repeat: `rounds` passes over the query set. CPU time, not
// wall clock — single-thread cost, meaningful under CI noise.
void RunRepeat(const BFMstSearch& searcher,
               const std::vector<Trajectory>& queries,
               const MstOptions& options, int rounds, LegResult* out) {
  std::vector<QueryRecord> records;
  records.reserve(queries.size() * static_cast<size_t>(rounds));
  CpuTimer timer;
  for (int round = 0; round < rounds; ++round) {
    for (const Trajectory& q : queries) {
      MstStats stats;
      QueryRecord rec;
      rec.results = searcher.Search(q, q.Lifespan(), options, &stats);
      rec.nodes_accessed = stats.nodes_accessed;
      records.push_back(std::move(rec));
    }
  }
  const double seconds = timer.ElapsedMs() / 1e3;
  if (seconds < out->best_seconds) out->best_seconds = seconds;
  out->records = std::move(records);
}

// Interleaved off/on repeats (alternating legs keeps thermal drift and
// frequency scaling from biasing whichever mode runs later; best-of absorbs
// the rest). The cache restarts cold every measured repeat, so round 1's
// misses stay inside the measurement — the reported speedup is what a
// cold-started service would see over the whole repeated workload.
void RunInterleaved(const TBTree& index, const TrajectoryStore& store,
                    const std::vector<Trajectory>& queries,
                    const MstOptions& options, int rounds, int repeats,
                    size_t cache_entries, LegResult* off, LegResult* on) {
  ResultCache cache(cache_entries);
  const BFMstSearch plain(&index, &store);
  const BFMstSearch cached(&index, &store, &cache);

  // Warm-up with the cache off: page buffer and node cache reach steady
  // state before anything is timed.
  for (const Trajectory& q : queries) {
    plain.Search(q, q.Lifespan(), options);
  }

  for (int rep = 0; rep < repeats; ++rep) {
    RunRepeat(plain, queries, options, rounds, off);

    cache.Clear();
    const int64_t hits_before = cache.hits();
    const int64_t misses_before = cache.misses();
    RunRepeat(cached, queries, options, rounds, on);
    on->cache_hits += cache.hits() - hits_before;
    on->cache_misses += cache.misses() - misses_before;
  }
}

// Bitwise result comparison between two legs, per-query node-access counts
// included.
bool LegsAgree(const char* name, const LegResult& ref, const LegResult& leg) {
  if (ref.records.size() != leg.records.size()) return false;
  for (size_t i = 0; i < ref.records.size(); ++i) {
    const QueryRecord& a = ref.records[i];
    const QueryRecord& b = leg.records[i];
    if (a.nodes_accessed != b.nodes_accessed) {
      std::fprintf(stderr,
                   "[result_cache] %s: query %zu node accesses differ "
                   "(ref=%" PRId64 " leg=%" PRId64 ")\n",
                   name, i, a.nodes_accessed, b.nodes_accessed);
      return false;
    }
    if (a.results.size() != b.results.size()) {
      std::fprintf(stderr, "[result_cache] %s: query %zu result count\n",
                   name, i);
      return false;
    }
    for (size_t j = 0; j < a.results.size(); ++j) {
      if (a.results[j].id != b.results[j].id ||
          a.results[j].dissim != b.results[j].dissim ||
          a.results[j].error_bound != b.results[j].error_bound) {
        std::fprintf(stderr,
                     "[result_cache] %s: query %zu result %zu differs\n",
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
  int64_t queries = 10;
  int64_t rounds = 10;
  int64_t k = 100;
  int64_t repeats = 3;
  int64_t cache_entries = 1 << 14;
  int64_t seed = static_cast<int64_t>(bench::kDefaultBenchSeed);
  double length = 0.05;
  double min_hit_rate = 0.5;
  bool quick = false;
  bool help = false;
  std::string policy = "exact";
  std::string out_path = "BENCH_result_cache.json";
  FlagParser flags;
  flags.AddInt("objects", &objects, "dataset cardinality");
  flags.AddInt("samples", &samples, "samples per object");
  flags.AddInt("queries", &queries, "distinct queries in the workload");
  flags.AddInt("rounds", &rounds, "times the query set is replayed");
  flags.AddInt("k", &k, "k of the k-MST queries");
  flags.AddInt("repeats", &repeats, "measured repeats (fastest counts)");
  flags.AddInt("cache_entries", &cache_entries, "result-cache capacity");
  flags.AddInt("seed", &seed, "workload RNG seed");
  flags.AddDouble("length", &length, "query length fraction of a lifespan");
  flags.AddDouble("min_hit_rate", &min_hit_rate,
                  "fail when the on-leg hit rate is below this");
  flags.AddBool("quick", &quick, "CI smoke mode: small dataset, few queries");
  flags.AddBool("help", &help, "print usage");
  flags.AddString("policy", &policy,
                  "candidate refinement policy: exact|trapezoid|adaptive");
  flags.AddString("out", &out_path, "JSON output path");
  if (!flags.Parse(argc, argv)) return 1;
  if (help) {
    flags.PrintUsage("bench_result_cache");
    return 0;
  }
  if (quick) {
    objects = 200;
    samples = 200;
    queries = 10;
    rounds = 3;
    repeats = 2;
  }

  std::fprintf(stderr,
               "[result_cache] building %s (%" PRId64 " samples/obj)...\n",
               bench::SDatasetName(static_cast<int>(objects)).c_str(),
               samples);
  const TrajectoryStore store = bench::MakeSDataset(
      static_cast<int>(objects), static_cast<int>(samples));
  TBTree index;
  index.BuildFrom(store);
  index.ConfigurePaperBuffer();

  Rng rng(static_cast<uint64_t>(seed));
  std::vector<Trajectory> query_set;
  query_set.reserve(static_cast<size_t>(queries));
  for (int i = 0; i < queries; ++i) {
    query_set.push_back(bench::MakeQuery(store, &rng, length));
  }
  MstOptions options;
  options.k = static_cast<int>(k);
  // Exact refinement by default: the accuracy-first configuration is where
  // repeated integrations cost the most, i.e. the cache's target workload.
  if (policy == "exact") {
    options.policy = IntegrationPolicy::kExact;
  } else if (policy == "adaptive") {
    options.policy = IntegrationPolicy::kAdaptive;
  } else if (policy == "trapezoid") {
    options.policy = IntegrationPolicy::kTrapezoid;
  } else {
    std::fprintf(stderr, "[result_cache] unknown --policy %s\n",
                 policy.c_str());
    return 1;
  }

  const int64_t total_queries = queries * rounds;
  std::fprintf(stderr,
               "[result_cache] measuring %" PRId64 " interleaved off/on "
               "repeats of %" PRId64 " queries x %" PRId64 " rounds...\n",
               repeats, queries, rounds);
  LegResult off;
  LegResult on;
  RunInterleaved(index, store, query_set, options, static_cast<int>(rounds),
                 static_cast<int>(repeats),
                 static_cast<size_t>(cache_entries), &off, &on);

  if (!LegsAgree("on", off, on)) {
    std::fprintf(stderr,
                 "[result_cache] FAIL: the cache changed results or "
                 "node-access counts\n");
    return 2;
  }

  const double qps_off = static_cast<double>(total_queries) / off.best_seconds;
  const double qps_on = static_cast<double>(total_queries) / on.best_seconds;
  const double speedup_on = qps_on / qps_off;
  const int64_t lookups = on.cache_hits + on.cache_misses;
  const double hit_rate =
      lookups > 0
          ? static_cast<double>(on.cache_hits) / static_cast<double>(lookups)
          : 0.0;

  std::printf("== Cross-query result cache (repeated workload) ==\n");
  std::printf("dataset %s, %" PRId64 " queries x %" PRId64
              " rounds (len %.2f, k=%" PRId64 ", %s), %" PRId64 " repeats\n",
              bench::SDatasetName(static_cast<int>(objects)).c_str(), queries,
              rounds, length, k, policy.c_str(), repeats);
  std::printf("cache off    : %8.1f q/s\n", qps_off);
  std::printf("cache on     : %8.1f q/s  (%.2fx, hit rate %.1f%%)\n", qps_on,
              speedup_on, 100.0 * hit_rate);

  if (std::FILE* f = bench::OpenBenchJson(out_path)) {
    std::fprintf(f,
                 "  \"dataset\": \"%s\",\n"
                 "  \"samples_per_object\": %" PRId64 ",\n"
                 "  \"queries\": %" PRId64 ",\n"
                 "  \"rounds\": %" PRId64 ",\n"
                 "  \"k\": %" PRId64 ",\n"
                 "  \"length_fraction\": %.4f,\n"
                 "  \"repeats\": %" PRId64 ",\n"
                 "  \"cache_entries\": %" PRId64 ",\n"
                 "  \"policy\": \"%s\",\n"
                 "  \"seed\": %" PRId64 ",\n"
                 "  \"qps_cache_off\": %.2f,\n"
                 "  \"qps_cache_on\": %.2f,\n"
                 "  \"speedup\": %.4f,\n"
                 "  \"cache_hits\": %" PRId64 ",\n"
                 "  \"cache_misses\": %" PRId64 ",\n"
                 "  \"cache_hit_rate\": %.4f\n"
                 "}\n",
                 bench::SDatasetName(static_cast<int>(objects)).c_str(),
                 samples, queries, rounds, k, length, repeats, cache_entries,
                 policy.c_str(), seed, qps_off, qps_on, speedup_on,
                 on.cache_hits, on.cache_misses, hit_rate);
    std::fclose(f);
    std::fprintf(stderr, "[result_cache] wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "[result_cache] cannot write %s\n", out_path.c_str());
    return 3;
  }

  if (hit_rate < min_hit_rate) {
    std::fprintf(stderr,
                 "[result_cache] FAIL: hit rate %.3f below required %.3f\n",
                 hit_rate, min_hit_rate);
    return 4;
  }
  return 0;
}

}  // namespace
}  // namespace mst

int main(int argc, char** argv) { return mst::Main(argc, argv); }

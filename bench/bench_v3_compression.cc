// Benchmark of the v3 compressed columnar leaf pages against the v2 SoA
// layout, in three legs:
//
// 1. Identity. All three backends (3D R-tree, TB-tree, STR-tree) are built
//    twice over a small dataset — once per leaf format — and the same k-MST
//    query set runs under every integration policy. Results (ids, dissims,
//    error bounds) and per-query counters (node accesses, leaf entries
//    seen, heap pushes) must match bitwise; any divergence exits non-zero,
//    which is what CI gates on. v3 deliberately keeps the v2 fanout, so the
//    tree shapes (node count, root) must match too.
//
// 2. Compression census + decode microbench, on the S-series TB-tree. Every
//    leaf page's occupied bytes are summed (a v3 page occupies its header +
//    column payloads; a raw-fallback page occupies the full 4 KB) and both
//    formats' pages are decoded in a tight loop over in-memory copies,
//    isolating the codec from the query logic.
//
// 3. Cold-cache physical reads at one equal buffer size. Both trees get a
//    buffer of B pages, i.e. B*4096 bytes; the buffer charges every frame
//    its occupied bytes, so a raw v2 frame costs the full 4 KB while a
//    compressed v3 frame costs only its header and columns. Both buffers
//    are dropped cold and the query set replayed: the v3 leg keeps more
//    leaves resident inside the same budget, so it re-reads fewer pages.
//    This leg is where the compression pays — it is reported, not
//    identity-gated (fewer physical reads are the point).
//
// Warm passes are interleaved v2/v3 with best-of CPU time per mode, to keep
// frequency drift from biasing either mode.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/index/leaf_codec_v3.h"
#include "src/util/flags.h"
#include "src/util/timer.h"

namespace mst {
namespace {

struct QueryRecord {
  std::vector<MstResult> results;
  int64_t nodes_accessed = 0;
  int64_t leaf_entries_seen = 0;
  int64_t heap_pushes = 0;
};

struct PhaseResult {
  std::vector<QueryRecord> records;  // from the last measured pass
  double best_seconds = 1e300;       // fastest pass, whole query set
};

void RunPass(const TrajectoryIndex& index, const TrajectoryStore& store,
             const std::vector<Trajectory>& queries, const MstOptions& options,
             PhaseResult* out) {
  const BFMstSearch searcher(&index, &store);
  std::vector<QueryRecord> records;
  records.reserve(queries.size());
  // CPU time, not wall clock: single-thread cost comparison that must stay
  // meaningful on loaded CI machines.
  CpuTimer timer;
  for (const Trajectory& q : queries) {
    MstStats stats;
    QueryRecord rec;
    rec.results = searcher.Search(q, q.Lifespan(), options, &stats);
    rec.nodes_accessed = stats.nodes_accessed;
    rec.leaf_entries_seen = stats.leaf_entries_seen;
    rec.heap_pushes = stats.heap_pushes;
    records.push_back(std::move(rec));
  }
  const double seconds = timer.ElapsedMs() / 1e3;
  if (seconds < out->best_seconds) out->best_seconds = seconds;
  out->records = std::move(records);
}

bool PhasesAgree(const char* label, const PhaseResult& v2,
                 const PhaseResult& v3) {
  if (v2.records.size() != v3.records.size()) return false;
  for (size_t i = 0; i < v2.records.size(); ++i) {
    const QueryRecord& a = v2.records[i];
    const QueryRecord& b = v3.records[i];
    if (a.nodes_accessed != b.nodes_accessed ||
        a.leaf_entries_seen != b.leaf_entries_seen ||
        a.heap_pushes != b.heap_pushes) {
      std::fprintf(stderr,
                   "[v3_compression] %s query %zu: counters differ "
                   "(nodes %" PRId64 "/%" PRId64 ", entries %" PRId64
                   "/%" PRId64 ", pushes %" PRId64 "/%" PRId64 ")\n",
                   label, i, a.nodes_accessed, b.nodes_accessed,
                   a.leaf_entries_seen, b.leaf_entries_seen, a.heap_pushes,
                   b.heap_pushes);
      return false;
    }
    if (a.results.size() != b.results.size()) return false;
    for (size_t j = 0; j < a.results.size(); ++j) {
      if (a.results[j].id != b.results[j].id ||
          a.results[j].dissim != b.results[j].dissim ||
          a.results[j].error_bound != b.results[j].error_bound) {
        std::fprintf(stderr,
                     "[v3_compression] %s query %zu result %zu differs\n",
                     label, i, j);
        return false;
      }
    }
  }
  return true;
}

// The identity leg: one backend pair (v2-built and v3-built), one policy,
// fresh query stats each pass. Returns false on any divergence.
bool BackendsIdentical(const char* label, const TrajectoryIndex& v2_index,
                       const TrajectoryIndex& v3_index,
                       const TrajectoryStore& store,
                       const std::vector<Trajectory>& queries, int k) {
  if (v2_index.NodeCount() != v3_index.NodeCount() ||
      v2_index.root() != v3_index.root()) {
    std::fprintf(stderr,
                 "[v3_compression] %s: tree shapes differ across formats\n",
                 label);
    return false;
  }
  for (const IntegrationPolicy policy :
       {IntegrationPolicy::kTrapezoid, IntegrationPolicy::kExact,
        IntegrationPolicy::kAdaptive}) {
    MstOptions options;
    options.k = k;
    options.policy = policy;
    PhaseResult v2;
    PhaseResult v3;
    RunPass(v2_index, store, queries, options, &v2);
    RunPass(v3_index, store, queries, options, &v3);
    if (!PhasesAgree(label, v2, v3)) return false;
  }
  return true;
}

struct LeafCensus {
  int64_t leaf_pages = 0;
  int64_t fallback_pages = 0;  // v3-built leaves stored as raw v2 pages
  int64_t occupied_bytes = 0;  // header+payload for v3, kPageSize otherwise
};

LeafCensus CensusLeaves(const TrajectoryIndex& index) {
  LeafCensus census;
  const int64_t n = index.NodeCount();
  for (PageId id = 0; id < n; ++id) {
    const PageGuard guard = index.buffer().Pin(id);
    if (!IndexNode::Decode(*guard, id).IsLeaf()) continue;
    ++census.leaf_pages;
    if (IsV3LeafPage(*guard)) {
      census.occupied_bytes +=
          static_cast<int64_t>(LeafPageOccupiedBytes(*guard));
    } else {
      ++census.fallback_pages;
      census.occupied_bytes += static_cast<int64_t>(kPageSize);
    }
  }
  return census;
}

// Copies every leaf page of `index` into memory (so the timing below sees
// only the codec, not the buffer) and returns them.
std::vector<Page> CollectLeafPages(const TrajectoryIndex& index) {
  std::vector<Page> pages;
  const int64_t n = index.NodeCount();
  for (PageId id = 0; id < n; ++id) {
    const PageGuard guard = index.buffer().Pin(id);
    if (IndexNode::Decode(*guard, id).IsLeaf()) pages.push_back(*guard);
  }
  return pages;
}

// Average decode ns per *entry* over `reps` sweeps of the collected pages.
double TimeDecodePerEntry(const std::vector<Page>& pages, int reps,
                          int64_t* sink) {
  CpuTimer timer;
  int64_t total = 0;
  for (int r = 0; r < reps; ++r) {
    for (size_t i = 0; i < pages.size(); ++i) {
      const IndexNode node = IndexNode::Decode(pages[i], static_cast<PageId>(i));
      total += node.Count();
    }
  }
  const double ns = timer.ElapsedMs() * 1e6;
  *sink += total;
  const double entries = static_cast<double>(total);
  return entries > 0.0 ? ns / entries : 0.0;
}

// Cold replay of the query set: drop the buffer, run the whole set `passes`
// times without clearing in between, return the physical page reads the leg
// incurred. With more than one pass the second round is pure capacity test:
// a buffer that holds the working set serves it read-free, one that does
// not re-reads what it evicted.
int64_t ColdPassReads(TrajectoryIndex& index, const TrajectoryStore& store,
                      const std::vector<Trajectory>& queries,
                      const MstOptions& options, int passes = 1) {
  index.buffer().Clear();
  const int64_t before = index.file().stats().physical_reads;
  const BFMstSearch searcher(&index, &store);
  for (int pass = 0; pass < passes; ++pass) {
    for (const Trajectory& q : queries) {
      const auto results = searcher.Search(q, q.Lifespan(), options);
      (void)results;
    }
  }
  return index.file().stats().physical_reads - before;
}

int Main(int argc, char** argv) {
  int64_t objects = 1000;
  int64_t samples = 2000;
  int64_t queries = 30;
  int64_t k = 50;
  int64_t repeats = 3;
  int64_t decode_reps = 20;
  int64_t identity_objects = 120;
  int64_t identity_samples = 150;
  int64_t identity_queries = 8;
  int64_t seed = static_cast<int64_t>(bench::kDefaultBenchSeed);
  double length = 0.05;
  double buffer_fraction = 0.5;
  bool quick = false;
  bool help = false;
  std::string out_path = "BENCH_v3_compression.json";
  FlagParser flags;
  flags.AddInt("objects", &objects, "dataset cardinality (perf legs)");
  flags.AddInt("samples", &samples, "samples per object (perf legs)");
  flags.AddInt("queries", &queries, "queries in the measured set");
  flags.AddInt("k", &k, "k of the k-MST queries");
  flags.AddInt("repeats", &repeats, "measured repeats (fastest counts)");
  flags.AddInt("decode_reps", &decode_reps, "sweeps of the decode microbench");
  flags.AddInt("seed", &seed, "workload RNG seed");
  flags.AddDouble("length", &length, "query length fraction of a lifespan");
  flags.AddDouble("buffer_fraction", &buffer_fraction,
                  "cold-leg buffer budget as a fraction of the query set's "
                  "cold working set");
  flags.AddBool("quick", &quick, "CI smoke mode: small dataset, few queries");
  flags.AddBool("help", &help, "print usage");
  flags.AddString("out", &out_path, "JSON output path");
  if (!flags.Parse(argc, argv)) return 1;
  if (help) {
    flags.PrintUsage("bench_v3_compression");
    return 0;
  }
  if (quick) {
    objects = 200;
    samples = 200;
    queries = 12;
    repeats = 2;
    decode_reps = 5;
    identity_objects = 60;
    identity_samples = 100;
    identity_queries = 5;
  }

  // ---- Leg 1: identity across backends and policies -------------------
  std::fprintf(stderr,
               "[v3_compression] identity leg: 3 backends x 2 formats x 3 "
               "policies over %" PRId64 " objects...\n",
               identity_objects);
  {
    const TrajectoryStore id_store =
        bench::MakeSDataset(static_cast<int>(identity_objects),
                            static_cast<int>(identity_samples));
    Rng id_rng(static_cast<uint64_t>(seed) ^ 0x1d);
    std::vector<Trajectory> id_queries;
    for (int i = 0; i < identity_queries; ++i) {
      id_queries.push_back(bench::MakeQuery(id_store, &id_rng, 0.2));
    }
    TrajectoryIndex::Options v2_opt;
    v2_opt.node_cache_nodes = 0;
    v2_opt.leaf_format = LeafPageFormat::kV2Soa;
    TrajectoryIndex::Options v3_opt = v2_opt;
    v3_opt.leaf_format = LeafPageFormat::kV3Compressed;

    RTree3D r2(v2_opt), r3(v3_opt);
    r2.BuildFrom(id_store);
    r3.BuildFrom(id_store);
    TBTree t2(v2_opt), t3(v3_opt);
    t2.BuildFrom(id_store);
    t3.BuildFrom(id_store);
    STRTree s2(v2_opt), s3(v3_opt);
    s2.BuildFrom(id_store);
    s3.BuildFrom(id_store);
    if (!BackendsIdentical("rtree3d", r2, r3, id_store, id_queries, 10) ||
        !BackendsIdentical("tbtree", t2, t3, id_store, id_queries, 10) ||
        !BackendsIdentical("strtree", s2, s3, id_store, id_queries, 10)) {
      std::fprintf(stderr,
                   "[v3_compression] FAIL: v3 leaf format changed results\n");
      return 2;
    }
  }

  // ---- Perf dataset: two TB-trees, v2 and v3 --------------------------
  std::fprintf(stderr, "[v3_compression] building %s twice (%" PRId64
                       " samples/obj, leaf formats v2 and v3)...\n",
               bench::SDatasetName(static_cast<int>(objects)).c_str(),
               samples);
  const TrajectoryStore store = bench::MakeSDataset(
      static_cast<int>(objects), static_cast<int>(samples));

  TrajectoryIndex::Options v2_opt;
  v2_opt.node_cache_nodes = 0;
  v2_opt.leaf_format = LeafPageFormat::kV2Soa;
  TBTree v2_index(v2_opt);
  v2_index.BuildFrom(store);

  TrajectoryIndex::Options v3_opt = v2_opt;
  v3_opt.leaf_format = LeafPageFormat::kV3Compressed;
  TBTree v3_index(v3_opt);
  v3_index.BuildFrom(store);

  if (v2_index.NodeCount() != v3_index.NodeCount() ||
      v2_index.root() != v3_index.root()) {
    std::fprintf(stderr,
                 "[v3_compression] FAIL: tree shapes differ across formats\n");
    return 2;
  }

  Rng rng(static_cast<uint64_t>(seed));
  std::vector<Trajectory> query_set;
  query_set.reserve(static_cast<size_t>(queries));
  for (int i = 0; i < queries; ++i) {
    query_set.push_back(bench::MakeQuery(store, &rng, length));
  }
  MstOptions options;
  options.k = static_cast<int>(k);

  // ---- Leg 2: compression census + decode microbench ------------------
  const LeafCensus v2_census = CensusLeaves(v2_index);
  const LeafCensus v3_census = CensusLeaves(v3_index);
  const double v2_leaf_bytes = static_cast<double>(v2_census.occupied_bytes);
  const double v3_leaf_bytes = static_cast<double>(v3_census.occupied_bytes);
  const double compression_ratio =
      v3_leaf_bytes > 0.0 ? v2_leaf_bytes / v3_leaf_bytes : 0.0;

  const std::vector<Page> v2_pages = CollectLeafPages(v2_index);
  const std::vector<Page> v3_pages = CollectLeafPages(v3_index);
  // Interleaved best-of pairs: the two formats are timed back to back
  // within each round so clock-frequency drift hits both sides alike, and
  // best-of discards the slow rounds entirely.
  int64_t sink = 0;
  TimeDecodePerEntry(v2_pages, 1, &sink);  // warm-up
  TimeDecodePerEntry(v3_pages, 1, &sink);
  double decode_ns_v2 = 1e300;
  double decode_ns_v3 = 1e300;
  for (int64_t rep = 0; rep < repeats; ++rep) {
    decode_ns_v2 = std::min(
        decode_ns_v2,
        TimeDecodePerEntry(v2_pages, static_cast<int>(decode_reps), &sink));
    decode_ns_v3 = std::min(
        decode_ns_v3,
        TimeDecodePerEntry(v3_pages, static_cast<int>(decode_reps), &sink));
  }
  if (sink < 0) std::fprintf(stderr, "unreachable %" PRId64 "\n", sink);
  const double decode_speed_ratio =
      decode_ns_v3 > 0.0 ? decode_ns_v2 / decode_ns_v3 : 0.0;

  // ---- Leg 3: cold-cache physical reads at one byte budget ------------
  // First measure the query set's cold working set: with the whole index
  // resident, one cold pass reads each distinct page exactly once. The
  // shared budget is then a fraction of that working set — identical for
  // both legs; only the frames' occupied bytes differ. Sized between the
  // two formats' footprints, the raw tree thrashes while the compressed one
  // fits — which is exactly the regime the compression buys.
  v2_index.buffer().SetCapacity(static_cast<size_t>(v2_index.NodeCount()));
  const int64_t working_set_pages =
      ColdPassReads(v2_index, store, query_set, options);
  const size_t budget_pages = std::max<size_t>(
      8, static_cast<size_t>(static_cast<double>(working_set_pages) *
                             buffer_fraction));
  v2_index.buffer().SetCapacity(budget_pages);
  v3_index.buffer().SetCapacity(budget_pages);
  // Two passes: the first faults the working set in, the second measures
  // what the budget managed to retain.
  const int64_t cold_reads_v2 =
      ColdPassReads(v2_index, store, query_set, options, /*passes=*/2);
  const int64_t cold_reads_v3 =
      ColdPassReads(v3_index, store, query_set, options, /*passes=*/2);
  const double cold_read_reduction =
      cold_reads_v3 > 0 ? static_cast<double>(cold_reads_v2) /
                              static_cast<double>(cold_reads_v3)
                        : 0.0;

  // ---- Warm k-MST throughput (decode-bound: whole index resident) -----
  v2_index.buffer().SetCapacity(static_cast<size_t>(v2_index.NodeCount()));
  v3_index.buffer().SetCapacity(static_cast<size_t>(v3_index.NodeCount()));
  PhaseResult v2;
  PhaseResult v3;
  RunPass(v2_index, store, query_set, options, &v2);  // warm-up
  RunPass(v3_index, store, query_set, options, &v3);
  v2.best_seconds = v3.best_seconds = 1e300;
  std::fprintf(stderr, "[v3_compression] measuring %" PRId64
                       " interleaved v2/v3 pass pairs...\n",
               repeats);
  for (int rep = 0; rep < repeats; ++rep) {
    RunPass(v2_index, store, query_set, options, &v2);
    RunPass(v3_index, store, query_set, options, &v3);
  }
  if (!PhasesAgree("tbtree-perf", v2, v3)) {
    std::fprintf(stderr,
                 "[v3_compression] FAIL: v3 leaf format changed results\n");
    return 2;
  }
  const double qps_v2 = static_cast<double>(queries) / v2.best_seconds;
  const double qps_v3 = static_cast<double>(queries) / v3.best_seconds;
  const double speedup = qps_v3 / qps_v2;

  std::printf("== Compressed columnar leaf pages: v2 vs v3 ==\n");
  std::printf("dataset %s, %" PRId64 " queries (len %.2f, k=%" PRId64
              "), %" PRId64 " repeats, node cache off\n",
              bench::SDatasetName(static_cast<int>(objects)).c_str(), queries,
              length, k, repeats);
  std::printf("leaf pages    : %" PRId64 " (%" PRId64
              " raw fallbacks in the v3 tree)\n",
              v3_census.leaf_pages, v3_census.fallback_pages);
  std::printf("leaf bytes    : v2 %.0f, v3 %.0f (%.2fx compression)\n",
              v2_leaf_bytes, v3_leaf_bytes, compression_ratio);
  std::printf("page decode   : v2 %.1f ns/entry, v3 %.1f ns/entry (%.2fx)\n",
              decode_ns_v2, decode_ns_v3, decode_speed_ratio);
  std::printf("cold reads    : v2 %" PRId64 ", v3 %" PRId64
              " (%.2fx fewer; working set %" PRId64
              " pages, budget %zu pages)\n",
              cold_reads_v2, cold_reads_v3, cold_read_reduction,
              working_set_pages, budget_pages);
  std::printf("warm k-MST    : v2 %8.1f q/s, v3 %8.1f q/s (%.2fx)\n", qps_v2,
              qps_v3, speedup);

  if (std::FILE* f = bench::OpenBenchJson(out_path)) {
    std::fprintf(f,
                 "  \"dataset\": \"%s\",\n"
                 "  \"samples_per_object\": %" PRId64 ",\n"
                 "  \"queries\": %" PRId64 ",\n"
                 "  \"k\": %" PRId64 ",\n"
                 "  \"length_fraction\": %.4f,\n"
                 "  \"repeats\": %" PRId64 ",\n"
                 "  \"decode_reps\": %" PRId64 ",\n"
                 "  \"seed\": %" PRId64 ",\n"
                 "  \"leaf_pages\": %" PRId64 ",\n"
                 "  \"v3_fallback_pages\": %" PRId64 ",\n"
                 "  \"buffer_fraction\": %.4f,\n"
                 "  \"working_set_pages\": %" PRId64 ",\n"
                 "  \"buffer_budget_pages\": %zu,\n"
                 "  \"v2_leaf_bytes\": %.0f,\n"
                 "  \"v3_leaf_bytes\": %.0f,\n"
                 "  \"compression_ratio\": %.4f,\n"
                 "  \"decode_ns_entry_v2\": %.2f,\n"
                 "  \"decode_ns_entry_v3\": %.2f,\n"
                 "  \"decode_speed_ratio\": %.4f,\n"
                 "  \"cold_reads_v2\": %" PRId64 ",\n"
                 "  \"cold_reads_v3\": %" PRId64 ",\n"
                 "  \"cold_read_reduction\": %.4f,\n"
                 "  \"qps_v2\": %.2f,\n"
                 "  \"qps_v3\": %.2f,\n"
                 "  \"warm_speedup\": %.4f\n"
                 "}\n",
                 bench::SDatasetName(static_cast<int>(objects)).c_str(),
                 samples, queries, k, length, repeats, decode_reps, seed,
                 v3_census.leaf_pages, v3_census.fallback_pages,
                 buffer_fraction, working_set_pages, budget_pages,
                 v2_leaf_bytes, v3_leaf_bytes, compression_ratio, decode_ns_v2,
                 decode_ns_v3, decode_speed_ratio, cold_reads_v2,
                 cold_reads_v3, cold_read_reduction, qps_v2, qps_v3, speedup);
    std::fclose(f);
    std::fprintf(stderr, "[v3_compression] wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "[v3_compression] cannot write %s\n",
                 out_path.c_str());
    return 3;
  }
  return 0;
}

}  // namespace
}  // namespace mst

int main(int argc, char** argv) { return mst::Main(argc, argv); }

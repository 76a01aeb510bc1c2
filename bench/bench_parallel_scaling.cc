// Parallel query throughput: one shared index + sharded buffer, a fixed
// query batch, and the QueryExecutor at 1/2/4/8 workers. Reports
// queries/sec and speedup over the single-worker run, plus a correctness
// cross-check (the parallel results must equal the serial loop's).
//
// Note: measured speedup is bounded by the machine's core count — on a
// single-core host every configuration collapses to ~1×, which is itself a
// useful sanity signal (no parallel slowdown from lock contention).

#include <cinttypes>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/exec/query_executor.h"
#include "src/util/flags.h"
#include "src/util/table.h"

namespace mst {
namespace {

int Main(int argc, char** argv) {
  int64_t queries = 96;
  int64_t objects = 500;
  int64_t k = 4;
  int64_t seed = static_cast<int64_t>(bench::kDefaultBenchSeed);
  bool help = false;
  std::string out_path = "BENCH_parallel_scaling.json";
  FlagParser flags;
  flags.AddInt("queries", &queries, "batch size per worker configuration");
  flags.AddInt("objects", &objects, "dataset cardinality");
  flags.AddInt("k", &k, "results per query");
  flags.AddInt("seed", &seed, "workload RNG seed");
  flags.AddBool("help", &help, "print usage");
  flags.AddString("out", &out_path, "JSON output path");
  if (!flags.Parse(argc, argv)) return 1;
  if (help) {
    flags.PrintUsage("bench_parallel_scaling");
    return 0;
  }

  std::fprintf(stderr, "[scaling] building dataset...\n");
  TrajectoryStore store = bench::MakeSDataset(static_cast<int>(objects), 200);
  RTree3D index;
  index.BulkLoad(store);

  // Fixed workload: the same requests for every worker count.
  Rng rng(static_cast<uint64_t>(seed));
  std::vector<QueryRequest> requests;
  requests.reserve(static_cast<size_t>(queries));
  for (int64_t i = 0; i < queries; ++i) {
    Trajectory query = bench::MakeQuery(store, &rng, 0.25);
    const TimeInterval period = query.Lifespan();
    MstOptions options;
    options.k = static_cast<int>(k);
    requests.emplace_back(std::move(query), period, options);
  }

  // Serial reference for throughput baseline and the correctness check.
  const BFMstSearch searcher(&index, &store);
  std::vector<std::vector<MstResult>> serial;
  serial.reserve(requests.size());
  // Warm the buffer so every configuration sees the same cache state.
  for (const QueryRequest& request : requests) {
    serial.push_back(
        searcher.Search(request.query, request.period, request.options));
  }
  WallTimer serial_timer;
  for (const QueryRequest& request : requests) {
    searcher.Search(request.query, request.period, request.options);
  }
  const double serial_ms = serial_timer.ElapsedMs();
  const double serial_qps =
      1000.0 * static_cast<double>(queries) / serial_ms;

  std::printf("== Parallel k-MST scaling (S%04d, %lld queries, k=%lld) ==\n",
              static_cast<int>(objects), static_cast<long long>(queries),
              static_cast<long long>(k));
  std::printf("serial loop: %.1f ms (%.1f q/s); hardware threads: %u\n",
              serial_ms, serial_qps, std::thread::hardware_concurrency());

  TextTable table;
  table.SetHeader({"Workers", "BatchMs", "Queries/s", "SpeedupVs1",
                   "Matches"});
  double one_worker_qps = 0.0;
  std::vector<double> qps_by_workers;
  bool all_match = true;
  const std::vector<int> worker_counts = {1, 2, 4, 8};
  for (const int workers : worker_counts) {
    QueryExecutor::Options opt;
    opt.num_workers = workers;
    // The result cache would turn the measured (warm) batch into pure cache
    // hits — bench_result_cache's subject, not this one's. Keep the workers
    // doing the full traversal + refinement.
    opt.result_cache_entries = 0;
    QueryExecutor executor(&index, &store, opt);
    executor.RunBatch(requests);  // warm-up: touches every query's pages
    WallTimer timer;
    const std::vector<QueryOutcome> outcomes = executor.RunBatch(requests);
    const double batch_ms = timer.ElapsedMs();
    executor.Shutdown();

    bool matches = outcomes.size() == serial.size();
    for (size_t i = 0; matches && i < outcomes.size(); ++i) {
      matches = outcomes[i].results.size() == serial[i].size();
      for (size_t r = 0; matches && r < serial[i].size(); ++r) {
        matches = outcomes[i].results[r].id == serial[i][r].id &&
                  outcomes[i].results[r].dissim == serial[i][r].dissim;
      }
    }

    const double qps = 1000.0 * static_cast<double>(queries) / batch_ms;
    if (workers == 1) one_worker_qps = qps;
    qps_by_workers.push_back(qps);
    all_match = all_match && matches;
    table.AddRow({TextTable::FmtInt(workers), TextTable::Fmt(batch_ms, 1),
                  TextTable::Fmt(qps, 1),
                  TextTable::Fmt(qps / one_worker_qps, 2),
                  matches ? "yes" : "NO"});
  }
  table.Print();
  std::printf(
      "expected: near-linear speedup up to the core count; identical\n"
      "results at every worker count (the executor is deterministic).\n");

  if (std::FILE* f = bench::OpenBenchJson(out_path)) {
    std::fprintf(f,
                 "  \"dataset\": \"%s\",\n"
                 "  \"queries\": %" PRId64 ",\n"
                 "  \"k\": %" PRId64 ",\n"
                 "  \"seed\": %" PRId64 ",\n"
                 "  \"hardware_threads\": %u,\n"
                 "  \"qps_serial\": %.2f,\n",
                 bench::SDatasetName(static_cast<int>(objects)).c_str(),
                 queries, k, seed, std::thread::hardware_concurrency(),
                 serial_qps);
    for (size_t i = 0; i < worker_counts.size(); ++i) {
      std::fprintf(f, "  \"qps_workers_%d\": %.2f,\n", worker_counts[i],
                   qps_by_workers[i]);
    }
    std::fprintf(f, "  \"results_match_serial\": %s\n}\n",
                 all_match ? "true" : "false");
    std::fclose(f);
    std::fprintf(stderr, "[scaling] wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "[scaling] cannot write %s\n", out_path.c_str());
    return 3;
  }
  if (!all_match) {
    std::fprintf(stderr,
                 "[scaling] FAIL: parallel results diverged from serial\n");
    return 2;
  }
  return 0;
}

}  // namespace
}  // namespace mst

int main(int argc, char** argv) { return mst::Main(argc, argv); }

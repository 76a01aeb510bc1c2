// Ablation A4: buffer-size sensitivity. The paper fixes the LRU buffer at
// 10 % of the index (max 1000 pages); this bench sweeps the buffer size and
// reports buffer misses (simulated physical I/O) per query, showing how
// much the experimental setting matters.

#include <cstdio>

#include "bench/bench_common.h"
#include "src/util/flags.h"
#include "src/util/table.h"

namespace mst {
namespace {

int Main(int argc, char** argv) {
  int64_t queries = 40;
  int64_t objects = 250;
  int64_t seed = 777;
  bool help = false;
  FlagParser flags;
  flags.AddInt("queries", &queries, "queries per buffer size");
  flags.AddInt("objects", &objects, "dataset cardinality");
  flags.AddInt("seed", &seed, "workload seed of the measured query stream");
  flags.AddBool("help", &help, "print usage");
  if (!flags.Parse(argc, argv)) return 1;
  if (help) {
    flags.PrintUsage("bench_ablation_buffer");
    return 0;
  }

  std::fprintf(stderr, "[a4] building dataset...\n");
  TrajectoryStore store =
      bench::MakeSDataset(static_cast<int>(objects));
  TBTree index;
  index.BuildFrom(store);
  const BFMstSearch searcher(&index, &store);
  const int64_t total_pages = index.NodeCount();

  std::printf("== Ablation A4: LRU buffer size vs physical I/O ==\n");
  std::printf("(dataset %s: %lld pages; query = 25%% slice, k = 1, %lld "
              "queries)\n",
              bench::SDatasetName(static_cast<int>(objects)).c_str(),
              static_cast<long long>(total_pages),
              static_cast<long long>(queries));
  TextTable table;
  table.SetHeader({"BufferPages", "%OfIndex", "Misses/query",
                   "LogicalReads/query"});
  for (const int64_t pages : {8L, 32L, 128L, 512L, 1000L, 4096L}) {
    index.buffer().Clear();
    index.buffer().SetCapacity(static_cast<size_t>(pages));
    // Warm-up pass so steady-state behaviour is measured, then reset.
    Rng warm_rng(4242);
    for (int i = 0; i < 3; ++i) {
      const Trajectory q = bench::MakeQuery(store, &warm_rng, 0.25);
      searcher.Search(q, q.Lifespan(), MstOptions());
    }
    index.buffer().ResetCounters();
    Rng rng(static_cast<uint64_t>(seed));
    for (int i = 0; i < queries; ++i) {
      const Trajectory q = bench::MakeQuery(store, &rng, 0.25);
      searcher.Search(q, q.Lifespan(), MstOptions());
    }
    table.AddRow({TextTable::FmtInt(pages),
                  TextTable::FmtPct(static_cast<double>(pages) /
                                        static_cast<double>(total_pages),
                                    1),
                  TextTable::Fmt(static_cast<double>(index.buffer().misses()) /
                                     static_cast<double>(queries),
                                 1),
                  TextTable::Fmt(
                      static_cast<double>(index.buffer().logical_reads()) /
                          static_cast<double>(queries),
                      1)});
  }
  table.Print();
  std::printf(
      "expected: misses fall steeply until the buffer holds the hot upper\n"
      "levels, then flatten — the paper's 10%%/1000-page setting sits on "
      "the flat part.\n");
  return 0;
}

}  // namespace
}  // namespace mst

int main(int argc, char** argv) { return mst::Main(argc, argv); }

// mst_cli — command-line driver for the mstsearch library.
//
// Subcommands:
//   generate  synthesize a dataset (GSTD-style or fleet-style) to CSV
//   index     build a trajectory index over a CSV dataset and save it
//   info      print metadata of a saved index
//   mst       k-most-similar-trajectory query (query = slice of a stored
//             trajectory, excluded from its own results)
//   knn       k nearest trajectories to a point during a period
//   range     spatiotemporal window query
//
// Example session:
//   mst_cli generate --kind=trucks --out=/tmp/fleet.csv
//   mst_cli index --data=/tmp/fleet.csv --kind=tbtree --out=/tmp/fleet.idx
//   mst_cli mst --data=/tmp/fleet.csv --index=/tmp/fleet.idx
//           --query-id=17 --begin=0 --end=14400 --k=5   (one line)

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "src/mstsearch.h"
#include "src/util/flags.h"
#include "src/util/table.h"
#include "src/util/timer.h"

namespace mst {
namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "mst_cli: %s\n", message.c_str());
  return 1;
}

std::optional<TrajectoryStore> LoadData(const std::string& path) {
  std::string error;
  auto store = LoadTrajectoriesCsv(path, &error);
  if (!store.has_value()) {
    // Fall back to the rtreeportal Trucks format.
    std::string error2;
    store = LoadTrucksPortalCsv(path, &error2);
    if (!store.has_value()) {
      std::fprintf(stderr, "mst_cli: %s (and as Trucks format: %s)\n",
                   error.c_str(), error2.c_str());
    }
  }
  return store;
}

int CmdGenerate(int argc, char** argv) {
  std::string kind = "gstd";
  std::string out;
  int64_t objects = 100;
  int64_t samples = 500;
  int64_t seed = 42;
  FlagParser flags;
  flags.AddString("kind", &kind, "gstd | trucks");
  flags.AddString("out", &out, "output CSV path (required)");
  flags.AddInt("objects", &objects, "number of moving objects");
  flags.AddInt("samples", &samples, "samples per object (gstd only)");
  flags.AddInt("seed", &seed, "generator seed");
  if (!flags.Parse(argc, argv)) return 1;
  if (out.empty()) {
    flags.PrintUsage("mst_cli generate");
    return Fail("--out is required");
  }
  TrajectoryStore store;
  if (kind == "gstd") {
    GstdOptions opt;
    opt.num_objects = static_cast<int>(objects);
    opt.samples_per_object = static_cast<int>(samples);
    opt.timestamp_jitter = 0.4;
    opt.seed = static_cast<uint64_t>(seed);
    store = GenerateGstd(opt);
  } else if (kind == "trucks") {
    TrucksOptions opt;
    opt.num_trucks = static_cast<int>(objects == 100 ? 273 : objects);
    opt.seed = static_cast<uint64_t>(seed);
    store = GenerateTrucks(opt);
  } else {
    return Fail("unknown --kind (use gstd or trucks)");
  }
  if (!SaveTrajectoriesCsv(store, out)) {
    return Fail("cannot write " + out);
  }
  std::printf("wrote %zu trajectories (%lld segments) to %s\n", store.size(),
              static_cast<long long>(store.TotalSegments()), out.c_str());
  return 0;
}

int CmdIndex(int argc, char** argv) {
  std::string data;
  std::string kind = "tbtree";
  std::string rtree_variant = "quadratic";
  std::string out;
  FlagParser flags;
  flags.AddString("data", &data, "input CSV dataset (required)");
  flags.AddString("kind", &kind, "rtree | rtree-bulk | tbtree | strtree");
  flags.AddString("rtree_variant", &rtree_variant,
                  "--kind=rtree insertion policy: quadratic (Guttman) | "
                  "rstar (R*: overlap ChooseSubtree, margin splits, forced "
                  "reinsertion)");
  flags.AddString("out", &out, "output index path (required)");
  if (!flags.Parse(argc, argv)) return 1;
  if (data.empty() || out.empty()) {
    flags.PrintUsage("mst_cli index");
    return Fail("--data and --out are required");
  }
  const auto store = LoadData(data);
  if (!store.has_value()) return 1;

  TrajectoryIndex::Options options;
  if (rtree_variant == "quadratic") {
    options.rtree_variant = RTreeVariant::kQuadratic;
  } else if (rtree_variant == "rstar") {
    options.rtree_variant = RTreeVariant::kRStar;
  } else {
    return Fail("unknown --rtree_variant (use quadratic or rstar)");
  }
  std::unique_ptr<TrajectoryIndex> index;
  bool bulk = false;
  if (kind == "rtree" || kind == "rtree-bulk") {
    index = std::make_unique<RTree3D>(options);
    bulk = kind == "rtree-bulk";
  } else if (kind == "tbtree") {
    index = std::make_unique<TBTree>(options);
  } else if (kind == "strtree") {
    index = std::make_unique<STRTree>(options);
  } else {
    return Fail("unknown --kind (use rtree, rtree-bulk, tbtree or strtree)");
  }
  WallTimer timer;
  if (bulk) {
    static_cast<RTree3D*>(index.get())->BulkLoad(*store);
  } else {
    index->BuildFrom(*store);
  }
  std::printf("built %s: %lld entries, %lld pages (%.1f MB), height %d in "
              "%.1f s\n",
              index->name().c_str(),
              static_cast<long long>(index->EntryCount()),
              static_cast<long long>(index->NodeCount()),
              index->SizeBytes() / 1048576.0, index->height(),
              timer.ElapsedSeconds());
  if (!SaveIndex(*index, out)) return Fail("cannot write " + out);
  std::printf("saved to %s\n", out.c_str());
  return 0;
}

int CmdInfo(int argc, char** argv) {
  std::string path;
  FlagParser flags;
  flags.AddString("index", &path, "index file (required)");
  if (!flags.Parse(argc, argv)) return 1;
  if (path.empty()) {
    flags.PrintUsage("mst_cli info");
    return Fail("--index is required");
  }
  std::string error;
  const auto index = LoadIndex(path, &error);
  if (index == nullptr) return Fail(error);
  std::printf("index   : %s\n", index->name().c_str());
  std::printf("entries : %lld\n", static_cast<long long>(index->EntryCount()));
  std::printf("pages   : %lld (%.1f MB)\n",
              static_cast<long long>(index->NodeCount()),
              index->SizeBytes() / 1048576.0);
  std::printf("height  : %d\n", index->height());
  std::printf("v_max   : %.6g\n", index->max_speed());
  return 0;
}

// Shared flags for the query subcommands.
struct QueryContext {
  std::optional<TrajectoryStore> store;
  std::unique_ptr<TrajectoryIndex> index;
};

bool LoadContext(const std::string& data, const std::string& index_path,
                 QueryContext* ctx) {
  ctx->store = LoadData(data);
  if (!ctx->store.has_value()) return false;
  std::string error;
  ctx->index = LoadIndex(index_path, &error);
  if (ctx->index == nullptr) {
    Fail(error);
    return false;
  }
  ctx->index->ConfigurePaperBuffer();
  return true;
}

int CmdMst(int argc, char** argv) {
  std::string data;
  std::string index_path;
  int64_t query_id = 0;
  double begin = 0.0;
  double end = 0.0;
  int64_t k = 1;
  bool eager = false;
  FlagParser flags;
  flags.AddString("data", &data, "CSV dataset (required)");
  flags.AddString("index", &index_path, "index file (required)");
  flags.AddInt("query-id", &query_id,
               "stored trajectory whose slice is the query");
  flags.AddDouble("begin", &begin, "query period begin");
  flags.AddDouble("end", &end, "query period end (0 = full lifespan)");
  flags.AddInt("k", &k, "number of results");
  flags.AddBool("eager", &eager, "use eager completion (TB-tree only)");
  if (!flags.Parse(argc, argv)) return 1;
  if (data.empty() || index_path.empty()) {
    flags.PrintUsage("mst_cli mst");
    return Fail("--data and --index are required");
  }
  QueryContext ctx;
  if (!LoadContext(data, index_path, &ctx)) return 1;
  const Trajectory* base = ctx.store->Find(query_id);
  if (base == nullptr) return Fail("unknown --query-id");
  if (end <= begin) {
    begin = base->start_time();
    end = base->end_time();
  }
  const auto slice = base->Slice({begin, end});
  if (!slice.has_value()) return Fail("period outside the query lifespan");
  const Trajectory query(query_id, slice->samples());

  MstOptions options;
  options.k = static_cast<int>(k);
  options.exclude_id = query_id;
  options.use_eager_completion = eager;
  const BFMstSearch searcher(ctx.index.get(), &*ctx.store);
  MstStats stats;
  WallTimer timer;
  const auto results =
      searcher.Search(query, query.Lifespan(), options, &stats);
  const double ms = timer.ElapsedMs();

  TextTable table;
  table.SetHeader({"rank", "trajectory", "DISSIM", "avg distance"});
  const double dur = query.Lifespan().Duration();
  for (size_t i = 0; i < results.size(); ++i) {
    table.AddRow({TextTable::FmtInt(static_cast<long long>(i + 1)),
                  TextTable::FmtInt(results[i].id),
                  TextTable::Fmt(results[i].dissim, 6),
                  TextTable::Fmt(results[i].dissim / dur, 6)});
  }
  table.Print();
  std::printf("%.2f ms; %lld/%lld nodes read (%.1f%% pruned)\n", ms,
              static_cast<long long>(stats.nodes_accessed),
              static_cast<long long>(stats.total_nodes),
              100.0 * stats.PruningPower());
  std::printf("%lld heap pushes, %lld exact MINDIST evaluations, "
              "%lld leaf entries seen\n",
              static_cast<long long>(stats.heap_pushes),
              static_cast<long long>(stats.mindist_evaluations),
              static_cast<long long>(stats.leaf_entries_seen));
  const BufferManager& buffer = ctx.index->buffer();
  std::printf("buffer: %zu nodes resident, %.1f KB, %lld hits / %lld misses\n",
              buffer.resident_frames(), buffer.resident_bytes() / 1024.0,
              static_cast<long long>(buffer.logical_reads() - buffer.misses()),
              static_cast<long long>(buffer.misses()));
  return 0;
}

int CmdCnn(int argc, char** argv) {
  std::string data;
  std::string index_path;
  int64_t query_id = 0;
  double begin = 0.0;
  double end = 0.0;
  FlagParser flags;
  flags.AddString("data", &data, "CSV dataset (required)");
  flags.AddString("index", &index_path, "index file (required)");
  flags.AddInt("query-id", &query_id,
               "stored trajectory whose slice is the query");
  flags.AddDouble("begin", &begin, "period begin");
  flags.AddDouble("end", &end, "period end (0 = full lifespan)");
  if (!flags.Parse(argc, argv)) return 1;
  if (data.empty() || index_path.empty()) {
    flags.PrintUsage("mst_cli cnn");
    return Fail("--data and --index are required");
  }
  QueryContext ctx;
  if (!LoadContext(data, index_path, &ctx)) return 1;
  const Trajectory* base = ctx.store->Find(query_id);
  if (base == nullptr) return Fail("unknown --query-id");
  if (end <= begin) {
    begin = base->start_time();
    end = base->end_time();
  }
  const auto slice = base->Slice({begin, end});
  if (!slice.has_value()) return Fail("period outside the query lifespan");
  // Use a fresh id so the query does not trivially match itself.
  const Trajectory query(query_id + (1 << 29), slice->samples());

  const auto pieces = ContinuousNearestNeighbor(*ctx.index, *ctx.store,
                                                query, {begin, end});
  TextTable table;
  table.SetHeader({"from", "to", "nearest", "d(begin)", "d(end)"});
  for (const CnnPiece& p : pieces) {
    table.AddRow({TextTable::Fmt(p.interval.begin, 4),
                  TextTable::Fmt(p.interval.end, 4),
                  TextTable::FmtInt(p.id), TextTable::Fmt(p.dist_begin, 5),
                  TextTable::Fmt(p.dist_end, 5)});
  }
  table.Print();
  return 0;
}

int CmdKnn(int argc, char** argv) {
  std::string data;
  std::string index_path;
  double x = 0.0;
  double y = 0.0;
  double begin = 0.0;
  double end = 0.0;
  int64_t k = 3;
  FlagParser flags;
  flags.AddString("data", &data, "CSV dataset (required)");
  flags.AddString("index", &index_path, "index file (required)");
  flags.AddDouble("x", &x, "query point x");
  flags.AddDouble("y", &y, "query point y");
  flags.AddDouble("begin", &begin, "period begin");
  flags.AddDouble("end", &end, "period end");
  flags.AddInt("k", &k, "number of results");
  if (!flags.Parse(argc, argv)) return 1;
  if (data.empty() || index_path.empty() || end <= begin) {
    flags.PrintUsage("mst_cli knn");
    return Fail("--data, --index and a valid --begin/--end are required");
  }
  QueryContext ctx;
  if (!LoadContext(data, index_path, &ctx)) return 1;
  const auto results = PointKnn(*ctx.index, {x, y}, {begin, end},
                                static_cast<int>(k));
  TextTable table;
  table.SetHeader({"rank", "trajectory", "min distance"});
  for (size_t i = 0; i < results.size(); ++i) {
    table.AddRow({TextTable::FmtInt(static_cast<long long>(i + 1)),
                  TextTable::FmtInt(results[i].id),
                  TextTable::Fmt(results[i].distance, 6)});
  }
  table.Print();
  return 0;
}

int CmdRange(int argc, char** argv) {
  std::string data;
  std::string index_path;
  Mbb3 window;
  FlagParser flags;
  flags.AddString("data", &data, "CSV dataset (required)");
  flags.AddString("index", &index_path, "index file (required)");
  flags.AddDouble("xlo", &window.xlo, "window x low");
  flags.AddDouble("xhi", &window.xhi, "window x high");
  flags.AddDouble("ylo", &window.ylo, "window y low");
  flags.AddDouble("yhi", &window.yhi, "window y high");
  flags.AddDouble("tlo", &window.tlo, "window t low");
  flags.AddDouble("thi", &window.thi, "window t high");
  if (!flags.Parse(argc, argv)) return 1;
  if (data.empty() || index_path.empty() || window.IsEmpty()) {
    flags.PrintUsage("mst_cli range");
    return Fail("--data, --index and a non-empty window are required");
  }
  QueryContext ctx;
  if (!LoadContext(data, index_path, &ctx)) return 1;
  const auto est = SelectivityEstimator::Build(*ctx.store);
  std::printf("estimated segments : %.0f\n", est.EstimateRangeCount(window));
  const auto segments = RangeSegments(*ctx.index, window);
  const auto ids = RangeTrajectories(*ctx.index, window);
  std::printf("actual segments    : %zu\n", segments.size());
  std::printf("distinct objects   : %zu\n", ids.size());
  return 0;
}

int Usage() {
  std::printf(
      "usage: mst_cli <command> [flags]\n"
      "commands:\n"
      "  generate   synthesize a dataset to CSV (--kind=gstd|trucks)\n"
      "  index      build & save an index (--kind=rtree|tbtree|strtree)\n"
      "  info       describe a saved index\n"
      "  mst        k-most-similar-trajectory query\n"
      "  knn        k nearest trajectories to a point\n"
      "  cnn        continuous nearest neighbour (piecewise in time)\n"
      "  range      spatiotemporal window query\n"
      "run `mst_cli <command>` without flags for per-command usage.\n");
  return 1;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  // Shift argv so each handler sees its own flags.
  argv[1] = argv[0];
  if (cmd == "generate") return CmdGenerate(argc - 1, argv + 1);
  if (cmd == "index") return CmdIndex(argc - 1, argv + 1);
  if (cmd == "info") return CmdInfo(argc - 1, argv + 1);
  if (cmd == "mst") return CmdMst(argc - 1, argv + 1);
  if (cmd == "cnn") return CmdCnn(argc - 1, argv + 1);
  if (cmd == "knn") return CmdKnn(argc - 1, argv + 1);
  if (cmd == "range") return CmdRange(argc - 1, argv + 1);
  return Usage();
}

}  // namespace
}  // namespace mst

int main(int argc, char** argv) { return mst::Main(argc, argv); }

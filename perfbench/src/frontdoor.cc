// frontdoor: S1000 x 200 samples and a query stream of sessions replayed
// for 10 rounds, served by ShardFrontEnd over ShardedIndex's default 4
// id-hash shards (default options throughout). One driver thread keeps 4
// requests outstanding in a closed loop.

#include <deque>
#include <future>
#include <memory>

#include "src/core/mst_search.h"
#include "src/index/tbtree.h"
#include "src/shard/shard_frontend.h"
#include "src/shard/sharded_index.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr size_t kOutstanding = 4;

struct Stack {
  mst::TrajectoryStore store;
  std::unique_ptr<mst::ShardedIndex> sharded;
  std::unique_ptr<mst::ShardFrontEnd> front;  // destroyed first
};

struct InFlight {
  size_t query = 0;
  bool traced = false;
  int64_t submit_start = 0;
  int64_t submit_end = 0;
  std::future<mst::QueryOutcome> outcome;
};

}  // namespace

void RunFrontdoor(const Config& config, Tracer* tracer, Report* report) {
  const QueryInputs& in = kFrontdoorInputs;
  const std::unique_ptr<Stack> stack = TimedSetUps<Stack>(
      in.setup_reps, "shard.build", tracer, report,
      [&](Stack* s) {
        s->store = MakeSDataset(in.kObjects, in.samples,
                                StreamSeed(config.seed, kDatasetStream));
      },
      [&](Stack* s) {
        s->sharded =
            std::make_unique<mst::ShardedIndex>(mst::ShardedIndex::Options());
        s->sharded->BuildFrom(s->store);
        s->sharded->ConfigurePaperBuffer();
        s->front = std::make_unique<mst::ShardFrontEnd>(s->sharded.get());
        return true;
      });
  const mst::ShardedIndex& sharded = *stack->sharded;
  mst::ShardFrontEnd& front = *stack->front;
  mst::MstOptions options;
  options.k = in.kK;
  const auto submit = [&](const mst::Trajectory& q) {
    return front.Submit(mst::QueryRequest(q, q.Lifespan(), options));
  };

  // Warm-up: the shards' caches fill before timing.
  int64_t refused = 0;
  WarmUp(stack->store, config.seed, [&](const mst::Trajectory& q) {
    const mst::QueryOutcome outcome = submit(q).get();
    if (outcome.rejected || outcome.cancelled) ++refused;
  });

  // Counters summed over the shards.
  const auto sum_shards = [&](auto per_shard) {
    int64_t total = 0;
    for (int s = 0; s < sharded.num_shards(); ++s) total += per_shard(s);
    return total;
  };
  const auto buffer_reads = [&] {
    return sum_shards(
        [&](int s) { return sharded.shard(s).index->buffer().logical_reads(); });
  };
  const auto buffer_misses = [&] {
    return sum_shards(
        [&](int s) { return sharded.shard(s).index->buffer().misses(); });
  };
  const auto exec_hits = [&] {
    return sum_shards(
        [&](int s) { return front.shard_executor(s).result_cache().hits(); });
  };
  const auto exec_misses = [&] {
    return sum_shards(
        [&](int s) { return front.shard_executor(s).result_cache().misses(); });
  };
  const int64_t reads0 = buffer_reads();
  const int64_t misses0 = buffer_misses();
  const int64_t hits0 = exec_hits();
  const int64_t exec_misses0 = exec_misses();

  // Measured window: 4 outstanding, closed loop. The gather worker resolves
  // queries in submission order, so waiting on the oldest first observes
  // each completion without delay. A query's first answer is its reference
  // (first asks complete in index order), which every repeat must equal.
  QuerySequence sequence(&stack->store, in.session_rounds, config.seed);
  std::vector<std::vector<mst::MstResult>> reference;
  std::deque<InFlight> inflight;
  std::vector<double> latency_ms;
  std::vector<double> traced_ms;
  CoreTotals totals;
  int64_t mismatches = 0;
  int64_t submitted = 0;
  const double cpu0 = ProcessCpuSeconds();
  const int64_t start = NowNs();
  while (true) {
    const bool stop = WindowOver(
        config, start, tracer->enabled() ? submitted / 2 : submitted);
    while (!stop && inflight.size() < kOutstanding) {
      InFlight f;
      f.query = sequence.Next();
      f.traced = tracer->enabled() && submitted % 2 == 0;
      f.submit_start = NowNs();
      f.outcome = submit(sequence.queries()[f.query]);
      f.submit_end = NowNs();
      inflight.push_back(std::move(f));
      ++submitted;
    }
    if (inflight.empty()) break;
    InFlight f = std::move(inflight.front());
    inflight.pop_front();
    const mst::QueryOutcome outcome = f.outcome.get();
    const int64_t done = NowNs();
    if (f.traced) {
      const uint64_t req = tracer->NewRequest();
      const int root =
          tracer->Add(req, "harness.query", -1, f.submit_start, done);
      tracer->Add(req, "shard.submit", root, f.submit_start, f.submit_end);
      tracer->Add(req, "shard.wait", root, f.submit_end, done);
    }
    (f.traced ? traced_ms : latency_ms)
        .push_back(MsBetween(f.submit_start, done));
    totals.Add(outcome.stats);
    const bool refusal = outcome.rejected || outcome.cancelled;
    if (refusal) ++refused;
    if (f.query == reference.size()) {
      reference.push_back(outcome.results);
    } else if (!refusal && !SameAnswer(outcome.results, reference[f.query])) {
      ++mismatches;
    }
  }
  const double window_s = SecondsSince(start);
  report->Metric("peak_rss_mib", PeakRssMib(), "MiB");
  const double cpu_s = ProcessCpuSeconds() - cpu0;
  const int64_t exec_hit = exec_hits() - hits0;
  const int64_t exec_lookups = exec_hit + exec_misses() - exec_misses0;
  IndexWindow window;
  window.nodes = sharded.NodeCount();
  window.bytes = sharded.SizeBytes();
  window.segments = sharded.EntryCount();
  window.buffer_reads = buffer_reads() - reads0;
  window.buffer_misses = buffer_misses() - misses0;
  window.queries = totals.queries;
  for (int s = 0; s < sharded.num_shards(); ++s) {
    window.node_cache_bytes +=
        sharded.shard(s).index->node_cache().resident_bytes();
  }
  Progress("measured window done: " + std::to_string(totals.queries) +
           " queries");

  // Correctness: no refusals, repeats equal the first answer, and every
  // distinct answer matches LinearScan and, bitwise, the unsharded TB-tree.
  if (refused > 0) {
    report->Fail(std::to_string(refused) + " requests rejected or cancelled");
  }
  if (mismatches > 0) {
    report->Fail(std::to_string(mismatches) +
                 " repeated answers differ from the query's first answer");
  }
  const std::deque<mst::Trajectory>& queries = sequence.queries();
  std::vector<OracleJob> jobs;
  for (size_t i = 0; i < reference.size(); ++i) {
    jobs.push_back({&queries[i], queries[i].Lifespan(), in.kK, &reference[i]});
  }
  const int64_t wrong = CheckWithOracle(stack->store, jobs);
  if (wrong > 0) {
    report->Fail(std::to_string(wrong) + " answers differ from LinearScan");
  }
  int64_t unsharded_diff = 0;
  {
    mst::TBTree unsharded;
    unsharded.BuildFrom(stack->store);
    unsharded.ConfigurePaperBuffer();
    const mst::BFMstSearch searcher(&unsharded, &stack->store);
    for (size_t i = 0; i < reference.size(); ++i) {
      if (!SameAnswer(searcher.Search(queries[i], queries[i].Lifespan(),
                                      options),
                      reference[i])) {
        ++unsharded_diff;
      }
    }
  }
  if (unsharded_diff > 0) {
    report->Fail(std::to_string(unsharded_diff) +
                 " answers differ from the unsharded index");
  }
  report->Attempt(totals.queries,
                  refused + mismatches + wrong + unsharded_diff);
  Progress("oracle check done: " + std::to_string(jobs.size()) + " answers");

  ReportQueries(latency_ms, traced_ms, window_s, *tracer, report);
  totals.ReportCore(report);
  const auto n = static_cast<double>(totals.queries);
  report->Metric("exec.result_cache_hit_rate",
                 exec_lookups > 0 ? static_cast<double>(exec_hit) /
                                        static_cast<double>(exec_lookups)
                                  : 0.0,
                 "ratio", exec_lookups);
  report->Metric("shard.nodes_per_query",
                 static_cast<double>(totals.nodes) / n, "count",
                 totals.queries);
  report->Metric("shard.cpu_ms_per_query", cpu_s * 1e3 / n, "ms",
                 totals.queries);
  report->Metric("shard.cores_busy", cpu_s / window_s, "cores");
  ReportIndex(*sharded.shard(0).index, window, report);
  report->Env("objects", in.kObjects);
  report->Env("samples_per_object", in.samples);
  report->Env("k", in.kK);
  report->Env("query_length", in.kLength);
  report->Env("session_queries", in.kSessionQueries);
  report->Env("session_rounds", in.session_rounds);
  report->Env("shards", sharded.num_shards());
  report->Env("outstanding", static_cast<double>(kOutstanding));
}

}  // namespace perfbench

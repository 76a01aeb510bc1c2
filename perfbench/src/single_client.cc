// cold: one closed-loop client calling BFMstSearch::Search on the canonical
// default stack (TB-tree, default TrajectoryIndex::Options,
// ConfigurePaperBuffer, a default-sized ResultCache, default MstOptions
// apart from k).

#include <cinttypes>
#include <memory>

#include "src/core/mst_search.h"
#include "src/core/result_cache.h"
#include "src/exec/query_executor.h"
#include "src/index/tbtree.h"
#include "workloads.h"

namespace perfbench {

QuerySequence::QuerySequence(const mst::TrajectoryStore* store,
                             int session_rounds, uint64_t seed)
    : store_(store),
      session_rounds_(session_rounds),
      rng_(StreamSeed(seed, kSequenceStream)) {}

size_t QuerySequence::Next() {
  if (position_ == QueryInputs::kSessionQueries) {
    position_ = 0;
    if (++round_ == session_rounds_) {
      round_ = 0;
      session_start_ = queries_.size();
    }
  }
  const size_t qi = session_start_ + static_cast<size_t>(position_++);
  if (qi == queries_.size()) {
    queries_.push_back(MakeQuery(*store_, &rng_, QueryInputs::kLength));
  }
  return qi;
}

namespace {

struct Stack {
  mst::TrajectoryStore store;
  std::unique_ptr<mst::TBTree> index;
  std::unique_ptr<mst::ResultCache> cache;
};

/// Queries a determinism probe replays from cold caches.
constexpr int kProbeQueries = 64;

}  // namespace

void RunCold(const Config& config, Tracer* tracer, Report* report) {
  const QueryInputs& in = kColdInputs;
  const std::unique_ptr<Stack> stack = TimedSetUps<Stack>(
      in.setup_reps, "index.build", tracer, report,
      [&](Stack* s) {
        s->store = MakeSDataset(in.kObjects, in.samples,
                                StreamSeed(config.seed, kDatasetStream));
      },
      [&](Stack* s) {
        s->index = std::make_unique<mst::TBTree>();
        s->index->BuildFrom(s->store);
        s->index->ConfigurePaperBuffer();
        s->cache = std::make_unique<mst::ResultCache>(
            mst::QueryExecutor::Options().result_cache_entries);
        return true;
      });
  const mst::TBTree& index = *stack->index;
  const mst::BFMstSearch searcher(&index, &stack->store, stack->cache.get());
  mst::MstOptions options;
  options.k = in.kK;

  // Warm-up: the caches fill before timing.
  WarmUp(stack->store, config.seed, [&](const mst::Trajectory& q) {
    (void)searcher.Search(q, q.Lifespan(), options);
  });

  // Measured window. A query's first answer is its reference, which every
  // repeat of it must equal bitwise.
  QuerySequence sequence(&stack->store, in.session_rounds, config.seed);
  std::vector<std::vector<mst::MstResult>> reference;
  std::vector<double> latency_ms;
  std::vector<double> traced_ms;
  CoreTotals totals;
  int64_t mismatches = 0;
  const int64_t reads0 = index.buffer().logical_reads();
  const int64_t misses0 = index.buffer().misses();
  const int64_t start = NowNs();
  {
    // Ends with the window: threads started later, such as the oracle's,
    // would inherit a one-CPU affinity mask.
    CpuRotation rotation(kRotationPeriodNs);
    while (!WindowOver(config, start, std::ssize(latency_ms))) {
      rotation.Tick();
      const size_t qi = sequence.Next();
      const mst::Trajectory& q = sequence.queries()[qi];
      // In a traced run every other query is traced; the untraced ones give
      // the tracing overhead within the same run.
      const bool traced = tracer->enabled() && totals.queries % 2 == 0;
      Tracer* t = traced ? tracer : nullptr;
      const uint64_t req = traced ? tracer->NewRequest() : 0;
      mst::MstStats stats;
      std::vector<mst::MstResult> answer;
      const int64_t q0 = NowNs();
      {
        ScopedSpan root(t, req, "harness.query");
        ScopedSpan span(t, req, "core.search", root.id());
        answer = searcher.Search(q, q.Lifespan(), options, &stats);
      }
      (traced ? traced_ms : latency_ms).push_back(MsBetween(q0, NowNs()));
      totals.Add(stats);
      if (qi == reference.size()) {
        reference.push_back(std::move(answer));
      } else if (!SameAnswer(answer, reference[qi])) {
        ++mismatches;
      }
    }
  }
  const double window_s = SecondsSince(start);
  report->Metric("peak_rss_mib", PeakRssMib(), "MiB");
  IndexWindow window;
  window.nodes = index.NodeCount();
  window.bytes = index.SizeBytes();
  window.segments = index.EntryCount();
  window.buffer_reads = index.buffer().logical_reads() - reads0;
  window.buffer_misses = index.buffer().misses() - misses0;
  window.queries = totals.queries;
  window.node_cache_bytes = index.node_cache().resident_bytes();
  Progress("measured window done: " + std::to_string(totals.queries) +
           " queries");

  // Correctness: repeated answers equal the first one bitwise, and every
  // distinct query matches the LinearScan oracle.
  if (mismatches > 0) {
    report->Fail(std::to_string(mismatches) +
                 " repeated answers differ from the query's first answer");
  }
  std::vector<OracleJob> jobs;
  for (size_t i = 0; i < reference.size(); ++i) {
    const mst::Trajectory& q = sequence.queries()[i];
    jobs.push_back({&q, q.Lifespan(), in.kK, &reference[i]});
  }
  const int64_t wrong = CheckWithOracle(stack->store, jobs);
  if (wrong > 0) {
    report->Fail(std::to_string(wrong) + " answers differ from LinearScan");
  }
  report->Attempt(totals.queries, mismatches + wrong);
  Progress("oracle check done: " + std::to_string(jobs.size()) + " answers");

  // Determinism: from dropped caches, the same query sequence must give the
  // same per-query core and index counts, here twice and across runs.
  const auto probe = [&] {
    index.buffer().Clear();
    index.node_cache().Clear();
    stack->cache->Clear();
    Digest digest;
    QuerySequence replay(&stack->store, in.session_rounds, config.seed);
    for (int i = 0; i < kProbeQueries; ++i) {
      const size_t qi = replay.Next();
      const mst::Trajectory& q = replay.queries()[qi];
      const int64_t m0 = index.buffer().misses();
      mst::MstStats stats;
      for (const mst::MstResult& r :
           searcher.Search(q, q.Lifespan(), options, &stats)) {
        digest.Mix(r.id);
      }
      digest.MixStats(stats);
      digest.Mix(index.buffer().misses() - m0);
    }
    return digest.value();
  };
  const uint64_t digest = probe();
  if (probe() != digest) {
    report->Bug("per-query counts differ between two replays of one seed");
  }
  char hex[24];
  std::snprintf(hex, sizeof(hex), "%016" PRIx64, digest);
  report->Env("determinism_digest", hex);

  ReportQueries(latency_ms, traced_ms, window_s, *tracer, report);
  totals.ReportCore(report);
  ReportIndex(index, window, report);
  report->Env("objects", in.kObjects);
  report->Env("samples_per_object", in.samples);
  report->Env("k", in.kK);
  report->Env("query_length", in.kLength);
  report->Env("session_queries", in.kSessionQueries);
  report->Env("session_rounds", in.session_rounds);
}

}  // namespace perfbench

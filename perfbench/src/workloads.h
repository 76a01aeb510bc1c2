// The benchmark's workloads. Each builds its stack from generated inputs
// (timing the set-up several times), runs its measured window, checks every
// answer, and fills `report` with end-to-end and per-layer metrics.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <deque>

#include "harness.h"

namespace perfbench {

/// Input streams of a workload seed (see StreamSeed).
enum Stream : uint64_t {
  kDatasetStream = 1,
  kWarmupStream = 2,
  kSequenceStream = 3,
};

/// cold: S1000 x 1000 samples, distinct queries spread over space and time,
/// one closed-loop client on BFMstSearch with a ResultCache.
void RunCold(const Config& config, Tracer* tracer, Report* report);

/// frontdoor: S1000 x 200 samples, sessions of 10 queries each replayed for
/// 10 rounds, through ShardFrontEnd over 4 id-hash shards, 4 requests
/// outstanding.
void RunFrontdoor(const Config& config, Tracer* tracer, Report* report);

/// ingest_live: an S0200 stream appended open-loop by 2 feed threads while
/// one client queries recent windows; then quiesce and WAL recovery.
void RunIngestLive(const Config& config, Tracer* tracer, Report* report);

/// Dataset and query stream of a query workload. The stream is a run of
/// sessions: a session asks kSessionQueries fresh queries in order, and asks
/// them again for `session_rounds` rounds in all. This is the repeat
/// model of bench/bench_result_cache.cc, a query set replayed for several
/// rounds with the result cache cold for it at the start, with that bench's
/// defaults of 10 queries and 10 rounds.
struct QueryInputs {
  static constexpr int kObjects = 1000;
  static constexpr int kK = 50;
  /// Query length as a fraction of a lifespan.
  static constexpr double kLength = 0.05;
  static constexpr int kSessionQueries = 10;
  /// Fresh queries, from their own stream, run before the measured window.
  static constexpr int kWarmupQueries = 200;

  int samples = 200;
  /// 1: every query is asked once.
  int session_rounds = 1;
  int setup_reps = 9;
};

inline constexpr QueryInputs kFrontdoorInputs{.session_rounds = 10};
inline constexpr QueryInputs kColdInputs{.samples = 1000, .setup_reps = 3};

/// The measured query stream of a workload seed (see QueryInputs). Workloads
/// with the same inputs and seed ask the same queries in the same order.
class QuerySequence {
 public:
  QuerySequence(const mst::TrajectoryStore* store, int session_rounds,
                uint64_t seed);

  /// Index into queries() of the next query asked. A query is first asked
  /// before any repeat of it, and first asks come in index order.
  size_t Next();

  /// Every distinct query asked so far (references stay valid).
  const std::deque<mst::Trajectory>& queries() const { return queries_; }

 private:
  const mst::TrajectoryStore* store_;
  const int session_rounds_;
  mst::Rng rng_;
  std::deque<mst::Trajectory> queries_;
  size_t session_start_ = 0;
  int position_ = 0;
  int round_ = 0;
};

/// Runs kWarmupQueries fresh queries from the seed's warm-up stream through
/// `ask` (before the measured window, so the caches are warm).
template <typename Ask>
void WarmUp(const mst::TrajectoryStore& store, uint64_t seed, Ask ask) {
  mst::Rng rng(StreamSeed(seed, kWarmupStream));
  for (int i = 0; i < QueryInputs::kWarmupQueries; ++i) {
    ask(MakeQuery(store, &rng, QueryInputs::kLength));
  }
}

/// How long a query client stays on one CPU of its measured window's
/// CpuRotation: about 15 cold queries, so refilling a core's private caches
/// after a move costs well under 1 % of the window.
inline constexpr int64_t kRotationPeriodNs = 100'000'000;

/// Untraced queries a measured window runs at least, so p99 has ten samples
/// beyond it.
inline constexpr int64_t kMinQueries = 1000;

/// A measured window stops at `seconds` once it has kMinQueries samples, and
/// in any case after this many times `seconds`.
inline constexpr double kMaxWindowStretch = 4.0;

/// True once a window that started at `start_ns` and has run `queries`
/// untraced queries is over.
inline bool WindowOver(const Config& config, int64_t start_ns,
                       int64_t queries) {
  const double elapsed = SecondsSince(start_ns);
  return (queries >= kMinQueries && elapsed >= config.seconds) ||
         elapsed >= config.seconds * kMaxWindowStretch;
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

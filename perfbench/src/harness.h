// Shared machinery of the repository benchmark: run configuration, the
// in-memory span tracer, the result report, the input generator (the `gen`
// layer; the program under test only ever sees what it produces), and the
// LinearScan correctness oracle.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/core/mst_search.h"
#include "src/geom/trajectory.h"
#include "src/index/trajectory_index.h"
#include "src/util/random.h"

namespace perfbench {

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory the span file is written to (created by run.py).
  std::string out_dir = ".bench_out";
};

/// Monotonic clock in nanoseconds.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double MsBetween(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e6;
}

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

/// In-memory span recorder. A span is (request, parent, name, start, end);
/// spans of one request share the request id. Span names are
/// "<layer>.<operation>", so self time can be attributed to layers. Disabled
/// tracers record nothing and never read the clock. Thread-safe.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// A fresh request id (ids start at 1).
  uint64_t NewRequest();

  /// Records a finished span; returns its index (-1 when disabled).
  int Add(uint64_t request, const char* name, int parent, int64_t start_ns,
          int64_t end_ns);

  /// Opens a span ending at End(); returns its index (-1 when disabled).
  int Begin(uint64_t request, const char* name, int parent = -1);
  void End(int span);

  /// Self time (duration minus the part covered by child spans) summed per
  /// span name, in ms, and the number of spans per name, over the requests
  /// whose root span is named `root_name`.
  struct SelfTime {
    double total_ms = 0.0;
    double duration_ms = 0.0;
    int64_t spans = 0;
  };
  std::map<std::string, SelfTime> SelfTimeByName(
      const std::string& root_name) const;

  /// Writes every span as one JSON object per line.
  bool Write(const std::string& path) const;

  size_t size() const;

 private:
  struct Span {
    uint64_t request = 0;
    int parent = -1;
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  uint64_t next_request_ = 1;  // guarded by mu_
};

/// RAII span; a no-op on a null or disabled tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, uint64_t request, const char* name,
             int parent = -1)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
        id_(tracer_ != nullptr ? tracer_->Begin(request, name, parent) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

/// Everything one run reports: metrics by name with unit and sample count,
/// environment fields, and the attempted/failed tallies of the correctness
/// gate. Printed as one JSON object.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit,
              int64_t samples = 0);
  void Env(const std::string& key, const std::string& value);
  void Env(const std::string& key, double value);

  /// Counts `n` attempted operations of which `failed` failed.
  void Attempt(int64_t n, int64_t failed = 0) {
    attempted_ += n;
    failed_ += failed;
  }

  /// Records a wrong answer or a broken invariant: the run is incorrect.
  void Fail(const std::string& what);

  /// A benchmark bug (e.g. non-repeating counts): incorrect and flagged.
  void Bug(const std::string& what);

  bool correct() const { return errors_.empty(); }

  std::string ToJson() const;

 private:
  struct Entry {
    double value = 0.0;
    std::string unit;
    int64_t samples = 0;
  };
  std::map<std::string, Entry> metrics_;
  std::map<std::string, std::string> env_;  // values are JSON literals
  std::vector<std::string> errors_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

// ---- gen: inputs, derived from the workload seed only ----

/// An S-series dataset of the paper's Table 2 shape: `objects` GSTD
/// trajectories of `samples` samples each over the unit time domain,
/// lognormal(1, 0.6) speeds, ±40 % timestamp jitter.
mst::TrajectoryStore MakeSDataset(int objects, int samples, uint64_t seed);

/// Id given to query trajectories (never a stored id).
inline constexpr mst::TrajectoryId kQueryId = mst::TrajectoryId{1} << 29;

/// Table 3 query: a slice of a random stored trajectory covering
/// `length_fraction` of its lifespan.
mst::Trajectory MakeQuery(const mst::TrajectoryStore& store, mst::Rng* rng,
                          double length_fraction);

/// Seed of one input stream of a workload (dataset, queries, ...), so the
/// streams stay independent of each other.
uint64_t StreamSeed(uint64_t workload_seed, uint64_t stream);

// ---- the correctness oracle ----

/// One answer to check: the query, its period and k, and what was returned.
struct OracleJob {
  const mst::Trajectory* query = nullptr;
  mst::TimeInterval period{0.0, 0.0};
  int k = 1;
  const std::vector<mst::MstResult>* got = nullptr;
};

/// Checks each job against LinearScanKMst over `store` (exact DISSIM): ids
/// and order must match exactly, error_bound must be 0, and dissim must agree
/// within 1e-6 relative. Runs on up to 4 threads. Returns the number of
/// mismatching jobs; describes the first few on stderr.
int64_t CheckWithOracle(const mst::TrajectoryStore& store,
                        const std::vector<OracleJob>& jobs);

/// Bitwise equality of two answers (ids, dissim, error_bound).
bool SameAnswer(const std::vector<mst::MstResult>& a,
                const std::vector<mst::MstResult>& b);

// ---- per-query counter sums and layer probes ----

/// Sums of MstStats over a set of queries.
struct CoreTotals {
  int64_t queries = 0;
  int64_t nodes = 0;
  int64_t leaf_entries = 0;
  int64_t leaf_pruned = 0;
  int64_t heap_pushes = 0;
  int64_t created = 0;
  int64_t rejected = 0;
  int64_t refinements = 0;
  int64_t h2_stops = 0;
  int64_t node_cache_hits = 0;
  int64_t node_cache_misses = 0;
  int64_t result_cache_hits = 0;
  int64_t result_cache_misses = 0;

  void Add(const mst::MstStats& s);
  /// Reports the core.* per-query metrics and index.node_cache_hit_rate.
  void ReportCore(Report* report) const;
};

/// Hashes per-query counters into a digest that must repeat exactly across
/// runs with the same seed (FNV-1a).
class Digest {
 public:
  void Mix(int64_t v);
  void MixStats(const mst::MstStats& s);
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ULL;
};

/// The index layer's shape (summed over every index a workload serves) and
/// its buffer traffic over a measured window.
struct IndexWindow {
  int64_t nodes = 0;
  int64_t bytes = 0;
  int64_t segments = 0;
  int64_t buffer_reads = 0;
  int64_t buffer_misses = 0;
  int64_t queries = 0;
  size_t node_cache_bytes = 0;
};

/// Reports index_bytes_per_segment and the index.* metrics of `window`, the
/// capacity environment fields of `probe`, and timed ReadNode probes on a
/// fixed page sample of `probe`: mean microseconds per read with the node
/// cache warm, and right after both caches were dropped (it leaves them
/// dropped).
void ReportIndex(const mst::TrajectoryIndex& probe, const IndexWindow& window,
                 Report* report);

/// Reports mst_p50_ms and mst_p99_ms of the untraced queries, mst_qps of all
/// of them over `window_s`, and, in a traced run, the per-layer self times
/// of the "harness.query" requests and the tracing overhead (traced minus
/// untraced p50).
void ReportQueries(const std::vector<double>& untraced_ms,
                   const std::vector<double>& traced_ms, double window_s,
                   const Tracer& tracer, Report* report);

/// Prints `what` with the seconds since the process started to stderr.
void Progress(const std::string& what);

/// Peak resident set size of this process in MiB.
double PeakRssMib();

/// Process CPU time (user + system) in seconds.
double ProcessCpuSeconds();

/// Median of a small sample (by value).
double Median(std::vector<double> v);

/// Moves the calling thread round-robin over the CPUs of its affinity mask,
/// one step per `period_ns`, and restores the mask when destroyed. On a
/// shared VM each vCPU's speed follows its own host core's load, so a
/// single-threaded client left on one vCPU measures that vCPU; rotated, it
/// measures the average of all of them. Use on one thread only.
class CpuRotation {
 public:
  explicit CpuRotation(int64_t period_ns);
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Moves to the next CPU once `period_ns` has passed since the last move.
  /// Call between operations, outside their timing.
  void Tick();

 private:
  const int64_t period_ns_;
  cpu_set_t original_;
  std::vector<int> cpus_;  // empty: the affinity mask could not be read
  size_t next_ = 0;
  int64_t last_ns_ = 0;
};

/// Environment fields shared by every workload: nproc, CPU model, compiler,
/// build type, seed.
void ReportEnvironment(const Config& config, Report* report);

/// Clock readings of one set-up: start, end of input generation, end of
/// the build.
struct SetUpTimes {
  int64_t start_ns = 0;
  int64_t gen_done_ns = 0;
  int64_t build_done_ns = 0;
};

/// Runs `setup` in a forked child process and returns the times it
/// reported, or nullopt when the child failed (`setup` returning false, a
/// crash). Waits for the child. Call only while this process runs a single
/// thread.
std::optional<SetUpTimes> RunInChild(
    const std::function<bool(SetUpTimes*)>& setup);

/// Builds a workload's stack `reps` times and returns the last one. Each
/// set-up runs `gen(stack)` then `build(stack)` (false = failed). All but
/// the last run in forked children, so every set-up starts from the same
/// fresh heap and peak_rss_mib counts one stack. Records the spans
/// harness.setup > gen.dataset, `build_span`, and reports the medians as
/// setup_s, gen.dataset_s and "<build_span>_s". Call before the process
/// starts any thread.
template <typename Stack, typename Gen, typename Build>
std::unique_ptr<Stack> TimedSetUps(int reps, const char* build_span,
                                   Tracer* tracer, Report* report, Gen gen,
                                   Build build) {
  const auto timed = [&](Stack* s, SetUpTimes* t) {
    t->start_ns = NowNs();
    gen(s);
    t->gen_done_ns = NowNs();
    const bool ok = build(s);
    t->build_done_ns = NowNs();
    return ok;
  };
  std::unique_ptr<Stack> stack;
  std::vector<double> total_s;
  std::vector<double> gen_s;
  std::vector<double> build_s;
  for (int rep = 0; rep < reps; ++rep) {
    std::optional<SetUpTimes> t;
    if (rep + 1 < reps) {
      t = RunInChild([&](SetUpTimes* times) {
        Stack s;
        return timed(&s, times);
      });
    } else {
      stack = std::make_unique<Stack>();
      t.emplace();
      if (!timed(stack.get(), &*t)) t.reset();
    }
    if (!t) {
      report->Fail(std::string("set-up failed: ") + build_span);
      continue;
    }
    const uint64_t req = tracer->enabled() ? tracer->NewRequest() : 0;
    const int root = tracer->Add(req, "harness.setup", -1, t->start_ns,
                                 t->build_done_ns);
    tracer->Add(req, "gen.dataset", root, t->start_ns, t->gen_done_ns);
    tracer->Add(req, build_span, root, t->gen_done_ns, t->build_done_ns);
    gen_s.push_back(static_cast<double>(t->gen_done_ns - t->start_ns) / 1e9);
    build_s.push_back(static_cast<double>(t->build_done_ns - t->gen_done_ns) /
                      1e9);
    total_s.push_back(static_cast<double>(t->build_done_ns - t->start_ns) /
                      1e9);
  }
  Progress("set-up done");
  const auto n = static_cast<int64_t>(total_s.size());
  report->Metric("setup_s", Median(total_s), "s", n);
  report->Metric("gen.dataset_s", Median(gen_s), "s", n);
  report->Metric(std::string(build_span) + "_s", Median(build_s), "s", n);
  return stack;
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_

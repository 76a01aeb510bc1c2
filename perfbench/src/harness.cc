#include "harness.h"

#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "percentile.h"
#include "src/core/linear_scan.h"
#include "src/gen/gstd.h"
#include "src/index/pagefile.h"

namespace perfbench {

// ---- Tracer ----

uint64_t Tracer::NewRequest() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_request_++;
}

int Tracer::Add(uint64_t request, const char* name, int parent,
                int64_t start_ns, int64_t end_ns) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({request, parent, name, start_ns, end_ns});
  return static_cast<int>(spans_.size() - 1);
}

int Tracer::Begin(uint64_t request, const char* name, int parent) {
  if (!enabled_) return -1;
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({request, parent, name, now, now});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::End(int span) {
  if (!enabled_ || span < 0) return;
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(span)].end_ns = now;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, Tracer::SelfTime> Tracer::SelfTimeByName(
    const std::string& root_name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<size_t>> children(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<size_t>(spans_[i].parent)].push_back(i);
    }
  }
  std::map<std::string, SelfTime> out;
  std::vector<std::pair<int64_t, int64_t>> covered;
  for (size_t i = 0; i < spans_.size(); ++i) {
    size_t root = i;
    while (spans_[root].parent >= 0) {
      root = static_cast<size_t>(spans_[root].parent);
    }
    if (root_name != spans_[root].name) continue;
    const Span& s = spans_[i];
    // Union of the children's intervals, clipped to this span.
    covered.clear();
    for (const size_t c : children[i]) {
      const int64_t a = std::max(spans_[c].start_ns, s.start_ns);
      const int64_t b = std::min(spans_[c].end_ns, s.end_ns);
      if (a < b) covered.emplace_back(a, b);
    }
    std::sort(covered.begin(), covered.end());
    int64_t child_ns = 0;
    int64_t reach = s.start_ns;
    for (const auto& [a, b] : covered) {
      const int64_t from = std::max(a, reach);
      if (b > from) child_ns += b - from;
      reach = std::max(reach, b);
    }
    const int64_t duration = s.end_ns - s.start_ns;
    SelfTime& t = out[s.name];
    t.total_ms += static_cast<double>(duration - child_ns) / 1e6;
    t.duration_ms += static_cast<double>(duration) / 1e6;
    ++t.spans;
  }
  return out;
}

bool Tracer::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"request\": %" PRIu64
                 ", \"parent\": %d, \"name\": \"%s\", \"start_ns\": %" PRId64
                 ", \"end_ns\": %" PRId64 "}\n",
                 i, s.request, s.parent, s.name, s.start_ns, s.end_ns);
  }
  return std::fclose(f) == 0;
}

// ---- Report ----

void Report::Metric(const std::string& name, double value,
                    const std::string& unit, int64_t samples) {
  metrics_[name] = {value, unit, samples};
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::Env(const std::string& key, const std::string& value) {
  env_[key] = JsonString(value);
}

void Report::Env(const std::string& key, double value) {
  env_[key] = JsonNumber(value);
}

void Report::Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench: FAIL %s\n", what.c_str());
  errors_.push_back(what);
}

void Report::Bug(const std::string& what) {
  Fail("benchmark bug: " + what);
}

std::string Report::ToJson() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"errors\": [";
  for (size_t i = 0; i < errors_.size(); ++i) {
    os << (i ? ", " : "") << JsonString(errors_[i]);
  }
  os << "], \"env\": {";
  bool first = true;
  for (const auto& [k, v] : env_) {
    os << (first ? "" : ", ") << JsonString(k) << ": " << v;
    first = false;
  }
  os << "}, \"metrics\": {";
  first = true;
  for (const auto& [k, e] : metrics_) {
    os << (first ? "" : ", ") << JsonString(k)
       << ": {\"value\": " << JsonNumber(e.value)
       << ", \"unit\": " << JsonString(e.unit)
       << ", \"samples\": " << e.samples << "}";
    first = false;
  }
  os << "}}";
  return os.str();
}

// ---- gen ----

mst::TrajectoryStore MakeSDataset(int objects, int samples, uint64_t seed) {
  mst::GstdOptions opt;
  opt.num_objects = objects;
  opt.samples_per_object = samples;
  opt.speed = mst::GstdOptions::SpeedDistribution::kLogNormal;
  opt.speed_param1 = 1.0;
  opt.speed_param2 = 0.6;
  opt.timestamp_jitter = 0.4;
  opt.seed = seed;
  return mst::GenerateGstd(opt);
}

mst::Trajectory MakeQuery(const mst::TrajectoryStore& store, mst::Rng* rng,
                          double length_fraction) {
  const mst::Trajectory& base =
      store.trajectories()[rng->UniformIndex(store.size())];
  const double span = base.end_time() - base.start_time();
  const double len = span * length_fraction;
  const double begin =
      base.start_time() + rng->Uniform(0.0, std::max(0.0, span - len));
  return mst::Trajectory(kQueryId,
                         base.Slice({begin, begin + len})->samples());
}

uint64_t StreamSeed(uint64_t workload_seed, uint64_t stream) {
  mst::Rng rng(workload_seed * 0x9e3779b97f4a7c15ULL + stream);
  return rng.NextU64();
}

// ---- oracle ----

namespace {

// Empty when `got` is the exact answer `want` (see CheckWithOracle), else
// what differs.
std::string OracleMismatch(const std::vector<mst::MstResult>& got,
                           const std::vector<mst::MstResult>& want) {
  if (got.size() != want.size()) {
    return "returned " + std::to_string(got.size()) + " results, oracle " +
           std::to_string(want.size());
  }
  for (size_t i = 0; i < got.size(); ++i) {
    const double tol = 1e-6 * std::max(1.0, std::abs(want[i].dissim));
    if (got[i].id != want[i].id || got[i].error_bound != 0.0 ||
        std::abs(got[i].dissim - want[i].dissim) > tol) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "rank %zu: id %" PRId64 " dissim %.17g bound %g vs oracle "
                    "id %" PRId64 " dissim %.17g",
                    i, static_cast<int64_t>(got[i].id), got[i].dissim,
                    got[i].error_bound, static_cast<int64_t>(want[i].id),
                    want[i].dissim);
      return buf;
    }
  }
  return "";
}

}  // namespace

int64_t CheckWithOracle(const mst::TrajectoryStore& store,
                        const std::vector<OracleJob>& jobs) {
  std::atomic<size_t> next{0};
  std::atomic<int64_t> bad{0};
  std::mutex print_mu;
  auto worker = [&] {
    for (size_t i = next.fetch_add(1); i < jobs.size();
         i = next.fetch_add(1)) {
      const OracleJob& job = jobs[i];
      const auto want = mst::LinearScanKMst(store, *job.query, job.period,
                                            job.k, mst::IntegrationPolicy::kExact);
      const std::string diff = OracleMismatch(*job.got, want);
      if (!diff.empty() && bad.fetch_add(1) < 3) {
        std::lock_guard<std::mutex> lock(print_mu);
        std::fprintf(stderr, "perfbench: oracle mismatch on job %zu: %s\n", i,
                     diff.c_str());
      }
    }
  };
  const unsigned threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  std::vector<std::thread> pool;
  for (unsigned t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
  return bad.load();
}

bool SameAnswer(const std::vector<mst::MstResult>& a,
                const std::vector<mst::MstResult>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].dissim != b[i].dissim ||
        a[i].error_bound != b[i].error_bound) {
      return false;
    }
  }
  return true;
}

// ---- counters and probes ----

void CoreTotals::Add(const mst::MstStats& s) {
  ++queries;
  nodes += s.nodes_accessed;
  leaf_entries += s.leaf_entries_seen;
  leaf_pruned += s.leaf_entries_pruned;
  heap_pushes += s.heap_pushes;
  created += s.candidates_created;
  rejected += s.candidates_rejected;
  refinements += s.exact_recomputations;
  h2_stops += s.terminated_by_heuristic2 ? 1 : 0;
  node_cache_hits += s.node_cache_hits;
  node_cache_misses += s.node_cache_misses;
  result_cache_hits += s.result_cache_hits;
  result_cache_misses += s.result_cache_misses;
}

namespace {

double Ratio(int64_t num, int64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

}  // namespace

void CoreTotals::ReportCore(Report* report) const {
  const int64_t n = queries;
  report->Metric("core.nodes_per_query", Ratio(nodes, n), "count", n);
  report->Metric("core.leaf_entries_per_query", Ratio(leaf_entries, n),
                 "count", n);
  report->Metric("core.heap_pushes_per_query", Ratio(heap_pushes, n), "count",
                 n);
  report->Metric("core.leaf_prune_ratio", Ratio(leaf_pruned, leaf_entries),
                 "ratio", leaf_entries);
  report->Metric("core.h1_reject_ratio", Ratio(rejected, created), "ratio",
                 created);
  report->Metric("core.refinements_per_query", Ratio(refinements, n), "count",
                 n);
  report->Metric("core.h2_stop_frac", Ratio(h2_stops, n), "ratio", n);
  report->Metric("core.result_cache_hit_rate",
                 Ratio(result_cache_hits,
                       result_cache_hits + result_cache_misses),
                 "ratio", result_cache_hits + result_cache_misses);
  report->Metric("index.node_cache_hit_rate",
                 Ratio(node_cache_hits, node_cache_hits + node_cache_misses),
                 "ratio", node_cache_hits + node_cache_misses);
}

void Digest::Mix(int64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= static_cast<uint64_t>(v >> (8 * i)) & 0xff;
    h_ *= 1099511628211ULL;
  }
}

void Digest::MixStats(const mst::MstStats& s) {
  for (const int64_t v :
       {s.nodes_accessed, s.leaf_entries_seen, s.heap_pushes,
        s.candidates_created, s.candidates_completed, s.candidates_rejected,
        s.leaf_entries_pruned, s.candidates_ineligible, s.exact_recomputations,
        s.node_cache_hits, s.node_cache_misses, s.result_cache_hits,
        s.result_cache_misses,
        static_cast<int64_t>(s.terminated_by_heuristic2)}) {
    Mix(v);
  }
}

void ReportIndex(const mst::TrajectoryIndex& probe, const IndexWindow& window,
                 Report* report) {
  // ReadNode probes: a fixed page sample, read warm, then right after the
  // buffer and the node cache were dropped.
  constexpr int kSample = 512;
  constexpr int kPasses = 7;
  const int64_t pages = probe.NodeCount();
  std::vector<mst::PageId> sample;
  for (int i = 0; i < kSample && pages > 0; ++i) {
    sample.push_back(static_cast<mst::PageId>(i * pages / kSample));
  }
  const auto timed_pass = [&] {
    const int64_t start = NowNs();
    for (const mst::PageId id : sample) (void)probe.ReadNode(id);
    return static_cast<double>(NowNs() - start) / 1e3 /
           static_cast<double>(std::max<size_t>(1, sample.size()));
  };
  const auto drop_caches = [&] {
    probe.buffer().Clear();
    probe.node_cache().Clear();
  };
  std::vector<double> hit_us;
  std::vector<double> miss_us;
  for (const mst::PageId id : sample) (void)probe.ReadNode(id);
  for (int p = 0; p < kPasses; ++p) hit_us.push_back(timed_pass());
  for (int p = 0; p < kPasses; ++p) {
    drop_caches();
    miss_us.push_back(timed_pass());
  }
  drop_caches();
  report->Metric("index.read_node_hit_us", Median(hit_us), "us", kPasses);
  report->Metric("index.read_node_miss_us", Median(miss_us), "us", kPasses);

  report->Metric("index_bytes_per_segment", Ratio(window.bytes, window.segments),
                 "B", window.segments);
  report->Metric("index.nodes", static_cast<double>(window.nodes), "count");
  report->Metric("index.bytes", static_cast<double>(window.bytes), "B");
  report->Metric("index.buffer_miss_rate",
                 Ratio(window.buffer_misses, window.buffer_reads), "ratio",
                 window.buffer_reads);
  report->Metric("index.physical_reads_per_query",
                 Ratio(window.buffer_misses, window.queries), "count",
                 window.queries);
  report->Metric("index.node_cache_resident_mib",
                 static_cast<double>(window.node_cache_bytes) / (1 << 20),
                 "MiB");
  report->Env("node_cache_capacity_bytes",
              static_cast<double>(probe.node_cache().capacity() *
                                  mst::kPageSize));
  report->Env("buffer_capacity_bytes",
              static_cast<double>(probe.buffer().capacity() * mst::kPageSize));
  report->Env("index_nodes", static_cast<double>(window.nodes));
  report->Env("index_bytes", static_cast<double>(window.bytes));
  report->Env("segments", static_cast<double>(window.segments));
}

std::optional<SetUpTimes> RunInChild(
    const std::function<bool(SetUpTimes*)>& setup) {
  int fds[2];
  if (pipe(fds) != 0) return std::nullopt;
  std::fflush(nullptr);  // the child must not inherit pending output
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return std::nullopt;
  }
  if (pid == 0) {
    close(fds[0]);
    SetUpTimes t;
    const bool sent = setup(&t) && write(fds[1], &t, sizeof(t)) ==
                                       static_cast<ssize_t>(sizeof(t));
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  SetUpTimes t;
  char buf[sizeof(t)];
  size_t got = 0;
  while (got < sizeof(buf)) {
    const ssize_t r = read(fds[0], buf + got, sizeof(buf) - got);
    if (r > 0) {
      got += static_cast<size_t>(r);
    } else if (r == 0 || errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (got != sizeof(buf) || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return std::nullopt;
  }
  std::memcpy(&t, buf, sizeof(t));
  return t;
}

void Progress(const std::string& what) {
  static const int64_t process_start = NowNs();
  std::fprintf(stderr, "[perfbench %7.2fs] %s\n", SecondsSince(process_start),
               what.c_str());
}

double PeakRssMib() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double ProcessCpuSeconds() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

CpuRotation::CpuRotation(int64_t period_ns)
    : period_ns_(period_ns), last_ns_(NowNs()) {
  CPU_ZERO(&original_);
  if (sched_getaffinity(0, sizeof(original_), &original_) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
  }
}

CpuRotation::~CpuRotation() {
  if (!cpus_.empty()) sched_setaffinity(0, sizeof(original_), &original_);
}

void CpuRotation::Tick() {
  if (cpus_.size() < 2) return;
  const int64_t now = NowNs();
  if (now - last_ns_ < period_ns_) return;
  last_ns_ = now;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  CPU_SET(cpus_[next_], &mask);
  next_ = (next_ + 1) % cpus_.size();
  sched_setaffinity(0, sizeof(mask), &mask);
}

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(" \t", colon + 1));
      }
    }
  }
  return "unknown";
}

}  // namespace

void ReportEnvironment(const Config& config, Report* report) {
  report->Env("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  report->Env("cpu_model", CpuModel());
  report->Env("compiler", std::string("g++ ") + __VERSION__);
#ifdef PERFBENCH_BUILD_TYPE
  report->Env("build_type", PERFBENCH_BUILD_TYPE);
#endif
  report->Env("workload", config.workload);
  report->Env("seed", static_cast<double>(config.seed));
  report->Env("seconds", config.seconds);
  report->Env("trace", config.trace ? 1.0 : 0.0);
}

namespace {

// Self time per span name under the requests rooted at `root_name`, as ms
// per request: "<span name>_ms" for each child span name, the root's own
// self time as harness.remainder_ms, and the mean root duration as
// harness.query_ms.
void ReportSelfTimes(const Tracer& tracer, const std::string& root_name,
                     Report* report) {
  const auto self = tracer.SelfTimeByName(root_name);
  const auto root = self.find(root_name);
  if (root == self.end() || root->second.spans == 0) {
    report->Bug("no traced " + root_name + " spans");
    return;
  }
  const auto roots = static_cast<double>(root->second.spans);
  double self_sum = 0.0;
  for (const auto& [name, t] : self) {
    self_sum += t.total_ms;
    const std::string metric =
        name == root_name ? "harness.remainder_ms" : name + "_ms";
    report->Metric(metric, t.total_ms / roots, "ms", root->second.spans);
  }
  report->Metric("harness.query_ms", root->second.duration_ms / roots, "ms",
                 root->second.spans);
  // Layer self times plus the harness remainder must add up to the root
  // spans (up to float rounding of the per-span sums).
  if (std::abs(self_sum - root->second.duration_ms) >
      1e-6 * std::max(1.0, root->second.duration_ms)) {
    report->Bug("self times do not add up to " + root_name);
  }
}

}  // namespace

void ReportQueries(const std::vector<double>& untraced_ms,
                   const std::vector<double>& traced_ms, double window_s,
                   const Tracer& tracer, Report* report) {
  const LatencySummary lat = Summarize(untraced_ms);
  const auto n = static_cast<int64_t>(untraced_ms.size() + traced_ms.size());
  report->Metric("mst_p50_ms", lat.p50, "ms", lat.count);
  report->Metric("mst_p99_ms", lat.p99, "ms", lat.count);
  if (!lat.p99_valid) report->Bug("too few queries for p99");
  report->Metric("mst_qps", static_cast<double>(n) / window_s, "1/s", n);
  if (tracer.enabled()) {
    ReportSelfTimes(tracer, "harness.query", report);
    report->Metric("harness.trace_overhead_p50_ms",
                   Summarize(traced_ms).p50 - lat.p50, "ms",
                   static_cast<int64_t>(traced_ms.size()));
  }
}

}  // namespace perfbench

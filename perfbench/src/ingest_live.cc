// ingest_live: an S0200 stream appended to IngestEngine (in-memory WAL,
// background merger at the default threshold) open-loop at a fixed rate by
// 2 feed threads that split the object ids, while one closed-loop client
// asks k=10 queries over windows ending at the feed watermark. After the
// stream: an explicit quiesce merge, then WAL recovery.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "percentile.h"
#include "src/core/mst_search.h"
#include "src/index/rtree3d.h"
#include "src/ingest/ingest_engine.h"
#include "src/ingest/wal_storage.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kObjects = 200;
constexpr int kSamples = 400;
constexpr int kFeeders = 2;
constexpr int kBatchRecords = 32;
/// Share of each feeder's batches appended during set-up.
constexpr double kPreloadFraction = 0.5;
constexpr int kK = 10;
/// Query window length (time units; lifespans are [0, 1]).
constexpr double kWindow = 0.05;
/// Live queries re-asked of the quiesced and the recovered engine.
constexpr size_t kIdentityQueries = 64;
constexpr int kSetupReps = 9;

/// One feeder's batches, in time order.
using Schedule = std::vector<std::vector<mst::WalRecord>>;

/// Splits the dataset's samples, globally time-ordered, between the feeders
/// by object id and chunks each share into batches.
std::vector<Schedule> MakeSchedules(const mst::TrajectoryStore& store) {
  std::vector<mst::WalRecord> flat;
  for (const mst::Trajectory& t : store.trajectories()) {
    for (const mst::TPoint& s : t.samples()) {
      flat.push_back({t.id(), s.t, s.p.x, s.p.y});
    }
  }
  std::stable_sort(flat.begin(), flat.end(),
                   [](const mst::WalRecord& a, const mst::WalRecord& b) {
                     return a.t < b.t;
                   });
  std::vector<Schedule> schedules(kFeeders);
  for (const mst::WalRecord& r : flat) {
    Schedule& mine = schedules[static_cast<size_t>(r.traj_id % kFeeders)];
    if (mine.empty() || mine.back().size() == kBatchRecords) {
      mine.emplace_back();
    }
    mine.back().push_back(r);
  }
  return schedules;
}

size_t PreloadCount(const Schedule& s) {
  return static_cast<size_t>(kPreloadFraction * static_cast<double>(s.size()));
}

mst::IngestEngine::Options EngineOptions() {
  mst::IngestEngine::Options options;
  options.background_merge = true;
  return options;
}

struct Stack {
  mst::TrajectoryStore store;
  std::vector<Schedule> schedules;
  mst::MemWalStorageSet storage;
  std::unique_ptr<mst::IngestEngine> engine;  // destroyed before storage
};

/// What one feed thread measured.
struct FeedLog {
  std::vector<double> append_ms;   // completion minus due time
  std::vector<double> late_ms;     // send time minus due time
  std::vector<double> service_ms;  // completion minus send time
  int64_t refused = 0;
};

/// One live query: its inputs and what the engine answered.
struct LiveQuery {
  mst::Trajectory query;
  mst::TimeInterval period;
  std::vector<mst::MstResult> answer;
};

}  // namespace

void RunIngestLive(const Config& config, Tracer* tracer, Report* report) {
  const std::unique_ptr<Stack> stack = TimedSetUps<Stack>(
      kSetupReps, "ingest.preload", tracer, report,
      [&](Stack* s) {
        s->store = MakeSDataset(kObjects, kSamples,
                                StreamSeed(config.seed, kDatasetStream));
        s->schedules = MakeSchedules(s->store);
      },
      [&](Stack* s) {
        s->engine =
            std::make_unique<mst::IngestEngine>(&s->storage, EngineOptions());
        std::vector<std::thread> feeders;
        std::atomic<int64_t> refused{0};
        for (const Schedule& schedule : s->schedules) {
          feeders.emplace_back([s, &schedule, &refused] {
            for (size_t b = 0; b < PreloadCount(schedule); ++b) {
              if (!s->engine->Append(schedule[b])) refused.fetch_add(1);
            }
          });
        }
        for (std::thread& t : feeders) t.join();
        return refused.load() == 0;
      });

  mst::IngestEngine* engine = stack->engine.get();
  const mst::TrajectoryStore& store = stack->store;
  // A window ending one sample gap below every feeder's watermark is
  // covered by every trajectory at query time, so its answer can no longer
  // change: later appends only extend trajectories past it.
  double gap = 0.0;
  for (const mst::Trajectory& t : store.trajectories()) {
    for (size_t i = 1; i < t.size(); ++i) {
      gap = std::max(gap, t.sample(i).t - t.sample(i - 1).t);
    }
  }
  std::array<std::atomic<double>, kFeeders> watermark;
  int64_t preload_batches = 0;
  int64_t live_batches = 0;
  int64_t total_records = 0;
  for (int f = 0; f < kFeeders; ++f) {
    const Schedule& schedule = stack->schedules[static_cast<size_t>(f)];
    const size_t preload = PreloadCount(schedule);
    watermark[static_cast<size_t>(f)].store(
        preload > 0 ? schedule[preload - 1].back().t : 0.0);
    preload_batches += static_cast<int64_t>(preload);
    live_batches += static_cast<int64_t>(schedule.size() - preload);
    for (const auto& batch : schedule) {
      total_records += static_cast<int64_t>(batch.size());
    }
  }

  // Live window: open-loop feeders at a fixed rate that spreads the rest of
  // the stream over `seconds`, and one closed-loop query client.
  const uint64_t syncs0 = engine->wal().sync_count();
  const uint64_t publishes0 = engine->publish_count();
  std::array<FeedLog, kFeeders> logs;
  std::atomic<int> feeders_done{0};
  const int64_t start = NowNs() + 1000000;  // first batches due in 1 ms
  std::vector<std::thread> feeders;
  for (int f = 0; f < kFeeders; ++f) {
    feeders.emplace_back([&, f] {
      const Schedule& schedule = stack->schedules[static_cast<size_t>(f)];
      const size_t first = PreloadCount(schedule);
      const size_t count = schedule.size() - first;
      const double interval_ns =
          config.seconds * 1e9 / static_cast<double>(std::max<size_t>(1, count));
      FeedLog& log = logs[static_cast<size_t>(f)];
      for (size_t b = 0; b < count; ++b) {
        const int64_t due =
            start + static_cast<int64_t>(static_cast<double>(b) * interval_ns);
        std::this_thread::sleep_until(
            std::chrono::steady_clock::time_point(std::chrono::nanoseconds(due)));
        const std::vector<mst::WalRecord>& batch = schedule[first + b];
        const int64_t send = NowNs();
        const bool ok = engine->Append(batch);
        const int64_t end = NowNs();
        log.append_ms.push_back(MsBetween(due, end));
        log.late_ms.push_back(MsBetween(due, send));
        log.service_ms.push_back(MsBetween(send, end));
        if (ok) {
          watermark[static_cast<size_t>(f)].store(batch.back().t);
        } else {
          ++log.refused;
        }
        if (tracer->enabled()) {
          const uint64_t req = tracer->NewRequest();
          const int root = tracer->Add(req, "harness.append", -1, due, end);
          tracer->Add(req, "ingest.append", root, send, end);
        }
      }
      feeders_done.fetch_add(1);
    });
  }

  mst::MstOptions options;
  options.k = kK;
  mst::Rng rng(StreamSeed(config.seed, kSequenceStream));
  std::vector<LiveQuery> live;
  std::vector<double> latency_ms;
  std::vector<double> traced_ms;
  CoreTotals totals;
  int64_t delta_entries = 0;
  IndexWindow window;  // buffer traffic of the main trees queries ran on
  std::this_thread::sleep_until(
      std::chrono::steady_clock::time_point(std::chrono::nanoseconds(start)));
  {
    // Ends with the window: threads started later, such as the oracle's,
    // would inherit a one-CPU affinity mask.
    CpuRotation rotation(kRotationPeriodNs);
    while (feeders_done.load() < kFeeders) {
      rotation.Tick();
      double end = watermark[0].load();
      for (size_t f = 1; f < kFeeders; ++f) {
        end = std::min(end, watermark[f].load());
      }
      end -= gap;
      const mst::TimeInterval period{end - kWindow, end};
      const mst::Trajectory& base =
          store.trajectories()[rng.UniformIndex(store.size())];
      LiveQuery q{mst::Trajectory(kQueryId, base.Slice(period)->samples()),
                  period,
                  {}};
      const bool traced = tracer->enabled() && live.size() % 2 == 0;
      Tracer* t = traced ? tracer : nullptr;
      const uint64_t req = traced ? tracer->NewRequest() : 0;
      mst::MstStats stats;
      mst::IndexView view;
      int64_t r0 = 0;
      int64_t m0 = 0;
      const int64_t q0 = NowNs();
      {
        ScopedSpan root(t, req, "harness.query");
        {
          ScopedSpan span(t, req, "ingest.view", root.id());
          view = engine->View();
        }
        r0 = view.main->buffer().logical_reads();
        m0 = view.main->buffer().misses();
        ScopedSpan span(t, req, "core.search", root.id());
        const mst::BFMstSearch searcher(view.main.get(), view.source.get(),
                                        nullptr, view.delta.get());
        q.answer = searcher.Search(q.query, period, options, &stats);
      }
      (traced ? traced_ms : latency_ms).push_back(MsBetween(q0, NowNs()));
      window.buffer_reads += view.main->buffer().logical_reads() - r0;
      window.buffer_misses += view.main->buffer().misses() - m0;
      window.node_cache_bytes = view.main->node_cache().resident_bytes();
      totals.Add(stats);
      delta_entries += view.delta != nullptr ? view.delta->EntryCount() : 0;
      live.push_back(std::move(q));
    }
  }
  for (std::thread& t : feeders) t.join();
  const double window_s = SecondsSince(start);
  report->Metric("peak_rss_mib", PeakRssMib(), "MiB");
  window.queries = totals.queries;
  Progress("measured window done: " + std::to_string(totals.queries) +
           " queries");
  const uint64_t window_syncs = engine->wal().sync_count() - syncs0;
  const uint64_t publishes = engine->publish_count() - publishes0;

  // Quiesce.
  const int64_t merge0 = NowNs();
  {
    const uint64_t req = tracer->enabled() ? tracer->NewRequest() : 0;
    ScopedSpan span(tracer, req, "ingest.merge");
    engine->Merge();
  }
  const double merge_s = static_cast<double>(NowNs() - merge0) / 1e9;
  const mst::IndexView quiesced = engine->View();
  window.nodes = quiesced.main->NodeCount();
  window.bytes = quiesced.main->SizeBytes();
  window.segments = quiesced.main->EntryCount();
  if (quiesced.delta != nullptr) {
    window.nodes += quiesced.delta->NodeCount();
    window.bytes += quiesced.delta->SizeBytes();
    window.segments += quiesced.delta->EntryCount();
  }
  int64_t wal_bytes = 0;
  for (size_t i = 0; i < stack->storage.SegmentCount(); ++i) {
    wal_bytes += static_cast<int64_t>(stack->storage.OpenSegment(i)->Size());
  }

  // Correctness. The engine holds exactly the generated stream; every live
  // answer matches LinearScan over the final data; the quiesced engine and
  // the recovered engine answer like a fresh STR bulk load.
  int64_t refused = 0;
  for (const FeedLog& log : logs) refused += log.refused;
  if (refused > 0) {
    report->Fail(std::to_string(refused) + " live appends refused");
  }
  const mst::TrajectoryStore final_store = engine->MaterializeStore();
  bool same_data = final_store.size() == store.size();
  for (const mst::Trajectory& t : store.trajectories()) {
    const mst::Trajectory* got = final_store.Find(t.id());
    same_data = same_data && got != nullptr && *got == t;
  }
  if (!same_data) report->Fail("ingested data differs from the stream");
  std::vector<OracleJob> jobs;
  for (const LiveQuery& q : live) {
    jobs.push_back({&q.query, q.period, kK, &q.answer});
  }
  const int64_t wrong = CheckWithOracle(final_store, jobs);
  if (wrong > 0) {
    report->Fail(std::to_string(wrong) +
                 " live answers differ from LinearScan");
  }
  mst::RTree3D bulk{mst::TrajectoryIndex::Options()};
  bulk.BulkLoad(final_store);
  const mst::BFMstSearch bulk_searcher(&bulk, &final_store);
  const size_t identity = std::min(kIdentityQueries, live.size());
  std::vector<std::vector<mst::MstResult>> bulk_answers;
  int64_t quiesced_diff = 0;
  for (size_t i = 0; i < identity; ++i) {
    bulk_answers.push_back(
        bulk_searcher.Search(live[i].query, live[i].period, options));
    if (!SameAnswer(engine->Search(live[i].query, live[i].period, options),
                    bulk_answers[i])) {
      ++quiesced_diff;
    }
  }
  if (quiesced_diff > 0) {
    report->Fail(std::to_string(quiesced_diff) +
                 " quiesced answers differ from a fresh bulk load");
  }

  // Recovery: reopen over the run's WAL.
  stack->engine.reset();
  engine = nullptr;
  mst::WalRecoveryInfo recovery;
  const int64_t recover0 = NowNs();
  std::unique_ptr<mst::IngestEngine> recovered;
  {
    const uint64_t req = tracer->enabled() ? tracer->NewRequest() : 0;
    ScopedSpan span(tracer, req, "ingest.recover");
    recovered = std::make_unique<mst::IngestEngine>(&stack->storage,
                                                    EngineOptions(), &recovery);
  }
  const double recovery_s = static_cast<double>(NowNs() - recover0) / 1e9;
  const int64_t written = preload_batches + live_batches - refused;
  if (static_cast<int64_t>(recovery.committed_batches) != written) {
    report->Fail("recovery replayed " +
                 std::to_string(recovery.committed_batches) + " of " +
                 std::to_string(written) + " batches");
  }
  int64_t recovered_diff = 0;
  for (size_t i = 0; i < identity; ++i) {
    if (!SameAnswer(recovered->Search(live[i].query, live[i].period, options),
                    bulk_answers[i])) {
      ++recovered_diff;
    }
  }
  if (recovered_diff > 0) {
    report->Fail(std::to_string(recovered_diff) +
                 " recovered answers differ from a fresh bulk load");
  }
  recovered.reset();
  report->Attempt(totals.queries + live_batches,
                  refused + wrong + quiesced_diff + recovered_diff +
                      (same_data ? 0 : 1));
  Progress("checks done: " + std::to_string(jobs.size()) +
           " answers against the oracle");

  // Metrics.
  std::vector<double> append_ms;
  std::vector<double> late_ms;
  double service_sum = 0.0;
  for (const FeedLog& log : logs) {
    append_ms.insert(append_ms.end(), log.append_ms.begin(),
                     log.append_ms.end());
    late_ms.insert(late_ms.end(), log.late_ms.begin(), log.late_ms.end());
    for (const double s : log.service_ms) service_sum += s;
  }
  const auto n = static_cast<double>(totals.queries);
  const auto appends = static_cast<int64_t>(append_ms.size());
  ReportQueries(latency_ms, traced_ms, window_s, *tracer, report);
  const LatencySummary app = Summarize(append_ms);
  report->Metric("ingest.append_p50_ms", app.p50, "ms", app.count);
  report->Metric("ingest.append_p99_ms", app.p99, "ms", app.count);
  if (!app.p99_valid) report->Bug("too few appends for p99");
  report->Metric("gen.feed_late_p99_ms", Summarize(late_ms).p99, "ms",
                 appends);
  report->Metric("ingest.append_ms",
                 service_sum / static_cast<double>(std::max<int64_t>(1, appends)),
                 "ms", appends);
  report->Metric("ingest.batches_per_sync",
                 window_syncs > 0 ? static_cast<double>(live_batches) /
                                        static_cast<double>(window_syncs)
                                  : 0.0,
                 "count", static_cast<int64_t>(window_syncs));
  report->Metric("ingest.wal_bytes_per_record",
                 static_cast<double>(wal_bytes) /
                     static_cast<double>(total_records),
                 "B", total_records);
  report->Metric("ingest.publishes_per_query",
                 static_cast<double>(publishes) / n, "count", totals.queries);
  report->Metric("ingest.delta_entries_at_query",
                 static_cast<double>(delta_entries) / n, "count",
                 totals.queries);
  report->Metric("ingest.merge_s", merge_s, "s");
  report->Metric("ingest.recovery_s", recovery_s, "s");
  report->Metric("ingest.recovered_batches",
                 static_cast<double>(recovery.committed_batches), "count");
  totals.ReportCore(report);
  ReportIndex(*quiesced.main, window, report);
  report->Env("objects", kObjects);
  report->Env("samples_per_object", kSamples);
  report->Env("k", kK);
  report->Env("query_window", kWindow);
  report->Env("feeders", kFeeders);
  report->Env("batch_records", kBatchRecords);
  report->Env("live_batches_per_s",
              static_cast<double>(live_batches) / config.seconds);
}

}  // namespace perfbench

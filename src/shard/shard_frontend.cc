#include "src/shard/shard_frontend.h"

#include <utility>

#include "src/shard/scatter_gather.h"
#include "src/util/check.h"

namespace mst {

namespace {

QueryOutcome ReadyOutcome(bool cancelled, bool rejected) {
  QueryOutcome out;
  out.cancelled = cancelled;
  out.rejected = rejected;
  return out;
}

std::future<QueryOutcome> ReadyFuture(bool cancelled, bool rejected) {
  std::promise<QueryOutcome> promise;
  std::future<QueryOutcome> future = promise.get_future();
  promise.set_value(ReadyOutcome(cancelled, rejected));
  return future;
}

}  // namespace

namespace {

// The per-shard static views of a built ShardedIndex, for delegation to the
// provider-based constructor.
std::vector<IndexViewProvider> StaticShardViews(const ShardedIndex* index) {
  MST_CHECK(index != nullptr);
  MST_CHECK(index->num_shards() >= 1);
  std::vector<IndexViewProvider> views;
  views.reserve(static_cast<size_t>(index->num_shards()));
  for (int s = 0; s < index->num_shards(); ++s) {
    const ShardedIndex::Shard& shard = index->shard(s);
    views.push_back(
        [view = MakeStaticIndexView(shard.index.get(), &shard.store)] {
          return view;
        });
  }
  return views;
}

}  // namespace

ShardFrontEnd::ShardFrontEnd(const ShardedIndex* index, const Options& options)
    : ShardFrontEnd(StaticShardViews(index), options) {
  index_ = index;
}

ShardFrontEnd::ShardFrontEnd(std::vector<IndexViewProvider> shard_views,
                             const Options& options)
    : index_(nullptr),
      options_(options),
      // The gather queue needs no extra backpressure of its own: admission
      // control plus the per-shard queues already bound the number of
      // outstanding queries, so size it to never block the fan-out path.
      gather_queue_(options.max_in_flight_queries > 0
                        ? static_cast<size_t>(options.max_in_flight_queries)
                        : 1024) {
  MST_CHECK(!shard_views.empty());
  executors_.reserve(shard_views.size());
  for (IndexViewProvider& provider : shard_views) {
    QueryExecutor::Options exec_opt;
    exec_opt.num_workers = 1;  // single-threaded shard stack
    exec_opt.queue_capacity = options.per_shard_queue_capacity;
    exec_opt.result_cache_entries = options.result_cache_entries;
    executors_.push_back(
        std::make_unique<QueryExecutor>(std::move(provider), exec_opt));
  }
  gather_thread_ = std::thread([this] { GatherLoop(); });
}

ShardFrontEnd::~ShardFrontEnd() { Shutdown(); }

std::future<QueryOutcome> ShardFrontEnd::Submit(QueryRequest request) {
  // Admission: take a slot inside the window, or block/reject at the edge.
  {
    std::unique_lock<std::mutex> lock(admission_mu_);
    if (shutdown_) return ReadyFuture(/*cancelled=*/true, /*rejected=*/false);
    if (options_.max_in_flight_queries > 0) {
      if (in_flight_ >= options_.max_in_flight_queries) {
        if (options_.admission_policy == AdmissionPolicy::kReject) {
          rejected_.fetch_add(1, std::memory_order_relaxed);
          return ReadyFuture(/*cancelled=*/false, /*rejected=*/true);
        }
        admission_cv_.wait(lock, [this] {
          return shutdown_ || in_flight_ < options_.max_in_flight_queries;
        });
        if (shutdown_) {
          return ReadyFuture(/*cancelled=*/true, /*rejected=*/false);
        }
      }
    }
    ++in_flight_;
  }

  GatherTask gather;
  gather.k = request.options.k;
  gather.legs.reserve(executors_.size());
  std::future<QueryOutcome> future = gather.promise.get_future();
  for (std::unique_ptr<QueryExecutor>& executor : executors_) {
    gather.legs.push_back(executor->Submit(request));
  }
  if (!gather_queue_.Push(std::move(gather))) {
    // Raced with Shutdown after fan-out: the legs will still drain inside
    // the shard executors, but nobody gathers them — resolve the caller as
    // cancelled and release the admission slot here.
    FinishQuery();
    return ReadyFuture(/*cancelled=*/true, /*rejected=*/false);
  }
  return future;
}

std::vector<QueryOutcome> ShardFrontEnd::RunBatch(
    const std::vector<QueryRequest>& requests) {
  std::vector<std::future<QueryOutcome>> futures;
  futures.reserve(requests.size());
  for (const QueryRequest& request : requests) {
    futures.push_back(Submit(request));
  }
  std::vector<QueryOutcome> outcomes;
  outcomes.reserve(requests.size());
  for (std::future<QueryOutcome>& future : futures) {
    outcomes.push_back(future.get());
  }
  return outcomes;
}

void ShardFrontEnd::GatherLoop() {
  while (std::optional<GatherTask> task = gather_queue_.Pop()) {
    std::vector<std::vector<MstResult>> shard_results;
    std::vector<MstStats> leg_stats;
    shard_results.reserve(task->legs.size());
    leg_stats.reserve(task->legs.size());
    bool cancelled = false;
    for (std::future<QueryOutcome>& leg : task->legs) {
      QueryOutcome out = leg.get();
      cancelled |= out.cancelled;
      shard_results.push_back(std::move(out.results));
      leg_stats.push_back(out.stats);
    }
    QueryOutcome out;
    if (cancelled) {
      // A shard executor dropped a leg (only possible during shutdown):
      // a partial merge would silently miss that shard's candidates.
      out.cancelled = true;
    } else {
      out.results = ScatterGatherSearch::MergeShardResults(
          std::move(shard_results), task->k);
      out.stats = ScatterGatherSearch::AggregateShardStats(leg_stats);
      completed_.fetch_add(1, std::memory_order_relaxed);
    }
    // Release the admission slot before resolving the future: a caller
    // whose future is ready must observe this query gone from in_flight().
    FinishQuery();
    task->promise.set_value(std::move(out));
  }
}

void ShardFrontEnd::FinishQuery() {
  {
    std::lock_guard<std::mutex> lock(admission_mu_);
    --in_flight_;
  }
  admission_cv_.notify_one();
}

int ShardFrontEnd::in_flight() const {
  std::lock_guard<std::mutex> lock(admission_mu_);
  return in_flight_;
}

void ShardFrontEnd::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(admission_mu_);
    shutdown_ = true;
  }
  admission_cv_.notify_all();
  // Order matters: the gather thread needs the shard executors alive while
  // it drains admitted queries, so close+join the gather side first, then
  // drain the executors (whose queues are empty by then — every admitted
  // leg was awaited by a gather task).
  gather_queue_.Close();
  std::lock_guard<std::mutex> lock(shutdown_mu_);
  if (gather_thread_.joinable()) gather_thread_.join();
  for (std::unique_ptr<QueryExecutor>& executor : executors_) {
    executor->Shutdown(QueryExecutor::DrainMode::kDrain);
  }
}

}  // namespace mst

#include "src/exec/query_executor.h"

#include <algorithm>
#include <utility>

#include "src/util/check.h"

namespace mst {

namespace {

QueryOutcome CancelledOutcome() {
  QueryOutcome out;
  out.cancelled = true;
  return out;
}

}  // namespace

IndexView MakeStaticIndexView(const TrajectoryIndex* index,
                              const TrajectorySource* store) {
  MST_CHECK(index != nullptr && store != nullptr);
  IndexView view;
  // Aliasing shared_ptrs with an empty owner: no lifetime management, the
  // caller's objects are simply addressed through the view type.
  view.main = std::shared_ptr<const TrajectoryIndex>(
      std::shared_ptr<const void>(), index);
  view.source = std::shared_ptr<const TrajectorySource>(
      std::shared_ptr<const void>(), store);
  return view;
}

QueryExecutor::QueryExecutor(const TrajectoryIndex* index,
                             const TrajectorySource* store,
                             const Options& options)
    : QueryExecutor(
          [view = MakeStaticIndexView(index, store)] { return view; },
          options) {}

QueryExecutor::QueryExecutor(IndexViewProvider provider,
                             const Options& options)
    : provider_(std::move(provider)),
      result_cache_(options.result_cache_entries),
      queue_(options.queue_capacity) {
  MST_CHECK(provider_ != nullptr);
  int workers = options.num_workers;
  if (workers <= 0) {
    workers = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
  }
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

QueryExecutor::~QueryExecutor() { Shutdown(DrainMode::kDrain); }

void QueryExecutor::WorkerLoop() {
  while (std::optional<Task> task = queue_.Pop()) {
    QueryOutcome out;
    MstOptions opts = task->request.options;
    // Cross-executor board (scatter-gather legs of one logical query):
    // seeded at dequeue time, so a leg queued behind earlier work starts
    // with every bound its siblings published while it waited. Sharing is
    // gated on exact_postprocess AND an exact traversal policy, at both
    // ends: only exact results are published (anything else wouldn't be a
    // sound bound), and only searches whose candidate bounds are built from
    // exact piece integrals consume a seed. Under an approximate policy
    // (trapezoid pieces) the traversal's OPTDISSIM-style bounds can
    // overestimate the exact value by the quadrature error, so an
    // exact-valued seed could prune a true top-k candidate — see
    // MstOptions::initial_kth_upper_bound. The search inflates the seed by
    // its relative slack internally.
    KthBoundBoard* const shard_board =
        opts.exact_postprocess && opts.policy == IntegrationPolicy::kExact
            ? task->request.kth_bound_board.get()
            : nullptr;
    if (shard_board != nullptr) {
      opts.initial_kth_upper_bound =
          std::min(opts.initial_kth_upper_bound, shard_board->Current());
    }
    // Resolve the view at dequeue time and pin it for this one search: a
    // concurrent append/merge publishes a new snapshot, never mutates this
    // one, so the query observes either all of a batch or none of it.
    const IndexView view = provider_();
    const BFMstSearch searcher(view.main.get(), view.source.get(),
                               &result_cache_, view.delta.get());
    out.results = searcher.Search(task->request.query, task->request.period,
                                  opts, &out.stats);
    if (shard_board != nullptr &&
        out.results.size() == static_cast<size_t>(opts.k)) {
      // Full reach only: with fewer than k results the kth value of this
      // leg's partition does not exist, and the largest returned value
      // bounds nothing (see KthBoundBoard's soundness contract).
      shard_board->Publish(out.results.back().dissim);
    }
    completed_.fetch_add(1, std::memory_order_relaxed);
    task->promise.set_value(std::move(out));
  }
}

std::future<QueryOutcome> QueryExecutor::Submit(QueryRequest request) {
  Task task(std::move(request));
  std::future<QueryOutcome> future = task.promise.get_future();
  if (shutdown_.load(std::memory_order_acquire)) {
    cancelled_.fetch_add(1, std::memory_order_relaxed);
    task.promise.set_value(CancelledOutcome());
    return future;
  }
  if (!queue_.Push(std::move(task))) {
    // Raced with a concurrent Shutdown: the queue dropped the task (and its
    // promise), so hand back a fresh, already-cancelled future instead.
    std::promise<QueryOutcome> promise;
    future = promise.get_future();
    cancelled_.fetch_add(1, std::memory_order_relaxed);
    promise.set_value(CancelledOutcome());
  }
  return future;
}

std::vector<QueryOutcome> QueryExecutor::RunBatch(
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

std::vector<QueryOutcome> QueryExecutor::RunBatch(
    const std::vector<Trajectory>& queries, int k,
    const MstOptions& base_options) {
  std::vector<QueryRequest> requests;
  requests.reserve(queries.size());
  MstOptions options = base_options;
  options.k = k;
  for (const Trajectory& query : queries) {
    requests.emplace_back(query, query.Lifespan(), options);
  }
  return RunBatch(requests);
}

void QueryExecutor::Shutdown(DrainMode mode) {
  shutdown_.store(true, std::memory_order_release);
  std::vector<Task> abandoned;
  if (mode == DrainMode::kCancelPending) {
    abandoned = queue_.CloseAndDrain();
  } else {
    queue_.Close();
  }
  for (Task& task : abandoned) {
    cancelled_.fetch_add(1, std::memory_order_relaxed);
    task.promise.set_value(CancelledOutcome());
  }
  std::lock_guard<std::mutex> lock(shutdown_mu_);
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

}  // namespace mst

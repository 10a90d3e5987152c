#include "serve/scheduler.hpp"

#include <algorithm>
#include <utility>

#include "core/error.hpp"
#include "harness/records.hpp"
#include "harness/runner.hpp"

namespace epgs::serve {

namespace {

/// Coalescing key: the canonical request text with the deadline zeroed.
/// Two requests coalesce exactly when they would execute the same sweep;
/// how long each client is willing to wait is per-waiter state.
std::string batch_key(const Request& req) {
  Request canonical = req;
  canonical.deadline_ms = 0;
  return render_request(canonical);
}

[[nodiscard]] bool has_timeout_rows(
    const std::vector<harness::RunRecord>& records) {
  return std::any_of(records.begin(), records.end(), [](const auto& r) {
    return r.outcome == Outcome::kTimeout;
  });
}

}  // namespace

Scheduler::Scheduler(GraphStore& store, Metrics& metrics, Options opts)
    : store_(store), metrics_(metrics), opts_(std::move(opts)) {
  worker_ = std::thread([this] { worker_loop(); });
}

Scheduler::~Scheduler() { stop(); }

Reply Scheduler::submit(const Request& req) {
  const Deadline deadline =
      Deadline::after(std::chrono::milliseconds(req.deadline_ms));
  if (deadline.expired()) {
    metrics_.add_rejected_deadline(1);
    return Reply{ReplyKind::kDeadline, "run",
                 "deadline expired before admission"};
  }

  std::future<Reply> future;
  {
    std::lock_guard<std::mutex> lk(mutex_);
    if (stopping_) {
      return Reply{ReplyKind::kShutdown, "run", "server is shutting down"};
    }
    auto waiter = std::make_unique<Waiter>();
    waiter->deadline = deadline;
    future = waiter->promise.get_future();

    const std::string key = batch_key(req);
    Batch* target = nullptr;
    for (auto& b : queue_) {
      if (b->key == key) {
        target = b.get();
        break;
      }
    }
    if (target != nullptr) {
      target->waiters.push_back(std::move(waiter));
      metrics_.add_coalesced(1);
    } else {
      if (queue_.size() >= opts_.queue_depth) {
        metrics_.add_rejected_overload();
        return Reply{ReplyKind::kOverloaded, "run",
                     "queue full (" + std::to_string(opts_.queue_depth) +
                         " batches); retry later"};
      }
      auto batch = std::make_unique<Batch>();
      batch->key = key;
      batch->request = req;
      batch->waiters.push_back(std::move(waiter));
      queue_.push_back(std::move(batch));
    }
  }
  cv_.notify_one();
  return future.get();
}

void Scheduler::stop() {
  std::vector<std::unique_ptr<Batch>> orphaned;
  {
    std::lock_guard<std::mutex> lk(mutex_);
    if (stopping_ && !worker_.joinable()) return;
    stopping_ = true;
    // Answer queued-but-unstarted batches here so no waiter blocks on a
    // worker that is about to exit.
    while (!queue_.empty()) {
      orphaned.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
  }
  cv_.notify_all();
  const Reply bye{ReplyKind::kShutdown, "run", "server is shutting down"};
  for (auto& batch : orphaned) finish_all(*batch, bye);
  if (worker_.joinable()) worker_.join();
}

void Scheduler::worker_loop() {
  for (;;) {
    std::unique_ptr<Batch> batch;
    {
      std::unique_lock<std::mutex> lk(mutex_);
      cv_.wait(lk, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_, drained by stop()
      batch = std::move(queue_.front());
      queue_.pop_front();
    }
    execute(*batch);
  }
}

void Scheduler::execute(Batch& batch) {
  // Expired-in-queue waiters get their typed answer without paying for an
  // execution their client has already abandoned.
  std::vector<std::unique_ptr<Waiter>> live;
  for (auto& w : batch.waiters) {
    if (w->deadline.expired()) {
      metrics_.add_rejected_deadline(1);
      metrics_.record_latency(w->turnaround.seconds());
      w->promise.set_value(Reply{ReplyKind::kDeadline, "run",
                                 "deadline expired while queued"});
    } else {
      live.push_back(std::move(w));
    }
  }
  batch.waiters = std::move(live);
  if (batch.waiters.empty()) return;

  // The attempt inherits the waiters' budget: the latest live deadline
  // bounds the attempt, so a hung kernel is cancelled the moment the last
  // interested client has given up. Any unbounded waiter keeps the base
  // (possibly disabled) timeout.
  harness::SupervisorOptions sup = opts_.supervisor;
  bool all_bounded = true;
  double max_remaining = 0.0;
  for (const auto& w : batch.waiters) {
    if (!w->deadline.enabled()) {
      all_bounded = false;
      break;
    }
    max_remaining = std::max(max_remaining, w->deadline.remaining_seconds());
  }
  if (all_bounded) {
    sup.timeout_seconds = sup.timeout_seconds > 0.0
                              ? std::min(sup.timeout_seconds, max_remaining)
                              : max_remaining;
  }

  metrics_.add_batch();
  try {
    const std::shared_ptr<const ResidentGraph> graph =
        store_.acquire(batch.request.graph);

    harness::ExperimentConfig cfg;
    cfg.graph = batch.request.graph;
    cfg.systems = {batch.request.system};
    cfg.algorithms = {batch.request.algorithm};
    cfg.num_roots = batch.request.roots;
    cfg.threads = batch.request.threads;
    cfg.validate = opts_.validate;
    cfg.supervisor = sup;

    harness::StagedDataset staged;
    staged.edges = &graph->edges;
    staged.files = graph->files ? &*graph->files : nullptr;
    staged.cache_hit = graph->from_cache_hit;
    staged.pool = &graph->systems;

    const harness::ExperimentResult result =
        harness::run_experiment(cfg, staged);
    metrics_.add_builds(static_cast<std::uint64_t>(result.systems_built),
                        static_cast<std::uint64_t>(result.systems_reused));
    store_.charge_systems(*graph);
    const bool timed_out = has_timeout_rows(result.records);
    const std::string csv = harness::records_to_csv(result.records);

    for (auto& w : batch.waiters) {
      metrics_.record_latency(w->turnaround.seconds());
      if (timed_out && w->deadline.expired()) {
        metrics_.add_rejected_deadline(1);
        w->promise.set_value(Reply{ReplyKind::kDeadline, "run",
                                   "run cancelled at deadline"});
      } else {
        metrics_.add_served(1);
        w->promise.set_value(Reply{ReplyKind::kOk, "run", csv});
      }
    }
  } catch (const EpgsError& e) {
    finish_all(batch, Reply{ReplyKind::kConfig, "run", e.what()});
  } catch (const std::exception& e) {
    finish_all(batch, Reply{ReplyKind::kInternal, "run", e.what()});
  }
}

void Scheduler::finish_all(Batch& batch, const Reply& reply) {
  for (auto& w : batch.waiters) {
    metrics_.record_latency(w->turnaround.seconds());
    if (reply.kind == ReplyKind::kOk) {
      metrics_.add_served(1);
    } else if (reply.kind == ReplyKind::kDeadline) {
      metrics_.add_rejected_deadline(1);
    } else if (reply.kind == ReplyKind::kConfig ||
               reply.kind == ReplyKind::kInternal) {
      metrics_.add_error(1);
    }
    w->promise.set_value(reply);
  }
  batch.waiters.clear();
}

}  // namespace epgs::serve

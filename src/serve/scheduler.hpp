// Batched request scheduling with admission control.
//
// Run requests land in a bounded FIFO of *batches*. A request whose
// (graph, system, algorithm, roots, threads) matches a batch still
// waiting in the queue coalesces onto it — one kernel execution answers
// every waiter — which is the serving-regime payoff of the paper's
// observation that identical trials are deterministic given the same
// staged data. A full queue rejects new work with a typed `overloaded`
// reply (admission control: the client is told, never silently dropped).
//
// One worker thread drains the queue. Kernels parallelise internally via
// OpenMP, so a second in-flight batch would only fight the first for
// cores; single-file execution also makes latency attribution clean
// (queue wait vs execution shows up directly in the histogram tails).
//
// Deadlines are enforced at every hand-off: expired waiters are answered
// `deadline` without (or despite) execution, and the live waiters'
// remaining budget bounds the trial's timeout so a hung kernel is
// cooperatively cancelled rather than blocking the queue forever.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/cancellation.hpp"
#include "core/timer.hpp"
#include "harness/experiment.hpp"
#include "serve/graph_session.hpp"
#include "serve/metrics.hpp"
#include "serve/protocol.hpp"

namespace epgs::serve {

class Scheduler {
 public:
  struct Options {
    /// Maximum batches waiting in the queue (the executing batch does not
    /// count). Beyond this, admission control rejects.
    std::size_t queue_depth = 16;
    /// Base supervisor configuration for every served run. The attempt
    /// timeout is overridden per batch from the waiters' deadlines.
    harness::SupervisorOptions supervisor;
    /// Validate served results against the reference oracles.
    bool validate = false;
  };

  Scheduler(GraphStore& store, Metrics& metrics, Options opts);
  ~Scheduler();

  /// Execute (or coalesce) a run request and block until its reply is
  /// ready. Called from per-connection threads; thread-safe.
  [[nodiscard]] Reply submit(const Request& req);

  /// Stop the worker: queued batches are answered with `shutdown`
  /// replies, the in-flight batch (if any) finishes, and the worker
  /// joins. Idempotent.
  void stop();

 private:
  struct Waiter {
    Deadline deadline;
    WallTimer turnaround;  ///< submit -> reply, queue wait included
    std::promise<Reply> promise;
  };

  struct Batch {
    std::string key;  ///< canonical request text, deadline zeroed
    Request request;  ///< first request; coalesced peers are identical
    std::vector<std::unique_ptr<Waiter>> waiters;
  };

  void worker_loop();
  void execute(Batch& batch);
  /// Answer every waiter still in `batch` with `reply`, recording
  /// turnaround latency.
  void finish_all(Batch& batch, const Reply& reply);

  GraphStore& store_;
  Metrics& metrics_;
  Options opts_;

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::unique_ptr<Batch>> queue_;
  bool stopping_ = false;
  std::thread worker_;
};

}  // namespace epgs::serve

// The `epg serve` daemon: a Unix-domain-socket front end over the graph
// store and the batching scheduler.
//
// One accept thread hands each connection to its own thread (connections
// are cheap; kernel execution is serialized by the scheduler anyway). A
// finished connection thread is joined at the next accept, so a
// long-running server keeps one thread stack per live connection, not
// one per connection ever served.
// Connections speak the length-prefixed protocol from protocol.hpp and
// may issue any number of requests before closing. A malformed frame or
// request is answered with a typed `protocol` error and the connection
// keeps serving — one confused client must never take the daemon down.
//
// Shutdown has two triggers with one path: a client `shutdown` request,
// or the CLI observing SIGINT/SIGTERM (the PR-6 interrupt plumbing) and
// calling stop(). Both drain to the same graceful sequence — close the
// listener, unblock and join every connection, stop the scheduler
// (queued work answered with `shutdown` replies) — after which the CLI
// prints the final metrics snapshot.
#pragma once

#include <condition_variable>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "serve/graph_session.hpp"
#include "serve/metrics.hpp"
#include "serve/protocol.hpp"
#include "serve/scheduler.hpp"

namespace epgs::serve {

struct ServerOptions {
  std::string socket_path;
  std::size_t queue_depth = 16;
  /// Graph-store residency budget in bytes; 0 = unbounded.
  std::uint64_t max_resident_bytes = 0;
  harness::DatasetOptions dataset;
  harness::SupervisorOptions supervisor;
  bool validate = false;
};

class Server {
 public:
  /// Bind + listen + start the accept thread. Throws IoError when the
  /// socket path is unusable or another server is already live on it (a
  /// stale socket file left by a dead server is reclaimed).
  explicit Server(ServerOptions opts);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Block until a client `shutdown` request arrives (returns true) or
  /// `interrupted` returns true (polled ~20x/s; returns false). Either
  /// way the caller still owns the stop() + metrics-dump sequence.
  [[nodiscard]] bool wait(const std::function<bool()>& interrupted);

  /// Graceful stop: close the listener, unblock + join every connection,
  /// stop the scheduler. Idempotent; called by the destructor if the
  /// caller has not already.
  void stop();

  /// Full metrics snapshot: counters + latency quantiles + graph-store
  /// residency.
  [[nodiscard]] MetricsSnapshot snapshot() const;

  [[nodiscard]] const std::string& socket_path() const {
    return opts_.socket_path;
  }

 private:
  /// One client connection. `done` is set under mutex_ as the thread's
  /// last action, after the socket is closed; the accept loop then joins
  /// and drops the entry.
  struct Connection {
    Connection() = default;
    Connection(const Connection&) = delete;  // its thread holds &this
    Connection& operator=(const Connection&) = delete;

    int fd = -1;
    bool done = false;
    std::thread thread;
  };

  void accept_loop();
  void serve_connection(int fd);
  /// Dispatch one parsed request; run goes through the scheduler.
  [[nodiscard]] Reply dispatch(const Request& req);

  ServerOptions opts_;
  Metrics metrics_;
  GraphStore store_;
  std::unique_ptr<Scheduler> scheduler_;

  int listen_fd_ = -1;
  std::thread accept_thread_;

  std::mutex mutex_;
  std::condition_variable cv_;
  bool shutdown_requested_ = false;  ///< a client asked us to stop
  bool stopping_ = false;
  /// A list, so a running thread's entry never moves.
  std::list<Connection> connections_;
};

}  // namespace epgs::serve

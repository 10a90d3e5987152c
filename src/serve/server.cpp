#include "serve/server.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "core/error.hpp"

namespace epgs::serve {

namespace {

void close_quietly(int fd) {
  if (fd >= 0) ::close(fd);
}

/// Bind + listen on `path`. A socket file nobody answers on (a dead
/// server's leftover) is unlinked and reclaimed; a live server is an
/// error — two daemons on one path would steal each other's clients.
int bind_and_listen(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw IoError("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw IoError("socket(): " + std::string(std::strerror(errno)));

  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    if (errno != EADDRINUSE) {
      const int err = errno;
      close_quietly(fd);
      throw IoError("bind(" + path + "): " + std::strerror(err));
    }
    // Address in use: probe it. ECONNREFUSED means stale file.
    const int probe = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    const bool live =
        probe >= 0 && ::connect(probe, reinterpret_cast<const sockaddr*>(
                                           &addr),
                                sizeof(addr)) == 0;
    close_quietly(probe);
    if (live) {
      close_quietly(fd);
      throw IoError("another server is already serving on " + path);
    }
    ::unlink(path.c_str());
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      const int err = errno;
      close_quietly(fd);
      throw IoError("bind(" + path + "): " + std::strerror(err));
    }
  }
  if (::listen(fd, 64) != 0) {
    const int err = errno;
    close_quietly(fd);
    ::unlink(path.c_str());
    throw IoError("listen(" + path + "): " + std::strerror(err));
  }
  return fd;
}

}  // namespace

Server::Server(ServerOptions opts)
    : opts_(std::move(opts)),
      store_(opts_.dataset, opts_.max_resident_bytes, metrics_) {
  Scheduler::Options sched;
  sched.queue_depth = opts_.queue_depth;
  sched.supervisor = opts_.supervisor;
  sched.validate = opts_.validate;
  scheduler_ = std::make_unique<Scheduler>(store_, metrics_, sched);

  listen_fd_ = bind_and_listen(opts_.socket_path);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

Server::~Server() { stop(); }

bool Server::wait(const std::function<bool()>& interrupted) {
  std::unique_lock<std::mutex> lk(mutex_);
  for (;;) {
    if (shutdown_requested_) return true;
    if (interrupted && interrupted()) return false;
    cv_.wait_for(lk, std::chrono::milliseconds(50));
  }
}

void Server::stop() {
  std::list<Connection> conns;
  {
    std::lock_guard<std::mutex> lk(mutex_);
    if (stopping_) {
      // Already stopped (or stopping on another thread, which joins the
      // connections itself).
      return;
    }
    stopping_ = true;
    // Unblock the accept loop: shutdown() makes a blocked accept()
    // return, then the loop observes stopping_ and exits.
    if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
    // Unblock every connection read so the threads can drain and exit.
    for (const Connection& c : connections_) {
      if (!c.done) ::shutdown(c.fd, SHUT_RDWR);
    }
    conns = std::move(connections_);
  }
  cv_.notify_all();
  if (accept_thread_.joinable()) accept_thread_.join();
  // Scheduler before the connection joins: a connection thread may be
  // blocked inside submit() waiting on a queued batch, and only the
  // scheduler's stop answers those waiters (with `shutdown` replies).
  // Late submits from threads mid-drain get an immediate shutdown reply.
  scheduler_->stop();
  for (Connection& c : conns) c.thread.join();
  close_quietly(listen_fd_);
  listen_fd_ = -1;
  ::unlink(opts_.socket_path.c_str());
}

MetricsSnapshot Server::snapshot() const {
  MetricsSnapshot s = metrics_.snapshot();
  s.resident_bytes = store_.resident_bytes();
  s.graphs = store_.residency();
  return s;
}

void Server::accept_loop() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    {
      std::lock_guard<std::mutex> lk(mutex_);
      if (stopping_) {
        close_quietly(fd);
        return;
      }
      if (fd < 0) {
        if (errno == EINTR || errno == ECONNABORTED) continue;
        // Listener broken outside a requested stop: nothing to accept
        // with; existing connections keep serving until stop().
        return;
      }
      // A done thread holds no lock and has nothing left but to return,
      // so the join is brief; joining before the next spawn lets the new
      // thread reuse the finished one's stack.
      std::erase_if(connections_, [](Connection& c) {
        if (c.done) c.thread.join();
        return c.done;
      });
      Connection& c = connections_.emplace_back();
      c.fd = fd;
      c.thread = std::thread([this, &c] {
        serve_connection(c.fd);
        std::lock_guard<std::mutex> done_lk(mutex_);
        close_quietly(c.fd);
        c.done = true;
      });
    }
  }
}

void Server::serve_connection(int fd) {
  for (;;) {
    Reply reply;
    bool requested_shutdown = false;
    try {
      const std::optional<std::string> payload = read_frame(fd);
      if (!payload) break;  // clean EOF at a frame boundary
      try {
        const Request req = parse_request(*payload);
        requested_shutdown = req.verb == Verb::kShutdown;
        reply = dispatch(req);
      } catch (const ProtocolError& e) {
        // Malformed *request* in a well-formed frame: typed reply, keep
        // the connection.
        metrics_.add_protocol_error();
        reply = Reply{ReplyKind::kProtocol, "", e.what()};
      }
    } catch (const ProtocolError&) {
      // Malformed *frame*: the stream is out of sync, so no reply can be
      // framed reliably. Count it and drop the connection; the server
      // keeps serving everyone else.
      metrics_.add_protocol_error();
      break;
    } catch (const EpgsError&) {
      break;  // read error / peer vanished
    }

    try {
      write_frame(fd, render_reply(reply));
    } catch (const EpgsError&) {
      break;  // peer gone before the reply landed
    }
    if (requested_shutdown) {
      // Reply delivered; now wake wait(). stop() runs on the waiter's
      // thread, never this one (a connection thread cannot join itself).
      std::lock_guard<std::mutex> lk(mutex_);
      shutdown_requested_ = true;
      cv_.notify_all();
    }
  }
}

Reply Server::dispatch(const Request& req) {
  switch (req.verb) {
    case Verb::kPing:
      return Reply{ReplyKind::kOk, "ping", "pong"};
    case Verb::kStats:
      return Reply{ReplyKind::kOk, "stats", render_metrics(snapshot())};
    case Verb::kShutdown:
      return Reply{ReplyKind::kOk, "shutdown", "stopping"};
    case Verb::kRun:
      return scheduler_->submit(req);
  }
  return Reply{ReplyKind::kInternal, "", "unreachable verb"};
}

}  // namespace epgs::serve

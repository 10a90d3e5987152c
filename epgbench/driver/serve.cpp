// Serve workload (serve-s14): an in-process serve::Server on a Unix
// socket, driven by one closed-loop client that opens a new connection per
// query, the way `epg query` scripts do.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "serve/graph_session.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace epgbench {

using namespace epgs;
using harness::Algorithm;

namespace {

constexpr const char* kSocket = "serve.sock";

/// The request classes of the fixed mix and how often each appears in
/// one pass. The weights keep every percentile the benchmark reports off
/// a class boundary: sorted by latency (Graph500 BFS, GAP and Ligra BFS,
/// GraphMat BFS, PageRank), the median falls in the middle of GraphMat BFS
/// and p90 inside PageRank, so neither flips between two classes.
/// Class -1 is the injected bad request.
struct RequestClass {
  const char* system;
  Algorithm algorithm;
  int per_pass;
};
constexpr RequestClass kClasses[] = {
    {"GAP", Algorithm::kBfs, 4},      {"Graph500", Algorithm::kBfs, 3},
    {"Ligra", Algorithm::kBfs, 4},    {"GraphMat", Algorithm::kBfs, 8},
    {"GAP", Algorithm::kPageRank, 5}, {"Ligra", Algorithm::kPageRank, 5},
};
constexpr int kNumClasses = static_cast<int>(std::size(kClasses));
constexpr int kPassLength = [] {
  int n = 0;
  for (const auto& c : kClasses) n += c.per_pass;
  return n;
}();

std::string class_name(int cls) {
  if (cls < 0) return "bad-request";
  return std::string(kClasses[cls].system) + "." +
         std::string(harness::algorithm_name(kClasses[cls].algorithm));
}

serve::Request make_request(const harness::GraphSpec& spec, int cls) {
  serve::Request req;
  req.verb = serve::Verb::kRun;
  req.graph = spec;
  req.system = cls < 0 ? "NoSuchSystem" : kClasses[cls].system;
  req.algorithm = cls < 0 ? Algorithm::kBfs : kClasses[cls].algorithm;
  req.roots = 1;
  req.threads = 1;
  return req;
}

/// What the scheduler runs for a request (serve/scheduler.cpp), so a
/// direct run_experiment of it is the reply's reference.
harness::ExperimentConfig request_config(const serve::Request& req) {
  harness::ExperimentConfig cfg;
  cfg.graph = req.graph;
  cfg.systems = {req.system};
  cfg.algorithms = {req.algorithm};
  cfg.num_roots = req.roots;
  cfg.threads = req.threads;
  return cfg;
}

/// Fixed, seeded request sequence: every pass holds each class its
/// per_pass times, so the mix never changes, only the order.
std::vector<int> request_sequence(const ServeParams& p) {
  Xoshiro256 rng(p.seed ^ 0x5E4Eull);
  std::vector<int> seq;
  for (int pass = 0; pass < p.passes; ++pass) {
    std::vector<int> one;
    for (int c = 0; c < kNumClasses; ++c) {
      one.insert(one.end(), static_cast<std::size_t>(kClasses[c].per_pass),
                 c);
    }
    for (std::size_t i = one.size(); i > 1; --i) {
      std::swap(one[i - 1], one[rng.uniform_u64(i)]);
    }
    seq.insert(seq.end(), one.begin(), one.end());
  }
  if (p.inject_bad_request) {
    seq.insert(seq.begin() + static_cast<std::ptrdiff_t>(
                                 rng.uniform_u64(seq.size() + 1)),
               -1);
  }
  return seq;
}

struct Fd {
  int fd = -1;
  ~Fd() {
    if (fd >= 0) ::close(fd);
  }
};

/// One query round trip as the client sees it.
struct Exchange {
  int cls = 0;
  serve::Reply reply;
  std::string io_error;
  double total_s = 0.0;
  double connect_s = 0.0;
  double protocol_s = 0.0;
};

Exchange query(const serve::Request& req, int cls, Tracer* tr,
               const std::string& request_id) {
  Exchange ex;
  ex.cls = cls;
  const Clock::time_point t0 = Clock::now();
  auto whole = span(tr, "serve.request", request_id);
  try {
    Fd sock;
    {
      auto s = span(tr, "serve.connect", request_id);
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      std::memcpy(addr.sun_path, kSocket, std::strlen(kSocket) + 1);
      sock.fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
      if (sock.fd < 0 ||
          ::connect(sock.fd, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof addr) != 0) {
        throw IoError(std::string("connect: ") + std::strerror(errno));
      }
      ex.connect_s = s.close();
    }
    std::string payload;
    {
      auto s = span(tr, "serve.protocol", request_id);
      payload = serve::render_request(req);
      ex.protocol_s += s.close();
    }
    std::optional<std::string> frame;
    {
      const auto s = span(tr, "serve.exchange", request_id);
      serve::write_frame(sock.fd, payload);
      frame = serve::read_frame(sock.fd);
    }
    if (!frame) throw IoError("server closed the connection");
    auto s = span(tr, "serve.protocol", request_id);
    ex.reply = serve::parse_reply(*frame);
    ex.protocol_s += s.close();
  } catch (const std::exception& e) {
    ex.io_error = e.what();
  }
  ex.total_s = seconds_since(t0);
  return ex;
}

/// Send `seq` in a closed loop; returns the wall time of each pass.
std::vector<double> send_all(const std::vector<int>& seq,
                             const harness::GraphSpec& spec, Tracer* tr,
                             std::vector<Exchange>& out) {
  std::vector<double> pass_s;
  Clock::time_point pass_start = Clock::now();
  int in_pass = 0;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    out.push_back(query(make_request(spec, seq[i]), seq[i], tr,
                        "q" + std::to_string(out.size())));
    if (seq[i] >= 0 && ++in_pass == kPassLength) {
      pass_s.push_back(seconds_since(pass_start));
      pass_start = Clock::now();
      in_pass = 0;
    }
  }
  return pass_s;
}

/// Every reply must be ok, hold only successful rows, and match a direct
/// run_experiment of the same request once timing and provenance
/// columns are stripped.
void check_replies(const std::vector<Exchange>& exchanges,
                   const harness::GraphSpec& spec, const EdgeList& edges,
                   Tally& tally) {
  harness::StagedDataset staged;
  staged.edges = &edges;
  std::map<int, std::string> expected;
  auto reference = [&](int cls) -> const std::string& {
    auto it = expected.find(cls);
    if (it == expected.end()) {
      it = expected
               .emplace(cls, harness::records_to_stripped_csv(
                                 harness::run_experiment(
                                     request_config(make_request(spec, cls)),
                                     staged)
                                     .records))
               .first;
    }
    return it->second;
  };
  for (const Exchange& ex : exchanges) {
    ++tally.attempted;
    const std::string what = class_name(ex.cls);
    if (!ex.io_error.empty()) {
      tally.fail(what + ": " + ex.io_error);
      continue;
    }
    if (ex.reply.kind != serve::ReplyKind::kOk) {
      tally.fail(what + ": error " +
                 std::string(serve::reply_kind_name(ex.reply.kind)) + " " +
                 ex.reply.body);
      continue;
    }
    try {
      const auto records = harness::records_from_csv(ex.reply.body);
      const bool all_ok =
          std::all_of(records.begin(), records.end(), [](const auto& r) {
            return r.outcome == Outcome::kSuccess;
          });
      if (!all_ok) {
        tally.fail(what + ": reply holds a non-success row");
      } else if (ex.cls < 0 ||
                 harness::records_to_stripped_csv(records) !=
                     reference(ex.cls)) {
        tally.fail(what + ": reply differs from a direct run_experiment");
      }
    } catch (const std::exception& e) {
      tally.fail(what + ": unparseable reply: " + e.what());
    }
  }
}

}  // namespace

void run_serve(const ServeParams& p, JsonObject& out, Tally& tally) {
  const harness::GraphSpec spec = graph_spec(p.scale, p.seed);
  const bool traced = !p.trace_dir.empty();
  serve::ServerOptions opts;  // the `epg serve` defaults
  opts.socket_path = kSocket;

  // Set-up: server start plus the cold load (the first query pays it).
  std::vector<Exchange> exchanges;
  const Clock::time_point t0 = Clock::now();
  auto server = std::make_unique<serve::Server>(opts);
  exchanges.push_back(query(make_request(spec, 0), 0, nullptr, ""));
  out.numbers("setup_s", {seconds_since(t0)});

  // Measured: the fixed request sequence, one connection per query.
  const std::vector<int> seq = request_sequence(p);
  const std::size_t first = exchanges.size();
  const std::vector<double> wall_s =
      send_all(seq, spec, nullptr, exchanges);
  std::vector<double> latency_ms;
  for (std::size_t i = first; i < exchanges.size(); ++i) {
    latency_ms.push_back(exchanges[i].total_s * 1e3);
  }
  out.numbers("wall_s", wall_s);
  out.numbers("latency_ms", latency_ms);
  const ProcStatus measured = read_proc_status();
  out.integer("vm_hwm_kb", measured.vm_hwm_kb);
  out.integer("vm_peak_kb", measured.vm_peak_kb);

  if (!traced) {
    server.reset();
    check_replies(exchanges, spec, harness::materialize(spec), tally);
    return;
  }

  // Traced: the same sequence again with client-side spans, then a replay
  // of what the server does per request through the public functions.
  Tracer tracer;
  std::map<std::string, double> layers;
  const std::uint64_t vm_before = read_proc_status().vm_size_kb;
  const std::size_t traced_first = exchanges.size();
  const std::vector<double> traced_wall =
      send_all(seq, spec, &tracer, exchanges);
  const std::uint64_t vm_after = read_proc_status().vm_size_kb;
  const std::size_t traced_n = exchanges.size() - traced_first;
  const serve::MetricsSnapshot snap = server->snapshot();
  server.reset();

  for (std::size_t i = 0; i < wall_s.size(); ++i) {
    layers["trace.overhead_s"] += traced_wall[i] - wall_s[i];
  }
  layers["serve.vm_per_conn_kb"] =
      static_cast<double>(vm_after - vm_before) / static_cast<double>(traced_n);
  layers["serve.warm_hits"] = static_cast<double>(snap.warm_hits);
  layers["serve.cold_loads"] = static_cast<double>(snap.cold_loads);
  layers["serve.batches"] = static_cast<double>(snap.batches);
  layers["serve.coalesced"] = static_cast<double>(snap.coalesced);
  layers["serve.rejected"] =
      static_cast<double>(snap.rejected_overload + snap.rejected_deadline);

  // Replay: a cold load, then one pass of the mix: warm acquire,
  // run_experiment on the acquired graph, and that run's children.
  serve::Metrics store_metrics;
  serve::GraphStore store(harness::DatasetOptions{}, 0, store_metrics);
  {
    const auto s = span(&tracer, "harness.prepare");
    (void)store.acquire(spec);
  }
  replay_set_up(spec, "", tracer, layers);
  std::vector<std::vector<double>> run_by_class(kNumClasses);
  double attempts = 0.0;
  for (int i = 0; i < kPassLength; ++i) {
    const int cls = seq[static_cast<std::size_t>(i)];
    if (cls < 0) continue;
    const std::string rid = "replay" + std::to_string(i);
    std::shared_ptr<const serve::ResidentGraph> graph;
    {
      const auto s = span(&tracer, "serve.acquire", rid);
      graph = store.acquire(spec);
    }
    const harness::ExperimentConfig cfg =
        request_config(make_request(spec, cls));
    harness::StagedDataset staged;
    staged.edges = &graph->edges;
    {
      auto s = span(&tracer, "serve.run", rid);
      const harness::ExperimentResult result =
          harness::run_experiment(cfg, staged);
      run_by_class[static_cast<std::size_t>(cls)].push_back(s.close());
      attempts += static_cast<double>(count_attempts(result));
    }
    replay_run_experiment(cfg, staged, tracer, layers, tally);
  }
  for (const auto& [name, secs] : span_totals(tracer)) layers[name] = secs;
  layers["harness.attempts"] = attempts;
  double replayed = 0.0;
  for (const auto& r : tracer.rows_under("harness.replay")) {
    replayed += r.self_s;
  }
  layers["harness.unattributed_s"] = layers["serve.run_s"] - replayed;

  // Per request: round trip minus connect, protocol, and the replayed
  // acquire and run of its class.
  const double acquire_s = median(tracer.durations("serve.acquire"));
  std::vector<double> run_med(kNumClasses);
  for (int c = 0; c < kNumClasses; ++c) {
    run_med[static_cast<std::size_t>(c)] =
        median(run_by_class[static_cast<std::size_t>(c)]);
    layers["serve.run." + class_name(c) + "_ms"] =
        run_med[static_cast<std::size_t>(c)] * 1e3;
  }
  std::vector<double> connect, protocol, rest;
  std::vector<Tracer::Row> rows(4);
  rows[0].name = "serve.connect";
  rows[1].name = "serve.protocol";
  rows[2].name = "serve.acquire";
  rows[3].name = "serve.run";
  double round_trips = 0.0;
  for (std::size_t i = traced_first; i < exchanges.size(); ++i) {
    const Exchange& ex = exchanges[i];
    if (ex.cls < 0) continue;
    const double run = run_med[static_cast<std::size_t>(ex.cls)];
    connect.push_back(ex.connect_s);
    protocol.push_back(ex.protocol_s);
    rest.push_back(ex.total_s - ex.connect_s - ex.protocol_s - acquire_s -
                   run);
    round_trips += ex.total_s;
    rows[0].self_s += ex.connect_s;
    rows[1].self_s += ex.protocol_s;
    rows[2].self_s += acquire_s;
    rows[3].self_s += run;
  }
  for (auto& r : rows) {
    r.calls = connect.size();
    r.total_s = r.self_s;
  }
  layers["serve.connect_ms"] = median(connect) * 1e3;
  layers["serve.protocol_us"] = median(protocol) * 1e6;
  layers["serve.acquire_ms"] = acquire_s * 1e3;
  layers["serve.run_ms"] = median(tracer.durations("serve.run")) * 1e3;
  layers["serve.unattributed_ms"] = median(rest) * 1e3;
  out.number("table_unattributed_s",
             write_layer_table(p.trace_dir + "/layers.tsv", rows, round_trips,
                               "the traced query round trips"));
  tracer.write_chrome(p.trace_dir + "/trace.json");
  out.numbers_map("layers", layers);
  check_replies(exchanges, spec, store.acquire(spec)->edges, tally);
}

}  // namespace epgbench

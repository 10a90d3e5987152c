// Query-service latency microbenchmark.
//
// Quantifies the two wins `epg serve` exists for: (1) keeping graphs
// warm, and the systems built on them — a repeat query skips
// materialize, staging and construction, pays only its kernel, and
// should be far cheaper than the cold first hit; (2) coalescing — eight
// clients firing the identical request while the worker is busy should
// collapse into far fewer kernel executions than eight.
//
// Runs an in-process server on a temp-dir Unix socket, times the cold
// query, warm-query distributions for GAP PageRank and GAP BFS (both run
// on the GAP system the cold query built), and an 8-client concurrent
// burst, then writes a JSON summary (argv[1], default
// results_serve.json) for the non-blocking perf smoke, with the
// server's builds paid and reused. Knobs: EPGS_SCALE (graph size),
// EPGS_ROOTS (warm repetitions).
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/timer.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace fs = std::filesystem;
using namespace epgs;

namespace {

serve::Request run_request(int scale, std::uint64_t seed,
                           harness::Algorithm algorithm) {
  serve::Request req;
  req.verb = serve::Verb::kRun;
  req.graph.kind = harness::GraphSpec::Kind::kKronecker;
  req.graph.scale = scale;
  req.graph.edgefactor = 16;
  req.graph.seed = seed;
  req.graph.symmetrize = true;
  req.graph.deduplicate = true;
  req.system = "GAP";
  req.algorithm = algorithm;
  req.roots = 1;
  req.threads = 1;
  return req;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  return v[std::min(idx, v.size() - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "results_serve.json";
  const int scale = std::min(bench::bench_scale(), 12);
  const int warm_reps = std::max(bench::bench_roots(), 4);
  constexpr int kClients = 8;

  bench::print_header("epg serve: cold vs warm query latency + coalescing",
                      "serving-layer addition (not a paper figure)");

  const fs::path dir =
      fs::temp_directory_path() /
      ("epgs_bench_serve_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  serve::ServerOptions opts;
  opts.socket_path = (dir / "epg.sock").string();
  opts.queue_depth = 2 * kClients;
  serve::Server server(opts);

  using harness::Algorithm;
  const std::string payload =
      serve::render_request(run_request(scale, 7, Algorithm::kPageRank));
  const std::string bfs_payload =
      serve::render_request(run_request(scale, 7, Algorithm::kBfs));

  // Cold: first hit pays generation, staging and the build.
  WallTimer cold_timer;
  const auto cold = serve::query_server(opts.socket_path, payload);
  const double cold_ms = cold_timer.seconds() * 1e3;
  if (cold.kind != serve::ReplyKind::kOk) {
    std::fprintf(stderr, "cold query failed: %s\n", cold.body.c_str());
    return 1;
  }

  // Warm: the graph and its built GAP system are resident; only the
  // kernel runs. Empty on a failed query.
  auto warm_latencies = [&](const std::string& query) {
    std::vector<double> ms;
    for (int i = 0; i < warm_reps; ++i) {
      WallTimer t;
      const auto r = serve::query_server(opts.socket_path, query);
      if (r.kind != serve::ReplyKind::kOk) {
        std::fprintf(stderr, "warm query failed: %s\n", r.body.c_str());
        return std::vector<double>{};
      }
      ms.push_back(t.seconds() * 1e3);
    }
    return ms;
  };
  const std::vector<double> warm_ms = warm_latencies(payload);
  const std::vector<double> warm_bfs_ms = warm_latencies(bfs_payload);
  if (warm_ms.empty() || warm_bfs_ms.empty()) return 1;

  // Burst: identical requests from concurrent clients coalesce onto
  // queued batches instead of running eight kernels.
  const auto before = server.snapshot();
  WallTimer burst_timer;
  std::vector<std::thread> clients;
  std::vector<serve::Reply> replies(kClients);
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      replies[static_cast<std::size_t>(c)] =
          serve::query_server(opts.socket_path, payload);
    });
  }
  for (auto& t : clients) t.join();
  const double burst_ms = burst_timer.seconds() * 1e3;
  for (const auto& r : replies) {
    if (r.kind != serve::ReplyKind::kOk) {
      std::fprintf(stderr, "burst query failed: %s\n", r.body.c_str());
      return 1;
    }
  }
  const auto after = server.snapshot();
  const auto burst_batches = after.batches - before.batches;
  const auto burst_coalesced = after.coalesced - before.coalesced;
  server.stop();

  const double warm_median = quantile(warm_ms, 0.50);
  const double warm_p95 = quantile(warm_ms, 0.95);
  const double warm_bfs_median = quantile(warm_bfs_ms, 0.50);
  const double warm_bfs_p95 = quantile(warm_bfs_ms, 0.95);
  std::printf("cold           %.3f ms (generation + staging + build + "
              "kernel)\n",
              cold_ms);
  std::printf("warm PageRank  %.3f ms median over %d reps (p95 %.3f ms)\n",
              warm_median, warm_reps, warm_p95);
  std::printf("warm BFS       %.3f ms median over %d reps (p95 %.3f ms)\n",
              warm_bfs_median, warm_reps, warm_bfs_p95);
  std::printf("builds         %llu paid, %llu reused\n",
              static_cast<unsigned long long>(after.builds_paid),
              static_cast<unsigned long long>(after.builds_reused));
  std::printf("burst          %d clients in %.3f ms -> %llu executions, "
              "%llu coalesced\n",
              kClients, burst_ms,
              static_cast<unsigned long long>(burst_batches),
              static_cast<unsigned long long>(burst_coalesced));

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"scale\": %d,\n"
               "  \"cold_ms\": %.4f,\n"
               "  \"warm_median_ms\": %.4f,\n"
               "  \"warm_p95_ms\": %.4f,\n"
               "  \"warm_bfs_median_ms\": %.4f,\n"
               "  \"warm_bfs_p95_ms\": %.4f,\n"
               "  \"warm_reps\": %d,\n"
               "  \"burst_clients\": %d,\n"
               "  \"burst_wall_ms\": %.4f,\n"
               "  \"burst_batches\": %llu,\n"
               "  \"burst_coalesced\": %llu,\n"
               "  \"builds_paid\": %llu,\n"
               "  \"builds_reused\": %llu\n"
               "}\n",
               scale, cold_ms, warm_median, warm_p95, warm_bfs_median,
               warm_bfs_p95, warm_reps, kClients, burst_ms,
               static_cast<unsigned long long>(burst_batches),
               static_cast<unsigned long long>(burst_coalesced),
               static_cast<unsigned long long>(after.builds_paid),
               static_cast<unsigned long long>(after.builds_reused));
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  fs::remove_all(dir);
  return 0;
}

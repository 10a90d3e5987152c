// Checkpoint overhead microbenchmark.
//
// The acceptance bar: snapshotting at the default cadence (one save per
// 0.25 s) must cost < 5% on a PageRank sweep at Kronecker scale 14. A
// scale-14 PageRank finishes inside 0.25 s on every system, so the
// default cadence itself saves nothing there, and comparing its time
// with no session at all measures host noise. Instead each system's
// per-save cost comes from a cadence that does save: (every-1 median -
// off median) / saves at every-1, and the overhead that cost implies at
// one save per 0.25 s is what the budget checks. Times four cadences
// per system — no session at all (the baseline), the 0.25 s time
// default, snapshot every iteration, and snapshot every 4 iterations —
// and reports per-cadence medians and relative overheads, the per-save
// cost and the implied default overhead. Writes a JSON summary (argv[1],
// default results_checkpoint.json) for the non-blocking perf smoke.
// Knobs: EPGS_SCALE, EPGS_ROOTS, EPGS_THREADS.
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/checkpoint.hpp"
#include "core/stats.hpp"
#include "core/timer.hpp"
#include "systems/common/registry.hpp"

namespace fs = std::filesystem;
using namespace epgs;

namespace {

/// Seconds between saves at the default time cadence.
constexpr double kDefaultEverySeconds = 0.25;

/// A snapshot cadence; both knobs 0 means no checkpoint session at all
/// (the uninstrumented baseline).
struct Cadence {
  const char* label;
  int every;
  double every_seconds;
};

constexpr Cadence kCadences[] = {{"off", 0, 0.0},
                                 {"default", 0, kDefaultEverySeconds},
                                 {"every-1", 1, 0.0},
                                 {"every-4", 4, 0.0}};

struct CadenceResult {
  std::string label;
  double median_seconds = 0.0;
  int iterations = 0;
  int saves = 0;
};

/// Time one PageRank kernel under `c`, recording its iteration and save
/// counts in `out`.
double time_once(System& sys, const fs::path& dir, const Cadence& c,
                 CadenceResult& out) {
  const bool on = c.every > 0 || c.every_seconds > 0;
  CheckpointConfig cfg;
  cfg.dir = dir.string();
  cfg.unit_key = std::string("bench|") + c.label;
  cfg.fingerprint = "bench";
  cfg.every_iterations = c.every;
  cfg.every_seconds = c.every_seconds;
  CheckpointSession session(cfg);
  if (on) sys.set_checkpoint_session(&session);
  WallTimer timer;
  const auto r = sys.pagerank();
  const double secs = timer.seconds();
  sys.set_checkpoint_session(nullptr);
  out.iterations = r.iterations;
  if (on) out.saves = session.saves();
  session.remove_snapshot();
  return secs;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path =
      argc > 1 ? argv[1] : "results_checkpoint.json";
  bench::print_header(
      "Checkpoint overhead (PageRank, cadence off/default/1/4)",
      "framework extension (mid-trial checkpoint/restore)");

  harness::GraphSpec spec;
  spec.kind = harness::GraphSpec::Kind::kKronecker;
  spec.scale = bench::bench_scale();
  spec.edgefactor = 16;
  const EdgeList el = harness::materialize(spec);
  ThreadScope scope(bench::bench_threads());

  const fs::path dir = fs::temp_directory_path() / "epgs_bench_ckpt";
  fs::create_directories(dir);
  const int trials = bench::bench_roots();

  struct SystemRow {
    std::string system;
    std::vector<CadenceResult> cadences;
    /// Seconds per save, from the every-1 cadence; empty when it saved
    /// nothing (a kernel that ends in one iteration).
    std::optional<double> save_seconds;

    /// Overhead the per-save cost implies at one save per 0.25 s.
    [[nodiscard]] double implied_default_pct() const {
      return *save_seconds / kDefaultEverySeconds * 100.0;
    }
  };
  std::vector<SystemRow> rows;
  for (const std::string system :
       {"GAP", "Ligra", "GraphMat", "GraphBIG", "PowerGraph"}) {
    auto sys = make_system(system);
    sys->set_edges(el);
    sys->build();
    SystemRow row;
    row.system = system;
    row.cadences.resize(std::size(kCadences));
    std::vector<std::vector<double>> secs(std::size(kCadences));
    // Trial t of every cadence runs before trial t+1 of any, so a burst
    // of host load spreads across the cadences instead of landing on one
    // cadence's median.
    for (int t = 0; t < trials; ++t) {
      for (std::size_t c = 0; c < std::size(kCadences); ++c) {
        secs[c].push_back(time_once(*sys, dir, kCadences[c], row.cadences[c]));
      }
    }
    for (std::size_t c = 0; c < std::size(kCadences); ++c) {
      row.cadences[c].label = kCadences[c].label;
      row.cadences[c].median_seconds = box_stats(secs[c]).median;
    }
    const double base = row.cadences[0].median_seconds;
    const CadenceResult& every1 = row.cadences[2];
    if (every1.saves > 0) {
      row.save_seconds = (every1.median_seconds - base) / every1.saves;
    }
    std::printf("%s (%d iterations, %d snapshots at cadence 1):\n",
                system.c_str(), every1.iterations, every1.saves);
    for (const auto& c : row.cadences) {
      const double overhead =
          base > 0 ? (c.median_seconds / base - 1.0) * 100.0 : 0.0;
      std::printf("  cadence %-8s median=%.5fs saves=%d overhead=%+.2f%%\n",
                  c.label.c_str(), c.median_seconds, c.saves, overhead);
    }
    if (row.save_seconds) {
      std::printf(
          "  per save %.3f ms -> %.2f%% at one save per %.2f s (budget 5%%)\n",
          *row.save_seconds * 1e3, row.implied_default_pct(),
          kDefaultEverySeconds);
    } else {
      std::printf("  per save: unknown (cadence 1 saved nothing)\n");
    }
    rows.push_back(std::move(row));
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"dataset\": \"%s\",\n  \"systems\": [\n",
               spec.name().c_str());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& row = rows[i];
    const double base = row.cadences[0].median_seconds;
    std::fprintf(f, "    {\"system\": \"%s\", \"iterations\": %d, ",
                 row.system.c_str(), row.cadences[2].iterations);
    if (row.save_seconds) {
      std::fprintf(f,
                   "\"save_ms\": %.4f, \"implied_default_overhead_pct\": "
                   "%.2f, ",
                   *row.save_seconds * 1e3, row.implied_default_pct());
    } else {
      std::fprintf(f,
                   "\"save_ms\": null, \"implied_default_overhead_pct\": "
                   "null, ");
    }
    std::fprintf(f, "\"cadences\": [\n");
    for (std::size_t j = 0; j < row.cadences.size(); ++j) {
      const auto& c = row.cadences[j];
      std::fprintf(
          f,
          "      {\"label\": \"%s\", \"median_seconds\": %.6f, "
          "\"saves\": %d, \"overhead_pct\": %.2f}%s\n",
          c.label.c_str(), c.median_seconds, c.saves,
          base > 0 ? (c.median_seconds / base - 1.0) * 100.0 : 0.0,
          j + 1 < row.cadences.size() ? "," : "");
    }
    std::fprintf(f, "    ]}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  fs::remove_all(dir);
  return 0;
}

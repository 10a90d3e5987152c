#include "graphalytics/comparator.hpp"

#include <cstdio>
#include <sstream>

#include "core/error.hpp"
#include "core/parallel.hpp"
#include "graph/homogenizer.hpp"
#include "systems/common/registry.hpp"

namespace epgs::graphalytics {
namespace {

using harness::Algorithm;
using harness::algorithm_name;

std::vector<std::string> graphmat_excerpt(const PhaseLog& log,
                                          const std::string& dataset) {
  std::vector<std::string> lines;
  char buf[160];
  auto emit = [&](const char* fmt, double v) {
    std::snprintf(buf, sizeof buf, fmt, v);
    lines.emplace_back(buf);
  };
  lines.push_back("Timing results (for GraphMat PageRank on " + dataset +
                  ")");
  if (const auto e = log.find(phase::kFileRead)) {
    std::snprintf(buf, sizeof buf,
                  "  * Finished file read of %s. time: %.5f",
                  dataset.c_str(), e->seconds);
    lines.emplace_back(buf);
  }
  if (const auto e = log.find(phase::kBuild)) {
    emit("  * load graph: %.5f sec", e->seconds);
  }
  if (const auto e = log.find(phase::kEngineInit)) {
    emit("  * initialize engine: %.5g sec", e->seconds);
  }
  if (const auto e = log.find(phase::kAlgorithm)) {
    emit("  * run algorithm (compute PageRank): %.5f sec", e->seconds);
  }
  if (const auto e = log.find(phase::kOutput)) {
    emit("  * print output: %.5g sec", e->seconds);
  }
  return lines;
}

}  // namespace

double reported_seconds(const System& sys) {
  // Note: systems that log an "initialize engine" entry (PowerGraph) log
  // it as a sub-phase *inside* "run algorithm", so the algorithm total
  // already contains it.
  const PhaseLog& run_log = sys.log();
  const std::string_view name = sys.name();
  const double file_read = run_log.total(phase::kFileRead);
  const double build = run_log.total(phase::kBuild);
  const double algorithm = run_log.total(phase::kAlgorithm);
  if (name == "GraphMat") {
    // Charged for everything, including reading the text file from disk.
    return file_read + build + algorithm;
  }
  if (name == "GraphBIG") {
    // File read and build are fused and *excluded* from the report.
    return algorithm;
  }
  // PowerGraph and anything else: fused ingest + engine + algorithm.
  return build + algorithm;
}

Report run(const harness::GraphSpec& spec, const Options& opts) {
  EPGS_CHECK(!opts.systems.empty(), "no systems configured");
  EPGS_CHECK(!opts.algorithms.empty(), "no algorithms configured");

  const EdgeList el = harness::materialize(spec);
  const std::string dataset = spec.name();
  const auto files = homogenize(el, dataset, opts.work_dir);

  Report report;
  report.dataset = dataset;
  report.threads = opts.threads > 0 ? opts.threads : max_threads();

  const auto roots = harness::select_roots(el, 1, /*seed=*/42);

  for (const auto& system_name : opts.systems) {
    for (const Algorithm alg : opts.algorithms) {
      Cell cell;
      // Graphalytics "by default does not perform SSSP on unweighted
      // graphs" — render N/A, as in Table I's cit-Patents row — and
      // supports neither TC nor BC (paper Section V).
      const bool graphalytics_na =
          (alg == Algorithm::kSssp && !el.weighted) ||
          alg == Algorithm::kTc || alg == Algorithm::kBc;

      // Fresh process per run, as Graphalytics launches each benchmark
      // separately (one trial only).
      auto sys = make_system(system_name);
      if (!graphalytics_na &&
          harness::algorithm_supported(sys->capabilities(), alg)) {
        ThreadScope scope(report.threads);
        sys->load_file(files.path(sys->native_format()));
        sys->build();
        switch (alg) {
          case Algorithm::kBfs: (void)sys->bfs(roots[0]); break;
          case Algorithm::kSssp: (void)sys->sssp(roots[0]); break;
          case Algorithm::kPageRank: (void)sys->pagerank(); break;
          case Algorithm::kCdlp: (void)sys->cdlp(); break;
          case Algorithm::kLcc: (void)sys->lcc(); break;
          case Algorithm::kWcc: (void)sys->wcc(); break;
          case Algorithm::kTc:
          case Algorithm::kBc:
            break;  // unreachable: Graphalytics does not support these
        }
        cell.available = true;
        cell.seconds = reported_seconds(*sys);

        if (system_name == "GraphMat" && alg == Algorithm::kPageRank) {
          report.graphmat_log_excerpt =
              graphmat_excerpt(sys->log(), dataset);
        }
      }
      report.cells[system_name][std::string(algorithm_name(alg))] = cell;
    }
  }
  return report;
}

std::string render_table(const Report& report) {
  std::ostringstream os;
  os << "Graphalytics-style tabulated run times (seconds) with "
     << report.threads << " threads; one run per experiment.\n";
  os << "Dataset: " << report.dataset << "\n\n";
  for (const auto& [system, row] : report.cells) {
    os << system;
    for (const auto& [alg, cell] : row) os << '\t' << alg;
    os << '\n' << report.dataset;
    for (const auto& [alg, cell] : row) {
      char buf[32];
      if (cell.available) {
        std::snprintf(buf, sizeof buf, "\t%.1f", cell.seconds);
      } else {
        std::snprintf(buf, sizeof buf, "\tN/A");
      }
      os << buf;
    }
    os << "\n\n";
  }
  for (const auto& line : report.graphmat_log_excerpt) os << line << '\n';
  return os.str();
}

std::string render_html(const Report& report) {
  std::ostringstream os;
  os << "<!DOCTYPE html>\n<html><head><title>Graphalytics report: "
     << report.dataset << "</title></head>\n<body>\n";
  os << "<h1>Benchmark report — " << report.dataset << " ("
     << report.threads << " threads)</h1>\n";
  for (const auto& [system, row] : report.cells) {
    os << "<h2>" << system << "</h2>\n<table border=\"1\">\n<tr>";
    for (const auto& [alg, cell] : row) os << "<th>" << alg << "</th>";
    os << "</tr>\n<tr>";
    for (const auto& [alg, cell] : row) {
      if (cell.available) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.3f", cell.seconds);
        os << "<td>" << buf << "</td>";
      } else {
        os << "<td>N/A</td>";
      }
    }
    os << "</tr>\n</table>\n";
  }
  if (!report.graphmat_log_excerpt.empty()) {
    os << "<h2>GraphMat log</h2>\n<pre>\n";
    for (const auto& line : report.graphmat_log_excerpt) {
      os << line << '\n';
    }
    os << "</pre>\n";
  }
  os << "</body></html>\n";
  return os.str();
}

}  // namespace epgs::graphalytics

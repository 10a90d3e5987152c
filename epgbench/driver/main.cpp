// epgbench_driver: the compiled half of the benchmark. run.py picks the
// workload parameters and calls one of
//
//   epgbench_driver calibrate
//   epgbench_driver sweep --algorithm BFS --systems GAP,Graph500 --scale 16
//       --roots 16 --threads 1 [--native-files] --reps 1
//       --seed N --work-dir DIR [--trace-dir DIR]
//   epgbench_driver serve --scale 14 --passes 10
//       --seed N --work-dir DIR [--trace-dir DIR] [--inject-bad-request]
//
// The driver works inside --work-dir (it creates it and removes nothing
// outside it) and prints one JSON object of raw samples as its last
// line: set-up and wall times, query latencies, attempted/failed counts,
// VmHWM/VmPeak, and with a trace directory the per-layer metrics.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>

#include "harness/experiment.hpp"
#include "workloads.hpp"

namespace {

using namespace epgbench;

struct Args {
  std::string mode;
  std::map<std::string, std::string> values;

  [[nodiscard]] bool has(const std::string& k) const {
    return values.count(k) != 0;
  }
  [[nodiscard]] std::string get(const std::string& k) const {
    const auto it = values.find(k);
    if (it == values.end()) throw std::runtime_error("missing --" + k);
    return it->second;
  }
  [[nodiscard]] int integer(const std::string& k) const {
    return std::stoi(get(k));
  }
};

Args parse(int argc, char** argv) {
  Args a;
  if (argc < 2) throw std::runtime_error("usage: epgbench_driver MODE ...");
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string k = argv[i];
    if (k.rfind("--", 0) != 0) throw std::runtime_error("bad argument " + k);
    k = k.substr(2);
    const bool flag = i + 1 >= argc || std::string(argv[i + 1]).rfind("--", 0) == 0;
    a.values[k] = flag ? "1" : argv[++i];
  }
  return a;
}

/// Absolute form of an optional directory argument, so it survives the
/// chdir into the work directory.
std::string absolute_dir(const Args& a, const std::string& k) {
  if (!a.has(k)) return {};
  const std::filesystem::path p = std::filesystem::absolute(a.get(k));
  std::filesystem::create_directories(p);
  return p.string();
}

int run(const Args& a) {
  JsonObject out;
  if (a.mode == "calibrate") {
    run_calibrate(out);
    std::printf("%s\n", out.str().c_str());
    return 0;
  }

  const std::string trace_dir = absolute_dir(a, "trace-dir");
  const std::string work_dir = absolute_dir(a, "work-dir");
  if (work_dir.empty()) throw std::runtime_error("missing --work-dir");
  std::filesystem::current_path(work_dir);
  const std::uint64_t seed = std::stoull(a.get("seed"));

  Tally tally;
  if (a.mode == "sweep") {
    SweepParams p;
    p.algorithm = epgs::harness::algorithm_from_name(a.get("algorithm"));
    p.systems = split_list(a.get("systems"));
    p.scale = a.integer("scale");
    p.roots = a.integer("roots");
    p.threads = a.integer("threads");
    p.native_files = a.has("native-files");
    p.reps = a.integer("reps");
    p.seed = seed;
    p.trace_dir = trace_dir;
    run_sweep(p, out, tally);
  } else if (a.mode == "serve") {
    ServeParams p;
    p.scale = a.integer("scale");
    p.passes = a.integer("passes");
    p.seed = seed;
    p.inject_bad_request = a.has("inject-bad-request");
    p.trace_dir = trace_dir;
    run_serve(p, out, tally);
  } else {
    throw std::runtime_error("unknown mode " + a.mode);
  }

  out.integer("attempted", tally.attempted);
  out.integer("failed", tally.failed);
  out.strings("failures", tally.failures);
  out.integer("seed", seed);
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "epgbench_driver: %s\n", e.what());
    return 2;
  }
}

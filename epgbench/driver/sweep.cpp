// Sweep workloads (bfs-s16, pagerank-s16-2t).
#include <filesystem>
#include <map>
#include <optional>

#include "core/parallel.hpp"
#include "gen/kronecker.hpp"
#include "graph/csr.hpp"
#include "graph/homogenizer.hpp"
#include "graph/transforms.hpp"
#include "harness/dataset_pipeline.hpp"
#include "harness/runner.hpp"
#include "harness/sweep_plan.hpp"
#include "systems/common/registry.hpp"
#include "systems/common/validation.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace epgbench {

namespace fs = std::filesystem;
using namespace epgs;
using harness::Algorithm;

harness::GraphSpec graph_spec(int scale, std::uint64_t seed) {
  harness::GraphSpec spec;
  spec.kind = harness::GraphSpec::Kind::kKronecker;
  spec.scale = scale;
  spec.edgefactor = 16;
  spec.seed = kronecker_seed(seed);
  spec.symmetrize = true;
  spec.deduplicate = true;
  return spec;
}

namespace {

std::uint64_t tree_bytes(const fs::path& dir) {
  std::uint64_t bytes = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) bytes += e.file_size();
  }
  return bytes;
}

/// Everything the set-up leaves for the measured work.
struct Staged {
  harness::PreparedDataset prepared;
  harness::StagedDataset view() const {
    harness::StagedDataset s;
    s.edges = &prepared.edges;
    s.files = prepared.entry.files.files.empty() ? nullptr
                                                 : &prepared.entry.files;
    return s;
  }
};

/// One set-up: materialize (RAM path) or a cold prepare_dataset into a
/// fresh cache directory (native-file path).
Staged set_up(const SweepParams& p, const harness::GraphSpec& spec,
              const fs::path& cache_dir, Tally& tally) {
  Staged st;
  if (!p.native_files) {
    st.prepared.edges = harness::materialize(spec);
    return st;
  }
  fs::remove_all(cache_dir);
  harness::DatasetOptions opts;
  opts.cache_dir = cache_dir.string();
  st.prepared = harness::prepare_dataset(spec, opts);
  if (st.prepared.degraded || st.prepared.cache_hit) {
    tally.fail("set-up was not a cold cache build: " +
               st.prepared.degradation);
  }
  return st;
}

/// Count units: every (system, trial) must end in a successful kernel
/// record; any non-success record is a failure.
void tally_result(const harness::ExperimentResult& r, const SweepParams& p,
                  Tally& tally) {
  const std::uint64_t expected =
      p.systems.size() * static_cast<std::uint64_t>(p.roots);
  std::uint64_t ok = 0;
  std::uint64_t bad = 0;
  for (const auto& rec : r.records) {
    if (rec.outcome != Outcome::kSuccess) {
      ++bad;
      tally.fail(rec.system + " " + rec.algorithm + " trial " +
                 std::to_string(rec.trial) + " " + rec.phase + ": " +
                 std::string(outcome_name(rec.outcome)) + " " +
                 (rec.extra.count("error") ? rec.extra.at("error") : ""));
    } else if (rec.phase == phase::kAlgorithm) {
      ++ok;
    }
  }
  tally.attempted += expected;
  if (ok + bad < expected) {
    for (std::uint64_t i = ok + bad; i < expected; ++i) {
      tally.fail("missing kernel record");
    }
  }
}

}  // namespace

std::uint64_t count_attempts(const harness::ExperimentResult& r) {
  std::map<std::string, std::uint64_t> units;
  for (const auto& rec : r.records) {
    const std::string key =
        rec.system + "|" + rec.algorithm + "|" + std::to_string(rec.trial);
    const auto it = rec.extra.find("attempts");
    const std::uint64_t n =
        it == rec.extra.end() ? 1 : std::stoull(it->second);
    units[key] = std::max(units[key], n);
  }
  std::uint64_t sum = 0;
  for (const auto& [key, n] : units) sum += n;
  return sum;
}

void replay_run_experiment(const harness::ExperimentConfig& cfg,
                           const harness::StagedDataset& staged, Tracer& tr,
                           std::map<std::string, double>& layers,
                           Tally& tally) {
  const EdgeList& el = *staged.edges;
  const auto root_scope = span(&tr, "harness.replay");
  std::vector<vid_t> roots;
  {
    const auto s = span(&tr, "harness.select_roots");
    roots = harness::select_roots(el, cfg.num_roots, cfg.root_seed);
  }
  std::optional<CSRGraph> oracle;
  if (cfg.validate) {
    const auto s = span(&tr, "systems.oracle.csr");
    oracle = CSRGraph::from_edges(el);
  }
  const harness::SweepPlan plan = harness::plan_sweep(cfg, staged.files, {});
  const bool file_mode = plan.data_path == harness::DataPath::kNativeFile;
  const ThreadScope threads(plan.threads);
  for (const auto& sp : plan.systems) {
    const std::string pre = "systems." + sp.system + ".";
    auto sys = make_system(sp.system);
    auto build = [&] {
      if (!file_mode) {
        const auto s = span(&tr, "systems.stage");
        sys->set_edges(el);
      }
      const auto s = span(&tr, pre + "build");
      sys->build();
    };
    if (file_mode) {
      const auto s = span(&tr, pre + "file_read");
      sys->load_file(sp.native_file);
    }
    if (!sp.rebuild_per_trial) build();
    for (const auto& t : sp.trials) {
      if (sp.rebuild_per_trial) build();
      const vid_t root = roots[static_cast<std::size_t>(t.trial)];
      std::optional<ValidationError> err;
      if (t.alg == Algorithm::kBfs) {
        BfsResult res;
        {
          const auto s = span(&tr, pre + "bfs");
          res = sys->bfs(root);
        }
        layers[pre + "bfs_edges"] += static_cast<double>(
            sys->log().entries().back().work.edges_processed);
        if (cfg.validate) {
          const auto s = span(&tr, "systems.oracle.bfs");
          err = validate_bfs(*oracle, res);
        }
      } else {
        PageRankResult res;
        {
          const auto s = span(&tr, pre + "pagerank");
          res = sys->pagerank(cfg.pagerank);
        }
        layers[pre + "pagerank_iters"] += res.iterations;
        if (cfg.validate && t.trial == 0) {
          const auto s = span(&tr, "systems.oracle.pagerank");
          err = validate_pagerank(res);
        }
      }
      if (err && *err) tally.fail("replay " + sp.system + ": " + **err);
    }
  }
}

void replay_set_up(const harness::GraphSpec& spec,
                   const std::string& homogenize_dir, Tracer& tr,
                   std::map<std::string, double>& layers) {
  const auto root_scope = span(&tr, "setup.replay");
  EdgeList el;
  {
    const auto s = span(&tr, "gen.kronecker");
    gen::KroneckerParams kp;
    kp.scale = spec.scale;
    kp.edgefactor = spec.edgefactor;
    kp.seed = spec.seed;
    el = gen::kronecker(kp);
  }
  {
    const auto s = span(&tr, "graph.symmetrize");
    el = symmetrize(el);
  }
  const double before = static_cast<double>(el.num_edges());
  {
    const auto s = span(&tr, "graph.dedupe");
    el = dedupe(el);
  }
  layers["graph.dedupe_kept_ratio"] =
      before > 0 ? static_cast<double>(el.num_edges()) / before : 0.0;
  if (!homogenize_dir.empty()) {
    fs::remove_all(homogenize_dir);
    {
      const auto s = span(&tr, "graph.homogenize");
      (void)homogenize(el, spec.name(), homogenize_dir);
    }
    layers["graph.homogenize_bytes"] =
        static_cast<double>(tree_bytes(homogenize_dir));
    fs::remove_all(homogenize_dir);
  }
}

std::map<std::string, double> span_totals(const Tracer& tr) {
  std::map<std::string, double> totals;
  for (const auto& sp : tr.spans()) {
    totals[sp.name + "_s"] += sp.end_s - sp.start_s;
  }
  return totals;
}

void run_sweep(const SweepParams& p, JsonObject& out, Tally& tally) {
  const harness::GraphSpec spec = graph_spec(p.scale, p.seed);
  const bool traced = !p.trace_dir.empty();
  Tracer tracer;
  Tracer* tr = traced ? &tracer : nullptr;

  const char* const cache_dir = "cache";
  Staged staged;
  {
    auto s = span(tr, "harness.prepare");
    const Clock::time_point t0 = Clock::now();
    staged = set_up(p, spec, cache_dir, tally);
    out.numbers("setup_s", {seconds_since(t0)});
  }

  harness::ExperimentConfig cfg;
  cfg.graph = spec;
  cfg.systems = p.systems;
  cfg.algorithms = {p.algorithm};
  cfg.num_roots = p.roots;
  cfg.threads = p.threads;
  cfg.root_seed = root_seed(p.seed);
  cfg.validate = true;
  if (p.native_files) {
    cfg.dataset.cache_dir = cache_dir;
  }
  const harness::StagedDataset view = staged.view();

  std::vector<double> wall_s;
  for (int r = 0; r < p.reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    const harness::ExperimentResult result = harness::run_experiment(cfg, view);
    wall_s.push_back(seconds_since(t0));
    tally_result(result, p, tally);
  }
  out.numbers("wall_s", wall_s);
  const ProcStatus measured = read_proc_status();
  out.integer("vm_hwm_kb", measured.vm_hwm_kb);
  out.integer("vm_peak_kb", measured.vm_peak_kb);

  if (traced) {
    std::map<std::string, double> layers;
    double traced_wall = 0.0;
    {
      auto s = span(tr, "harness.run_experiment");
      const harness::ExperimentResult result =
          harness::run_experiment(cfg, view);
      traced_wall = s.close();
      tally_result(result, p, tally);
      layers["harness.attempts"] = static_cast<double>(count_attempts(result));
    }
    replay_run_experiment(cfg, view, tracer, layers, tally);
    replay_set_up(spec, p.native_files ? "homogenize-replay" : "", tracer,
                  layers);

    for (const auto& [name, secs] : span_totals(tracer)) layers[name] = secs;
    auto rows = tracer.rows_under("harness.replay");
    double replayed = 0.0;
    for (const auto& r : rows) replayed += r.self_s;
    layers["harness.unattributed_s"] = traced_wall - replayed;
    layers["trace.overhead_s"] = traced_wall - median(wall_s);

    auto setup_rows = tracer.rows_under("setup.replay");
    rows.insert(rows.end(), setup_rows.begin(), setup_rows.end());
    out.number("table_unattributed_s",
               write_layer_table(p.trace_dir + "/layers.tsv", rows,
                                 layers["harness.prepare_s"] + traced_wall,
                                 "one set-up plus one traced run_experiment"));
    tracer.write_chrome(p.trace_dir + "/trace.json");
    out.numbers_map("layers", layers);
  }
  fs::remove_all(cache_dir);
}

}  // namespace epgbench

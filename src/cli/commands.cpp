#include "cli/commands.hpp"

#include <algorithm>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <tuple>

#include <unistd.h>

#include "core/error.hpp"
#include "core/fs_shim.hpp"
#include "core/stats.hpp"
#include "graph/homogenizer.hpp"
#include "graph/snap_io.hpp"
#include "graph/statistics.hpp"
#include "graph/transforms.hpp"
#include "harness/analysis.hpp"
#include "harness/chaos/chaos.hpp"
#include "harness/dataset_pipeline.hpp"
#include "graphalytics/comparator.hpp"
#include "harness/predictor.hpp"
#include "harness/supervisor.hpp"
#include "harness/tuning.hpp"
#include "harness/runner.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "systems/common/registry.hpp"

namespace epgs::cli {
namespace {

namespace fs = std::filesystem;

harness::GraphSpec spec_from_args(const Args& args) {
  harness::GraphSpec spec;
  const std::string kind = args.get("kind", "kron");
  if (kind == "kron" || kind == "kronecker") {
    spec.kind = harness::GraphSpec::Kind::kKronecker;
  } else if (kind == "patents") {
    spec.kind = harness::GraphSpec::Kind::kPatentsLike;
  } else if (kind == "dota") {
    spec.kind = harness::GraphSpec::Kind::kDotaLike;
  } else if (kind == "snap") {
    spec.kind = harness::GraphSpec::Kind::kSnapFile;
    spec.path = args.get("graph");
    EPGS_CHECK(!spec.path.empty(), "--kind snap requires --graph <file>");
  } else {
    throw EpgsError("unknown --kind '" + kind +
                    "' (kron | patents | dota | snap)");
  }
  spec.scale = args.get_int("scale", 14);
  spec.edgefactor = args.get_int("edgefactor", 16);
  spec.fraction = args.get_double("fraction", 0.01);
  spec.seed = args.get_u64("seed", 20170517);
  spec.symmetrize = !args.has("no-symmetrize");
  spec.deduplicate = !args.has("no-dedupe");
  spec.add_weights = args.has("weights");
  spec.max_weight =
      static_cast<std::uint32_t>(args.get_int("max-weight", 255));
  return spec;
}

/// Write `text` to `path` through the fs shim: a failed open or write
/// (a full disk included) throws an error naming the file, so the
/// command exits 1 instead of reporting a truncated file as written.
void write_out_file(const std::string& path, std::string_view text) {
  fsx::OutStream f(path);
  f << text;
  f.close();
}

/// SIGINT/SIGTERM during `epg run`: the first signal requests a graceful
/// stop (the in-flight unit's token reads the flag at its next poll, and
/// its final checkpoint keeps it resumable; finished units flush to
/// journal + CSV);
/// a second signal hard-exits with the conventional 128+sig status.
/// Async-signal-safe: one atomic load/store and _exit, nothing else.
extern "C" void handle_run_signal(int sig) {
  if (interrupt_requested()) _exit(128 + sig);
  request_interrupt(sig);
}

/// RAII signal-handler installation so every exit path from cmd_run
/// (including thrown EpgsErrors) restores the default disposition.
struct RunSignalScope {
  RunSignalScope() {
    reset_interrupt();
    std::signal(SIGINT, handle_run_signal);
    std::signal(SIGTERM, handle_run_signal);
  }
  ~RunSignalScope() {
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
  }
};

}  // namespace

int cmd_generate(const Args& args, std::ostream& out) {
  args.expect_known({"kind", "graph", "scale", "edgefactor", "fraction",
                     "seed", "no-symmetrize", "no-dedupe", "weights",
                     "max-weight", "out"});
  const auto spec = spec_from_args(args);
  const std::string out_path = args.get("out", spec.name() + ".snap");
  const EdgeList el = harness::materialize(spec);
  write_snap_file(out_path, el);
  out << "wrote " << out_path << ": " << el.num_vertices << " vertices, "
      << el.num_edges() << " edges"
      << (el.weighted ? " (weighted)" : "") << "\n";
  return 0;
}

int cmd_homogenize(const Args& args, std::ostream& out) {
  args.expect_known({"in", "name", "out"});
  const std::string in_path = args.get("in");
  EPGS_CHECK(!in_path.empty(), "homogenize requires --in <file.snap>");
  const std::string dir = args.get("out", "homogenized");
  const std::string name =
      args.get("name", fs::path(in_path).stem().string());

  const EdgeList el = read_snap_file(in_path);
  const auto ds = homogenize(el, name, dir);
  out << "homogenized '" << name << "' into " << ds.files.size()
      << " formats under " << dir << ":\n";
  for (const auto& [fmt, path] : ds.files) {
    out << "  " << format_name(fmt) << "\t" << path.string() << "\n";
  }
  return 0;
}

int cmd_prepare(const Args& args, std::ostream& out) {
  args.expect_known({"kind", "graph", "scale", "edgefactor", "fraction",
                     "seed", "no-symmetrize", "no-dedupe", "weights",
                     "max-weight", "cache-dir", "lock-timeout",
                     "min-free-disk"});
  harness::DatasetOptions opts;
  opts.cache_dir = args.get("cache-dir", "epgs-cache");
  opts.lock_timeout_seconds = args.get_double("lock-timeout", 60.0);
  opts.min_free_disk_bytes =
      args.get_u64("min-free-disk", 0) << 20;  // MiB -> bytes
  const auto spec = spec_from_args(args);

  const auto prep = harness::prepare_dataset(spec, opts);
  if (prep.degraded) {
    // prepare exists to warm the cache; a degraded result warmed nothing.
    // Exit 3 like a DNF'd run: partial, not a usage error.
    out << "dataset " << spec.name() << ": cache degraded ("
        << prep.degradation << ")\n";
    return 3;
  }
  // "cache hit" / "cache miss" lines are part of the CLI contract: the CI
  // warm-cache smoke test greps for them.
  out << "dataset " << spec.name() << ": cache "
      << (prep.cache_hit ? "hit" : "miss") << "\n"
      << "  entry     " << prep.entry.dir.string() << "\n"
      << "  snapshot  " << prep.entry.snapshot.string() << " ("
      << prep.edges.num_vertices << " vertices, " << prep.edges.num_edges()
      << " edges" << (prep.edges.weighted ? ", weighted" : "") << ")\n";
  for (const auto& [fmt, path] : prep.entry.files.files) {
    out << "  " << format_name(fmt) << "\t" << path.string() << "\n";
  }
  return 0;
}

int cmd_run(const Args& args, std::ostream& out) {
  args.expect_known({"kind", "graph", "scale", "edgefactor", "fraction",
                     "seed", "no-symmetrize", "no-dedupe", "weights",
                     "max-weight", "systems", "algorithms", "roots",
                     "threads", "validate", "csv", "logdir",
                     "no-reconstruct", "timeout", "retries", "isolate",
                     "journal", "resume", "allow-dnf", "cache-dir",
                     "mem-limit", "min-free-disk",
                     "lock-timeout", "checkpoint-dir",
                     "checkpoint-every", "checkpoint-every-seconds",
                     "iter-trace", "retry-all", "crash-dir"});
  harness::ExperimentConfig cfg;
  cfg.graph = spec_from_args(args);
  cfg.systems = args.get_list("systems");
  if (cfg.systems.empty()) {
    for (const auto s : all_system_names()) {
      cfg.systems.emplace_back(s);
    }
  }
  const auto algs = args.get_list("algorithms");
  if (algs.empty()) {
    cfg.algorithms = {harness::Algorithm::kBfs, harness::Algorithm::kSssp,
                      harness::Algorithm::kPageRank};
  } else {
    for (const auto& a : algs) {
      cfg.algorithms.push_back(harness::algorithm_from_name(a));
    }
  }
  cfg.num_roots = args.get_int("roots", 32);
  cfg.threads = args.get_int("threads", 0);
  cfg.validate = args.has("validate");
  cfg.reconstruct_per_trial = !args.has("no-reconstruct");
  cfg.supervisor.timeout_seconds = args.get_double("timeout", 0.0);
  cfg.supervisor.max_retries = args.get_int("retries", 0);
  cfg.supervisor.retry_all_failures = args.has("retry-all");
  cfg.supervisor.isolate = args.has("isolate");
  cfg.supervisor.crash_report_dir = args.get("crash-dir");
  cfg.supervisor.journal_path = args.get("journal");
  cfg.supervisor.resume = args.has("resume");
  EPGS_CHECK(!cfg.supervisor.resume || !cfg.supervisor.journal_path.empty(),
             "--resume requires --journal <file>");
  cfg.supervisor.mem_limit_bytes =
      args.get_u64("mem-limit", 0) << 20;  // MiB -> bytes
  cfg.supervisor.checkpoint_dir = args.get("checkpoint-dir");
  cfg.supervisor.checkpoint_every_iterations =
      args.get_int("checkpoint-every", 0);
  cfg.supervisor.checkpoint_every_seconds =
      args.get_double("checkpoint-every-seconds", 0.25);
  cfg.dataset.cache_dir = args.get("cache-dir");
  cfg.dataset.lock_timeout_seconds = args.get_double("lock-timeout", 60.0);
  cfg.dataset.min_free_disk_bytes =
      args.get_u64("min-free-disk", 0) << 20;  // MiB -> bytes
  if (cfg.algorithms.size() == 1 &&
      cfg.algorithms[0] == harness::Algorithm::kSssp) {
    cfg.graph.add_weights = true;
  }

  const RunSignalScope signal_scope;
  const auto result = harness::run_experiment(cfg);

  // Dataset-path status line (grepped by the CI warm-cache smoke test).
  if (result.used_dataset_pipeline) {
    out << "dataset " << cfg.graph.name() << ": cache "
        << (result.dataset_cache_hit ? "hit" : "miss") << " ("
        << cfg.dataset.cache_dir << ")\n";
  }
  for (const std::string& warning : result.warnings) {
    out << "warning: " << warning << "\n";
  }

  const std::string logdir = args.get("logdir");
  if (!logdir.empty()) {
    fs::create_directories(logdir);
    for (const auto& [system, text] : result.raw_logs) {
      write_out_file((fs::path(logdir) / (system + ".log")).string(),
                     "# system = " + system + "\n# dataset = " +
                         cfg.graph.name() + "\n" + text);
    }
    out << "wrote " << result.raw_logs.size() << " raw logs to " << logdir
        << "\n";
  }

  const std::string csv_path = args.get("csv", "results.csv");
  write_out_file(csv_path, harness::records_to_csv(result.records));
  out << "wrote " << result.records.size() << " records to " << csv_path
      << "\n";
  const std::string trace_path = args.get("iter-trace");
  if (!trace_path.empty()) {
    const std::string jsonl = harness::timelines_to_jsonl(result.records);
    write_out_file(trace_path, jsonl);
    out << "wrote " << std::ranges::count(jsonl, '\n')
        << " iteration rows to " << trace_path << "\n";
  }

  const auto summary = harness::outcome_summary(result.records);
  out << "\noutcomes:\n" << harness::render_outcome_table(summary);
  // Triage view: repeated identical failures (same unit, outcome, and
  // crash-stack fingerprint) collapse into one counted row.
  if (const auto groups = harness::failure_groups(result.records);
      !groups.empty()) {
    out << "\nfailure groups:\n" << harness::render_failure_groups(groups);
  }
  int failures = 0;
  for (const auto& row : summary) failures += row.failures();
  if (failures > 0) {
    out << failures << " trial(s) did not finish"
        << (args.has("allow-dnf") ? " (tolerated by --allow-dnf)" : "")
        << "\n";
  }
  if (const int sig = interrupt_signal(); sig != 0) {
    // Conventional 128+sig exit (130 for SIGINT, 143 for SIGTERM) so
    // wrappers can tell "operator stopped it" from DNFs and usage errors.
    out << "interrupted by signal " << sig
        << "; finished units were flushed (continue with --resume)\n";
    return 128 + sig;
  }
  // A sweep with DNFs is distinct both from success (0) and from a
  // configuration/usage error (1/2): scripts chaining runs must be able
  // to tell "data is partial" apart from "nothing ran".
  if (failures > 0 && !args.has("allow-dnf")) return 3;
  return 0;
}

int cmd_chaos(const Args& args, std::ostream& out) {
  args.expect_known({"seed", "rounds", "scale", "edgefactor", "systems",
                     "algorithms", "roots", "threads", "work-dir", "replay",
                     "shrink", "force-violation", "chaos-timeout",
                     "chaos-retries"});
  harness::ExperimentConfig cfg;
  // Chaos always runs on a synthetic Kronecker graph: --seed belongs to
  // the fault schedule here, not the generator, so the graph itself stays
  // fixed while the schedule varies across seeds.
  cfg.graph.kind = harness::GraphSpec::Kind::kKronecker;
  cfg.graph.scale = args.get_int("scale", 10);
  cfg.graph.edgefactor = args.get_int("edgefactor", 8);
  cfg.systems = args.get_list("systems");
  if (cfg.systems.empty()) {
    for (const auto s : all_system_names()) {
      cfg.systems.emplace_back(s);
    }
  }
  const auto algs = args.get_list("algorithms");
  if (algs.empty()) {
    // BFS gives every trial a validated result (wrong-output coverage);
    // PageRank gives the kill-at-checkpoint events iterations to land on.
    cfg.algorithms = {harness::Algorithm::kBfs,
                      harness::Algorithm::kPageRank};
  } else {
    for (const auto& a : algs) {
      cfg.algorithms.push_back(harness::algorithm_from_name(a));
    }
  }
  cfg.num_roots = args.get_int("roots", 3);
  cfg.threads = args.get_int("threads", 0);

  harness::chaos::ChaosOptions opts;
  opts.seed = args.get_u64("seed", 1);
  opts.rounds = args.get_int("rounds", 3);
  opts.shrink = args.has("shrink");
  opts.force_violation = args.has("force-violation");
  opts.work_dir = args.get("work-dir", "chaos-out");
  opts.timeout_seconds = args.get_double("chaos-timeout", 20.0);
  opts.max_retries = args.get_int("chaos-retries", 3);
  const std::string replay = args.get("replay");
  if (!replay.empty()) {
    std::ifstream f(replay);
    EPGS_CHECK(f.good(), "cannot read chaos spec " + replay);
    std::ostringstream buf;
    buf << f.rdbuf();
    opts.replay_spec = buf.str();
  }

  const auto rep = harness::chaos::run_chaos(cfg, opts);
  out << harness::chaos::render_chaos_report(rep);
  // Exit 4 on violation: distinct from DNF (3) and usage errors (1/2), so
  // CI can assert both "smoke holds" and "--force-violation trips".
  return rep.violated ? 4 : 0;
}

int cmd_serve(const Args& args, std::ostream& out) {
  args.expect_known({"socket", "queue-depth", "max-resident-bytes",
                     "cache-dir", "lock-timeout", "min-free-disk", "timeout",
                     "retries", "validate"});
  serve::ServerOptions opts;
  opts.socket_path = args.get("socket", "epg.sock");
  const int depth = args.get_int("queue-depth", 16);
  EPGS_CHECK(depth > 0, "--queue-depth must be positive");
  opts.queue_depth = static_cast<std::size_t>(depth);
  opts.max_resident_bytes = args.get_u64("max-resident-bytes", 0);
  opts.dataset.cache_dir = args.get("cache-dir");
  opts.dataset.lock_timeout_seconds = args.get_double("lock-timeout", 60.0);
  opts.dataset.min_free_disk_bytes =
      args.get_u64("min-free-disk", 0) << 20;  // MiB -> bytes
  opts.supervisor.timeout_seconds = args.get_double("timeout", 0.0);
  opts.supervisor.max_retries = args.get_int("retries", 0);
  opts.validate = args.has("validate");

  serve::Server server(opts);
  // Flushed before blocking: the CI smoke backgrounds the daemon and
  // polls for this line / the socket file before sending queries.
  out << "serving on " << server.socket_path() << std::endl;

  // Same signal path as `epg run`: first SIGINT/SIGTERM requests a
  // graceful stop, a second hard-exits 128+sig.
  const RunSignalScope signal_scope;
  const bool graceful =
      server.wait([] { return interrupt_requested(); });
  server.stop();
  // The final snapshot is part of the CLI contract (the smoke greps it):
  // graceful or signalled, the daemon accounts for every request.
  out << "\nmetrics:\n" << serve::render_metrics(server.snapshot());
  if (!graceful) {
    const int sig = interrupt_signal();
    out << "interrupted by signal " << sig << "\n";
    return 128 + sig;
  }
  out << "shutdown requested by client\n";
  return 0;
}

int cmd_query(const Args& args, std::ostream& out) {
  args.expect_known({"socket", "kind", "graph", "scale", "edgefactor",
                     "fraction", "seed", "no-symmetrize", "no-dedupe",
                     "weights", "max-weight", "system", "algorithm", "roots",
                     "threads", "deadline-ms", "out"});
  const std::string socket = args.get("socket", "epg.sock");
  const std::string verb =
      args.positional().empty() ? "run" : args.positional()[0];
  EPGS_CHECK(args.positional().size() <= 1,
             "query takes at most one positional verb");

  serve::Request req;
  if (verb == "ping") {
    req.verb = serve::Verb::kPing;
  } else if (verb == "stats") {
    req.verb = serve::Verb::kStats;
  } else if (verb == "shutdown") {
    req.verb = serve::Verb::kShutdown;
  } else if (verb == "run") {
    req.verb = serve::Verb::kRun;
    req.graph = spec_from_args(args);
    req.system = args.get("system");
    EPGS_CHECK(!req.system.empty(), "query run requires --system NAME");
    req.algorithm = harness::algorithm_from_name(args.get("algorithm", "BFS"));
    // Mirror cmd_run: a single-algorithm SSSP query implies weights.
    if (req.algorithm == harness::Algorithm::kSssp) {
      req.graph.add_weights = true;
    }
    req.roots = args.get_int("roots", 1);
    req.threads = args.get_int("threads", 0);
    req.deadline_ms = args.get_int("deadline-ms", 0);
  } else {
    throw EpgsError("unknown query verb '" + verb +
                    "' (ping | stats | shutdown | run)");
  }

  const serve::Reply reply =
      serve::query_server(socket, serve::render_request(req));
  if (reply.kind == serve::ReplyKind::kOk) {
    const std::string out_path = args.get("out");
    if (!out_path.empty()) {
      write_out_file(out_path, reply.body);
      out << "wrote reply body to " << out_path << "\n";
    } else if (!reply.body.empty()) {
      out << reply.body;
      if (reply.body.back() != '\n') out << "\n";
    }
    return 0;
  }
  out << "error " << serve::reply_kind_name(reply.kind) << ": " << reply.body
      << "\n";
  // Typed exit codes so scripts can tell back-pressure (retryable) and
  // deadline misses from hard server errors: 6 overloaded, 7 deadline,
  // 4 anything else the server rejected.
  if (reply.kind == serve::ReplyKind::kOverloaded) return 6;
  if (reply.kind == serve::ReplyKind::kDeadline) return 7;
  return 4;
}

int cmd_parse(const Args& args, std::ostream& out) {
  args.expect_known({"logdir", "csv", "threads"});
  const std::string logdir = args.get("logdir");
  EPGS_CHECK(!logdir.empty(), "parse requires --logdir <dir>");
  const int threads = args.get_int("threads", 0);

  std::vector<harness::RunRecord> records;
  for (const auto& entry : fs::directory_iterator(logdir)) {
    if (entry.path().extension() != ".log") continue;
    std::ifstream f(entry.path());
    EPGS_CHECK(f.good(), "cannot read " + entry.path().string());
    std::ostringstream buf;
    buf << f.rdbuf();
    const auto log = PhaseLog::parse_log_text(buf.str());

    const std::string system =
        log.attrs().contains("system") ? log.attrs().at("system")
                                       : entry.path().stem().string();
    const std::string dataset = log.attrs().contains("dataset")
                                    ? log.attrs().at("dataset")
                                    : "unknown";
    // Trial attribution: algorithm entries increment a per-algorithm
    // counter; construction entries attach to the upcoming trial.
    std::map<std::string, int> trial_of_alg;
    int pending_build_trial = -1;
    for (const auto& e : log.entries()) {
      harness::RunRecord rec;
      rec.dataset = dataset;
      rec.system = system;
      rec.threads = threads;
      rec.phase = e.name;
      rec.seconds = e.seconds;
      rec.work = e.work;
      rec.extra = e.extra;
      if (e.name == phase::kAlgorithm && e.extra.contains("alg")) {
        const std::string alg = e.extra.at("alg");
        rec.algorithm = alg;
        rec.trial = trial_of_alg[alg]++;
      } else if (e.name == phase::kBuild) {
        rec.trial = ++pending_build_trial;
      } else {
        rec.trial = -1;
      }
      records.push_back(std::move(rec));
    }
  }
  EPGS_CHECK(!records.empty(), "no .log files found in " + logdir);

  const std::string csv_path = args.get("csv", "results.csv");
  write_out_file(csv_path, harness::records_to_csv(records));
  out << "parsed " << records.size() << " records into " << csv_path
      << "\n";
  return 0;
}

int cmd_analyze(const Args& args, std::ostream& out) {
  args.expect_known({"csv", "out"});
  const std::string csv_path = args.get("csv", "results.csv");
  std::ifstream f(csv_path);
  EPGS_CHECK(f.good(), "cannot read " + csv_path);
  std::ostringstream buf;
  buf << f.rdbuf();

  harness::ExperimentResult result;
  result.records = harness::records_from_csv(buf.str());

  // Group by (algorithm, system, phase) in first-appearance order.
  std::vector<std::tuple<std::string, std::string, std::string>> groups;
  for (const auto& r : result.records) {
    const auto key = std::make_tuple(r.algorithm, r.system, r.phase);
    if (std::find(groups.begin(), groups.end(), key) == groups.end()) {
      groups.push_back(key);
    }
  }

  out << "group summary (" << result.records.size() << " records):\n";
  std::ostringstream dat;
  dat << "# alg system phase n min q1 median q3 max mean\n";
  for (const auto& [alg, system, phs] : groups) {
    const auto b = box_stats(result.seconds_of(system, phs, alg));
    out << "  " << (alg.empty() ? "-" : alg) << "\t" << system << "\t"
        << phs << "\tmedian=" << b.median << "s mean=" << b.mean
        << "s n=" << b.n << "\n";
    dat << (alg.empty() ? "-" : alg) << ' ' << system << " \"" << phs
        << "\" " << b.n << ' ' << b.min << ' ' << b.q1 << ' ' << b.median
        << ' ' << b.q3 << ' ' << b.max << ' ' << b.mean << "\n";
  }

  const std::string prefix = args.get("out");
  if (!prefix.empty()) {
    write_out_file(prefix + ".dat", dat.str());
    // The original tool fed R; emit an R script over the .dat file so
    // phase 5 stays scriptable.
    std::ostringstream rf;
    rf << "# Auto-generated by epg analyze — phase 5 of the pipeline.\n"
       << "d <- read.table('" << prefix << ".dat', header=FALSE,\n"
       << "  col.names=c('alg','system','phase','n','min','q1','median',"
          "'q3','max','mean'))\n"
       << "for (a in unique(d$alg)) {\n"
       << "  s <- d[d$alg == a & d$phase == 'run algorithm',]\n"
       << "  if (nrow(s) == 0) next\n"
       << "  pdf(paste0('" << prefix << "_', a, '.pdf'))\n"
       << "  bp <- list(stats=t(as.matrix(s[,c('min','q1','median','q3',"
          "'max')])),\n"
       << "             n=s$n, names=s$system)\n"
       << "  bxp(bp, log='y', main=paste(a, 'Time'), "
          "ylab='Time (seconds)')\n"
       << "  dev.off()\n"
       << "}\n";
    write_out_file(prefix + ".R", rf.str());
    out << "wrote " << prefix << ".dat and " << prefix << ".R\n";
  }
  return 0;
}

int cmd_tune(const Args& args, std::ostream& out) {
  args.expect_known({"kind", "graph", "scale", "edgefactor", "fraction",
                     "seed", "no-symmetrize", "no-dedupe", "weights",
                     "max-weight", "roots"});
  auto spec = spec_from_args(args);
  const EdgeList graph = harness::materialize(spec);
  const auto roots = harness::select_roots(
      graph, args.get_int("roots", 4), spec.seed ^ 0x7C7EULL);

  const auto bfs = harness::tune_bfs(graph, roots);
  out << "BFS:  best alpha=" << bfs.best.alpha
      << " beta=" << bfs.best.beta << " mean=" << bfs.best_mean_seconds
      << "s over " << bfs.mean_seconds.size() << " candidates\n";

  EdgeList weighted = graph;
  if (!weighted.weighted) {
    weighted = with_random_weights(graph, spec.seed ^ 0x77EEDull,
                                   spec.max_weight);
  }
  const auto delta = harness::tune_delta(weighted, roots);
  out << "SSSP: best delta=" << delta.best_delta
      << " mean=" << delta.best_mean_seconds << "s over "
      << delta.mean_seconds.size() << " candidates\n";
  return 0;
}

int cmd_graphalytics(const Args& args, std::ostream& out) {
  args.expect_known({"kind", "graph", "scale", "edgefactor", "fraction",
                     "seed", "no-symmetrize", "no-dedupe", "weights",
                     "max-weight", "systems", "algorithms", "threads",
                     "workdir", "html"});
  const auto spec = spec_from_args(args);
  epgs::graphalytics::Options opts;
  const auto systems = args.get_list("systems");
  if (!systems.empty()) opts.systems = systems;
  const auto algs = args.get_list("algorithms");
  if (!algs.empty()) {
    opts.algorithms.clear();
    for (const auto& a : algs) {
      opts.algorithms.push_back(harness::algorithm_from_name(a));
    }
  } else {
    opts.algorithms = {harness::Algorithm::kBfs,
                       harness::Algorithm::kPageRank,
                       harness::Algorithm::kWcc};
  }
  opts.threads = args.get_int("threads", 0);
  opts.work_dir = args.get("workdir", "graphalytics-work");

  const auto report = epgs::graphalytics::run(spec, opts);
  out << epgs::graphalytics::render_table(report);

  const std::string html_path = args.get("html");
  if (!html_path.empty()) {
    write_out_file(html_path, epgs::graphalytics::render_html(report));
    out << "wrote HTML report to " << html_path << "\n";
  }
  return 0;
}

int cmd_predict(const Args& args, std::ostream& out) {
  args.expect_known({"system", "algorithm", "scale", "edgefactor",
                     "time-limit", "memory-limit-mib", "probe-small",
                     "probe-large"});
  const std::string system = args.get("system", "GAP");
  const auto alg =
      harness::algorithm_from_name(args.get("algorithm", "BFS"));
  const auto pred = harness::Predictor::calibrate(
      system, alg, args.get_int("probe-small", 8),
      args.get_int("probe-large", 10));

  // Target: a Kronecker graph of the requested scale (paper defaults).
  const int scale = args.get_int("scale", 22);
  const int edgefactor = args.get_int("edgefactor", 16);
  harness::GraphStats stats;
  stats.n = vid_t{1} << scale;
  stats.m = static_cast<eid_t>(2 * edgefactor) << scale;  // symmetrized
  stats.sum_deg_sq = static_cast<double>(stats.m) * 4.0 * edgefactor *
                     (1 << (scale / 3));  // RMAT skew heuristic

  const double t = pred.predict_seconds(stats);
  const auto bytes = pred.predict_bytes(stats);
  out << system << ' ' << harness::algorithm_name(alg) << " at scale "
      << scale << ": predicted " << t << " s per trial, ~"
      << format_bytes(bytes) << " resident\n";

  const double limit = args.get_double("time-limit", 0.0);
  if (limit > 0.0) {
    const auto mem =
        static_cast<std::size_t>(args.get_int("memory-limit-mib", 1 << 20))
        << 20;
    out << "feasible within " << limit << " s / "
        << format_bytes(mem) << ": "
        << (pred.feasible(stats, limit, mem) ? "yes" : "NO") << "\n";
  }
  return 0;
}

int cmd_stats(const Args& args, std::ostream& out) {
  args.expect_known({"kind", "graph", "scale", "edgefactor", "fraction",
                     "seed", "no-symmetrize", "no-dedupe", "weights",
                     "max-weight"});
  const auto spec = spec_from_args(args);
  const EdgeList el = harness::materialize(spec);
  out << "dataset: " << spec.name() << "\n"
      << render_summary(summarize_graph(el));
  return 0;
}

std::string usage() {
  return
      "epg — easy-parallel-graph-* pipeline (Pollard & Norris, CLUSTER'17)\n"
      "\n"
      "usage: epg <command> [options]\n"
      "\n"
      "commands:\n"
      "  generate    --kind kron|patents|dota [--scale N] [--edgefactor N]\n"
      "              [--fraction F] [--seed S] [--weights] [--max-weight W]\n"
      "              [--no-symmetrize] [--no-dedupe] [--out file.snap]\n"
      "  homogenize  --in file.snap [--name NAME] [--out DIR]\n"
      "  prepare     [--kind ...] [--cache-dir DIR] [--lock-timeout SEC]\n"
      "              [--min-free-disk MIB]\n"
      "              materialize into the content-addressed dataset cache\n"
      "              (exit 3 when the cache cannot be written)\n"
      "  run         [--kind ... | --kind snap --graph file.snap]\n"
      "              [--systems A,B,...] [--algorithms BFS,SSSP,...]\n"
      "              [--roots N] [--threads N] [--validate]\n"
      "              [--no-reconstruct] [--csv out.csv] [--logdir DIR]\n"
      "              [--timeout SEC] [--retries N] [--isolate]\n"
      "              [--mem-limit MIB]   per-unit memory governor\n"
      "              [--journal FILE [--resume]] [--allow-dnf]\n"
      "              [--checkpoint-dir DIR [--checkpoint-every N]\n"
      "               [--checkpoint-every-seconds SEC]]  mid-trial\n"
      "              snapshots: killed/timed-out units resume mid-kernel\n"
      "              (SIGINT/SIGTERM stop gracefully, exit 128+sig)\n"
      "              [--iter-trace FILE]  per-iteration telemetry JSONL\n"
      "              [--cache-dir DIR]\n"
      "              [--lock-timeout SEC] [--min-free-disk MIB]\n"
      "              exit 3 when any trial DNFs (unless --allow-dnf)\n"
      "              [--retry-all]  retry every recoverable failure\n"
      "              [--crash-dir DIR]  crash forensics: signal-killed\n"
      "              units leave post-mortems (backtrace, phase, faults)\n"
      "  chaos       [--seed N] [--rounds K] [--scale N] [--edgefactor N]\n"
      "              [--systems ...] [--algorithms ...] [--roots N]\n"
      "              [--work-dir DIR] [--chaos-timeout SEC]\n"
      "              [--chaos-retries N] [--shrink] [--force-violation]\n"
      "              [--replay FILE]   seeded fault schedules over a real\n"
      "              sweep; checks the stripped CSV stays byte-identical\n"
      "              to a fault-free control (exit 4 on violation; with\n"
      "              --shrink, ddmin writes a minimal replayable spec)\n"
      "  serve       [--socket PATH] [--queue-depth N]\n"
      "              [--max-resident-bytes N]  warm-graph LRU budget\n"
      "              [--cache-dir DIR] [--timeout SEC] [--retries N]\n"
      "              [--validate]   warm-graph query daemon; `stats` and\n"
      "              shutdown dump served/coalesced/rejected counters and\n"
      "              p50/p95/p99 latency (SIGINT/SIGTERM exit 128+sig)\n"
      "  query       [ping|stats|shutdown|run] [--socket PATH]\n"
      "              [--kind ... | --kind snap --graph file.snap]\n"
      "              --system S [--algorithm A] [--roots N] [--threads N]\n"
      "              [--deadline-ms MS] [--out FILE]\n"
      "              exit 6 when the server sheds load, 7 on a missed\n"
      "              deadline, 4 on other server-side errors\n"
      "  parse       --logdir DIR [--csv out.csv] [--threads N]\n"
      "  analyze     [--csv results.csv] [--out PREFIX]\n"
      "  tune        [--kind ...] [--roots N]   (GAP alpha/beta + Delta)\n"
      "  graphalytics [--kind ...] [--systems ...] [--algorithms ...]\n"
      "              [--html report.html]   (single-trial comparator)\n"
      "  predict     --system S --algorithm A --scale N\n"
      "              [--time-limit SEC] [--memory-limit-mib M]\n"
      "  stats       [--kind ... | --kind snap --graph file.snap]\n";
}

int dispatch(const std::vector<std::string>& argv, std::ostream& out,
             std::ostream& err) {
  if (argv.empty()) {
    err << usage();
    return 2;
  }
  const std::string& cmd = argv[0];
  try {
    const Args args = Args::parse({argv.begin() + 1, argv.end()});
    if (cmd == "generate") return cmd_generate(args, out);
    if (cmd == "homogenize") return cmd_homogenize(args, out);
    if (cmd == "prepare") return cmd_prepare(args, out);
    if (cmd == "run") return cmd_run(args, out);
    if (cmd == "chaos") return cmd_chaos(args, out);
    if (cmd == "serve") return cmd_serve(args, out);
    if (cmd == "query") return cmd_query(args, out);
    if (cmd == "parse") return cmd_parse(args, out);
    if (cmd == "analyze") return cmd_analyze(args, out);
    if (cmd == "tune") return cmd_tune(args, out);
    if (cmd == "graphalytics") return cmd_graphalytics(args, out);
    if (cmd == "predict") return cmd_predict(args, out);
    if (cmd == "stats") return cmd_stats(args, out);
    if (cmd == "help" || cmd == "--help") {
      out << usage();
      return 0;
    }
  } catch (const std::exception& e) {
    err << "epg " << cmd << ": " << e.what() << "\n";
    return 1;
  }
  err << "epg: unknown command '" << cmd << "'\n\n" << usage();
  return 2;
}

}  // namespace epgs::cli

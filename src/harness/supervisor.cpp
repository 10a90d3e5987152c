#include "harness/supervisor.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>

#include "core/crash_report.hpp"
#include "core/parallel.hpp"
#include "core/proc_stats.hpp"
#include "core/text_scan.hpp"
#include "core/timer.hpp"

namespace epgs::harness {
namespace {

/// Resident-set watchdog for one attempt: polls /proc/self/statm and
/// cancels the token when RSS crosses the limit, so an over-budget unit
/// unwinds cooperatively before the kernel OOM killer gets involved.
/// RLIMIT_AS (applied in isolated children) is the hard backstop; this is
/// the soft one that also works un-isolated.
class RssWatchdog {
 public:
  RssWatchdog(CancellationToken& token, std::uint64_t limit_bytes)
      : limit_bytes_(limit_bytes) {
    thread_ = std::thread([this, &token] {
      std::unique_lock<std::mutex> lk(mutex_);
      while (!done_) {
        // resident_set_bytes() returns 0 when /proc is unreadable, so a
        // broken /proc disables rather than trips the watchdog.
        if (resident_set_bytes() > limit_bytes_) {
          tripped_.store(true, std::memory_order_relaxed);
          token.cancel();
          return;
        }
        cv_.wait_for(lk, std::chrono::milliseconds(25));
      }
    });
  }

  ~RssWatchdog() {
    {
      std::lock_guard<std::mutex> lk(mutex_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  RssWatchdog(const RssWatchdog&) = delete;
  RssWatchdog& operator=(const RssWatchdog&) = delete;

  [[nodiscard]] bool tripped() const {
    return tripped_.load(std::memory_order_relaxed);
  }

 private:
  std::uint64_t limit_bytes_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  std::atomic<bool> tripped_{false};
  std::thread thread_;
};

std::string one_line(std::string s) {
  for (char& c : s) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return s;
}

/// One attempt, in this process. The token polls the attempt's deadline
/// and the interrupt flag itself; only memory needs a sampler thread.
TrialReport run_attempt(const UnitFn& fn, const SupervisorOptions& opts,
                        CheckpointSession* session) {
  TrialReport r;
  CancellationToken token(
      Deadline::after(std::chrono::duration<double>(opts.timeout_seconds)));
  std::optional<RssWatchdog> rss_dog;
  // opts.isolate here means "this is the forked child": RLIMIT_AS is
  // already the hard guard, and under a tight limit the sampler's own
  // thread stack may not even be mappable — skip the soft guard.
  if (opts.mem_limit_bytes > 0 && !opts.isolate) {
    try {
      rss_dog.emplace(token, opts.mem_limit_bytes);
    } catch (const std::exception&) {
      // The sampler could not start: run the unit without the soft guard
      // rather than fail it.
    }
  }
  try {
    r.log = fn(token);
    r.outcome = Outcome::kSuccess;
  } catch (const std::bad_alloc&) {
    r.outcome = Outcome::kOomKilled;
    r.message = "allocation failed under the memory limit (std::bad_alloc)";
  } catch (const std::exception& e) {
    r.outcome = classify_exception(e);
    r.message = one_line(e.what());
    // The interrupt flag, the RSS sampler and the deadline all cancel
    // the same token; disambiguate what the resulting CancelledError
    // meant. An interrupt trumps everything — the unit is journaled as
    // interrupted and re-run on --resume.
    if (r.outcome == Outcome::kTimeout && interrupt_requested()) {
      r.outcome = Outcome::kInterrupted;
      r.message = "interrupted by signal " +
                  std::to_string(interrupt_signal()) + " (" + r.message +
                  ")";
    }
    // With no deadline and no RSS trip, nothing supervised cancelled the
    // token: a CancelledError from elsewhere is a crash, not a timeout.
    if (r.outcome == Outcome::kTimeout && opts.timeout_seconds <= 0 &&
        !(rss_dog && rss_dog->tripped())) {
      r.outcome = Outcome::kCrash;
    }
  }
  // When the RSS watchdog fired, the CancelledError means over-memory,
  // not over-time.
  if (rss_dog && rss_dog->tripped() && r.outcome == Outcome::kTimeout) {
    r.outcome = Outcome::kOomKilled;
    r.message =
        "resident set exceeded the memory limit; cancelled by the RSS "
        "watchdog (" +
        r.message + ")";
  }
  if (session != nullptr) {
    r.resumed_from_iter = session->resumed_from();
    r.warning = session->warning();
  }
  return r;
}

// --- fork() isolation ----------------------------------------------------

void write_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::write(fd, data.data(), data.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // parent gone; nothing useful left to do
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
}

[[noreturn]] void child_main(const UnitFn& fn, const SupervisorOptions& opts,
                             int fd, CheckpointSession* session) {
  // libgomp's worker threads do not survive fork(): a multi-threaded
  // parallel region in the child deadlocks waiting for a pool that no
  // longer exists. Pin the child to one thread for correctness; the cost
  // is on the caller's DESIGN.md trade-off list.
  ThreadScope scope(1);
  // Crash forensics: if this child dies on a fatal signal, leave a
  // post-mortem (signal, backtrace, phase/iteration, armed faults) for
  // the parent to attach to the unit's journal record. arm() failure is
  // silently tolerated — forensics must never fail a trial.
  if (!opts.crash_report_path.empty()) {
    (void)crash::arm(opts.crash_report_path);
  }
  if (opts.mem_limit_bytes > 0) {
    // Hard ceiling: any allocation past the cap fails with bad_alloc,
    // which run_attempt classifies as kOomKilled. RLIMIT_AS counts the
    // COW address space inherited from the parent, so the effective
    // budget for *new* allocations is limit minus the parent footprint.
    struct rlimit rl{};
    rl.rlim_cur = rl.rlim_max = opts.mem_limit_bytes;
    (void)::setrlimit(RLIMIT_AS, &rl);
  }
  write_all(fd, run_attempt(fn, opts, session).to_report_text());
  ::close(fd);
  ::_exit(0);  // skip atexit/static destructors: this is not our process
}

TrialReport run_isolated_attempt(const UnitFn& fn,
                                 const SupervisorOptions& opts,
                                 CheckpointSession* session) {
  int fds[2];
  EPGS_CHECK(::pipe(fds) == 0, "pipe() failed for trial isolation");

  // Drop any report a previous attempt left: a stale stack must not be
  // attributed to this attempt if it dies report-less (e.g. SIGKILL).
  if (!opts.crash_report_path.empty()) {
    ::unlink(opts.crash_report_path.c_str());
  }

  const pid_t pid = ::fork();
  EPGS_CHECK(pid >= 0, "fork() failed for trial isolation");
  if (pid == 0) {
    ::close(fds[0]);
    child_main(fn, opts, fds[1], session);  // never returns
  }
  ::close(fds[1]);

  // The child's token polls its own deadline; this hard deadline only matters
  // when the child is wedged beyond cooperative cancellation (e.g. a hang
  // inside an OpenMP region). Grace factor + constant floor keep slow
  // teardown from being misread as a hang.
  const double hard_deadline =
      opts.timeout_seconds > 0 ? opts.timeout_seconds * 1.5 + 2.0 : -1.0;

  std::string payload;
  char buf[4096];
  bool hard_killed = false;
  WallTimer t;
  struct pollfd pfd{fds[0], POLLIN, 0};
  for (;;) {
    if (hard_deadline > 0 && t.seconds() > hard_deadline) {
      ::kill(pid, SIGKILL);
      hard_killed = true;
      break;
    }
    const int pr = ::poll(&pfd, 1, 50);
    if (pr < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (pr == 0) continue;
    const ssize_t n = ::read(fds[0], buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF: child exited (or died)
    payload.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);

  int status = 0;
  ::waitpid(pid, &status, 0);

  // Post-mortem: whichever way the child died, check whether its crash
  // handler left a report. A SIGKILL death leaves none (unblockable);
  // read_report simply returns nullopt for the absent/stale file.
  const auto attach_forensics = [&opts](TrialReport& out) {
    if (opts.crash_report_path.empty()) return;
    if (const auto cr = crash::read_report(opts.crash_report_path)) {
      out.crash_fingerprint = cr->fingerprint;
      out.crash_report_path = opts.crash_report_path;
      std::string where = cr->phase;
      if (cr->iteration >= 0) {
        where += " iter=" + std::to_string(cr->iteration);
      }
      out.message += " [" + cr->signal_name +
                     (where.empty() ? "" : " at " + where) +
                     (cr->fingerprint.empty()
                          ? ""
                          : " stack=" + cr->fingerprint.substr(0, 8)) +
                     "]";
    }
  };

  TrialReport r;
  if (hard_killed) {
    r.outcome = Outcome::kTimeout;
    r.message = "isolated trial exceeded the hard deadline and was killed";
    return r;
  }
  if (WIFSIGNALED(status)) {
    if (WTERMSIG(status) == SIGKILL) {
      // We did not send it (hard_killed returned above), so this is the
      // kernel OOM killer — the governor's worst case, still per-unit.
      r.outcome = Outcome::kOomKilled;
      r.message = "isolated trial SIGKILLed (kernel OOM killer)";
    } else {
      r.outcome = Outcome::kCrash;
      r.message = "isolated trial killed by signal " +
                  std::to_string(WTERMSIG(status));
    }
    attach_forensics(r);
    return r;
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    r.outcome = Outcome::kCrash;
    r.message = "isolated trial exited with status " +
                std::to_string(WIFEXITED(status) ? WEXITSTATUS(status) : -1);
    attach_forensics(r);
    return r;
  }
  try {
    return TrialReport::parse_report_text(payload);
  } catch (const std::exception& e) {
    r.outcome = Outcome::kCrash;
    r.message = std::string("isolated trial returned a corrupt report: ") +
                e.what();
    return r;
  }
}

}  // namespace

std::string TrialReport::to_report_text() const {
  // Shortest form that reads back as the same double.
  char elapsed[32];
  const auto printed =
      std::to_chars(elapsed, elapsed + sizeof elapsed, elapsed_seconds);
  std::ostringstream os;
  os << "outcome " << outcome_name(outcome) << "\nattempts " << attempts
     << "\nlast_failure " << outcome_name(last_failure) << "\nresumed "
     << resumed_from_iter << "\nelapsed "
     << std::string_view(elapsed, printed.ptr) << "\nmessage "
     << one_line(message) << "\ncrash_fingerprint "
     << one_line(crash_fingerprint) << "\ncrash_report "
     << one_line(crash_report_path) << "\nsnapshot " << snapshot_iter
     << "\nwarning " << one_line(warning) << "\nlog\n"
     << log.to_log_text();
  return os.str();
}

TrialReport TrialReport::parse_report_text(std::string_view body) {
  constexpr std::string_view kCtx = "unit report";
  // Consume the "<name> <value>" line that must come next; return value.
  const auto field = [&body](std::string_view name) {
    const std::size_t eol = body.find('\n');
    const std::string_view line = body.substr(0, eol);
    EPGS_CHECK(eol != std::string_view::npos && line.starts_with(name) &&
                   (line.size() == name.size() || line[name.size()] == ' '),
               "unit report: missing " + std::string(name) + " line");
    body.remove_prefix(eol + 1);
    return line.substr(std::min(line.size(), name.size() + 1));
  };
  TrialReport r;
  r.outcome = outcome_from_name(field("outcome"));
  r.attempts = text::parse<int>(field("attempts"), kCtx, "attempts", 0);
  r.last_failure = outcome_from_name(field("last_failure"));
  r.resumed_from_iter =
      text::parse<std::int64_t>(field("resumed"), kCtx, "resumed", 0);
  r.elapsed_seconds =
      text::parse<double>(field("elapsed"), kCtx, "elapsed", 0);
  r.message = std::string(field("message"));
  r.crash_fingerprint = std::string(field("crash_fingerprint"));
  r.crash_report_path = std::string(field("crash_report"));
  r.snapshot_iter =
      text::parse<std::int64_t>(field("snapshot"), kCtx, "snapshot", 0);
  r.warning = std::string(field("warning"));
  EPGS_CHECK(field("log").empty(), "unit report: malformed log marker");
  r.log = PhaseLog::parse_log_text(body);
  return r;
}

Outcome classify_exception(const std::exception& e) {
  if (dynamic_cast<const CancelledError*>(&e) != nullptr) {
    return Outcome::kTimeout;
  }
  if (dynamic_cast<const TransientError*>(&e) != nullptr) {
    return Outcome::kTransient;
  }
  if (dynamic_cast<const UnsupportedAlgorithm*>(&e) != nullptr) {
    return Outcome::kUnsupported;
  }
  if (dynamic_cast<const ValidationFailedError*>(&e) != nullptr) {
    return Outcome::kValidationFailed;
  }
  if (dynamic_cast<const std::bad_alloc*>(&e) != nullptr) {
    return Outcome::kOomKilled;
  }
  if (dynamic_cast<const ResourceExhaustedError*>(&e) != nullptr) {
    return Outcome::kResourceExhausted;
  }
  return Outcome::kCrash;
}

double backoff_delay(const SupervisorOptions& opts, int attempt,
                     Xoshiro256& rng) {
  double d = opts.backoff_base_seconds *
             static_cast<double>(1u << (attempt > 0 ? attempt - 1 : 0));
  d *= 1.0 + rng.uniform();  // full jitter: avoid retry convoys
  return d < opts.backoff_max_seconds ? d : opts.backoff_max_seconds;
}

TrialReport supervise_unit(const UnitFn& fn, const SupervisorOptions& opts,
                           Xoshiro256& rng, CheckpointSession* session) {
  TrialReport report;
  WallTimer total;
  for (int attempt = 1;; ++attempt) {
    TrialReport r = opts.isolate ? run_isolated_attempt(fn, opts, session)
                                 : run_attempt(fn, opts, session);
    report.outcome = r.outcome;
    report.message = std::move(r.message);
    report.log = std::move(r.log);
    report.resumed_from_iter = r.resumed_from_iter;
    report.attempts = attempt;
    if (report.warning.empty()) report.warning = std::move(r.warning);
    // A later clean attempt keeps the forensics of the crash it recovered
    // from: "passed on retry after SIGSEGV at iter 12" is the interesting
    // datum, and the fingerprint feeds the aggregated failure table.
    if (!r.crash_fingerprint.empty()) {
      report.crash_fingerprint = std::move(r.crash_fingerprint);
      report.crash_report_path = std::move(r.crash_report_path);
    }
    if (report.outcome == Outcome::kSuccess ||
        report.outcome == Outcome::kInterrupted ||
        attempt > opts.max_retries) {
      break;
    }
    // Transient failures have always been retryable. With a snapshot on
    // disk, a timed-out / crashed / OOM-killed attempt is too: the retry
    // restores the snapshot and continues from iteration N instead of
    // repeating the work that already failed once.
    const bool snapshot_resumable =
        session != nullptr && session->snapshot_exists() &&
        (report.outcome == Outcome::kTimeout ||
         report.outcome == Outcome::kCrash ||
         report.outcome == Outcome::kOomKilled);
    // retry_all_failures widens eligibility to every recoverable outcome
    // (full restart when no snapshot exists). kConfig/kUnsupported stay
    // terminal: they reproduce by construction, retries only burn time.
    const bool retry_all =
        opts.retry_all_failures &&
        (report.outcome == Outcome::kTimeout ||
         report.outcome == Outcome::kCrash ||
         report.outcome == Outcome::kOomKilled ||
         report.outcome == Outcome::kValidationFailed ||
         report.outcome == Outcome::kResourceExhausted);
    if (report.outcome != Outcome::kTransient && !snapshot_resumable &&
        !retry_all) {
      break;
    }
    if (interrupt_requested()) break;  // don't start new attempts
    report.last_failure = report.outcome;
    // The next attempt unlinks the canonical report path before forking;
    // move this attempt's post-mortem aside so a recovered-after-crash
    // unit still points at a live file.
    if (!report.crash_report_path.empty() &&
        report.crash_report_path == opts.crash_report_path) {
      const std::string preserved = opts.crash_report_path + ".prev";
      if (std::rename(opts.crash_report_path.c_str(), preserved.c_str()) ==
          0) {
        report.crash_report_path = preserved;
      }
    }
    const double delay = backoff_delay(opts, attempt, rng);
    std::this_thread::sleep_for(std::chrono::duration<double>(delay));
  }
  report.elapsed_seconds = total.seconds();
  // arm() pre-creates the report file at child start; a unit whose final
  // attempt never crashed leaves it empty. Drop it so --crash-dir holds
  // only real post-mortems (.prev files from survived crashes included).
  if (!opts.crash_report_path.empty() &&
      report.crash_report_path != opts.crash_report_path) {
    struct stat st{};
    if (::stat(opts.crash_report_path.c_str(), &st) == 0 && st.st_size == 0) {
      ::unlink(opts.crash_report_path.c_str());
    }
  }
  return report;
}

// --- Journal -------------------------------------------------------------

namespace {
constexpr std::string_view kJournalMagic = "epgs-journal-v3";
constexpr std::string_view kUnit = "unit ";
constexpr std::string_view kEnd = "end\n";
}  // namespace

Journal::~Journal() { close(); }

void Journal::open_fresh(const std::string& path,
                         const std::string& fingerprint) {
  close();
  degraded_reason_.clear();
  file_ = std::make_unique<fsx::OutStream>(path,
                                           fsx::OutStream::Mode::kTruncate);
  *file_ << kJournalMagic << "\nconfig " << fingerprint << '\n';
  file_->sync_now();
  // Durability of the file itself, not just its bytes: fsync the parent
  // directory so the journal entry survives a crash right after creation.
  const auto parent = std::filesystem::path(path).parent_path();
  fsx::fsync_dir(parent.empty() ? std::filesystem::path(".") : parent);
}

void Journal::open_append(const std::string& path) {
  close();
  degraded_reason_.clear();
  file_ = std::make_unique<fsx::OutStream>(path,
                                           fsx::OutStream::Mode::kAppend);
}

void Journal::append(const std::string& key, const TrialReport& report) {
  if (file_ == nullptr) return;
  const std::string body = report.to_report_text();
  std::ostringstream os;
  os << kUnit << key << '|' << body.size() << '\n' << body << kEnd;
  try {
    *file_ << os.str();
    // fsync per group: a group is durable or absent, never half-written
    // after a crash (replay additionally drops a torn trailing group).
    file_->sync_now();
  } catch (const EpgsError& e) {
    // Disk full (or injected fault) mid-sweep: journaling stops, the
    // sweep does not. Replay tolerates the torn tail this may leave.
    degraded_reason_ = one_line(e.what());
    file_.reset();
  }
}

void Journal::close() {
  if (file_ != nullptr) {
    try {
      file_->close();
    } catch (const EpgsError& e) {
      degraded_reason_ = one_line(e.what());
    }
    file_.reset();
  }
}

std::vector<JournalEntry> replay_journal(const std::string& path,
                                         const std::string& fingerprint) {
  std::ifstream in(path, std::ios::binary);
  EPGS_CHECK(in.good(), "cannot open journal for resume: " + path);
  std::ostringstream whole;
  whole << in.rdbuf();
  const std::string data = whole.str();
  std::string_view rest = data;
  // Consume one newline-terminated line; nullopt when none is left whole.
  const auto next_line = [&rest]() -> std::optional<std::string_view> {
    const std::size_t eol = rest.find('\n');
    if (eol == std::string_view::npos) return std::nullopt;
    const std::string_view line = rest.substr(0, eol);
    rest.remove_prefix(eol + 1);
    return line;
  };
  const auto magic = next_line();
  EPGS_CHECK(magic && *magic == kJournalMagic,
             "journal has a bad header (expected " +
                 std::string(kJournalMagic) + "): " + path);
  const auto config = next_line();
  EPGS_CHECK(config && config->starts_with("config "),
             "journal is missing its config line: " + path);
  const std::string_view recorded = config->substr(7);
  EPGS_CHECK(recorded == fingerprint,
             "journal was written by a different experiment configuration "
             "(journal: '" +
                 std::string(recorded) + "', current: '" + fingerprint +
                 "')");

  // Anything that is not a whole group ends the replay: the torn tail of
  // the unit that was in flight, which simply re-runs.
  std::vector<JournalEntry> entries;
  while (const auto line = next_line()) {
    // unit <key>|<bytes> — the key may itself contain '|'.
    const std::size_t bar = line->rfind('|');
    if (!line->starts_with(kUnit) || bar == std::string_view::npos) break;
    const auto bytes = text::try_parse<std::size_t>(line->substr(bar + 1));
    if (!bytes || rest.size() < *bytes ||
        rest.substr(*bytes, kEnd.size()) != kEnd) {
      break;
    }
    JournalEntry e;
    e.key = std::string(line->substr(kUnit.size(), bar - kUnit.size()));
    try {
      e.report = TrialReport::parse_report_text(rest.substr(0, *bytes));
    } catch (const std::exception&) {
      break;
    }
    rest.remove_prefix(*bytes + kEnd.size());
    entries.push_back(std::move(e));
  }
  return entries;
}

std::string config_fingerprint(const ExperimentConfig& cfg) {
  std::ostringstream os;
  os << cfg.graph.name() << ";roots=" << cfg.num_roots
     << ";root_seed=" << cfg.root_seed
     << ";threads=" << (cfg.threads > 0 ? cfg.threads : max_threads())
     << ";rebuild=" << (cfg.reconstruct_per_trial ? 1 : 0)
     << ";validate=" << (cfg.validate ? 1 : 0)
     << ";cdlp_it=" << cfg.cdlp_iterations << ";algs=";
  for (const Algorithm a : cfg.algorithms) os << algorithm_name(a) << ',';
  // The data path changes the unit set (native-file mode adds load
  // units), so a journal from one mode must not resume the other.
  os << ";datapath=" << (cfg.dataset.enabled() ? "file" : "ram");
  return os.str();
}

}  // namespace epgs::harness

#include "systems/common/fault_injection.hpp"

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>

#include <fcntl.h>
#include <unistd.h>

#include "core/checkpoint.hpp"
#include "core/crash_report.hpp"
#include "core/error.hpp"
#include "core/text_scan.hpp"

namespace epgs::fault {
namespace {

// Crash-note slots (core/crash_report): which armed plan goes where in a
// post-mortem report. Slot 3 belongs to the fs shim (see fs_shim.cpp).
constexpr int kNotePhasePlan = 0;
constexpr int kNoteKillPlan = 1;
constexpr int kNoteCancelOrPublish = 2;

Plan g_plan;
std::atomic<bool> g_armed{false};
std::atomic<int> g_events{0};
std::atomic<int> g_fires{0};
std::atomic<bool> g_corrupt_pending{false};

bool matches(std::string_view system, std::string_view phase) {
  if (!g_plan.system.empty() && g_plan.system != system) return false;
  if (!g_plan.phase.empty() && g_plan.phase != phase) return false;
  return true;
}

/// Claim `marker` with O_CREAT|O_EXCL. True when this process won the
/// claim (fault should execute); false when the marker already exists —
/// some earlier attempt, possibly a since-dead fork child, already fired.
/// An empty marker always claims (in-process counters are the only limit).
bool claim_once(const std::string& marker) {
  if (marker.empty()) return true;
  const int fd =
      ::open(marker.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  // The marker must survive the process death the fault is about to
  // cause; same-machine page cache persists across _exit/SIGKILL, so a
  // plain close suffices.
  ::close(fd);
  return true;
}

std::string describe(const Plan& p) {
  std::string d = "phase:";
  d += kind_name(p.kind);
  d += " system=";
  d += p.system.empty() ? "*" : p.system;
  d += " phase=";
  d += p.phase.empty() ? "*" : p.phase;
  d += " at=" + std::to_string(p.at_phase);
  d += " count=" + std::to_string(p.max_fires);
  return d;
}

}  // namespace

std::string_view kind_name(Kind k) {
  switch (k) {
    case Kind::kNone: return "none";
    case Kind::kHang: return "hang";
    case Kind::kTransient: return "transient";
    case Kind::kError: return "error";
    case Kind::kAbort: return "abort";
    case Kind::kSegv: return "segv";
    case Kind::kBadAlloc: return "bad-alloc";
    case Kind::kWrongOutput: return "wrong-output";
  }
  return "?";
}

void arm(const Plan& plan) {
  g_plan = plan;
  g_events.store(0);
  g_fires.store(0);
  g_corrupt_pending.store(false);
  g_armed.store(true, std::memory_order_release);
  crash::note_fault(kNotePhasePlan, describe(plan));
}

void disarm() {
  g_armed.store(false, std::memory_order_release);
  g_plan = Plan{};
  g_events.store(0);
  g_fires.store(0);
  g_corrupt_pending.store(false);
  crash::note_fault(kNotePhasePlan, {});
}

bool armed() { return g_armed.load(std::memory_order_acquire); }

int phase_events() { return g_events.load(); }

int fire_count() { return g_fires.load(); }

void on_phase_start(std::string_view system, std::string_view phase,
                    const CancellationToken* token) {
  if (!armed()) return;
  if (!matches(system, phase)) return;
  const int event = g_events.fetch_add(1);
  if (event < g_plan.at_phase) return;
  if (g_fires.load() >= g_plan.max_fires) return;
  if (!claim_once(g_plan.once_marker)) return;
  g_fires.fetch_add(1);

  switch (g_plan.kind) {
    case Kind::kNone:
      break;
    case Kind::kHang:
      // Cooperative stand-in for an algorithmic livelock: spins exactly
      // until the token reports cancelled (deadline, interrupt or RSS
      // trip). With no token (an unsupervised system) this hangs for real.
      while (token == nullptr || !token->cancelled()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      throw CancelledError("injected hang cancelled by watchdog");
    case Kind::kTransient:
      throw TransientError("injected transient fault in " +
                           std::string(system) + " at phase '" +
                           std::string(phase) + "'");
    case Kind::kError:
      throw EpgsError("injected error in " + std::string(system) +
                      " at phase '" + std::string(phase) + "'");
    case Kind::kAbort:
      std::abort();
    case Kind::kSegv:
      // A genuine (if self-inflicted) SIGSEGV: deterministic, defined
      // behaviour, and it drives the crash-forensics handler exactly
      // like a wild pointer would.
      ::raise(SIGSEGV);
      break;
    case Kind::kBadAlloc:
      // Memory-squeeze stand-in: what operator new throws when RLIMIT_AS
      // (or the real machine) runs out mid-build. The supervisor
      // classifies it as Outcome::kOomKilled.
      throw std::bad_alloc();
    case Kind::kWrongOutput:
      g_corrupt_pending.store(true);
      break;
  }
}

bool take_wrong_output() {
  return g_corrupt_pending.exchange(false);
}

// --- Checkpoint-boundary faults ----------------------------------------

namespace {

KillPlan g_kill_plan;
std::atomic<bool> g_kill_armed{false};
CancelPlan g_cancel_plan;
std::atomic<bool> g_cancel_armed{false};

bool kill_armed() { return g_kill_armed.load(std::memory_order_acquire); }

}  // namespace

void arm_kill_at_checkpoint(const KillPlan& plan) {
  g_kill_plan = plan;
  g_kill_armed.store(true, std::memory_order_release);
  crash::note_fault(kNoteKillPlan,
                    "ckpt-kill system=" +
                        (plan.system.empty() ? "*" : plan.system) +
                        " iter=" + std::to_string(plan.at_iteration));
}

void disarm_kill_at_checkpoint() {
  g_kill_armed.store(false, std::memory_order_release);
  g_kill_plan = KillPlan{};
  crash::note_fault(kNoteKillPlan, {});
}

void on_checkpoint_saved(std::string_view system, std::uint64_t iteration) {
  if (!kill_armed()) return;
  if (!g_kill_plan.system.empty() && g_kill_plan.system != system) return;
  if (iteration != g_kill_plan.at_iteration) return;
  if (!claim_once(g_kill_plan.once_marker)) return;
  // The snapshot covering `iteration` is durable: die the way a kernel
  // OOM kill or power loss would, with no chance to clean up.
  ::raise(SIGKILL);
}

void arm_kill_from_env() {
  const char* spec = std::getenv("EPGS_KILL_AT_CKPT");
  if (spec == nullptr || *spec == '\0') return;
  KillPlan plan;
  std::string_view s(spec);
  const std::size_t colon = s.rfind(':');
  if (colon != std::string_view::npos) {
    plan.system = std::string(s.substr(0, colon));
    s = s.substr(colon + 1);
  }
  plan.at_iteration =
      text::parse<std::uint64_t>(s, "EPGS_KILL_AT_CKPT", "iteration", 0);
  arm_kill_at_checkpoint(plan);
}

void arm_cancel_at_iteration(const CancelPlan& plan) {
  g_cancel_plan = plan;
  g_cancel_armed.store(true, std::memory_order_release);
  crash::note_fault(kNoteCancelOrPublish,
                    "cancel system=" +
                        (plan.system.empty() ? "*" : plan.system) +
                        " iter=" + std::to_string(plan.at_iteration));
}

void disarm_cancel_at_iteration() {
  g_cancel_armed.store(false, std::memory_order_release);
  g_cancel_plan = CancelPlan{};
  crash::note_fault(kNoteCancelOrPublish, {});
}

void on_iteration_boundary(std::string_view system, std::uint64_t completed,
                           const CancellationToken* token) {
  if (!g_cancel_armed.load(std::memory_order_acquire)) return;
  if (token == nullptr) return;
  if (!g_cancel_plan.system.empty() && g_cancel_plan.system != system) {
    return;
  }
  if (completed != g_cancel_plan.at_iteration) return;
  if (!claim_once(g_cancel_plan.once_marker)) return;
  token->cancel();
}

// --- Snapshot-publish faults -------------------------------------------

namespace {

PublishKillPlan g_publish_plan;
std::atomic<bool> g_publish_armed{false};
std::atomic<int> g_publish_events{0};

void publish_hook(const char*) {
  if (!g_publish_armed.load(std::memory_order_acquire)) return;
  const int event = g_publish_events.fetch_add(1) + 1;  // 1-based
  if (event != g_publish_plan.at_publish) return;
  if (!claim_once(g_publish_plan.once_marker)) return;
  // Between the durable tmp write and the publishing rename: the torn
  // window the atomic-publish protocol exists to survive.
  ::raise(SIGKILL);
}

}  // namespace

void arm_kill_at_publish(const PublishKillPlan& plan) {
  g_publish_plan = plan;
  g_publish_events.store(0);
  g_publish_armed.store(true, std::memory_order_release);
  set_snapshot_publish_hook(&publish_hook);
  crash::note_fault(kNoteCancelOrPublish,
                    "publish-kill at=" + std::to_string(plan.at_publish));
}

void disarm_all() {
  disarm();
  disarm_kill_at_checkpoint();
  disarm_cancel_at_iteration();
  g_publish_armed.store(false, std::memory_order_release);
  set_snapshot_publish_hook(nullptr);
  g_publish_plan = PublishKillPlan{};
  g_publish_events.store(0);
  crash::note_fault(kNoteCancelOrPublish, {});
}

}  // namespace epgs::fault

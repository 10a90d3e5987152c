#include "systems/common/kernel_run.hpp"

#include <utility>

#include "core/bitmap.hpp"
#include "core/crash_report.hpp"
#include "systems/common/fault_injection.hpp"
#include "systems/common/system.hpp"

namespace epgs {

void bitmap_field(StateFields& f, Bitmap& bits) {
  f.list(
      [&bits] {
        std::vector<vid_t> members;
        for (std::size_t v = 0; v < bits.size(); ++v) {
          if (bits.test(v)) members.push_back(static_cast<vid_t>(v));
        }
        return members;
      },
      [&bits](const std::vector<vid_t>& members) {
        bits.reset();
        for (const vid_t v : members) bits.set(v);
      });
}

KernelRun::KernelRun(System& sys, std::string_view stage, StateDecl state)
    : sys_(sys) {
  // Unsupervised (no session attached), the kernel starts fresh.
  if (state && sys_.ckpt_ != nullptr) {
    resumed_ = sys_.ckpt_->begin(stage, std::move(state));
    registered_ = true;
  }
}

KernelRun::~KernelRun() {
  if (finished_) return;
  // Unwinding mid-kernel (cancellation, injected fault): the registered
  // state references the dying stack frame, so detach it from the session
  // while leaving the snapshot on disk for the retry. The partial
  // timeline dies with the attempt — the retry re-reports its own.
  if (registered_ && sys_.ckpt_ != nullptr) sys_.ckpt_->detach();
}

void KernelRun::watch_edges(const std::uint64_t* counter) {
  edges_counter_ = counter;
  edges_mark_ = counter != nullptr ? *counter : 0;
}

void KernelRun::close_row() {
  if (!row_open_) return;
  row_.seconds = timer_.seconds();
  if (edges_counter_ != nullptr) {
    row_.edges = *edges_counter_ - edges_mark_;
    edges_mark_ = *edges_counter_;
  }
  timeline_.push_back(row_);
  row_open_ = false;
}

void KernelRun::iteration(std::uint64_t completed, std::uint64_t frontier) {
  close_row();
  // The boundary proper: crash note, fault hook, cadence tick,
  // durable-save report (kill-at-checkpoint), cancellation poll (which
  // snapshots once more and throws when the token fired).
  crash::note_iteration(completed);
  fault::on_iteration_boundary(sys_.name(), completed, sys_.cancel_);
  if (sys_.ckpt_ != nullptr && sys_.ckpt_->tick(completed)) {
    fault::on_checkpoint_saved(sys_.name(),
                               sys_.ckpt_->last_saved_iteration());
  }
  sys_.checkpoint();
  row_ = IterRecord{};
  row_.iter = completed;
  row_.frontier = frontier;
  row_open_ = true;
  timer_.reset();
}

void KernelRun::residual(double r) {
  if (row_open_) row_.residual = r;
}

void KernelRun::finish() {
  close_row();
  if (registered_) sys_.ckpt_->end();
  sys_.pending_timeline_ = std::move(timeline_);
  timeline_.clear();
  finished_ = true;
}

}  // namespace epgs

// The shared kernel runtime: one RAII scope owning everything the six
// adapters used to hand-roll around their iteration loops.
//
// Every kernel in the suite has the same orchestration needs at each
// iteration boundary — fault-injection hooks, checkpoint registration and
// cadence ticking, cancellation polling — plus (new here) a per-iteration
// telemetry row: wall time, frontier size, edges traversed, and the
// convergence residual where the kernel computes one. The paper's core
// observation is that the runtime differences between implementations are
// driven by per-iteration behaviour (convergence criteria stopping
// PageRank at different iteration counts, BFS frontier evolution), so the
// harness needs iteration-granular accounting — implemented once, not six
// times.
//
// Usage shape (the only pattern adapters use):
//
//   KernelRun run(*this, "pagerank", [&](StateFields& f) {  // state optional
//     f.per_vertex(rank);                   // each snapshot field, once
//     f.u64(iterations);
//     f.u64(edge_work);
//   });
//   run.watch_edges(&edge_work);            // optional edge-delta source
//   for (it = run.resumed(); it < max; ++it) {
//     run.iteration(it, active_count);      // boundary: may throw Cancelled
//     ... kernel math ...
//     run.residual(l1);                     // optional, once per iteration
//     if (l1 < eps) break;
//   }
//   run.finish();                           // closes timeline, drops ckpt
//
// iteration(i, f) is the kernel's one boundary: the only place it
// snapshots and polls its cancellation token. No engine polls the token
// itself, so every cancelled kernel leaves a final snapshot. If the scope unwinds before finish()
// (cancellation, fault), the destructor detaches the checkpoint session
// from the dying stack frame — the snapshot stays on disk for the retry —
// and discards the partial timeline.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/phase_log.hpp"
#include "core/timer.hpp"

namespace epgs {

class Bitmap;
class System;

/// A bitmap as a snapshot list field: the list of its set bits (bitmap
/// words are not part of the frame format).
void bitmap_field(StateFields& f, Bitmap& bits);

class KernelRun {
 public:
  /// Opens the scope: registers the `state` declaration with the
  /// system's checkpoint session (when supervised) and restores a valid
  /// snapshot into the fields it names. An empty `state` means the
  /// kernel is single-pass or keeps no serializable state; it still gets
  /// fault hooks, cancellation polling, and telemetry.
  KernelRun(System& sys, std::string_view stage, StateDecl state = {});

  KernelRun(const KernelRun&) = delete;
  KernelRun& operator=(const KernelRun&) = delete;

  ~KernelRun();

  /// Completed iterations restored from a snapshot; 0 on a fresh start.
  /// Loops resume from this index.
  [[nodiscard]] std::uint64_t resumed() const { return resumed_; }

  /// Watch a cumulative edge counter owned by the kernel; each timeline
  /// row records the counter's delta across its iteration. Call after
  /// construction (so a restored counter value becomes the baseline).
  void watch_edges(const std::uint64_t* counter);

  /// Iteration boundary: `completed` iterations are done and any
  /// registered state is consistent; `frontier` is the active-vertex
  /// count entering the next iteration. Closes the previous telemetry
  /// row, runs the fault-injection boundary hook, ticks the checkpoint
  /// cadence, polls cancellation (may throw CancelledError after a final
  /// snapshot), then opens the row for iteration `completed`.
  void iteration(std::uint64_t completed, std::uint64_t frontier = 0);

  /// Record the convergence residual computed by the current iteration.
  void residual(double r);

  /// Kernel ran to completion: closes the last telemetry row, drops the
  /// checkpoint registration and snapshot, and hands the timeline to the
  /// System so run_timed() attaches it to the "run algorithm" phase.
  void finish();

 private:
  void close_row();

  System& sys_;
  const std::uint64_t* edges_counter_ = nullptr;
  std::uint64_t edges_mark_ = 0;
  std::uint64_t resumed_ = 0;
  bool registered_ = false;
  bool row_open_ = false;
  bool finished_ = false;
  IterRecord row_;
  WallTimer timer_;
  std::vector<IterRecord> timeline_;
};

}  // namespace epgs

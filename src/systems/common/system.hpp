// The system-under-test adapter.
//
// easy-parallel-graph-* drives each graph package through the same
// life-cycle the paper times:
//
//   load (file read)  ->  build (data structure construction)  ->  run
//
// and reads everything back from the system's PhaseLog — mirroring how the
// original tool parsed each package's log files rather than linking
// against internals. Systems that cannot separate reading from building
// (GraphBIG, PowerGraph — see Figs 2/3) advertise it via Capabilities.
#pragma once

#include <filesystem>
#include <memory>
#include <string_view>

#include "core/cancellation.hpp"
#include "core/checkpoint.hpp"
#include "core/error.hpp"
#include "core/phase_log.hpp"
#include "graph/edge_list.hpp"
#include "graph/homogenizer.hpp"
#include "systems/common/results.hpp"

namespace epgs {

/// Thrown when an algorithm is requested from a system that does not ship
/// a reference implementation of it (e.g. BFS on PowerGraph).
class UnsupportedAlgorithm : public EpgsError {
 public:
  using EpgsError::EpgsError;
};

struct Capabilities {
  bool bfs = false;
  bool sssp = false;
  bool pagerank = false;
  bool cdlp = false;
  bool lcc = false;
  bool wcc = false;
  bool tc = false;  ///< triangle counting (paper Section V extension)
  bool bc = false;  ///< betweenness centrality (paper Section V extension)
  /// True when the system can construct its data structure from edges
  /// already in RAM, separately from file I/O (GAP, Graph500, GraphMat);
  /// false when reading and building are fused (GraphBIG, PowerGraph).
  bool separate_construction = true;
};

/// PageRank configuration. The paper homogenises the stopping criterion to
/// sum_k |p_k(i) - p_k(i-1)| < epsilon with epsilon = 6e-8 (~machine eps
/// for single precision); GraphMat ignores epsilon and iterates until no
/// vertex's rank changes at all (infinity-norm exactly 0) or its ranks
/// equal, bit for bit, those of two iterations back (a float limit
/// cycle). max_iterations caps every system.
struct PageRankParams {
  double damping = 0.85;
  double epsilon = 6e-8;
  int max_iterations = 300;
};

/// Canonical phase names every system logs under, so the harness parser
/// (and the Graphalytics comparator's selective accounting) can find them.
namespace phase {
inline constexpr std::string_view kFileRead = "file read";
inline constexpr std::string_view kBuild = "build graph";
inline constexpr std::string_view kEngineInit = "initialize engine";
inline constexpr std::string_view kAlgorithm = "run algorithm";
inline constexpr std::string_view kOutput = "print output";
}  // namespace phase

class System {
 public:
  System() = default;
  System(const System&) = delete;  // staged_ may point into owned_
  System& operator=(const System&) = delete;
  virtual ~System() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual Capabilities capabilities() const = 0;
  /// The on-disk format this system's loader consumes.
  [[nodiscard]] virtual GraphFormat native_format() const = 0;

  /// Stage an edge list already in RAM (no "file read" phase logged).
  /// The system keeps its own list: a caller that passes an lvalue pays
  /// a copy. load_file stages through this.
  void set_edges(EdgeList edges);

  /// Stage the caller's edge list without copying it. `edges` must
  /// outlive every build() from it; a built system no longer reads it.
  void borrow_edges(const EdgeList& edges);

  /// Drop the staged edges (freeing them if owned). A built system keeps
  /// running kernels; it cannot build again until edges are staged.
  void release_edges();

  /// Read this system's native file; logs the "file read" phase. The
  /// GraphMat log excerpt under Table I is exactly this phase.
  void load_file(const std::filesystem::path& path);

  /// Construct the native data structure from the staged edges; logs the
  /// "build graph" phase. For fused systems this is where any pending file
  /// is read as well (read+build logged as one phase).
  void build();

  [[nodiscard]] bool is_built() const { return built_; }
  [[nodiscard]] vid_t num_vertices() const;

  // Algorithms. Each logs a "run algorithm" phase with work counters and
  // throws UnsupportedAlgorithm when the capability is absent.
  BfsResult bfs(vid_t root);
  SsspResult sssp(vid_t root);
  PageRankResult pagerank(const PageRankParams& params = {});
  CdlpResult cdlp(int max_iterations = 10);
  LccResult lcc();
  WccResult wcc();
  TriangleCountResult tc();
  BcResult bc(vid_t source);

  [[nodiscard]] PhaseLog& log() { return log_; }
  [[nodiscard]] const PhaseLog& log() const { return log_; }

  /// Attach (or detach, with nullptr) the supervisor's cancellation
  /// token. The token must outlive the phases run under it. It is polled
  /// at phase starts and at each KernelRun::iteration, the one in-kernel
  /// poll; a cancelled kernel writes a final snapshot and unwinds with
  /// CancelledError.
  void set_cancellation(const CancellationToken* token) { cancel_ = token; }

  /// Attach (or detach, with nullptr) the per-unit checkpoint session.
  /// Kernels register their iteration state through a KernelRun and
  /// snapshot/restore at the same boundaries where they poll the token.
  void set_checkpoint_session(CheckpointSession* session) {
    ckpt_ = session;
  }

  /// The shared kernel runtime scope drives the checkpoint session and
  /// the private cancellation point below; adapters interact with them
  /// only through a KernelRun, never directly.
  friend class KernelRun;

 protected:
  /// Subclass hooks. do_build() consumes the staged edges into the native
  /// representation and reports the bytes of the built structure.
  virtual void do_build(const EdgeList& edges) = 0;
  virtual BfsResult do_bfs(vid_t root);
  virtual SsspResult do_sssp(vid_t root);
  virtual PageRankResult do_pagerank(const PageRankParams& params);
  virtual CdlpResult do_cdlp(int max_iterations);
  virtual LccResult do_lcc();
  virtual WccResult do_wcc();
  virtual TriangleCountResult do_tc();
  virtual BcResult do_bc(vid_t source);

  /// Work counters accumulated by the running algorithm; subclasses add to
  /// this and the base logs/zeroes it around each call.
  WorkStats work_;

  vid_t n_ = 0;

 private:
  /// Cancellation point at iteration boundaries (frontier swaps, PageRank
  /// iterations, delta-stepping epochs) — never inside an OpenMP region,
  /// where throwing would terminate the process. When a checkpoint session
  /// holds registered state, a final snapshot is written before the
  /// CancelledError unwinds the kernel, so timed-out and interrupted
  /// trials resume from their last completed iteration. Driven by
  /// KernelRun::iteration(); adapters never call it directly.
  void checkpoint() const {
    if (cancel_ == nullptr || !cancel_->cancelled()) return;
    if (ckpt_ != nullptr) ckpt_->save_now();
    cancel_->checkpoint();
  }

  template <typename Fn>
  auto run_timed(std::string_view alg, bool supported, Fn&& fn);

  EdgeList owned_;  ///< set_edges()'s list, read by build() when staged
  const EdgeList* staged_ = nullptr;  ///< &owned_, a borrowed list, or null
  std::filesystem::path pending_path_;  ///< deferred read for fused systems
  bool built_ = false;
  PhaseLog log_;
  const CancellationToken* cancel_ = nullptr;
  CheckpointSession* ckpt_ = nullptr;
  /// Timeline deposited by KernelRun::finish(); run_timed() moves it onto
  /// the "run algorithm" phase entry it logs.
  std::vector<IterRecord> pending_timeline_;
};

}  // namespace epgs

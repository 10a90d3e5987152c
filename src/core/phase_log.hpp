// Structured per-run log of execution phases.
//
// easy-parallel-graph-* collects data "by parsing log files"; each system
// under test appends timed phases (with optional work counters) to a
// PhaseLog, which can be serialised to the same kind of plain-text log the
// original tool scraped with AWK, and parsed back. The harness deliberately
// round-trips through the text form so the parsing path is exercised
// exactly as in the paper.
#pragma once

#include <cmath>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace epgs {

/// Work counters a system may attach to a phase. These feed the analytic
/// power model (src/power) as memory/compute intensity proxies.
struct WorkStats {
  std::uint64_t edges_processed = 0;   ///< edge relaxations / messages
  std::uint64_t vertex_updates = 0;    ///< vertex state writes
  std::uint64_t bytes_touched = 0;     ///< rough memory traffic estimate

  WorkStats& operator+=(const WorkStats& o) {
    edges_processed += o.edges_processed;
    vertex_updates += o.vertex_updates;
    bytes_touched += o.bytes_touched;
    return *this;
  }
};

/// One per-iteration telemetry row of a kernel phase: wall time of the
/// iteration, active-vertex/frontier size at its start, edges traversed
/// during it, and the convergence residual where the kernel computes one
/// (the paper's Fig 4 plots exactly these trajectories). Rows are emitted
/// by the KernelRun scope, one per iteration boundary.
struct IterRecord {
  std::uint64_t iter = 0;     ///< 0-based iteration index
  double seconds = 0.0;       ///< wall time of this iteration
  std::uint64_t frontier = 0; ///< active vertices entering the iteration
  std::uint64_t edges = 0;    ///< edges traversed during the iteration
  /// Convergence residual computed by the iteration (PageRank L1 delta);
  /// NaN when the kernel has no residual notion (BFS, WCC, ...).
  double residual = std::numeric_limits<double>::quiet_NaN();

  [[nodiscard]] bool has_residual() const { return !std::isnan(residual); }
};

/// One timed phase of execution ("load graph", "run algorithm", ...).
struct PhaseEntry {
  std::string name;
  double seconds = 0.0;
  WorkStats work;
  std::map<std::string, std::string> extra;  ///< e.g. iterations=87
  /// Per-iteration timeline (empty for non-kernel phases). Serialised as
  /// '@' continuation lines under the phase's '*' line and round-tripped
  /// by parse_log_text like every other field.
  std::vector<IterRecord> timeline;
};

/// Append-only log of phases for a single run of a single system.
class PhaseLog {
 public:
  /// Record a completed phase.
  void add(std::string name, double seconds, WorkStats work = {},
           std::map<std::string, std::string> extra = {});

  /// Record a completed phase with all fields (incl. timeline) prepared.
  void add(PhaseEntry entry);

  /// Record/overwrite a free-form key for the whole run (system name, ...).
  void set_attr(std::string key, std::string value);

  [[nodiscard]] const std::vector<PhaseEntry>& entries() const {
    return entries_;
  }
  [[nodiscard]] const std::map<std::string, std::string>& attrs() const {
    return attrs_;
  }

  /// Total seconds across phases whose name matches exactly.
  [[nodiscard]] double total(std::string_view phase_name) const;

  /// Sum of all phase durations.
  [[nodiscard]] double total_all() const;

  /// First phase with the given name, if any.
  [[nodiscard]] std::optional<PhaseEntry> find(std::string_view name) const;

  /// Aggregate work counters across all phases.
  [[nodiscard]] WorkStats total_work() const;

  void clear();

  /// Serialise in the bullet-list style of the GraphMat log excerpt in
  /// Table I ("load graph: 5.91229 sec").
  [[nodiscard]] std::string to_log_text() const;

  /// Parse a log produced by to_log_text(). Throws std::runtime_error on
  /// malformed input.
  static PhaseLog parse_log_text(std::string_view text);

 private:
  std::vector<PhaseEntry> entries_;
  std::map<std::string, std::string> attrs_;
};

std::ostream& operator<<(std::ostream& os, const PhaseLog& log);

}  // namespace epgs

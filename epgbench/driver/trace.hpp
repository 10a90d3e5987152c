// Benchmark-side span recorder for the traced run.
//
// Spans are taken in the benchmark's own code, around its calls into
// each module's public functions; nothing inside the program is traced.
// A span has a name (the layer metric it feeds, e.g. "systems.GAP.build"),
// steady-clock start and end, its parent, and a request id for served
// queries. Spans stay in memory and are written out once, at the end, as
// Chrome trace-event JSON and as a flat per-layer table.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common.hpp"

namespace epgbench {

class Tracer {
 public:
  struct Span {
    std::string name;
    std::string request;  ///< request id of a served query, else empty
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;
  };

  /// Ends its span when destroyed; a scope from a null tracer is a no-op,
  /// so untraced code pays one branch.
  class Scope {
   public:
    Scope(Tracer* tracer, int id) : tracer_(tracer), id_(id) {}
    ~Scope() { close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Scope(Scope&&) = delete;
    Scope& operator=(Scope&&) = delete;

    /// End the span now; returns its duration in seconds (0 untraced).
    double close();

   private:
    Tracer* tracer_;
    int id_;
  };

  Tracer() : origin_(Clock::now()) {}

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Durations of every span called `name`.
  [[nodiscard]] std::vector<double> durations(std::string_view name) const;

  /// One row per span name among the descendants of spans called
  /// `root`: call count, total time, and self time (total minus the time
  /// its direct children cover).
  struct Row {
    std::string name;
    std::size_t calls = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  [[nodiscard]] std::vector<Row> rows_under(std::string_view root) const;

  /// Chrome trace-event JSON ("X" complete events, microseconds), with
  /// the parent span and request id under args.
  void write_chrome(const std::string& path) const;

  friend Scope span(Tracer* tracer, std::string name, std::string request);

 private:
  int begin(std::string name, std::string request);
  double end(int id);
  [[nodiscard]] bool descends_from(int id, std::string_view root) const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Open a span on `tracer` (nullptr = untraced) under the innermost open
/// span.
[[nodiscard]] Tracer::Scope span(Tracer* tracer, std::string name,
                                 std::string request = {});

/// Write `rows` (largest self time first) and a closing `unattributed`
/// row: `explained_s` minus the rows' self time. Returns that remainder.
double write_layer_table(const std::string& path,
                         std::vector<Tracer::Row> rows, double explained_s,
                         std::string_view explained_what);

}  // namespace epgbench

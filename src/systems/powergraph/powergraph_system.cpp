#include "systems/powergraph/powergraph_system.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/parallel.hpp"
#include "core/timer.hpp"
#include "systems/common/kernel_run.hpp"
#include "systems/powergraph/gas_engine.hpp"

namespace epgs::systems {

using powergraph_detail::GasEngine;
using powergraph_detail::VertexCut;

namespace {

/// The GAS engine's work counters as snapshot fields, so a resumed trial
/// reports the same totals as an uninterrupted one.
void counter_fields(StateFields& f, powergraph_detail::EngineCounters& c) {
  f.u64(c.gather_edges);
  f.u64(c.scatter_signals);
  f.u64(c.sync_copies);
  f.u64(c.supersteps);
}

}  // namespace

const VertexCut& PowerGraphSystem::partitioning() const {
  EPGS_CHECK(cut_ != nullptr, "PowerGraph: graph not built");
  return *cut_;
}

void PowerGraphSystem::do_build(const EdgeList& edges) {
  int np = opts_.num_partitions;
  if (np <= 0) np = std::clamp(max_threads(), 4, 16);
  cut_ = std::make_unique<VertexCut>(VertexCut::build(edges, np));
  out_degree_.assign(edges.num_vertices, 0);
  for (const auto& e : edges.edges) ++out_degree_[e.src];
  work_.bytes_touched = cut_->bytes();
}

// ---------------------------------------------------------------------
// SSSP: the classic PowerGraph vertex program. Gather = min over
// in-edges of (neighbor distance + w); scatter signals out-neighbours of
// improved vertices.
// ---------------------------------------------------------------------

namespace {

struct SsspProgram {
  struct VData {
    weight_t dist = kInfDist;
  };
  using Gather = weight_t;
  static constexpr bool gather_both = false;
  static constexpr bool scatter_both = false;

  [[nodiscard]] Gather gather_init() const { return kInfDist; }
  void gather(const VData& nbr, weight_t w, Gather& acc) const {
    if (nbr.dist != kInfDist) acc = std::min(acc, nbr.dist + w);
  }
  void combine(Gather& into, const Gather& partial) const {
    into = std::min(into, partial);
  }
  bool apply(VData& v, const Gather& acc, bool any) const {
    if (any && acc < v.dist) {
      v.dist = acc;
      return true;
    }
    return false;
  }
};

struct WccProgram {
  struct VData {
    vid_t label = kNoVertex;
  };
  using Gather = vid_t;
  static constexpr bool gather_both = true;
  static constexpr bool scatter_both = true;

  [[nodiscard]] Gather gather_init() const { return kNoVertex; }
  void gather(const VData& nbr, weight_t, Gather& acc) const {
    acc = std::min(acc, nbr.label);
  }
  void combine(Gather& into, const Gather& partial) const {
    into = std::min(into, partial);
  }
  bool apply(VData& v, const Gather& acc, bool any) const {
    if (any && acc < v.label) {
      v.label = acc;
      return true;
    }
    return false;
  }
};

struct CdlpProgram {
  struct VData {
    vid_t label = 0;
  };
  using Gather = std::vector<vid_t>;
  static constexpr bool gather_both = true;
  static constexpr bool scatter_both = true;

  [[nodiscard]] Gather gather_init() const { return {}; }
  void gather(const VData& nbr, weight_t, Gather& acc) const {
    acc.push_back(nbr.label);
  }
  void combine(Gather& into, const Gather& partial) const {
    into.insert(into.end(), partial.begin(), partial.end());
  }
  bool apply(VData& v, const Gather& acc, bool any) const {
    if (!any || acc.empty()) return false;
    Gather labels = acc;
    std::sort(labels.begin(), labels.end());
    vid_t best = labels.front();
    std::size_t best_count = 0, i = 0;
    while (i < labels.size()) {
      std::size_t j = i;
      while (j < labels.size() && labels[j] == labels[i]) ++j;
      if (j - i > best_count) {
        best_count = j - i;
        best = labels[i];
      }
      i = j;
    }
    if (best != v.label) {
      v.label = best;
      return true;
    }
    return false;
  }
};

struct PageRankProgram {
  struct VData {
    double rank = 0.0;
    double inv_outdeg = 0.0;  ///< 1/outdeg, 0 for dangling vertices
  };
  using Gather = double;
  static constexpr bool gather_both = false;
  static constexpr bool scatter_both = false;

  double damping = 0.85;
  double base = 0.0;  ///< (1-d)/n + d*dangling/n, refreshed per iteration

  [[nodiscard]] Gather gather_init() const { return 0.0; }
  void gather(const VData& nbr, weight_t, Gather& acc) const {
    acc += nbr.rank * nbr.inv_outdeg;
  }
  void combine(Gather& into, const Gather& partial) const {
    into += partial;
  }
  bool apply(VData& v, const Gather& acc, bool) const {
    v.rank = base + damping * acc;
    return false;  // the system drives an all-active loop; no scatter
  }
};

}  // namespace

SsspResult PowerGraphSystem::do_sssp(vid_t root) {
  const vid_t n = cut_->num_vertices();
  WallTimer init_timer;
  GasEngine<SsspProgram> engine(*cut_, SsspProgram{});
  log().add(std::string(phase::kEngineInit), init_timer.seconds());

  engine.data()[root].dist = 0.0f;
  auto active = engine.scatter_from({root});
  // Snapshot state: master distances, the active list, the superstep
  // count, and the engine's work counters. Mirrors are re-synced from
  // masters every superstep, so masters alone suffice. The snapshot
  // counters already include the seed scatter above; a fresh init is
  // fully overwritten on restore.
  int iters = 0;
  KernelRun run(*this, "sssp", [&](StateFields& f) {
    f.per_vertex(
        n, [&](std::size_t v) { return engine.data()[v].dist; },
        [&](std::size_t v, weight_t x) { engine.data()[v].dist = x; });
    f.list(active);
    f.u64(iters);
    counter_fields(f, engine.counters());
  });
  run.watch_edges(&engine.counters().gather_edges);
  const int max_iters = static_cast<int>(n) + 1;
  while (!active.empty() && iters < max_iters) {
    run.iteration(static_cast<std::uint64_t>(iters), active.size());
    active = engine.superstep(active);
    ++iters;
  }
  run.finish();

  SsspResult r;
  r.root = root;
  r.dist.resize(n);
  for (vid_t v = 0; v < n; ++v) r.dist[v] = engine.data()[v].dist;

  const auto& c = engine.counters();
  work_.edges_processed = c.gather_edges + c.scatter_signals;
  work_.vertex_updates = c.sync_copies;
  work_.bytes_touched =
      (c.gather_edges + c.sync_copies) * sizeof(SsspProgram::VData);
  return r;
}

PageRankResult PowerGraphSystem::do_pagerank(const PageRankParams& params) {
  const vid_t n = cut_->num_vertices();
  WallTimer init_timer;
  PageRankProgram prog;
  prog.damping = params.damping;
  GasEngine<PageRankProgram> engine(*cut_, prog);
  log().add(std::string(phase::kEngineInit), init_timer.seconds());

  auto& data = engine.data();
  const double init = n > 0 ? 1.0 / n : 0.0;
  for (vid_t v = 0; v < n; ++v) {
    data[v].rank = init;
    data[v].inv_outdeg =
        out_degree_[v] > 0 ? 1.0 / static_cast<double>(out_degree_[v]) : 0.0;
  }

  PageRankResult r;
  std::vector<double> prev(n, init);
  const auto all = engine.all_vertices();

  // Snapshot state: master ranks, the previous-iteration ranks (the L1
  // convergence reference), the result counter, and the engine's work
  // counters, so a resumed trial reports identical totals.
  KernelRun run(*this, "pagerank", [&](StateFields& f) {
    f.per_vertex(
        n, [&](std::size_t v) { return data[v].rank; },
        [&](std::size_t v, double x) { data[v].rank = x; });
    f.per_vertex(prev);
    f.u64(r.iterations);
    counter_fields(f, engine.counters());
  });
  run.watch_edges(&engine.counters().gather_edges);
  const int start_it = static_cast<int>(run.resumed());

  for (int it = start_it; it < params.max_iterations; ++it) {
    run.iteration(static_cast<std::uint64_t>(it), n);  // superstep boundary
    double dangling = 0.0;
    for (vid_t v = 0; v < n; ++v) {
      if (out_degree_[v] == 0) dangling += data[v].rank;
    }
    engine.program().base =
        (1.0 - params.damping) / n + params.damping * dangling / n;

    (void)engine.superstep(all);
    ++r.iterations;

    double l1 = 0.0;
    for (vid_t v = 0; v < n; ++v) {
      l1 += std::abs(data[v].rank - prev[v]);
      prev[v] = data[v].rank;
    }
    run.residual(l1);
    if (l1 < params.epsilon) break;
  }
  run.finish();

  r.rank.resize(n);
  for (vid_t v = 0; v < n; ++v) r.rank[v] = data[v].rank;

  const auto& c = engine.counters();
  work_.edges_processed = c.gather_edges;
  work_.vertex_updates = c.sync_copies;
  work_.bytes_touched = (c.gather_edges + c.sync_copies) * sizeof(double);
  return r;
}

CdlpResult PowerGraphSystem::do_cdlp(int max_iterations) {
  const vid_t n = cut_->num_vertices();
  WallTimer init_timer;
  GasEngine<CdlpProgram> engine(*cut_, CdlpProgram{});
  log().add(std::string(phase::kEngineInit), init_timer.seconds());

  auto& data = engine.data();
  for (vid_t v = 0; v < n; ++v) data[v].label = v;

  CdlpResult r;
  auto active = engine.all_vertices();

  // Snapshot state: master labels, the active list, the round count,
  // and the engine's work counters.
  KernelRun run(*this, "cdlp", [&](StateFields& f) {
    f.per_vertex(
        n, [&](std::size_t v) { return data[v].label; },
        [&](std::size_t v, vid_t x) { data[v].label = x; });
    f.list(active);
    f.u64(r.iterations);
    counter_fields(f, engine.counters());
  });
  run.watch_edges(&engine.counters().gather_edges);
  while (!active.empty() && r.iterations < max_iterations) {
    run.iteration(static_cast<std::uint64_t>(r.iterations), active.size());
    active = engine.superstep(active);
    ++r.iterations;
  }
  run.finish();
  r.label.resize(n);
  for (vid_t v = 0; v < n; ++v) r.label[v] = data[v].label;

  const auto& c = engine.counters();
  work_.edges_processed = c.gather_edges + c.scatter_signals;
  work_.vertex_updates = c.sync_copies;
  work_.bytes_touched = c.gather_edges * sizeof(vid_t) * 2;
  return r;
}

WccResult PowerGraphSystem::do_wcc() {
  const vid_t n = cut_->num_vertices();
  WallTimer init_timer;
  GasEngine<WccProgram> engine(*cut_, WccProgram{});
  log().add(std::string(phase::kEngineInit), init_timer.seconds());

  auto& data = engine.data();
  for (vid_t v = 0; v < n; ++v) data[v].label = v;
  // Snapshot state: master labels, the active list, the round count,
  // and the engine's work counters.
  auto active = engine.all_vertices();
  int iters = 0;
  KernelRun run(*this, "wcc", [&](StateFields& f) {
    f.per_vertex(
        n, [&](std::size_t v) { return data[v].label; },
        [&](std::size_t v, vid_t x) { data[v].label = x; });
    f.list(active);
    f.u64(iters);
    counter_fields(f, engine.counters());
  });
  run.watch_edges(&engine.counters().gather_edges);
  const int max_iters = static_cast<int>(n) + 1;
  while (!active.empty() && iters < max_iters) {
    run.iteration(static_cast<std::uint64_t>(iters), active.size());
    active = engine.superstep(active);
    ++iters;
  }
  run.finish();

  WccResult r;
  r.component.resize(n);
  for (vid_t v = 0; v < n; ++v) r.component[v] = data[v].label;

  const auto& c = engine.counters();
  work_.edges_processed = c.gather_edges + c.scatter_signals;
  work_.vertex_updates = c.sync_copies;
  work_.bytes_touched = c.gather_edges * sizeof(vid_t);
  return r;
}

// ---------------------------------------------------------------------
// LCC: PowerGraph's toolkit gathers full neighbour-id sets per vertex and
// intersects them — reproduced here directly over the partitioned edges.
// ---------------------------------------------------------------------

LccResult PowerGraphSystem::do_lcc() {
  const vid_t n = cut_->num_vertices();
  LccResult r;
  r.coefficient.assign(n, 0.0);

  // Gather phase: assemble per-vertex neighbour unions and out-adjacency
  // from the distributed edge sets (each edge lives on exactly one
  // partition).
  std::vector<std::vector<vid_t>> nbrs(n), outs(n);
  std::uint64_t edge_work = 0;
  for (int p = 0; p < cut_->num_partitions(); ++p) {
    for (const auto& e : cut_->edges_of(p)) {
      nbrs[e.src].push_back(e.dst);
      nbrs[e.dst].push_back(e.src);
      outs[e.src].push_back(e.dst);
      ++edge_work;
    }
  }
#pragma omp parallel for schedule(dynamic, 256)
  for (std::int64_t vi = 0; vi < static_cast<std::int64_t>(n); ++vi) {
    const auto v = static_cast<vid_t>(vi);
    auto& nb = nbrs[v];
    std::sort(nb.begin(), nb.end());
    nb.erase(std::unique(nb.begin(), nb.end()), nb.end());
    std::erase(nb, v);
    std::sort(outs[v].begin(), outs[v].end());
  }

  // Apply phase: count directed links among each neighbourhood.
#pragma omp parallel for schedule(dynamic, 64) reduction(+ : edge_work)
  for (std::int64_t vi = 0; vi < static_cast<std::int64_t>(n); ++vi) {
    const auto v = static_cast<vid_t>(vi);
    const auto& nb = nbrs[v];
    if (nb.size() < 2) continue;
    std::uint64_t links = 0;
    for (const vid_t a : nb) {
      auto it = nb.begin();
      for (const vid_t b : outs[a]) {
        ++edge_work;
        it = std::lower_bound(it, nb.end(), b);
        if (it == nb.end()) break;
        if (*it == b && b != a) ++links;
      }
    }
    r.coefficient[v] = static_cast<double>(links) /
                       (static_cast<double>(nb.size()) * (nb.size() - 1));
  }
  work_.edges_processed = edge_work;
  work_.vertex_updates = n;
  work_.bytes_touched = edge_work * sizeof(vid_t);
  return r;
}

// ---------------------------------------------------------------------
// Triangle counting: PowerGraph's toolkit gathers each vertex's
// neighbour-id set and counts intersections along edges — reproduced
// over the distributed edge sets, counting each triangle at its
// smallest vertex.
// ---------------------------------------------------------------------

TriangleCountResult PowerGraphSystem::do_tc() {
  const vid_t n = cut_->num_vertices();
  std::vector<std::vector<vid_t>> higher(n);
  std::uint64_t scanned = 0;
  for (int p = 0; p < cut_->num_partitions(); ++p) {
    for (const auto& e : cut_->edges_of(p)) {
      if (e.src == e.dst) continue;
      const vid_t lo = std::min(e.src, e.dst);
      const vid_t hi = std::max(e.src, e.dst);
      higher[lo].push_back(hi);
      ++scanned;
    }
  }
#pragma omp parallel for schedule(dynamic, 256)
  for (std::int64_t vi = 0; vi < static_cast<std::int64_t>(n); ++vi) {
    auto& h = higher[static_cast<std::size_t>(vi)];
    std::sort(h.begin(), h.end());
    h.erase(std::unique(h.begin(), h.end()), h.end());
  }

  std::uint64_t count = 0;
#pragma omp parallel for schedule(dynamic, 128) \
    reduction(+ : count, scanned)
  for (std::int64_t vi = 0; vi < static_cast<std::int64_t>(n); ++vi) {
    const auto& hv = higher[static_cast<std::size_t>(vi)];
    for (const vid_t a : hv) {
      const auto& ha = higher[a];
      std::size_t i1 = 0, i2 = 0;
      while (i1 < hv.size() && i2 < ha.size()) {
        ++scanned;
        if (hv[i1] < ha[i2]) {
          ++i1;
        } else if (ha[i2] < hv[i1]) {
          ++i2;
        } else {
          ++count;
          ++i1;
          ++i2;
        }
      }
    }
  }
  work_.edges_processed = scanned;
  work_.vertex_updates = n;
  work_.bytes_touched = scanned * sizeof(vid_t);
  return TriangleCountResult{count};
}

}  // namespace epgs::systems

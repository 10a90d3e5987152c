#include "systems/graphmat/graphmat_system.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "core/bitmap.hpp"
#include "core/numa_alloc.hpp"
#include "core/prefetch.hpp"
#include "core/timer.hpp"
#include "systems/common/kernel_run.hpp"
#include "systems/graphmat/engine.hpp"

namespace epgs::systems {

using graphmat_detail::DCSR;
using graphmat_detail::run_graph_program;

void GraphMatSystem::do_build(const EdgeList& edges) {
  CSRGraph out = CSRGraph::from_edges(edges);
  // GraphMat keeps A and A^T whatever the symmetry; when A is its own
  // transpose, A^T is a copy rather than a scatter.
  CSRGraph in = is_own_transpose(edges, out) ? out : out.transposed();
  out_degree_.resize(out.num_vertices());
  for (vid_t u = 0; u < out.num_vertices(); ++u) {
    out_degree_[u] = out.degree(u);
  }
  out_ = DCSR::from_csr(std::move(out));
  in_ = DCSR::from_csr(std::move(in));
  work_.bytes_touched = out_.bytes() + in_.bytes();
}

// ---------------------------------------------------------------------
// BFS as a (min, +1) vertex program. The message carries the sender so
// the accumulator yields a parent tree directly.
// ---------------------------------------------------------------------

namespace {

struct BfsProgram {
  struct State {
    vid_t depth = kNoVertex;
    vid_t parent = kNoVertex;
  };
  struct Msg {
    vid_t depth = kNoVertex;
    vid_t sender = kNoVertex;
  };
  using Acc = Msg;

  [[nodiscard]] Acc identity() const { return {}; }
  [[nodiscard]] Msg send_message(vid_t u, const State& s) const {
    return {s.depth, u};
  }
  void process_message(const Msg& m, weight_t, Acc& acc) const {
    if (m.depth < acc.depth ||
        (m.depth == acc.depth && m.sender < acc.sender)) {
      acc = m;
    }
  }
  bool apply(const Acc& acc, State& s) const {
    if (acc.depth == kNoVertex) return false;
    if (acc.depth + 1 < s.depth) {
      s.depth = acc.depth + 1;
      s.parent = acc.sender;
      return true;
    }
    return false;
  }
};

struct SsspProgram {
  struct State {
    weight_t dist = kInfDist;
  };
  using Msg = weight_t;
  using Acc = weight_t;

  [[nodiscard]] Acc identity() const { return kInfDist; }
  [[nodiscard]] Msg send_message(vid_t, const State& s) const {
    return s.dist;
  }
  void process_message(const Msg& m, weight_t w, Acc& acc) const {
    acc = std::min(acc, m + w);
  }
  bool apply(const Acc& acc, State& s) const {
    if (acc < s.dist) {
      s.dist = acc;
      return true;
    }
    return false;
  }
};

}  // namespace

BfsResult GraphMatSystem::do_bfs(vid_t root) {
  const vid_t n = in_.num_vertices();
  std::vector<BfsProgram::State> states(n);
  states[root] = {0, root};
  Bitmap active(n);
  active.set(root);
  graphmat_detail::EngineResult stats;

  // Snapshot state: the per-vertex program state, the active set (as a
  // vertex list), and the engine counters the epoch loop resumes from.
  KernelRun run(*this, "bfs", [&](StateFields& f) {
    f.per_vertex(
        n, [&](std::size_t v) { return states[v].depth; },
        [&](std::size_t v, vid_t x) { states[v].depth = x; });
    f.per_vertex(
        n, [&](std::size_t v) { return states[v].parent; },
        [&](std::size_t v, vid_t x) { states[v].parent = x; });
    bitmap_field(f, active);
    f.u64(stats.iterations);
    f.u64(stats.edges_scanned);
  });
  run.watch_edges(&stats.edges_scanned);

  // Each SpMSpV epoch ticks the scope: checkpoint boundary + one
  // telemetry row carrying the active count.
  const std::function<void(int, std::uint64_t)> epoch_hook =
      [&run](int it, std::uint64_t active_count) {
        run.iteration(static_cast<std::uint64_t>(it), active_count);
      };
  run_graph_program(BfsProgram{}, out_, states, active,
                    static_cast<int>(n) + 1, stats, epoch_hook);
  run.finish();

  BfsResult r;
  r.root = root;
  r.parent.resize(n);
  for (vid_t v = 0; v < n; ++v) r.parent[v] = states[v].parent;

  work_.edges_processed = stats.edges_scanned;
  work_.vertex_updates = static_cast<std::uint64_t>(n) * stats.iterations;
  work_.bytes_touched =
      stats.edges_scanned * (sizeof(vid_t) + sizeof(BfsProgram::Msg));
  return r;
}

SsspResult GraphMatSystem::do_sssp(vid_t root) {
  const vid_t n = in_.num_vertices();
  std::vector<SsspProgram::State> states(n);
  states[root].dist = 0.0f;
  Bitmap active(n);
  active.set(root);
  graphmat_detail::EngineResult stats;

  // Snapshot state: distances, the active set, and the engine counters.
  KernelRun run(*this, "sssp", [&](StateFields& f) {
    f.per_vertex(
        n, [&](std::size_t v) { return states[v].dist; },
        [&](std::size_t v, weight_t x) { states[v].dist = x; });
    bitmap_field(f, active);
    f.u64(stats.iterations);
    f.u64(stats.edges_scanned);
  });
  run.watch_edges(&stats.edges_scanned);

  const std::function<void(int, std::uint64_t)> epoch_hook =
      [&run](int it, std::uint64_t active_count) {
        run.iteration(static_cast<std::uint64_t>(it), active_count);
      };
  run_graph_program(SsspProgram{}, out_, states, active,
                    static_cast<int>(n) + 1, stats, epoch_hook);
  run.finish();

  SsspResult r;
  r.root = root;
  r.dist.resize(n);
  for (vid_t v = 0; v < n; ++v) r.dist[v] = states[v].dist;

  work_.edges_processed = stats.edges_scanned;
  work_.vertex_updates = static_cast<std::uint64_t>(n) * stats.iterations;
  work_.bytes_touched =
      stats.edges_scanned * (sizeof(vid_t) + sizeof(weight_t));
  return r;
}

// ---------------------------------------------------------------------
// PageRank: SpMV iterations on single-precision ranks. The paper's
// criterion is that NO vertex's rank changes (infinity norm exactly 0);
// params.epsilon is deliberately unused. In float arithmetic a few
// vertices can instead alternate by an ulp or two forever, so it also
// stops when the new ranks equal, bit for bit, the ranks of two
// iterations back (a period-2 limit cycle; DESIGN.md "GraphMat's
// PageRank stop"). params.max_iterations still caps both.
// ---------------------------------------------------------------------

PageRankResult GraphMatSystem::do_pagerank(const PageRankParams& params) {
  const vid_t n = in_.num_vertices();
  PageRankResult r;
  // GraphMat's own log (Table I excerpt) breaks out "initialize engine"
  // and "print output" around the algorithm proper; reproduce both.
  WallTimer init_timer;
  // First-touch arrays: written below by schedule(static) loops before
  // any gather reads them (rule in core/numa_alloc.hpp). prev holds the
  // ranks one iteration behind rank; none precede the first, so it starts
  // as NaN, which equals no rank.
  FirstTouchVector<float> rank(n), prev(n), contrib(n), next(n);
  const float init = n > 0 ? 1.0f / static_cast<float>(n) : 0.0f;
#pragma omp parallel for schedule(static)
  for (std::int64_t v = 0; v < static_cast<std::int64_t>(n); ++v) {
    rank[static_cast<std::size_t>(v)] = init;
    prev[static_cast<std::size_t>(v)] = std::numeric_limits<float>::quiet_NaN();
    contrib[static_cast<std::size_t>(v)] = 0.0f;
  }
  log().add(std::string(phase::kEngineInit), init_timer.seconds());
  std::uint64_t edge_work = 0;

  // Snapshot state: the single-precision rank vector and its predecessor
  // (the cycle test compares against it) plus the result/work counters.
  // contrib/next are per-iteration scratch.
  KernelRun run(*this, "pagerank", [&](StateFields& f) {
    f.per_vertex(rank);
    f.per_vertex(prev);
    f.u64(r.iterations);
    f.u64(edge_work);
  });
  run.watch_edges(&edge_work);
  const int start_it = static_cast<int>(run.resumed());

  // Each row's frontier is the number of ranks the previous iteration
  // changed (n entering the first), taken from the restored vectors on a
  // resume so its rows match an uninterrupted run's.
  std::uint64_t changed = 0;
  for (vid_t v = 0; v < n; ++v) changed += rank[v] != prev[v] ? 1 : 0;

  for (int it = start_it; it < params.max_iterations; ++it) {
    run.iteration(static_cast<std::uint64_t>(it), changed);  // SpMV boundary
    double dangling = 0.0;
#pragma omp parallel for reduction(+ : dangling) schedule(static)
    for (std::int64_t v = 0; v < static_cast<std::int64_t>(n); ++v) {
      if (out_degree_[static_cast<std::size_t>(v)] == 0) {
        dangling += static_cast<double>(rank[v]);
      } else {
        contrib[v] = rank[v] / static_cast<float>(out_degree_[v]);
      }
    }
    const auto base = static_cast<float>(
        (1.0 - params.damping) / n + params.damping * dangling / n);
    const auto d = static_cast<float>(params.damping);

    std::fill(next.begin(), next.end(), base);
    // Row-skewed gather: dynamic with a page-spanning chunk (see the
    // schedule rule in core/numa_alloc.hpp).
#pragma omp parallel for schedule(dynamic, 256)
    for (std::int64_t rr = 0;
         rr < static_cast<std::int64_t>(in_.num_rows()); ++rr) {
      const auto row = static_cast<std::size_t>(rr);
      const vid_t v = in_.row_id(row);
      const auto cols = in_.row_cols(row);
      float sum = 0.0f;
      for (std::size_t i = 0; i < cols.size(); ++i) {
        if (i + kPrefetchDistance < cols.size()) {
          prefetch_read(&contrib[cols[i + kPrefetchDistance]]);
        }
        sum += contrib[cols[i]];
      }
      next[v] = base + d * sum;
    }
    edge_work += in_.num_nonzeros();

    // One compare pass: no rank changed (fixpoint), or every new rank
    // equals the one from two iterations back (cycle).
    changed = 0;
    std::uint64_t moved = 0;
#pragma omp parallel for reduction(+ : changed, moved) schedule(static)
    for (std::int64_t v = 0; v < static_cast<std::int64_t>(n); ++v) {
      changed += next[v] != rank[v] ? 1 : 0;
      moved += next[v] != prev[v] ? 1 : 0;
    }
    // Rotate prev <- rank <- next; the old prev becomes scratch.
    prev.swap(rank);
    rank.swap(next);
    ++r.iterations;
    if (changed == 0 || moved == 0) break;
  }
  run.finish();

  WallTimer output_timer;
  r.rank.assign(rank.begin(), rank.end());
  log().add(std::string(phase::kOutput), output_timer.seconds());
  work_.edges_processed = edge_work;
  work_.vertex_updates = static_cast<std::uint64_t>(n) * r.iterations;
  work_.bytes_touched = edge_work * (sizeof(vid_t) + sizeof(float));
  return r;
}

// ---------------------------------------------------------------------
// CDLP: min-mode label propagation, gathering over both A and A^T rows.
// ---------------------------------------------------------------------

CdlpResult GraphMatSystem::do_cdlp(int max_iterations) {
  const vid_t n = in_.num_vertices();
  CdlpResult r;
  r.label.resize(n);
  std::iota(r.label.begin(), r.label.end(), vid_t{0});
  std::vector<vid_t> next(n);
  std::uint64_t edge_work = 0;

  // Snapshot state: labels (r.label swaps with the scratch buffer each
  // round) plus the result/work counters.
  KernelRun run(*this, "cdlp", [&](StateFields& f) {
    f.per_vertex(r.label);
    f.u64(r.iterations);
    f.u64(edge_work);
  });
  run.watch_edges(&edge_work);
  const int start_it = static_cast<int>(run.resumed());

  for (int it = start_it; it < max_iterations; ++it) {
    run.iteration(static_cast<std::uint64_t>(it), n);  // round boundary
    bool changed = false;
#pragma omp parallel for schedule(dynamic, 256) reduction(|| : changed)
    for (std::int64_t vi = 0; vi < static_cast<std::int64_t>(n); ++vi) {
      const auto v = static_cast<vid_t>(vi);
      std::vector<vid_t> labels;
      const std::size_t ro = out_.find_row(v);
      if (ro != DCSR::npos) {
        for (const vid_t u : out_.row_cols(ro)) labels.push_back(r.label[u]);
      }
      const std::size_t ri = in_.find_row(v);
      if (ri != DCSR::npos) {
        for (const vid_t u : in_.row_cols(ri)) labels.push_back(r.label[u]);
      }
      if (labels.empty()) {
        next[v] = r.label[v];
        continue;
      }
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
      next[v] = best;
      changed |= best != r.label[v];
    }
    r.label.swap(next);
    edge_work += out_.num_nonzeros() + in_.num_nonzeros();
    ++r.iterations;
    if (!changed) break;
  }
  run.finish();
  work_.edges_processed = edge_work;
  work_.vertex_updates = static_cast<std::uint64_t>(n) * r.iterations;
  work_.bytes_touched = edge_work * sizeof(vid_t) * 2;
  return r;
}

// ---------------------------------------------------------------------
// LCC via masked row intersections (GraphMat formulates this as a
// triangle-counting SpGEMM; the row-intersection form is equivalent).
// ---------------------------------------------------------------------

LccResult GraphMatSystem::do_lcc() {
  const vid_t n = in_.num_vertices();
  LccResult r;
  r.coefficient.assign(n, 0.0);
  std::uint64_t edge_work = 0;

#pragma omp parallel for schedule(dynamic, 64) reduction(+ : edge_work)
  for (std::int64_t vi = 0; vi < static_cast<std::int64_t>(n); ++vi) {
    const auto v = static_cast<vid_t>(vi);
    std::vector<vid_t> nbrs;
    const std::size_t ro = out_.find_row(v);
    const std::size_t ri = in_.find_row(v);
    const auto outs = ro != DCSR::npos ? out_.row_cols(ro)
                                       : std::span<const vid_t>{};
    const auto ins =
        ri != DCSR::npos ? in_.row_cols(ri) : std::span<const vid_t>{};
    nbrs.reserve(outs.size() + ins.size());
    std::merge(outs.begin(), outs.end(), ins.begin(), ins.end(),
               std::back_inserter(nbrs));
    nbrs.erase(std::unique(nbrs.begin(), nbrs.end()), nbrs.end());
    std::erase(nbrs, v);
    if (nbrs.size() < 2) continue;

    std::uint64_t links = 0;
    for (const vid_t a : nbrs) {
      const std::size_t ra = out_.find_row(a);
      if (ra == DCSR::npos) continue;
      const auto adj = out_.row_cols(ra);
      auto it = nbrs.begin();
      for (const vid_t b : adj) {
        ++edge_work;
        it = std::lower_bound(it, nbrs.end(), b);
        if (it == nbrs.end()) break;
        if (*it == b && b != a) ++links;
      }
    }
    r.coefficient[v] =
        static_cast<double>(links) /
        (static_cast<double>(nbrs.size()) * (nbrs.size() - 1));
  }
  work_.edges_processed = edge_work;
  work_.vertex_updates = n;
  work_.bytes_touched = edge_work * sizeof(vid_t);
  return r;
}

// ---------------------------------------------------------------------
// WCC: synchronous min-label SpMV iterations to fixpoint.
// ---------------------------------------------------------------------

WccResult GraphMatSystem::do_wcc() {
  const vid_t n = in_.num_vertices();
  WccResult r;
  r.component.resize(n);
  std::iota(r.component.begin(), r.component.end(), vid_t{0});
  std::vector<vid_t> next(n);
  std::uint64_t edge_work = 0;

  // Snapshot state: component labels (r.component swaps with the scratch
  // buffer each round), a round counter, and the tally.
  std::uint64_t round = 0;
  KernelRun run(*this, "wcc", [&](StateFields& f) {
    f.per_vertex(r.component);
    f.u64(round);
    f.u64(edge_work);
  });
  run.watch_edges(&edge_work);
  round = run.resumed();

  bool changed = true;
  while (changed) {
    run.iteration(round, n);  // WCC fixpoint round boundary
    ++round;
    changed = false;
    std::copy(r.component.begin(), r.component.end(), next.begin());
    // Gather minimum over in-neighbors (rows of A^T).
#pragma omp parallel for schedule(dynamic, 256)
    for (std::int64_t rr = 0; rr < static_cast<std::int64_t>(in_.num_rows());
         ++rr) {
      const auto row = static_cast<std::size_t>(rr);
      const vid_t v = in_.row_id(row);
      vid_t m = next[v];
      for (const vid_t u : in_.row_cols(row)) {
        m = std::min(m, r.component[u]);
      }
      next[v] = m;
    }
    // Gather minimum over out-neighbors (rows of A).
#pragma omp parallel for schedule(dynamic, 256)
    for (std::int64_t rr = 0;
         rr < static_cast<std::int64_t>(out_.num_rows()); ++rr) {
      const auto row = static_cast<std::size_t>(rr);
      const vid_t u = out_.row_id(row);
      vid_t m = next[u];
      for (const vid_t v : out_.row_cols(row)) {
        m = std::min(m, r.component[v]);
      }
      next[u] = m;
    }
#pragma omp parallel for reduction(|| : changed) schedule(static)
    for (std::int64_t v = 0; v < static_cast<std::int64_t>(n); ++v) {
      changed |= next[v] != r.component[v];
    }
    r.component.swap(next);
    edge_work += out_.num_nonzeros() + in_.num_nonzeros();
  }
  run.finish();
  work_.edges_processed = edge_work;
  work_.vertex_updates = n;
  work_.bytes_touched = edge_work * sizeof(vid_t);
  return r;
}

// ---------------------------------------------------------------------
// Triangle counting: the masked-SpGEMM formulation — for each row v of
// the (undirected-view) adjacency, intersect the higher-id column set
// with each higher neighbor's higher-id column set.
// ---------------------------------------------------------------------

TriangleCountResult GraphMatSystem::do_tc() {
  const vid_t n = in_.num_vertices();
  std::vector<std::vector<vid_t>> higher(n);
  std::uint64_t scanned = 0;
#pragma omp parallel for schedule(dynamic, 256)
  for (std::int64_t vi = 0; vi < static_cast<std::int64_t>(n); ++vi) {
    const auto v = static_cast<vid_t>(vi);
    std::vector<vid_t> nbrs;
    const std::size_t ro = out_.find_row(v);
    const std::size_t ri = in_.find_row(v);
    const auto outs = ro != DCSR::npos ? out_.row_cols(ro)
                                       : std::span<const vid_t>{};
    const auto ins =
        ri != DCSR::npos ? in_.row_cols(ri) : std::span<const vid_t>{};
    nbrs.reserve(outs.size() + ins.size());
    std::merge(outs.begin(), outs.end(), ins.begin(), ins.end(),
               std::back_inserter(nbrs));
    nbrs.erase(std::unique(nbrs.begin(), nbrs.end()), nbrs.end());
    for (const vid_t u : nbrs) {
      if (u > v) higher[vi].push_back(u);
    }
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

// ---------------------------------------------------------------------
// Betweenness centrality: level-synchronous sigma via full-structure
// SpMV passes (GraphMat's cost profile), then a backward sweep per
// level.
// ---------------------------------------------------------------------

BcResult GraphMatSystem::do_bc(vid_t source) {
  const vid_t n = in_.num_vertices();
  BcResult r;
  r.source = source;
  r.dependency.assign(n, 0.0);

  std::vector<double> sigma(n, 0.0);
  std::vector<vid_t> level(n, kNoVertex);
  sigma[source] = 1.0;
  level[source] = 0;
  std::uint64_t scanned = 0;
  vid_t depth = 0;
  bool any_new = true;

  // Snapshot state: sigma, levels, the sweep depth, and the scan
  // counter. Dependencies are written only by the backward phase, which
  // runs after the scope closes.
  KernelRun run(*this, "bc", [&](StateFields& f) {
    f.per_vertex(sigma);
    f.per_vertex(level);
    f.u64(depth);
    f.u64(scanned);
  });
  run.watch_edges(&scanned);

  // Forward: each pass scans every compressed row of A^T (dense SpMV),
  // assigning levels and accumulating sigma for rows discovered at the
  // current depth.
  while (any_new) {
    // BC forward-sweep boundary (snapshot point).
    run.iteration(depth, n);
    ++depth;
    any_new = false;
    std::vector<double> add(n, 0.0);
#pragma omp parallel for schedule(dynamic, 256) reduction(+ : scanned) \
    reduction(|| : any_new)
    for (std::int64_t rr = 0; rr < static_cast<std::int64_t>(in_.num_rows());
         ++rr) {
      const auto row = static_cast<std::size_t>(rr);
      const vid_t v = in_.row_id(row);
      if (level[v] != kNoVertex) {
        scanned += in_.row_cols(row).size();
        continue;
      }
      double s = 0.0;
      for (const vid_t u : in_.row_cols(row)) {
        ++scanned;
        if (level[u] == depth - 1) s += sigma[u];
      }
      if (s > 0.0) {
        add[v] = s;
        any_new = true;
      }
    }
    for (vid_t v = 0; v < n; ++v) {
      if (add[v] > 0.0 && level[v] == kNoVertex) {
        level[v] = depth;
        sigma[v] = add[v];
      }
    }
  }
  run.finish();

  // Backward: per level, pull dependencies from successors via A rows.
  for (vid_t d = depth; d-- > 0;) {
#pragma omp parallel for schedule(dynamic, 256) reduction(+ : scanned)
    for (std::int64_t rr = 0;
         rr < static_cast<std::int64_t>(out_.num_rows()); ++rr) {
      const auto row = static_cast<std::size_t>(rr);
      const vid_t v = out_.row_id(row);
      if (level[v] != d) {
        scanned += out_.row_cols(row).size();
        continue;
      }
      double dep = 0.0;
      for (const vid_t w : out_.row_cols(row)) {
        ++scanned;
        if (level[w] != kNoVertex && level[w] == d + 1) {
          dep += sigma[v] / sigma[w] * (1.0 + r.dependency[w]);
        }
      }
      r.dependency[v] = dep;
    }
  }
  work_.edges_processed = scanned;
  work_.vertex_updates = n;
  work_.bytes_touched = scanned * (sizeof(vid_t) + sizeof(double));
  return r;
}

}  // namespace epgs::systems

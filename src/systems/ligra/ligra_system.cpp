#include "systems/ligra/ligra_system.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>

#include "core/numa_alloc.hpp"
#include "core/parallel.hpp"
#include "core/prefetch.hpp"
#include "systems/common/kernel_run.hpp"
#include "systems/ligra/ligra_primitives.hpp"

namespace epgs::systems {

using ligra_detail::edge_map;
using ligra_detail::vertex_map;
using ligra_detail::VertexSubset;

namespace {

/// A vertexSubset as a snapshot list field: it is just its vertex list.
void subset_field(StateFields& f, VertexSubset& subset, vid_t n) {
  f.list([&subset]() -> const auto& { return subset.vertices(); },
         [&subset, n](std::vector<vid_t> l) {
           subset = VertexSubset::from_sparse(n, std::move(l));
         });
}

}  // namespace

void LigraSystem::do_build(const EdgeList& edges) {
  out_ = CSRGraph::from_edges(edges);
  in_.reset();
  if (!is_own_transpose(edges, out_)) in_ = out_.transposed();
  work_.bytes_touched = out_.bytes() + (in_ ? in_->bytes() : 0);
}

// ---------------------------------------------------------------------
// BFS: the Ligra paper's first example.
// ---------------------------------------------------------------------

namespace {

struct BfsF {
  std::atomic<vid_t>* parent;

  void prefetch(vid_t d) const { prefetch_write(&parent[d]); }
  bool cond(vid_t d) const {
    return parent[d].load(std::memory_order_relaxed) == kNoVertex;
  }
  bool update(vid_t s, vid_t d, weight_t) const {
    // Dense mode: single writer per destination.
    parent[d].store(s, std::memory_order_relaxed);
    return true;
  }
  bool update_atomic(vid_t s, vid_t d, weight_t) const {
    vid_t expected = kNoVertex;
    return parent[d].compare_exchange_strong(expected, s,
                                             std::memory_order_relaxed);
  }
};

struct SsspF {
  std::atomic<weight_t>* dist;

  void prefetch(vid_t d) const { prefetch_write(&dist[d]); }
  bool cond(vid_t) const { return true; }
  bool update(vid_t s, vid_t d, weight_t w) const {
    const weight_t nd = dist[s].load(std::memory_order_relaxed) + w;
    if (nd < dist[d].load(std::memory_order_relaxed)) {
      dist[d].store(nd, std::memory_order_relaxed);
      return true;
    }
    return false;
  }
  bool update_atomic(vid_t s, vid_t d, weight_t w) const {
    const weight_t nd = dist[s].load(std::memory_order_relaxed) + w;
    return atomic_fetch_min(&dist[d], nd);
  }
};

struct WccF {
  std::atomic<vid_t>* comp;

  void prefetch(vid_t d) const { prefetch_write(&comp[d]); }
  bool cond(vid_t) const { return true; }
  bool update(vid_t s, vid_t d, weight_t) const {
    const vid_t cs = comp[s].load(std::memory_order_relaxed);
    if (cs < comp[d].load(std::memory_order_relaxed)) {
      comp[d].store(cs, std::memory_order_relaxed);
      return true;
    }
    return false;
  }
  bool update_atomic(vid_t s, vid_t d, weight_t) const {
    return atomic_fetch_min(&comp[d],
                            comp[s].load(std::memory_order_relaxed));
  }
};

}  // namespace

BfsResult LigraSystem::do_bfs(vid_t root) {
  const vid_t n = out_.num_vertices();
  // First-touch parallel fill (see core/numa_alloc.hpp).
  NumaArray<std::atomic<vid_t>> parent(n, kNoVertex);
  parent[root].store(root, std::memory_order_relaxed);

  std::uint64_t examined = 0;
  VertexSubset frontier = VertexSubset::single(n, root);

  // Snapshot state: the parent claims, the sparse frontier (a
  // vertexSubset is just its vertex list), and the edge counter.
  KernelRun run(*this, "bfs", [&](StateFields& f) {
    f.per_vertex(parent);
    subset_field(f, frontier, n);
    f.u64(examined);
  });
  run.watch_edges(&examined);
  std::uint64_t round = run.resumed();

  while (!frontier.empty()) {
    // edgeMap round boundary (snapshot point).
    run.iteration(round, frontier.size());
    frontier = edge_map(out_, in(), frontier, BfsF{parent.data()},
                        examined);
    ++round;
  }
  run.finish();

  BfsResult r;
  r.root = root;
  r.parent.resize(n);
  for (vid_t v = 0; v < n; ++v) {
    r.parent[v] = parent[v].load(std::memory_order_relaxed);
  }
  work_.edges_processed = examined;
  work_.vertex_updates = n;
  work_.bytes_touched = examined * sizeof(vid_t);
  return r;
}

SsspResult LigraSystem::do_sssp(vid_t root) {
  // Ligra's Bellman-Ford: iterate edgeMap from the set of improved
  // vertices until quiescence.
  const vid_t n = out_.num_vertices();
  NumaArray<std::atomic<weight_t>> dist(n, kInfDist);
  dist[root].store(0.0f, std::memory_order_relaxed);

  std::uint64_t examined = 0;
  VertexSubset frontier = VertexSubset::single(n, root);
  int rounds = 0;

  // Snapshot state: tentative distances, the improved-vertex frontier,
  // and the round/edge counters — a killed Bellman-Ford resumes from its
  // last completed round instead of restarting.
  KernelRun run(*this, "sssp", [&](StateFields& f) {
    f.per_vertex(dist);
    subset_field(f, frontier, n);
    f.u64(rounds);
    f.u64(examined);
  });
  run.watch_edges(&examined);

  while (!frontier.empty() && rounds <= static_cast<int>(n)) {
    // Bellman-Ford round boundary (snapshot point).
    run.iteration(static_cast<std::uint64_t>(rounds), frontier.size());
    frontier = edge_map(out_, in(), frontier, SsspF{dist.data()}, examined);
    ++rounds;
  }
  run.finish();

  SsspResult r;
  r.root = root;
  r.dist.resize(n);
  for (vid_t v = 0; v < n; ++v) {
    r.dist[v] = dist[v].load(std::memory_order_relaxed);
  }
  work_.edges_processed = examined;
  work_.vertex_updates = n;
  work_.bytes_touched = examined * (sizeof(vid_t) + sizeof(weight_t));
  return r;
}

PageRankResult LigraSystem::do_pagerank(const PageRankParams& params) {
  // Dense pull iterations (Ligra's PageRank uses edgeMap with an
  // all-active frontier; the pull body is identical). Per-edge work is
  // one load from a precomputed contribution array — rank[u]/deg(u) is
  // hoisted out of the edge loop — and both global sums use the
  // deterministic block reduction so the ranks are a pure function of
  // the graph, independent of thread count.
  const vid_t n = out_.num_vertices();
  PageRankResult r;
  std::uint64_t edge_work = 0;
  if (n == 0) return r;

  FirstTouchVector<double> rank;
  FirstTouchVector<double> next;
  FirstTouchVector<double> contrib;
  rank.resize(n);
  next.resize(n);
  contrib.resize(n);
  const double init = 1.0 / n;
  // First-touch init: the same schedule(static) partition the pull
  // loop's streaming writes use (see core/numa_alloc.hpp).
#pragma omp parallel for schedule(static)
  for (std::int64_t v = 0; v < static_cast<std::int64_t>(n); ++v) {
    rank[static_cast<std::size_t>(v)] = init;
    next[static_cast<std::size_t>(v)] = 0.0;
    contrib[static_cast<std::size_t>(v)] = 0.0;
  }

  // Snapshot state: the rank vector plus the result/work counters, so a
  // resumed trial reports the same iteration and edge totals as an
  // uninterrupted one. `next` and `contrib` are scratch recomputed every
  // iteration.
  KernelRun run(*this, "pagerank", [&](StateFields& f) {
    f.per_vertex(rank);
    f.u64(r.iterations);
    f.u64(edge_work);
  });
  run.watch_edges(&edge_work);
  const int start_it = static_cast<int>(run.resumed());

  for (int it = start_it; it < params.max_iterations; ++it) {
    run.iteration(static_cast<std::uint64_t>(it), n);  // iteration boundary
#pragma omp parallel for schedule(static)
    for (std::int64_t v = 0; v < static_cast<std::int64_t>(n); ++v) {
      const auto d =
          static_cast<double>(out_.degree(static_cast<vid_t>(v)));
      contrib[static_cast<std::size_t>(v)] =
          d > 0.0 ? rank[static_cast<std::size_t>(v)] / d : 0.0;
    }
    const double dangling = deterministic_block_sum<double>(
        n, [&](std::size_t v) {
          return out_.degree(static_cast<vid_t>(v)) == 0 ? rank[v] : 0.0;
        });
    const double base =
        (1.0 - params.damping) / n + params.damping * dangling / n;

    // Edge-bound power-law loop: dynamic with page-spanning chunks
    // (scheduling rule in core/numa_alloc.hpp).
#pragma omp parallel for schedule(dynamic, 1024)
    for (std::int64_t v = 0; v < static_cast<std::int64_t>(n); ++v) {
      const auto nbrs = in().neighbors(static_cast<vid_t>(v));
      double sum = 0.0;
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        if (i + kPrefetchDistance < nbrs.size()) {
          prefetch_read(&contrib[nbrs[i + kPrefetchDistance]]);
        }
        sum += contrib[nbrs[i]];
      }
      next[v] = base + params.damping * sum;
    }
    const double l1 = deterministic_block_sum<double>(
        n, [&](std::size_t v) { return std::abs(next[v] - rank[v]); });
    rank.swap(next);
    ++r.iterations;
    edge_work += in().num_edges();
    run.residual(l1);
    if (l1 < params.epsilon) break;
  }
  run.finish();
  r.rank.assign(rank.begin(), rank.end());
  work_.edges_processed = edge_work;
  work_.vertex_updates = static_cast<std::uint64_t>(n) * r.iterations;
  work_.bytes_touched = edge_work * (sizeof(vid_t) + sizeof(double));
  return r;
}

WccResult LigraSystem::do_wcc() {
  const vid_t n = out_.num_vertices();
  NumaArray<std::atomic<vid_t>> comp(n);
  comp.fill_with([](std::size_t i) { return static_cast<vid_t>(i); });

  std::uint64_t examined = 0;
  VertexSubset frontier = VertexSubset::all(n);
  // Weak connectivity needs both directions; alternate the orientation
  // by swapping the CSR arguments each half-round.
  int guard = 0;

  // Snapshot state: component labels, the active frontier, and the
  // guard/edge counters.
  KernelRun run(*this, "wcc", [&](StateFields& f) {
    f.per_vertex(comp);
    subset_field(f, frontier, n);
    f.u64(guard);
    f.u64(examined);
  });
  run.watch_edges(&examined);

  while (!frontier.empty() && guard <= 2 * static_cast<int>(n)) {
    // WCC round boundary (snapshot point).
    run.iteration(static_cast<std::uint64_t>(guard), frontier.size());
    ++guard;
    auto fwd = edge_map(out_, in(), frontier, WccF{comp.data()}, examined);
    auto bwd = edge_map(in(), out_, frontier, WccF{comp.data()}, examined);
    std::vector<vid_t> merged;
    merged.reserve(fwd.size() + bwd.size());
    merged.insert(merged.end(), fwd.vertices().begin(),
                  fwd.vertices().end());
    merged.insert(merged.end(), bwd.vertices().begin(),
                  bwd.vertices().end());
    std::sort(merged.begin(), merged.end());
    merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
    frontier = VertexSubset::from_sparse(n, std::move(merged));
  }
  run.finish();

  WccResult r;
  r.component.resize(n);
  for (vid_t v = 0; v < n; ++v) {
    r.component[v] = comp[v].load(std::memory_order_relaxed);
  }
  work_.edges_processed = examined;
  work_.vertex_updates = n;
  work_.bytes_touched = examined * sizeof(vid_t);
  return r;
}

BcResult LigraSystem::do_bc(vid_t source) {
  // Ligra's flagship: Brandes BC with edgeMap in both sweeps. Forward
  // BFS records per-level frontiers; sigma accumulates level-
  // synchronously; the backward sweep pulls from successors.
  const vid_t n = out_.num_vertices();
  BcResult r;
  r.source = source;
  r.dependency.assign(n, 0.0);

  FirstTouchVector<double> sigma;
  FirstTouchVector<vid_t> level;
  sigma.resize(n);
  level.resize(n);
#pragma omp parallel for schedule(static)
  for (std::int64_t v = 0; v < static_cast<std::int64_t>(n); ++v) {
    sigma[static_cast<std::size_t>(v)] = 0.0;
    level[static_cast<std::size_t>(v)] = kNoVertex;
  }
  NumaArray<std::atomic<vid_t>> visited(n, kNoVertex);
  visited[source].store(source, std::memory_order_relaxed);
  sigma[source] = 1.0;
  level[source] = 0;

  struct VisitF {
    std::atomic<vid_t>* visited;
    void prefetch(vid_t d) const { prefetch_write(&visited[d]); }
    bool cond(vid_t d) const {
      return visited[d].load(std::memory_order_relaxed) == kNoVertex;
    }
    bool update(vid_t s, vid_t d, weight_t) const {
      visited[d].store(s, std::memory_order_relaxed);
      return true;
    }
    bool update_atomic(vid_t s, vid_t d, weight_t) const {
      vid_t expected = kNoVertex;
      return visited[d].compare_exchange_strong(
          expected, s, std::memory_order_relaxed);
    }
  };

  std::uint64_t examined = 0;
  std::vector<std::vector<vid_t>> levels{{source}};
  VertexSubset frontier = VertexSubset::single(n, source);

  // Snapshot state for the forward sweep: visit claims, path counts,
  // per-vertex depth, the recorded level sets, the live frontier, and
  // the edge counter. The backward sweep derives from these alone.
  KernelRun run(*this, "bc", [&](StateFields& f) {
    f.per_vertex(visited);
    f.per_vertex(sigma);
    f.per_vertex(level);
    f.list(levels);
    subset_field(f, frontier, n);
    f.u64(examined);
  });
  run.watch_edges(&examined);
  std::uint64_t round = run.resumed();

  while (true) {
    // BC forward-level boundary (snapshot point).
    run.iteration(round, frontier.size());
    ++round;
    frontier =
        edge_map(out_, in(), frontier, VisitF{visited.data()}, examined);
    if (frontier.empty()) break;
    const auto depth = static_cast<vid_t>(levels.size());
    for (const vid_t v : frontier.vertices()) level[v] = depth;
#pragma omp parallel for schedule(dynamic, 256)
    for (std::int64_t i = 0;
         i < static_cast<std::int64_t>(frontier.size()); ++i) {
      const vid_t v = frontier.vertices()[static_cast<std::size_t>(i)];
      double s = 0.0;
      for (const vid_t u : in().neighbors(v)) {
        if (level[u] != kNoVertex && level[u] + 1 == depth) s += sigma[u];
      }
      sigma[v] = s;
    }
    levels.push_back(frontier.vertices());
  }
  run.finish();

  for (auto lit = levels.rbegin(); lit != levels.rend(); ++lit) {
    std::uint64_t level_examined = 0;
#pragma omp parallel for schedule(dynamic, 256) \
    reduction(+ : level_examined)
    for (std::int64_t i = 0; i < static_cast<std::int64_t>(lit->size());
         ++i) {
      const vid_t v = (*lit)[static_cast<std::size_t>(i)];
      double dep = 0.0;
      for (const vid_t w : out_.neighbors(v)) {
        ++level_examined;
        if (level[w] != kNoVertex && level[w] == level[v] + 1) {
          dep += sigma[v] / sigma[w] * (1.0 + r.dependency[w]);
        }
      }
      r.dependency[v] = dep;
    }
    examined += level_examined;
  }
  work_.edges_processed = examined;
  work_.vertex_updates = n;
  work_.bytes_touched = examined * (sizeof(vid_t) + sizeof(double));
  return r;
}

}  // namespace epgs::systems

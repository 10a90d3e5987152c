#include "systems/graphbig/graphbig_system.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>

#include "core/parallel.hpp"
#include "systems/common/kernel_run.hpp"

namespace epgs::systems {

using graphbig_detail::EdgeObj;
using graphbig_detail::EdgeVisitor;
using graphbig_detail::VertexObj;

namespace {

/// One property of every vertex object as a per-vertex snapshot field;
/// `prop` projects an object onto the property.
template <typename Prop>
void object_field(StateFields& f, graphbig_detail::PropertyGraph& g,
                  Prop prop) {
  f.per_vertex(
      g.num_vertices(),
      [&g, prop](std::size_t v) {
        return prop(g.vertex(static_cast<vid_t>(v)));
      },
      [&g, prop](std::size_t v, auto x) {
        prop(g.vertex(static_cast<vid_t>(v))) = x;
      });
}

}  // namespace

void GraphBigSystem::do_build(const EdgeList& edges) {
  g_.load(edges);
  work_.bytes_touched = g_.bytes();
}

// ---------------------------------------------------------------------
// BFS: frontier expansion through the generic visitor (one virtual call
// per examined edge — authentic openG overhead).
// ---------------------------------------------------------------------

namespace {

class BfsVisitor final : public EdgeVisitor {
 public:
  bool examine(VertexObj& src, EdgeObj&, VertexObj& dst) override {
    // GraphBIG's BFS reads a neighbour's status and marks it only when it
    // reads unvisited; the compare-and-swap settles only that race.
    std::atomic_ref<std::uint32_t> status(dst.status);
    if (status.load(std::memory_order_relaxed) != 0) return false;
    std::uint32_t expected = 0;
    if (status.compare_exchange_strong(expected, 1,
                                       std::memory_order_relaxed)) {
      dst.parent = src.id;
      return true;
    }
    return false;
  }
};

class SsspVisitor final : public EdgeVisitor {
 public:
  explicit SsspVisitor(std::uint32_t round) : round_(round) {}

  bool examine(VertexObj& src, EdgeObj& e, VertexObj& dst) override {
    const float nd = src.fprop + e.weight;
    std::atomic_ref<float> dist(dst.fprop);
    float cur = dist.load(std::memory_order_relaxed);
    bool improved = false;
    while (nd < cur) {
      if (dist.compare_exchange_weak(cur, nd, std::memory_order_relaxed)) {
        improved = true;
        break;
      }
    }
    if (!improved) return false;
    // Deduplicate frontier insertions per round via the status tag.
    std::atomic_ref<std::uint32_t> tag(dst.status);
    std::uint32_t seen = tag.load(std::memory_order_relaxed);
    while (seen != round_) {
      if (tag.compare_exchange_weak(seen, round_,
                                    std::memory_order_relaxed)) {
        return true;
      }
    }
    return false;
  }

 private:
  std::uint32_t round_;
};

}  // namespace

BfsResult GraphBigSystem::do_bfs(vid_t root) {
  const vid_t n = g_.num_vertices();
  // Parallel static reset: touches each vertex object with the thread
  // that owns its index range in later static scans.
#pragma omp parallel for schedule(static)
  for (std::int64_t v = 0; v < static_cast<std::int64_t>(n); ++v) {
    auto& obj = g_.vertex(static_cast<vid_t>(v));
    obj.status = 0;
    obj.parent = kNoVertex;
  }
  g_.vertex(root).status = 1;
  g_.vertex(root).parent = root;

  BfsVisitor visitor;
  std::vector<vid_t> frontier{root};
  std::uint64_t examined = 0;

  // Snapshot state: the per-object status/parent properties, the live
  // frontier, and the edge counter.
  KernelRun run(*this, "bfs", [&](StateFields& f) {
    object_field(f, g_, [](VertexObj& o) -> auto& { return o.status; });
    object_field(f, g_, [](VertexObj& o) -> auto& { return o.parent; });
    f.list(frontier);
    f.u64(examined);
  });
  run.watch_edges(&examined);
  std::uint64_t round = run.resumed();

  while (!frontier.empty()) {
    // BFS expansion round boundary (snapshot point).
    run.iteration(round, frontier.size());
    frontier = g_.expand(frontier, visitor, examined);
    ++round;
  }
  run.finish();

  BfsResult r;
  r.root = root;
  r.parent.resize(n);
  for (vid_t v = 0; v < n; ++v) r.parent[v] = g_.vertex(v).parent;
  work_.edges_processed = examined;
  work_.vertex_updates = n;
  work_.bytes_touched = examined * sizeof(EdgeObj);
  return r;
}

SsspResult GraphBigSystem::do_sssp(vid_t root) {
  const vid_t n = g_.num_vertices();
#pragma omp parallel for schedule(static)
  for (std::int64_t v = 0; v < static_cast<std::int64_t>(n); ++v) {
    auto& obj = g_.vertex(static_cast<vid_t>(v));
    obj.fprop = kInfDist;
    obj.status = 0;
  }
  g_.vertex(root).fprop = 0.0f;

  std::vector<vid_t> frontier{root};
  std::uint64_t examined = 0;

  // Snapshot state: distances plus the status round-tags (the visitor
  // uses them to deduplicate frontier insertions, so they must survive
  // a resume), the live frontier, the round counter, and edge work.
  std::uint32_t round = 0;
  KernelRun run(*this, "sssp", [&](StateFields& f) {
    object_field(f, g_, [](VertexObj& o) -> auto& { return o.fprop; });
    object_field(f, g_, [](VertexObj& o) -> auto& { return o.status; });
    f.list(frontier);
    f.u64(round);
    f.u64(examined);
  });
  run.watch_edges(&examined);

  while (!frontier.empty()) {
    // SSSP expansion round boundary (snapshot point).
    run.iteration(round, frontier.size());
    SsspVisitor visitor(++round);
    frontier = g_.expand(frontier, visitor, examined);
  }
  run.finish();

  SsspResult r;
  r.root = root;
  r.dist.resize(n);
  for (vid_t v = 0; v < n; ++v) r.dist[v] = g_.vertex(v).fprop;
  work_.edges_processed = examined;
  work_.vertex_updates = n;
  work_.bytes_touched = examined * sizeof(EdgeObj);
  return r;
}

// ---------------------------------------------------------------------
// Push-style PageRank: every vertex scatters rank/outdeg along its
// out-edges — the vertex-centric formulation GraphBIG ships, heavier on
// memory traffic than GAP's pull. Contributions are propagation-blocked:
// binned by destination cache block and reduced without atomics, in a
// fixed (chunk, source, edge) order, so ranks are identical at every
// thread count. The scatter still walks the AoS per-vertex EdgeObj
// containers (GraphBIG's signature memory layout) directly, without the
// per-edge virtual visitor call of the traversal kernels.
// ---------------------------------------------------------------------

namespace {

/// Propagation-blocking geometry. The accumulator lives inside the AoS
/// VertexObj (~100 B each), so the destination block is kept at 8 Ki
/// vertices (~1 MiB of vertex objects) to stay L2-resident during the
/// reduce.
constexpr vid_t kPrChunkSize = 1u << 14;
constexpr unsigned kPrBlockBits = 13;

}  // namespace

PageRankResult GraphBigSystem::do_pagerank(const PageRankParams& params) {
  const vid_t n = g_.num_vertices();
  PageRankResult r;
  if (n == 0) return r;
  const double init = 1.0 / n;
#pragma omp parallel for schedule(static)
  for (std::int64_t v = 0; v < static_cast<std::int64_t>(n); ++v) {
    auto& obj = g_.vertex(static_cast<vid_t>(v));
    obj.vprop[0] = init;  // current rank
    obj.vprop[1] = 0.0;   // incoming accumulator
  }
  const std::size_t num_chunks = (n + kPrChunkSize - 1) / kPrChunkSize;
  const std::size_t num_blocks =
      (n + (vid_t{1} << kPrBlockBits) - 1) >> kPrBlockBits;
  // Bins keyed by (source chunk, destination block); contents depend
  // only on the chunk index, and the reduce walks chunks in ascending
  // order, so accumulation order — hence rounding — is fixed for any
  // thread count. Reused across iterations (clear() keeps capacity).
  std::vector<std::vector<std::vector<std::pair<vid_t, double>>>> bins(
      num_chunks);
  for (auto& chunk_bins : bins) chunk_bins.resize(num_blocks);
  std::uint64_t edge_work = 0;

  // Snapshot state: the vprop[0] ranks plus the result/work counters.
  // At the iteration boundary vprop[1] (accumulator) is zero and
  // vprop[2] (contribution cache) is recomputed, so neither is saved.
  KernelRun run(*this, "pagerank", [&](StateFields& f) {
    object_field(f, g_, [](VertexObj& o) -> auto& { return o.vprop[0]; });
    f.u64(r.iterations);
    f.u64(edge_work);
  });
  run.watch_edges(&edge_work);
  const int start_it = static_cast<int>(run.resumed());

  for (int it = start_it; it < params.max_iterations; ++it) {
    run.iteration(static_cast<std::uint64_t>(it), n);  // iteration boundary
#pragma omp parallel for schedule(static)
    for (std::int64_t v = 0; v < static_cast<std::int64_t>(n); ++v) {
      auto& src = g_.vertex(static_cast<vid_t>(v));
      src.vprop[2] =
          src.out_edges.empty()
              ? 0.0
              : src.vprop[0] / static_cast<double>(src.out_edges.size());
    }
    const double dangling =
        deterministic_block_sum<double>(n, [&](std::size_t v) {
          const auto& obj = g_.vertex(static_cast<vid_t>(v));
          return obj.out_edges.empty() ? obj.vprop[0] : 0.0;
        });
    const double base =
        (1.0 - params.damping) / n + params.damping * dangling / n;

    // Bin phase: chases the per-vertex EdgeObj containers (the AoS
    // cost the paper measures) and stages contributions per block.
#pragma omp parallel for schedule(dynamic, 1)
    for (std::int64_t c = 0; c < static_cast<std::int64_t>(num_chunks);
         ++c) {
      auto& my_bins = bins[static_cast<std::size_t>(c)];
      for (auto& b : my_bins) b.clear();
      const vid_t ulo = static_cast<vid_t>(c) * kPrChunkSize;
      const vid_t uhi = std::min<vid_t>(n, ulo + kPrChunkSize);
      for (vid_t u = ulo; u < uhi; ++u) {
        const auto& src = g_.vertex(u);
        const double cu = src.vprop[2];
        if (cu == 0.0) continue;
        for (const auto& e : src.out_edges) {
          my_bins[e.target >> kPrBlockBits].emplace_back(e.target, cu);
        }
      }
    }
    // Reduce phase: each destination block of vertex objects is owned
    // by exactly one loop iteration — plain adds, L2-resident strip.
#pragma omp parallel for schedule(static)
    for (std::int64_t b = 0; b < static_cast<std::int64_t>(num_blocks);
         ++b) {
      for (std::size_t c = 0; c < num_chunks; ++c) {
        for (const auto& [v, x] : bins[c][static_cast<std::size_t>(b)]) {
          g_.vertex(v).vprop[1] += x;
        }
      }
    }
    edge_work += g_.num_edges();

    const double l1 =
        deterministic_block_sum<double>(n, [&](std::size_t v) {
          const auto& obj = g_.vertex(static_cast<vid_t>(v));
          return std::abs(base + params.damping * obj.vprop[1] -
                          obj.vprop[0]);
        });
#pragma omp parallel for schedule(static)
    for (std::int64_t v = 0; v < static_cast<std::int64_t>(n); ++v) {
      auto& obj = g_.vertex(static_cast<vid_t>(v));
      obj.vprop[0] = base + params.damping * obj.vprop[1];
      obj.vprop[1] = 0.0;
    }
    ++r.iterations;
    run.residual(l1);
    if (l1 < params.epsilon) break;
  }
  run.finish();

  r.rank.resize(n);
  for (vid_t v = 0; v < n; ++v) r.rank[v] = g_.vertex(v).vprop[0];
  work_.edges_processed = edge_work;
  work_.vertex_updates = static_cast<std::uint64_t>(n) * r.iterations;
  work_.bytes_touched = edge_work * sizeof(EdgeObj);
  return r;
}

// ---------------------------------------------------------------------
// CDLP: synchronous min-mode label propagation over in+out neighbours
// (semantics shared with every other system so results are comparable).
// ---------------------------------------------------------------------

CdlpResult GraphBigSystem::do_cdlp(int max_iterations) {
  const vid_t n = g_.num_vertices();
  for (vid_t v = 0; v < n; ++v) g_.vertex(v).label = v;
  std::vector<vid_t> next(n);
  std::uint64_t edge_work = 0;
  CdlpResult r;

  // Snapshot state: the per-object labels plus the result/work counters.
  KernelRun run(*this, "cdlp", [&](StateFields& f) {
    object_field(f, g_, [](VertexObj& o) -> auto& { return o.label; });
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
      auto& obj = g_.vertex(v);
      std::vector<vid_t> labels;
      labels.reserve(obj.out_edges.size() + obj.in_edges.size());
      for (const auto& e : obj.out_edges) {
        labels.push_back(g_.vertex(e.target).label);
      }
      for (const vid_t u : obj.in_edges) {
        labels.push_back(g_.vertex(u).label);
      }
      if (labels.empty()) {
        next[v] = obj.label;
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
      changed |= best != obj.label;
    }
    for (vid_t v = 0; v < n; ++v) g_.vertex(v).label = next[v];
    edge_work += g_.num_edges() * 2;
    ++r.iterations;
    if (!changed) break;
  }
  run.finish();

  r.label.resize(n);
  for (vid_t v = 0; v < n; ++v) r.label[v] = g_.vertex(v).label;
  work_.edges_processed = edge_work;
  work_.vertex_updates = static_cast<std::uint64_t>(n) * r.iterations;
  work_.bytes_touched = edge_work * sizeof(vid_t) * 2;
  return r;
}

// ---------------------------------------------------------------------
// LCC via neighbor-set intersection over the property store.
// ---------------------------------------------------------------------

LccResult GraphBigSystem::do_lcc() {
  const vid_t n = g_.num_vertices();
  LccResult r;
  r.coefficient.assign(n, 0.0);
  std::uint64_t edge_work = 0;

#pragma omp parallel for schedule(dynamic, 64) reduction(+ : edge_work)
  for (std::int64_t vi = 0; vi < static_cast<std::int64_t>(n); ++vi) {
    const auto v = static_cast<vid_t>(vi);
    const auto& obj = g_.vertex(v);
    // Sorted union of out targets and in sources, minus self.
    std::vector<vid_t> nbrs;
    nbrs.reserve(obj.out_edges.size() + obj.in_edges.size());
    {
      std::vector<vid_t> outs;
      outs.reserve(obj.out_edges.size());
      for (const auto& e : obj.out_edges) outs.push_back(e.target);
      std::merge(outs.begin(), outs.end(), obj.in_edges.begin(),
                 obj.in_edges.end(), std::back_inserter(nbrs));
    }
    nbrs.erase(std::unique(nbrs.begin(), nbrs.end()), nbrs.end());
    std::erase(nbrs, v);
    if (nbrs.size() < 2) continue;

    std::uint64_t links = 0;
    for (const vid_t a : nbrs) {
      const auto& adj = g_.vertex(a).out_edges;
      auto it = nbrs.begin();
      for (const auto& e : adj) {
        ++edge_work;
        it = std::lower_bound(it, nbrs.end(), e.target);
        if (it == nbrs.end()) break;
        if (*it == e.target && e.target != a) ++links;
      }
    }
    r.coefficient[v] =
        static_cast<double>(links) /
        (static_cast<double>(nbrs.size()) * (nbrs.size() - 1));
  }
  work_.edges_processed = edge_work;
  work_.vertex_updates = n;
  work_.bytes_touched = edge_work * sizeof(EdgeObj);
  return r;
}

// ---------------------------------------------------------------------
// WCC: synchronous min-label propagation to fixpoint.
// ---------------------------------------------------------------------

WccResult GraphBigSystem::do_wcc() {
  const vid_t n = g_.num_vertices();
  for (vid_t v = 0; v < n; ++v) g_.vertex(v).label = v;
  std::vector<vid_t> next(n);
  std::uint64_t edge_work = 0;

  // Snapshot state: the per-object labels plus a round counter and the
  // work tally.
  std::uint64_t round = 0;
  KernelRun run(*this, "wcc", [&](StateFields& f) {
    object_field(f, g_, [](VertexObj& o) -> auto& { return o.label; });
    f.u64(round);
    f.u64(edge_work);
  });
  run.watch_edges(&edge_work);
  round = run.resumed();

  bool changed = true;
  while (changed) {
    run.iteration(round, n);  // WCC round boundary
    ++round;
    changed = false;
#pragma omp parallel for schedule(dynamic, 256) reduction(|| : changed)
    for (std::int64_t vi = 0; vi < static_cast<std::int64_t>(n); ++vi) {
      const auto v = static_cast<vid_t>(vi);
      const auto& obj = g_.vertex(v);
      vid_t m = obj.label;
      for (const auto& e : obj.out_edges) {
        m = std::min(m, g_.vertex(e.target).label);
      }
      for (const vid_t u : obj.in_edges) {
        m = std::min(m, g_.vertex(u).label);
      }
      next[v] = m;
      changed |= m != obj.label;
    }
    for (vid_t v = 0; v < n; ++v) g_.vertex(v).label = next[v];
    edge_work += g_.num_edges() * 2;
  }
  run.finish();

  WccResult r;
  r.component.resize(n);
  for (vid_t v = 0; v < n; ++v) r.component[v] = g_.vertex(v).label;
  work_.edges_processed = edge_work;
  work_.vertex_updates = n;
  work_.bytes_touched = edge_work * sizeof(vid_t);
  return r;
}

// ---------------------------------------------------------------------
// Triangle counting over the property store: build per-vertex higher-id
// neighbour lists (through the fat objects) and intersect.
// ---------------------------------------------------------------------

TriangleCountResult GraphBigSystem::do_tc() {
  const vid_t n = g_.num_vertices();
  std::vector<std::vector<vid_t>> higher(n);
#pragma omp parallel for schedule(dynamic, 256)
  for (std::int64_t vi = 0; vi < static_cast<std::int64_t>(n); ++vi) {
    const auto v = static_cast<vid_t>(vi);
    const auto& obj = g_.vertex(v);
    std::vector<vid_t> nbrs;
    nbrs.reserve(obj.out_edges.size() + obj.in_edges.size());
    for (const auto& e : obj.out_edges) nbrs.push_back(e.target);
    nbrs.insert(nbrs.end(), obj.in_edges.begin(), obj.in_edges.end());
    std::sort(nbrs.begin(), nbrs.end());
    nbrs.erase(std::unique(nbrs.begin(), nbrs.end()), nbrs.end());
    for (const vid_t u : nbrs) {
      if (u > v) higher[vi].push_back(u);
    }
  }

  std::uint64_t count = 0, scanned = 0;
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
  work_.bytes_touched = scanned * sizeof(EdgeObj);
  return TriangleCountResult{count};
}

// ---------------------------------------------------------------------
// Betweenness centrality: Brandes through the vertex objects (sigma and
// dependency live in the generic vprop slots, as GraphBIG stores
// algorithm state in vertex properties).
// ---------------------------------------------------------------------

BcResult GraphBigSystem::do_bc(vid_t source) {
  const vid_t n = g_.num_vertices();
  for (vid_t v = 0; v < n; ++v) {
    auto& obj = g_.vertex(v);
    obj.vprop[0] = 0.0;  // sigma
    obj.vprop[1] = 0.0;  // dependency
    obj.label = kNoVertex;  // level
  }
  g_.vertex(source).vprop[0] = 1.0;
  g_.vertex(source).label = 0;

  std::vector<std::vector<vid_t>> levels{{source}};
  std::uint64_t scanned = 0;

  // Snapshot state: sigma (vprop[0]) and level (label) per object, the
  // per-level vertex lists, and the scan counter. Dependencies are only
  // written by the backward sweep, which runs after the scope closes.
  KernelRun run(*this, "bc", [&](StateFields& f) {
    object_field(f, g_, [](VertexObj& o) -> auto& { return o.vprop[0]; });
    object_field(f, g_, [](VertexObj& o) -> auto& { return o.label; });
    f.list(levels);
    f.u64(scanned);
  });
  run.watch_edges(&scanned);
  std::uint64_t round = run.resumed();

  while (!levels.back().empty()) {
    // BC forward-level boundary (snapshot point).
    run.iteration(round, levels.back().size());
    ++round;
    const auto depth = static_cast<vid_t>(levels.size());
    std::vector<vid_t> next;
    for (const vid_t u : levels.back()) {
      for (const auto& e : g_.vertex(u).out_edges) {
        ++scanned;
        auto& dst = g_.vertex(e.target);
        if (dst.label == kNoVertex) {
          dst.label = depth;
          next.push_back(e.target);
        }
        if (dst.label == depth) dst.vprop[0] += g_.vertex(u).vprop[0];
      }
    }
    if (next.empty()) break;
    levels.push_back(std::move(next));
  }
  run.finish();

  for (auto lit = levels.rbegin(); lit != levels.rend(); ++lit) {
    for (const vid_t v : *lit) {
      auto& vo = g_.vertex(v);
      double dep = 0.0;
      for (const auto& e : vo.out_edges) {
        ++scanned;
        const auto& wo = g_.vertex(e.target);
        if (wo.label != kNoVertex && wo.label == vo.label + 1) {
          dep += vo.vprop[0] / wo.vprop[0] * (1.0 + wo.vprop[1]);
        }
      }
      vo.vprop[1] = dep;
    }
  }

  BcResult r;
  r.source = source;
  r.dependency.resize(n);
  for (vid_t v = 0; v < n; ++v) r.dependency[v] = g_.vertex(v).vprop[1];
  work_.edges_processed = scanned;
  work_.vertex_updates = n;
  work_.bytes_touched = scanned * sizeof(EdgeObj);
  return r;
}

}  // namespace epgs::systems

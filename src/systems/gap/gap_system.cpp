#include "systems/gap/gap_system.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>

#include "core/bitmap.hpp"
#include "core/frontier.hpp"
#include "core/numa_alloc.hpp"
#include "core/parallel.hpp"
#include "core/prefetch.hpp"
#include "systems/common/kernel_run.hpp"

namespace epgs::systems {

void GapSystem::do_build(const EdgeList& edges) {
  if (opts_.integer_weights && edges.weighted) {
    // The int-weight build: every weight truncates toward zero, so 0.2
    // becomes 0 — the semantic hazard the paper warns about. An edge and
    // its reverse truncate alike, so `edges.symmetric` still holds.
    EdgeList truncated = edges;
    for (auto& e : truncated.edges) {
      e.w = static_cast<weight_t>(static_cast<std::int32_t>(e.w));
    }
    out_ = CSRGraph::from_edges(truncated);
  } else {
    out_ = CSRGraph::from_edges(edges);
  }
  in_.reset();
  if (!is_own_transpose(edges, out_)) in_ = out_.transposed();
  work_.bytes_touched = out_.bytes() + (in_ ? in_->bytes() : 0);
}

// ---------------------------------------------------------------------
// Direction-optimizing BFS (Beamer). Top-down steps expand a sparse
// frontier queue; once the frontier's outgoing edge count exceeds the
// unexplored edge count / alpha, we switch to bottom-up steps that scan
// unvisited vertices for any parent in the frontier bitmap, switching
// back when the frontier shrinks below n / beta.
// ---------------------------------------------------------------------

BfsResult GapSystem::do_bfs(vid_t root) {
  const vid_t n = out_.num_vertices();
  BfsResult r;
  r.root = root;
  r.parent.assign(n, kNoVertex);

  // First-touch: the parallel fill places parent[] pages with the
  // threads that scan them in the bottom-up phase.
  NumaArray<std::atomic<vid_t>> parent(n, kNoVertex);
  parent[root].store(root, std::memory_order_relaxed);

  // Every vertex enters the queue at most once (CAS-claimed in top-down
  // steps, bitmap-compacted after bottom-up steps), so num_vertices
  // bounds the queue's lifetime appends.
  SlidingQueue<vid_t> queue(static_cast<std::size_t>(n));
  queue.push_back(root);
  queue.slide_window();
  Bitmap front_bm(n), next_bm(n);
  bool bottom_up = false;
  // Live frontier size, valid in both representations — replaces the
  // seed's fake one-element queue that kept the loop alive during
  // bottom-up phases.
  std::size_t awake = 1;
  // Edges not yet examined; drives the alpha heuristic.
  std::int64_t edges_remaining = static_cast<std::int64_t>(out_.num_edges());
  std::uint64_t edges_scanned = 0;

  auto frontier_out_degree = [&] {
    std::int64_t d = 0;
    for (const vid_t u : queue) d += static_cast<std::int64_t>(out_.degree(u));
    return d;
  };

  // Snapshot state: the claimed-parent array, the live frontier (queue
  // window or bitmap, whichever representation is current), and the
  // direction/accounting scalars the alpha-beta heuristic needs. The
  // frontier is rebuilt once the direction flag is restored.
  std::vector<vid_t> restored_frontier;
  KernelRun run(*this, "bfs", [&](StateFields& f) {
    f.per_vertex(parent);
    f.list(
        [&] {
          std::vector<vid_t> frontier;
          if (bottom_up) {
            for (vid_t v = 0; v < n; ++v) {
              if (front_bm.test(v)) frontier.push_back(v);
            }
          } else {
            frontier.assign(queue.begin(), queue.begin() + queue.size());
          }
          return frontier;
        },
        [&](std::vector<vid_t> l) { restored_frontier = std::move(l); });
    f.u64(bottom_up);
    f.u64(awake);
    f.i64(edges_remaining);
    f.u64(edges_scanned);
    f.after_restore([&] {
      front_bm.reset();
      next_bm.reset();
      queue.reset();  // zeroes the lifetime-append counter too
      if (bottom_up) {
        for (const vid_t v : restored_frontier) front_bm.set(v);
      } else {
        for (const vid_t v : restored_frontier) queue.push_back(v);
        queue.slide_window();
      }
    });
  });
  run.watch_edges(&edges_scanned);
  std::uint64_t round = run.resumed();

  while (awake > 0) {
    run.iteration(round, awake);  // frontier swap boundary (snapshot point)
    if (!bottom_up) {
      const std::int64_t scout = frontier_out_degree();
      if (static_cast<double>(scout) >
          static_cast<double>(edges_remaining) / opts_.alpha) {
        bottom_up = true;
        front_bm.reset();
        for (const vid_t u : queue) front_bm.set(u);
      }
    }

    if (bottom_up) {
      next_bm.reset();
      std::size_t woke = 0;
      std::uint64_t scanned = 0;
#pragma omp parallel for schedule(dynamic, 1024) \
    reduction(+ : scanned, woke)
      for (std::int64_t v = 0; v < static_cast<std::int64_t>(n); ++v) {
        if (parent[v].load(std::memory_order_relaxed) != kNoVertex) continue;
        for (const vid_t u : in().neighbors(static_cast<vid_t>(v))) {
          ++scanned;
          if (front_bm.test(u)) {
            parent[v].store(u, std::memory_order_relaxed);
            next_bm.set_atomic(static_cast<std::size_t>(v));
            ++woke;
            break;
          }
        }
      }
      edges_scanned += scanned;
      edges_remaining -= static_cast<std::int64_t>(scanned);
      awake = woke;
      if (awake == 0) break;
      if (static_cast<double>(awake) < static_cast<double>(n) / opts_.beta) {
        // Shrunk again: parallel-compact the bitmap into the queue and
        // go top-down.
        bitmap_to_queue(next_bm, queue);
        queue.slide_window();
        bottom_up = false;
      } else {
        front_bm.swap(next_bm);
      }
    } else {
#pragma omp parallel
      {
        LocalBuffer<vid_t> next(queue);
        std::uint64_t scanned = 0;
#pragma omp for schedule(dynamic, 64) nowait
        for (std::int64_t i = 0;
             i < static_cast<std::int64_t>(queue.size()); ++i) {
          const vid_t u = queue.begin()[i];
          const auto nbrs = out_.neighbors(u);
          for (std::size_t e = 0; e < nbrs.size(); ++e) {
            // The CAS target parent[nbrs[e]] is the only random access;
            // prefetching it a few slots ahead hides the miss.
            if (e + kPrefetchDistance < nbrs.size()) {
              prefetch_write(&parent[nbrs[e + kPrefetchDistance]]);
            }
            const vid_t v = nbrs[e];
            ++scanned;
            vid_t expected = kNoVertex;
            if (parent[v].compare_exchange_strong(
                    expected, u, std::memory_order_relaxed)) {
              next.push_back(v);
            }
          }
        }
        next.flush();
#pragma omp atomic
        edges_scanned += scanned;
#pragma omp atomic
        edges_remaining -= static_cast<std::int64_t>(scanned);
      }
      queue.slide_window();
      awake = queue.size();
    }
    ++round;
  }
  run.finish();

  for (vid_t v = 0; v < n; ++v) {
    r.parent[v] = parent[v].load(std::memory_order_relaxed);
  }
  work_.edges_processed = edges_scanned;
  work_.vertex_updates = n;
  work_.bytes_touched =
      edges_scanned * sizeof(vid_t) + static_cast<std::uint64_t>(n) * 8;
  return r;
}

// ---------------------------------------------------------------------
// Delta-stepping SSSP.
// ---------------------------------------------------------------------

SsspResult GapSystem::do_sssp(vid_t root) {
  const vid_t n = out_.num_vertices();
  const weight_t delta = opts_.delta;
  SsspResult r;
  r.root = root;

  // First-touch parallel fill (see core/numa_alloc.hpp).
  NumaArray<std::atomic<weight_t>> dist(n, kInfDist);
  dist[root].store(0.0f, std::memory_order_relaxed);

  std::vector<std::vector<vid_t>> buckets(1);
  buckets[0].push_back(root);
  std::uint64_t relaxations = 0;

  auto bucket_index = [&](weight_t d) {
    return static_cast<std::size_t>(d / delta);
  };

  // Per-thread bucket bins (GAP's local_bins): each thread stages its
  // relaxation pushes privately, then the bins are merged bucket-by-
  // bucket with prefix-sum slot reservation — no critical section on
  // the relaxation hot path.
  const auto nt = static_cast<std::size_t>(max_threads());
  std::vector<std::vector<std::vector<vid_t>>> thread_bins(nt);
  auto push_local = [&](std::vector<std::vector<vid_t>>& bins, vid_t v,
                        weight_t d) {
    const std::size_t b = bucket_index(d);
    if (b >= bins.size()) bins.resize(b + 1);
    bins[b].push_back(v);
  };
  // Merge every thread's bin `b` (b >= floor) into the shared buckets.
  std::vector<std::vector<vid_t>> merge_parts(nt);
  auto merge_bins = [&](std::size_t floor) {
    std::size_t max_bins = 0;
    for (const auto& bins : thread_bins) {
      max_bins = std::max(max_bins, bins.size());
    }
    if (max_bins > buckets.size()) buckets.resize(max_bins);
    for (std::size_t b = floor; b < max_bins; ++b) {
      for (std::size_t t = 0; t < nt; ++t) {
        merge_parts[t] = b < thread_bins[t].size()
                             ? std::move(thread_bins[t][b])
                             : std::vector<vid_t>{};
      }
      parallel_append(buckets[b], merge_parts);
    }
    for (auto& bins : thread_bins) bins.clear();
  };

  // Snapshot state at an epoch boundary: tentative distances, every
  // not-yet-settled bucket, and the relaxation counter. The epoch index
  // itself is the session's iteration number.
  KernelRun run(*this, "sssp", [&](StateFields& f) {
    f.per_vertex(dist);
    f.list(buckets);
    f.u64(relaxations);
  });
  run.watch_edges(&relaxations);
  const std::uint64_t start_epoch = run.resumed();

  for (std::size_t i = static_cast<std::size_t>(start_epoch);
       i < buckets.size(); ++i) {
    // Delta-stepping epoch boundary (snapshot point).
    run.iteration(i, buckets[i].size());
    std::vector<vid_t> deleted;
    std::vector<std::vector<vid_t>> thread_deleted(nt);
    while (!buckets[i].empty()) {
      std::vector<vid_t> current;
      current.swap(buckets[i]);
      std::uint64_t relaxed = 0;
#pragma omp parallel reduction(+ : relaxed)
      {
        auto& bins = thread_bins[static_cast<std::size_t>(
            omp_get_thread_num())];
        auto& local_deleted = thread_deleted[static_cast<std::size_t>(
            omp_get_thread_num())];
#pragma omp for schedule(dynamic, 64) nowait
        for (std::int64_t k = 0; k < static_cast<std::int64_t>(
                                         current.size());
             ++k) {
          const vid_t u = current[static_cast<std::size_t>(k)];
          const weight_t du = dist[u].load(std::memory_order_relaxed);
          if (du == kInfDist || bucket_index(du) != i) continue;  // stale
          local_deleted.push_back(u);
          const auto nbrs = out_.neighbors(u);
          const auto ws = out_.weighted() ? out_.edge_weights(u)
                                          : std::span<const weight_t>{};
          for (std::size_t e = 0; e < nbrs.size(); ++e) {
            // Bucket relaxation reads dist[nbrs[e]] at random; prefetch
            // the min-target ahead of the compare-exchange.
            if (e + kPrefetchDistance < nbrs.size()) {
              prefetch_write(&dist[nbrs[e + kPrefetchDistance]]);
            }
            const weight_t w = out_.weighted() ? ws[e] : 1.0f;
            if (w > delta) continue;  // light edges only in this pass
            ++relaxed;
            const weight_t nd = du + w;
            if (atomic_fetch_min(&dist[nbrs[e]], nd)) {
              push_local(bins, nbrs[e], nd);
            }
          }
        }
      }
      relaxations += relaxed;
      merge_bins(i);
    }
    for (std::size_t t = 0; t < nt; ++t) {
      merge_parts[t] = std::move(thread_deleted[t]);
    }
    parallel_append(deleted, merge_parts);
    // Heavy edges of every vertex settled in this bucket.
    std::uint64_t relaxed = 0;
#pragma omp parallel reduction(+ : relaxed)
    {
      auto& bins =
          thread_bins[static_cast<std::size_t>(omp_get_thread_num())];
#pragma omp for schedule(dynamic, 64) nowait
      for (std::int64_t k = 0; k < static_cast<std::int64_t>(deleted.size());
           ++k) {
        const vid_t u = deleted[static_cast<std::size_t>(k)];
        const weight_t du = dist[u].load(std::memory_order_relaxed);
        const auto nbrs = out_.neighbors(u);
        const auto ws = out_.weighted() ? out_.edge_weights(u)
                                        : std::span<const weight_t>{};
        for (std::size_t e = 0; e < nbrs.size(); ++e) {
          if (e + kPrefetchDistance < nbrs.size()) {
            prefetch_write(&dist[nbrs[e + kPrefetchDistance]]);
          }
          const weight_t w = out_.weighted() ? ws[e] : 1.0f;
          if (w <= delta) continue;
          ++relaxed;
          const weight_t nd = du + w;
          if (atomic_fetch_min(&dist[nbrs[e]], nd)) {
            push_local(bins, nbrs[e], nd);
          }
        }
      }
    }
    relaxations += relaxed;
    merge_bins(i + 1);
  }
  run.finish();

  r.dist.resize(n);
  for (vid_t v = 0; v < n; ++v) {
    r.dist[v] = dist[v].load(std::memory_order_relaxed);
  }
  work_.edges_processed = relaxations;
  work_.vertex_updates = n;
  work_.bytes_touched = relaxations * (sizeof(vid_t) + sizeof(weight_t));
  return r;
}

// ---------------------------------------------------------------------
// PageRank with the paper's L1 stopping criterion: GAP's pull kernel
// over the in-CSR. The contribution rank[u]/deg(u) is precomputed once
// per iteration into contrib[], so the per-edge work is one load instead
// of a double division plus two offsets_ loads (for deg(u)). The dangling
// mass and the L1 norm use deterministic_block_sum and each vertex sums
// its sorted in-neighbors in order, so the kernel is a pure function of
// the graph, independent of thread count and schedule.
// ---------------------------------------------------------------------

PageRankResult GapSystem::do_pagerank(const PageRankParams& params) {
  const vid_t n = out_.num_vertices();
  PageRankResult r;
  if (n == 0) return r;

  // First-touch: every O(n) array is written by a schedule(static) loop
  // before any kernel reads it, so page placement matches the static
  // consuming loops below (rule in core/numa_alloc.hpp).
  FirstTouchVector<double> rank(n), next(n), contrib(n);
  const double init = 1.0 / n;
#pragma omp parallel for schedule(static)
  for (std::int64_t v = 0; v < static_cast<std::int64_t>(n); ++v) {
    rank[static_cast<std::size_t>(v)] = init;
  }

  std::uint64_t edge_work = 0;
  // Snapshot state: the rank vector after `it` completed iterations plus
  // the two counters the result reports. contrib/next are rebuilt every
  // iteration, so restoring ranks alone reproduces the remaining
  // iterations bit-identically (the kernel is a pure function of rank).
  KernelRun run(*this, "pagerank", [&](StateFields& f) {
    f.per_vertex(rank);
    f.u64(r.iterations);
    f.u64(edge_work);
  });
  run.watch_edges(&edge_work);
  const auto start_it = static_cast<int>(run.resumed());
  const auto& cols = in().targets();
  const auto& offs = in().offsets();

  for (int it = start_it; it < params.max_iterations; ++it) {
    run.iteration(static_cast<std::uint64_t>(it), n);  // snapshot point
#pragma omp parallel for schedule(static)
    for (std::int64_t v = 0; v < static_cast<std::int64_t>(n); ++v) {
      const eid_t d = out_.degree(static_cast<vid_t>(v));
      contrib[static_cast<std::size_t>(v)] =
          d > 0 ? rank[static_cast<std::size_t>(v)] /
                      static_cast<double>(d)
                : 0.0;
    }
    const double dangling =
        deterministic_block_sum<double>(n, [&](std::size_t v) {
          return out_.degree(static_cast<vid_t>(v)) == 0 ? rank[v] : 0.0;
        });
    const double base =
        (1.0 - params.damping) / n + params.damping * dangling / n;

    // Edge-bound power-law loop: dynamic balances the skewed rows; the
    // 1024-vertex chunk spans whole pages so first-touch placement of
    // next[] still mostly holds (see core/numa_alloc.hpp).
#pragma omp parallel for schedule(dynamic, 1024)
    for (std::int64_t v = 0; v < static_cast<std::int64_t>(n); ++v) {
      const eid_t lo = offs[static_cast<std::size_t>(v)];
      const eid_t hi = offs[static_cast<std::size_t>(v) + 1];
      double sum = 0.0;
      for (eid_t i = lo; i < hi; ++i) {
        if (i + kPrefetchDistance < hi) {
          prefetch_read(&contrib[cols[i + kPrefetchDistance]]);
        }
        sum += contrib[cols[i]];
      }
      next[static_cast<std::size_t>(v)] = base + params.damping * sum;
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

// ---------------------------------------------------------------------
// Shiloach–Vishkin connected components with min-hooking.
// ---------------------------------------------------------------------

WccResult GapSystem::do_wcc() {
  const vid_t n = out_.num_vertices();
  WccResult r;
  // First-touch working array (resize() on the result vector would
  // zero-fill serially); comp[v] = v written by the static loop below.
  FirstTouchVector<vid_t> comp(n);
#pragma omp parallel for schedule(static)
  for (std::int64_t v = 0; v < static_cast<std::int64_t>(n); ++v) {
    comp[static_cast<std::size_t>(v)] = static_cast<vid_t>(v);
  }
  std::uint64_t edge_work = 0;

  // Snapshot state: the component array is the whole fixpoint state —
  // restoring it reproduces the remaining hook-and-shortcut rounds.
  std::uint64_t round = 0;
  KernelRun run(*this, "wcc", [&](StateFields& f) {
    f.per_vertex(comp);
    f.u64(round);
    f.u64(edge_work);
  });
  run.watch_edges(&edge_work);
  round = run.resumed();

  bool changed = true;
  while (changed) {
    run.iteration(round, n);  // hook-and-shortcut round boundary
    changed = false;
#pragma omp parallel for schedule(dynamic, 1024) reduction(|| : changed)
    for (std::int64_t u = 0; u < static_cast<std::int64_t>(n); ++u) {
      for (const vid_t v : out_.neighbors(static_cast<vid_t>(u))) {
        const vid_t cu = comp[u], cv = comp[v];
        if (cu < cv && cv == comp[cv]) {
          comp[cv] = cu;  // hook higher root under lower id
          changed = true;
        } else if (cv < cu && cu == comp[cu]) {
          comp[cu] = cv;
          changed = true;
        }
      }
    }
    edge_work += out_.num_edges();
    // Pointer jumping (shortcutting).
#pragma omp parallel for schedule(static)
    for (std::int64_t v = 0; v < static_cast<std::int64_t>(n); ++v) {
      while (comp[v] != comp[comp[v]]) comp[v] = comp[comp[v]];
    }
    ++round;
  }
  run.finish();
  r.component.assign(comp.begin(), comp.end());
  work_.edges_processed = edge_work;
  work_.vertex_updates = n;
  work_.bytes_touched = edge_work * sizeof(vid_t);
  return r;
}

// ---------------------------------------------------------------------
// Triangle counting (GAP's tc): intersect sorted higher-id neighbor
// lists of the undirected simple view; each triangle found once at its
// smallest vertex.
// ---------------------------------------------------------------------

TriangleCountResult GapSystem::do_tc() {
  const vid_t n = out_.num_vertices();
  std::vector<std::vector<vid_t>> higher(n);
#pragma omp parallel for schedule(dynamic, 512)
  for (std::int64_t vi = 0; vi < static_cast<std::int64_t>(n); ++vi) {
    const auto v = static_cast<vid_t>(vi);
    std::vector<vid_t> nbrs;
    const auto o = out_.neighbors(v);
    const auto i = in().neighbors(v);
    nbrs.reserve(o.size() + i.size());
    std::merge(o.begin(), o.end(), i.begin(), i.end(),
               std::back_inserter(nbrs));
    nbrs.erase(std::unique(nbrs.begin(), nbrs.end()), nbrs.end());
    for (const vid_t u : nbrs) {
      if (u > v) higher[vi].push_back(u);
    }
  }

  std::uint64_t count = 0;
  std::uint64_t scanned = 0;
#pragma omp parallel for schedule(dynamic, 256) \
    reduction(+ : count, scanned)
  for (std::int64_t vi = 0; vi < static_cast<std::int64_t>(n); ++vi) {
    for (const vid_t a : higher[static_cast<std::size_t>(vi)]) {
      const auto& hv = higher[static_cast<std::size_t>(vi)];
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
// Betweenness centrality (GAP's bc): Brandes with a level-synchronous
// forward phase and a per-level backward sweep.
// ---------------------------------------------------------------------

BcResult GapSystem::do_bc(vid_t source) {
  const vid_t n = out_.num_vertices();
  BcResult r;
  r.source = source;
  r.dependency.assign(n, 0.0);

  std::vector<double> sigma(n, 0.0);
  std::vector<vid_t> level(n, kNoVertex);
  std::vector<std::vector<vid_t>> levels;  // vertices per depth
  sigma[source] = 1.0;
  level[source] = 0;
  levels.push_back({source});
  std::uint64_t scanned = 0;

  // Snapshot state for the forward phase: path counts, per-vertex depth,
  // the level sets discovered so far, and the scan counter. The backward
  // sweep is derived wholly from these.
  KernelRun run(*this, "bc", [&](StateFields& f) {
    f.per_vertex(sigma);
    f.per_vertex(level);
    f.list(levels);
    f.u64(scanned);
  });
  run.watch_edges(&scanned);
  std::uint64_t round = run.resumed();

  // Forward: discover next level, then accumulate sigma level-
  // synchronously (sigma writes race-free because each v at depth d is
  // summed from all depth d-1 in-neighbors in its own iteration).
  while (!levels.back().empty()) {
    run.iteration(round, levels.back().size());  // forward-level boundary
    const auto& frontier = levels.back();
    const vid_t depth = static_cast<vid_t>(levels.size());
    std::vector<vid_t> next;
    for (const vid_t u : frontier) {
      for (const vid_t v : out_.neighbors(u)) {
        ++scanned;
        if (level[v] == kNoVertex) {
          level[v] = depth;
          next.push_back(v);
        }
      }
    }
#pragma omp parallel for schedule(dynamic, 256)
    for (std::int64_t i = 0; i < static_cast<std::int64_t>(next.size());
         ++i) {
      const vid_t v = next[static_cast<std::size_t>(i)];
      double s = 0.0;
      for (const vid_t u : in().neighbors(v)) {
        if (level[u] != kNoVertex && level[u] + 1 == depth) s += sigma[u];
      }
      sigma[v] = s;
    }
    if (next.empty()) break;
    levels.push_back(std::move(next));
    ++round;
  }
  run.finish();

  // Backward: process levels deepest-first; vertices within a level are
  // independent (dependencies only flow from deeper levels).
  for (auto lit = levels.rbegin(); lit != levels.rend(); ++lit) {
#pragma omp parallel for schedule(dynamic, 256)
    for (std::int64_t i = 0; i < static_cast<std::int64_t>(lit->size());
         ++i) {
      const vid_t v = (*lit)[static_cast<std::size_t>(i)];
      double dep = 0.0;
      for (const vid_t w : out_.neighbors(v)) {
        if (level[w] != kNoVertex && level[w] == level[v] + 1) {
          dep += sigma[v] / sigma[w] * (1.0 + r.dependency[w]);
        }
      }
      r.dependency[v] = dep;
    }
  }
  work_.edges_processed = scanned * 2;
  work_.vertex_updates = n;
  work_.bytes_touched = scanned * (sizeof(vid_t) + sizeof(double));
  return r;
}

}  // namespace epgs::systems

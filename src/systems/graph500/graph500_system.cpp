#include "systems/graph500/graph500_system.hpp"

#include <atomic>

#include "core/bitmap.hpp"
#include "core/frontier.hpp"
#include "core/numa_alloc.hpp"
#include "core/parallel.hpp"
#include "core/prefetch.hpp"
#include "systems/common/kernel_run.hpp"

namespace epgs::systems {

void Graph500System::do_build(const EdgeList& edges) {
  // Kernel 1: unsorted edge list in RAM -> CSR.
  csr_ = CSRGraph::from_edges(edges);
  work_.bytes_touched = csr_.bytes();
}

BfsResult Graph500System::do_bfs(vid_t root) {
  // Kernel 2: level-synchronous top-down BFS. Unlike GAP there is no
  // bottom-up phase — every frontier vertex scans its full adjacency and
  // claims children via CAS, which is why the paper measures Graph500 a
  // touch behind GAP on the low-diameter Kronecker graphs.
  const vid_t n = csr_.num_vertices();
  BfsResult r;
  r.root = root;
  r.parent.assign(n, kNoVertex);

  // First-touch parallel fill (see core/numa_alloc.hpp).
  NumaArray<std::atomic<vid_t>> parent(n, kNoVertex);
  parent[root].store(root, std::memory_order_relaxed);

  Bitmap visited(n);
  visited.set(root);

  // CAS claims each vertex exactly once, so num_vertices bounds the
  // queue's lifetime appends.
  SlidingQueue<vid_t> queue(static_cast<std::size_t>(n));
  queue.push_back(root);
  queue.slide_window();
  std::uint64_t edges_scanned = 0;

  // Snapshot state: parent claims, the visited set (as a vertex list —
  // bitmap words are not part of the format), the current frontier, and
  // the scan counter.
  KernelRun run(*this, "bfs", [&](StateFields& f) {
    f.per_vertex(parent);
    bitmap_field(f, visited);
    f.list(
        [&] {
          return std::vector<vid_t>(queue.begin(),
                                    queue.begin() + queue.size());
        },
        [&](const std::vector<vid_t>& frontier) {
          queue.reset();  // zeroes the lifetime-append counter too
          for (const vid_t v : frontier) queue.push_back(v);
          queue.slide_window();
        });
    f.u64(edges_scanned);
  });
  run.watch_edges(&edges_scanned);
  std::uint64_t level = run.resumed();

  while (!queue.empty()) {
    // K2 frontier-level boundary (snapshot point).
    run.iteration(level, queue.size());
#pragma omp parallel
    {
      LocalBuffer<vid_t> next(queue);
      std::uint64_t scanned = 0;
#pragma omp for schedule(dynamic, 64) nowait
      for (std::int64_t i = 0;
           i < static_cast<std::int64_t>(queue.size()); ++i) {
        const vid_t u = queue.begin()[i];
        const auto nbrs = csr_.neighbors(u);
        for (std::size_t e = 0; e < nbrs.size(); ++e) {
          // Prefetch the CAS target ahead; the visited-bitmap probe for
          // the same vertex rides on the adjacent line often enough
          // that one hint covers the scan's random traffic.
          if (e + kPrefetchDistance < nbrs.size()) {
            prefetch_write(&parent[nbrs[e + kPrefetchDistance]]);
          }
          const vid_t v = nbrs[e];
          ++scanned;
          if (visited.test(v)) continue;  // cheap pre-check
          vid_t expected = kNoVertex;
          if (parent[v].compare_exchange_strong(expected, u,
                                                std::memory_order_relaxed)) {
            visited.set_atomic(v);
            next.push_back(v);
          }
        }
      }
      next.flush();
#pragma omp atomic
      edges_scanned += scanned;
    }
    queue.slide_window();
    ++level;
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

}  // namespace epgs::systems

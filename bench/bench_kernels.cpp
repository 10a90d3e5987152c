// Kernel-level microbenchmarks and ablations (google-benchmark).
//
// These back the design discussion in DESIGN.md rather than a specific
// paper table: direction-optimizing vs pure top-down BFS (why GAP beats
// Graph500), delta-stepping bucket width, the vertex-cut partitioner's
// cost/quality, DCSR construction, and the harness's parsing layers.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <numeric>
#include <ostream>
#include <random>
#include <sstream>

#include "core/cancellation.hpp"
#include "core/frontier.hpp"
#include "core/parallel.hpp"
#include "core/phase_log.hpp"
#include "systems/common/kernel_run.hpp"
#include "gen/kronecker.hpp"
#include "graph/csr.hpp"
#include "graph/snap_io.hpp"
#include "graph/transforms.hpp"
#include "systems/gap/gap_system.hpp"
#include "systems/graph500/graph500_system.hpp"
#include "systems/graphbig/graphbig_system.hpp"
#include "systems/graphmat/dcsr.hpp"
#include "systems/graphmat/graphmat_system.hpp"
#include "systems/ligra/ligra_primitives.hpp"
#include "systems/powergraph/vertex_cut.hpp"

namespace {

using namespace epgs;
using epgs::systems::ligra_detail::edge_map;

EdgeList bench_graph(int scale) {
  gen::KroneckerParams p;
  p.scale = scale;
  p.edgefactor = 8;
  return dedupe(symmetrize(gen::kronecker(p)));
}

void BM_KroneckerGenerate(benchmark::State& state) {
  gen::KroneckerParams p;
  p.scale = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen::kronecker(p));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(p.edgefactor)
                              << p.scale);
}
BENCHMARK(BM_KroneckerGenerate)->Arg(10)->Arg(12)->Arg(14);

// Kernel 1. GAP and Ligra read in-edges from the out-CSR when
// is_own_transpose() says it is its own transpose (the list's claim, or
// CSRGraph::is_symmetric() for a list without one), and take the
// counting transpose only otherwise; GraphMat copies A for A^T when A is
// symmetric. BM_CsrIsSymmetric is the proof a list without a claim pays. BM_CsrBuild is the one-pass build of a deduplicated
// (sorted) list, BM_CsrBuildUnsorted the counting build of the same
// edges shuffled. bench/results_kernels.json archives the deleted
// atomic-scatter build against the serial one.
void BM_CsrBuild(benchmark::State& state) {
  const auto el = bench_graph(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(CSRGraph::from_edges(el));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(el.num_edges()));
}
BENCHMARK(BM_CsrBuild)->Arg(10)->Arg(12);

void BM_CsrBuildUnsorted(benchmark::State& state) {
  auto el = bench_graph(static_cast<int>(state.range(0)));
  std::mt19937_64 rng(7);
  std::shuffle(el.edges.begin(), el.edges.end(), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CSRGraph::from_edges(el));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(el.num_edges()));
}
BENCHMARK(BM_CsrBuildUnsorted)->Arg(10)->Arg(12);

void BM_CsrTranspose(benchmark::State& state) {
  const auto g =
      CSRGraph::from_edges(bench_graph(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.transposed());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_CsrTranspose)->Arg(10)->Arg(12);

void BM_CsrIsSymmetric(benchmark::State& state) {
  const auto g =
      CSRGraph::from_edges(bench_graph(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.is_symmetric());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_CsrIsSymmetric)->Arg(10)->Arg(12);

// Set-up: the radix-sort dedupe of a symmetrized Kronecker edge list
// (each iteration includes one copy of the input, since dedupe takes its
// argument by value), and the chunked to_chars edge-line writer every
// text format shares, into a sink that only counts bytes.
void BM_Dedupe(benchmark::State& state) {
  gen::KroneckerParams p;
  p.scale = static_cast<int>(state.range(0));
  p.edgefactor = 8;
  const auto el = symmetrize(gen::kronecker(p));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dedupe(el));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(el.num_edges()));
}
BENCHMARK(BM_Dedupe)->Arg(10)->Arg(12);

class CountingBuf : public std::streambuf {
 public:
  std::int64_t bytes = 0;

 protected:
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes += n;
    return n;
  }
  int overflow(int ch) override {
    ++bytes;
    return traits_type::not_eof(ch);
  }
};

void BM_WriteEdgeLines(benchmark::State& state) {
  const auto el = with_random_weights(
      bench_graph(static_cast<int>(state.range(0))), 1);
  CountingBuf sink;
  std::ostream os(&sink);
  for (auto _ : state) {
    write_edge_lines(os, el.edges, '\t', /*weighted=*/true);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(el.num_edges()));
  state.SetBytesProcessed(sink.bytes);
}
BENCHMARK(BM_WriteEdgeLines)->Arg(10)->Arg(12);

// Frontier merge isolated from traversal work: every thread produces a
// slice of `range(0)` vertex ids and flushes it through LocalBuffer into
// a SlidingQueue (one fetch-add per 1024-element flush).
// bench/results_kernels.json archives the `#pragma omp critical`
// concatenation this replaced.
void BM_FrontierMergeSlidingQueue(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ThreadScope threads(static_cast<int>(state.range(1)));
  for (auto _ : state) {
    SlidingQueue<vid_t> queue(n);
#pragma omp parallel
    {
      LocalBuffer<vid_t> local(queue);
#pragma omp for schedule(dynamic, 64) nowait
      for (std::int64_t i = 0; i < static_cast<std::int64_t>(n); ++i) {
        local.push_back(static_cast<vid_t>(i));
      }
    }
    queue.slide_window();
    benchmark::DoNotOptimize(queue);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FrontierMergeSlidingQueue)
    ->Args({1 << 20, 1})
    ->Args({1 << 20, 8});

// Exclusive prefix sum old vs new over a degree-array-sized input.
void BM_PrefixSumSerial(benchmark::State& state) {
  std::vector<eid_t> in(static_cast<std::size_t>(state.range(0)), 3);
  std::vector<eid_t> out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(exclusive_prefix_sum(in, out));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(in.size()));
}
BENCHMARK(BM_PrefixSumSerial)->Arg(1 << 22);

void BM_PrefixSumParallel(benchmark::State& state) {
  std::vector<eid_t> in(static_cast<std::size_t>(state.range(0)), 3);
  std::vector<eid_t> out;
  ThreadScope threads(static_cast<int>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(parallel_exclusive_prefix_sum(in, out));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(in.size()));
}
BENCHMARK(BM_PrefixSumParallel)
    ->Args({1 << 22, 1})
    ->Args({1 << 22, 8});

// Bitmap -> queue compaction (the bottom-up -> top-down switch in GAP's
// BFS and the GAS engine's active-set extraction): serial scan vs the
// popcount/prefix-sum pack.
void BM_BitmapCompactSerial(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Bitmap bm(n);
  for (std::size_t i = 0; i < n; i += 3) bm.set(i);
  for (auto _ : state) {
    std::vector<vid_t> out;
    for (std::size_t v = 0; v < n; ++v) {
      if (bm.test(v)) out.push_back(static_cast<vid_t>(v));
    }
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_BitmapCompactSerial)->Arg(1 << 22);

void BM_BitmapCompactParallel(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Bitmap bm(n);
  for (std::size_t i = 0; i < n; i += 3) bm.set(i);
  ThreadScope threads(static_cast<int>(state.range(1)));
  for (auto _ : state) {
    SlidingQueue<vid_t> queue(bm.count());
    bitmap_to_queue(bm, queue);
    queue.slide_window();
    benchmark::DoNotOptimize(queue);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_BitmapCompactParallel)
    ->Args({1 << 22, 1})
    ->Args({1 << 22, 8});

// GraphMat's A^T as its build makes it: the out-CSR, then a copy of it
// when it is symmetric (as this graph claims) or else its counting
// transpose, with the arrays moved into the DCSR.
void BM_DcsrBuild(benchmark::State& state) {
  const auto el = bench_graph(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    const CSRGraph out = CSRGraph::from_edges(el);
    benchmark::DoNotOptimize(systems::graphmat_detail::DCSR::from_csr(
        is_own_transpose(el, out) ? CSRGraph(out) : out.transposed()));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(el.num_edges()));
}
BENCHMARK(BM_DcsrBuild)->Arg(10)->Arg(12);

// Ablation: GAP's direction-optimizing BFS vs. the same code forced into
// pure top-down (alpha = infinity disables the bottom-up switch).
void BM_BfsDirectionOptimizing(benchmark::State& state) {
  systems::GapSystem sys;
  sys.set_edges(bench_graph(static_cast<int>(state.range(0))));
  sys.build();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sys.bfs(1));
  }
}
BENCHMARK(BM_BfsDirectionOptimizing)->Arg(12)->Arg(14);

void BM_BfsTopDownOnly(benchmark::State& state) {
  systems::GapSystem::Options opts;
  opts.alpha = 1e18;  // never switch bottom-up
  systems::GapSystem sys(opts);
  sys.set_edges(bench_graph(static_cast<int>(state.range(0))));
  sys.build();
  ThreadScope threads(static_cast<int>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sys.bfs(1));
  }
}
// Thread sweep: pure top-down BFS is all frontier expansion + merge, so
// this curve is the end-to-end view of the sliding-queue migration.
BENCHMARK(BM_BfsTopDownOnly)
    ->Args({12, 1})
    ->Args({12, 2})
    ->Args({12, 4})
    ->Args({12, 8})
    ->Args({14, 8});

void BM_BfsGraph500(benchmark::State& state) {
  systems::Graph500System sys;
  sys.set_edges(bench_graph(static_cast<int>(state.range(0))));
  sys.build();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sys.bfs(1));
  }
}
BENCHMARK(BM_BfsGraph500)->Arg(12)->Arg(14);

// Ablation: delta-stepping bucket width on a weighted Kronecker graph.
void BM_SsspDelta(benchmark::State& state) {
  systems::GapSystem::Options opts;
  opts.delta = static_cast<weight_t>(state.range(1));
  systems::GapSystem sys(opts);
  sys.set_edges(with_random_weights(
      bench_graph(static_cast<int>(state.range(0))), 5, 255));
  sys.build();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sys.sssp(1));
  }
}
BENCHMARK(BM_SsspDelta)
    ->Args({12, 1})
    ->Args({12, 8})
    ->Args({12, 64})
    ->Args({12, 512});

// Ablation: greedy vertex-cut quality/cost across partition counts.
void BM_VertexCutPartition(benchmark::State& state) {
  const auto el = bench_graph(12);
  const int parts = static_cast<int>(state.range(0));
  double rf = 0.0;
  for (auto _ : state) {
    const auto vc =
        systems::powergraph_detail::VertexCut::build(el, parts);
    rf = vc.replication_factor();
    benchmark::DoNotOptimize(vc);
  }
  state.counters["replication_factor"] = rf;
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(el.num_edges()));
}
BENCHMARK(BM_VertexCutPartition)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

// Ligra edgeMap: sparse push from a single vertex vs dense pull from a
// saturating frontier.
void BM_LigraEdgeMapDense(benchmark::State& state) {
  const auto el = bench_graph(static_cast<int>(state.range(0)));
  const auto out = CSRGraph::from_edges(el);
  const auto in = CSRGraph::from_edges(el).transposed();

  struct NopF {
    bool cond(vid_t) const { return true; }
    bool update(vid_t, vid_t, weight_t) const { return false; }
    bool update_atomic(vid_t, vid_t, weight_t) const { return false; }
  };
  const auto frontier =
      systems::ligra_detail::VertexSubset::all(out.num_vertices());
  for (auto _ : state) {
    std::uint64_t examined = 0;
    benchmark::DoNotOptimize(
        edge_map(out, in, frontier, NopF{}, examined));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(out.num_edges()));
}
BENCHMARK(BM_LigraEdgeMapDense)->Arg(12);

// ---------------------------------------------------------------------
// PageRank, one kernel per system: GAP's pull over the in-CSR, GraphMat's
// SpMV gather over the DCSR, GraphBIG's propagation-blocked push over its
// AoS store. Fixed iteration count (epsilon = 0 never converges early) so
// every run does identical algorithmic work. bench/results_kernels.json
// archives the retired variants (the pre-overhaul kernels and blocked
// GAP/GraphMat) against these.
// ---------------------------------------------------------------------

template <typename System>
void run_pagerank_bench(benchmark::State& state) {
  const auto el = bench_graph(static_cast<int>(state.range(0)));
  ThreadScope threads(static_cast<int>(state.range(1)));
  System sys;
  sys.set_edges(el);
  sys.build();
  PageRankParams params;
  params.epsilon = 0.0;  // fixed work: always run max_iterations
  params.max_iterations = 20;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sys.pagerank(params));
  }
  state.SetItemsProcessed(state.iterations() * params.max_iterations *
                          static_cast<std::int64_t>(el.num_edges()));
}

void BM_PageRankGapPull(benchmark::State& state) {
  run_pagerank_bench<systems::GapSystem>(state);
}
BENCHMARK(BM_PageRankGapPull)->Args({14, 1})->Args({14, 8});

void BM_PageRankGraphMatPull(benchmark::State& state) {
  run_pagerank_bench<systems::GraphMatSystem>(state);
}
BENCHMARK(BM_PageRankGraphMatPull)->Args({14, 1})->Args({14, 8});

void BM_PageRankGraphBigBlocked(benchmark::State& state) {
  run_pagerank_bench<systems::GraphBigSystem>(state);
}
BENCHMARK(BM_PageRankGraphBigBlocked)->Args({14, 1})->Args({14, 8});

// GAP BFS with its software prefetch hints (results_kernels.json
// archives the same kernel with the hints off).
void BM_GapBfsPrefetch(benchmark::State& state) {
  const auto el = bench_graph(static_cast<int>(state.range(0)));
  ThreadScope threads(static_cast<int>(state.range(1)));
  systems::GapSystem sys;
  sys.set_edges(el);
  sys.build();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sys.bfs(1));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(el.num_edges()));
}
BENCHMARK(BM_GapBfsPrefetch)->Args({14, 8});

// ---------------------------------------------------------------------
// KernelRun scope A/B: the shared runtime's per-iteration-boundary cost
// (telemetry row close/open + checkpoint-cadence tick + cancellation
// poll) against the bare token poll the adapters used to hand-roll at
// the same boundary. Per-boundary cost = cpu_time / items_per_second
// denominator; the committed baseline makes growth in the scope's
// fixed overhead visible in the perf smoke.
// ---------------------------------------------------------------------

constexpr int kBoundaries = 1 << 12;

void BM_IterBoundaryHandRolled(benchmark::State& state) {
  CancellationToken token;
  const CancellationToken* cancel = &token;
  for (auto _ : state) {
    std::uint64_t edges = 0;
    for (int i = 0; i < kBoundaries; ++i) {
      cancel->checkpoint();  // the old per-iteration orchestration
      edges += 7;            // stand-in kernel work
      benchmark::DoNotOptimize(edges);
    }
  }
  state.SetItemsProcessed(state.iterations() * kBoundaries);
}
BENCHMARK(BM_IterBoundaryHandRolled);

void BM_IterBoundaryKernelRun(benchmark::State& state) {
  systems::GapSystem sys;
  sys.set_edges(bench_graph(6));
  sys.build();
  CancellationToken token;
  sys.set_cancellation(&token);
  for (auto _ : state) {
    std::uint64_t edges = 0;
    KernelRun run(sys, "bench");
    run.watch_edges(&edges);
    for (int i = 0; i < kBoundaries; ++i) {
      run.iteration(static_cast<std::uint64_t>(i), 0);
      edges += 7;
      benchmark::DoNotOptimize(edges);
    }
    run.finish();
  }
  state.SetItemsProcessed(state.iterations() * kBoundaries);
}
BENCHMARK(BM_IterBoundaryKernelRun);

void BM_SnapParse(benchmark::State& state) {
  std::ostringstream os;
  write_snap(os, bench_graph(10));
  const std::string text = os.str();
  for (auto _ : state) {
    benchmark::DoNotOptimize(parse_snap(text));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_SnapParse);

void BM_PhaseLogRoundTrip(benchmark::State& state) {
  PhaseLog log;
  for (int i = 0; i < 64; ++i) {
    log.add("run algorithm", 0.001 * i,
            WorkStats{.edges_processed = 1000u * i},
            {{"alg", "bfs"}, {"iterations", "3"}});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(PhaseLog::parse_log_text(log.to_log_text()));
  }
}
BENCHMARK(BM_PhaseLogRoundTrip);

}  // namespace

BENCHMARK_MAIN();

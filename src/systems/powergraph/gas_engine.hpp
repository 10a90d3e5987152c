// PowerGraph's synchronous Gather-Apply-Scatter engine.
//
// Vertex state lives at each vertex's *master* replica; before every
// superstep the engine broadcasts master state to all mirror replicas
// (the communication PowerGraph pays for its vertex-cut), then each
// partition gathers over its local edges into partial accumulators, the
// master merges partials and applies, and scatter signals neighbours of
// changed vertices for the next superstep. The per-superstep broadcast,
// partial gathers and master merge are the fixed overhead that makes
// PowerGraph the slowest system on the paper's small graphs while its
// partitioning wins on dense, high-degree inputs. Like PowerGraph, which
// maps global ids to local ones only at ingress, the engine addresses
// every replica by its local vertex id: a replica table built with the
// local graphs lists each vertex's (partition, local id) pairs.
//
// A Program must define:
//   using VData  = ...;   // per-vertex state
//   using Gather = ...;   // accumulator
//   static constexpr bool gather_both  = ...;  // gather over in+out edges?
//   static constexpr bool scatter_both = ...;  // signal along both dirs?
//   Gather gather_init() const;
//   void gather(const VData& neighbor, weight_t w, Gather& acc) const;
//   void combine(Gather& into, const Gather& partial) const;
//   bool apply(VData& v, const Gather& acc, bool any_gather) const;
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/bitmap.hpp"
#include "core/frontier.hpp"
#include "core/parallel.hpp"
#include "systems/powergraph/vertex_cut.hpp"

namespace epgs::systems::powergraph_detail {

struct EngineCounters {
  std::uint64_t gather_edges = 0;
  std::uint64_t scatter_signals = 0;
  std::uint64_t sync_copies = 0;
  int supersteps = 0;
};

/// One replica of a vertex: the partition holding it and its local id
/// there.
struct Replica {
  std::uint8_t part;
  vid_t lid;
};

template <typename Program>
class GasEngine {
 public:
  using VData = typename Program::VData;
  using Gather = typename Program::Gather;

  GasEngine(const VertexCut& vc, Program prog)
      : vc_(vc), prog_(std::move(prog)), master_(vc.num_vertices()) {
    build_local_graphs();
  }

  [[nodiscard]] std::vector<VData>& data() { return master_; }
  [[nodiscard]] Program& program() { return prog_; }
  [[nodiscard]] const EngineCounters& counters() const { return counters_; }
  /// Mutable counter access, so a checkpoint restore can reinstate the
  /// work totals accumulated before the trial was killed.
  [[nodiscard]] EngineCounters& counters() { return counters_; }

  /// One synchronous superstep over `active` (no vertex twice); returns
  /// the next active set (deduplicated, sorted).
  std::vector<vid_t> superstep(const std::vector<vid_t>& active) {
    const vid_t n = vc_.num_vertices();
    const int np = vc_.num_partitions();

    // 1. Master -> mirror broadcast.
#pragma omp parallel for schedule(dynamic, 1)
    for (int p = 0; p < np; ++p) {
      auto& lg = locals_[static_cast<std::size_t>(p)];
      for (std::size_t i = 0; i < lg.vertices.size(); ++i) {
        lg.mirror[i] = master_[lg.vertices[i]];
      }
    }
    std::uint64_t syncs = 0;
    for (int p = 0; p < np; ++p) syncs += locals_[p].vertices.size();
    counters_.sync_copies += syncs;

    // 2. Per-partition gather into partial accumulators.
    std::uint64_t gathered = 0;
#pragma omp parallel for schedule(dynamic, 1) reduction(+ : gathered)
    for (int p = 0; p < np; ++p) {
      auto& lg = locals_[static_cast<std::size_t>(p)];
      const auto nl = static_cast<vid_t>(lg.vertices.size());
      lg.acc.assign(nl, prog_.gather_init());
      lg.any.assign(nl, 0);
      // Gather into a local and mark any[] once per vertex: a byte store
      // inside the edge loop may alias every array it reads.
      const auto gather_at = [&](vid_t lv) {
        Gather acc = std::move(lg.acc[lv]);
        eid_t edges = lg.in_offsets[lv + 1] - lg.in_offsets[lv];
        for (eid_t e = lg.in_offsets[lv]; e < lg.in_offsets[lv + 1]; ++e) {
          prog_.gather(lg.mirror[lg.in_src[e]], lg.in_w[e], acc);
        }
        if constexpr (Program::gather_both) {
          edges += lg.out_offsets[lv + 1] - lg.out_offsets[lv];
          for (eid_t e = lg.out_offsets[lv]; e < lg.out_offsets[lv + 1];
               ++e) {
            prog_.gather(lg.mirror[lg.out_dst[e]], lg.out_w[e], acc);
          }
        }
        lg.acc[lv] = std::move(acc);
        if (edges > 0) lg.any[lv] = 1;
        gathered += edges;
      };
      if (active.size() == n) {
        // Every vertex is active, so every local vertex is.
        for (vid_t lv = 0; lv < nl; ++lv) gather_at(lv);
      } else {
        for (const vid_t gv : active) {
          const vid_t lv = local_id(gv, p);
          if (lv != kNoVertex) gather_at(lv);
        }
      }
    }
    counters_.gather_edges += gathered;

    // 3. Merge partials at the master and apply. Each active vertex is
    // applied exactly once, so active.size() bounds the changed set and
    // per-thread LocalBuffers can flush into a shared queue lock-free.
    SlidingQueue<vid_t> changed_q(active.size());
#pragma omp parallel
    {
      LocalBuffer<vid_t> local_changed(changed_q);
#pragma omp for schedule(dynamic, 64) nowait
      for (std::int64_t i = 0; i < static_cast<std::int64_t>(active.size());
           ++i) {
        const vid_t gv = active[static_cast<std::size_t>(i)];
        Gather merged = prog_.gather_init();
        bool any = false;
        for (const Replica& r : replicas(gv)) {
          const auto& lg = locals_[r.part];
          if (lg.any[r.lid]) {
            prog_.combine(merged, lg.acc[r.lid]);
            any = true;
          }
        }
        if (prog_.apply(master_[gv], merged, any)) {
          local_changed.push_back(gv);
        }
      }
    }
    const std::vector<vid_t> changed = changed_q.take_appended();

    // 4. Scatter: signal neighbours of changed vertices.
    Bitmap signalled(n);
    std::uint64_t signals = 0;
#pragma omp parallel for schedule(dynamic, 1) reduction(+ : signals)
    for (int p = 0; p < np; ++p) {
      auto& lg = locals_[static_cast<std::size_t>(p)];
      for (const vid_t gv : changed) {
        const vid_t lv = local_id(gv, p);
        if (lv == kNoVertex) continue;
        for (eid_t e = lg.out_offsets[lv]; e < lg.out_offsets[lv + 1]; ++e) {
          signalled.set_atomic(lg.vertices[lg.out_dst[e]]);
          ++signals;
        }
        if constexpr (Program::scatter_both) {
          for (eid_t e = lg.in_offsets[lv]; e < lg.in_offsets[lv + 1]; ++e) {
            signalled.set_atomic(lg.vertices[lg.in_src[e]]);
            ++signals;
          }
        }
      }
    }
    counters_.scatter_signals += signals;
    ++counters_.supersteps;

    // Parallel bitmap -> sorted active-list compaction.
    SlidingQueue<vid_t> next(signalled.count());
    bitmap_to_queue(signalled, next);
    return next.take_appended();
  }

  /// Scatter-only pass: signal the neighbours of `changed` without
  /// gathering or applying. Used to seed algorithms whose source vertex
  /// has nothing to gather (e.g. the SSSP root).
  [[nodiscard]] std::vector<vid_t> scatter_from(
      const std::vector<vid_t>& changed) {
    const vid_t n = vc_.num_vertices();
    Bitmap signalled(n);
    std::uint64_t signals = 0;
    for (int p = 0; p < vc_.num_partitions(); ++p) {
      auto& lg = locals_[static_cast<std::size_t>(p)];
      for (const vid_t gv : changed) {
        const vid_t lv = local_id(gv, p);
        if (lv == kNoVertex) continue;
        for (eid_t e = lg.out_offsets[lv]; e < lg.out_offsets[lv + 1]; ++e) {
          signalled.set_atomic(lg.vertices[lg.out_dst[e]]);
          ++signals;
        }
        if constexpr (Program::scatter_both) {
          for (eid_t e = lg.in_offsets[lv]; e < lg.in_offsets[lv + 1]; ++e) {
            signalled.set_atomic(lg.vertices[lg.in_src[e]]);
            ++signals;
          }
        }
      }
    }
    counters_.scatter_signals += signals;
    SlidingQueue<vid_t> next(signalled.count());
    bitmap_to_queue(signalled, next);
    return next.take_appended();
  }

  /// All vertices, for algorithms that activate everything each round.
  [[nodiscard]] std::vector<vid_t> all_vertices() const {
    std::vector<vid_t> v(vc_.num_vertices());
    for (vid_t i = 0; i < vc_.num_vertices(); ++i) v[i] = i;
    return v;
  }

  /// Vertex gv's replicas in VertexCut::replicas_of order, master first;
  /// empty for an isolated vertex.
  [[nodiscard]] std::span<const Replica> replicas(vid_t gv) const {
    return std::span<const Replica>(rep_).subspan(
        rep_begin_[gv], rep_begin_[gv + 1] - rep_begin_[gv]);
  }

  /// Global ids of partition p's local vertices, indexed by local id.
  [[nodiscard]] const std::vector<vid_t>& local_vertices(int p) const {
    return locals_[static_cast<std::size_t>(p)].vertices;
  }

 private:
  /// Partition-local adjacency with local vertex ids.
  struct LocalGraph {
    std::vector<vid_t> vertices;  // global ids present on this partition
    std::vector<eid_t> in_offsets, out_offsets;
    std::vector<vid_t> in_src, out_dst;  // local ids
    std::vector<weight_t> in_w, out_w;
    std::vector<VData> mirror;
    std::vector<Gather> acc;
    std::vector<std::uint8_t> any;
  };

  /// gv's local id on partition p, or kNoVertex when p holds no replica
  /// of gv: a scan of at most num_partitions() entries.
  [[nodiscard]] vid_t local_id(vid_t gv, int p) const {
    for (const Replica& r : replicas(gv)) {
      if (r.part == p) return r.lid;
    }
    return kNoVertex;
  }

  void build_local_graphs() {
    const vid_t n = vc_.num_vertices();
    const int np = vc_.num_partitions();
    locals_.resize(static_cast<std::size_t>(np));

    // The replica table. Local ids follow ascending *global* id, so
    // vertex v's local id on partition p is the number of vertices below
    // v replicated on p, and one pass in global order assigns them all.
    // Local id order never changes results (per-vertex gather order is
    // edge order and master merge order is replica order, both
    // id-independent) — it only fixes the memory layout. Ascending ids
    // make the master -> mirror broadcast read master_[] monotonically,
    // so each cache block of master state is consumed whole.
    rep_begin_.resize(static_cast<std::size_t>(n) + 1);
    rep_begin_[0] = 0;
    for (vid_t v = 0; v < n; ++v) {
      rep_begin_[v + 1] = rep_begin_[v] + vc_.replicas_of(v).size();
    }
    rep_.resize(rep_begin_[n]);
    for (vid_t v = 0; v < n; ++v) {
      Replica* r = rep_.data() + rep_begin_[v];
      for (const std::uint8_t p : vc_.replicas_of(v)) {
        auto& vertices = locals_[p].vertices;
        *r++ = Replica{p, static_cast<vid_t>(vertices.size())};
        vertices.push_back(v);
      }
    }

    // Partitions are independent, so their local CSR builds run in
    // parallel; dynamic rides out the skew in partition edge counts.
#pragma omp parallel for schedule(dynamic, 1)
    for (int p = 0; p < np; ++p) {
      auto& lg = locals_[static_cast<std::size_t>(p)];
      const auto& edges = vc_.edges_of(p);
      const auto nl = static_cast<vid_t>(lg.vertices.size());
      lg.mirror.resize(nl);

      std::vector<eid_t> in_count(nl, 0), out_count(nl, 0);
      for (const auto& e : edges) {
        ++out_count[local_id(e.src, p)];
        ++in_count[local_id(e.dst, p)];
      }
      parallel_exclusive_prefix_sum(in_count, lg.in_offsets);
      parallel_exclusive_prefix_sum(out_count, lg.out_offsets);
      lg.in_src.resize(edges.size());
      lg.in_w.resize(edges.size());
      lg.out_dst.resize(edges.size());
      lg.out_w.resize(edges.size());
      std::vector<eid_t> ic(lg.in_offsets.begin(), lg.in_offsets.end() - 1);
      std::vector<eid_t> oc(lg.out_offsets.begin(),
                            lg.out_offsets.end() - 1);
      for (const auto& e : edges) {
        const vid_t ls = local_id(e.src, p), ld = local_id(e.dst, p);
        lg.in_src[ic[ld]] = ls;
        lg.in_w[ic[ld]++] = e.w;
        lg.out_dst[oc[ls]] = ld;
        lg.out_w[oc[ls]++] = e.w;
      }
    }
  }

  const VertexCut& vc_;
  Program prog_;
  std::vector<VData> master_;
  std::vector<LocalGraph> locals_;
  std::vector<Replica> rep_;      // every vertex's replicas, by vertex
  std::vector<eid_t> rep_begin_;  // v's are rep_[rep_begin_[v], [v + 1])
  EngineCounters counters_;
};

}  // namespace epgs::systems::powergraph_detail

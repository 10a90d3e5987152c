// GraphMat's vertex-program engine: generalized SpMSpV over a semiring.
//
// A GraphMat program is map/reduce over the adjacency matrix A (rows are
// sources, so a row of A is a column of GraphMat's A^T):
//   send_message   : active vertex u        -> message x[u]
//   process+reduce : (x[u], A[u][v])        -> accumulator y[v]
//   apply          : y[v], state[v]         -> new state (may activate v)
//
// The message vector x is sparse. As in GraphMat (Sundaram et al., VLDB
// 2015), the destination range is cut into 64-aligned tiles, one per
// thread. Each epoch every tile walks every compressed row of A and tests
// the row's source against the active bitvector once; only for an active
// source does it walk that row's nonzeros, and only those inside its own
// range. The dense scan is therefore per column of A^T, not per edge: an
// epoch costs T * num_rows bit tests plus the active sources' out-edges.
// A tile then applies over the destinations it touched. It owns their
// accumulator slots and bitmap words outright, so no write is atomic.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/bitmap.hpp"
#include "core/parallel.hpp"
#include "core/prefetch.hpp"
#include "systems/graphmat/dcsr.hpp"

namespace epgs::systems::graphmat_detail {

/// Engine counters. Passed in/out so an adapter that restored them from
/// a snapshot resumes the epoch loop where the snapshot left off.
struct EngineResult {
  int iterations = 0;
  std::uint64_t edges_scanned = 0;
};

/// The destination tiles of one run: tile t owns vertices [t * width,
/// min(n, (t + 1) * width)) and, since width is a multiple of 64, whole
/// bitmap words. With more than one tile, cuts holds where each row of A
/// crosses each interior tile boundary, found once per run: row r's
/// segment in tile t is [cut(t, r), cut(t + 1, r)) of its columns.
class Tiles {
 public:
  Tiles(const DCSR& a, int max_tiles)
      : n_(a.num_vertices()), rows_(a.num_rows()) {
    const auto want = static_cast<std::size_t>(std::max(1, max_tiles));
    const std::size_t share = (n_ + want - 1) / want;
    width_ = std::max<std::size_t>(64, (share + 63) / 64 * 64);
    count_ = std::max<std::size_t>(1, (n_ + width_ - 1) / width_);
    cuts_.resize((count_ - 1) * rows_);
  }

  [[nodiscard]] int count() const { return static_cast<int>(count_); }
  [[nodiscard]] std::size_t begin(int t) const {
    return static_cast<std::size_t>(t) * width_;
  }
  [[nodiscard]] std::size_t end(int t) const {
    return std::min(n_, begin(t) + width_);
  }
  /// Bitmap words [first_word(t), end_word(t)) hold tile t's bits.
  [[nodiscard]] std::size_t first_word(int t) const { return begin(t) / 64; }
  [[nodiscard]] std::size_t end_word(int t) const {
    return (end(t) + 63) / 64;
  }

  /// Fill tile t's interior boundary (t >= 1) for every row of `a`.
  void find_cuts(const DCSR& a, int t) {
    if (t == 0) return;
    eid_t* cut = cuts_.data() + static_cast<std::size_t>(t - 1) * rows_;
    const auto first = static_cast<vid_t>(begin(t));
    for (std::size_t r = 0; r < rows_; ++r) {
      const auto cols = a.row_cols(r);
      cut[r] = static_cast<eid_t>(
          std::lower_bound(cols.begin(), cols.end(), first) - cols.begin());
    }
  }

  /// Column positions [lo, hi) of row r (of length len) inside tile t.
  [[nodiscard]] eid_t lo(int t, std::size_t r) const {
    return t == 0 ? 0 : cuts_[static_cast<std::size_t>(t - 1) * rows_ + r];
  }
  [[nodiscard]] eid_t hi(int t, std::size_t r, std::size_t len) const {
    return t + 1 == count() ? len
                            : cuts_[static_cast<std::size_t>(t) * rows_ + r];
  }

 private:
  std::size_t n_;
  std::size_t rows_;
  std::size_t width_ = 64;
  std::size_t count_ = 1;
  std::vector<eid_t> cuts_;  // (count_ - 1) rows of rows_ entries
};

/// Per-thread body of for_each_tile: tile t runs on exactly one thread.
/// Kept out of the region wrapper so it stays TSan-instrumented.
template <typename Body>
EPGS_TSAN_NOINLINE void tile_loop(int count, Body& body, OmpHbEdge& fork,
                                  OmpHbEdge& join) {
  fork.acquire();
#pragma omp for schedule(static, 1) nowait
  for (int t = 0; t < count; ++t) body(t);
  join.release();
}

/// Run body(t) for every tile in one parallel region. The OmpHbEdge pair
/// re-declares the region's fork and join to TSan (core/parallel.hpp).
template <typename Body>
EPGS_NO_SANITIZE_THREAD void for_each_tile(int count, Body body) {
  OmpHbEdge fork, join;
  fork.release();
#pragma omp parallel
  tile_loop(count, body, fork, join);
  join.acquire();
}

/// A Program must define:
///   using State = ...; using Msg = ...; using Acc = ...;
///   Acc  identity() const;
///   Msg  send_message(vid_t u, const State&) const;
///   void process_message(const Msg&, weight_t w, Acc&) const;   // reduce
///   bool apply(const Acc&, State&) const;  // true -> activate vertex
/// The reduce must not depend on the order of the messages: each tile
/// sees its sources in row order, whatever the thread count.
template <typename Program>
void run_graph_program(
    const Program& prog, const DCSR& a,
    std::vector<typename Program::State>& states, Bitmap& active,
    int max_iterations, EngineResult& result,
    const std::function<void(int, std::uint64_t)>& epoch_hook) {
  using Msg = typename Program::Msg;
  using Acc = typename Program::Acc;
  const std::size_t n = a.num_vertices();

  Tiles tiles(a, max_threads());
  const int num_tiles = tiles.count();
  if (num_tiles > 1) {
    for_each_tile(num_tiles, [&](int t) { tiles.find_cuts(a, t); });
  }

  std::vector<Msg> x(n);
  std::vector<Acc> y(n, prog.identity());
  Bitmap touched(n);
  Bitmap next_active(n);
  std::vector<std::uint64_t> tile_edges(static_cast<std::size_t>(num_tiles));

  // Phase 1: materialise messages from the tile's active vertices.
  const auto send = [&](int t) {
    for (std::size_t w = tiles.first_word(t); w < tiles.end_word(t); ++w) {
      for (std::uint64_t bits = active.word(w); bits != 0;
           bits &= bits - 1) {
        const std::size_t u = w * 64 + __builtin_ctzll(bits);
        x[u] = prog.send_message(static_cast<vid_t>(u), states[u]);
      }
    }
  };

  // Phase 2: SpMSpV into the tile's range of y, then apply over the
  // destinations it touched. The tile writes whole words of touched and
  // next_active, which replaces a reset of either.
  const auto push_apply = [&](int t) {
    std::uint64_t pushed = 0;
    for (std::size_t r = 0; r < a.num_rows(); ++r) {
      const vid_t u = a.row_id(r);
      if (!active.test(u)) continue;
      const auto cols = a.row_cols(r);
      const auto vals = a.weighted() ? a.row_vals(r)
                                     : std::span<const weight_t>{};
      const eid_t lo = tiles.lo(t, r);
      const eid_t hi = tiles.hi(t, r, cols.size());
      const Msg m = x[u];
      for (eid_t i = lo; i < hi; ++i) {
        // The accumulator update y[v] is the push's only random access;
        // prefetch a few columns ahead to overlap its miss.
        if (i + kPrefetchDistance < hi) {
          prefetch_write(&y[cols[i + kPrefetchDistance]]);
        }
        const vid_t v = cols[i];
        prog.process_message(m, a.weighted() ? vals[i] : weight_t{1}, y[v]);
        touched.set(v);
      }
      pushed += hi - lo;
    }
    for (std::size_t w = tiles.first_word(t); w < tiles.end_word(t); ++w) {
      std::uint64_t bits = touched.word(w);
      std::uint64_t activated = 0;
      if (bits != 0) touched.set_word(w, 0);
      for (; bits != 0; bits &= bits - 1) {
        const int bit = __builtin_ctzll(bits);
        const std::size_t v = w * 64 + static_cast<std::size_t>(bit);
        if (prog.apply(y[v], states[v])) activated |= 1ULL << bit;
        y[v] = prog.identity();
      }
      next_active.set_word(w, activated);
    }
    tile_edges[static_cast<std::size_t>(t)] = pushed;
  };

  for (int it = result.iterations; it < max_iterations; ++it) {
    // Convergence is tested first so the hook fires exactly once per
    // executed epoch (its tick count must match result.iterations).
    const auto active_count = static_cast<std::uint64_t>(active.count());
    if (active_count == 0) break;
    // SpMSpV epoch boundary: the adapter's hook ticks its KernelRun
    // (cancellation, checkpoint, telemetry).
    epoch_hook(it, active_count);

    for_each_tile(num_tiles, send);
    for_each_tile(num_tiles, push_apply);
    for (const std::uint64_t e : tile_edges) result.edges_scanned += e;
    ++result.iterations;
    active.swap(next_active);
  }
}

}  // namespace epgs::systems::graphmat_detail

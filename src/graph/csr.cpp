#include "graph/csr.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "core/parallel.hpp"

namespace epgs {

namespace {

/// Per-thread body of first_touch_zero, kept out of the region wrapper
/// so it stays TSan-instrumented.
template <typename T>
EPGS_TSAN_NOINLINE void zero_slice(FirstTouchVector<T>& v, OmpHbEdge& fork,
                                   OmpHbEdge& join) {
  fork.acquire();
#pragma omp for schedule(static) nowait
  for (std::int64_t i = 0; i < static_cast<std::int64_t>(v.size()); ++i) {
    v[static_cast<std::size_t>(i)] = T{};
  }
  join.release();
}

/// Size `v` to `n` zeros in static index order. resize() touches no
/// pages, and the scatters that fill these arrays do not write in index
/// order, so this pass is the first touch: each page lands on the thread
/// that owns its index range in later schedule(static) scans (see
/// core/numa_alloc.hpp for the rule). (The region follows the TSan
/// discipline of core/parallel.hpp.)
template <typename T>
EPGS_NO_SANITIZE_THREAD void first_touch_zero(FirstTouchVector<T>& v,
                                              std::size_t n) {
  v.resize(n);
  OmpHbEdge fork, join;
  fork.release();
#pragma omp parallel
  zero_slice(v, fork, join);
  join.acquire();
}

/// Turn row degrees counted into offsets[0, n) (offsets[n] left 0) into
/// row ends: offsets[u] becomes the end of row u and offsets[n] the edge
/// count. A scatter that walks its input backwards, decrementing
/// offsets[row] before each write, is then stable and leaves every
/// offsets[u] at the start of row u, with no separate cursor array.
void counts_to_row_ends(CSRGraph::OffsetVector& offsets) {
  for (std::size_t u = 1; u < offsets.size(); ++u) {
    offsets[u] += offsets[u - 1];
  }
}

/// Sort by (target, weight) each row the scatter did not leave in
/// order. A row that is already sorted is only scanned, which makes a
/// sorted, deduplicated edge list cost no sort at all.
void sort_unsorted_rows(const CSRGraph::OffsetVector& offsets,
                        CSRGraph::TargetVector& targets,
                        CSRGraph::WeightVector& weights, bool weighted) {
  std::vector<std::pair<vid_t, weight_t>> row;
  for (std::size_t u = 0; u + 1 < offsets.size(); ++u) {
    const eid_t lo = offsets[u], hi = offsets[u + 1];
    if (weighted) {
      bool in_order = true;
      for (eid_t i = lo + 1; i < hi && in_order; ++i) {
        in_order = !(std::pair(targets[i], weights[i]) <
                     std::pair(targets[i - 1], weights[i - 1]));
      }
      if (in_order) continue;
      row.clear();
      for (eid_t i = lo; i < hi; ++i) {
        row.emplace_back(targets[i], weights[i]);
      }
      std::sort(row.begin(), row.end());
      for (eid_t i = lo; i < hi; ++i) {
        targets[i] = row[i - lo].first;
        weights[i] = row[i - lo].second;
      }
    } else {
      const auto first = targets.begin() + static_cast<std::ptrdiff_t>(lo);
      const auto last = targets.begin() + static_cast<std::ptrdiff_t>(hi);
      if (!std::is_sorted(first, last)) std::sort(first, last);
    }
  }
}

/// Fill CSR entries [lo, hi) of a list in CSR order (see fill_in_order)
/// and write the row starts that fall inside the range. Returns false
/// at the first edge out of order. Sets `out_of_range` on an endpoint
/// outside [0, n), stopping at a source there, since every row start
/// from it on would be out of the offsets' bounds.
EPGS_TSAN_NOINLINE bool fill_block(const EdgeList& el, std::size_t lo,
                                   std::size_t hi,
                                   CSRGraph::OffsetVector& offsets,
                                   CSRGraph::TargetVector& targets,
                                   CSRGraph::WeightVector& weights,
                                   bool& out_of_range) {
  const vid_t n = el.num_vertices;
  const bool weighted = el.weighted;
  // Edge 0 is its own predecessor: the rows up to its source start at 0,
  // which the zeroed offsets already say.
  Edge prev = el.edges[lo == 0 ? 0 : lo - 1];
  if (prev.src >= n) {
    out_of_range = true;
    return true;
  }
  bool dst_out_of_range = false;
  for (std::size_t i = lo; i < hi; ++i) {
    const Edge e = el.edges[i];
    targets[i] = e.dst;
    if (weighted) weights[i] = e.w;
    dst_out_of_range |= e.dst >= n;
    if (e.src == prev.src) {
      if (e.dst < prev.dst || (weighted && e.dst == prev.dst && e.w < prev.w)) {
        return false;
      }
    } else {
      if (e.src < prev.src) return false;
      if (e.src >= n) {
        out_of_range = true;
        return true;
      }
      // Relaxed atomic: in an out-of-order list, two blocks can write
      // the same row start before either sees the other's flag. Those
      // values are thrown away (the counting build zeroes the offsets
      // again), but the stores must not be a data race.
      for (vid_t u = prev.src + 1; u <= e.src; ++u) {
        std::atomic_ref(offsets[u]).store(i, std::memory_order_relaxed);
      }
    }
    prev = e;
  }
  out_of_range = out_of_range || dst_out_of_range;
  return true;
}

/// Edges a thread copies between two polls of the out-of-order flag.
constexpr std::size_t kOrderPollBlock = 4096;

/// The one-pass build of a list already in CSR order: sorted by (src,
/// dst) and, when weighted, by weight among equal pairs (every
/// deduplicated list is). Edge i becomes CSR entry i, and row u starts
/// at the first edge whose source is at least u. `offsets` must come in
/// zeroed and `targets`/`weights` sized but untouched: the pass runs
/// schedule(static) over blocks of edge index, so it is their first
/// touch, as the zeroing pass of the counting build is. Returns false,
/// with the arrays partly written, once any thread meets an edge out of
/// order (each polls a relaxed flag once per block). Throws on an
/// endpoint out of range. (The parallel region follows the TSan
/// discipline of core/parallel.hpp.)
EPGS_NO_SANITIZE_THREAD bool fill_in_order(const EdgeList& el,
                                           CSRGraph::OffsetVector& offsets,
                                           CSRGraph::TargetVector& targets,
                                           CSRGraph::WeightVector& weights) {
  const std::size_t m = el.edges.size();
  const auto blocks =
      static_cast<std::int64_t>((m + kOrderPollBlock - 1) / kOrderPollBlock);
  std::atomic<bool> unsorted{false};
  bool out_of_range = false;
  OmpHbEdge fork, join;
  fork.release();
#pragma omp parallel reduction(|| : out_of_range)
  {
    fork.acquire();
#pragma omp for schedule(static)
    for (std::int64_t b = 0; b < blocks; ++b) {
      if (unsorted.load(std::memory_order_relaxed)) continue;
      const std::size_t lo = static_cast<std::size_t>(b) * kOrderPollBlock;
      const std::size_t hi = std::min(m, lo + kOrderPollBlock);
      if (!fill_block(el, lo, hi, offsets, targets, weights, out_of_range)) {
        unsorted.store(true, std::memory_order_relaxed);
      }
    }
    join.release();
  }
  join.acquire();
  if (unsorted.load(std::memory_order_relaxed)) return false;
  EPGS_CHECK(!out_of_range, "edge endpoint out of range");
  if (m > 0) {
    for (std::size_t u = el.edges.back().src + std::size_t{1};
         u < offsets.size(); ++u) {
      offsets[u] = m;
    }
  }
  return true;
}

}  // namespace

CSRGraph CSRGraph::from_edges(const EdgeList& el) {
  CSRGraph g;
  g.n_ = el.num_vertices;
  g.m_ = el.num_edges();

  first_touch_zero(g.offsets_, static_cast<std::size_t>(g.n_) + 1);
  g.targets_.resize(g.m_);
  if (el.weighted) g.weights_.resize(g.m_);
  if (fill_in_order(el, g.offsets_, g.targets_, g.weights_)) return g;

  // The list is out of order: count degrees, then scatter.
  first_touch_zero(g.offsets_, static_cast<std::size_t>(g.n_) + 1);
  for (const auto& e : el.edges) {
    EPGS_CHECK(e.src < g.n_ && e.dst < g.n_, "edge endpoint out of range");
    ++g.offsets_[e.src];
  }
  counts_to_row_ends(g.offsets_);

  first_touch_zero(g.targets_, g.m_);
  if (el.weighted) first_touch_zero(g.weights_, g.m_);
  for (auto e = el.edges.rbegin(); e != el.edges.rend(); ++e) {
    const eid_t pos = --g.offsets_[e->src];
    g.targets_[pos] = e->dst;
    if (el.weighted) g.weights_[pos] = e->w;
  }

  sort_unsorted_rows(g.offsets_, g.targets_, g.weights_, el.weighted);
  return g;
}

CSRGraph CSRGraph::transposed() const {
  CSRGraph t;
  t.n_ = n_;
  t.m_ = m_;

  first_touch_zero(t.offsets_, static_cast<std::size_t>(n_) + 1);
  for (const vid_t v : targets_) ++t.offsets_[v];
  counts_to_row_ends(t.offsets_);

  const bool w = weighted();
  first_touch_zero(t.targets_, m_);
  if (w) first_touch_zero(t.weights_, m_);
  for (vid_t u = n_; u-- > 0;) {
    for (eid_t i = offsets_[u + 1]; i-- > offsets_[u];) {
      const eid_t pos = --t.offsets_[targets_[i]];
      t.targets_[pos] = u;
      if (w) t.weights_[pos] = weights_[i];
    }
  }
  return t;
}

bool CSRGraph::is_symmetric() const {
  // transposed() fills row v with the edges u -> v for u ascending, in
  // u's row order. So the graph is its own transpose exactly when every
  // edge u -> v above the diagonal (u < v) finds its reverse, weight
  // included, in the next unmatched slot of row v, and by the time the
  // walk reaches row u every slot of it below the diagonal is matched.
  // A self loop is its own reverse. cursor[v] is row v's first
  // unmatched slot, so only half the edges cost a random read.
  if (offsets_.empty()) return false;  // transposed() sizes the offsets
  std::vector<eid_t> cursor(offsets_.begin(), offsets_.end() - 1);
  const bool w = weighted();
  for (vid_t u = 0; u < n_; ++u) {
    const eid_t end = offsets_[u + 1];
    eid_t i = cursor[u];
    if (i < end && targets_[i] < u) return false;  // no reverse for it
    for (; i < end; ++i) {
      const vid_t v = targets_[i];
      if (v == u) continue;
      const eid_t j = cursor[v]++;
      if (j == offsets_[v + 1] || targets_[j] != u ||
          (w && weights_[j] != weights_[i])) {
        return false;
      }
    }
  }
  return true;
}

bool is_own_transpose(const EdgeList& el, const CSRGraph& out) {
  return el.symmetric || out.is_symmetric();
}

CSRGraph::Arrays CSRGraph::release() && {
  Arrays a{std::move(offsets_), std::move(targets_), std::move(weights_)};
  *this = CSRGraph{};
  return a;
}

// The seed's sequential Kernel 1, kept verbatim as the equivalence
// oracle for tests.
CSRGraph CSRGraph::from_edges_serial(const EdgeList& el, bool transpose) {
  CSRGraph g;
  g.n_ = el.num_vertices;
  g.m_ = el.num_edges();

  std::vector<eid_t> counts(g.n_, 0);
  for (const auto& e : el.edges) {
    EPGS_CHECK(e.src < g.n_ && e.dst < g.n_, "edge endpoint out of range");
    ++counts[transpose ? e.dst : e.src];
  }
  exclusive_prefix_sum(counts, g.offsets_);

  g.targets_.resize(g.m_);
  if (el.weighted) g.weights_.resize(g.m_);
  std::vector<eid_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (const auto& e : el.edges) {
    const vid_t row = transpose ? e.dst : e.src;
    const vid_t col = transpose ? e.src : e.dst;
    const eid_t pos = cursor[row]++;
    g.targets_[pos] = col;
    if (el.weighted) g.weights_[pos] = e.w;
  }

  if (el.weighted) {
    std::vector<std::pair<vid_t, weight_t>> row;
    for (vid_t u = 0; u < g.n_; ++u) {
      const eid_t lo = g.offsets_[u], hi = g.offsets_[u + 1];
      row.clear();
      row.reserve(hi - lo);
      for (eid_t i = lo; i < hi; ++i) {
        row.emplace_back(g.targets_[i], g.weights_[i]);
      }
      std::sort(row.begin(), row.end());
      for (eid_t i = lo; i < hi; ++i) {
        g.targets_[i] = row[i - lo].first;
        g.weights_[i] = row[i - lo].second;
      }
    }
  } else {
    for (vid_t u = 0; u < g.n_; ++u) {
      std::sort(g.targets_.begin() + static_cast<std::ptrdiff_t>(g.offsets_[u]),
                g.targets_.begin() +
                    static_cast<std::ptrdiff_t>(g.offsets_[u + 1]));
    }
  }
  return g;
}

std::size_t CSRGraph::bytes() const {
  return offsets_.size() * sizeof(eid_t) + targets_.size() * sizeof(vid_t) +
         weights_.size() * sizeof(weight_t);
}

bool CSRGraph::has_edge(vid_t u, vid_t v) const {
  const auto nbrs = neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

}  // namespace epgs

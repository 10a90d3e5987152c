#include "graph/csr.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "core/parallel.hpp"

namespace epgs {

namespace {

/// Size `v` to `n` zeros in static index order. resize() touches no
/// pages, and the scatters that fill these arrays do not write in index
/// order, so this pass is the first touch: each page lands on the thread
/// that owns its index range in later schedule(static) scans (see
/// core/numa_alloc.hpp for the rule).
template <typename T>
void first_touch_zero(FirstTouchVector<T>& v, std::size_t n) {
  v.resize(n);
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < static_cast<std::int64_t>(n); ++i) {
    v[static_cast<std::size_t>(i)] = T{};
  }
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

}  // namespace

CSRGraph CSRGraph::from_edges(const EdgeList& el) {
  CSRGraph g;
  g.n_ = el.num_vertices;
  g.m_ = el.num_edges();

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

#include "graph/transforms.hpp"

#include <algorithm>
#include <bit>
#include <utility>
#include <vector>

#include "core/parallel.hpp"
#include "core/rng.hpp"

namespace epgs {

EdgeList symmetrize(const EdgeList& el) {
  EdgeList out;
  out.num_vertices = el.num_vertices;
  out.directed = false;
  out.weighted = el.weighted;
  out.symmetric = true;
  out.edges.reserve(el.edges.size() * 2);
  for (const auto& e : el.edges) {
    out.edges.push_back(e);
    if (e.src != e.dst) {
      out.edges.push_back(Edge{e.dst, e.src, e.w});
    }
  }
  return out;
}

EdgeList dedupe(EdgeList el, bool drop_self_loops) {
  auto& edges = el.edges;
  if (drop_self_loops) {
    std::erase_if(edges, [](const Edge& e) { return e.src == e.dst; });
  }
  vid_t max_src = 0;
  vid_t max_dst = 0;
  for (const auto& e : edges) {
    max_src = std::max(max_src, e.src);
    max_dst = std::max(max_dst, e.dst);
  }

  // Stable LSD radix sort by (src, dst), swapping `edges` with one
  // scratch array after every counting pass. A key takes passes of at
  // most 16 bits covering the bit_width of its largest id actually
  // present, split evenly: two 16-bit passes at s16 (one per key), two
  // 11-bit passes for a 22-bit key.
  //
  // Each pass cuts the edges into one contiguous block per thread of the
  // default team. Every block counts its digits into its own histogram
  // row; the rows become start offsets digit-major, then block-minor
  // (digit d of block b goes after every smaller digit and after digit d
  // of every earlier block); every block scatters its own edges in order.
  // That is the serial stable sort's permutation at any thread count.
  // Scratch and histograms are allocated here, outside the regions.
  const auto blocks = static_cast<std::size_t>(max_threads());
  const std::size_t n = edges.size();
  const auto block_lo = [&](std::size_t b) { return n * b / blocks; };
  std::vector<Edge> scratch;
  std::vector<eid_t> hist;
  const auto sort_by = [&](vid_t Edge::*key, vid_t max_id) {
    const int bits = std::bit_width(max_id);
    const int digits = (bits + 15) / 16;
    for (int d = 0; d < digits; ++d) {
      const int width = (bits + digits - 1) / digits;
      const int shift = d * width;
      const vid_t mask = (vid_t{1} << width) - 1;
      const std::size_t buckets = std::size_t{mask} + 1;
      scratch.resize(n);
      hist.assign(blocks * buckets, 0);
      const Edge* in = edges.data();
      Edge* out = scratch.data();
      parallel_tasks(static_cast<int>(blocks), [&](int b) {
        eid_t* row = hist.data() + static_cast<std::size_t>(b) * buckets;
        for (std::size_t i = block_lo(b); i < block_lo(b + 1); ++i) {
          ++row[(in[i].*key >> shift) & mask];
        }
      });
      eid_t sum = 0;
      for (std::size_t v = 0; v < buckets; ++v) {
        for (std::size_t b = 0; b < blocks; ++b) {
          sum += std::exchange(hist[b * buckets + v], sum);
        }
      }
      parallel_tasks(static_cast<int>(blocks), [&](int b) {
        eid_t* start = hist.data() + static_cast<std::size_t>(b) * buckets;
        for (std::size_t i = block_lo(b); i < block_lo(b + 1); ++i) {
          out[start[(in[i].*key >> shift) & mask]++] = in[i];
        }
      });
      edges.swap(scratch);
    }
  };
  sort_by(&Edge::dst, max_dst);
  sort_by(&Edge::src, max_src);

  // Each (src, dst) run keeps its smallest weight: what a (src, dst, w)
  // comparison sort followed by std::unique kept.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const Edge& e = edges[i];
    if (kept > 0 && edges[kept - 1].src == e.src &&
        edges[kept - 1].dst == e.dst) {
      edges[kept - 1].w = std::min(edges[kept - 1].w, e.w);
    } else {
      edges[kept++] = e;
    }
  }
  // Capacity stays at the input's size, as the old copy-then-sort left
  // it: a shrink_to_fit copy measured about 5% slower queries on a
  // served, resident s14 graph (4-vCPU AMD EPYC guest).
  edges.resize(kept);
  return el;
}

EdgeList with_random_weights(const EdgeList& el, std::uint64_t seed,
                             std::uint32_t max_weight) {
  EdgeList out = el;
  out.weighted = true;
  out.symmetric = false;
  Xoshiro256 rng(seed);
  for (auto& e : out.edges) {
    e.w = static_cast<weight_t>(rng.uniform_in(1, max_weight));
  }
  return out;
}

EdgeList unweighted_view(const EdgeList& el) {
  EdgeList out = el;
  out.weighted = false;
  for (auto& e : out.edges) e.w = 1.0f;
  return out;
}

vid_t count_vertices_with_degree_above(const EdgeList& el, eid_t min_degree) {
  const auto deg = total_degrees(el);
  vid_t c = 0;
  for (const auto d : deg) {
    if (d > min_degree) ++c;
  }
  return c;
}

}  // namespace epgs

#include "systems/graphmat/dcsr.hpp"

#include <algorithm>
#include <utility>

namespace epgs::systems::graphmat_detail {

DCSR DCSR::from_csr(CSRGraph&& g) {
  DCSR m;
  m.n_ = g.num_vertices();
  m.nnz_ = g.num_edges();
  auto [offsets, cols, vals] = std::move(g).release();

  // Compress the offsets in place: stored row r starts where dense row
  // row_ids_[r] did. The write index never passes the read index, so
  // every offset is read before it can be overwritten.
  std::size_t r = 0;
  for (vid_t v = 0; v < m.n_; ++v) {
    if (offsets[v + 1] == offsets[v]) continue;
    m.row_ids_.push_back(v);
    offsets[r++] = offsets[v];
  }
  offsets.resize(r + 1);
  offsets[r] = m.nnz_;

  m.row_offsets_ = std::move(offsets);
  m.cols_ = std::move(cols);
  m.vals_ = std::move(vals);
  return m;
}

std::size_t DCSR::find_row(vid_t v) const {
  const auto it = std::lower_bound(row_ids_.begin(), row_ids_.end(), v);
  if (it == row_ids_.end() || *it != v) return npos;
  return static_cast<std::size_t>(it - row_ids_.begin());
}

std::size_t DCSR::bytes() const {
  return row_ids_.size() * sizeof(vid_t) +
         row_offsets_.size() * sizeof(eid_t) + cols_.size() * sizeof(vid_t) +
         vals_.size() * sizeof(weight_t);
}

}  // namespace epgs::systems::graphmat_detail

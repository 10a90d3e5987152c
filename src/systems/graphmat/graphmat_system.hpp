// GraphMat re-implementation.
//
// Algorithms are expressed as vertex programs over DCSR storage: BFS and
// SSSP run on the SpMSpV engine (engine.hpp) over A, pushing from active
// sources only; PageRank, CDLP, LCC and WCC gather over A^T and A.
// Notable faithful behaviours:
//  * construction is separable (the Table I log excerpt shows GraphMat's
//    own "load graph" phase distinct from "file read");
//  * PageRank ignores the homogenized L1 epsilon: "GraphMat executes
//    until no vertices change rank; effectively its stopping criterion
//    requires the infinity-norm be less than machine epsilon" — ranks are
//    single-precision and iteration stops when no rank changes at all,
//    which is why Fig 4 shows GraphMat with the most iterations. It also
//    stops when the ranks repeat those of two iterations back: a few
//    float ranks can alternate by an ulp or two forever (DESIGN.md
//    "GraphMat's PageRank stop").
#pragma once

#include "systems/common/system.hpp"
#include "systems/graphmat/dcsr.hpp"

namespace epgs::systems {

class GraphMatSystem final : public System {
 public:
  [[nodiscard]] std::string_view name() const override { return "GraphMat"; }
  [[nodiscard]] Capabilities capabilities() const override {
    return Capabilities{.bfs = true,
                        .sssp = true,
                        .pagerank = true,
                        .cdlp = true,
                        .lcc = true,
                        .wcc = true,
                        .tc = true,   // masked SpGEMM triangle counting
                        .bc = true,   // BFS passes + backward SpMV sweep
                        .separate_construction = true};
  }
  [[nodiscard]] GraphFormat native_format() const override {
    return GraphFormat::kGraphMatMtx;
  }

  [[nodiscard]] const graphmat_detail::DCSR& matrix() const { return out_; }
  [[nodiscard]] const graphmat_detail::DCSR& matrix_t() const { return in_; }

 protected:
  void do_build(const EdgeList& edges) override;
  BfsResult do_bfs(vid_t root) override;
  SsspResult do_sssp(vid_t root) override;
  PageRankResult do_pagerank(const PageRankParams& params) override;
  CdlpResult do_cdlp(int max_iterations) override;
  LccResult do_lcc() override;
  WccResult do_wcc() override;
  TriangleCountResult do_tc() override;
  BcResult do_bc(vid_t source) override;

 private:
  graphmat_detail::DCSR out_;  // A
  graphmat_detail::DCSR in_;   // A^T
  std::vector<eid_t> out_degree_;
};

}  // namespace epgs::systems

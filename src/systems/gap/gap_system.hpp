// GAP Benchmark Suite re-implementation.
//
// The paper's overall winner. Faithful design elements:
//  * CSR in both directions, built separately from file I/O (the paper
//    times GAP's construction phase explicitly in Figs 2/3); like GAP's
//    own builder, it inverts only a graph that is not its own transpose
//    and otherwise reads in-edges from the out-CSR;
//  * direction-optimizing BFS (Beamer et al., SC'12) with the default
//    parameterization alpha = 15, beta = 18 the paper says it did not
//    tune ("we use the default parameterization of alpha=15 and beta=18");
//  * delta-stepping SSSP;
//  * pull-based PageRank with the homogenized L1 stopping criterion;
//  * Shiloach–Vishkin connected components (GAP's "cc").
// GAP ships no CDLP or LCC reference implementation, so those throw
// UnsupportedAlgorithm, exactly as the harness expects.
#pragma once

#include <optional>

#include "graph/csr.hpp"
#include "systems/common/system.hpp"

namespace epgs::systems {

class GapSystem final : public System {
 public:
  struct Options {
    double alpha = 15.0;  ///< top-down -> bottom-up switch threshold
    double beta = 18.0;   ///< bottom-up -> top-down switch threshold
    weight_t delta = 2.0f;  ///< delta-stepping bucket width
    /// "The GAP Benchmark Suite can be recompiled to store weights as
    /// integers or floating-point values. This may affect performance in
    /// addition to runtime behavior in cases where weights like 0.2 are
    /// cast to 0." (paper, Section IV-A). True truncates every weight to
    /// an integer at build time, faithfully reproducing that hazard.
    bool integer_weights = false;
  };

  GapSystem() = default;
  explicit GapSystem(const Options& opts) : opts_(opts) {}

  [[nodiscard]] std::string_view name() const override { return "GAP"; }
  [[nodiscard]] Capabilities capabilities() const override {
    return Capabilities{.bfs = true,
                        .sssp = true,
                        .pagerank = true,
                        .cdlp = false,
                        .lcc = false,
                        .wcc = true,
                        .tc = true,   // GAP's "tc" benchmark
                        .bc = true,   // GAP's "bc" benchmark (sampled)
                        .separate_construction = true};
  }
  [[nodiscard]] GraphFormat native_format() const override {
    return GraphFormat::kGapSg;
  }

  /// Read-only access to the built CSR (tests compare layouts).
  [[nodiscard]] const CSRGraph& out_csr() const { return out_; }
  [[nodiscard]] const CSRGraph& in_csr() const { return in(); }

 protected:
  void do_build(const EdgeList& edges) override;
  BfsResult do_bfs(vid_t root) override;
  SsspResult do_sssp(vid_t root) override;
  PageRankResult do_pagerank(const PageRankParams& params) override;
  WccResult do_wcc() override;
  TriangleCountResult do_tc() override;
  BcResult do_bc(vid_t source) override;

 private:
  /// In-edges: the transpose, or the out-CSR when it is symmetric.
  [[nodiscard]] const CSRGraph& in() const { return in_ ? *in_ : out_; }

  Options opts_;
  CSRGraph out_;
  std::optional<CSRGraph> in_;  // empty when out_ is its own transpose
};

}  // namespace epgs::systems

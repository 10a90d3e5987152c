#include "harness/experiment.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "gen/datasets.hpp"
#include "gen/kronecker.hpp"
#include "graph/snap_io.hpp"
#include "graph/transforms.hpp"

namespace epgs::harness {

std::string_view algorithm_name(Algorithm a) {
  switch (a) {
    case Algorithm::kBfs: return "BFS";
    case Algorithm::kSssp: return "SSSP";
    case Algorithm::kPageRank: return "PageRank";
    case Algorithm::kCdlp: return "CDLP";
    case Algorithm::kLcc: return "LCC";
    case Algorithm::kWcc: return "WCC";
    case Algorithm::kTc: return "TC";
    case Algorithm::kBc: return "BC";
  }
  return "?";
}

Algorithm algorithm_from_name(std::string_view name) {
  if (name == "BFS") return Algorithm::kBfs;
  if (name == "SSSP") return Algorithm::kSssp;
  if (name == "PageRank" || name == "PR") return Algorithm::kPageRank;
  if (name == "CDLP") return Algorithm::kCdlp;
  if (name == "LCC") return Algorithm::kLcc;
  if (name == "WCC") return Algorithm::kWcc;
  if (name == "TC") return Algorithm::kTc;
  if (name == "BC") return Algorithm::kBc;
  throw EpgsError("unknown algorithm: '" + std::string(name) + "'");
}

bool algorithm_supported(const Capabilities& caps, Algorithm alg) {
  switch (alg) {
    case Algorithm::kBfs: return caps.bfs;
    case Algorithm::kSssp: return caps.sssp;
    case Algorithm::kPageRank: return caps.pagerank;
    case Algorithm::kCdlp: return caps.cdlp;
    case Algorithm::kLcc: return caps.lcc;
    case Algorithm::kWcc: return caps.wcc;
    case Algorithm::kTc: return caps.tc;
    case Algorithm::kBc: return caps.bc;
  }
  return false;
}

std::string GraphSpec::name() const {
  std::ostringstream os;
  switch (kind) {
    case Kind::kKronecker:
      os << "kron-s" << scale;
      break;
    case Kind::kPatentsLike:
      os << "cit-Patents-like-f" << fraction;
      break;
    case Kind::kDotaLike:
      os << "dota-league-like-f" << fraction;
      break;
    case Kind::kSnapFile: {
      const auto slash = path.find_last_of('/');
      os << (slash == std::string::npos ? path : path.substr(slash + 1));
      break;
    }
  }
  return os.str();
}

EdgeList materialize(const GraphSpec& spec) {
  EdgeList el;
  switch (spec.kind) {
    case GraphSpec::Kind::kKronecker: {
      gen::KroneckerParams p;
      p.scale = spec.scale;
      p.edgefactor = spec.edgefactor;
      p.seed = spec.seed;
      el = gen::kronecker(p);
      break;
    }
    case GraphSpec::Kind::kPatentsLike: {
      gen::PatentsLikeParams p;
      p.fraction = spec.fraction;
      p.seed = spec.seed;
      el = gen::patents_like(p);
      break;
    }
    case GraphSpec::Kind::kDotaLike: {
      gen::DotaLikeParams p;
      p.fraction = spec.fraction;
      p.seed = spec.seed;
      el = gen::dota_like(p);
      break;
    }
    case GraphSpec::Kind::kSnapFile:
      el = read_snap_file(spec.path);
      break;
  }
  if (spec.symmetrize && el.directed) el = symmetrize(el);
  if (spec.deduplicate) el = dedupe(std::move(el));
  if (spec.add_weights && !el.weighted) {
    el = with_random_weights(el, spec.seed ^ 0x77EEDull, spec.max_weight);
  }
  return el;
}

std::vector<vid_t> select_roots(const EdgeList& el, int count,
                                std::uint64_t seed, eid_t min_degree) {
  EPGS_CHECK(count >= 1, "need at least one root");
  EPGS_CHECK(el.num_vertices > 0, "empty graph");
  const auto deg = total_degrees(el);

  std::vector<vid_t> roots;
  roots.reserve(static_cast<std::size_t>(count));
  Xoshiro256 rng(seed);
  std::vector<bool> used(el.num_vertices, false);

  // As in the Graph500: sample uniformly, accept vertices above the
  // degree floor, never repeat a root.
  const std::uint64_t max_attempts =
      64ull * static_cast<std::uint64_t>(count) + 4096;
  for (std::uint64_t attempt = 0;
       attempt < max_attempts && roots.size() < static_cast<std::size_t>(count);
       ++attempt) {
    const auto v = static_cast<vid_t>(rng.uniform_u64(el.num_vertices));
    if (used[v] || deg[v] <= min_degree) continue;
    used[v] = true;
    roots.push_back(v);
  }
  // Fallback for graphs with too few high-degree vertices: take any
  // connected vertex, then (only if still short) repeat roots.
  for (vid_t v = 0; v < el.num_vertices &&
                    roots.size() < static_cast<std::size_t>(count);
       ++v) {
    if (!used[v] && deg[v] >= 1) {
      used[v] = true;
      roots.push_back(v);
    }
  }
  EPGS_CHECK(!roots.empty(), "graph has no vertex with any edge");
  std::size_t i = 0;
  while (roots.size() < static_cast<std::size_t>(count)) {
    roots.push_back(roots[i++ % roots.size()]);
  }
  return roots;
}

}  // namespace epgs::harness

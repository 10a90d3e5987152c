#include "systems/common/system.hpp"

#include <utility>

#include "core/crash_report.hpp"
#include "core/timer.hpp"
#include "graph/snap_io.hpp"
#include "systems/common/fault_injection.hpp"

namespace epgs {
namespace {

// An armed kWrongOutput fault corrupts the result in a way the matching
// reference oracle is guaranteed to reject, so the supervisor's
// kValidationFailed path is testable on real adapter output.
template <typename R>
void corrupt_result(R& r) {
  if constexpr (requires { r.parent; r.root; }) {
    if (!r.parent.empty()) r.parent[r.root] = kNoVertex;  // tree not rooted
  } else if constexpr (requires { r.dist; r.root; }) {
    if (!r.dist.empty()) r.dist[r.root] = weight_t{1};  // dist[root] != 0
  } else if constexpr (requires { r.rank; }) {
    if (!r.rank.empty()) r.rank[0] += 1.0;  // ranks no longer sum to 1
  } else if constexpr (requires { r.component; }) {
    if (!r.component.empty()) {
      r.component[0] = static_cast<vid_t>(r.component.size());  // not min id
    }
  } else if constexpr (requires { r.count; }) {
    r.count += 1;
  } else if constexpr (requires { r.label; }) {
    if (!r.label.empty()) r.label[0] = static_cast<vid_t>(r.label.size());
  } else if constexpr (requires { r.dependency; }) {
    if (!r.dependency.empty()) r.dependency[0] += 1.0;
  } else if constexpr (requires { r.coefficient; }) {
    if (!r.coefficient.empty()) r.coefficient[0] += 1.0;
  }
}

/// On-disk size of a native dataset: a plain file's size, or the sum over
/// a directory (GraphBIG's vertex.csv + edge.csv).
std::uint64_t path_bytes(const std::filesystem::path& path) {
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec)) {
    std::uint64_t total = 0;
    for (const auto& ent :
         std::filesystem::recursive_directory_iterator(path, ec)) {
      if (ent.is_regular_file(ec)) total += ent.file_size(ec);
    }
    return total;
  }
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : size;
}

EdgeList read_native(GraphFormat fmt, const std::filesystem::path& path) {
  switch (fmt) {
    case GraphFormat::kSnapText: return read_snap_file(path);
    case GraphFormat::kGraph500Bin: return read_graph500_bin(path);
    case GraphFormat::kGapSg: return read_gap_sg(path);
    case GraphFormat::kGraphMatMtx: return read_graphmat_mtx(path);
    case GraphFormat::kGraphBigCsv: return read_graphbig_csv(path);
    case GraphFormat::kPowerGraphTsv: return read_powergraph_tsv(path);
    case GraphFormat::kLigraAdj: return read_ligra_adj(path);
  }
  throw EpgsError("unknown graph format");
}

}  // namespace

void System::set_edges(EdgeList edges) {
  owned_ = std::move(edges);
  staged_ = &owned_;
  built_ = false;
  n_ = owned_.num_vertices;
}

void System::borrow_edges(const EdgeList& edges) {
  owned_ = EdgeList{};
  staged_ = &edges;
  built_ = false;
  n_ = edges.num_vertices;
}

void System::release_edges() {
  owned_ = EdgeList{};
  staged_ = nullptr;
}

void System::load_file(const std::filesystem::path& path) {
  if (capabilities().separate_construction) {
    const std::uint64_t file_bytes = path_bytes(path);
    WallTimer t;
    EdgeList el = read_native(native_format(), path);
    const double secs = t.seconds();
    // bytes_touched is the real on-disk size of what the loader mapped,
    // not the in-RAM edge-list footprint.
    log_.add(std::string(phase::kFileRead), secs,
             WorkStats{.edges_processed = el.num_edges(),
                       .vertex_updates = el.num_vertices,
                       .bytes_touched = file_bytes});
    set_edges(std::move(el));
  } else {
    // Fused read+build systems (GraphBIG, PowerGraph): defer the read so
    // it is timed together with construction inside build().
    release_edges();
    pending_path_ = path;
    built_ = false;
  }
}

void System::build() {
  EPGS_CHECK(staged_ != nullptr || !pending_path_.empty(),
             "System::build: no edges staged and no file pending");
  built_ = false;  // a build that throws leaves the system unbuilt
  checkpoint();
  crash::note_phase(name(), phase::kBuild);
  fault::on_phase_start(name(), phase::kBuild, cancel_);
  WallTimer t;
  bool fused = false;
  if (staged_ == nullptr) {
    set_edges(read_native(native_format(), pending_path_));
    fused = true;
    pending_path_.clear();
  }
  work_ = {};
  do_build(*staged_);
  const double secs = t.seconds();
  std::map<std::string, std::string> extra;
  if (fused) extra["fused_read"] = "1";
  WorkStats w = work_;
  if (w.edges_processed == 0) w.edges_processed = staged_->num_edges();
  if (w.vertex_updates == 0) w.vertex_updates = staged_->num_vertices;
  log_.add(std::string(phase::kBuild), secs, w, std::move(extra));
  built_ = true;
}

vid_t System::num_vertices() const {
  if (built_) return n_;
  return staged_ != nullptr ? staged_->num_vertices : 0;
}

template <typename Fn>
auto System::run_timed(std::string_view alg, bool supported, Fn&& fn) {
  if (!supported) {
    throw UnsupportedAlgorithm(std::string(name()) +
                               " does not provide a reference "
                               "implementation of " +
                               std::string(alg));
  }
  EPGS_CHECK(built_, std::string(name()) + ": build() must precede " +
                         std::string(alg));
  checkpoint();
  crash::note_phase(name(), alg);
  fault::on_phase_start(name(), alg, cancel_);
  work_ = {};
  pending_timeline_.clear();
  WallTimer t;
  auto result = fn();
  if (fault::take_wrong_output()) corrupt_result(result);
  const double secs = t.seconds();
  PhaseEntry entry;
  entry.name = std::string(phase::kAlgorithm);
  entry.seconds = secs;
  entry.work = work_;
  entry.extra["alg"] = std::string(alg);
  if constexpr (requires { result.iterations; }) {
    entry.extra["iterations"] = std::to_string(result.iterations);
  }
  entry.timeline = std::move(pending_timeline_);
  pending_timeline_.clear();
  log_.add(std::move(entry));
  return result;
}

BfsResult System::bfs(vid_t root) {
  return run_timed("bfs", capabilities().bfs,
                   [&] { return do_bfs(root); });
}

SsspResult System::sssp(vid_t root) {
  return run_timed("sssp", capabilities().sssp,
                   [&] { return do_sssp(root); });
}

PageRankResult System::pagerank(const PageRankParams& params) {
  return run_timed("pagerank", capabilities().pagerank,
                   [&] { return do_pagerank(params); });
}

CdlpResult System::cdlp(int max_iterations) {
  return run_timed("cdlp", capabilities().cdlp,
                   [&] { return do_cdlp(max_iterations); });
}

LccResult System::lcc() {
  return run_timed("lcc", capabilities().lcc, [&] { return do_lcc(); });
}

WccResult System::wcc() {
  return run_timed("wcc", capabilities().wcc, [&] { return do_wcc(); });
}

TriangleCountResult System::tc() {
  return run_timed("tc", capabilities().tc, [&] { return do_tc(); });
}

BcResult System::bc(vid_t source) {
  return run_timed("bc", capabilities().bc, [&] { return do_bc(source); });
}

// Default hooks: a system that advertises a capability must override the
// hook; reaching one of these means the Capabilities struct lied.
BfsResult System::do_bfs(vid_t) {
  throw UnsupportedAlgorithm(std::string(name()) + ": bfs not implemented");
}
SsspResult System::do_sssp(vid_t) {
  throw UnsupportedAlgorithm(std::string(name()) + ": sssp not implemented");
}
PageRankResult System::do_pagerank(const PageRankParams&) {
  throw UnsupportedAlgorithm(std::string(name()) +
                             ": pagerank not implemented");
}
CdlpResult System::do_cdlp(int) {
  throw UnsupportedAlgorithm(std::string(name()) + ": cdlp not implemented");
}
LccResult System::do_lcc() {
  throw UnsupportedAlgorithm(std::string(name()) + ": lcc not implemented");
}
WccResult System::do_wcc() {
  throw UnsupportedAlgorithm(std::string(name()) + ": wcc not implemented");
}
TriangleCountResult System::do_tc() {
  throw UnsupportedAlgorithm(std::string(name()) + ": tc not implemented");
}
BcResult System::do_bc(vid_t) {
  throw UnsupportedAlgorithm(std::string(name()) + ": bc not implemented");
}

}  // namespace epgs

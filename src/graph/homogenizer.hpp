// Dataset homogenizer: phase 2 of easy-parallel-graph-*.
//
// "Homogenizing the datasets creates copies of the graph files and
// auxiliary files in various formats ... to ensure they are correctly
// formatted for each system and to speed up file I/O whenever possible by
// using the library designer's serialized data structure file formats."
//
// One input edge list goes in; one file per target system comes out, in
// that system's native on-disk format. Every format has a reader so the
// round trip is testable and so each system loads *its own* file (the
// Graphalytics comparator charges file-read time to some systems, which
// requires real files).
#pragma once

#include <filesystem>
#include <map>
#include <ostream>
#include <string>

#include "graph/edge_list.hpp"

namespace epgs {

/// Native formats of the five systems studied in the paper.
enum class GraphFormat {
  kSnapText,       ///< universal interchange (SNAP)
  kGraph500Bin,    ///< packed 64-bit endpoint pairs, Graph500 style
  kGapSg,          ///< GAP's serialized CSR (".sg"/".wsg")
  kGraphMatMtx,    ///< 1-indexed MatrixMarket-like triples (GraphMat)
  kGraphBigCsv,    ///< vertex.csv + edge.csv directory (GraphBIG)
  kPowerGraphTsv,  ///< tab-separated src\tdst[\tweight] (PowerGraph)
  kLigraAdj,       ///< PBBS AdjacencyGraph text format (Ligra)
};

[[nodiscard]] std::string_view format_name(GraphFormat f);

/// The files produced for one dataset.
struct HomogenizedDataset {
  std::string name;
  std::filesystem::path dir;
  std::map<GraphFormat, std::filesystem::path> files;

  [[nodiscard]] const std::filesystem::path& path(GraphFormat f) const;
};

/// The extra file of a staged cache entry: homogenize() opens `path` and
/// `write` fills it on one of the writer threads, so it must not
/// allocate (see homogenize).
struct StagedFile {
  std::filesystem::path path;
  void (*write)(std::ostream& out, const EdgeList& el);
};

/// Write `el` under `dir/name.*` in every format. Creates `dir` if needed.
/// The files are written concurrently on the default OpenMP team, one
/// task per format, and their bytes do not depend on the team size.
/// Every byte goes through fsx::OutStream, so a full disk surfaces as
/// ResourceExhaustedError, never as a silently truncated file: every
/// task still finishes, then the first error in format order is
/// rethrown. With `staged`, the call stages a cache entry: `*staged` is
/// one more task, and every file is fsynced before it is closed.
HomogenizedDataset homogenize(const EdgeList& el, const std::string& name,
                              const std::filesystem::path& dir,
                              const StagedFile* staged = nullptr);

/// Format-specific readers (for tests and for the systems' own load
/// paths). Each reads the file homogenize() writes for its format.
EdgeList read_graph500_bin(const std::filesystem::path& p);
EdgeList read_gap_sg(const std::filesystem::path& p);
EdgeList read_graphmat_mtx(const std::filesystem::path& p);

/// GraphBIG uses a directory holding vertex.csv and edge.csv.
EdgeList read_graphbig_csv(const std::filesystem::path& dir);

EdgeList read_powergraph_tsv(const std::filesystem::path& p);

/// Ligra consumes the PBBS "(Weighted)AdjacencyGraph" text format:
/// header line, n, m, n offsets, m targets[, m weights].
EdgeList read_ligra_adj(const std::filesystem::path& p);

}  // namespace epgs

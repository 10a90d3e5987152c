#include "serve/graph_session.hpp"

#include <algorithm>
#include <utility>

#include "core/error.hpp"
#include "core/timer.hpp"

namespace epgs::serve {

std::uint64_t edge_list_bytes(const EdgeList& el) {
  return sizeof(EdgeList) +
         static_cast<std::uint64_t>(el.edges.capacity()) * sizeof(Edge);
}

GraphStore::GraphStore(harness::DatasetOptions dataset,
                       std::uint64_t max_resident_bytes, Metrics& metrics)
    : dataset_(std::move(dataset)),
      max_resident_bytes_(max_resident_bytes),
      metrics_(metrics) {}

std::shared_ptr<const ResidentGraph> GraphStore::acquire(
    const harness::GraphSpec& spec) {
  const std::string fp = harness::spec_fingerprint(spec);
  {
    std::lock_guard<std::mutex> lk(mutex_);
    for (auto& [key, slot] : slots_) {
      if (key == fp) {
        slot.hits++;
        slot.last_used = ++tick_;
        metrics_.add_warm_hit();
        return slot.graph;
      }
    }
  }

  // Cold load, outside the lock: materialization can take seconds and
  // must not stall warm hits on other graphs. Two racing cold loads of
  // the same graph both materialize; publish-time dedup below keeps one.
  WallTimer timer;
  auto g = std::make_shared<ResidentGraph>();
  g->spec = spec;
  g->fingerprint = fp;
  g->name = spec.name();
  if (dataset_.enabled()) {
    harness::PreparedDataset prep = harness::prepare_dataset(spec, dataset_);
    g->edges = std::move(prep.edges);
    if (!prep.degraded) {
      g->files = std::move(prep.entry.files);
      g->from_cache_hit = prep.cache_hit;
    }
  } else {
    g->edges = harness::materialize(spec);
  }
  g->bytes = edge_list_bytes(g->edges);
  g->load_seconds = timer.seconds();

  std::lock_guard<std::mutex> lk(mutex_);
  for (auto& [key, slot] : slots_) {
    if (key == fp) {
      // Lost the cold-load race; the published copy wins and ours is
      // dropped (a warm hit as far as the caller is concerned).
      slot.hits++;
      slot.last_used = ++tick_;
      metrics_.add_warm_hit();
      return slot.graph;
    }
  }
  Slot slot;
  slot.graph = g;
  slot.last_used = ++tick_;
  slots_.emplace_back(fp, std::move(slot));
  metrics_.add_cold_load();
  evict_to_budget(fp);
  return g;
}

std::uint64_t GraphStore::total_bytes() const {
  std::uint64_t sum = 0;
  for (const auto& [key, slot] : slots_) {
    sum += slot.graph->bytes + slot.graph->systems.bytes();
  }
  return sum;
}

bool GraphStore::evict_to_budget(const std::string& keep) {
  if (max_resident_bytes_ == 0) return true;
  while (total_bytes() > max_resident_bytes_) {
    // LRU victim among evictable slots: not the just-acquired graph, and
    // not one staged into a running request (shared_ptr held elsewhere).
    std::size_t victim = slots_.size();
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      const auto& [key, slot] = slots_[i];
      if (key == keep) continue;
      if (slot.graph.use_count() > 1) continue;
      if (victim == slots_.size() ||
          slot.last_used < slots_[victim].second.last_used) {
        victim = i;
      }
    }
    if (victim == slots_.size()) return false;  // everything pinned
    slots_.erase(slots_.begin() + static_cast<std::ptrdiff_t>(victim));
    metrics_.add_eviction();
  }
  return true;
}

void GraphStore::charge_systems(const ResidentGraph& graph) {
  std::lock_guard<std::mutex> lk(mutex_);
  if (!evict_to_budget(graph.fingerprint)) graph.systems.clear();
}

std::vector<GraphResidency> GraphStore::residency() const {
  std::lock_guard<std::mutex> lk(mutex_);
  std::vector<GraphResidency> rows;
  rows.reserve(slots_.size());
  for (const auto& [key, slot] : slots_) {
    GraphResidency r;
    r.name = slot.graph->name;
    r.bytes = slot.graph->bytes;
    r.hits = slot.hits;
    r.systems = slot.graph->systems.size();
    r.system_bytes = slot.graph->systems.bytes();
    rows.push_back(std::move(r));
  }
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.name < b.name;
  });
  return rows;
}

std::uint64_t GraphStore::resident_bytes() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return total_bytes();
}

}  // namespace epgs::serve

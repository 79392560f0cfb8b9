#include "dist/pool.h"

#include <unordered_map>
#include <utility>

namespace scpm {
namespace dist {

void FrontierPool::BindTo(const EngineCheckpoint& cp) {
  binding_.num_vertices = cp.num_vertices;
  binding_.num_attributes = cp.num_attributes;
  binding_.num_edges = cp.num_edges;
  binding_.options_fingerprint = cp.options_fingerprint;
  binding_.in_roots_phase = false;
  binding_.valid = true;
}

void FrontierPool::Ingest(const EngineCheckpoint& cp) {
  std::erase_if(by_path_,
                [](const auto& entry) { return entry.second.expired(); });
  std::vector<std::shared_ptr<PoolClass>> classes;
  classes.reserve(cp.classes.size());
  for (const EngineCheckpoint::PendingClass& pc : cp.classes) {
    std::weak_ptr<PoolClass>& live = by_path_[pc.path];
    if (std::shared_ptr<PoolClass> existing = live.lock()) {
      classes.push_back(std::move(existing));
      continue;
    }
    auto cls = std::make_shared<PoolClass>();
    cls->path = pc.path;
    cls->members = pc.members;
    // Hot members never cross a process boundary; drop any the engine
    // attached so the pool holds the cold form only.
    for (EngineCheckpoint::Member& m : cls->members) {
      m.hot_covered.reset();
      m.hot_tidset = HybridVertexSet();
    }
    live = cls;
    classes.push_back(std::move(cls));
  }
  for (const EngineCheckpoint::PendingExpansion& e : cp.expansions) {
    if (e.class_index >= classes.size()) continue;  // validated upstream
    entries_.push_back(PoolEntry{classes[e.class_index], e.sibling});
  }
}

EngineCheckpoint FrontierPool::BuildFrom(
    const std::vector<PoolEntry>& entries) const {
  EngineCheckpoint cp = binding_;
  std::unordered_map<const PoolClass*, std::uint32_t> index;
  for (const PoolEntry& entry : entries) {
    auto [it, inserted] = index.emplace(
        entry.cls.get(), static_cast<std::uint32_t>(cp.classes.size()));
    if (inserted) {
      cp.classes.push_back(
          EngineCheckpoint::PendingClass{entry.cls->path, entry.cls->members});
    }
    cp.expansions.push_back(
        EngineCheckpoint::PendingExpansion{it->second, entry.sibling});
  }
  return cp;
}

EngineCheckpoint FrontierPool::MakeBatch(std::size_t max_entries) {
  std::vector<PoolEntry> batch;
  while (!entries_.empty() && batch.size() < max_entries) {
    batch.push_back(std::move(entries_.front()));
    entries_.pop_front();
  }
  return BuildFrom(batch);
}

EngineCheckpoint FrontierPool::SnapshotRemaining() const {
  return BuildFrom(std::vector<PoolEntry>(entries_.begin(), entries_.end()));
}

void FrontierPool::Append(EngineCheckpoint* dst, const EngineCheckpoint& src) {
  const std::uint32_t base = static_cast<std::uint32_t>(dst->classes.size());
  dst->classes.insert(dst->classes.end(), src.classes.begin(),
                      src.classes.end());
  for (const EngineCheckpoint::PendingExpansion& e : src.expansions) {
    dst->expansions.push_back(
        EngineCheckpoint::PendingExpansion{base + e.class_index, e.sibling});
  }
}

}  // namespace dist
}  // namespace scpm

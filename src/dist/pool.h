// The coordinator's frontier pool: pending expansion entries between
// leases.
//
// The engine's EngineCheckpoint already factors the frontier into
// shared equivalence classes plus per-entry (class, sibling) pairs;
// the pool keeps exactly that factoring with the classes refcounted,
// so carving N entries into a batch copies only the classes that batch
// touches. Entries are independent units of work — which batch an
// entry lands in never changes what it mines (emissions are keyed,
// counters sum), so the pool hands them out FIFO.

#ifndef SCPM_DIST_POOL_H_
#define SCPM_DIST_POOL_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "core/engine.h"

namespace scpm {
namespace dist {

class FrontierPool {
 public:
  /// One evaluated class shared by its pending sibling entries.
  struct PoolClass {
    std::vector<std::uint32_t> path;
    std::vector<EngineCheckpoint::Member> members;
  };
  struct PoolEntry {
    std::shared_ptr<PoolClass> cls;
    std::uint32_t sibling = 0;
  };

  /// Adopts the binding fields (graph shape + options fingerprint) every
  /// batch checkpoint is stamped with. Call once, with the roots-phase
  /// cut checkpoint, before any Ingest.
  void BindTo(const EngineCheckpoint& cp);

  /// Moves a tree-phase checkpoint's entries into the pool (the roots
  /// cut, or a lease's unfinished remainder). A class whose path matches
  /// one still referenced by pool entries is the same class (a lease's
  /// remainder repeats the classes of the batch it was cut from), so
  /// its entries join that PoolClass: a batch never carries one path —
  /// and so one member attribute set — twice.
  void Ingest(const EngineCheckpoint& cp);

  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }

  /// Pops up to `max_entries` entries into a self-contained batch
  /// checkpoint (classes deduplicated, binding stamped).
  EngineCheckpoint MakeBatch(std::size_t max_entries);

  /// A checkpoint of every entry still in the pool, entries untouched —
  /// the durability snapshot's starting point (outstanding leases append
  /// their own batch checkpoints via Append).
  EngineCheckpoint SnapshotRemaining() const;

  /// Appends `src`'s classes and entries onto `dst` (index-shifted).
  /// Both must share dst's binding.
  static void Append(EngineCheckpoint* dst, const EngineCheckpoint& src);

 private:
  EngineCheckpoint BuildFrom(const std::vector<PoolEntry>& entries) const;

  EngineCheckpoint binding_;
  std::deque<PoolEntry> entries_;
  /// Path -> class, alive exactly while some entry in entries_ holds it.
  std::map<std::vector<std::uint32_t>, std::weak_ptr<PoolClass>> by_path_;
};

}  // namespace dist
}  // namespace scpm

#endif  // SCPM_DIST_POOL_H_

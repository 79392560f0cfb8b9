// Cross-query evaluation memo for the SCPM query server.
//
// Within one run the engine keeps each Theorem-3 covered set in the
// equivalence class whose members' children read it, and drops it with
// the class. This cache gives evaluations a lifetime beyond one Mine()
// call: it keeps complete attribute-set evaluations — the covered set K_S, the
// report decision with its stats and patterns, and the extendability
// verdict — across queries, keyed by (graph epoch, options fingerprint,
// attribute set). Because every stored value is a pure function of that
// key (see EvalMemo in core/engine.h), a hit replays the evaluation
// byte-identically; the hot query skips the induced-subgraph build and
// both quasi-clique searches.
//
//  * Striping: entries hash across mutex-guarded shards, so concurrent
//    queries touching unrelated attribute sets do not contend.
//  * Eviction: each shard keeps an exact LRU list under a byte budget
//    (the configured total split evenly across shards); inserting past
//    the budget evicts from the cold end. A single entry larger than a
//    shard's budget is not cached at all.
//  * Epochs: the server bumps the graph epoch on every (re)load. Old
//    epochs can never be looked up again (the epoch is part of the key);
//    BeginEpoch() additionally drops their entries eagerly so a reload
//    frees the memory at once instead of via LRU pressure.
//  * Counters: hits / misses / insertions / evictions / resident bytes,
//    all exact. The totals are deterministic for any interleaving of a
//    fixed multiset of operations; the *hit* split is deterministic
//    whenever queries run one at a time (two racing queries may both
//    miss the same fresh key — each publishes the identical value).

#ifndef SCPM_SERVER_MEMO_H_
#define SCPM_SERVER_MEMO_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/engine.h"
#include "graph/types.h"

namespace scpm {

struct MemoCacheOptions {
  /// Total resident-value budget across all shards (0 disables caching:
  /// every lookup misses, every insert is dropped).
  std::size_t max_bytes = std::size_t{64} << 20;
  /// Mutex stripes. More shards = less contention, coarser LRU (each
  /// shard evicts independently within max_bytes / num_shards).
  std::size_t num_shards = 16;
};

class MemoCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::uint64_t entries = 0;
    std::uint64_t bytes = 0;
  };

  explicit MemoCache(MemoCacheOptions options);
  MemoCache(const MemoCache&) = delete;
  MemoCache& operator=(const MemoCache&) = delete;

  std::shared_ptr<const EvalMemo::Evaluation> Lookup(
      std::uint64_t epoch, std::uint64_t fingerprint,
      const AttributeSet& items);

  /// Inserts (or refreshes) an entry, evicting LRU entries of its shard
  /// as needed. An existing entry for the key is replaced (values for a
  /// key are identical by construction, so this only refreshes recency).
  void Insert(std::uint64_t epoch, std::uint64_t fingerprint,
              const AttributeSet& items,
              std::shared_ptr<const EvalMemo::Evaluation> eval);

  /// Eagerly drops every entry whose epoch differs from `epoch`. Stale
  /// epochs are unreachable either way (the epoch is part of the key);
  /// this frees their memory at reload time. Counts as evictions.
  void BeginEpoch(std::uint64_t epoch);

  /// Exact point-in-time counters (the per-shard locks are taken in
  /// order, so bytes/entries are a consistent sum).
  Stats stats() const;

  /// Approximate resident value bytes of one evaluation (the unit the
  /// byte budget is accounted in). Exposed for sizing tests.
  static std::size_t EvaluationBytes(const EvalMemo::Evaluation& eval);

  /// EvalMemo adapter binding this cache to one (epoch, fingerprint):
  /// what a query run hands to ScpmEngine::set_eval_memo. Copyable view;
  /// the cache must outlive it.
  class BoundView : public EvalMemo {
   public:
    BoundView(MemoCache* cache, std::uint64_t epoch, std::uint64_t fingerprint)
        : cache_(cache), epoch_(epoch), fingerprint_(fingerprint) {}

    std::shared_ptr<const Evaluation> Lookup(
        const AttributeSet& items) override {
      return cache_->Lookup(epoch_, fingerprint_, items);
    }
    void Insert(const AttributeSet& items,
                std::shared_ptr<const Evaluation> eval) override {
      cache_->Insert(epoch_, fingerprint_, items, std::move(eval));
    }

   private:
    MemoCache* cache_;
    std::uint64_t epoch_;
    std::uint64_t fingerprint_;
  };

  BoundView Bind(std::uint64_t epoch, std::uint64_t fingerprint) {
    return BoundView(this, epoch, fingerprint);
  }

 private:
  struct Key {
    std::uint64_t epoch = 0;
    std::uint64_t fingerprint = 0;
    AttributeSet items;

    bool operator==(const Key& other) const {
      return epoch == other.epoch && fingerprint == other.fingerprint &&
             items == other.items;
    }
  };
  struct KeyHash {
    std::size_t operator()(const Key& key) const;
  };
  struct Entry {
    Key key;
    std::shared_ptr<const EvalMemo::Evaluation> eval;
    std::size_t bytes = 0;
  };
  /// One stripe: an exact LRU list (front = most recent) plus the index
  /// into it, both guarded by the shard mutex.
  struct Shard {
    mutable std::mutex mutex;
    std::list<Entry> lru;
    std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index;
    std::size_t bytes = 0;
    std::uint64_t evictions = 0;
  };

  Shard& ShardFor(const Key& key);

  const MemoCacheOptions options_;
  const std::size_t shard_budget_;  // max_bytes / num_shards
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> insertions_{0};
};

}  // namespace scpm

#endif  // SCPM_SERVER_MEMO_H_

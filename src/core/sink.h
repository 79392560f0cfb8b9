// Streaming output sinks for the frontier-driven mining engine.
//
// The engine finalizes attribute sets one frontier entry at a time: once
// an entry's child evaluations complete, every reported child — its stats
// and its patterns — is handed to the run's PatternSink and never touched
// again. A sink therefore chooses the memory profile of a run:
//
//   AccumulatingSink   everything resident, byte-identical ScpmResult
//                      (what ScpmMiner::Mine uses) — O(output) memory.
//   JsonlSink          one JSON line per attribute set, written the
//                      moment the set finalizes — O(frontier) memory.
//   TopKPatternSink    a bounded best-k pattern list — O(k) memory.
//   CallbackSink       user code per finalized set — caller's choice.
//
// Emission keys: every finalized set carries its position in the
// canonical sequential enumeration order (the same lexicographic key the
// parallel engine has always used to make output thread-count
// independent). AccumulatingSink sorts by it; streaming sinks may emit in
// completion order — the *multiset* of emitted sets is deterministic, the
// interleaving across concurrent frontier entries is not (with one worker
// it is fixed by the frontier order).
//
// Threading contract: Emit may be called concurrently from pool workers;
// every sink here synchronizes internally. A non-OK Emit status aborts
// the mining run and surfaces from ScpmEngine::Run.

#ifndef SCPM_CORE_SINK_H_
#define SCPM_CORE_SINK_H_

#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "core/pattern.h"
#include "core/scpm.h"
#include "util/status.h"

namespace scpm {

/// Position of a finalized attribute set in the canonical sequential
/// enumeration order; lexicographic comparison reproduces that order.
using SinkKey = std::vector<std::uint32_t>;

/// One finalized attribute set: its stats row plus its patterns (empty
/// when collect_patterns is off or nothing was covered).
struct AttributeSetOutput {
  AttributeSetStats stats;
  std::vector<StructuralCorrelationPattern> patterns;
};

class PatternSink {
 public:
  virtual ~PatternSink() = default;

  /// Called exactly once per reported attribute set, possibly from
  /// several pool workers at once. Implementations synchronize
  /// internally; a non-OK return aborts the run.
  virtual Status Emit(const SinkKey& key, AttributeSetOutput output) = 0;
};

/// Default sink: buffers every emission and reassembles the classic
/// ScpmResult in sequential enumeration order, byte-identical for any
/// thread count (key sort = sequential emission order, then the global
/// pattern ranking).
class AccumulatingSink : public PatternSink {
 public:
  Status Emit(const SinkKey& key, AttributeSetOutput output) override;

  /// Sorts and flattens the buffered emissions. Counters are the
  /// engine's, not the sink's: ScpmMiner::Mine copies them from the run.
  /// The sink is left empty.
  ScpmResult TakeResult();

 private:
  struct Shard {
    SinkKey key;
    AttributeSetOutput output;
  };
  std::mutex mutex_;
  std::vector<Shard> shards_;
};

/// Streams one self-contained JSON object per attribute set to an
/// ostream, flushing per line so a budget cut (or a crash) loses at most
/// the line being written. With a graph attached, attribute names ride
/// along; vertex ids are always raw.
class JsonlSink : public PatternSink {
 public:
  /// Borrowed stream; must outlive the sink.
  explicit JsonlSink(std::ostream* os, const AttributedGraph* graph = nullptr)
      : os_(os), graph_(graph) {}

  /// Owning variant: opens `path` for truncating write — or, with
  /// `append` set, appends after the lines already there (crash
  /// recovery resumes a cut run into its own output file).
  static Result<std::unique_ptr<JsonlSink>> Create(
      const std::string& path, const AttributedGraph* graph = nullptr,
      bool append = false);

  Status Emit(const SinkKey& key, AttributeSetOutput output) override;

  /// Attribute sets emitted so far.
  std::uint64_t lines_written() const { return lines_; }

 private:
  std::mutex mutex_;
  std::unique_ptr<std::ofstream> owned_;  // set by Create
  std::ostream* os_;
  const AttributedGraph* graph_;
  std::uint64_t lines_ = 0;
};

/// Keeps only the k globally best patterns under the paper's top-k
/// ranking (size desc, min-degree ratio desc, then attributes/vertices),
/// plus a count of sets seen — O(k) resident regardless of output size.
class TopKPatternSink : public PatternSink {
 public:
  explicit TopKPatternSink(std::size_t k) : k_(k == 0 ? 1 : k) {}

  Status Emit(const SinkKey& key, AttributeSetOutput output) override;

  /// The best patterns seen, in ranking order. The sink keeps running.
  std::vector<StructuralCorrelationPattern> best() const;

  std::uint64_t sets_seen() const;

 private:
  const std::size_t k_;
  mutable std::mutex mutex_;
  std::vector<StructuralCorrelationPattern> best_;  // sorted, size <= k_
  std::uint64_t sets_seen_ = 0;
};

/// Forwards each finalized set to a callback (serialized under a mutex,
/// so the callback need not be thread-safe).
class CallbackSink : public PatternSink {
 public:
  using Callback =
      std::function<Status(const SinkKey&, const AttributeSetOutput&)>;
  explicit CallbackSink(Callback callback)
      : callback_(std::move(callback)) {}

  Status Emit(const SinkKey& key, AttributeSetOutput output) override;

 private:
  std::mutex mutex_;
  Callback callback_;
};

}  // namespace scpm

#endif  // SCPM_CORE_SINK_H_

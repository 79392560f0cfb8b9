// One request, one front door.
//
// The library (`ScpmMiner::Mine`), the CLI (`scpm_cli` flag parsing),
// and the wire protocol (`ParseQuerySpec` in src/server/session.cc) all
// historically built their own bundle of ScpmOptions + EngineBudget +
// sink choice, each with its own validation holes.
// MiningRequest is the single struct they now all produce, with a
// single Validate(), and ExecuteRequest() is the single driver that
// turns a request into a MiningResponse.
//
// Layering: this header sits in core/ and knows nothing about JSON or
// sockets; the server's QuerySpec derives from MiningRequest and the
// wire binder fills in the base fields.

#ifndef SCPM_CORE_REQUEST_H_
#define SCPM_CORE_REQUEST_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/scpm.h"
#include "core/sink.h"
#include "graph/attributed_graph.h"
#include "util/result.h"
#include "util/status.h"

namespace scpm {

/// Everything that defines one mining run: what to mine (options), how
/// long it may run (budget), where finalized sets go (sink selection),
/// and which process-wide kernel toggles to apply. Front doors differ
/// only in how they *fill* this struct.
struct MiningRequest {
  enum class Sink { kAccumulate, kJsonl, kTopK };

  ScpmOptions options;
  EngineBudget budget;

  Sink sink = Sink::kAccumulate;
  /// kJsonl destination: a borrowed stream wins over a path (the CLI
  /// streams to stdout); with neither, kJsonl is invalid.
  std::string jsonl_path;
  std::ostream* jsonl_stream = nullptr;
  /// Recovery plumbing, never wire-settable: open jsonl_path appending
  /// instead of truncating, so a resumed run extends the lines its
  /// earlier segments already made durable.
  bool jsonl_append = false;
  /// kTopK: patterns retained.
  std::size_t sink_k = 10;

  /// Periodic durability: with both set, the engine hands `on_checkpoint`
  /// a serializable snapshot of the remaining frontier at wave
  /// boundaries at least `checkpoint_interval_ms` apart, while the run
  /// continues. This is the auto-checkpoint hook the CLI and the query
  /// server build crash recovery on; it never changes what is mined.
  std::uint64_t checkpoint_interval_ms = 0;
  std::function<void(const EngineCheckpoint&, const EngineProgress&)>
      on_checkpoint;

  /// The one validation gate for every front door: options.Validate()
  /// plus the request-level rules (jsonl needs a destination, sink_k
  /// and budget sanity).
  Status Validate() const;
};

/// Outcome of one request: the engine run (counters, budget outcome,
/// checkpoint on a cut) plus the sink-specific payload.
struct MiningResponse {
  MiningRun run;
  /// Sink::kAccumulate — full result; counters mirror run.counters.
  ScpmResult result;
  /// Sink::kTopK.
  std::vector<StructuralCorrelationPattern> top_patterns;
  std::uint64_t top_sets_seen = 0;
  /// Sink::kJsonl.
  std::uint64_t jsonl_lines = 0;
};

/// The request's sink objects, owned by the caller for as many engine
/// segments as it drives — this is what lets a preempted server query
/// keep one sink alive across slices (no duplicate or lost finalized
/// sets) and harvest the payload exactly once at the end.
class RequestSinks {
 public:
  /// Builds the sink selected by `request`. `graph` annotates JSONL
  /// lines with attribute names; it may be nullptr.
  static Result<std::unique_ptr<RequestSinks>> Create(
      const MiningRequest& request, const AttributedGraph* graph);

  /// The sink to hand to ScpmEngine::Run/Resume.
  PatternSink* sink() { return active_; }

  /// Harvests the sink payload into `response` (whose `run` the caller
  /// has already filled). Call once, after the final segment.
  void Harvest(const MiningRequest& request, MiningResponse* response);

  /// Lines the jsonl sink has written so far (0 for other sinks); the
  /// server journals this at every durability snapshot.
  std::uint64_t jsonl_lines() const {
    return jsonl_ != nullptr ? jsonl_->lines_written() : 0;
  }

 private:
  RequestSinks() = default;

  AccumulatingSink accumulate_;
  std::unique_ptr<JsonlSink> jsonl_;
  std::unique_ptr<TopKPatternSink> topk_;
  PatternSink* active_ = nullptr;
};

/// Runs one request start-to-finish (or to its budget cut) on `graph`.
/// `null_model` is borrowed and may be nullptr; `resume` continues a
/// previous run's checkpoint instead of starting fresh. This is the
/// one-shot driver; the server drives slices itself with the same
/// RequestSinks machinery.
Result<MiningResponse> ExecuteRequest(const AttributedGraph& graph,
                                      const MiningRequest& request,
                                      ExpectationModel* null_model = nullptr,
                                      const EngineCheckpoint* resume = nullptr);

}  // namespace scpm

#endif  // SCPM_CORE_REQUEST_H_

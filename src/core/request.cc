#include "core/request.h"

#include <utility>

#include "util/fault.h"

namespace scpm {

Status MiningRequest::Validate() const {
  SCPM_RETURN_IF_ERROR(options.Validate());
  if (sink == Sink::kJsonl && jsonl_stream == nullptr && jsonl_path.empty()) {
    return Status::InvalidArgument(
        "sink \"jsonl\" requires an output path or stream");
  }
  if (sink == Sink::kTopK && sink_k == 0) {
    return Status::InvalidArgument("sink_k must be >= 1");
  }
  if (checkpoint_interval_ms != 0 && on_checkpoint == nullptr) {
    return Status::InvalidArgument(
        "checkpoint_interval_ms requires an on_checkpoint callback");
  }
  return Status::OK();
}

Result<std::unique_ptr<RequestSinks>> RequestSinks::Create(
    const MiningRequest& request, const AttributedGraph* graph) {
  if (FaultInjector::Instance().ShouldFail(fault::kAlloc)) {
    return Status::ResourceExhausted("injected fault: sink allocation");
  }
  auto sinks = std::unique_ptr<RequestSinks>(new RequestSinks());
  switch (request.sink) {
    case MiningRequest::Sink::kAccumulate:
      sinks->active_ = &sinks->accumulate_;
      break;
    case MiningRequest::Sink::kJsonl:
      if (request.jsonl_stream != nullptr) {
        sinks->jsonl_ =
            std::make_unique<JsonlSink>(request.jsonl_stream, graph);
      } else {
        Result<std::unique_ptr<JsonlSink>> opened = JsonlSink::Create(
            request.jsonl_path, graph, request.jsonl_append);
        SCPM_RETURN_IF_ERROR(opened.status());
        sinks->jsonl_ = std::move(opened).value();
      }
      sinks->active_ = sinks->jsonl_.get();
      break;
    case MiningRequest::Sink::kTopK:
      sinks->topk_ = std::make_unique<TopKPatternSink>(request.sink_k);
      sinks->active_ = sinks->topk_.get();
      break;
  }
  return sinks;
}

void RequestSinks::Harvest(const MiningRequest& request,
                           MiningResponse* response) {
  switch (request.sink) {
    case MiningRequest::Sink::kAccumulate:
      response->result = accumulate_.TakeResult();
      response->result.counters = response->run.counters;
      break;
    case MiningRequest::Sink::kJsonl:
      response->jsonl_lines = jsonl_->lines_written();
      break;
    case MiningRequest::Sink::kTopK:
      response->top_patterns = topk_->best();
      response->top_sets_seen = topk_->sets_seen();
      break;
  }
}

Result<MiningResponse> ExecuteRequest(const AttributedGraph& graph,
                                      const MiningRequest& request,
                                      ExpectationModel* null_model,
                                      const EngineCheckpoint* resume) {
  SCPM_RETURN_IF_ERROR(request.Validate());
  Result<std::unique_ptr<RequestSinks>> sinks =
      RequestSinks::Create(request, &graph);
  SCPM_RETURN_IF_ERROR(sinks.status());

  ScpmEngine engine(request.options, null_model);
  engine.set_budget(request.budget);
  if (request.checkpoint_interval_ms != 0) {
    engine.set_checkpoint_observer(request.checkpoint_interval_ms,
                                   request.on_checkpoint);
  }
  Result<MiningRun> run =
      resume != nullptr ? engine.Resume(graph, *resume, (*sinks)->sink())
                        : engine.Run(graph, (*sinks)->sink());
  SCPM_RETURN_IF_ERROR(run.status());

  MiningResponse response;
  response.run = std::move(run).value();
  (*sinks)->Harvest(request, &response);
  return response;
}

Result<MiningResponse> ScpmMiner::Mine(const AttributedGraph& graph,
                                       const MiningRequest& request) {
  return ExecuteRequest(graph, request, null_model_);
}

}  // namespace scpm

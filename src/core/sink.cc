#include "core/sink.h"

#include <algorithm>
#include <utility>

#include "util/json_text.h"

namespace scpm {

Status AccumulatingSink::Emit(const SinkKey& key, AttributeSetOutput output) {
  std::lock_guard<std::mutex> lock(mutex_);
  shards_.push_back(Shard{key, std::move(output)});
  return Status::OK();
}

ScpmResult AccumulatingSink::TakeResult() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::sort(shards_.begin(), shards_.end(),
            [](const Shard& a, const Shard& b) { return a.key < b.key; });
  ScpmResult result;
  result.attribute_sets.reserve(shards_.size());
  for (Shard& shard : shards_) {
    result.attribute_sets.push_back(std::move(shard.output.stats));
    for (auto& p : shard.output.patterns) {
      result.patterns.push_back(std::move(p));
    }
  }
  shards_.clear();
  SortPatterns(&result.patterns);
  return result;
}

Result<std::unique_ptr<JsonlSink>> JsonlSink::Create(
    const std::string& path, const AttributedGraph* graph, bool append) {
  auto file = std::make_unique<std::ofstream>(
      path, append ? std::ios::app : std::ios::trunc);
  if (!file->is_open()) {
    return Status::IoError("cannot open JSONL output: " + path);
  }
  auto sink = std::make_unique<JsonlSink>(file.get(), graph);
  sink->owned_ = std::move(file);
  return sink;
}

Status JsonlSink::Emit(const SinkKey& key, AttributeSetOutput output) {
  (void)key;
  std::string line;
  line.reserve(128 + 32 * output.patterns.size());
  line += "{\"attributes\":";
  AppendJsonIdArray(&line, output.stats.attributes);
  if (graph_ != nullptr) {
    line += ",\"names\":[";
    for (std::size_t i = 0; i < output.stats.attributes.size(); ++i) {
      if (i != 0) line += ',';
      AppendJsonString(&line,
                       graph_->AttributeName(output.stats.attributes[i]));
    }
    line += ']';
  }
  line += ",\"support\":";
  AppendJsonNumber(&line, static_cast<double>(output.stats.support));
  line += ",\"covered\":";
  AppendJsonNumber(&line, static_cast<double>(output.stats.covered));
  line += ",\"epsilon\":";
  AppendJsonNumber(&line, output.stats.epsilon);
  line += ",\"expected_epsilon\":";
  AppendJsonNumber(&line, output.stats.expected_epsilon);
  line += ",\"delta\":";
  AppendJsonNumber(&line, output.stats.delta);
  line += ",\"patterns\":[";
  for (std::size_t i = 0; i < output.patterns.size(); ++i) {
    const StructuralCorrelationPattern& p = output.patterns[i];
    if (i != 0) line += ',';
    line += "{\"vertices\":";
    AppendJsonIdArray(&line, p.vertices);
    line += ",\"gamma\":";
    AppendJsonNumber(&line, p.min_degree_ratio);
    line += ",\"density\":";
    AppendJsonNumber(&line, p.edge_density);
    line += '}';
  }
  line += "]}\n";

  std::lock_guard<std::mutex> lock(mutex_);
  os_->write(line.data(), static_cast<std::streamsize>(line.size()));
  os_->flush();
  if (!os_->good()) return Status::IoError("JSONL sink write failed");
  ++lines_;
  return Status::OK();
}

Status TopKPatternSink::Emit(const SinkKey& key, AttributeSetOutput output) {
  (void)key;
  std::lock_guard<std::mutex> lock(mutex_);
  ++sets_seen_;
  for (StructuralCorrelationPattern& p : output.patterns) {
    auto pos = std::lower_bound(best_.begin(), best_.end(), p,
                                PatternRankLess);
    if (pos == best_.end() && best_.size() >= k_) continue;
    best_.insert(pos, std::move(p));
    if (best_.size() > k_) best_.pop_back();
  }
  return Status::OK();
}

std::vector<StructuralCorrelationPattern> TopKPatternSink::best() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return best_;
}

std::uint64_t TopKPatternSink::sets_seen() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sets_seen_;
}

Status CallbackSink::Emit(const SinkKey& key, AttributeSetOutput output) {
  std::lock_guard<std::mutex> lock(mutex_);
  return callback_(key, output);
}

}  // namespace scpm

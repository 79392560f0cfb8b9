// scpm_perfbench: measurement harness behind perfbench/run.py.
//
// Every layer is timed from outside, around calls into its public
// functions; nothing under src/ is instrumented. Subcommands:
//
//   gen    --kind citeseer|lastfm --scale X --seed S --order-seed N
//          --shuffle edges|attributes --out PREFIX
//          Writes PREFIX.edges / PREFIX.attrs from GenerateSynthetic(S),
//          the lines of one file in an order drawn from N.
//   batch  --edges E --attrs A --query JSON --threads T --seconds R
//          --trace 0|1 --server BIN --workdir DIR --max-concurrent C
//          --slice-ms MS --memo-mb MB [--pin DIGEST] [--corrupt-replay 1]
//          Mines one request repeatedly through ExecuteRequest (trace 0),
//          or runs the traced breakdown, including the same request
//          through scpm_serve_cli (trace 1).
//   serve  the batch flags without --query, plus --queries FILE
//          --clients N --ref-threads T --trace-threads T
//          Drives scpm_serve_cli with a closed loop of submit+wait queries,
//          one fresh connection per query. --pin checks the digest over
//          every distinct spec's reference result.
//
// Each subcommand prints one JSON object as its last stdout line:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name: value}}.
// Progress and every correctness check ("perfbench check <name>: ok")
// go to stderr. Exit code 1 means a check failed or a run errored.

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/request.h"
#include "core/sink.h"
#include "core/statistics.h"
#include "core/validation.h"
#include "datasets/synthetic.h"
#include "graph/io.h"
#include "graph/subgraph.h"
#include "qclique/miner.h"
#include "server/json.h"
#include "server/session.h"
#include "util/hybrid_set.h"

extern char** environ;

namespace {

using Clock = std::chrono::steady_clock;
using scpm::AttributeSet;
using scpm::AttributedGraph;
using scpm::JsonValue;
using scpm::MiningRequest;
using scpm::ScpmOptions;
using scpm::ScpmResult;
using scpm::VertexSet;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double SecondsSince(Clock::time_point from) {
  return Seconds(from, Clock::now());
}

/// Linear interpolation between order statistics (q in [0, 1]).
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - std::floor(pos));
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

[[noreturn]] void Die(const std::string& message) {
  std::cerr << "perfbench: " << message << "\n";
  std::exit(1);
}

/// --key value pairs after the subcommand.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; i += 2) {
      if (std::strncmp(argv[i], "--", 2) != 0 || i + 1 >= argc) {
        Die(std::string("bad argument: ") + argv[i]);
      }
      values_[argv[i] + 2] = argv[i + 1];
    }
  }
  std::string Get(const std::string& key) const {
    auto it = values_.find(key);
    if (it == values_.end()) Die("missing --" + key);
    return it->second;
  }
  std::string GetOr(const std::string& key, const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  double Number(const std::string& key) const {
    return std::strtod(Get(key).c_str(), nullptr);
  }
  double NumberOr(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback
                               : std::strtod(it->second.c_str(), nullptr);
  }

 private:
  std::map<std::string, std::string> values_;
};

/// Metric values plus the run's correctness tally; Print() writes the
/// result line.
class Report {
 public:
  void Add(const std::string& name, double value) { metrics_[name] = value; }

  /// Records one correctness check. A failed check makes the run
  /// incorrect and the process exit non-zero.
  bool Check(const std::string& name, bool ok, const std::string& detail) {
    std::cerr << "perfbench check " << name << ": " << (ok ? "ok" : "FAILED")
              << (detail.empty() ? "" : " (" + detail + ")") << "\n";
    if (!ok) correct_ = false;
    return ok;
  }

  void Attempt(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  int Print() const {
    const bool correct = correct_ && failed_ == 0 && attempted_ > 0;
    std::ostringstream os;
    os << "{\"correct\":" << (correct ? "true" : "false")
       << ",\"attempted\":" << attempted_ << ",\"failed\":" << failed_
       << ",\"metrics\":{";
    bool first = true;
    for (const auto& [name, value] : metrics_) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g",
                    std::isfinite(value) ? value : 0.0);
      os << (first ? "" : ",") << scpm::JsonQuote(name) << ":" << buf;
      first = false;
    }
    os << "}}";
    std::cout << os.str() << std::endl;
    return correct ? 0 : 1;
  }

 private:
  std::map<std::string, double> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
};

/// "VmHWM:" / "VmSize:" of /proc/<pid>/status in MiB (0 when absent).
double ProcStatusMb(const std::string& pid, const std::string& key) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      return std::strtod(line.c_str() + key.size(), nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// CPU time of the whole process, every thread included.
double ProcessCpuSeconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

// ---------------------------------------------------------------- digests

/// FNV-1a 64 over the lines, each followed by a newline, as 16 hex digits.
std::string HashLines(const std::vector<std::string>& lines) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const std::string& line : lines) {
    for (unsigned char c : line + "\n") hash = (hash ^ c) * 1099511628211ULL;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

/// Canonical digest of a result's rows and patterns: one line per row
/// and per pattern, attributes by name, lines sorted, FNV-1a 64 over the
/// lot. Names and sorting make it independent of attribute ids, which
/// follow the order of the input's attribute lines (the seed shuffles
/// it); doubles fixed to 9 decimals make the wire form (shortest
/// round-trip numbers) and the in-memory form digest identically.
class Digest {
 public:
  explicit Digest(const AttributedGraph& graph) : graph_(graph) {}

  void Row(const std::vector<std::uint64_t>& attrs, std::uint64_t support,
           std::uint64_t covered) {
    lines_.push_back("R" + Names(attrs) + "|" + std::to_string(support) +
                     "|" + std::to_string(covered));
  }
  void Pattern(const std::vector<std::uint64_t>& attrs,
               const std::vector<std::uint64_t>& vertices, double ratio,
               double density) {
    std::string line = "P" + Names(attrs) + "|";
    for (std::uint64_t v : vertices) line += std::to_string(v) + ",";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "|%.9f|%.9f", ratio, density);
    lines_.push_back(line + buf);
  }
  std::string Hex() {
    std::sort(lines_.begin(), lines_.end());
    return HashLines(lines_);
  }

 private:
  std::string Names(const std::vector<std::uint64_t>& attrs) const {
    std::vector<std::string> names;
    for (std::uint64_t a : attrs) {
      const auto id = static_cast<scpm::AttributeId>(a);
      names.push_back(a < graph_.NumAttributes() ? graph_.AttributeName(id)
                                                 : "#" + std::to_string(a));
    }
    std::sort(names.begin(), names.end());
    std::string out;
    for (const std::string& n : names) out += n + ",";
    return out;
  }

  const AttributedGraph& graph_;
  std::vector<std::string> lines_;
};

template <typename T>
std::vector<std::uint64_t> Widen(const std::vector<T>& values) {
  return std::vector<std::uint64_t>(values.begin(), values.end());
}

std::string DigestResult(const AttributedGraph& graph,
                         const ScpmResult& result) {
  Digest d(graph);
  for (const scpm::AttributeSetStats& s : result.attribute_sets) {
    d.Row(Widen(s.attributes), s.support, s.covered);
  }
  for (const scpm::StructuralCorrelationPattern& p : result.patterns) {
    d.Pattern(Widen(p.attributes), Widen(p.vertices), p.min_degree_ratio,
              p.edge_density);
  }
  return d.Hex();
}

std::vector<std::uint64_t> WireIds(const JsonValue* array) {
  std::vector<std::uint64_t> out;
  if (array == nullptr || !array->is_array()) return out;
  for (const JsonValue& v : array->AsArray()) {
    out.push_back(static_cast<std::uint64_t>(v.AsNumber()));
  }
  return out;
}

/// Digest of an accumulate "result" object from the wire; `graph` is the
/// harness's load of the file the server loaded, so ids agree.
std::string DigestWire(const AttributedGraph& graph, const JsonValue& result) {
  Digest d(graph);
  if (const JsonValue* rows = result.Find("attribute_sets");
      rows != nullptr && rows->is_array()) {
    for (const JsonValue& r : rows->AsArray()) {
      d.Row(WireIds(r.Find("attributes")),
            static_cast<std::uint64_t>(r.NumberOr("support", -1)),
            static_cast<std::uint64_t>(r.NumberOr("covered", -1)));
    }
  }
  if (const JsonValue* patterns = result.Find("patterns");
      patterns != nullptr && patterns->is_array()) {
    for (const JsonValue& p : patterns->AsArray()) {
      d.Pattern(WireIds(p.Find("attributes")), WireIds(p.Find("vertices")),
                p.NumberOr("min_degree_ratio", -1),
                p.NumberOr("edge_density", -1));
    }
  }
  return d.Hex();
}

// ------------------------------------------------------------ shared steps

/// Loads the graph three times (the set-up cost users pay per process;
/// setup_s is the median) and keeps the last copy.
std::shared_ptr<const AttributedGraph> LoadTimed(const Args& args,
                                                 std::vector<double>* times) {
  std::shared_ptr<const AttributedGraph> graph;
  for (int i = 0; i < 3; ++i) {
    graph.reset();
    const auto t0 = Clock::now();
    scpm::Result<AttributedGraph> loaded =
        scpm::LoadAttributedGraph(args.Get("edges"), args.Get("attrs"));
    times->push_back(SecondsSince(t0));
    if (!loaded.ok()) Die("load failed: " + loaded.status().ToString());
    graph = std::make_shared<const AttributedGraph>(std::move(loaded).value());
  }
  std::cerr << "perfbench: loaded " << graph->NumVertices() << " vertices, "
            << graph->graph().NumEdges() << " edges, "
            << graph->NumAttributes() << " attributes\n";
  return graph;
}

/// The wire binder is the one JSON -> MiningRequest mapping; batch runs
/// use it too so every workload's parameters read the same way.
MiningRequest ParseRequest(const std::string& text) {
  scpm::Result<JsonValue> json = JsonValue::Parse(text);
  if (!json.ok()) Die("bad query json: " + text);
  scpm::Result<scpm::QuerySpec> spec = scpm::ParseQuerySpec(*json);
  if (!spec.ok()) Die("bad query: " + spec.status().ToString());
  return static_cast<const MiningRequest&>(*spec);
}

struct TimedResult {
  double seconds = 0.0;
  std::optional<ScpmResult> result;  // empty when the request failed
};

/// Stride sample of at most `max` of `n` indices.
bool Sampled(std::size_t i, std::size_t n, std::size_t max) {
  const std::size_t stride = std::max<std::size_t>(1, (n + max - 1) / max);
  return i % stride == 0;
}

/// ValidateResult on a stride sample of at most 2000 rows and 200
/// patterns (plus the rows those patterns belong to): a full check of a
/// 500k-row lattice takes minutes, longer than a whole run.
scpm::Status ValidateSample(const AttributedGraph& graph,
                            const ScpmOptions& options,
                            const ScpmResult& result) {
  constexpr std::size_t kMaxRows = 2000;
  constexpr std::size_t kMaxPatterns = 200;
  ScpmResult sample;
  std::vector<AttributeSet> with_patterns;
  for (std::size_t i = 0; i < result.patterns.size(); ++i) {
    if (!Sampled(i, result.patterns.size(), kMaxPatterns)) continue;
    sample.patterns.push_back(result.patterns[i]);
    with_patterns.push_back(result.patterns[i].attributes);
  }
  std::sort(with_patterns.begin(), with_patterns.end());
  const std::size_t rows = result.attribute_sets.size();
  for (std::size_t i = 0; i < rows; ++i) {
    const scpm::AttributeSetStats& row = result.attribute_sets[i];
    if (Sampled(i, rows, kMaxRows) ||
        std::binary_search(with_patterns.begin(), with_patterns.end(),
                           row.attributes)) {
      sample.attribute_sets.push_back(row);
    }
  }
  return scpm::ValidateResult(graph, options, sample);
}

TimedResult MineOnce(const AttributedGraph& graph,
                     const MiningRequest& request) {
  TimedResult out;
  const auto t0 = Clock::now();
  scpm::Result<scpm::MiningResponse> response =
      scpm::ExecuteRequest(graph, request);
  out.seconds = SecondsSince(t0);
  if (!response.ok()) {
    std::cerr << "perfbench: request failed: " << response.status() << "\n";
    return out;
  }
  out.result = std::move(response->result);
  return out;
}

// ------------------------------------------------------------------ trace

/// One attribute-set evaluation as seen from the EvalMemo hook.
struct EvalRecord {
  AttributeSet items;
  std::shared_ptr<const scpm::EvalMemo::Evaluation> eval;
  Clock::time_point start;
  double span_s = 0.0;   // Lookup -> Insert, nested spans included
  double self_s = 0.0;   // span minus nested spans
};

/// Always-miss memo that turns the engine's Lookup/Insert pair around
/// every evaluation into a span. Lookup and Insert of one evaluation run
/// on the same thread; a waiter that help-executes another evaluation
/// opens a nested span, which the per-thread stack subtracts from its
/// parent's self time.
class RecordingMemo final : public scpm::EvalMemo {
 public:
  std::shared_ptr<const Evaluation> Lookup(const AttributeSet& items) override {
    Stack().push_back({items, Clock::now(), 0.0});
    return nullptr;
  }

  void Insert(const AttributeSet& items,
              std::shared_ptr<const Evaluation> eval) override {
    const auto end = Clock::now();
    std::vector<OpenSpan>& stack = Stack();
    if (stack.empty() || stack.back().items != items) {
      unmatched_.store(true);
      return;
    }
    OpenSpan span = std::move(stack.back());
    stack.pop_back();
    const double seconds = Seconds(span.start, end);
    if (!stack.empty()) stack.back().nested_s += seconds;
    std::lock_guard<std::mutex> lock(mutex_);
    records_.push_back({std::move(span.items), std::move(eval), span.start,
                        seconds, seconds - span.nested_s});
  }

  std::vector<EvalRecord> Take() { return std::move(records_); }
  bool unmatched() const { return unmatched_.load(); }

 private:
  struct OpenSpan {
    AttributeSet items;
    Clock::time_point start;
    double nested_s = 0.0;
  };
  static std::vector<OpenSpan>& Stack() {
    thread_local std::vector<OpenSpan> stack;
    return stack;
  }

  std::mutex mutex_;
  std::vector<EvalRecord> records_;
  std::atomic<bool> unmatched_{false};
};

/// Times every Emit into the real (accumulating) sink.
class TimingSink final : public scpm::PatternSink {
 public:
  scpm::Status Emit(const scpm::SinkKey& key,
                    scpm::AttributeSetOutput output) override {
    const auto t0 = Clock::now();
    scpm::Status status = inner_.Emit(key, std::move(output));
    emit_ns_.fetch_add(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
            .count()));
    emits_.fetch_add(1);
    return status;
  }
  scpm::AccumulatingSink& inner() { return inner_; }
  double emit_s() const { return static_cast<double>(emit_ns_.load()) * 1e-9; }
  std::uint64_t emits() const { return emits_.load(); }

 private:
  scpm::AccumulatingSink inner_;
  std::atomic<std::uint64_t> emit_ns_{0};
  std::atomic<std::uint64_t> emits_{0};
};

/// 1-thread replay of every recorded evaluation through the public layer
/// functions: Eclat tidset intersection, Theorem-3 universe, G(S) build,
/// coverage search, top-k search. Verifies each recorded outcome.
void Replay(const AttributedGraph& graph, const ScpmOptions& options,
            std::vector<EvalRecord>* records, double mine_1t_s,
            Report* report) {
  const scpm::VertexId universe_n =
      options.use_hybrid_sets ? graph.NumVertices() : 0;
  std::vector<const EvalRecord*> order;
  order.reserve(records->size());
  for (const EvalRecord& r : *records) order.push_back(&r);
  std::sort(order.begin(), order.end(),
            [](const EvalRecord* a, const EvalRecord* b) {
              if (a->items.size() != b->items.size()) {
                return a->items.size() < b->items.size();
              }
              return a->items < b->items;
            });

  struct Parent {
    scpm::HybridVertexSet tidset;
    scpm::HybridVertexSet covered;
  };
  std::map<AttributeSet, Parent> prev_level;
  std::map<AttributeSet, Parent> level;
  std::size_t level_size = 1;

  scpm::SubgraphWorkspace workspace;
  scpm::QuasiCliqueMiner miner(options.miner_options());
  miner.set_workspace(&workspace);

  double isect_s = 0, build_s = 0, coverage_s = 0, coverage_max_s = 0,
         topk_s = 0;
  std::uint64_t isects = 0, builds = 0, coverage_candidates = 0, pruned = 0,
                topk_candidates = 0, mismatches = 0;
  std::vector<double> single_eval_s;
  std::string first_mismatch;

  for (const EvalRecord* r : order) {
    if (r->items.size() != level_size) {
      prev_level = std::move(level);
      level.clear();
      level_size = r->items.size();
    }
    const std::size_t k = r->items.size();
    scpm::HybridVertexSet tidset;
    scpm::HybridVertexSet universe;
    auto t0 = Clock::now();
    if (k == 1) {
      tidset = scpm::HybridVertexSet::View(&graph.VerticesWith(r->items[0]),
                                           universe_n);
      tidset.Normalize(nullptr);
      universe = tidset;
    } else {
      // Sorted-prefix parents: S minus its last item and S minus its
      // second-to-last item, the two class siblings that generated S.
      AttributeSet pa(r->items.begin(), r->items.end() - 1);
      AttributeSet pb = pa;
      pb.back() = r->items.back();
      auto a = prev_level.find(pa);
      auto b = prev_level.find(pb);
      if (a == prev_level.end() || b == prev_level.end()) {
        ++mismatches;
        if (first_mismatch.empty()) first_mismatch = "parent not recorded";
        continue;
      }
      scpm::HybridVertexSet::Intersect(a->second.tidset, b->second.tidset,
                                       &tidset, nullptr);
      ++isects;
      universe = tidset;
      if (options.use_vertex_pruning) {
        for (const Parent* p : {&a->second, &b->second}) {
          scpm::HybridVertexSet tmp;
          scpm::HybridVertexSet::Intersect(universe, p->covered, &tmp, nullptr);
          universe = std::move(tmp);
          ++isects;
        }
      }
    }
    auto t1 = Clock::now();
    isect_s += Seconds(t0, t1);
    const std::size_t support = tidset.size();

    const bool intra = options.intra_search_min_universe != 0 &&
                       universe.size() >= options.intra_search_min_universe;
    miner.set_spawn_depth(intra ? options.intra_search_spawn_depth : 0);
    scpm::Result<scpm::InducedSubgraph> sub =
        workspace.Build(graph.graph(), std::move(universe));
    auto t2 = Clock::now();
    build_s += Seconds(t1, t2);
    ++builds;
    if (!sub.ok()) Die("replay G(S) build failed: " + sub.status().ToString());
    scpm::Result<VertexSet> covered = miner.MineCoverage(sub->graph());
    auto t3 = Clock::now();
    const double cov = Seconds(t2, t3);
    coverage_s += cov;
    coverage_max_s = std::max(coverage_max_s, cov);
    if (!covered.ok()) Die("replay coverage failed");
    coverage_candidates += miner.stats().candidates_processed;
    pruned += miner.stats().pruned_by_coverage;
    VertexSet covered_global = sub->ToGlobal(*covered);

    // The engine's report / extend decisions (no null model: delta = eps).
    const double eps =
        support == 0 ? 0.0
                     : static_cast<double>(covered_global.size()) /
                           static_cast<double>(support);
    const bool reported = eps >= options.min_epsilon &&
                          eps >= options.min_delta &&
                          k >= options.min_report_size;
    const double mass = eps * static_cast<double>(support);
    const bool extendable =
        !(options.use_epsilon_pruning &&
          mass <
              options.min_epsilon * static_cast<double>(options.min_support));
    const scpm::EvalMemo::Evaluation& want = *r->eval;
    std::string why;
    if (reported != want.reported) why = "report decision";
    if (extendable != want.extendable) why = "extend decision";
    if (want.extendable && covered_global != want.covered) why = "K_S";
    if (want.reported && covered_global.size() != want.output.stats.covered) {
      why = "|K_S|";
    }

    if (reported && options.collect_patterns && !covered_global.empty() &&
        options.pattern_scope == scpm::PatternScope::kTopK) {
      scpm::Result<std::vector<scpm::RankedQuasiClique>> top =
          miner.MineTopK(sub->graph(), options.top_k);
      if (!top.ok()) Die("replay top-k failed");
      topk_candidates += miner.stats().candidates_processed;
      if (top->size() != want.output.patterns.size()) {
        why = "pattern count";
      } else {
        for (std::size_t i = 0; i < top->size(); ++i) {
          if (sub->ToGlobal((*top)[i].vertices) !=
              want.output.patterns[i].vertices) {
            why = "pattern vertices";
          }
        }
      }
    }
    auto t4 = Clock::now();
    topk_s += Seconds(t3, t4);
    workspace.Recycle(std::move(sub).value());
    if (k == 1) single_eval_s.push_back(Seconds(t0, t4));

    if (!why.empty()) {
      ++mismatches;
      if (first_mismatch.empty()) {
        first_mismatch = why + " of a " + std::to_string(k) + "-attribute set";
      }
    }
    if (want.extendable) {
      level[r->items] = Parent{
          std::move(tidset), scpm::HybridVertexSet::FromVector(
                                 want.covered, universe_n, nullptr)};
    }
  }
  report->Check("replay", mismatches == 0,
                std::to_string(order.size()) + " evaluations replayed, " +
                    std::to_string(mismatches) + " mismatched" +
                    (first_mismatch.empty() ? ""
                                            : ", first: " + first_mismatch));

  std::sort(single_eval_s.rbegin(), single_eval_s.rend());
  double top2 = 0.0;
  for (std::size_t i = 0; i < std::min<std::size_t>(2, single_eval_s.size());
       ++i) {
    top2 += single_eval_s[i];
  }
  report->Add("graph.gs_build_s", build_s);
  report->Add("graph.gs_builds", static_cast<double>(builds));
  report->Add("qclique.coverage_s", coverage_s);
  report->Add("qclique.coverage_max_s", coverage_max_s);
  report->Add("qclique.coverage_candidates",
              static_cast<double>(coverage_candidates));
  report->Add("qclique.coverage_prune_ratio",
              coverage_candidates == 0
                  ? 0.0
                  : static_cast<double>(pruned) /
                        static_cast<double>(coverage_candidates));
  report->Add("qclique.topk_s", topk_s);
  report->Add("qclique.topk_candidates", static_cast<double>(topk_candidates));
  report->Add("qclique.coverage_share_1t", coverage_s / mine_1t_s);
  report->Add("core.top2_eval_share_1t", top2 / mine_1t_s);
  report->Add("util.isect_s", isect_s);
  report->Add("util.isects", static_cast<double>(isects));
}

/// The traced breakdown of one request: an untraced run, a traced run
/// (memo spans, wave boundaries, timed sink), a 1-thread run, then the
/// 1-thread replay. All three runs must produce the same digest, which
/// is returned (empty when a run failed).
std::string TraceRequest(const AttributedGraph& graph, MiningRequest request,
                         bool corrupt_replay, Report* report) {
  const std::size_t threads = request.options.num_threads;
  TimedResult untraced = MineOnce(graph, request);
  report->Attempt(untraced.result.has_value());
  if (!untraced.result) return "";
  const std::string digest = DigestResult(graph, *untraced.result);
  untraced.result.reset();

  // Busy time is process CPU time: eval spans miss the branch tasks that
  // other pool threads run for a large evaluation's intra-search.
  struct Wave {
    Clock::time_point at;
    double cpu_s;
    std::uint64_t evaluations;
  };
  scpm::ScpmEngine engine(request.options);
  engine.set_budget(request.budget);
  RecordingMemo memo;
  std::vector<Wave> waves;
  engine.set_eval_memo(&memo);
  engine.set_progress([&waves](const scpm::EngineProgress& p) {
    waves.push_back({Clock::now(), ProcessCpuSeconds(), p.evaluations});
  });
  TimingSink sink;
  const auto t0 = Clock::now();
  const double cpu0 = ProcessCpuSeconds();
  scpm::Result<scpm::MiningRun> run = engine.Run(graph, &sink);
  const double cpu_end = ProcessCpuSeconds();
  const auto run_end = Clock::now();
  report->Attempt(run.ok());
  if (!run.ok()) return "";
  ScpmResult result = sink.inner().TakeResult();
  result.counters = run->counters;
  const auto t1 = Clock::now();
  const double traced_s = Seconds(t0, t1);
  report->Check("traced_digest", DigestResult(graph, result) == digest,
                "traced run matches untraced run");

  std::vector<EvalRecord> records = memo.Take();
  report->Check("trace_spans",
                !memo.unmatched() &&
                    records.size() == run->counters.attribute_sets_evaluated,
                std::to_string(records.size()) + " spans for " +
                    std::to_string(run->counters.attribute_sets_evaluated) +
                    " evaluations");

  // Phases and waves from the progress observer.
  std::uint64_t singles = 0;
  double self_s = 0.0, max_span_s = 0.0;
  for (const EvalRecord& r : records) {
    if (r.items.size() == 1) ++singles;
    self_s += r.self_s;
    max_span_s = std::max(max_span_s, r.span_s);
  }
  Clock::time_point roots_end = t0;
  double roots_cpu = cpu0;
  std::vector<double> wave_s;
  Clock::time_point prev = t0;
  bool roots_done = singles == 0;
  for (const Wave& w : waves) {
    wave_s.push_back(Seconds(prev, w.at));
    prev = w.at;
    if (!roots_done && w.evaluations >= singles) {
      roots_end = w.at;
      roots_cpu = w.cpu_s;
      roots_done = true;
    }
  }
  // Share of the threads' capacity left unused: over the lattice phase,
  // where every frontier wave ends in a barrier, and over the whole run.
  const auto idle = [threads](double cpu_s, double wall_s) {
    const double capacity = static_cast<double>(threads) * wall_s;
    return capacity > 0 ? std::clamp(1.0 - cpu_s / capacity, 0.0, 1.0) : 0.0;
  };
  report->Add("core.roots_s", Seconds(t0, roots_end));
  report->Add("core.lattice_s", Seconds(roots_end, run_end));
  report->Add("core.evals", static_cast<double>(records.size()));
  report->Add("core.eval_self_s", self_s);
  report->Add("core.eval_max_s", max_span_s);
  report->Add("core.waves", static_cast<double>(wave_s.size()));
  report->Add("core.wave_p50_ms", Median(wave_s) * 1e3);
  report->Add("core.barrier_idle_frac",
              idle(cpu_end - roots_cpu, Seconds(roots_end, run_end)));
  report->Add("core.utilization",
              1.0 - idle(cpu_end - cpu0, Seconds(t0, run_end)));
  // Where the two longest evaluations ran: whether they overlap sets the
  // critical path of a coverage-bound run.
  std::vector<const EvalRecord*> longest;
  for (const EvalRecord& r : records) longest.push_back(&r);
  const std::size_t shown = std::min<std::size_t>(2, longest.size());
  std::partial_sort(longest.begin(), longest.begin() + shown, longest.end(),
                    [](const EvalRecord* a, const EvalRecord* b) {
                      return a->span_s > b->span_s;
                    });
  for (std::size_t i = 0; i < shown; ++i) {
    const EvalRecord& r = *longest[i];
    const auto wave =
        std::upper_bound(waves.begin(), waves.end(), r.start,
                         [](Clock::time_point t, const Wave& w) {
                           return t < w.at;
                         }) -
        waves.begin();
    std::cerr << "perfbench: longest evaluation " << i + 1 << ": "
              << r.items.size() << " attribute(s), " << r.span_s
              << " s, in wave " << wave << ", from +" << Seconds(t0, r.start)
              << " s\n";
  }
  report->Add("core.sink_emit_s", sink.emit_s());
  report->Add("core.sink_emits", static_cast<double>(sink.emits()));
  report->Add("core.sink_take_s", Seconds(run_end, t1));
  report->Add("core.mine_untraced_s", untraced.seconds);
  report->Add("trace.overhead_s", traced_s - untraced.seconds);

  // The engine's own set-kernel counters, read by name so a counter that
  // a later version drops reads as 0 instead of breaking the build.
  scpm::Result<JsonValue> counters =
      JsonValue::Parse(scpm::ScpmCountersJson(run->counters));
  for (const char* name :
       {"bitmap_intersections", "chunked_intersections",
        "galloping_intersections", "dense_conversions",
        "chunked_conversions"}) {
    report->Add(std::string("util.") + name,
                counters.ok() ? counters->NumberOr(name, 0) : 0.0);
  }
  report->Add("core.coverage_candidates_counter",
              counters.ok() ? counters->NumberOr("coverage_candidates", 0)
                            : 0.0);

  MiningRequest single = request;
  single.options.num_threads = 1;
  TimedResult one = MineOnce(graph, single);
  report->Attempt(one.result.has_value());
  if (!one.result) return "";
  report->Check("1thread_digest", DigestResult(graph, *one.result) == digest,
                "1-thread run matches");
  one.result.reset();
  report->Add("core.mine_1t_s", one.seconds);
  report->Add("core.speedup_4v1", one.seconds / untraced.seconds);

  if (corrupt_replay) {
    // Self-test hook: perturb one recorded K_S; the replay must notice.
    for (EvalRecord& r : records) {
      if (!r.eval->extendable && !r.eval->reported) continue;
      auto copy = std::make_shared<scpm::EvalMemo::Evaluation>(*r.eval);
      if (copy->covered.empty()) {
        copy->covered.push_back(0);
      } else {
        copy->covered.pop_back();
      }
      copy->output.stats.covered += 1;
      r.eval = std::move(copy);
      break;
    }
  }
  Replay(graph, request.options, &records, one.seconds, report);
  return digest;
}

// ------------------------------------------------------------------ serve

/// One request/response exchange on a fresh Unix-socket connection.
std::optional<std::string> Exchange(const std::string& socket_path,
                                    const std::string& line) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return std::nullopt;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                socket_path.c_str());
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return std::nullopt;
  }
  const std::string out = line + "\n";
  std::size_t sent = 0;
  while (sent < out.size()) {
    const ssize_t n = ::send(fd, out.data() + sent, out.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      ::close(fd);
      return std::nullopt;
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string in;
  char buf[65536];
  while (in.empty() || in.back() != '\n') {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    in.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  if (in.empty() || in.back() != '\n') return std::nullopt;
  in.pop_back();
  return in;
}

/// A spawned scpm_serve_cli; killed and reaped if still running when
/// destroyed.
class ServerProcess {
 public:
  ServerProcess(const std::vector<std::string>& argv, const std::string& log) {
    std::vector<char*> cargv;
    for (const std::string& a : argv) {
      cargv.push_back(const_cast<char*>(a.c_str()));
    }
    cargv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_addopen(&actions, 2, log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (posix_spawn(&pid_, cargv[0], &actions, nullptr, cargv.data(),
                    environ) != 0) {
      pid_ = -1;
    }
    posix_spawn_file_actions_destroy(&actions);
  }
  ~ServerProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  pid_t pid() const { return pid_; }

  /// True once the process has ended (it is reaped then).
  bool Exited() {
    if (pid_ > 0 && ::waitpid(pid_, nullptr, WNOHANG) != 0) pid_ = -1;
    return pid_ <= 0;
  }

  /// Sends the shutdown op and reaps the process; true on a clean exit 0.
  bool Shutdown(const std::string& socket_path) {
    if (pid_ <= 0) return false;
    Exchange(socket_path, "{\"op\":\"shutdown\"}");
    int status = 0;
    const auto t0 = Clock::now();
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (SecondsSince(t0) > 30) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  pid_t pid_ = -1;
};

struct ServeConfig {
  std::string server_bin, edges, attrs, socket_path, log_path;
  std::string threads, max_concurrent, slice_ms, memo_mb;
};

/// Starts a server and waits for its first response. Returns the start
/// time to first response, or nullopt when it never answered.
std::optional<double> StartServer(const ServeConfig& c,
                                  std::unique_ptr<ServerProcess>* out) {
  ::unlink(c.socket_path.c_str());
  const auto t0 = Clock::now();
  auto server = std::make_unique<ServerProcess>(
      std::vector<std::string>{c.server_bin, c.edges, c.attrs, "--socket",
                               c.socket_path, "--threads", c.threads,
                               "--max-concurrent", c.max_concurrent,
                               "--slice-ms", c.slice_ms, "--memo-mb",
                               c.memo_mb},
      c.log_path);
  if (server->pid() <= 0) return std::nullopt;
  while (SecondsSince(t0) < 60) {
    if (Exchange(c.socket_path, "{\"op\":\"stats\"}")) {
      const double s = SecondsSince(t0);
      *out = std::move(server);
      return s;
    }
    if (server->Exited()) break;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  return std::nullopt;
}

struct QueryOutcome {
  double latency_s = 0.0;
  std::string response;
  bool ok = false;
  bool cold = false;
  double queue_wait_ms = 0.0;
  double wall_ms = 0.0;
};

struct PassResult {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double peak_rss_mb = 0.0;
  double vm_size_mb = 0.0;
  JsonValue stats;
  std::vector<QueryOutcome> outcomes;
};

/// One pass of the query mix against a fresh server: closed loop, each
/// client sends its next submit+wait only after the previous returned.
std::optional<PassResult> RunPass(const ServeConfig& c,
                                  const std::vector<std::string>& queries,
                                  std::size_t clients) {
  PassResult pass;
  std::unique_ptr<ServerProcess> server;
  std::optional<double> setup = StartServer(c, &server);
  if (!setup) return std::nullopt;
  pass.setup_s = *setup;
  pass.outcomes.resize(queries.size());
  std::atomic<std::size_t> next{0};
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < clients; ++t) {
    threads.emplace_back([&] {
      for (std::size_t i = next++; i < queries.size(); i = next++) {
        const auto q0 = Clock::now();
        std::optional<std::string> response = Exchange(
            c.socket_path,
            "{\"op\":\"submit\",\"wait\":true,\"query\":" + queries[i] + "}");
        pass.outcomes[i].latency_s = SecondsSince(q0);
        if (response) pass.outcomes[i].response = std::move(*response);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  pass.wall_s = SecondsSince(t0);
  if (std::optional<std::string> stats =
          Exchange(c.socket_path, "{\"op\":\"stats\"}")) {
    scpm::Result<JsonValue> parsed = JsonValue::Parse(*stats);
    if (parsed.ok()) pass.stats = std::move(parsed).value();
  }
  const std::string pid = std::to_string(server->pid());
  pass.peak_rss_mb = ProcStatusMb(pid, "VmHWM:");
  pass.vm_size_mb = ProcStatusMb(pid, "VmSize:");
  if (!server->Shutdown(c.socket_path)) {
    std::cerr << "perfbench: server did not shut down cleanly\n";
  }
  return pass;
}

/// Parses and checks every response of a pass against the references.
void CheckPass(const AttributedGraph& graph, PassResult* pass,
               const std::vector<std::string>& queries,
               const std::map<std::string, std::string>& reference,
               Report* report) {
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    QueryOutcome& o = pass->outcomes[i];
    scpm::Result<JsonValue> parsed = JsonValue::Parse(o.response);
    const JsonValue* q = parsed.ok() ? parsed->Find("query") : nullptr;
    const JsonValue* result = q != nullptr ? q->Find("result") : nullptr;
    o.ok = parsed.ok() && parsed->BoolOr("ok", false) && q != nullptr &&
           q->StringOr("state", "") == "done" && result != nullptr &&
           DigestWire(graph, *result) == reference.at(queries[i]);
    if (q != nullptr) {
      o.cold = q->NumberOr("memo_misses", 0) > 0;
      o.queue_wait_ms = q->NumberOr("queue_wait_ms", 0);
      o.wall_ms = q->NumberOr("wall_ms", 0);
    }
    if (!o.ok) ++mismatches;
    report->Attempt(o.ok);
    o.response.clear();
  }
  report->Check("serve_responses", mismatches == 0,
                std::to_string(queries.size()) + " responses, " +
                    std::to_string(mismatches) + " wrong or failed");
}

/// Server flags shared by both modes: --threads is the engine's thread
/// count whether the engine runs in the harness or in the server.
ServeConfig MakeServeConfig(const Args& args) {
  ServeConfig c;
  c.server_bin = args.Get("server");
  c.edges = args.Get("edges");
  c.attrs = args.Get("attrs");
  c.socket_path = args.Get("workdir") + "/serve.sock";
  c.log_path = args.Get("workdir") + "/serve.log";
  c.threads = args.Get("threads");
  c.max_concurrent = args.Get("max-concurrent");
  c.slice_ms = args.Get("slice-ms");
  c.memo_mb = args.Get("memo-mb");
  return c;
}

/// The server layer's per-layer metrics from one traced pass.
void AddServerMetrics(const PassResult& pass, Report* report) {
  std::vector<double> queue_wait, wall, hot, cold;
  for (const QueryOutcome& o : pass.outcomes) {
    queue_wait.push_back(o.queue_wait_ms);
    wall.push_back(o.wall_ms);
    (o.cold ? cold : hot).push_back(o.latency_s * 1e3);
  }
  report->Add("server.queue_wait_p50_ms", Median(queue_wait));
  report->Add("server.wall_p50_ms", Median(wall));
  report->Add("server.hot_p50_ms", Median(hot));
  report->Add("server.cold_p50_ms", Median(cold));
  report->Add("server.preemptions_per_query",
              pass.stats.NumberOr("preemptions", 0) /
                  static_cast<double>(pass.outcomes.size()));
  const JsonValue* memo = pass.stats.Find("memo");
  report->Add("server.memo_hit_rate",
              memo != nullptr ? memo->NumberOr("hit_rate", 0) : 0.0);
  double retained = 0.0;
  if (const JsonValue* sessions = pass.stats.Find("sessions");
      sessions != nullptr && sessions->is_object()) {
    for (const auto& [state, count] : sessions->AsObject()) {
      if (count.is_number()) retained += count.AsNumber();
    }
  }
  report->Add("server.sessions_retained", retained);
  report->Add("server.vm_size_mb", pass.vm_size_mb);
}

// ---------------------------------------------------------------- commands

/// The edge-list format carries no vertex count: the loader sizes the
/// graph by the largest id in the edge list, so an isolated last vertex
/// would make its attribute line unloadable. Swapping it with the last
/// vertex that has an edge yields an isomorphic graph that loads.
scpm::Result<AttributedGraph> Loadable(const AttributedGraph& g) {
  const scpm::VertexId n = g.NumVertices();
  scpm::VertexId a = n;
  while (a > 0 && g.graph().Degree(a - 1) == 0) --a;
  if (a == 0 || a == n) return g;
  const scpm::VertexId b = n - 1;
  --a;
  const auto swap = [a, b](scpm::VertexId v) {
    return v == a ? b : (v == b ? a : v);
  };
  scpm::AttributedGraphBuilder builder(n);
  for (const scpm::Edge& e : g.graph().Edges()) {
    builder.AddEdge(swap(e.u), swap(e.v));
  }
  for (scpm::VertexId v = 0; v < n; ++v) {
    for (scpm::AttributeId x : g.Attributes(v)) {
      SCPM_RETURN_IF_ERROR(
          builder.AddVertexAttribute(swap(v), g.AttributeName(x)));
    }
  }
  return builder.Build();
}

/// 0..n-1, in an order drawn from `seed` (splitmix64 Fisher-Yates) when
/// `shuffle` is set.
std::vector<std::size_t> LineOrder(std::size_t n, bool shuffle,
                                   std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::uint64_t state = seed;
  for (std::size_t i = n; shuffle && i > 1; --i) {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    std::swap(order[i - 1], order[(z ^ (z >> 31)) % i]);
  }
  return order;
}

/// Writes PREFIX.edges and PREFIX.attrs with the lines of one of them in
/// an order drawn from `seed`. The loader canonicalizes edges, so edge
/// order leaves the mined input unchanged; it numbers attributes by first
/// appearance, so attribute-line order picks the order the lattice is
/// enumerated in. Either way the graph, and what is mined, stay the same.
scpm::Status SaveInputs(const AttributedGraph& g, const std::string& prefix,
                        std::uint64_t seed, bool shuffle_attributes) {
  const std::vector<scpm::Edge> edges = g.graph().Edges();
  std::ofstream out(prefix + ".edges");
  for (std::size_t i : LineOrder(edges.size(), !shuffle_attributes, seed)) {
    out << edges[i].u << " " << edges[i].v << "\n";
  }
  out.close();
  std::ofstream attrs(prefix + ".attrs");
  for (std::size_t v : LineOrder(g.NumVertices(), shuffle_attributes, seed)) {
    const auto names = g.Attributes(static_cast<scpm::VertexId>(v));
    if (names.empty()) continue;
    attrs << v;
    for (scpm::AttributeId a : names) attrs << " " << g.AttributeName(a);
    attrs << "\n";
  }
  attrs.close();
  return out && attrs ? scpm::Status::OK()
                      : scpm::Status::IoError("write failed for " + prefix);
}

int CmdGen(const Args& args) {
  const std::string kind = args.Get("kind");
  const double scale = args.Number("scale");
  scpm::SyntheticConfig config;
  if (kind == "citeseer") {
    config = scpm::CiteSeerLikeConfig(scale);
  } else if (kind == "lastfm") {
    config = scpm::LastFmLikeConfig(scale);
  } else {
    Die("unknown dataset kind " + kind);
  }
  config.seed = static_cast<std::uint64_t>(args.Number("seed"));
  scpm::Result<scpm::SyntheticDataset> data = scpm::GenerateSynthetic(config);
  if (!data.ok()) Die("generation failed: " + data.status().ToString());
  scpm::Result<AttributedGraph> graph = Loadable(data->graph);
  if (!graph.ok()) Die("relabel failed: " + graph.status().ToString());
  const std::string shuffle = args.Get("shuffle");
  if (shuffle != "edges" && shuffle != "attributes") {
    Die("--shuffle must be edges or attributes");
  }
  scpm::Status saved = SaveInputs(
      *graph, args.Get("out"),
      static_cast<std::uint64_t>(args.Number("order-seed")),
      shuffle == "attributes");
  if (!saved.ok()) Die("save failed: " + saved.ToString());
  std::cerr << "perfbench: generated " << kind << " x" << scale << ": "
            << graph->NumVertices() << " vertices, "
            << graph->graph().NumEdges() << " edges\n";
  return 0;
}

int CmdBatch(const Args& args) {
  Report report;
  std::vector<double> load_s;
  std::shared_ptr<const AttributedGraph> graph = LoadTimed(args, &load_s);
  MiningRequest request = ParseRequest(args.Get("query"));
  request.options.num_threads =
      static_cast<std::size_t>(args.Number("threads"));

  if (args.Number("trace") != 0) {
    report.Add("graph.load_s", Median(load_s));
    const std::string digest = TraceRequest(
        *graph, request, args.NumberOr("corrupt-replay", 0) != 0, &report);
    // The same request through the server front door, twice: cold, then
    // replayed from the memo. Every row goes over the wire for the check.
    scpm::Result<JsonValue> query = JsonValue::Parse(args.Get("query"));
    if (!query.ok()) Die("bad query json");
    query->Set("max_rows", JsonValue(std::uint64_t{1} << 40));
    const std::vector<std::string> queries(2, query->Dump());
    std::optional<PassResult> pass =
        RunPass(MakeServeConfig(args), queries, 1);
    if (report.Check("serve_pass", pass.has_value(), "server answered")) {
      CheckPass(*graph, &*pass, queries, {{queries[0], digest}}, &report);
      AddServerMetrics(*pass, &report);
    }
    return report.Print();
  }

  constexpr std::size_t kMinReps = 3;
  const double seconds = args.Number("seconds");
  std::string digest;
  std::vector<double> mine_s;
  double peak_rss_mb = 0.0;
  const auto start = Clock::now();
  // Another request only when it should end inside the window.
  while (mine_s.size() < kMinReps ||
         SecondsSince(start) + mine_s.back() <= seconds) {
    TimedResult timed = MineOnce(*graph, request);
    if (!timed.result) {
      report.Attempt(false);
      break;
    }
    mine_s.push_back(timed.seconds);
    const std::string d = DigestResult(*graph, *timed.result);
    if (digest.empty()) {
      // Peak memory of one request (later requests would add allocator
      // fragmentation, which varies with how many fit in the window).
      peak_rss_mb = ProcStatusMb("self", "VmHWM:");
      // Once per set of runs, outside the timed request.
      digest = d;
      const auto v0 = Clock::now();
      scpm::Status valid =
          ValidateSample(*graph, request.options, *timed.result);
      report.Check("validate", valid.ok(),
                   valid.ToString() + " in " +
                       std::to_string(SecondsSince(v0)) + " s");
      std::cerr << "perfbench: " << timed.result->attribute_sets.size()
                << " rows, " << timed.result->patterns.size()
                << " patterns, "
                << timed.result->counters.attribute_sets_evaluated
                << " evaluations, digest " << digest << "\n";
    }
    report.Attempt(d == digest);
  }
  report.Check("digest_stable", report.failed() == 0,
               std::to_string(mine_s.size()) + " runs");
  const std::string pin = args.GetOr("pin", "");
  if (!pin.empty()) {
    report.Check("digest_pinned", digest == pin, digest + " vs pinned " + pin);
  }
  double total = 0.0;
  for (double s : mine_s) total += s;
  report.Add("setup_s", Median(load_s));
  report.Add("mine_s", Median(mine_s));
  report.Add("qps", total > 0 ? static_cast<double>(mine_s.size()) / total : 0);
  report.Add("cold_p90_ms", Quantile(mine_s, 0.9) * 1e3);
  report.Add("peak_rss_mb", peak_rss_mb);
  report.Add("ok_frac", 1.0 - static_cast<double>(report.failed()) /
                                  static_cast<double>(report.attempted()));
  return report.Print();
}

int CmdServe(const Args& args) {
  Report report;
  std::vector<std::string> queries;
  {
    std::ifstream in(args.Get("queries"));
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty()) queries.push_back(line);
    }
  }
  if (queries.empty()) Die("no queries");

  // References: one direct ExecuteRequest per distinct spec, before the
  // served window; their summed time is this workload's mine_s.
  std::vector<double> load_s;
  std::shared_ptr<const AttributedGraph> graph = LoadTimed(args, &load_s);
  const std::size_t ref_threads =
      static_cast<std::size_t>(args.Number("ref-threads"));
  std::map<std::string, std::string> reference;
  std::string heaviest;
  double heaviest_s = -1.0;
  double direct_s = 0.0;
  bool refs_valid = true;
  const auto r0 = Clock::now();
  for (const std::string& q : queries) {
    if (reference.count(q) != 0) continue;
    MiningRequest request = ParseRequest(q);
    request.options.num_threads = ref_threads;
    TimedResult timed = MineOnce(*graph, request);
    if (!timed.result) Die("reference request failed: " + q);
    refs_valid = refs_valid &&
                 ValidateSample(*graph, request.options, *timed.result)
                     .ok();
    reference[q] = DigestResult(*graph, *timed.result);
    direct_s += timed.seconds;
    if (timed.seconds > heaviest_s) {
      heaviest_s = timed.seconds;
      heaviest = q;
    }
  }
  report.Check("validate", refs_valid,
               std::to_string(reference.size()) + " distinct specs in " +
                   std::to_string(SecondsSince(r0)) + " s");
  // One digest over every spec's reference, in spec order: the served
  // responses are checked against the references, and the references
  // against the pin.
  std::vector<std::string> spec_digests;
  for (const auto& [spec, spec_digest] : reference) {
    spec_digests.push_back(spec + " " + spec_digest);
  }
  const std::string digest = HashLines(spec_digests);
  const std::string pin = args.GetOr("pin", "");
  if (!pin.empty()) {
    report.Check("digest_pinned", digest == pin, digest + " vs pinned " + pin);
  }

  const ServeConfig c = MakeServeConfig(args);
  const std::size_t clients = static_cast<std::size_t>(args.Number("clients"));

  if (args.Number("trace") != 0) {
    report.Add("graph.load_s", Median(load_s));
    std::optional<PassResult> pass = RunPass(c, queries, clients);
    if (!report.Check("serve_pass", pass.has_value(), "server answered")) {
      return report.Print();
    }
    CheckPass(*graph, &*pass, queries, reference, &report);
    AddServerMetrics(*pass, &report);
    // Engine-level breakdown of the costliest spec of the mix, mined
    // directly at the batch workloads' thread count.
    MiningRequest request = ParseRequest(heaviest);
    request.options.num_threads =
        static_cast<std::size_t>(args.Number("trace-threads"));
    TraceRequest(*graph, request, false, &report);
    return report.Print();
  }

  // Extra server starts that only measure set-up.
  std::vector<double> setup_s;
  for (int i = 0; i < 5; ++i) {
    std::unique_ptr<ServerProcess> server;
    std::optional<double> s = StartServer(c, &server);
    if (!report.Check("serve_start", s.has_value(), "server answered")) {
      return report.Print();
    }
    setup_s.push_back(*s);
    server->Shutdown(c.socket_path);
  }

  const double seconds = args.Number("seconds");
  std::vector<double> qps, cold_p90, rss;
  std::size_t cold_samples = 0;
  const auto start = Clock::now();
  double pass_s = 0.0;
  while (qps.empty() || SecondsSince(start) + pass_s <= seconds) {
    std::optional<PassResult> pass = RunPass(c, queries, clients);
    if (!report.Check("serve_pass", pass.has_value(), "server answered")) {
      return report.Print();
    }
    CheckPass(*graph, &*pass, queries, reference, &report);
    std::vector<double> cold;
    for (const QueryOutcome& o : pass->outcomes) {
      if (o.cold) cold.push_back(o.latency_s * 1e3);
    }
    cold_samples += cold.size();
    setup_s.push_back(pass->setup_s);
    pass_s = pass->wall_s;
    qps.push_back(static_cast<double>(queries.size()) / pass->wall_s);
    cold_p90.push_back(Quantile(cold, 0.9));
    rss.push_back(pass->peak_rss_mb);
    std::cerr << "perfbench: pass " << qps.size() << ": " << pass->wall_s
              << " s, " << cold.size() << " cold queries\n";
  }
  std::cerr << "perfbench: " << qps.size() << " passes, " << cold_samples
            << " cold samples\n";
  report.Add("setup_s", Median(setup_s));
  // The served path is measured by qps and cold_p90_ms; mine_s is the
  // mix's distinct specs mined directly, which is what a batch user of
  // the same queries waits for.
  report.Add("mine_s", direct_s);
  report.Add("qps", Median(qps));
  report.Add("cold_p90_ms", Median(cold_p90));
  report.Add("peak_rss_mb", Median(rss));
  report.Add("ok_frac", 1.0 - static_cast<double>(report.failed()) /
                                  static_cast<double>(report.attempted()));
  return report.Print();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) Die("usage: scpm_perfbench gen|batch|serve --key value ...");
  const std::string command = argv[1];
  const Args args(argc, argv);
  if (command == "gen") return CmdGen(args);
  if (command == "batch") return CmdBatch(args);
  if (command == "serve") return CmdServe(args);
  Die("unknown command " + command);
}

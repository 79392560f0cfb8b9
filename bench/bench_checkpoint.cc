// Checkpoint codec benchmark (ours; the binary v2 codec in
// core/ckpt_codec.cc): encode/decode time and snapshot size on
// CiteSeer-scale frontiers, in both the roots-phase (cold start) and
// tree-phase (deep lattice) shapes. Timings flow into
// BENCH_checkpoint.json for the perf-trend gate; the size guards live in
// ckpt_codec_test.

#include <cstdint>
#include <iomanip>
#include <iostream>
#include <string>
#include <utility>

#include "bench_util.h"
#include "core/engine.h"
#include "core/sink.h"

namespace {

scpm::ScpmOptions CiteseerOptions() {
  scpm::ScpmOptions o;
  o.quasi_clique.gamma = 0.5;
  o.quasi_clique.min_size = 5;
  // Permissive thresholds relative to bench_table4: the measurement
  // wants deep frontiers (many live classes), not selective output.
  o.min_support = 5;
  o.min_epsilon = 0.0;
  o.top_k = 3;
  return o;
}

/// Budget-cuts (and resumes) the engine until the cut lands in the
/// wanted phase, returning the frontier it left behind.
scpm::EngineCheckpoint CutFrontier(const scpm::AttributedGraph& graph,
                                   std::uint64_t max_evaluations,
                                   bool want_roots_phase) {
  const scpm::ScpmOptions options = CiteseerOptions();
  scpm::EngineBudget budget;
  budget.max_evaluations = max_evaluations;
  scpm::EngineCheckpoint checkpoint;
  for (int segment = 0; segment < 100000; ++segment) {
    scpm::ScpmEngine engine(options, nullptr);
    engine.set_budget(budget);
    scpm::AccumulatingSink sink;
    scpm::Result<scpm::MiningRun> run =
        segment == 0 ? engine.Run(graph, &sink)
                     : engine.Resume(graph, checkpoint, &sink);
    if (!run.ok()) {
      std::cerr << "engine failed: " << run.status() << "\n";
      std::exit(1);
    }
    if (run->exhausted) {
      std::cerr << "lattice exhausted before a "
                << (want_roots_phase ? "roots" : "tree")
                << "-phase cut; raise the dataset scale\n";
      std::exit(1);
    }
    checkpoint = std::move(run->checkpoint);
    if (checkpoint.in_roots_phase == want_roots_phase) return checkpoint;
  }
  std::cerr << "no cut landed in the wanted phase\n";
  std::exit(1);
}

/// Mean seconds per call of `fn` over enough iterations to be stable at
/// smoke scale.
template <typename Fn>
double TimePerCall(const Fn& fn, int iters = 20) {
  fn();  // warm-up, and faults out early
  scpm::WallTimer timer;
  for (int i = 0; i < iters; ++i) fn();
  return timer.ElapsedSeconds() / iters;
}

struct CodecNumbers {
  std::size_t bytes = 0;
  double encode_s = 0;
  double decode_s = 0;
};

CodecNumbers Measure(const scpm::EngineCheckpoint& cp) {
  CodecNumbers out;
  const std::string encoded = cp.Serialize();
  out.bytes = encoded.size();
  std::size_t guard = 0;
  out.encode_s = TimePerCall([&] { guard += cp.Serialize().size(); });
  out.decode_s = TimePerCall([&] {
    scpm::Result<scpm::EngineCheckpoint> parsed =
        scpm::EngineCheckpoint::Parse(encoded);
    if (!parsed.ok()) {
      std::cerr << "decode failed: " << parsed.status() << "\n";
      std::exit(1);
    }
    guard += parsed->classes.size();
  });
  if (guard == SIZE_MAX) std::cout << "";  // keep the work observable
  return out;
}

/// Benches one frontier: one table line, two report rows.
void BenchScenario(scpm::bench::JsonReport* report, const std::string& name,
                   const scpm::EngineCheckpoint& cp) {
  const CodecNumbers bin = Measure(cp);
  std::cout << std::left << std::setw(26) << name << std::right
            << std::setw(10) << bin.bytes << std::setw(12) << std::fixed
            << std::setprecision(1) << bin.encode_s * 1e6 << std::setw(12)
            << bin.decode_s * 1e6 << "\n";
  const std::string bytes = "\"bytes\":" + std::to_string(bin.bytes);
  report->Add(name, "encode binary", bin.encode_s, bytes);
  report->Add(name, "decode binary", bin.decode_s, bytes);
}

}  // namespace

int main() {
  scpm::bench::Banner(
      "Checkpoint codec — binary v2",
      "CiteSeer-like frontiers; sizes, encode/decode time");
  const double scale = scpm::bench::Scale();
  scpm::Result<scpm::SyntheticDataset> dataset =
      scpm::GenerateSynthetic(scpm::CiteSeerLikeConfig(scale));
  if (!dataset.ok()) {
    std::cerr << "generation failed: " << dataset.status() << "\n";
    return 1;
  }
  const scpm::AttributedGraph& graph = dataset->graph;
  std::cout << "dataset: " << graph.NumVertices() << " vertices, "
            << graph.graph().NumEdges() << " edges, "
            << graph.NumAttributes() << " attributes\n\n";

  const scpm::EngineCheckpoint roots =
      CutFrontier(graph, /*max_evaluations=*/4, /*want_roots_phase=*/true);
  const scpm::EngineCheckpoint tree =
      CutFrontier(graph, /*max_evaluations=*/64, /*want_roots_phase=*/false);
  std::cout << "frontiers: roots done=" << roots.done_roots.size()
            << " batches=" << roots.root_batches.size()
            << "; tree classes=" << tree.classes.size()
            << " expansions=" << tree.expansions.size() << "\n\n";

  std::cout << std::left << std::setw(26) << "scenario" << std::right
            << std::setw(10) << "bytes" << std::setw(12) << "encode us"
            << std::setw(12) << "decode us" << "\n";

  scpm::bench::JsonReport report("checkpoint");
  BenchScenario(&report, "roots", roots);
  BenchScenario(&report, "tree", tree);
  return report.Write() ? 0 : 1;
}

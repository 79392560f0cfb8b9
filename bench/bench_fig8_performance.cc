// Reproduces paper Figure 8 (performance evaluation, §4.2): runtime of
// SCPM-BFS, SCPM-DFS, and the Naive algorithm on the SmallDBLP-like
// dataset while sweeping each parameter with the others fixed:
//   (a) gamma_min  (b) min_size  (c) sigma_min  (d) eps_min
//   (e) delta_min  (f) k (SCPM-DFS vs Naive only).
//
// Expected shape: SCPM-DFS <= SCPM-BFS << Naive (the paper reports up to
// 3 orders of magnitude); SCPM runtimes drop as eps_min / delta_min grow
// (Theorem 4/5 pruning), Naive is flat in those parameters.
//
// Beyond the paper, sweep (h) tracks the parallel engine on a
// small-lattice / huge-G(S) workload where speedup must come from the
// intra-search decomposition of single coverage computations. (Thread
// scaling end to end is measured by the committed benchmark in
// perfbench/.) With SCPM_BENCH_JSON set, every timing row is also written
// as JSON for the CI artifacts.

#include <iomanip>
#include <iostream>
#include <sstream>
#include <vector>

#include "bench_util.h"
#include "core/naive.h"
#include "core/statistics.h"
#include "graph/generators.h"
#include "util/random.h"

namespace {

using scpm::ScpmOptions;

struct Timing {
  double scpm_bfs = 0;
  double scpm_dfs = 0;
  double naive = 0;
};

const scpm::AttributedGraph* g_graph = nullptr;
scpm::MaxExpectationModel* g_model = nullptr;
scpm::bench::JsonReport g_json("bench_fig8");
std::string g_section;

void Section(const std::string& title) {
  g_section = title;
  scpm::bench::SectionHeader(title);
}

std::string Label(const char* param, double x, const char* miner) {
  std::ostringstream os;
  os << param << "=" << x << " " << miner;
  return os.str();
}

double TimeMiner(bool naive, const ScpmOptions& options) {
  scpm::WallTimer timer;
  if (naive) {
    scpm::NaiveMiner miner(options, g_model);
    auto result = miner.Mine(*g_graph);
    if (!result.ok()) std::cerr << "naive failed: " << result.status() << "\n";
  } else {
    scpm::ScpmMiner miner(options, g_model);
    auto result = miner.Mine(*g_graph);
    if (!result.ok()) std::cerr << "scpm failed: " << result.status() << "\n";
  }
  return timer.ElapsedSeconds();
}

Timing TimeAll(ScpmOptions options, bool run_naive = true) {
  Timing t;
  options.search_order = scpm::SearchOrder::kBfs;
  t.scpm_bfs = TimeMiner(false, options);
  options.search_order = scpm::SearchOrder::kDfs;
  t.scpm_dfs = TimeMiner(false, options);
  if (run_naive) t.naive = TimeMiner(true, options);
  return t;
}

void PrintRow(const char* param, double x, const Timing& t) {
  std::cout << std::setw(10) << x << std::setw(14) << std::fixed
            << std::setprecision(4) << t.scpm_bfs << std::setw(14)
            << t.scpm_dfs << std::setw(14) << t.naive << "\n";
  g_json.Add(g_section, Label(param, x, "scpm_bfs"), t.scpm_bfs);
  g_json.Add(g_section, Label(param, x, "scpm_dfs"), t.scpm_dfs);
  g_json.Add(g_section, Label(param, x, "naive"), t.naive);
}

void Header(const char* param) {
  std::cout << std::setw(10) << param << std::setw(14) << "SCPM-BFS(s)"
            << std::setw(14) << "SCPM-DFS(s)" << std::setw(14)
            << "Naive(s)" << "\n";
}

/// Paper defaults (scaled): gamma=0.5, min_size=11, sigma_min=100,
/// eps_min=0.1, delta_min=1, k=5.
ScpmOptions Defaults() {
  ScpmOptions o;
  o.quasi_clique.gamma = 0.5;
  o.quasi_clique.min_size = 9;
  o.min_support = 25;
  o.min_epsilon = 0.1;
  o.min_delta = 1.0;
  o.top_k = 5;
  return o;
}

/// Scenario (h): the hard half of the Fig. 8 workload inverted — a tiny
/// attribute lattice (three near-global attributes, at most 7 sets) over
/// a graph with planted dense groups, so nearly all runtime is a handful
/// of coverage computations on huge G(S). Lattice-level parallelism has
/// nothing to chew on here; speedup must come from the intra-search
/// decomposition.
scpm::Result<scpm::AttributedGraph> BuildHugeSubgraphDataset(double scale) {
  const scpm::VertexId n = std::max<scpm::VertexId>(
      200, static_cast<scpm::VertexId>(2000 * scale));
  scpm::Rng rng(97);
  scpm::Result<scpm::Graph> bg = scpm::ErdosRenyi(n, 3.0 / n, rng);
  if (!bg.ok()) return bg.status();
  std::vector<scpm::Edge> edges = bg->Edges();
  scpm::PlantGroups(n, n / 40 + 4, 8, 14, 0.9, rng, &edges);
  scpm::AttributedGraphBuilder builder(n);
  for (const scpm::Edge& e : edges) builder.AddEdge(e.u, e.v);
  for (const char* name : {"alpha", "beta", "delta"}) {
    const scpm::AttributeId id = builder.InternAttribute(name);
    for (scpm::VertexId v = 0; v < n; ++v) {
      if (rng.NextBool(0.7)) {
        if (auto status = builder.AddVertexAttribute(v, id); !status.ok()) {
          return status;
        }
      }
    }
  }
  return builder.Build();
}

void RunHugeSubgraphScenario() {
  Section("(h) small lattice, huge G(S) — intra-search scaling");
  scpm::Result<scpm::AttributedGraph> dataset =
      BuildHugeSubgraphDataset(scpm::bench::Scale());
  if (!dataset.ok()) {
    std::cerr << "generation failed: " << dataset.status() << "\n";
    return;
  }
  std::cout << "dataset: " << dataset->NumVertices() << " vertices, "
            << dataset->graph().NumEdges() << " edges, "
            << dataset->NumAttributes() << " attributes\n";

  ScpmOptions o;
  o.quasi_clique.gamma = 0.5;
  o.quasi_clique.min_size = 6;
  o.min_support = 10;
  o.min_epsilon = 0.01;
  o.top_k = 3;
  o.search_order = scpm::SearchOrder::kDfs;
  // Low trigger so the intra-search path is exercised at every
  // SCPM_BENCH_SCALE, including the CI smoke scale.
  o.intra_search_min_universe = 64;

  // Dense-set baseline: the same workload with the hybrid representation
  // forced off, so the artifact records what the bitmap kernels buy on
  // the near-global (70% dense) tidsets of this scenario.
  {
    ScpmOptions plain = o;
    plain.use_hybrid_sets = false;
    scpm::ScpmMiner miner(plain);
    scpm::WallTimer timer;
    scpm::Result<scpm::ScpmResult> result = miner.Mine(*dataset);
    const double t = timer.ElapsedSeconds();
    if (!result.ok()) {
      std::cerr << "scpm failed: " << result.status() << "\n";
      return;
    }
    std::cout << "hybrid-off baseline (1 thread): " << std::fixed
              << std::setprecision(4) << t << " s\n"
              << std::defaultfloat << std::setprecision(6);
    g_json.Add(g_section, "hybrid=off scpm_dfs", t,
               "\"counters\":" + scpm::ScpmCountersJson(result->counters));
  }

  std::cout << std::setw(10) << "threads" << std::setw(14) << "SCPM-DFS(s)"
            << std::setw(14) << "speedup" << "\n";
  double base = 0.0;
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    ScpmOptions run = o;
    run.num_threads = threads;
    scpm::ScpmMiner miner(run);
    scpm::WallTimer timer;
    scpm::Result<scpm::ScpmResult> result = miner.Mine(*dataset);
    const double t = timer.ElapsedSeconds();
    if (!result.ok()) {
      std::cerr << "scpm failed: " << result.status() << "\n";
      return;
    }
    if (threads == 1) {
      base = t;
      std::cout << "counters: "
                << scpm::FormatScpmCounters(result->counters) << "\n";
    }
    std::cout << std::setw(10) << threads << std::setw(14) << std::fixed
              << std::setprecision(4) << t << std::setw(14)
              << std::setprecision(2) << (t > 0 ? base / t : 0.0)
              << std::setprecision(4) << "\n";
    g_json.Add(g_section,
               Label("threads", static_cast<double>(threads), "scpm_dfs"), t,
               "\"counters\":" + scpm::ScpmCountersJson(result->counters));
  }
}

}  // namespace

int main() {
  scpm::bench::Banner(
      "Figure 8 — runtime of SCPM-BFS / SCPM-DFS / Naive",
      "SmallDBLP-like dataset; sweeps (a)-(f) of §4.2");
  const double scale = scpm::bench::Scale();
  scpm::Result<scpm::SyntheticDataset> dataset =
      scpm::GenerateSynthetic(scpm::SmallDblpConfig(scale));
  if (!dataset.ok()) {
    std::cerr << "generation failed: " << dataset.status() << "\n";
    return 1;
  }
  g_graph = &dataset->graph;
  std::cout << "dataset: " << g_graph->NumVertices() << " vertices, "
            << g_graph->graph().NumEdges() << " edges, "
            << g_graph->NumAttributes() << " attributes\n";
  scpm::Graph topology = g_graph->graph();
  scpm::MaxExpectationModel model(topology, Defaults().quasi_clique);
  g_model = &model;

  Section("(a) runtime x gamma_min");
  Header("gamma");
  for (double gamma : {0.5, 0.6, 0.7, 0.8, 0.9, 1.0}) {
    ScpmOptions o = Defaults();
    o.quasi_clique.gamma = gamma;
    PrintRow("gamma", gamma, TimeAll(o));
  }

  Section("(b) runtime x min_size");
  Header("min_size");
  for (std::uint32_t min_size : {8u, 9u, 10u, 11u, 12u}) {
    ScpmOptions o = Defaults();
    o.quasi_clique.min_size = min_size;
    PrintRow("min_size", min_size, TimeAll(o));
  }

  Section("(c) runtime x sigma_min");
  Header("sigma_min");
  for (std::size_t sigma : {15u, 20u, 25u, 35u, 50u}) {
    ScpmOptions o = Defaults();
    o.min_support = sigma;
    PrintRow("sigma_min", static_cast<double>(sigma), TimeAll(o));
  }

  Section("(d) runtime x eps_min");
  Header("eps_min");
  for (double eps : {0.1, 0.15, 0.2, 0.25}) {
    ScpmOptions o = Defaults();
    o.min_epsilon = eps;
    PrintRow("eps_min", eps, TimeAll(o));
  }

  Section("(e) runtime x delta_min");
  Header("delta_min");
  for (double delta : {1.0, 10.0, 100.0, 1000.0, 10000.0}) {
    ScpmOptions o = Defaults();
    o.min_delta = delta;
    PrintRow("delta_min", delta, TimeAll(o));
  }

  Section("(f) runtime x k (SCPM-DFS vs Naive)");
  std::cout << std::setw(10) << "k" << std::setw(14) << "SCPM-DFS(s)"
            << std::setw(14) << "Naive(s)" << "\n";
  for (std::size_t k : {1u, 2u, 4u, 8u, 16u}) {
    ScpmOptions o = Defaults();
    o.top_k = k;
    o.search_order = scpm::SearchOrder::kDfs;
    const double dfs = TimeMiner(false, o);
    const double naive = TimeMiner(true, o);
    std::cout << std::setw(10) << k << std::setw(14) << std::fixed
              << std::setprecision(4) << dfs << std::setw(14) << naive
              << "\n";
    g_json.Add(g_section, Label("k", static_cast<double>(k), "scpm_dfs"),
               dfs);
    g_json.Add(g_section, Label("k", static_cast<double>(k), "naive"), naive);
  }

  RunHugeSubgraphScenario();
  g_json.Write();
  return 0;
}

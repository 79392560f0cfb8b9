// scpm_cli: mine structural correlation patterns from files on disk.
//
// Usage:
//   scpm_cli <edges.txt> <attrs.txt> [options]
//
//   edges.txt : one "u v" edge per line ('#' comments allowed)
//   attrs.txt : one "v name1 name2 ..." line per vertex
//
// Options (all optional, shown with defaults):
//   --gamma 0.5        quasi-clique density threshold (0, 1]
//   --min-size 5       minimum quasi-clique size
//   --sigma-min 10     minimum attribute-set support
//   --eps-min 0.1      minimum structural correlation
//   --delta-min 0      minimum normalized structural correlation
//                      (enables the max-exp null model when > 0)
//   --top-k 5          patterns reported per attribute set
//   --scope topk       topk (SCPM) or maximal (SCORP: every maximal
//                      pattern per attribute set)
//   --order dfs|bfs    candidate search order
//   --threads 1        worker threads (output is identical for any count)
//   --intra-min 512    |G(S)| at which one coverage search decomposes
//                      into parallel branch tasks (0 = never)
//   --intra-depth 12   decomposition depth of the intra-search tasks
//   --hybrid 1         hybrid sparse-vector/dense-bitmap vertex-set
//                      storage (0 = pure sorted-vector kernels; output
//                      is identical)
//   --top-n 10         rows printed per ranking table
//
// Streaming / anytime options (the frontier engine):
//   --sink accumulate  accumulate (full result + ranking tables, memory
//                      O(output)) or jsonl (one JSON line per attribute
//                      set the moment it finalizes, memory O(frontier))
//   --out FILE         jsonl destination (default: stdout)
//   --deadline-ms 0    wall-clock budget (0 = none)
//   --max-evals 0      evaluation budget, cut at a deterministic
//                      frontier boundary (0 = none)
//   --max-patterns 0   emitted-pattern budget, same cut discipline
//   --checkpoint FILE  where to write the frontier checkpoint when a
//                      budget cuts the run
//   --resume FILE      continue from a previous run's checkpoint (same
//                      graph and thresholds required)
//
// Exit codes: 0 = lattice exhausted, 3 = budget cut the run (checkpoint
// written if --checkpoint was given), 1 = runtime error, 2 = usage error.
// Unknown flags, flags missing their value, and values that are not a
// number of the flag's kind (junk, trailing text, a negative count, an
// overflow, an unknown --scope/--order/--sink word) are usage errors.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "core/engine.h"
#include "core/report.h"
#include "core/request.h"
#include "core/scpm.h"
#include "core/statistics.h"
#include "cli_flags.h"
#include "graph/io.h"
#include "nullmodel/expectation.h"
#include "util/timer.h"

namespace {

using scpm_cli::ParseReal;
using scpm_cli::ParseWhole;

void Usage() {
  std::cerr << "usage: scpm_cli <edges.txt> <attrs.txt> [--gamma G] "
               "[--min-size S] [--sigma-min N] [--eps-min E] "
               "[--delta-min D] [--top-k K] [--scope topk|maximal] "
               "[--order dfs|bfs] [--threads T] "
               "[--intra-min U] [--intra-depth D] [--hybrid 0|1] "
               "[--top-n N] "
               "[--sink accumulate|jsonl] [--out FILE] [--deadline-ms MS] "
               "[--max-evals N] [--max-patterns N] [--checkpoint FILE] "
               "[--checkpoint-interval-ms MS] [--resume FILE]\n"
               "run scpm_cli --help for the full flag reference\n";
}

// The flag table below is contract: scripts/check_docs.py diffs the
// "--flag" lines against docs/CLI.md, so a new flag must land in both
// (the ctest docs_drift gate fails otherwise).
void Help() {
  std::cout <<
      "scpm_cli: mine structural correlation patterns from files on disk\n"
      "\n"
      "usage: scpm_cli <edges.txt> <attrs.txt> [options]\n"
      "\n"
      "  edges.txt : one \"u v\" edge per line ('#' comments allowed)\n"
      "  attrs.txt : one \"v name1 name2 ...\" line per vertex\n"
      "\n"
      "Mining options (defaults in parentheses):\n"
      "  --gamma G          quasi-clique density threshold in (0, 1] (0.5)\n"
      "  --min-size S       minimum quasi-clique size (5)\n"
      "  --sigma-min N      minimum attribute-set support (10)\n"
      "  --eps-min E        minimum structural correlation (0.1)\n"
      "  --delta-min D      minimum normalized structural correlation;\n"
      "                     > 0 enables the max-exp null model (0)\n"
      "  --top-k K          patterns reported per attribute set (5)\n"
      "  --scope V          topk (SCPM) or maximal (SCORP) (topk)\n"
      "  --order V          dfs or bfs candidate search order (dfs)\n"
      "\n"
      "Performance options (never change what is mined):\n"
      "  --threads T        worker threads (1)\n"
      "  --intra-min U      |G(S)| at which one coverage search decomposes\n"
      "                     into parallel branch tasks; 0 = never (512)\n"
      "  --intra-depth D    decomposition depth of intra-search tasks (12)\n"
      "  --hybrid B         hybrid sparse-vector/dense-bitmap vertex sets;\n"
      "                     0 = pure sorted-vector kernels (1)\n"
      "\n"
      "Output options:\n"
      "  --top-n N          rows printed per ranking table (10)\n"
      "  --sink V           accumulate (full result, O(output) memory) or\n"
      "                     jsonl (streaming, O(frontier)) (accumulate)\n"
      "  --out FILE         jsonl destination (stdout)\n"
      "\n"
      "Budget / anytime options (frontier engine):\n"
      "  --deadline-ms MS   wall-clock budget; 0 = none (0)\n"
      "  --max-evals N      evaluation budget, cut at a deterministic\n"
      "                     frontier boundary; 0 = none (0)\n"
      "  --max-patterns N   emitted-pattern budget, same discipline (0)\n"
      "  --checkpoint FILE  write the frontier checkpoint on a budget cut\n"
      "  --checkpoint-interval-ms MS  also rewrite --checkpoint this often\n"
      "                     while mining (atomic tmp+rename replace, so a\n"
      "                     crash leaves the previous snapshot); 0 = only\n"
      "                     on a budget cut (0)\n"
      "  --resume FILE      continue from a previous run's checkpoint\n"
      "\n"
      "Other:\n"
      "  --help             print this reference and exit 0\n"
      "\n"
      "Exit codes: 0 = lattice exhausted, 1 = runtime error, 2 = usage\n"
      "error, 3 = budget cut the run (checkpoint written if --checkpoint\n"
      "was given).\n";
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0) {
      Help();
      return 0;
    }
  }
  if (argc < 3) {
    Usage();
    return 2;
  }
  // The CLI is just one more front door onto core/request.h: every flag
  // lands in this MiningRequest and ExecuteRequest() does the mining.
  scpm::MiningRequest request;
  scpm::ScpmOptions& options = request.options;
  options.quasi_clique.gamma = 0.5;
  options.quasi_clique.min_size = 5;
  options.min_support = 10;
  options.min_epsilon = 0.1;
  options.top_k = 5;
  scpm::EngineBudget& budget = request.budget;
  std::size_t top_n = 10;
  std::string out_path;
  std::string checkpoint_path;
  std::uint64_t checkpoint_interval_ms = 0;
  std::string resume_path;

  for (int i = 3; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::cerr << "flag " << flag << " is missing its value\n";
      Usage();
      return 2;
    }
    const char* value = argv[i + 1];
    bool ok = true;
    if (flag == "--gamma") {
      ok = ParseReal(flag, value, &options.quasi_clique.gamma);
    } else if (flag == "--min-size") {
      ok = ParseWhole(flag, value, &options.quasi_clique.min_size);
    } else if (flag == "--sigma-min") {
      ok = ParseWhole(flag, value, &options.min_support);
    } else if (flag == "--eps-min") {
      ok = ParseReal(flag, value, &options.min_epsilon);
    } else if (flag == "--delta-min") {
      ok = ParseReal(flag, value, &options.min_delta);
    } else if (flag == "--top-k") {
      ok = ParseWhole(flag, value, &options.top_k);
    } else if (flag == "--scope") {
      if (std::strcmp(value, "maximal") == 0) {
        options.pattern_scope = scpm::PatternScope::kAllMaximal;
      } else if (std::strcmp(value, "topk") == 0) {
        options.pattern_scope = scpm::PatternScope::kTopK;
      } else {
        std::cerr << "unknown --scope: " << value << "\n";
        Usage();
        return 2;
      }
    } else if (flag == "--order") {
      if (std::strcmp(value, "bfs") == 0) {
        options.search_order = scpm::SearchOrder::kBfs;
      } else if (std::strcmp(value, "dfs") == 0) {
        options.search_order = scpm::SearchOrder::kDfs;
      } else {
        std::cerr << "unknown --order: " << value << "\n";
        ok = false;
      }
    } else if (flag == "--threads") {
      ok = ParseWhole(flag, value, &options.num_threads);
    } else if (flag == "--intra-min") {
      ok = ParseWhole(flag, value, &options.intra_search_min_universe);
    } else if (flag == "--intra-depth") {
      ok = ParseWhole(flag, value, &options.intra_search_spawn_depth);
    } else if (flag == "--hybrid") {
      std::uint64_t hybrid = 0;
      ok = ParseWhole(flag, value, &hybrid);
      options.use_hybrid_sets = hybrid != 0;
    } else if (flag == "--top-n") {
      ok = ParseWhole(flag, value, &top_n);
    } else if (flag == "--sink") {
      if (std::strcmp(value, "accumulate") == 0) {
        request.sink = scpm::MiningRequest::Sink::kAccumulate;
      } else if (std::strcmp(value, "jsonl") == 0) {
        request.sink = scpm::MiningRequest::Sink::kJsonl;
      } else {
        std::cerr << "unknown --sink: " << value << "\n";
        Usage();
        return 2;
      }
    } else if (flag == "--out") {
      out_path = value;
    } else if (flag == "--deadline-ms") {
      ok = ParseWhole(flag, value, &budget.deadline_ms);
    } else if (flag == "--max-evals") {
      ok = ParseWhole(flag, value, &budget.max_evaluations);
    } else if (flag == "--max-patterns") {
      ok = ParseWhole(flag, value, &budget.max_patterns);
    } else if (flag == "--checkpoint") {
      checkpoint_path = value;
    } else if (flag == "--checkpoint-interval-ms") {
      ok = ParseWhole(flag, value, &checkpoint_interval_ms);
    } else if (flag == "--resume") {
      resume_path = value;
    } else {
      std::cerr << "unknown flag: " << flag << "\n";
      ok = false;
    }
    if (!ok) {
      Usage();
      return 2;
    }
  }

  // With --sink jsonl and no --out, stdout IS the JSONL stream; every
  // informational line moves to stderr so consumers can pipe the output
  // straight into a JSON parser.
  const bool jsonl = request.sink == scpm::MiningRequest::Sink::kJsonl;
  const bool jsonl_on_stdout = jsonl && out_path.empty();
  std::ostream& info = jsonl_on_stdout ? std::cerr : std::cout;
  if (jsonl_on_stdout) {
    request.jsonl_stream = &std::cout;
  } else {
    request.jsonl_path = out_path;
  }
  if (checkpoint_interval_ms != 0) {
    if (checkpoint_path.empty()) {
      std::cerr << "--checkpoint-interval-ms requires --checkpoint\n";
      Usage();
      return 2;
    }
    // Periodic durability: between waves, replace the checkpoint file
    // atomically (write-to-temp + rename) so a kill at any moment
    // leaves either the previous or the new complete snapshot.
    request.checkpoint_interval_ms = checkpoint_interval_ms;
    request.on_checkpoint = [&checkpoint_path](
                                const scpm::EngineCheckpoint& cp,
                                const scpm::EngineProgress&) {
      const std::string tmp = checkpoint_path + ".tmp";
      std::ofstream out(tmp, std::ios::trunc | std::ios::binary);
      if (!out.is_open() || !cp.Save(out).ok()) return;
      out.close();
      if (!out.good() ||
          std::rename(tmp.c_str(), checkpoint_path.c_str()) != 0) {
        std::remove(tmp.c_str());
      }
    };
  }
  scpm::Status valid = request.Validate();
  if (!valid.ok()) {
    std::cerr << "invalid request: " << valid << "\n";
    Usage();
    return 2;
  }

  scpm::Result<scpm::AttributedGraph> graph =
      scpm::LoadAttributedGraph(argv[1], argv[2]);
  if (!graph.ok()) {
    std::cerr << "load failed: " << graph.status() << "\n";
    return 1;
  }
  info << "loaded " << graph->NumVertices() << " vertices, "
       << graph->graph().NumEdges() << " edges, "
       << graph->NumAttributes() << " attributes\n";

  // The null model exists to normalize eps into delta; without a
  // --delta-min threshold it only adds columns (and its per-support
  // tables cost real memory on large graphs), so it is built exactly
  // when the docs above say it is: --delta-min > 0.
  std::unique_ptr<scpm::MaxExpectationModel> null_model;
  if (options.min_delta > 0.0) {
    null_model = std::make_unique<scpm::MaxExpectationModel>(
        graph->graph(), options.quasi_clique);
  }

  scpm::EngineCheckpoint checkpoint;
  bool resuming = false;
  if (!resume_path.empty()) {
    std::ifstream in(resume_path);
    if (!in.is_open()) {
      std::cerr << "mining failed: cannot open checkpoint: " << resume_path
                << "\n";
      return 1;
    }
    scpm::Result<scpm::EngineCheckpoint> loaded =
        scpm::EngineCheckpoint::Load(in);
    if (!loaded.ok()) {
      std::cerr << "mining failed: " << loaded.status() << "\n";
      return 1;
    }
    checkpoint = std::move(loaded).value();
    resuming = true;
  }

  scpm::WallTimer timer;
  scpm::Result<scpm::MiningResponse> response = scpm::ExecuteRequest(
      *graph, request, null_model.get(), resuming ? &checkpoint : nullptr);
  if (!response.ok()) {
    std::cerr << "mining failed: " << response.status() << "\n";
    return 1;
  }
  const scpm::MiningRun& run = response->run;

  info << "mined " << run.emitted << " attribute sets / "
       << run.patterns_emitted << " patterns in " << timer.ElapsedSeconds()
       << " s (" << (run.exhausted ? "exhausted" : "budget cut") << ")\n"
       << "counters: " << scpm::FormatScpmCounters(run.counters) << "\n\n";

  if (!run.exhausted) {
    info << "budget cut the run in the "
         << (run.checkpoint.in_roots_phase ? "roots" : "lattice")
         << " phase with " << run.frontier_entries
         << " frontier entries left\n";
    if (!checkpoint_path.empty()) {
      std::ofstream out(checkpoint_path, std::ios::trunc | std::ios::binary);
      scpm::Status saved = out.is_open()
                               ? run.checkpoint.Save(out)
                               : scpm::Status::IoError("cannot open " +
                                                       checkpoint_path);
      if (!saved.ok()) {
        std::cerr << "checkpoint save failed: " << saved << "\n";
        return 1;
      }
      info << "checkpoint written to " << checkpoint_path
           << " (resume with --resume " << checkpoint_path << ")\n";
    }
  }

  if (request.sink == scpm::MiningRequest::Sink::kAccumulate) {
    scpm::PrintTopAttributeSets(std::cout, *graph,
                                response->result.attribute_sets, top_n);
    std::cout << "\n";
    scpm::PrintPatternTable(std::cout, *graph, response->result);
  }
  return run.exhausted ? 0 : 3;
}

// scpm_dist_cli: mine structural correlation patterns across forked
// worker processes with leased batches and fault-tolerant retry
// (docs/DIST.md). Output is byte-identical to scpm_cli on the same
// graph and thresholds — the workers only change who does the work.
//
// Usage:
//   scpm_dist_cli <edges.txt> <attrs.txt> [options]
//
// Exit codes: 0 = mined to completion (distributed jobs always run the
// lattice to exhaustion), 1 = runtime error, 2 = usage error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>

#include "core/report.h"
#include "core/request.h"
#include "core/statistics.h"
#include "dist/dist.h"
#include "graph/io.h"
#include "nullmodel/expectation.h"
#include "util/timer.h"

namespace {

void Usage() {
  std::cerr << "usage: scpm_dist_cli <edges.txt> <attrs.txt> [--gamma G] "
               "[--min-size S] [--sigma-min N] [--eps-min E] "
               "[--delta-min D] [--top-k K] [--scope topk|maximal] "
               "[--order dfs|bfs] [--top-n N] [--sink accumulate|jsonl] "
               "[--out FILE] [--workers W] [--batch-entries N] "
               "[--batch-evals N] [--worker-wave N] [--lease-ms MS] "
               "[--max-retries N] [--backoff-ms MS] [--state-dir DIR] "
               "[--checkpoint-interval-ms MS]\n"
               "run scpm_dist_cli --help for the full flag reference\n";
}

// The flag table below is contract: scripts/check_docs.py diffs the
// "--flag" lines against docs/CLI.md, so a new flag must land in both
// (the ctest docs_drift gate fails otherwise).
void Help() {
  std::cout <<
      "scpm_dist_cli: distributed fault-tolerant structural correlation "
      "pattern mining\n"
      "\n"
      "usage: scpm_dist_cli <edges.txt> <attrs.txt> [options]\n"
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
      "Output options:\n"
      "  --top-n N          rows printed per ranking table (10)\n"
      "  --sink V           accumulate (full result, O(output) memory) or\n"
      "                     jsonl (streaming, O(frontier)) (accumulate)\n"
      "  --out FILE         jsonl destination (stdout)\n"
      "\n"
      "Distribution options (never change what is mined):\n"
      "  --workers W        worker processes forked at start (2)\n"
      "  --batch-entries N  frontier entries leased per batch (8)\n"
      "  --batch-evals N    evaluation budget per lease; a worker cuts\n"
      "                     its batch here and returns the remainder (256)\n"
      "  --worker-wave N    worker frontier wave size = heartbeat\n"
      "                     granularity (4)\n"
      "  --lease-ms MS      lease deadline; a worker silent this long is\n"
      "                     revoked and its batch re-queued (2000)\n"
      "  --max-retries N    re-queue attempts per batch before the\n"
      "                     coordinator mines it inline (3)\n"
      "  --backoff-ms MS    base backoff before a failed batch re-leases,\n"
      "                     doubling per attempt (50)\n"
      "\n"
      "Durability options:\n"
      "  --state-dir DIR    journal the job under DIR and snapshot the\n"
      "                     un-merged frontier; a coordinator restarted on\n"
      "                     the same DIR after a crash resumes the job\n"
      "                     (requires --sink jsonl --out FILE)\n"
      "  --checkpoint-interval-ms MS  snapshot cadence under --state-dir\n"
      "                     (200)\n"
      "\n"
      "Other:\n"
      "  --help             print this reference and exit 0\n"
      "\n"
      "Worker pids are announced on stderr (\"dist: worker I pid P\") so\n"
      "harnesses can aim signals at one. Per-worker lease stats print\n"
      "after the run.\n"
      "\n"
      "Exit codes: 0 = mined to completion, 1 = runtime error, 2 = usage\n"
      "error. Distributed jobs take no budget flags: every job runs the\n"
      "lattice to exhaustion (lease failures are retried, then mined\n"
      "inline by the coordinator, so the job always terminates).\n";
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
  scpm::MiningRequest request;
  scpm::ScpmOptions& options = request.options;
  options.quasi_clique.gamma = 0.5;
  options.quasi_clique.min_size = 5;
  options.min_support = 10;
  options.min_epsilon = 0.1;
  options.top_k = 5;
  scpm::dist::DistOptions dist;
  std::size_t top_n = 10;
  std::string out_path;

  for (int i = 3; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::cerr << "flag " << flag << " is missing its value\n";
      Usage();
      return 2;
    }
    const char* value = argv[i + 1];
    if (flag == "--gamma") {
      options.quasi_clique.gamma = std::atof(value);
    } else if (flag == "--min-size") {
      options.quasi_clique.min_size =
          static_cast<std::uint32_t>(std::atoi(value));
    } else if (flag == "--sigma-min") {
      options.min_support = static_cast<std::size_t>(std::atoll(value));
    } else if (flag == "--eps-min") {
      options.min_epsilon = std::atof(value);
    } else if (flag == "--delta-min") {
      options.min_delta = std::atof(value);
    } else if (flag == "--top-k") {
      options.top_k = static_cast<std::size_t>(std::atoll(value));
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
      options.search_order = std::strcmp(value, "bfs") == 0
                                 ? scpm::SearchOrder::kBfs
                                 : scpm::SearchOrder::kDfs;
    } else if (flag == "--top-n") {
      top_n = static_cast<std::size_t>(std::atoll(value));
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
    } else if (flag == "--workers") {
      dist.workers = static_cast<std::size_t>(std::atoll(value));
    } else if (flag == "--batch-entries") {
      dist.batch_entries = static_cast<std::size_t>(std::atoll(value));
    } else if (flag == "--batch-evals") {
      dist.batch_evals = static_cast<std::uint64_t>(std::atoll(value));
    } else if (flag == "--worker-wave") {
      dist.worker_wave = static_cast<std::size_t>(std::atoll(value));
    } else if (flag == "--lease-ms") {
      dist.lease_ms = static_cast<std::uint64_t>(std::atoll(value));
    } else if (flag == "--max-retries") {
      dist.max_retries = static_cast<std::uint32_t>(std::atoi(value));
    } else if (flag == "--backoff-ms") {
      dist.backoff_ms = static_cast<std::uint64_t>(std::atoll(value));
    } else if (flag == "--state-dir") {
      dist.state_dir = value;
    } else if (flag == "--checkpoint-interval-ms") {
      dist.checkpoint_interval_ms =
          static_cast<std::uint64_t>(std::atoll(value));
    } else {
      std::cerr << "unknown flag: " << flag << "\n";
      Usage();
      return 2;
    }
  }

  const bool jsonl = request.sink == scpm::MiningRequest::Sink::kJsonl;
  const bool jsonl_on_stdout = jsonl && out_path.empty();
  std::ostream& info = jsonl_on_stdout ? std::cerr : std::cout;
  if (jsonl_on_stdout) {
    request.jsonl_stream = &std::cout;
  } else {
    request.jsonl_path = out_path;
  }
  if (!dist.state_dir.empty() && (!jsonl || out_path.empty())) {
    // Crash recovery truncates the output file back to the snapshot's
    // line count — impossible on a stream or an accumulate sink.
    std::cerr << "--state-dir requires --sink jsonl and --out FILE\n";
    Usage();
    return 2;
  }
  scpm::Status valid = request.Validate();
  if (valid.ok()) valid = dist.Validate();
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

  std::unique_ptr<scpm::MaxExpectationModel> null_model;
  if (options.min_delta > 0.0) {
    null_model = std::make_unique<scpm::MaxExpectationModel>(
        graph->graph(), options.quasi_clique);
  }

  dist.on_worker_spawn = [](std::size_t index, long pid) {
    // One line per worker, parseable, on stderr: the CI kill harness
    // reads these to aim kill(2) at a worker mid-run.
    std::cerr << "dist: worker " << index << " pid " << pid << "\n";
  };

  scpm::dist::DistStats stats;
  scpm::WallTimer timer;
  scpm::Result<scpm::MiningResponse> response =
      scpm::dist::Mine(*graph, request, dist, null_model.get(), &stats);
  if (!response.ok()) {
    std::cerr << "mining failed: " << response.status() << "\n";
    return 1;
  }
  const scpm::MiningRun& run = response->run;

  info << "mined " << run.emitted << " attribute sets / "
       << run.patterns_emitted << " patterns in " << timer.ElapsedSeconds()
       << " s across " << dist.workers << " workers"
       << (stats.recovered ? " (resumed from journal)" : "") << "\n"
       << "counters: " << scpm::FormatScpmCounters(run.counters) << "\n"
       << "dist: batches=" << stats.batches
       << " retries=" << stats.retries
       << " heartbeat_timeouts=" << stats.heartbeat_timeouts
       << " worker_exits=" << stats.worker_exits
       << " corrupt_results=" << stats.corrupt_results
       << " worker_failures=" << stats.worker_failures
       << " inline_fallbacks=" << stats.inline_fallbacks
       << " backoff_ms=" << stats.backoff_ms_total << "\n";
  for (std::size_t i = 0; i < stats.workers.size(); ++i) {
    const scpm::dist::DistWorkerStats& ws = stats.workers[i];
    info << "dist: worker " << i << " batches=" << ws.batches
         << " reassignments=" << ws.reassignments
         << " retries=" << ws.retries << " backoff_ms=" << ws.backoff_ms
         << "\n";
  }
  for (const scpm::dist::DistEvent& event : stats.events) {
    info << "dist: lease failure [" << scpm::StatusCodeToString(event.code)
         << "] " << event.detail << "\n";
  }
  info << "\n";

  if (request.sink == scpm::MiningRequest::Sink::kAccumulate) {
    scpm::PrintTopAttributeSets(std::cout, *graph,
                                response->result.attribute_sets, top_n);
    std::cout << "\n";
    scpm::PrintPatternTable(std::cout, *graph, response->result);
  }
  return 0;
}

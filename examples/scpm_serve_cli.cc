// scpm_serve_cli: long-lived SCPM query server over a Unix domain socket.
//
// Loads an attributed graph once, then serves concurrent mining queries
// through the newline-delimited JSON protocol documented in
// docs/SERVER.md (ops: submit / status / cancel / stats / reload /
// shutdown). Run `scpm_serve_cli --help` for the flag reference; see
// examples/server_client.py for a minimal client.

#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "cli_flags.h"
#include "graph/io.h"
#include "server/server.h"

namespace {

using scpm_cli::ParseWhole;

/// Cap on --threads, --max-concurrent and --memo-shards: each sizes a set
/// of threads or locks, and 1,024 is the cap ScpmOptions::Validate puts
/// on num_threads.
constexpr std::uint64_t kMaxWorkers = 1024;

void Usage() {
  std::cerr << "usage: scpm_serve_cli <edges.txt> <attrs.txt> --socket PATH "
               "[--threads T] [--max-concurrent C] [--queue-depth Q] "
               "[--memo-mb MB] [--memo-shards S] [--slice-ms MS] "
               "[--slice-evals N] [--default-deadline-ms MS] "
               "[--state-dir PATH] [--checkpoint-interval-ms MS]\n"
               "run scpm_serve_cli --help for the full flag reference\n";
}

/// SIGTERM/SIGINT self-pipe: the handler only writes a byte; a waiter
/// thread does the actual (mutex-taking) drain.
int g_signal_pipe[2] = {-1, -1};
volatile std::sig_atomic_t g_signaled = 0;

void OnSignal(int) {
  g_signaled = 1;
  const char byte = 0;
  [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

// Contract with scripts/check_docs.py: the "--flag" lines below must
// match the scpm_serve_cli table in docs/CLI.md (ctest docs_drift gate).
void Help() {
  std::cout <<
      "scpm_serve_cli: long-lived SCPM query server on a Unix domain socket\n"
      "\n"
      "usage: scpm_serve_cli <edges.txt> <attrs.txt> --socket PATH [options]\n"
      "\n"
      "  edges.txt : one \"u v\" edge per line ('#' comments allowed)\n"
      "  attrs.txt : one \"v name1 name2 ...\" line per vertex\n"
      "\n"
      "The server loads the graph once, then accepts newline-delimited\n"
      "JSON requests (docs/SERVER.md): submit / status / cancel / stats /\n"
      "reload / shutdown. Per-query mining options travel in the submit\n"
      "request, not on this command line.\n"
      "\n"
      "Options (defaults in parentheses):\n"
      "  --socket PATH      Unix socket path to listen on (required)\n"
      "  --threads T        shared worker-pool threads mining for all\n"
      "                     queries together (4)\n"
      "  --max-concurrent C queries mining at once; admitted queries\n"
      "                     beyond C wait in the queue (2)\n"
      "  --queue-depth Q    waiting queries; a submit past this depth is\n"
      "                     rejected with code resource-exhausted (16)\n"
      "  --memo-mb MB       cross-query evaluation memo budget in MiB;\n"
      "                     0 disables the memo (64)\n"
      "  --memo-shards S    memo mutex stripes (16)\n"
      "  --slice-ms MS      preemption: wall-clock budget per driver\n"
      "                     slice; a cut query re-queues round-robin;\n"
      "                     0 = run-to-completion (0)\n"
      "  --slice-evals N    preemption: evaluations per driver slice;\n"
      "                     0 = unbounded (0)\n"
      "  --default-deadline-ms MS  wall-clock budget applied to queries\n"
      "                     that specify no deadline_ms; 0 = none (0)\n"
      "  --state-dir PATH   durable state directory: queries journal on\n"
      "                     admit, snapshot periodically, and are resumed\n"
      "                     by the next server started on the same\n"
      "                     directory after a crash (off)\n"
      "  --checkpoint-interval-ms MS  how often a running query's\n"
      "                     snapshot is persisted under --state-dir (1000)\n"
      "  --help             print this reference and exit 0\n"
      "\n"
      "SIGTERM/SIGINT drain cleanly: admissions stop, running queries are\n"
      "suspended and (with --state-dir) their snapshots persisted, then\n"
      "the server exits 0.\n"
      "\n"
      "Exit codes: 0 = clean shutdown (shutdown op received or signal\n"
      "drain), 1 = runtime error, 2 = usage error.\n";
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
  scpm::ServerOptions options;
  std::string socket_path;

  for (int i = 3; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::cerr << "flag " << flag << " is missing its value\n";
      Usage();
      return 2;
    }
    const char* value = argv[i + 1];
    bool ok = true;
    if (flag == "--socket") {
      socket_path = value;
    } else if (flag == "--threads") {
      ok = ParseWhole(flag, value, &options.threads, kMaxWorkers);
    } else if (flag == "--max-concurrent") {
      ok = ParseWhole(flag, value, &options.max_concurrent, kMaxWorkers);
    } else if (flag == "--queue-depth") {
      ok = ParseWhole(flag, value, &options.queue_depth);
    } else if (flag == "--memo-mb") {
      std::size_t mb = 0;
      ok = ParseWhole(flag, value, &mb,
                      std::numeric_limits<std::size_t>::max() >> 20);
      options.memo.max_bytes = mb << 20;
    } else if (flag == "--memo-shards") {
      ok = ParseWhole(flag, value, &options.memo.num_shards, kMaxWorkers);
    } else if (flag == "--slice-ms") {
      ok = ParseWhole(flag, value, &options.slice_ms);
    } else if (flag == "--slice-evals") {
      ok = ParseWhole(flag, value, &options.slice_evals);
    } else if (flag == "--default-deadline-ms") {
      ok = ParseWhole(flag, value, &options.default_deadline_ms);
    } else if (flag == "--state-dir") {
      options.state_dir = value;
    } else if (flag == "--checkpoint-interval-ms") {
      ok = ParseWhole(flag, value, &options.checkpoint_interval_ms);
    } else {
      std::cerr << "unknown flag: " << flag << "\n";
      ok = false;
    }
    if (!ok) {
      Usage();
      return 2;
    }
  }
  if (socket_path.empty()) {
    std::cerr << "--socket is required\n";
    Usage();
    return 2;
  }
  if (!options.state_dir.empty()) {
    // Probe the state directory up front: an uncreatable path would
    // otherwise surface only after the graph loaded and the socket
    // bound, when clients may already be connecting to a server that
    // cannot honor its durability contract.
    scpm::Result<std::unique_ptr<scpm::StateStore>> probe =
        scpm::StateStore::Open(options.state_dir);
    if (!probe.ok()) {
      std::cerr << "--state-dir " << options.state_dir
                << " is unusable: " << probe.status() << "\n";
      Usage();
      return 2;
    }
  }

  scpm::Result<scpm::AttributedGraph> loaded =
      scpm::LoadAttributedGraph(argv[1], argv[2]);
  if (!loaded.ok()) {
    std::cerr << "load failed: " << loaded.status() << "\n";
    return 1;
  }
  auto graph = std::make_shared<const scpm::AttributedGraph>(
      std::move(loaded).value());
  std::cerr << "loaded " << graph->NumVertices() << " vertices, "
            << graph->graph().NumEdges() << " edges, "
            << graph->NumAttributes() << " attributes\n";

  scpm::ScpmServer server(std::move(graph), options);
  // A wire "reload" with no paths re-reads the files this server was
  // started from.
  server.set_reload_paths(argv[1], argv[2]);
  // Crash recovery before the drivers start: replay the journal, resume
  // what the previous process left behind.
  const scpm::Status recovered = server.Recover();
  if (!recovered.ok()) {
    std::cerr << "recovery failed: " << recovered << "\n";
    return 1;
  }
  for (const std::string& warning : server.recovery_warnings()) {
    std::cerr << "recovery: " << warning << "\n";
  }
  if (server.recovered_queries() > 0) {
    std::cerr << "recovered " << server.recovered_queries()
              << " interrupted queries\n";
  }
  server.Start();

  // SIGTERM/SIGINT = clean drain, not an abort: the handler pokes the
  // self-pipe, the drainer thread stops admissions, suspends running
  // queries, persists their snapshots, and wakes Serve().
  std::thread drainer;
  if (::pipe(g_signal_pipe) == 0) {
    struct sigaction action{};
    action.sa_handler = OnSignal;
    ::sigemptyset(&action.sa_mask);
    ::sigaction(SIGTERM, &action, nullptr);
    ::sigaction(SIGINT, &action, nullptr);
    drainer = std::thread([&server] {
      char byte;
      while (::read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
      }
      if (g_signaled != 0) {
        std::cerr << "signal received: draining\n";
        server.Drain();
      }
    });
  }
  std::cerr << "serving on " << socket_path << " (threads="
            << options.threads << " max_concurrent=" << options.max_concurrent
            << " queue_depth=" << options.queue_depth << " memo="
            << (options.memo.max_bytes >> 20) << "MiB slice_ms="
            << options.slice_ms << " slice_evals=" << options.slice_evals
            << ")\n";
  scpm::Status served = server.Serve(socket_path);
  if (drainer.joinable()) {
    // Release the drainer if no signal arrived (clean shutdown op);
    // Drain() after Shutdown() is a no-op.
    const char byte = 0;
    [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
    drainer.join();
  }
  if (!served.ok()) {
    std::cerr << "serve failed: " << served << "\n";
    return 1;
  }
  std::cerr << (g_signaled != 0 ? "drained cleanly\n" : "shut down cleanly\n");
  return 0;
}

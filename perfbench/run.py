#!/usr/bin/env python3
"""SCPM benchmark: builds the program, generates one workload's inputs from
a seed, runs it, and prints one JSON result line.

    python3 perfbench/run.py --workload cs20 --seed 7 --seconds 30 --trace 0

Run from the root of a checkout. Workloads and their parameters are in
perfbench/workloads.json; metric names and units in BENCHMARK.json. With
--trace 0 the result carries every end-to-end metric, with --trace 1 every
per-layer metric.
--tiny 1 runs the x1 datasets and a short query mix (the smoke test).
Exit code 0 only when every output check passed.
"""

import argparse
import itertools
import json
import os
import random
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
HARNESS = os.path.join(BUILD, "bin", "scpm_perfbench")
SERVER = os.path.join(BUILD, "bin", "scpm_serve_cli")
HARNESS_TIMEOUT_S = 170


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build():
    """Configures once, then builds the harness and the server."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        raise RuntimeError("no source tree at " + ROOT)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "scpm_perfbench",
                    "scpm_serve_cli", "-j", str(min(4, os.cpu_count() or 1))],
                   stdout=sys.stderr, check=True)


def run_harness(args):
    """Runs the harness in its own process group (it may spawn a server),
    so a timeout can stop everything it started. Returns the exit code
    and the parsed last stdout line (None when it printed nothing)."""
    proc = subprocess.Popen([HARNESS] + [str(a) for a in args], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError("harness timed out: " + " ".join(map(str, args)))
    lines = out.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def draw_queries(workload, seed, count):
    """The serve query list, one JSON object per line: `count` specs from
    the workload's grid in an order drawn from the seed. Every spec comes
    floor(count / grid size) times and the seed picks which specs come
    once more, so the set of cold queries is the whole grid on every seed
    and only the order and the repeats vary. A mix shorter than the grid
    (the tiny one) takes the grid's first `count` specs, so its set of
    specs does not depend on the seed either."""
    grid = workload["grid"]
    keys = sorted(grid)
    specs = [json.dumps(dict(zip(keys, values)), separators=(",", ":"))
             for values in itertools.product(*(grid[k] for k in keys))]
    specs = specs[:count]
    rng = random.Random(seed)
    queries = specs * (count // len(specs)) + rng.sample(
        specs, count % len(specs))
    rng.shuffle(queries)
    return queries


def generate(workload, seed, tiny, workdir):
    """Builds the workload's inputs from the seed; nothing here is timed."""
    dataset = workload["dataset"]
    prefix = os.path.join(workdir, "graph")
    code, _ = run_harness(["gen", "--kind", dataset["kind"], "--scale",
                           dataset["tiny_scale" if tiny else "scale"],
                           "--seed", dataset["structure_seed"],
                           "--order-seed", seed,
                           "--shuffle", dataset["shuffle"], "--out", prefix])
    if code != 0:
        raise RuntimeError("input generation failed")
    inputs = {"edges": prefix + ".edges", "attrs": prefix + ".attrs"}
    if workload["mode"] == "serve":
        count = workload["tiny_queries" if tiny else "queries"]
        inputs["queries"] = os.path.join(workdir, "queries.jsonl")
        with open(os.path.join(ROOT, inputs["queries"]), "w") as f:
            f.write("\n".join(draw_queries(workload, seed, count)) + "\n")
    return inputs


def harness_args(workload, inputs, opts, workdir):
    server = workload["server"]
    common = ["--edges", inputs["edges"], "--attrs", inputs["attrs"],
              "--seconds", opts.seconds, "--trace", opts.trace,
              "--threads", workload["threads"], "--server", SERVER,
              "--workdir", workdir,
              "--max-concurrent", server["max_concurrent"],
              "--slice-ms", server["slice_ms"], "--memo-mb", server["memo_mb"],
              "--pin", workload["tiny_pin" if opts.tiny else "pin"]]
    if workload["mode"] == "batch":
        return ["batch"] + common + [
            "--query", json.dumps(workload["query"], sort_keys=True)]
    return ["serve"] + common + [
        "--queries", inputs["queries"], "--clients", workload["clients"],
        "--ref-threads", workload["ref_threads"],
        "--trace-threads", workload["trace_threads"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()

    spec = load_json(os.path.join(HERE, "workloads.json"))
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    if opts.workload not in spec["workloads"]:
        raise SystemExit("unknown workload " + opts.workload)
    workload = spec["workloads"][opts.workload]
    if opts.seed is None:
        opts.seed = spec["default_seed"]
    if opts.seconds is None:
        opts.seconds = bench["run_seconds"]

    build()
    # Relative to ROOT, the harness's working directory: the server's
    # socket lives here, and a socket path may not exceed 107 bytes.
    workdir = os.path.join(".bench_build", "run-%d" % os.getpid())
    os.makedirs(os.path.join(ROOT, workdir))
    try:
        inputs = generate(workload, opts.seed, opts.tiny, workdir)
        code, raw = run_harness(harness_args(workload, inputs, opts, workdir))
    finally:
        shutil.rmtree(os.path.join(ROOT, workdir), ignore_errors=True)
    if raw is None:
        raise RuntimeError("harness printed no result (exit %d)" % code)

    metrics = {}
    for metric in bench["per_layer" if opts.trace else "end_to_end"]:
        name = metric["name"]
        if name not in raw["metrics"]:
            raise RuntimeError("harness did not report " + name)
        metrics[name] = {"value": raw["metrics"][name], "unit": metric["unit"]}
    print(json.dumps({"correct": raw["correct"],
                      "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0 if code == 0 and raw["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log("error: %s" % e)
        sys.exit(1)

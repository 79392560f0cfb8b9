#!/usr/bin/env python3
"""Smoke test of the SCPM benchmark itself.

    python3 perfbench/smoke_test.py        # from the checkout root

Runs every workload at tiny scale (x1 datasets, a short query mix) with
tracing off and on, and asserts that:
  * the result line has exactly correct/attempted/failed/metrics, is
    correct, and carries every declared metric with its declared unit;
  * the digest, validation, replay and serve-response checks ran;
  * a wrong pinned digest (batch and serve) and a corrupted replay record
    each make the harness exit non-zero;
  * run.py exits non-zero without a result where there is no source tree.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run as bench  # noqa: E402

CHECKS = {
    ("batch", 0): ["validate", "digest_stable", "digest_pinned"],
    ("batch", 1): ["traced_digest", "trace_spans", "1thread_digest", "replay",
                   "serve_pass", "serve_responses"],
    ("serve", 0): ["validate", "digest_pinned", "serve_start", "serve_pass",
                   "serve_responses"],
    ("serve", 1): ["validate", "digest_pinned", "serve_pass",
                   "serve_responses",
                   "traced_digest", "trace_spans", "1thread_digest",
                   "replay"],
}


def fail(message):
    print("FAIL: " + message)
    sys.exit(1)


def run_py(args, cwd=bench.ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args,
                          cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def check_run(name, workload, trace, declared):
    proc = run_py(["--workload", name, "--seed", "7", "--seconds", "1",
                   "--trace", str(trace), "--tiny", "1"])
    label = "%s trace=%d" % (name, trace)
    if proc.returncode != 0:
        fail("%s exited %d:\n%s" %
             (label, proc.returncode, proc.stderr[-3000:]))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("%s result keys %s" % (label, sorted(result)))
    if (not result["correct"] or result["failed"] != 0
            or result["attempted"] < 1):
        fail("%s not correct: %s" % (label, result))
    names = [m["name"] for m in declared]
    if sorted(result["metrics"]) != sorted(names):
        fail("%s metrics %s, want %s" % (label, sorted(result["metrics"]),
                                         sorted(names)))
    for metric in declared:
        got = result["metrics"][metric["name"]]
        if got.get("unit") != metric["unit"] or \
                not isinstance(got.get("value"), (int, float)):
            fail("%s metric %s printed as %s" % (label, metric["name"], got))
    for check in CHECKS[(workload["mode"], trace)]:
        if "perfbench check %s: ok" % check not in proc.stderr:
            fail("%s: check %s did not run" % (label, check))
    print("ok: %s (%d metrics)" % (label, len(names)))


def check_negative(name, cases):
    """The harness must fail on a bad output. `cases` pairs the failed
    check it must report with the arguments that provoke it."""
    workload = bench.load_json(os.path.join(HERE, "workloads.json"))[
        "workloads"][name]
    workdir = os.path.join(".bench_build", "smoke-negative")
    shutil.rmtree(os.path.join(bench.ROOT, workdir), ignore_errors=True)
    os.makedirs(os.path.join(bench.ROOT, workdir))
    try:
        inputs = bench.generate(workload, 7, True, workdir)
        opts = argparse.Namespace(seconds=0, trace=0, tiny=1)
        base = bench.harness_args(workload, inputs, opts, workdir)
        pin = base.index("--pin")
        base = base[:pin] + base[pin + 2:]
        for marker, extra in cases:
            args = [bench.HARNESS] + [str(a) for a in base + extra]
            proc = subprocess.run(args, cwd=bench.ROOT, capture_output=True,
                                  text=True, timeout=300)
            if proc.returncode == 0 or marker not in proc.stderr:
                fail("%s: harness accepted a bad output (%s): exit %d" %
                     (name, marker, proc.returncode))
            print("ok: %s harness rejects a bad output (%s)" % (name, marker))
    finally:
        shutil.rmtree(os.path.join(bench.ROOT, workdir), ignore_errors=True)


def check_bare_directory():
    """Without a source tree, run.py must fail without printing a result."""
    bare = os.path.join(bench.ROOT, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_py(["--workload", "cs20", "--seed", "7", "--seconds", "1",
                       "--trace", "0"], cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            fail("bare directory: exit %d, stdout %r" %
                 (proc.returncode, proc.stdout))
        print("ok: bare directory fails without a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    spec = bench.load_json(os.path.join(HERE, "workloads.json"))
    declared = bench.load_json(os.path.join(bench.ROOT, "BENCHMARK.json"))
    per_layer = {m["name"] for m in declared["per_layer"]}
    for name, workload in spec["workloads"].items():
        mapped = {m for layer in workload["layers"].values() for m in layer}
        if mapped != per_layer:
            fail("%s layer map differs from BENCHMARK.json: %s" %
                 (name, sorted(mapped ^ per_layer)))
    for name, workload in spec["workloads"].items():
        check_run(name, workload, 0, declared["end_to_end"])
        check_run(name, workload, 1, declared["per_layer"])
    wrong_pin = ["--pin", "0" * 16]
    check_negative("cs20", [
        ("digest_pinned: FAILED", wrong_pin),
        ("replay: FAILED", ["--trace", "1", "--corrupt-replay", "1"])])
    check_negative("serve_cs1", [("digest_pinned: FAILED", wrong_pin)])
    check_bare_directory()
    print("smoke test passed")


if __name__ == "__main__":
    main()

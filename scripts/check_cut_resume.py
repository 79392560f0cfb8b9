#!/usr/bin/env python3
"""Cut-and-resume check across processes for scpm_cli.

    python3 scripts/check_cut_resume.py --cli build/scpm_cli \\
        --graph /tmp/cs20 --max-evals 2000 --workdir /tmp/cs20_check -- \\
        --gamma 0.5 --min-size 8 --sigma-min 25 --eps-min 0.1

    python3 scripts/check_cut_resume.py --cli build/scpm_cli \\
        --graph /tmp/lfm20 --deadline-ms 500 --workdir /tmp/lfm20_dl -- \\
        --gamma 0.9 --min-size 6 --sigma-min 3 --eps-min 0

Mines <graph>.edges/<graph>.attrs three times with the query flags given
after "--": once uncut at 4 threads, once at 4 threads cut by --max-evals
or --deadline-ms (exactly one of the two; exit 3, cold checkpoint
written), and once at 1 thread in a new process resuming that
checkpoint. An evaluation budget cuts at a capped-wave barrier; a
deadline cuts a run without a count budget wherever the clock lands.
A deadline cut must land in the lattice phase, where that run is the
engine's open wave, and emit a set of two or more attributes there: a
run that finishes first has its deadline halved, and one cut in the
roots phase has it moved halfway to the uncut run's time, for up to
DEADLINE_TRIES runs, so the check holds on faster and slower machines.
The cut's and the resume's rows together must equal the uncut run's,
byte for byte once sorted, and their "counters:" lines must sum to the
uncut run's on every lattice and set-kernel counter. candidates and
intra_tasks are left out: they follow the pool's scheduling of
intra-search branch tasks. Exit code 0 only when every check holds.
"""

import argparse
import json
import os
import subprocess
import sys

FIELDS = ("evaluated reported extended intra_evals "
          "bitmap_isects gallop_isects dense_convs").split()
DEADLINE_TRIES = 6


def mine(cli, graph, query, threads, out, log, extra=()):
    """Runs one scpm_cli segment, writing rows to `out` and stdout to
    `log`; returns the exit code."""
    cmd = [cli, graph + ".edges", graph + ".attrs", *query,
           "--threads", str(threads), "--sink", "jsonl", "--out", out,
           *extra]
    with open(log, "w") as f:
        return subprocess.run(cmd, stdout=f, check=False).returncode


def counters(log):
    with open(log) as f:
        line = next(l for l in f if l.startswith("counters: "))
    values = dict(kv.split("=") for kv in line.split()[1:])
    return {k: int(values[k]) for k in FIELDS}


def mined_ms(log):
    """The mining time scpm_cli reports ("mined ... in <t> s")."""
    with open(log) as f:
        line = next(l for l in f if l.startswith("mined "))
    return float(line.split(" in ")[1].split()[0]) * 1e3


def has_multi_attribute_row(path):
    with open(path) as f:
        return any(len(json.loads(l)["attributes"]) > 1 for l in f)


def sorted_lines(*paths):
    lines = []
    for path in paths:
        with open(path) as f:
            lines.extend(f.readlines())
    return sorted(lines)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--cli", required=True, help="scpm_cli binary")
    parser.add_argument("--graph", required=True,
                        help="dataset prefix (<graph>.edges, <graph>.attrs)")
    cut = parser.add_mutually_exclusive_group(required=True)
    cut.add_argument("--max-evals", type=int)
    cut.add_argument("--deadline-ms", type=int)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("query", nargs="*",
                        help="scpm_cli query flags, after --")
    args = parser.parse_args()
    os.makedirs(args.workdir, exist_ok=True)
    path = lambda name: os.path.join(args.workdir, name)

    code = mine(args.cli, args.graph, args.query, 4, path("full.jsonl"),
                path("full.log"))
    if code != 0:
        sys.exit(f"uncut run exited {code}")

    def cut_run(limit):
        code = mine(args.cli, args.graph, args.query, 4, path("cut.jsonl"),
                    path("cut.log"),
                    limit + ["--checkpoint", path("cut.ckpt")])
        with open(path("cut.log")) as f:
            cut_log = f.read()
        print(cut_log, end="")
        return code, cut_log

    if args.max_evals is not None:
        code, cut_log = cut_run(["--max-evals", str(args.max_evals)])
        if code != 3 or "budget cut the run" not in cut_log:
            sys.exit(f"cut run exited {code}, expected a budget cut (3)")
    else:
        deadline_ms = args.deadline_ms
        full_ms = mined_ms(path("full.log"))
        for _ in range(DEADLINE_TRIES):
            code, cut_log = cut_run(["--deadline-ms", str(deadline_ms)])
            if code == 0:
                print(f"finished within {deadline_ms} ms; halving it")
                deadline_ms = max(1, deadline_ms // 2)
            elif code != 3:
                sys.exit(f"cut run exited {code}, expected a budget cut (3)")
            elif ("in the lattice phase" not in cut_log or
                  not has_multi_attribute_row(path("cut.jsonl"))):
                print(f"cut at {deadline_ms} ms before the lattice phase "
                      "ran; moving it halfway to the uncut run's time")
                deadline_ms = int((deadline_ms + full_ms) / 2)
            else:
                break
        else:
            sys.exit(f"no deadline cut landed in the lattice phase in "
                     f"{DEADLINE_TRIES} runs")
    code = mine(args.cli, args.graph, args.query, 1, path("resume.jsonl"),
                path("resume.log"), ["--resume", path("cut.ckpt")])
    if code != 0:
        sys.exit(f"resume exited {code}")

    if (sorted_lines(path("cut.jsonl"), path("resume.jsonl")) !=
            sorted_lines(path("full.jsonl"))):
        sys.exit("cut + resume rows differ from the uncut run")
    print("cut + resume rows identical to the uncut run")

    full = counters(path("full.log"))
    cut = counters(path("cut.log"))
    resume = counters(path("resume.log"))
    summed = {k: cut[k] + resume[k] for k in FIELDS}
    if summed != full:
        sys.exit(f"cut + resume counters {summed} != uncut {full}")
    print(f"cut + resume counters identical to the uncut run: {full}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Cut-and-resume check across processes for scpm_cli.

    python3 scripts/check_cut_resume.py --cli build/scpm_cli \\
        --graph /tmp/cs20 --max-evals 2000 --workdir /tmp/cs20_check -- \\
        --gamma 0.5 --min-size 8 --sigma-min 25 --eps-min 0.1

Mines <graph>.edges/<graph>.attrs three times with the query flags given
after "--": once uncut at 4 threads, once at 4 threads cut by --max-evals
(exit 3, cold checkpoint written), and once at 1 thread in a new process
resuming that checkpoint. The cut's and the resume's rows together must
equal the uncut run's, byte for byte once sorted, and their "counters:"
lines must sum to the uncut run's on every lattice and set-kernel
counter. candidates and intra_tasks are left out: they follow the pool's
scheduling of intra-search branch tasks. Exit code 0 only when both hold.
"""

import argparse
import os
import subprocess
import sys

FIELDS = ("evaluated reported extended intra_evals "
          "bitmap_isects gallop_isects dense_convs").split()


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
    parser.add_argument("--max-evals", required=True, type=int)
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
    code = mine(args.cli, args.graph, args.query, 4, path("cut.jsonl"),
                path("cut.log"),
                ["--max-evals", str(args.max_evals),
                 "--checkpoint", path("cut.ckpt")])
    with open(path("cut.log")) as f:
        cut_log = f.read()
    print(cut_log, end="")
    if code != 3 or "budget cut the run" not in cut_log:
        sys.exit(f"cut run exited {code}, expected a budget cut (3)")
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

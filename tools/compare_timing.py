#!/usr/bin/env python3
"""Time two checkouts against each other on a benchmark workload, in pairs.

Run from anywhere:

    python tools/compare_timing.py OLD NEW --workload flow --pairs 10 \
        --seconds 20

OLD and NEW are checkout roots.  A pair is one run of
`perfbench/run.py --trace 0` in each checkout, each in a fresh interpreter
started at that checkout's root, both at the pair's seed: pair i runs at
seed --first-seed + i, so no seed repeats within the comparison.  Even
pairs run OLD first, odd pairs NEW first, so a drift of the host's speed
does not favour one side.  Every __pycache__ under both checkouts is
deleted before the first run, and the runs get PYTHONDONTWRITEBYTECODE=1,
so no run imports bytecode another one left behind.

For each end-to-end metric (wall_cal, peak_rss_mb, setup_s; all lower is
better) one line gives the OLD and NEW medians over the pairs, the OLD
interquartile range, NEW's wins (pairs in which NEW reads lower) out of
the pairs, whether NEW's median lies outside that range, and whether the
claim rule holds: NEW lower in at least 9/10 of the pairs, and the
medians apart by more than the width of OLD's interquartile range.  The
wall_cal line also gives both medians of wall_s, the raw seconds run.py
prints beside it; the peak_rss_mb line gives each run's minor page
faults, the growth of getrusage(RUSAGE_CHILDREN).ru_minflt over the run,
in pair order.  A run that fails its checks is named on a line of its
own, and then no metric is summarized.  The last line is the same figures
as one JSON object.  The tool writes no file; each run.py writes its own
scratch files in its own checkout.  Exit status: 0 if every run passed
its checks, 1 otherwise.
"""

import argparse
import json
import os
import pathlib
import re
import resource
import shutil
import statistics
import subprocess
import sys

import numpy as np

METRICS = ("wall_cal", "peak_rss_mb", "setup_s")
WALL_S = re.compile(r"^\s*wall_s \(not reported\)\s+(\S+) s$", re.M)


def remove_bytecode(checkout):
    for cache in list(pathlib.Path(checkout).rglob("__pycache__")):
        shutil.rmtree(cache, ignore_errors=True)


def run_benchmark(checkout, workload, seed, seconds):
    """The end-to-end metrics, wall_s, minor_faults and correct of one
    run.py run."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env=env, capture_output=True, text=True,
        timeout=600 + 10 * seconds)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        return {"correct": False, "error": done.stderr.strip()[-500:]}
    result = json.loads(lines[-1])
    run = {name: result["metrics"][name]["value"] for name in METRICS}
    run["wall_s"] = float(WALL_S.search(done.stdout).group(1))
    run["minor_faults"] = (
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults)
    run["correct"] = result["correct"]
    return run


def summary(old, new):
    """Both medians, OLD's quartiles, NEW's wins, whether NEW's median
    lies outside OLD's interquartile range and whether the claim rule
    holds, for paired values."""
    q1, q3 = (float(q) for q in np.percentile(old, [25, 75]))
    median, old_median = statistics.median(new), statistics.median(old)
    wins = sum(b < a for a, b in zip(old, new))
    return {"old_median": old_median, "new_median": median,
            "old_iqr": [q1, q3], "new_wins": wins,
            "outside_iqr": not q1 <= median <= q3,
            "claim_rule": (10 * wins >= 9 * len(old)
                           and abs(median - old_median) > q3 - q1)}


def compare(old, new, workload, pairs, seconds, first_seed,
            run=run_benchmark):
    """The figures of `pairs` alternating pairs of runs: under "failed" a
    line for each run that failed its checks, and if none did the summary
    of every metric and of wall_s, and each run's minor page faults."""
    for checkout in (old, new):
        remove_bytecode(checkout)
    runs = {"old": [], "new": []}
    figures = {"workload": workload, "pairs": pairs, "seconds": seconds,
               "seeds": [first_seed, first_seed + pairs - 1], "failed": []}
    for i in range(pairs):
        seed = first_seed + i
        for side in ("old", "new") if i % 2 == 0 else ("new", "old"):
            result = run(old if side == "old" else new, workload, seed,
                         seconds)
            if not result["correct"]:
                figures["failed"].append(
                    f"{side} run at seed {seed} failed its checks "
                    f"{result.get('error', '')}".rstrip())
            runs[side].append(result)
    if not figures["failed"]:
        for name in METRICS + ("wall_s",):
            figures[name] = summary([r[name] for r in runs["old"]],
                                    [r[name] for r in runs["new"]])
        figures["minor_faults"] = {
            side: [r["minor_faults"] for r in side_runs]
            for side, side_runs in runs.items()}
    return figures


def report(figures):
    """The printed lines of compare's figures, the JSON object last."""
    lines = [f"{figures['workload']}: {figures['pairs']} pairs of "
             f"{figures['seconds']:g} s runs, seeds {figures['seeds'][0]}"
             f"..{figures['seeds'][1]}, OLD -> NEW"] + figures["failed"]
    for name in METRICS if not figures["failed"] else ():
        f = figures[name]
        line = (f"  {name:<12} median {f['old_median']:.6g} -> "
                f"{f['new_median']:.6g}, OLD IQR [{f['old_iqr'][0]:.6g}, "
                f"{f['old_iqr'][1]:.6g}], NEW lower in {f['new_wins']}/"
                f"{figures['pairs']}, "
                f"{'outside' if f['outside_iqr'] else 'inside'} OLD IQR, "
                f"claim rule {'met' if f['claim_rule'] else 'not met'}")
        if name == "wall_cal":
            w = figures["wall_s"]
            line += (f"; wall_s median {w['old_median']:.6g} -> "
                     f"{w['new_median']:.6g}")
        if name == "peak_rss_mb":
            faults = figures["minor_faults"]
            line += (f"; minor faults OLD {faults['old']}, "
                     f"NEW {faults['new']}")
        lines.append(line)
    return lines + [json.dumps(figures, sort_keys=True)]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old", help="checkout root of the reference")
    parser.add_argument("new", help="checkout root to compare with it")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--first-seed", type=int, default=1000,
                        help="seed of the first pair; pair i runs at this "
                        "seed + i")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    figures = compare(args.old, args.new, args.workload, args.pairs,
                      args.seconds, args.first_seed)
    for line in report(figures):
        print(line)
    return 1 if figures["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())

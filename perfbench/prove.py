"""Repeat the benchmark over seeds and report each metric's spread.

    python3 perfbench/prove.py [--baseline OUT.json]

Run from the root of a checkout.  For every workload in BENCHMARK.json it
makes RUNS untraced runs, seeds FIRST_SEED onwards, and one traced run at
the default seed; each run is a fresh `python3 perfbench/run.py` with
BENCHMARK.json's run_seconds.  For every end-to-end metric it prints the
median, the quartiles (statistics.quantiles, n=4) and their distance as a
share of the median, next to a third of the metric's bound, and the change
of the median from the committed perfbench/baseline.json next to the bound.
--baseline writes everything to OUT.json (perfbench/baseline.json to record
a new baseline).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from workloads import DEFAULT_SEED

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BASELINE = os.path.join(HERE, "baseline.json")
RUNS = 10
FIRST_SEED = 1


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n"
                         f"{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(cmd)} reported incorrect output:\n"
                         f"{done.stdout}")
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--baseline", default=None,
                        help="write the report to this file")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    previous = {}
    if os.path.exists(BASELINE):
        with open(BASELINE) as fh:
            previous = json.load(fh)["workloads"]

    seconds = spec["run_seconds"]
    seeds = list(range(FIRST_SEED, FIRST_SEED + RUNS))
    report = {"run_seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, seed, seconds, 0) for seed in seeds]
        entry = {"seeds": seeds,
                 "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "end_to_end": {}}
        for m in spec["end_to_end"]:
            s = spread([r["metrics"][m["name"]]["value"] for r in runs])
            entry["end_to_end"][m["name"]] = s
            line = (f"{workload:<11} {m['name']:<12} median {s['median']:.6g} "
                    f"{m['unit']}  quartiles {s['q1']:.6g}..{s['q3']:.6g}  "
                    f"spread {s['spread']:.4f} (bound/3 {m['bound'] / 3:.4f})")
            old = previous.get(workload, {}).get("end_to_end", {})
            old = old.get(m["name"])
            if old is not None:
                change = s["median"] / old["median"] - 1.0
                line += (f"  vs baseline {change:+.4f} "
                         f"(bound {m['bound']:.4f})")
            print(line, flush=True)
        traced = run_once(workload, DEFAULT_SEED, seconds, 1)
        entry["traced"] = {k: v["value"] for k, v in traced["metrics"].items()}
        report["workloads"][workload] = entry
    with open(os.path.join(HERE, "_work", "result.json")) as fh:
        report["environment"] = json.load(fh)["environment"]
    if args.baseline:
        with open(args.baseline, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()

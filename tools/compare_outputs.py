#!/usr/bin/env python3
"""Compare the CSV and JSON outputs of two checkouts on a benchmark workload.

Run from anywhere:

    python tools/compare_outputs.py OLD NEW --workload estimators \
        --seeds 0 3 5

OLD and NEW are checkout roots.  Every invocation of the workload (the
configs in this checkout's perfbench/workloads.py, which is only read) runs
at every seed in each checkout, through that checkout's own
modheat.cli.main in a fresh interpreter with the benchmark's thread caps.
Every CSV and JSON file is then compared byte for byte, but run_record.json
as parsed JSON without its wall_time_s, a timing.  For each CSV that
differs, one line names the invocation, seed, file and column, with the
largest relative difference |a - b| / max(|a|, |b|) over the column's cells
(inf where only one side is NaN or a cell is not a number).  For each JSON
file that differs, one line per differing leaf names the invocation, seed
and file, then the leaf's path and both values, for example

    diagnostics.picard.terms[0].exact_evaluations 6 -> 4

so a reviewer sees which numbers moved.  A differing exit code or set of
files is reported too.  The last line counts the files compared.  Exit
status: 0 if every file is byte-identical, 1 otherwise.
"""

import argparse
import importlib.util
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
# the benchmark's caps (perfbench/run.py), so BLAS picks the same kernels
THREAD_CAPS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
# argv: src directory, then the CLI arguments
RUN_CLI = ("import sys; src = sys.argv[1]; sys.path.insert(0, src); "
           "import modheat.cli as cli; "
           "assert cli.__file__.startswith(src), cli.__file__; "
           "sys.exit(cli.main(sys.argv[2:]))")


def load_workloads():
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_checkout(checkout, workloads, inv, config, out_dir, seed):
    """Exit code of one invocation in one checkout."""
    src = os.path.join(os.path.abspath(checkout), "src")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **THREAD_CAPS)
    args = workloads.argv(inv, config, out_dir, seed)
    done = subprocess.run([sys.executable, "-c", RUN_CLI, src, *args],
                          env=env, capture_output=True, text=True,
                          timeout=900)
    return done.returncode


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def _rel_diff(a, b):
    x, y = _number(a), _number(b)
    if x is None or y is None:
        return math.inf
    if math.isnan(x) or math.isnan(y):
        return 0.0 if math.isnan(x) and math.isnan(y) else math.inf
    if x == y:
        return 0.0
    scale = max(abs(x), abs(y))
    return abs(x - y) / scale if math.isfinite(scale) else math.inf


def column_diffs(old, new):
    """{column: largest relative difference} of the columns in which two
    CSV texts differ; {None: inf} if their headers or shapes differ."""
    rows_a = [line.split(",") for line in old.splitlines()]
    rows_b = [line.split(",") for line in new.splitlines()]
    if (len(rows_a) != len(rows_b) or not rows_a or rows_a[0] != rows_b[0]
            or any(len(a) != len(b) for a, b in zip(rows_a, rows_b))):
        return {None: math.inf}
    diffs = {}
    for row_a, row_b in zip(rows_a[1:], rows_b[1:]):
        for name, a, b in zip(rows_a[0], row_a, row_b):
            if a != b:
                diffs[name] = max(diffs.get(name, 0.0), _rel_diff(a, b))
    return diffs


ABSENT = object()  # the side of a key or list item that one file lacks


def json_leaf_diffs(old, new, path=""):
    """(path, old, new) of every leaf at which two parsed JSON values
    differ, in document order, with paths such as
    diagnostics.picard.terms[0].exact_evaluations.  A key or list item on
    one side only is such a leaf, ABSENT on the other side; a leaf differs
    where its values or their types do (1 and 1.0, or 1 and true), and NaN
    matches NaN."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in list(old) + [k for k in new if k not in old]:
            yield from json_leaf_diffs(old.get(key, ABSENT),
                                       new.get(key, ABSENT),
                                       f"{path}.{key}" if path else key)
    elif isinstance(old, list) and isinstance(new, list):
        for i in range(max(len(old), len(new))):
            yield from json_leaf_diffs(old[i] if i < len(old) else ABSENT,
                                       new[i] if i < len(new) else ABSENT,
                                       f"{path}[{i}]")
    elif not ((type(old) is type(new) and old == new)
              or (isinstance(old, float) and isinstance(new, float)
                  and math.isnan(old) and math.isnan(new))):
        yield path, old, new


def _show(value):
    return "(absent)" if value is ABSENT else json.dumps(value)


def _comparable(name, data):
    """The bytes of an output file that two checkouts must share:
    run_record.json is re-serialized without its wall_time_s, a timing."""
    if name != "run_record.json":
        return data
    record = json.loads(data)
    record.pop("wall_time_s", None)
    return json.dumps(record, sort_keys=True).encode()


def file_diffs(where, name, old_bytes, new_bytes):
    """Difference lines of one output file of two checkouts."""
    old, new = (_comparable(name, b) for b in (old_bytes, new_bytes))
    if old == new:
        return []
    if name.endswith(".json"):
        leaves = [f"{where} {name} {path or '(root)'} {_show(a)} -> "
                  f"{_show(b)}" for path, a, b in json_leaf_diffs(
                      *(json.loads(b) for b in (old, new)))]
        return leaves or [f"{where} {name}: same values, other bytes"]
    lines = []
    for column, diff in column_diffs(old.decode(), new.decode()).items():
        label = "header or shape" if column is None else f"column {column}"
        lines.append(f"{where} {name} {label}: max relative difference "
                     f"{diff:.3g}")
    return lines


def compare(old, new, workload, seeds, work):
    """Difference lines, and the numbers of CSV and JSON files compared."""
    workloads = load_workloads()
    configs = workloads.write_configs(workload, os.path.join(work, "configs"))
    lines, compared = [], {".csv": 0, ".json": 0}
    for seed in seeds:
        for inv in workloads.WORKLOADS[workload]:
            where = f"{inv.name} seed {seed}"
            outs, codes = [], []
            for side, checkout in (("old", old), ("new", new)):
                out_dir = os.path.join(work, side, str(seed), inv.name)
                codes.append(run_checkout(checkout, workloads, inv,
                                          configs[inv.name], out_dir, seed))
                outs.append(pathlib.Path(out_dir))
            if codes[0] != codes[1]:
                lines.append(f"{where}: exit code {codes[0]} -> {codes[1]}")
            names = [sorted(p.name for p in out.glob("*")
                            if p.suffix in compared)
                     for out in outs]
            if names[0] != names[1]:
                lines.append(f"{where}: output files {names[0]} -> "
                             f"{names[1]}")
            for name in sorted(set(names[0]) & set(names[1])):
                compared[pathlib.Path(name).suffix] += 1
                lines += file_diffs(where, name, *((out / name).read_bytes()
                                                   for out in outs))
    return lines, compared


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old", help="checkout root of the reference")
    parser.add_argument("new", help="checkout root to compare with it")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as work:
        lines, compared = compare(args.old, args.new, args.workload,
                                  args.seeds, work)
    for line in lines:
        print(line)
    print(f"{args.workload}: {compared['.csv']} CSV and "
          f"{compared['.json']} JSON files compared at seeds {args.seeds}, "
          f"{'some differ' if lines else 'all byte-identical'}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())

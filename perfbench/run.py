"""modheat benchmark: CLI workloads timed end to end and, traced, per layer.

    python3 perfbench/run.py --workload {flow,series,estimators} \
        --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --workload W --write-reference

Run from the root of a checkout.  One process, one client, closed loop: the
workload's CLI invocations run one after another through `modheat.cli.main`,
and passes over the workload repeat until the next pass would overrun
`--seconds` (at least one pass).  Every invocation is checked: exit code,
all verdicts in its run_record.json, and at the default seed (or at every
seed, for seed-independent inputs) its CSV columns against the committed
reference values within a relative tolerance of RTOL (plus an absolute
FLOOR scaled by the column).

--trace 0 reports the end-to-end metrics:
  wall_cal     sum over invocations of the median of its main() call time
               divided by the host's speed during the call: every
               CAL_PERIOD seconds a SIGALRM handler times a fixed NumPy
               kernel (`calibrate`), and the call's own time (handler time
               taken out) is divided by the mean kernel time.  The host's
               speed drifts by up to 2x over seconds on a shared machine;
               the ratio cancels that drift, the raw time does not
  setup_s      median over fresh interpreters of the time from process
               start until modheat.cli is imported and the configs are
               written; one such probe runs after every invocation, so
               the probes sample the host's speed over the whole run (at
               least SETUP_PROBES of them)
  peak_rss_mb  peak resident memory of this process (getrusage)
The raw wall time (wall_s: the same sum of medians, in seconds) is printed
with them but not reported, because its run-to-run spread on a shared
host exceeds any bound the benchmark may set.
--trace 1 runs untraced passes for half of --seconds, then wraps every
layer's public functions (tracing.py) and runs traced passes for the rest; it
reports the per-layer metrics, medians over the traced passes.  It fails
`correct` if any original function is still held anywhere but by its
wrapper (an import site the tracer missed).  trace.coverage_frac, the layer
self times over the traced wall time, is reported only: self times always
add up to the spans' total, so it cannot show a missed site.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it print every metric by
name with its unit, failed_frac and the environment.  Timers act only on
this benchmark's own processes: no CPU pinning, no cache dropping, no
system-wide tracing.
"""

import os

# Thread caps, set before NumPy is imported (here or in a probe child).
THREAD_CAPS = {name: "1" for name in (
    "MODHEAT_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_CAPS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import probe  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
REFERENCE = os.path.join(HERE, "reference")
SETUP_PROBES = 5
# Tolerance of the CSV comparison: RTOL relative to each reference cell, plus
# FLOOR times the column's largest magnitude for cells that cancel to ~0.
# Roundoff-level changes pass, changed results do not.
RTOL = 1e-6
FLOOR = 1e-9
CAL_SIGNAL = np.exp(0.1j * np.arange(256))
CAL_REPS = 30      # ~1 ms per host-speed sample
CAL_PERIOD = 0.05  # seconds between samples during a call
LIMITS = ("wall-clock timers and getrusage on the benchmark's own processes "
          "only; no CPU pinning, no cache dropping, no system-wide tracing")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "platform": platform.platform(), "cpu_model": cpu,
            "nproc": len(os.sched_getaffinity(0)),
            "thread_caps": {k: os.environ[k] for k in THREAD_CAPS},
            "limits": LIMITS}


def calibrate():
    """Time of a fixed kernel with the workloads' mix: small FFTs from Python."""
    t0 = time.perf_counter()
    for _ in range(CAL_REPS):
        float(np.abs(np.fft.ifft(CAL_SIGNAL * 1.0001)).sum())
    return time.perf_counter() - t0


def measure_setup(workload):
    """Set-up time of one fresh interpreter, from process start."""
    t0 = time.monotonic()
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "probe.py"), workload,
         os.path.join(WORK, "probe")], capture_output=True, text=True,
        timeout=60, check=True)
    return float(done.stdout.strip().splitlines()[-1]) - t0


# -- correctness ---------------------------------------------------------------


def _cells_match(a, b, scale):
    if a == b:
        return True
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return abs(x - y) <= RTOL * abs(y) + FLOOR * scale


def _column_scales(rows):
    scales = []
    for col in zip(*rows):
        vals = []
        for cell in col:
            try:
                vals.append(abs(float(cell)))
            except ValueError:
                continue
        finite = [v for v in vals if math.isfinite(v)]
        scales.append(max(finite, default=0.0))
    return scales


def compare_csv(text, ref_text):
    """First mismatch between a CSV and its reference, or None."""
    rows = [line.split(",") for line in text.splitlines()]
    ref = [line.split(",") for line in ref_text.splitlines()]
    if len(rows) != len(ref):
        return f"{len(rows)} lines, reference has {len(ref)}"
    if rows[0] != ref[0]:
        return f"header {rows[0]} != {ref[0]}"
    scales = _column_scales(ref[1:])
    for r, (row, ref_row) in enumerate(zip(rows[1:], ref[1:]), start=1):
        if len(row) != len(ref_row):
            return f"line {r}: {len(row)} cells, reference has {len(ref_row)}"
        for c, (a, b) in enumerate(zip(row, ref_row)):
            if not _cells_match(a, b, scales[c]):
                return f"line {r} column {ref[0][c]}: {a} != reference {b}"
    return None


def read_outputs(out_dir):
    with open(os.path.join(out_dir, "run_record.json")) as fh:
        record = json.load(fh)
    csvs = {}
    for name in record["csv_files"]:
        with open(os.path.join(out_dir, name)) as fh:
            csvs[name] = fh.read()
    return record, csvs


def check(inv, code, out_dir, reference):
    """Reason the invocation failed, or None."""
    if code != inv.expected_exit:
        return f"exit code {code}, expected {inv.expected_exit}"
    record, csvs = read_outputs(out_dir)
    failed = [v["name"] for v in record["verdicts"] if not v["pass"]]
    if failed or not record["verdicts"]:
        return f"verdicts not passed: {failed or 'none recorded'}"
    if reference is None:
        return None
    if sorted(csvs) != sorted(reference):
        return f"CSV files {sorted(csvs)} != reference {sorted(reference)}"
    for name, text in csvs.items():
        diff = compare_csv(text, reference[name])
        if diff is not None:
            return f"{name}: {diff}"
    return None


# -- the closed loop -------------------------------------------------------------


class Runner:
    """Runs passes over one workload's invocations and checks each one."""

    def __init__(self, cli, workload, paths, seed, references):
        self.cli = cli
        self.workload = workload
        self.invocations = workloads.WORKLOADS[workload]
        self.paths = paths
        self.seed = seed
        self.references = references
        self.commands = {}   # invocation id -> CLI command
        self.failures = []   # (invocation name, reason)
        self.attempted = 0
        self.tracer = None
        self.samples = []    # host-speed samples of the current call
        self.setup_times = None  # a list: probe set-up after each invocation
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        secs = calibrate()
        self.samples.append(secs)
        if self.tracer is not None:
            self.tracer.paused += secs

    def run_pass(self):
        """One pass; returns {invocation name: (seconds, calibrated ratio)}.

        Host-speed samples are taken during each call; their time is left
        out of the call's seconds and of every span."""
        times = {}
        for inv in self.invocations:
            out_dir = os.path.join(WORK, "out", inv.name)
            shutil.rmtree(out_dir, ignore_errors=True)
            args = workloads.argv(inv, self.paths[inv.name], out_dir,
                                  self.seed)
            self.commands[self.attempted] = inv.command
            if self.tracer is not None:
                self.tracer.invocation = self.attempted
            self.attempted += 1
            main = self.cli.main  # rebound when the tracer is installed
            sink = io.StringIO()
            secs = math.nan
            self.samples = []
            try:
                with contextlib.redirect_stdout(sink), \
                        contextlib.redirect_stderr(sink):
                    signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD,
                                     CAL_PERIOD)
                    t0 = time.perf_counter()
                    try:
                        code = main(args)
                    finally:
                        secs = time.perf_counter() - t0
                        signal.setitimer(signal.ITIMER_REAL, 0)
                secs -= sum(self.samples)
                reason = check(inv, code, out_dir,
                               self.references.get(inv.name))
            except Exception as exc:  # a crash is a failed invocation
                reason = f"{type(exc).__name__}: {exc}"
            if reason is not None:
                self.failures.append((inv.name, reason))
            self.samples.append(calibrate())
            times[inv.name] = (secs, secs / statistics.fmean(self.samples))
            if self.setup_times is not None:
                self.setup_times.append(measure_setup(self.workload))
        return times

    def run_for(self, seconds):
        """Passes until the next one would overrun; returns their timings."""
        start = time.monotonic()
        passes, durations = [], []
        while True:
            t0 = time.monotonic()
            passes.append(self.run_pass())
            durations.append(time.monotonic() - t0)
            used = time.monotonic() - start
            if used + statistics.median(durations) > seconds:
                return passes


def wall(passes, calibrated=False):
    """Sum over invocations of the median of that invocation's times."""
    k = int(calibrated)
    return sum(statistics.median(p[name][k] for p in passes)
               for name in passes[0])


def layer_metrics(agg, wall_s):
    """Per-layer metric values of one traced pass."""
    fns = agg["functions"]
    out = {}
    for name, (calls, incl, own) in fns.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.incl_s"] = incl
        out[f"{name}.self_s"] = own
    for layer, own in agg["layer_self"].items():
        out[f"{layer}.self_s"] = own
    for cmd, secs in agg["cmd_wall"].items():
        out[f"cli.{cmd}.wall_s"] = secs
    stft_calls = fns.get("modnorm.mod_norm_stft", (0,))[0]
    out.update({
        "modnorm.blocks": agg["blocks"],
        "heat.solve.steps": agg["steps"],
        "spectral.inverse_transform.bytes": agg["inverse_bytes"],
        "cli.write.bytes": agg["write_bytes"],
        "modnorm.mod_norm_stft.redundant_frac":
            agg["stft_redundant"] / stft_calls if stft_calls else 0.0,
        "trace.wall_s": wall_s,
        "trace.coverage_frac": sum(agg["layer_self"].values()) / wall_s,
    })
    return out


def absent_functions(spec, tracer):
    """`layer.function` names of per-layer metrics that nothing wrapped."""
    missing = set()
    for m in spec["per_layer"]:
        parts = m["name"].split(".")
        if len(parts) == 3 and parts[0] in tracing.LAYERS \
                and parts[1] not in ("main", "write", "command") \
                and parts[2] in ("calls", "incl_s", "self_s"):
            fn = f"{parts[0]}.{parts[1]}"
            if fn not in tracer.wrapped:
                missing.add(fn)
    return sorted(missing)


def traced_run(runner, seconds, untraced_wall, spec):
    """Traced passes after `install`; `untraced_wall` is the calibrated wall
    of the passes without spans.  Returns the per-layer metrics, the
    references `install` missed, the absent functions and the number of
    import sites rebound."""
    tracer = tracing.Tracer()
    tracer.install()
    missed = tracer.unwrapped()
    runner.tracer = tracer
    first = runner.attempted
    passes = runner.run_for(seconds)
    per_pass = []
    # one pass = len(invocations) consecutive invocation ids; cut the span
    # log at each pass's first cli.main span
    n_inv = len(runner.invocations)
    cuts = [i for i, s in enumerate(tracer.spans)
            if s[0] == "cli.main" and (s[4] - first) % n_inv == 0]
    cuts.append(len(tracer.spans))
    for p, times in enumerate(passes):
        lo, hi = cuts[p], cuts[p + 1]
        agg = tracing.aggregate(tracer.spans[lo:hi], runner.commands, offset=lo)
        per_pass.append(layer_metrics(agg, sum(t for t, _ in times.values())))
    tracer.write(os.path.join(WORK, "spans.csv"))
    metrics = {}
    for m in spec["per_layer"]:
        vals = [pp.get(m["name"], 0) for pp in per_pass]
        metrics[m["name"]] = statistics.median(vals)
    metrics["trace.overhead_frac"] = wall(passes, True) / untraced_wall - 1.0
    return metrics, missed, absent_functions(spec, tracer), tracer.sites


def load_references(workload, seed):
    path = os.path.join(REFERENCE, f"{workload}.json")
    with open(path) as fh:
        stored = json.load(fh)
    return {inv.name: stored[inv.name]
            for inv in workloads.WORKLOADS[workload]
            if seed == workloads.DEFAULT_SEED
            or not inv.outputs_depend_on_seed}


def write_reference(cli, workload, paths):
    runner = Runner(cli, workload, paths, workloads.DEFAULT_SEED, {})
    runner.run_pass()
    if runner.failures:
        raise SystemExit(f"not writing a reference: {runner.failures}")
    stored = {}
    for inv in runner.invocations:
        _, csvs = read_outputs(os.path.join(WORK, "out", inv.name))
        stored[inv.name] = csvs
    os.makedirs(REFERENCE, exist_ok=True)
    with open(os.path.join(REFERENCE, f"{workload}.json"), "w") as fh:
        json.dump(stored, fh, indent=1, sort_keys=True)
        fh.write("\n")


def print_table(metrics, declared):
    for m in declared:
        print(f"  {m['name']:<48} {metrics[m['name']]:>16.6g} {m['unit']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store this commit's CSVs at the default seed")
    args = parser.parse_args()

    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    try:
        spec = load_spec()
        cli, paths = probe.prepare(args.workload, os.path.join(WORK, "configs"))
    except (OSError, ImportError) as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2
    if args.write_reference:
        write_reference(cli, args.workload, paths)
        return 0
    references = load_references(args.workload, args.seed)

    env = environment()
    runner = Runner(cli, args.workload, paths, args.seed, references)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    missed = []
    if args.trace == 0:
        runner.setup_times = []
        passes = runner.run_for(args.seconds)
        while len(runner.setup_times) < SETUP_PROBES:
            runner.setup_times.append(measure_setup(args.workload))
        print(f"  {'wall_s (not reported)':<48} {wall(passes):>16.6g} s")
        metrics = {
            "wall_cal": wall(passes, True),
            "setup_s": statistics.median(runner.setup_times),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        declared = spec["end_to_end"]
        detail = {"passes": passes, "setup_samples": runner.setup_times}
    else:
        passes = runner.run_for(args.seconds / 2.0)
        metrics, missed, absent, sites = traced_run(
            runner, args.seconds / 2.0, wall(passes, True), spec)
        declared = spec["per_layer"]
        detail = {"untraced_passes": passes, "absent_functions": absent,
                  "import_sites_rebound": sites, "unwrapped": missed}
        if absent:
            print(f"absent (reported as 0): {', '.join(absent)}")
        for line in missed:
            print(f"coverage check FAILED: {line}, not by its wrapper")
    failed = len(runner.failures)
    for name, reason in runner.failures:
        print(f"FAILED {name}: {reason}")
    print(f"invocations {runner.attempted}, failed_frac "
          f"{failed / runner.attempted:.6g} fraction")
    print_table(metrics, declared)
    result = {"correct": failed == 0 and not missed,
              "attempted": runner.attempted, "failed": failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]],
                                      "unit": m["unit"]} for m in declared}}
    with open(os.path.join(WORK, "result.json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "environment": env,
                   "failures": runner.failures, "detail": detail,
                   **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

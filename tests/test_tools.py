"""Tests of the maintenance scripts under tools/, and of the package's
public API against them."""

import ast
import json
import math
import pathlib
import re
import runpy

import pytest

from modheat import constants as C

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"

# one line per frozen constant, in the order the script prints them, with
# the check of the line's printed numbers against that constant
CONSTANT_CHECKS = {
    "CROSS_ESTIMATOR": lambda lo, hi: (1.0 / C.CROSS_ESTIMATOR_CONST <= lo
                                       <= hi <= C.CROSS_ESTIMATOR_CONST),
    "M22_OVER_L2": lambda lo, hi: (C.M22_OVER_L2_LO <= lo <= hi
                                   <= C.M22_OVER_L2_HI),
    "ALGEBRA_DEFECT": lambda defect: defect <= C.ALGEBRA_DEFECT_CAP,
    "FL1_EMBEDDING": lambda lo, hi: lo <= hi <= C.FL1_EMBEDDING_CONST,
    "PROPAGATOR_UNIFORM": lambda lo, hi: (lo <= hi
                                          <= C.PROPAGATOR_UNIFORM_CONST),
    "PICARD_DOMINATION": lambda worst, s: s <= C.PICARD_DOMINATION_SLACK,
    "TRANSFER": lambda ratio: ratio <= C.TRANSFER_SLACK,
    "DECAY_PROFILE": lambda sup: sup <= C.DECAY_PROFILE_CONST,
}


def test_measure_constants_runs(capsys):
    # runs the script against the library as it is, so a signature change
    # there cannot break it silently, and holds every printed value to its
    # frozen constant, so a script that measures something else fails
    runpy.run_path(str(TOOLS / "measure_constants.py"), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == list(CONSTANT_CHECKS)
    for line in lines:
        values = [float(x) for x in
                  re.findall(r"\d+\.\d+(?:e[-+]\d+)?", line)]
        assert CONSTANT_CHECKS[line.split()[0]](*values), line


def test_compare_outputs_self_reports_nothing(capsys):
    # every invocation of the workload runs in both checkouts; one checkout
    # against itself differs in no CSV and no JSON file, the run records
    # (one per invocation) included
    tool = runpy.run_path(str(TOOLS / "compare_outputs.py"))
    root = str(TOOLS.parent)
    code = tool["main"]([root, root, "--workload", "estimators",
                         "--seeds", "0"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines == ["estimators: 6 CSV and 4 JSON files compared at "
                     "seeds [0], all byte-identical"]


def test_compare_outputs_column_diffs():
    tool = runpy.run_path(str(TOOLS / "compare_outputs.py"))
    old = "i,name,value\n0,a,1.0\n1,b,2.0\n2,c,nan\n"
    assert tool["column_diffs"](old, old) == {}
    new = "i,name,value\n0,a,1.0\n1,b,2.000000000000001\n2,x,nan\n"
    diffs = tool["column_diffs"](old, new)
    assert diffs["name"] == math.inf
    assert diffs["value"] == pytest.approx(5e-16, rel=0.2)
    assert tool["column_diffs"](old, old + "3,d,0.0\n") == {None: math.inf}


def test_compare_outputs_json_diff():
    tool = runpy.run_path(str(TOOLS / "compare_outputs.py"))
    diffs = tool["json_leaf_diffs"]
    old = [{"norm_id": "f0", "value": 2.0, "flags": []},
           {"norm_id": "f1", "value": math.nan, "flags": ["moved"]}]
    assert list(diffs(old, old)) == []
    new = [dict(old[0], value=2.000000000000001), old[1]]
    assert list(diffs(old, new)) == [("[0].value", 2.0, 2.000000000000001)]
    absent = tool["ABSENT"]
    for other, want in (
            ([old[0]], [("[1]", old[1], absent)]),
            ([dict(old[0], norm_id="g0"), old[1]],
             [("[0].norm_id", "f0", "g0")]),
            ([old[0], dict(old[1], flags=[])],
             [("[1].flags[0]", "moved", absent)]),
            ([dict(old[0], value=True), old[1]], [("[0].value", 2.0, True)]),
            ([old[0], {"norm_id": "f1", "value": math.nan}],
             [("[1].flags", ["moved"], absent)])):
        assert list(diffs(old, other)) == want
    # 1 and 1.0, and 1 and true, are different leaves; NaN matches NaN
    assert list(diffs({"a": 1}, {"a": 1.0})) == [("a", 1, 1.0)]
    assert list(diffs({"a": 1}, {"a": True})) == [("a", 1, True)]
    assert list(diffs({"a": [math.nan]}, {"a": [math.nan]})) == []


def test_compare_outputs_run_record_without_wall_time():
    # run_record.json is compared without its timing; a diagnostics number
    # that moves is reported by its path, as in any JSON file
    tool = runpy.run_path(str(TOOLS / "compare_outputs.py"))
    record = {"command": "transfer", "verdicts": [{"value": math.nan}],
              "diagnostics": {"per_p": [{"best_trial_ratio": 0.5}],
                              "picard": {"terms": [
                                  {"exact_evaluations": 6}]}},
              "wall_time_s": 0.25}
    old = json.dumps(record, indent=2).encode()
    slower = json.dumps(dict(record, wall_time_s=7.5)).encode()
    assert tool["file_diffs"]("t seed 0", "run_record.json", old,
                              slower) == []
    moved = dict(record, diagnostics={
        "per_p": [{"best_trial_ratio": 0.5000000000000002}],
        "picard": {"terms": [{"exact_evaluations": 4}]}})
    lines = tool["file_diffs"]("t seed 0", "run_record.json", old,
                               json.dumps(moved).encode())
    assert lines == [
        "t seed 0 run_record.json diagnostics.per_p[0].best_trial_ratio "
        "0.5 -> 0.5000000000000002",
        "t seed 0 run_record.json "
        "diagnostics.picard.terms[0].exact_evaluations 6 -> 4"]
    # any other JSON file is compared byte for byte, its timing included,
    # and one that differs in its bytes alone says so
    assert tool["file_diffs"]("t seed 0", "report.json", old, slower) == [
        "t seed 0 report.json wall_time_s 0.25 -> 7.5"]
    assert tool["file_diffs"]("t seed 0", "report.json", old,
                              json.dumps(record).encode()) == [
        "t seed 0 report.json: same values, other bytes"]


# wall_cal of each (side, pair) of the fake runs, and the OLD quartiles of
# np.percentile's linear rule: sorted 10, 11, 12, 13 -> 10.75 and 12.25
FAKE_WALL_CAL = {"old": [10.0, 12.0, 11.0, 13.0], "new": [9.0, 12.5, 10.0, 11.0]}


def test_compare_timing_alternates_and_summarizes(tmp_path):
    tool = runpy.run_path(str(TOOLS / "compare_timing.py"))
    old, new = tmp_path / "old", tmp_path / "new"
    for checkout in (old, new):
        (checkout / "src" / "pkg" / "__pycache__").mkdir(parents=True)
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        # the bytecode of both checkouts is gone before the first run
        assert not list(tmp_path.rglob("__pycache__"))
        side = "old" if checkout == old else "new"
        pair = seed - 7
        calls.append((side, seed))
        return {"correct": True, "wall_cal": FAKE_WALL_CAL[side][pair],
                "wall_s": 2.0 if side == "old" else 1.0,
                "peak_rss_mb": 50.0, "setup_s": 0.1 * (pair + 1),
                "minor_faults": 500 + 10 * pair + (side == "new")}

    figures = tool["compare"](old, new, "flow", 4, 1.5, 7, run=fake_run)
    # a fresh seed per pair, and the first side alternates
    assert calls == [("old", 7), ("new", 7), ("new", 8), ("old", 8),
                     ("old", 9), ("new", 9), ("new", 10), ("old", 10)]
    assert figures["failed"] == []
    # the claim rule fails twice: 3 of 4 wins are fewer than 9/10, and the
    # medians lie 1 apart, less than the IQR's width 1.5
    assert figures["wall_cal"] == {
        "old_median": 11.5, "new_median": 10.5, "old_iqr": [10.75, 12.25],
        "new_wins": 3, "outside_iqr": True, "claim_rule": False}
    # every pair won, and the medians 1 apart against an IQR of width 0
    assert figures["wall_s"]["new_wins"] == 4
    assert figures["wall_s"]["claim_rule"]
    # equal readings are no win, and a median on the range is inside it
    assert figures["peak_rss_mb"]["new_wins"] == 0
    assert not figures["peak_rss_mb"]["outside_iqr"]
    assert not figures["peak_rss_mb"]["claim_rule"]
    assert not figures["setup_s"]["outside_iqr"]
    # each run's faults, in pair order per side
    assert figures["minor_faults"] == {"old": [500, 510, 520, 530],
                                       "new": [501, 511, 521, 531]}
    lines = tool["report"](figures)
    assert json.loads(lines[-1]) == json.loads(json.dumps(figures))
    assert lines[1] == (
        "  wall_cal     median 11.5 -> 10.5, OLD IQR [10.75, 12.25], NEW "
        "lower in 3/4, outside OLD IQR, claim rule not met; wall_s median "
        "2 -> 1")
    assert lines[2] == (
        "  peak_rss_mb  median 50 -> 50, OLD IQR [50, 50], NEW lower in 0/4, "
        "inside OLD IQR, claim rule not met; minor faults OLD [500, 510, "
        "520, 530], NEW [501, 511, 521, 531]")

    def failing_run(checkout, workload, seed, seconds):
        return dict(fake_run(checkout, workload, seed, seconds),
                    correct=checkout == old)

    figures = tool["compare"](old, new, "flow", 1, 1.5, 7, run=failing_run)
    assert figures["failed"] == ["new run at seed 7 failed its checks"]
    assert "wall_cal" not in figures and "minor_faults" not in figures
    assert json.loads(tool["report"](figures)[-1])["failed"] == [
        "new run at seed 7 failed its checks"]


def test_compare_timing_self_smoke_pair(capsys):
    # one pair of real perfbench runs of this checkout against itself: one
    # pass each, as --seconds 0 allows
    tool = runpy.run_path(str(TOOLS / "compare_timing.py"))
    root = str(ROOT)
    code = tool["main"]([root, root, "--workload", "estimators",
                         "--pairs", "1", "--seconds", "0"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    figures = json.loads(lines[-1])
    assert figures["failed"] == [] and figures["seeds"] == [1000, 1000]
    for name in ("wall_cal", "peak_rss_mb", "setup_s", "wall_s"):
        assert set(figures[name]) == {"old_median", "new_median", "old_iqr",
                                      "new_wins", "outside_iqr",
                                      "claim_rule"}
        assert figures[name]["old_median"] > 0
    # a fresh interpreter faults in its pages: every run counts some
    assert all(count > 0 for side in ("old", "new")
               for count in figures["minor_faults"][side])


def _public_api(tree):
    """Public top-level functions and classes of a module, and the public
    methods and properties of its classes, as (qualified name, name,
    definition)."""
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            yield node.name, node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        yield f"{node.name}.{item.name}", item.name, item


def _names_used(tree):
    """Every name a module refers to: ast.Name ids, ast.Attribute
    attributes and the last part of imported names."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rpartition(".")[2])
    return used


def test_no_test_only_public_api():
    # every public function, class, method and property of src/modheat is
    # named by some module of src/modheat, tools/ or perfbench/, so none
    # is reached only by the tests.  Matching is by bare name: a name that
    # shares its spelling with a used one (a method named like a used
    # attribute elsewhere) passes unseen.  cli.cmd_* are reached through
    # globals(), by the command table.
    used = set()
    for folder in ("src/modheat", "tools", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            used |= _names_used(ast.parse(path.read_text()))
    unused = []
    for path in sorted((ROOT / "src" / "modheat").glob("*.py")):
        for qualified, name, _ in _public_api(ast.parse(path.read_text())):
            if path.stem == "cli" and name.startswith("cmd_"):
                continue
            if name not in used:
                unused.append(f"{path.stem}.{qualified}")
    assert unused == []


def _public_defaults(tree):
    """(qualified name, name, parameter, positional index) of every
    parameter with a default of _public_api's functions and methods.  The
    index counts the arguments a call passes by position (a method's self
    is not one); it is None for a keyword-only parameter."""
    for qualified, name, fn in _public_api(tree):
        if isinstance(fn, ast.ClassDef):
            continue
        skip = "." in qualified and not any(
            isinstance(dec, ast.Name) and dec.id == "staticmethod"
            for dec in fn.decorator_list)
        args = fn.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        for i, arg in enumerate(positional[first:], first):
            yield qualified, name, arg.arg, i - skip
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield qualified, name, arg.arg, None


def _call_arguments(tree):
    """{bare name: [(positional arguments, keyword names)]} of every call
    of a module to a name or attribute: a *args counts as every position
    (inf), and a **kwargs as the keyword name None."""
    calls = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (func.id if isinstance(func, ast.Name) else
                func.attr if isinstance(func, ast.Attribute) else None)
        if name is None:
            continue
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        calls.setdefault(name, []).append(
            (math.inf if starred else len(node.args),
             {k.arg for k in node.keywords}))
    return calls


def test_no_test_only_defaults():
    # every default of a public function or method of src/modheat is left
    # to its default by some call of src/modheat, tools/ or perfbench/
    # (one that passes it neither by position nor by keyword, with no
    # **kwargs), so no default serves only the tests.  Matching is by bare
    # name, as in test_no_test_only_public_api; dataclass field defaults
    # are not parameters of a def and are not checked.
    calls = {}
    for folder in ("src/modheat", "tools", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            for name, found in _call_arguments(
                    ast.parse(path.read_text())).items():
                calls.setdefault(name, []).extend(found)
    unused = []
    for path in sorted((ROOT / "src" / "modheat").glob("*.py")):
        for qualified, name, param, index in _public_defaults(
                ast.parse(path.read_text())):
            if not any(None not in keywords and param not in keywords
                       and (index is None or passed <= index)
                       for passed, keywords in calls.get(name, [])):
                unused.append(f"{path.stem}.{qualified}({param})")
    assert unused == []


def _private_definitions(tree):
    """Names of a module's top-level private functions, classes and
    constants (one leading underscore)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from (name for name in names
                    if name.startswith("_") and not name.startswith("__"))


def _names_read(tree):
    """Every name a module reads: ast.Name ids in load context, ast.Attribute
    attributes and the last part of imported names."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name.rpartition(".")[2])
    return read


def test_no_dead_private_helpers():
    # every top-level private function, class and constant of src/modheat
    # is read by some module of src/modheat, so a deletion cannot leave a
    # dead helper behind, nor one that only the tests or tools reach.
    # Matching is by bare name, as in test_no_test_only_public_api.
    trees = {path: ast.parse(path.read_text())
             for path in sorted((ROOT / "src" / "modheat").glob("*.py"))}
    read = set().union(*map(_names_read, trees.values()))
    dead = [f"{path.stem}.{name}" for path, tree in trees.items()
            for name in _private_definitions(tree) if name not in read]
    assert dead == []


def _unused_imports(tree):
    """Names a module imports (the bound name: the alias, or the first part
    of a dotted `import a.b`) that no ast.Name of it reads."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0]
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names
                         if a.name != "*"]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_no_unused_imports():
    # no module of src/modheat, tools/ or tests/ imports a name it never
    # uses, so a deletion cannot leave an import of the deleted code behind
    unused = []
    for folder in ("src/modheat", "tools", "tests"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            unused += [f"{path.relative_to(ROOT)}: {name}" for name in
                       _unused_imports(ast.parse(path.read_text()))]
    assert unused == []


# the only functions of src/modheat that reorder frequency samples between
# the FFT's slot order and the order from mode -N/2 up: the csv reader and
# the random trials' draws
SHIFT_SITES = {("spectral", "load_grid_function"),
               ("torus", "operator_norm_lower")}


def _shift_sites(tree):
    """(top-level definition, line) of every fftshift or ifftshift a module
    names: attribute, bare name or import."""
    shifts = {"fftshift", "ifftshift"}
    for top in tree.body:
        for node in ast.walk(top):
            name = (node.attr if isinstance(node, ast.Attribute) else
                    node.id if isinstance(node, ast.Name) else
                    node.name.rpartition(".")[2]
                    if isinstance(node, ast.alias) else None)
            if name in shifts:
                yield getattr(top, "name", None), node.lineno


def test_one_frequency_order():
    # every frequency array of src/modheat stays in slot order: a shift
    # anywhere but the two boundary sites would bring a second order back
    stray, sites = [], set()
    for path in sorted((ROOT / "src" / "modheat").glob("*.py")):
        for owner, line in _shift_sites(ast.parse(path.read_text())):
            if (path.stem, owner) in SHIFT_SITES:
                sites.add((path.stem, owner))
            else:
                stray.append(f"{path.relative_to(ROOT)}:{line} in {owner}")
    assert stray == []
    assert sites == SHIFT_SITES

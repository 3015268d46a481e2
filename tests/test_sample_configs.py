"""Sample configs end to end: the blowup witness, the tail fits and the
variation limits.

Each config in ``configs/`` runs through ``cli.run`` and must give the exit
code, verdict and finding of its row in ``SAMPLES``, which agree with the
benchmark's (``EXPECTED`` in ``perfbench/run.py``) wherever both have the
config, make exactly the row's LAPACK solves (``dpttrs``) and
factorizations (``dpttrf``), keep the digests of its outputs
(``conftest.moved_outputs``), and give a verdict that follows from its
report's check rows alone.  A moved digest fails naming each value that
moved against the pinned report (``conftest.describe_moves``).

Run as a script, this module re-pins the digests and the reports from every
sample config as it runs here, and prints what moved; it writes nothing and
exits 1 where a run's exit code, verdict or finding is not its row's in
``SAMPLES`` (``repin``):

    PYTHONPATH=src python tests/test_sample_configs.py
"""

import contextlib
import csv
import hashlib
import importlib.util
import io
import json
import math
import operator
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import heatlab.solver
from conftest import (SAMPLE_DIGESTS, SAMPLE_REPORTS, describe_moves,
                      lapack_calls, moved_outputs, no_child_left,
                      output_digests, run_record)
from heatlab.cli import _dumps, run

ROOT = Path(__file__).resolve().parents[1]


def _benchmark_module(name: str):
    """Load ``perfbench/<name>.py`` without writing bytecode next to it."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    keep = sys.dont_write_bytecode  # the run module switches it on
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = keep
    return module


EXPECTED = _benchmark_module("run").EXPECTED

DEGIORGI = "variation limit matches exact value"
TAIL = "tail decays exponentially in 1/t"
# config: (exit code, verdict, finding, dpttrs solves, dpttrf factorizations)
SAMPLES = {
    "blowup_euclidean_control": (0, "refutes", "convergent", 1_674, 47),
    "blowup_overflow_error": (3, None, "RangeError", 0, 0),
    "blowup_superexp": (0, "confirms", "divergent", 13_454, 96),
    "comparison": (0, "confirms", "barrier dominates", 0, 0),
    "completeness_euclidean": (0, "confirms", "complete", 10_562, 270),
    "completeness_superexp": (0, "refutes", "incomplete", 13_302, 260),
    "degiorgi_annulus": (0, "confirms", DEGIORGI, 2_418, 44),
    "degiorgi_euclidean": (0, "confirms", DEGIORGI, 1_262, 44),
    "degiorgi_gaussian": (0, "confirms", DEGIORGI, 1_254, 44),
    "tail_euclidean": (0, "confirms", TAIL, 1_634, 45),
    "tail_gaussian": (0, "confirms", TAIL, 1_602, 46),
    "validate": (0, "confirms", "all properties hold", 14_382, 225),
}

# perimeter of the unit sphere in R^3 under each degiorgi config's weight:
# sigma * A(1) with A(r) = r^2 (flat) and r^2 exp(-r^2) (Gaussian)
PERIMETER = {"degiorgi_euclidean": 4.0 * math.pi,
             "degiorgi_gaussian": 4.0 * math.pi / math.e}


RELATIONS = {"<=": operator.le, "<": operator.lt, ">=": operator.ge,
             ">": operator.gt}


def _verdict_from_rows(checks):
    """The verdict a list of report rows gives, read from the rows alone:
    each status is recomputed from its comparison first, then confirms
    needs every row not gated refutes to pass, refutes every row not gated
    confirms."""
    assert checks, "a verdict needs at least one row"
    for row in checks:
        holds = RELATIONS[row["relation"]](float(row["measured"]),
                                           float(row["tolerance"]))
        assert row["status"] == ("pass" if holds else "fail"), row
    for verdict, other in (("confirms", "refutes"), ("refutes", "confirms")):
        if all(row["status"] == "pass" for row in checks
               if row["gate"] != other):
            return verdict
    return "inconclusive"


def _recomputed_verdict(report):
    checks = report["evidence"]["checks"]
    if report["config"]["experiment"] == "blowup":
        # one row list per t gives that t's finding, and the sweep's
        # verdict is read from the rows of every t
        named = {"confirms": "divergent", "refutes": "convergent"}
        assert report["evidence"]["findings"] == [
            named.get(_verdict_from_rows(c), "undetermined") for c in checks]
        checks = [row for c in checks for row in c]
    return _verdict_from_rows(checks)


@pytest.fixture(scope="module")
def sample_run(tmp_path_factory):
    """Run a sample config once per module: name -> (exit code, out dir,
    {LAPACK routine: calls during the run, forked children's included})."""
    runs = {}

    def ran(name):
        if name not in runs:
            out = tmp_path_factory.mktemp("samples") / name
            with lapack_calls(out.parent / "calls") as calls:
                code = run(str(ROOT / "configs" / f"{name}.json"), str(out),
                           threads=1)
            runs[name] = (code, out, calls)
        return runs[name]
    return ran


def test_the_table_holds_every_sample_config_and_the_benchmarks_rows():
    configs = {p.stem for p in (ROOT / "configs").glob("*.json")}
    assert set(SAMPLES) == configs
    assert {name: SAMPLES[name][:3] for name in EXPECTED} == EXPECTED


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_sample_config_verdict(sample_run, name):
    code, verdict, finding, solves, factors = SAMPLES[name]
    ran, out, calls = sample_run(name)
    assert ran == code
    assert calls == {"dpttrs": solves, "dpttrf": factors}
    assert no_child_left(), f"{name} left a child process"
    moved = moved_outputs(name, out)
    assert not moved, f"{name} outputs moved: {moved}\n{describe_moves(name, out)}"
    if code != 0:
        # an aborted run names its error class where a verdict would go
        error = json.loads((out / "error.json").read_text())
        assert (error["error"], error["exit_code"]) == (finding, code)
        assert not (out / "report.json").exists()
        return
    report = json.loads((out / "report.json").read_text())
    assert (report["verdict"], report["finding"]) == (verdict, finding)
    assert _recomputed_verdict(report) == verdict
    if name in PERIMETER:
        exact = PERIMETER[name]
        gap = abs(report["fitted"]["extrapolated_limit"] - exact) / exact
        assert gap <= report["config"]["tolerances"]["gap_rtol"]


@pytest.mark.parametrize("name", ["blowup_superexp", "completeness_euclidean",
                                  "completeness_superexp", "validate"])
def test_a_sample_that_forks_keeps_its_digests_inline(tmp_path, monkeypatch, name):
    # these samples fork one child where they can (blowup's flat companion,
    # the exhaustion walk's odd levels, half of validate); run in the caller
    # alone they must fork nothing and write the same bits with the table's
    # LAPACK calls
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(None) or fork())
    monkeypatch.setattr(heatlab.solver, "can_fork", lambda: False)
    out = tmp_path / name
    with lapack_calls(tmp_path / "calls") as calls:
        code = run(str(ROOT / "configs" / f"{name}.json"), str(out))
    assert forks == []
    assert (code, calls["dpttrs"], calls["dpttrf"]) == (SAMPLES[name][0], *SAMPLES[name][3:])
    moved = moved_outputs(name, out)
    assert not moved, f"{name} outputs moved inline: {moved}\n{describe_moves(name, out)}"


REPORT_KEYS = {"config", "evidence", "files", "finding", "fitted", "series",
               "tool", "verdict", "version"}


def _key_names(obj) -> set:
    """Every key of ``obj``'s dicts, at any depth."""
    if isinstance(obj, dict):
        return set(obj).union(*map(_key_names, obj.values()))
    if isinstance(obj, list):
        return set().union(*map(_key_names, obj))
    return set()


@pytest.mark.parametrize("name", sorted(
    name for name, row in SAMPLES.items() if row[0] == 0))
def test_each_fact_has_one_place_in_the_outputs(sample_run, name):
    # the config echo holds the inputs, series the data and evidence the
    # decision; each CSV holds one series, headed by its rows' keys, and
    # fitted holds only what none of them holds
    _, out, _ = sample_run(name)
    report = json.loads((out / "report.json").read_text())
    series = report.get("series")
    if report["config"]["experiment"] == "validate":
        # the battery's rows are its evidence, and its CSV holds them
        assert set(report) == REPORT_KEYS - {"fitted", "series"}
        series = {"validate": report["evidence"]["checks"]}
    else:
        assert set(report) == REPORT_KEYS
    assert set(report["evidence"]) <= {"checks", "findings", "worst_nodes"}
    assert report["files"] == sorted(f"{s}.csv" for s in series)
    for s, rows in series.items():
        with open(out / f"{s}.csv", encoding="utf-8", newline="") as fh:
            header, *lines = csv.reader(fh)
        assert len(lines) == len(rows)
        assert all(sorted(row) == sorted(header) for row in rows), s
    fitted = report.get("fitted", {})
    fitted_keys = set(fitted).union(*map(set, fitted.get("per_t", [])))
    checks = report["evidence"]["checks"]
    if report["config"]["experiment"] == "blowup":
        checks = [row for c in checks for row in c]
    copies = fitted_keys & ({row["property"] for row in checks}
                            | _key_names(series) | _key_names(report["config"]))
    assert not copies, f"fitted repeats {sorted(copies)}"


DRIVERS = ("degiorgi", "completeness", "blowup", "comparison", "tail")


def _readme_rows():
    """(experiment, property, relation, gate) of each driver's row in the
    README's table under "How a verdict is decided"."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("### How a verdict is decided")[1].split("\n#")[0]
    rows = []
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        # each code cell opens with its name in backticks
        names = [c.split("`")[1] if c.startswith("`") else c for c in cells]
        if len(cells) == 5 and names[0] in DRIVERS:
            rows.append((names[0], names[1], names[2], cells[4]))
    return rows


def test_readme_row_table_matches_the_sample_reports(sample_run):
    carried = set()
    for name in SAMPLES:
        code, out, _ = sample_run(name)
        if code != 0:
            continue
        report = json.loads((out / "report.json").read_text())
        experiment = report["config"]["experiment"]
        if experiment in DRIVERS:
            checks = report["evidence"]["checks"]
            if experiment == "blowup":
                checks = [row for c in checks for row in c]
            carried |= {(experiment, row["property"],
                         row["relation"], row["gate"]) for row in checks}
    documented = set(_readme_rows())
    assert documented == carried, (
        f"README only: {sorted(documented - carried)}; "
        f"reports only: {sorted(carried - documented)}")


def test_benchmark_tracer_still_finds_the_solver(tmp_path):
    # the tracer wraps heatlab.solver.solve_banded and
    # WeightedOperator.banded by name; a traced run must still exit cleanly
    # with its span books balanced
    tracer = _benchmark_module("spans").Tracer()
    config = str(ROOT / "configs" / "tail_euclidean.json")
    with tracer.installed(), tracer.span("harness.pass"):
        code = run(config, str(tmp_path / "out"), threads=1)
    assert code == 0
    wall = tracer.span_end[0] - tracer.span_start[0]
    layer_self, _ = tracer.layer_totals()
    assert abs(sum(layer_self.values()) - wall) <= 1e-6 * max(wall, 1.0)
    assert tracer.calls_of("operator.banded") > 0


def test_one_openblas_thread_gives_the_recorded_bits(tmp_path):
    # the error norms' matrix-vector product runs in OpenBLAS, threaded by
    # default; the two-column control run, the sweep whose flat companion
    # records its steps in a forked child, the exhaustion whose levels
    # replay in children and the battery whose second half runs in a child
    # must write the same bytes on one thread as the recorded digests
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import heatlab.cli; "
            "sys.exit(max(heatlab.cli.run(c, o) for c, o in "
            "zip(sys.argv[2::2], sys.argv[3::2])))")
    names = ("blowup_euclidean_control", "blowup_superexp", "completeness_superexp",
             "validate")
    runs = [str(path) for name in names
            for path in (ROOT / "configs" / f"{name}.json", tmp_path / name)]
    subprocess.run([sys.executable, "-c", code, str(ROOT / "src"), *runs],
                   env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
                   capture_output=True, check=True)
    for name in names:
        out = tmp_path / name
        assert not moved_outputs(name, out), describe_moves(name, out)


def test_every_sample_config_has_digests():
    # and a pinned report whose bytes are the ones its digest records
    configs = sorted(p.stem for p in (ROOT / "configs").glob("*.json"))
    digests = json.loads(SAMPLE_DIGESTS.read_text())
    assert sorted(digests) == configs
    assert sorted(p.stem for p in SAMPLE_REPORTS.glob("*.json")) == configs
    for name in configs:
        record = "report.json" if "report.json" in digests[name] else "error.json"
        pinned = (SAMPLE_REPORTS / f"{name}.json").read_bytes()
        assert hashlib.sha256(pinned).hexdigest() == digests[name][record], name


def test_a_moved_digit_names_its_row_and_both_values(sample_run, tmp_path):
    # the digests stay the gate: one ulp added to one row's measured value
    # moves the report's digest, and the failure names that row, its old
    # and its new value, and nothing else
    _, out, _ = sample_run("comparison")
    planted = tmp_path / "comparison"
    shutil.copytree(out, planted)
    text = (planted / "report.json").read_text()
    old = json.loads(text)["evidence"]["checks"][0]["measured"]
    new = math.nextafter(old, math.inf)
    before = f'"measured": {_dumps(old)},'
    assert text.count(before) == 1
    (planted / "report.json").write_text(
        text.replace(before, f'"measured": {new!r},'))
    assert moved_outputs("comparison", planted) == ["report.json"]
    assert describe_moves("comparison", planted) == (
        f"evidence.checks[0].measured: {old!r} -> {new!r} "
        f"(relative change {abs(new - old) / abs(old):.3g})")


def repin(configs, reports: Path = SAMPLE_REPORTS, digests: Path = SAMPLE_DIGESTS) -> int:
    """Re-pin the digests and the reports of ``configs`` as they run here, and
    print each value that moved against the reports pinned before.  A re-pin
    cannot move a decision: where a run's exit code, verdict or finding is
    not its row's in ``SAMPLES``, it prints those samples and returns 1 with
    nothing written."""
    with tempfile.TemporaryDirectory() as tmp:
        outs, wrong = {}, []
        for config in configs:
            out = outs[config.stem] = Path(tmp) / config.stem
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = run(str(config), str(out), threads=1)
            record = json.loads(run_record(out).read_text())
            ran = (code, record.get("verdict"), record.get("finding", record.get("error")))
            if ran != SAMPLES.get(config.stem, ())[:3]:
                wrong.append(f"{config.stem}: ran {ran}, SAMPLES reads "
                             f"{SAMPLES.get(config.stem, ())[:3]}")
        if wrong:
            print("a re-pin cannot move a decision; nothing written", *wrong, sep="\n")
            return 1
        reports.mkdir(exist_ok=True)
        pinned = json.loads(digests.read_text()) if digests.exists() else {}
        for name, out in outs.items():
            pinned[name] = output_digests(out)
            moves = describe_moves(name, out)
            print(f"{name}: {'moved' if moves else 'unchanged'}")
            if moves:
                print(moves)
            shutil.copyfile(run_record(out), reports / f"{name}.json")
    digests.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


def test_a_repin_that_moves_a_decision_writes_nothing(tmp_path, monkeypatch, capsys):
    # one planted wrong verdict in SAMPLES: the re-pin names that sample and
    # leaves the reports and the digests as they were; with SAMPLES right it
    # writes the run's report and digests
    reports, digests = tmp_path / "reports", tmp_path / "digests.json"
    shutil.copytree(SAMPLE_REPORTS, reports)
    shutil.copyfile(SAMPLE_DIGESTS, digests)
    before = {p.name: p.read_bytes() for p in (*reports.iterdir(), digests)}
    (reports / "comparison.json").write_text("{}")
    before["comparison.json"] = b"{}"
    config = ROOT / "configs" / "comparison.json"
    monkeypatch.setitem(SAMPLES, "comparison", (0, "refutes", *SAMPLES["comparison"][2:]))
    assert repin([config], reports, digests) == 1
    assert "comparison: ran (0, 'confirms', 'barrier dominates')" in capsys.readouterr().out
    assert {p.name: p.read_bytes() for p in (*reports.iterdir(), digests)} == before
    monkeypatch.undo()
    assert repin([config], reports, digests) == 0
    assert (reports / "comparison.json").read_bytes() == \
        (SAMPLE_REPORTS / "comparison.json").read_bytes()
    assert digests.read_bytes() == SAMPLE_DIGESTS.read_bytes()


if __name__ == "__main__":
    sys.exit(repin(sorted((ROOT / "configs").glob("*.json"))))

"""Sample configs end to end: the blowup witness, the tail fits and the
variation limits.

Each config in ``configs/`` runs through ``cli.run`` and must give the exit
code, verdict and finding that the benchmark checks (``EXPECTED`` in
``perfbench/run.py``), so the table has one home, keep the digests of its
outputs (``conftest.moved_outputs``), and give a verdict that follows from
its report's check rows alone.
"""

import csv
import importlib.util
import json
import math
import operator
import sys
import tempfile
from pathlib import Path

import pytest

from conftest import SAMPLE_DIGESTS, moved_outputs, output_digests
from heatlab.cli import run

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
    """Run a sample config once per module: name -> (exit code, out dir)."""
    runs = {}

    def ran(name):
        if name not in runs:
            out = tmp_path_factory.mktemp("samples") / name
            runs[name] = (run(str(ROOT / "configs" / f"{name}.json"),
                              str(out), threads=1), out)
        return runs[name]
    return ran


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_sample_config_verdict(sample_run, name):
    code, verdict, finding = EXPECTED[name]
    ran, out = sample_run(name)
    assert ran == code
    moved = moved_outputs(name, out)
    assert not moved, f"{name} outputs moved: {moved}"
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


REPORT_KEYS = {"config", "evidence", "files", "finding", "fitted", "series",
               "tool", "verdict", "version"}


@pytest.mark.parametrize("name", sorted(
    name for name, (code, _, _) in EXPECTED.items() if code == 0))
def test_each_fact_has_one_place_in_the_outputs(sample_run, name):
    # the config echo holds the inputs, series the data and evidence the
    # decision; each CSV holds one series, headed by its rows' keys
    _, out = sample_run(name)
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
    for name, (code, _, _) in EXPECTED.items():
        ran, out = sample_run(name)
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


def test_every_sample_config_has_digests():
    configs = sorted(p.stem for p in (ROOT / "configs").glob("*.json"))
    assert sorted(json.loads(SAMPLE_DIGESTS.read_text())) == configs


if __name__ == "__main__":
    # regenerate the digests from every sample config as it runs here
    with tempfile.TemporaryDirectory() as tmp:
        digests = {}
        for config in sorted((ROOT / "configs").glob("*.json")):
            out = Path(tmp) / config.stem
            run(str(config), str(out), threads=1)
            digests[config.stem] = output_digests(out)
    SAMPLE_DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")

"""Sample configs end to end: the blowup witness and the tail fits.

Each config in ``configs/`` runs through ``cli.run`` and must give the exit
code, verdict and finding that the benchmark checks (``EXPECTED`` in
``perfbench/run.py``), so the table has one home.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from heatlab.cli import run

ROOT = Path(__file__).resolve().parents[1]


def _benchmark_expectations() -> dict:
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    keep = sys.dont_write_bytecode  # the benchmark module switches it on
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = keep
    return module.EXPECTED


EXPECTED = _benchmark_expectations()


@pytest.mark.parametrize("name", ["blowup_superexp", "blowup_euclidean_control",
                                  "tail_euclidean", "tail_gaussian"])
def test_sample_config_verdict(tmp_path, name):
    code, verdict, finding = EXPECTED[name]
    out = tmp_path / name
    assert run(str(ROOT / "configs" / f"{name}.json"), str(out), threads=1) == code
    report = json.loads((out / "report.json").read_text())
    assert (report["verdict"], report["finding"]) == (verdict, finding)

"""Command line contract: exit codes, byte-stable reports, CSV shape."""

import json
import math
import numbers
import os
import subprocess
import sys
import tempfile
import time
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heatlab.cli
import heatlab.solver
from heatlab import (DIRICHLET, NEUMANN, InvalidArgumentError, SolveControls,
                     advance_states, assemble, ball_indicator, build_grid,
                     constant_one, euclidean, exhaustion_ladder, exhaustion_levels,
                     overflow_safe_radius, power_exp_weight, project_datum,
                     sphere_constant, weighted_sum)
from heatlab.cli import (_EXHAUSTING, _KEYS, _MODELLED, _SOLVING, EXPERIMENTS,
                         _dumps, load_config, main, resolve_config, run,
                         validate)
from heatlab.experiments import blowup_sweep, completeness_probe
from heatlab.operator import WeightedOperator
from heatlab.solver import monotonicity_defect
from conftest import lapack_calls, no_child_left

ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = ROOT / "configs"


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


FAST_DEGIORGI = {
    "experiment": "degiorgi",
    "manifold": {"family": "euclidean"},
    "datum": {"kind": "ball", "radius": 1.0},
    "t_list": [0.02, 0.01, 0.005],
    "controls": {"n_cells": 256, "step_tol": 1e-6, "exhaustion": [3.0]},
}


def test_degiorgi_run_and_artifacts(tmp_path):
    cfg = write_config(tmp_path, "d.json", FAST_DEGIORGI)
    out = tmp_path / "out"
    assert run(cfg, str(out)) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["verdict"] == "confirms"
    assert report["tool"] == "heatlab"
    assert report["files"] == ["degiorgi.csv"]
    assert "runtime" not in report, "timing belongs in the sidecar"
    timing = json.loads((out / "timing.json").read_text())
    assert timing["total_wall_s"] > 0

    raw = (out / "degiorgi.csv").read_bytes()
    assert b"\r\n" in raw, "CSV rows must be CRLF terminated"
    header = raw.split(b"\r\n")[0].decode()
    assert header == "t,TV"
    assert len(raw.strip().split(b"\r\n")) == 1 + 3


def test_reports_are_byte_stable(tmp_path):
    cfg = write_config(tmp_path, "d.json", FAST_DEGIORGI)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(cfg, str(out1)) == 0
    assert run(cfg, str(out2)) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "degiorgi.csv").read_bytes() == (out2 / "degiorgi.csv").read_bytes()


def test_config_echo_round_trips(tmp_path):
    cfg = write_config(tmp_path, "d.json", FAST_DEGIORGI)
    out = tmp_path / "out"
    run(cfg, str(out))
    echo = json.loads((out / "report.json").read_text())["config"]
    assert echo["experiment"] == "degiorgi"
    assert echo["t_list"] == [0.02, 0.01, 0.005]
    assert echo["controls"]["n_cells"] == 256
    # defaults were filled in
    assert echo["manifold"]["dimension"] == 3
    assert echo["tolerances"]["gap_rtol"] == 0.01


def test_unknown_key_is_exit_2(tmp_path):
    bad = dict(FAST_DEGIORGI)
    bad["solver"] = "fast"
    cfg = write_config(tmp_path, "bad.json", bad)
    out = tmp_path / "out"
    assert run(cfg, str(out)) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["exit_code"] == 2
    assert "solver" in err["message"]


def test_experiment_mismatch_is_exit_2(tmp_path):
    cfg = write_config(tmp_path, "d.json", FAST_DEGIORGI)
    out = tmp_path / "out"
    assert run(cfg, str(out), experiment="completeness") == 2


def test_missing_required_key_is_exit_2(tmp_path):
    cfg = write_config(tmp_path, "d.json", {
        "experiment": "blowup",
        "manifold": {"family": "power_exp"},
        "t_list": [0.1],
        "R_list": [2.0, 3.0],
    })  # r0 missing
    out = tmp_path / "out"
    assert run(cfg, str(out)) == 2
    err = json.loads((out / "error.json").read_text())
    assert "r0" in err["message"]


def test_radii_snapping_onto_one_face_are_exit_2(tmp_path):
    # 64 cells inside R = 2 lie 1/32 apart, so 2.01 snaps onto the face at 2;
    # its level used to merge with that one while the report echoed both
    payload = {"experiment": "completeness",
               "manifold": {"family": "euclidean", "dimension": 3},
               "t": 0.05,
               "controls": {"n_cells": 64, "step_tol": 1e-5,
                            "exhaustion": [2.0, 2.01, 3.0, 4.0]}}
    out = tmp_path / "out"
    assert run(write_config(tmp_path, "c.json", payload), str(out)) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["exit_code"] == 2
    assert "radii 2.0 and 2.01 snap onto the same face" in err["message"]
    assert not (out / "report.json").exists()


def test_range_overflow_is_exit_3(tmp_path):
    cfg = write_config(tmp_path, "blow.json", {
        "experiment": "blowup",
        "manifold": {"family": "power_exp", "params": {"power": 4, "sign": 1}},
        "r0": 1.0,
        "t_list": [0.1],
        "R_list": [2.0, 6.0],
        "controls": {"n_cells": 128, "step_tol": 1e-5},
    })
    out = tmp_path / "out"
    assert run(cfg, str(out)) == 3
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "RangeError"
    assert err["exit_code"] == 3
    assert not (out / "report.json").exists()


def test_tail_beyond_safe_radius_is_exit_3(tmp_path):
    cfg = write_config(tmp_path, "tail.json", {
        "experiment": "tail",
        "manifold": {"family": "power_exp", "params": {"power": 4, "sign": 1}},
        "datum": {"kind": "ball", "radius": 2.0},
        "R_out": 5.5,
        "t_list": [0.05, 0.04, 0.03],
        "controls": {"n_cells": 128, "step_tol": 1e-5},
    })
    out = tmp_path / "out"
    assert run(cfg, str(out)) == 3
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "RangeError"
    assert err["exit_code"] == 3
    assert "reading radius 5.5 " in err["message"]
    assert not (out / "report.json").exists()


def test_flux_overflow_is_a_range_error(tmp_path):
    # the grid's sigma * A budget admits flat space in 343 dimensions up to
    # R = 8, but its cell measures, r^342 dr from the pole cell out, span
    # more than the operator holds in double range
    cfg = write_config(tmp_path, "flux.json", {
        "experiment": "blowup",
        "manifold": {"family": "euclidean", "dimension": 343},
        "r0": 1.0,
        "t_list": [0.001],
        "R_list": [2.0, 3.0, 4.0, 6.0, 8.0],
        "controls": {"n_cells": 64},
    })
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(cfg, str(out)) == 3
    assert [str(w.message) for w in caught] == []
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "RangeError"
    assert err["message"].startswith("log cell measures span ")
    assert err["message"].endswith("; reduce R, n_cells or the dimension")
    assert not (out / "report.json").exists()


def test_blowup_multi_time_artifacts(tmp_path):
    cfg = write_config(tmp_path, "blow.json", {
        "experiment": "blowup",
        "manifold": {"family": "euclidean"},
        "r0": 1.0,
        "t_list": [0.05, 0.025, 0.0125],
        "R_list": [2.0, 3.0, 4.0],
        "controls": {"n_cells": 192, "step_tol": 1e-6},
    })
    out = tmp_path / "out"
    assert run(cfg, str(out)) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["verdict"] == "refutes"
    assert report["files"] == ["blowup_t0.csv", "blowup_t1.csv", "blowup_t2.csv"]
    for name in report["files"]:
        header = (out / name).read_bytes().split(b"\r\n")[0].decode()
        assert header == "R,TV_R,q_at_Rmax"


def test_completeness_cli(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "experiment": "completeness",
        "manifold": {"family": "euclidean"},
        "t": 0.05,
        "controls": {"n_cells": 192, "step_tol": 1e-6},
    })
    out = tmp_path / "out"
    assert run(cfg, str(out)) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["finding"] == "complete"
    header = (out / "completeness.csv").read_bytes().split(b"\r\n")[0].decode()
    assert header == "R,m_at_0"


@pytest.mark.parametrize("n_cells", [64, 100])
def test_coarse_ladder_stays_inside_the_overflow_safe_radius(tmp_path, n_cells):
    # whole cells beyond the first radius once rounded the last face past the
    # overflow-safe radius, and the automatic plan exited 3 on exp(+r^4)
    payload = json.loads((CONFIG_DIR / "completeness_superexp.json").read_text())
    payload["controls"]["n_cells"] = n_cells
    assert run(write_config(tmp_path, "c.json", payload), str(tmp_path / "out")) == 0
    manifold = power_exp_weight(4, 1, 3)
    ladder, _ = exhaustion_ladder(manifold, constant_one(), payload["t"],
                                  SolveControls(n_cells=n_cells))
    assert ladder.faces[-1] <= overflow_safe_radius(manifold)


@pytest.mark.parametrize("sign, message", [
    (-1, "log face area at r=1.00391 is not finite"),
    (1, "truncation radius 4 exceeds the overflow-safe radius 1 "),
], ids=["underflow", "overflow"])
def test_huge_weight_power_is_a_clean_range_error(tmp_path, sign, message):
    # exp(+-r^1e300) leaves double range just past r = 1: exit 3 naming
    # where, with no numpy warning on the way
    payload = json.loads((CONFIG_DIR / "degiorgi_gaussian.json").read_text())
    payload["manifold"]["params"] = {"power": 1e300, "sign": sign}
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(write_config(tmp_path, "c.json", payload), str(out)) == 3
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "RangeError"
    assert err["message"].startswith(message)


def test_csv_floats_use_shortest_round_trip_style(tmp_path):
    cfg = write_config(tmp_path, "d.json", FAST_DEGIORGI)
    out = tmp_path / "out"
    run(cfg, str(out))
    body = (out / "degiorgi.csv").read_text().strip().split("\r\n")[1:]
    for line in body:
        for fieldvalue in line.split(","):
            mantissa = fieldvalue.split("e")[0].replace("-", "").replace(".", "")
            assert len(mantissa) <= 12, f"field {fieldvalue} carries too many digits"


def _dumps_by_abcs(obj, indent: int = 0) -> str:
    """The report writer as one chain of ``numbers`` ABC checks."""
    pad, inner = " " * indent, " " * (indent + 2)
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, numbers.Integral):
        return str(int(obj))
    if isinstance(obj, numbers.Real):
        text = f"{float(obj):.12g}"
        return text if math.isfinite(obj) else f'"{text}"'
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=True)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[\n" + ",\n".join(f"{inner}{_dumps_by_abcs(v, indent + 2)}"
                                  for v in obj) + f"\n{pad}]"
    if not obj:
        return "{}"
    return "{\n" + ",\n".join(
        f"{inner}{json.dumps(key)}: {_dumps_by_abcs(obj[key], indent + 2)}"
        for key in sorted(str(k) for k in obj)) + f"\n{pad}}}"


def _csv_cell_by_abcs(value) -> str:
    """A CSV cell as one chain of ``numbers`` ABC checks."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, numbers.Integral):
        return str(int(value))
    if isinstance(value, numbers.Real):
        return f"{float(value):.12g}"
    return str(value)


WRITER_SCALARS = [0.1, -2.5e-300, 1e300, 0.0, -0.0, 3.0, np.float64(2.0 / 3.0),
                  np.float32(0.1), np.float64(math.inf), 7, -(2 ** 70), np.int64(-9),
                  True, False, np.bool_(True), np.bool_(False), None, math.nan,
                  math.inf, -math.inf, "a \"quoted\" é", ""]


def test_the_writers_give_the_abc_chains_text():
    # exact floats, strings and containers take a fast path ahead of the
    # ABC chain; every type a report holds must read as the chain writes it
    nested = {"rows": [dict(zip("abcdefghijklmnopqrstuv", WRITER_SCALARS))],
              "pair": (1.5, [np.float64(-0.25), ()]), "empty": {}, "none": [],
              "array": np.array([0.5, math.nan]), "tuple": ("key", "as", "text")}
    for value in [*WRITER_SCALARS, nested, [nested, (nested,)]]:
        assert _dumps(value) == _dumps_by_abcs(value), value
        assert _dumps(value, 4) == _dumps_by_abcs(value, 4), value
        assert heatlab.cli._csv_cell(value) == _csv_cell_by_abcs(value), value


def _validate_pair_by_pair(seed: int) -> dict:
    """validate's measured values, by property, from one process that takes
    the symmetry leg one pair at a time and folds every state of the
    three-column run into running arrays as it is accepted."""
    rng = np.random.default_rng(seed)
    weighted = power_exp_weight(4, 1, 3)
    g = build_grid(weighted, 3.0, 256, (1.0,))
    op = assemble(g, weighted, DIRICHLET)
    controls = SolveControls(n_cells=256)
    ball0 = project_datum(ball_indicator(1.0), g)
    triple = np.stack([np.ones(g.N), ball0, 1.0 - ball0], axis=1)
    lo, hi = np.zeros_like(triple, order="F"), np.ones_like(triple, order="F")
    rise, growth = np.empty(g.N), np.zeros(g.N)

    def track(t0, a, t1, b):
        np.minimum(lo, b, out=lo)
        np.maximum(hi, b, out=hi)
        np.maximum(growth, np.subtract(b[:, 0], a[:, 0], out=rise), out=growth)

    (out,) = advance_states(op, triple, [0.05], controls, observer=track)
    worst = 0.0
    for _ in range(100):
        u = rng.standard_normal(g.N)
        v = rng.standard_normal(g.N)
        a = weighted_sum(g, op.apply(u), v)
        b = weighted_sum(g, u, op.apply(v))
        worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1.0))
    (g1, (direct,)), (_, (outer,)) = exhaustion_levels(
        weighted, ball_indicator(1.0), [0.05], controls, radii=(2.0, 3.0))
    op1 = assemble(g1, weighted, DIRICHLET)
    (staged,) = advance_states(op1, project_datum(ball_indicator(1.0), g1), [0.03], controls)
    (staged,) = advance_states(op1, staged, [0.02], controls)
    u0 = rng.random(g.N) + 0.5
    mass0 = weighted_sum(g, u0)
    (u_t,) = advance_states(assemble(g, weighted, NEUMANN), u0, [0.1], controls)
    return {"operator_symmetry_rel": worst,
            "max_principle_defect": max(0.0, -lo.min(), hi.max() - 1.0),
            "exhaustion_monotone": max(0.0, monotonicity_defect(direct, outer)),
            "semigroup_identity_rel": weighted_sum(g1, np.abs(direct - staged))
            / weighted_sum(g1, np.abs(direct)),
            "mass_time_monotone": max(0.0, growth.max()),
            "neumann_mass_drift_per_time": abs(weighted_sum(g, u_t) - mass0) / (0.1 * mass0),
            "three_column_linearity": float(np.max(np.abs(out[:, 0] - out[:, 1] - out[:, 2])))}


@pytest.mark.parametrize("fork", [True, False], ids=["forked", "inline"])
@pytest.mark.parametrize("seed", [0, 1, 5])
def test_validate_gives_the_pair_by_pair_rows_bitwise(monkeypatch, seed, fork):
    # the symmetry leg draws and applies all pairs at once and the observer
    # folds blocks of states; every measured value keeps its bits
    monkeypatch.setattr(heatlab.solver, "can_fork", lambda: fork)
    rows = {row["property"]: row["measured"] for row in validate(seed)["evidence"]["checks"]}
    want = _validate_pair_by_pair(seed)
    assert {p: float(v).hex() for p, v in rows.items()} == \
        {p: float(v).hex() for p, v in want.items()}
    assert no_child_left()


def test_validate_folds_the_last_block_of_states_too(monkeypatch):
    # each three-column solve adds 1e-9, so the states rise to the end and
    # the largest of them lies in the run's last, partial block
    solve = heatlab.solver.dpttrs

    def rising(d, e, b, *args):
        x, info = solve(d, e, b, *args)
        if b.ndim == 2 and b.shape[1] == 3:
            x += 1e-9
        return x, info

    monkeypatch.setattr(heatlab.solver, "dpttrs", rising)
    monkeypatch.setattr(heatlab.solver, "can_fork", lambda: False)
    rows = {row["property"]: row["measured"] for row in validate(0)["evidence"]["checks"]}
    want = _validate_pair_by_pair(0)
    assert want["max_principle_defect"] > 1e-6
    assert {p: float(v).hex() for p, v in rows.items()} == \
        {p: float(v).hex() for p, v in want.items()}


def test_validate_passes_and_is_deterministic():
    out = validate(seed=0)
    assert out["verdict"] == "confirms"
    assert len(out["evidence"]["checks"]) == 7
    assert all(row["status"] == "pass" for row in out["evidence"]["checks"])
    again = validate(seed=0)
    assert [r["measured"] for r in again["evidence"]["checks"]] == \
        [r["measured"] for r in out["evidence"]["checks"]]


def plant_asymmetry(monkeypatch):
    """Negative control: L applies with weights tilted cell by cell, which
    are no longer the grid's measure, so the symmetry row must catch it (a
    uniform tilt only changes units)."""
    apply = WeightedOperator.apply

    def tilted(op, u):
        tilt = np.where(np.arange(op.grid.N) % 2, 1.0 - 1e-6, 1.0 + 1e-6)
        return apply(replace(op, cell_weights=op.cell_weights * tilt), u)

    monkeypatch.setattr(WeightedOperator, "apply", tilted)


def test_validate_catches_planted_asymmetry(monkeypatch):
    plant_asymmetry(monkeypatch)
    out = validate(seed=0)
    assert out["verdict"] == "refutes"
    bad = [r for r in out["evidence"]["checks"] if r["status"] == "fail"]
    assert any(r["property"] == "operator_symmetry_rel" for r in bad)


def _failing_rows(out):
    return {r["property"] for r in out["evidence"]["checks"]
            if r["status"] == "fail"}


def test_validate_catches_an_upward_biased_step(monkeypatch):
    # the bounds row reads every column of the three-column run and the
    # growth row its constant column; a step that adds mass fails both
    solve = heatlab.solver.dpttrs

    def biased(*args):
        x, info = solve(*args)
        x += 1e-9
        return x, info

    monkeypatch.setattr(heatlab.solver, "dpttrs", biased)
    out = validate(seed=0)
    assert out["verdict"] == "refutes"
    assert {"max_principle_defect", "mass_time_monotone"} <= _failing_rows(out)


def test_validate_catches_a_staged_leg_from_the_wrong_time(monkeypatch):
    # the second staged leg of the semigroup identity runs for 0.03 instead
    # of 0.02, so the staged state ends at 0.06, not 0.05
    advance = heatlab.cli.advance_states

    def running_long(op, states, stops, *args, **kwargs):
        return advance(op, states, [0.03] if stops == [0.02] else stops,
                       *args, **kwargs)

    monkeypatch.setattr(heatlab.cli, "advance_states", running_long)
    out = validate(seed=0)
    assert _failing_rows(out) == {"semigroup_identity_rel"}


def test_validate_solve_count(tmp_path):
    # each state evolves once: one three-column run carries three rows, and
    # the semigroup identity reuses the first exhaustion level's state; each
    # step attempt solves its two half steps.  The count spans both halves
    # of the battery, the one in a forked child included
    with lapack_calls(tmp_path / "calls") as calls:
        assert validate(seed=0)["verdict"] == "confirms"
    assert calls == {"dpttrs": 14_382, "dpttrf": 225}
    assert no_child_left()


def test_validate_cli_exit_codes(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, "v.json", {"experiment": "validate", "seed": 0})
    out = tmp_path / "ok"
    assert run(cfg, str(out)) == 0
    shown = capsys.readouterr().out
    assert "all properties hold" in shown

    plant_asymmetry(monkeypatch)
    out_bad = tmp_path / "bad"
    assert run(cfg, str(out_bad)) == 3
    report = json.loads((out_bad / "report.json").read_text())
    assert report["verdict"] == "refutes"


def test_validate_report_is_byte_identical_across_processes(tmp_path):
    # two interpreters with different string hashing run the battery side by
    # side; anything keyed on process state shows up as a byte difference
    children = []
    for hash_seed in ("0", "1"):
        out = tmp_path / f"hash{hash_seed}"
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
               "PYTHONHASHSEED": hash_seed}
        child = subprocess.Popen(
            [sys.executable, "-m", "heatlab.cli", "validate",
             "--config", "configs/validate.json", "--out", str(out)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        children.append((child, out))
    for child, _ in children:
        _, err = child.communicate(timeout=300)
        assert child.returncode == 0, err.decode()
    (_, first), (_, second) = children
    for name in ("report.json", "validate.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


FAST_BLOWUP = {
    "experiment": "blowup",
    "manifold": {"family": "euclidean"},
    "r0": 1.0,
    "t_list": [0.05, 0.025, 0.0125],
    "R_list": [2.0, 3.0, 4.0],
    "controls": {"n_cells": 128, "step_tol": 1e-5},
}


def test_threads_have_no_effect(tmp_path):
    # run() still takes threads for its callers and ignores it; the flag
    # and the config key are gone
    cfg = write_config(tmp_path, "b.json", FAST_BLOWUP)
    assert run(cfg, str(tmp_path / "plain")) == 0
    assert run(cfg, str(tmp_path / "one"), threads=1) == 0
    for name in ("report.json", "blowup_t0.csv", "blowup_t1.csv",
                 "blowup_t2.csv"):
        assert ((tmp_path / "one" / name).read_bytes()
                == (tmp_path / "plain" / name).read_bytes())
    with pytest.raises(SystemExit) as exc:
        main(["blowup", "--config", cfg, "--out", str(tmp_path / "flag"),
              "--threads", "4"])
    assert exc.value.code == 2


def test_timing_is_the_measured_wall_time(tmp_path):
    cfg = write_config(tmp_path, "b.json", FAST_BLOWUP)
    out = tmp_path / "out"
    started = time.perf_counter()
    assert run(cfg, str(out)) == 0
    elapsed = time.perf_counter() - started
    timing = json.loads((out / "timing.json").read_text())
    assert timing, "timing.json must hold the run's wall time"
    for key, value in timing.items():
        assert 0 < value <= elapsed, f"{key}={value} exceeds the {elapsed} s run"


PLANE = {
    "experiment": "completeness",
    "manifold": {"family": "euclidean", "dimension": 2},
    "t": 0.05,
    "controls": {"n_cells": 64, "step_tol": 1e-4, "exhaustion": [2.0, 3.0, 4.0]},
}


def test_manifold_keeps_its_dimension(tmp_path):
    cfg = write_config(tmp_path, "c.json", PLANE)
    out = tmp_path / "out"
    assert run(cfg, str(out)) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["manifold"]["dimension"] == 2
    # the run's rows are those of the plane, not of the default R^3
    settings = dict(PLANE["controls"])
    radii = settings.pop("exhaustion")
    rep = completeness_probe(euclidean(2), PLANE["t"],
                             SolveControls(**settings), radii=radii)
    assert report["series"] == json.loads(_dumps(rep.series))


@pytest.mark.parametrize("bad", [
    # the step policy is fixed: each former control, even at its old
    # default, is an unknown key
    {"dt_init": 1e-7}, {"dt_max": "inf"}, {"dt_growth": 1.5},
    {"dt_min": 1e-13}, {"max_steps": 2000}, {"exhaustion_rtol": 1e-6},
    {"max_exhaustion": 8},
    {"step_tol": math.nan}, {"step_tol": math.inf},
    {"step_tol": 0.0}, {"step_tol": -1e-6},
    {"grading": "uniform", "grading_ratio": 0.5},
    {"scheme": "implicit_euler"}, {"grading": "uniform"}, {"grading_ratio": None},
    {"n_cells": 8}, {"n_cells": 0}, {"n_cells": 128.5},
])
def test_bad_step_controls_are_exit_2(tmp_path, bad):
    payload = json.loads((CONFIG_DIR / "tail_euclidean.json").read_text())
    payload["controls"].update({"n_cells": 128, **bad})
    cfg = write_config(tmp_path, "tail.json", payload)
    out = tmp_path / "out"
    assert run(cfg, str(out)) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "InvalidArgumentError"
    for key in set(bad) - {f.name for f in fields(SolveControls)}:
        assert f"'{key}'" in err["message"], err["message"]
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("name, section, key, value", [
    # a NaN gap bound once refuted a 7.7e-12 gap
    ("degiorgi_euclidean", "tolerances", "gap_rtol", math.nan),
    ("tail_euclidean", "controls", "step_tol", math.inf),
])
def test_non_finite_json_literals_are_exit_2(tmp_path, name, section, key, value):
    payload = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    payload.setdefault("controls", {})["n_cells"] = 256
    payload.setdefault(section, {})[key] = value
    cfg = write_config(tmp_path, "c.json", payload)  # json writes NaN/Infinity
    out = tmp_path / "out"
    assert run(cfg, str(out)) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "InvalidArgumentError"
    assert f"holds {json.dumps(value)}," in err["message"], err["message"]
    assert f"{section}/{key}" in err["message"], err["message"]
    assert not (out / "report.json").exists()


def test_non_finite_python_values_are_rejected():
    # the same check guards configs built in Python, not only JSON files
    payload = {"experiment": "degiorgi", "t_list": [0.02, 0.01],
               "tolerances": {"gap_rtol": float("nan")}}
    with pytest.raises(InvalidArgumentError,
                       match="tolerances/gap_rtol: holds NaN,"):
        resolve_config(payload)


def ignored_controls(keys: dict, field_names) -> list:
    """The controls that break the rule: each ``SolveControls`` field is a
    ``controls/*`` key read by every solving experiment (``step_tol`` by
    every one that steps in time: all but comparison, which sums its exit
    time), and the one other ``controls/*`` key, ``exhaustion``, only by
    those that walk one."""
    readers = {path.split("/")[1]: key["readers"] for path, key in keys.items()
               if path.startswith("controls/")}
    wrong = [name for name in field_names
             if readers.get(name) != {"step_tol": _MODELLED}.get(name, _SOLVING)]
    return wrong + [name for name, read in readers.items()
                    if name not in field_names
                    and (name, read) != ("exhaustion", _EXHAUSTING)]


def test_schema_controls_are_the_solve_controls():
    # one home for the controls: every field is a config key that every
    # solve reads, and a config that sets none resolves to the defaults
    names = [f.name for f in fields(SolveControls)]
    assert ignored_controls(_KEYS, names) == []
    # a field that no solve reads, or that only some solves read, shows
    assert ignored_controls(_KEYS, [*names, "threads"]) == ["threads"]
    narrowed = {**_KEYS, "controls/n_cells": {**_KEYS["controls/n_cells"],
                                              "readers": _EXHAUSTING}}
    assert ignored_controls(narrowed, names) == ["n_cells"]
    assert ignored_controls(_KEYS, [*names, "exhaustion"]) == ["exhaustion"]
    resolved = resolve_config({"experiment": "tail", "R_out": 2.0,
                               "t_list": [0.05]})
    assert SolveControls(**resolved["controls"]) == SolveControls()
    # and every key in the table has a reader: an experiment, or a value of
    # a selector beside it; an unread key is a constant, not a knob
    for path, key in _KEYS.items():
        readers = key["readers"]
        assert readers, path
        if isinstance(readers, dict):
            [(selector, choice)] = readers.items()
            sibling = _KEYS[f"{path.rpartition('/')[0]}/{selector}"]
            assert choice in sibling["of"], path
        else:
            assert set(readers) <= set(EXPERIMENTS), path


@pytest.mark.parametrize("manifold", [
    {"family": "euclidean", "params": {"power": 4}},
    # the warped cone, the tabulated family and the latter's two keys are gone
    {"family": "warped_cone"},
    {"family": "custom"},
    {"family": "power_exp", "radii": [1.0, 2.0, 3.0, 4.0]},
    {"family": "euclidean", "log_areas": [0.0, 0.0, 0.0, 0.0]},
])
def test_manifold_keys_the_family_ignores_are_rejected(tmp_path, manifold):
    # the error names the key, or the family when there is none
    key = next((k for k in manifold if k != "family"), manifold["family"])
    payload = {**FAST_DEGIORGI, "manifold": manifold}
    with pytest.raises(InvalidArgumentError, match=key):
        resolve_config(payload)
    out = tmp_path / "out"
    assert run(write_config(tmp_path, "m.json", payload), str(out)) == 2
    error = json.loads((out / "error.json").read_text())
    assert error["exit_code"] == 2 and key in error["message"]


@pytest.mark.parametrize("datum, key", [
    ({"kind": "ball", "radius": 1.0,
      "breakpoints": [[0.5, 1.0], [2.0, 0.0]]}, "breakpoints"),
    ({"kind": "piecewise", "radius": 3.0,
      "breakpoints": [[0.0, 1.0], [1.0, 0.0]]}, "radius"),
])
def test_datum_keys_the_kind_ignores_are_rejected(tmp_path, datum, key):
    # once run as if honoured: a ball ignored its breakpoints, a piecewise
    # datum its radius, and both were echoed
    payload = {**FAST_DEGIORGI, "datum": datum}
    with pytest.raises(InvalidArgumentError, match=f"does not read: {key}"):
        resolve_config(payload)
    out = tmp_path / "out"
    assert run(write_config(tmp_path, "d.json", payload), str(out)) == 2
    error = json.loads((out / "error.json").read_text())
    assert error["exit_code"] == 2 and key in error["message"]


def test_piecewise_echo_holds_no_radius(tmp_path):
    datum = {"kind": "piecewise", "breakpoints": [[0.0, 1.0], [1.0, 0.0]]}
    payload = {**FAST_DEGIORGI, "datum": datum}
    out = tmp_path / "out"
    assert run(write_config(tmp_path, "p.json", payload), str(out)) == 0
    echo = json.loads((out / "report.json").read_text())["config"]
    assert echo["datum"] == datum
    # a ball still echoes the default radius it reads
    ball = resolve_config({**FAST_DEGIORGI, "datum": {}})
    assert ball["datum"] == {"kind": "ball", "radius": 1.0}


MINIMAL = {
    "comparison": {"experiment": "comparison", "R": 3.0},
    "completeness": {"experiment": "completeness", "t": 0.1},
    "degiorgi": {"experiment": "degiorgi", "t_list": [0.02, 0.01]},
    "tail": {"experiment": "tail", "R_out": 2.0, "t_list": [0.05, 0.04]},
    "validate": {"experiment": "validate"},
    "blowup": {"experiment": "blowup", "r0": 1.0, "t_list": [0.1],
               "R_list": [2.0, 3.0]},
}


@pytest.mark.parametrize("experiment, extra", [
    ("comparison", {"manifold": {"family": "euclidean", "dimension": 5}}),
    ("comparison", {"datum": {"kind": "ball", "radius": 1.0}}),
    ("completeness", {"t_list": [0.05, 0.025]}),
    ("completeness", {"datum": {"kind": "ball", "radius": 1.0}}),
    ("completeness", {"R": 3.0}),
    ("degiorgi", {"seed": 4}),
    ("degiorgi", {"t": 0.1}),
    ("blowup", {"tolerances": {"gap_rtol": 0.5}}),
    ("tail", {"tolerances": {"gap_rtol": 0.5}}),
    ("validate", {"controls": {"n_cells": 64}}),
    # keys the run never reads: once accepted and echoed as if honoured
    ("tail", {"controls": {"exhaustion": [9.0]}}),
    ("blowup", {"controls": {"exhaustion": [9.0]}}),
    ("comparison", {"controls": {"exhaustion": [9.0]}}),
    ("completeness", {"tolerances": {"gap_rtol": 0.5}}),
    # comparison's barrier slack is a constant now
    ("comparison", {"tolerances": {"gap_rtol": 0.5}}),
    # comparison reads the exit time, which no time or step tolerance
    # reaches: both keys once ran its trajectory
    ("comparison", {"t": 0.5}),
    ("comparison", {"controls": {"step_tol": 1e-6}}),
])
def test_keys_the_experiment_ignores_are_rejected(tmp_path, experiment, extra):
    payload = {**MINIMAL[experiment], **extra}
    with pytest.raises(InvalidArgumentError, match="does not read"):
        resolve_config(payload)
    out = tmp_path / "out"
    assert run(write_config(tmp_path, "x.json", payload), str(out)) == 2
    assert json.loads((out / "error.json").read_text())["exit_code"] == 2
    assert not (out / "report.json").exists()


def test_keys_the_experiment_reads_are_accepted():
    for path in sorted(CONFIG_DIR.glob("*.json")):
        load_config(str(path))
    for payload in MINIMAL.values():
        resolve_config(payload)


@pytest.mark.parametrize("experiment, extra, key", [
    # removed: threads had no effect, the blowup and comparison thresholds
    # are fixed in code, and these datum kinds lack compact support
    ("blowup", {"threads": 3}, "'threads'"),
    ("blowup", {"tolerances": {"slope_threshold": 1.0}}, "'slope_threshold'"),
    ("blowup", {"tolerances": {"q_threshold": 1e-9}}, "'q_threshold'"),
    ("blowup", {"tolerances": {"stabilize_rtol": 1e-3}}, "'stabilize_rtol'"),
    ("comparison", {"tolerances": {"vw_tol": 1e-6}}, "'vw_tol'"),
    ("degiorgi", {"datum": {"kind": "complement", "radius": 1.0}},
     "datum/kind"),
    ("tail", {"datum": {"kind": "constant"}}, "datum/kind"),
    # out of bounds: a gap_rtol of -0.01 once refuted a 2.8e-7 gap
    ("degiorgi", {"tolerances": {"gap_rtol": -0.01}}, "tolerances/gap_rtol"),
    # removed: completeness's band is the constant EPS_C, whichever
    # experiment the key comes with
    ("completeness", {"tolerances": {"eps_c": 1e-4}}, "'eps_c'"),
    ("degiorgi", {"tolerances": {"gap_rtol": 0.01, "eps_c": 1e-4}}, "'eps_c'"),
    ("blowup", {"tolerances": {"eps_c": 1e-4}}, "'eps_c'"),
    # bool is no number although True == 1; lists keep their lengths, and a
    # piecewise datum needs its breakpoints
    ("tail", {"controls": {"n_cells": True}}, "controls/n_cells"),
    ("completeness", {"t": True}, "t"),
    ("degiorgi", {"manifold": {"dimension": True}}, "manifold/dimension"),
    ("degiorgi", {"manifold": {"family": "power_exp",
                               "params": {"sign": True}}},
     "manifold/params/sign"),
    # removed: the tests plant the asymmetry themselves
    ("validate", {"inject_asymmetry": True}, "inject_asymmetry"),
    ("validate", {"seed": 1.5}, "seed"),
    ("degiorgi", {"datum": {"kind": "piecewise",
                            "breakpoints": [[0, 1, 2]]}}, "datum/breakpoints"),
    ("degiorgi", {"datum": {"kind": "piecewise",
                            "breakpoints": [[0, 1], [1, 0, 2]]}},
     "datum/breakpoints/1"),
    ("degiorgi", {"t_list": []}, "t_list"),
    ("degiorgi", {"controls": {"exhaustion": []}}, "controls/exhaustion"),
    ("degiorgi", {"datum": {"kind": "piecewise"}}, "datum/breakpoints"),
    # removed: the doubled-resolution walk changed no verdict
    ("degiorgi", {"controls": {"richardson": True}},
     "unknown key 'richardson'"),
    # numpy's generator takes no negative seed: -1 once crashed with exit 1
    # and no error.json
    ("validate", {"seed": -1}, "seed"),
])
def test_removed_and_out_of_bounds_keys_are_exit_2(tmp_path, experiment,
                                                    extra, key):
    payload = {**MINIMAL[experiment], **extra}
    out = tmp_path / "out"
    assert run(write_config(tmp_path, "x.json", payload), str(out)) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "InvalidArgumentError"
    assert key in err["message"], err["message"]
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("dimension", [344, 400, 1240, 1300])
def test_dimension_beyond_double_range_is_exit_2(tmp_path, dimension):
    # Gamma(n/2) in the unit sphere's measure overflows from n = 344 on, and
    # pi^(n/2) from about n = 1240; that once escaped as a bare OverflowError
    for build in (sphere_constant, euclidean,
                  lambda n: power_exp_weight(4, 1, n)):
        with pytest.raises(InvalidArgumentError, match="dimension"):
            build(dimension)
    payload = {**MINIMAL["completeness"],
               "manifold": {"family": "euclidean", "dimension": dimension}}
    out = tmp_path / "out"
    assert run(write_config(tmp_path, "c.json", payload), str(out)) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "InvalidArgumentError"
    assert "dimension" in err["message"], err["message"]


def test_whole_number_float_seed_is_honoured():
    # numpy's generator takes no float seed: validate with seed 2.0 once
    # crashed with exit 1 and no error.json
    seed = resolve_config({"experiment": "validate", "seed": 2.0})["seed"]
    assert seed == 2 and type(seed) is int


def test_negative_seed_is_an_invalid_argument_in_the_api_too():
    with pytest.raises(InvalidArgumentError, match="seed"):
        validate(seed=-1)


def test_whole_number_float_cell_count_is_honoured(tmp_path):
    payload = json.loads((CONFIG_DIR / "tail_euclidean.json").read_text())
    assert payload["controls"]["n_cells"] == 512
    plain = write_config(tmp_path, "int.json", payload)
    payload["controls"]["n_cells"] = 512.0
    as_float = write_config(tmp_path, "float.json", payload)
    assert run(plain, str(tmp_path / "int")) == 0
    assert run(as_float, str(tmp_path / "float")) == 0
    for name in ("report.json", "tail.csv"):
        assert ((tmp_path / "float" / name).read_bytes()
                == (tmp_path / "int" / name).read_bytes())


def test_cli_blowup_report_is_the_sweep_report(tmp_path):
    cfg = write_config(tmp_path, "b.json", FAST_BLOWUP)
    out = tmp_path / "out"
    assert run(cfg, str(out)) == 0
    report = json.loads((out / "report.json").read_text())
    rep = blowup_sweep(euclidean(3), 1.0, FAST_BLOWUP["t_list"],
                       FAST_BLOWUP["R_list"],
                       SolveControls(**FAST_BLOWUP["controls"]))
    assert (report["verdict"], report["finding"]) == (rep.verdict, rep.finding)
    # the report holds the evidence as rendered, floats at %.12g
    assert report["evidence"] == json.loads(_dumps(rep.evidence))
    assert report["files"] == [f"{name}.csv" for name in rep.series]
    # series blowup_t<i> and fitted.per_t[i] are read at config.t_list[i]
    assert report["config"]["t_list"] == FAST_BLOWUP["t_list"]
    assert len(report["fitted"]["per_t"]) == len(FAST_BLOWUP["t_list"])


def test_main_entry_point(tmp_path):
    cfg = write_config(tmp_path, "d.json", FAST_DEGIORGI)
    out = tmp_path / "out"
    assert main(["degiorgi", "--config", cfg, "--out", str(out)]) == 0
    with pytest.raises(SystemExit):
        main(["unknown_experiment", "--config", cfg, "--out", str(out)])


FAST_TAIL = {"experiment": "tail", "R_out": 2.0, "t_list": [0.05, 0.04],
             "controls": {"n_cells": 128, "step_tol": 1e-5}}


@pytest.mark.parametrize("payload, keys, tolerances", [
    ({"experiment": "comparison", "R": 2.0, "controls": {"n_cells": 128}},
     {"experiment", "R", "controls"}, None),
    (FAST_TAIL,
     {"experiment", "R_out", "t_list", "manifold", "datum", "controls"},
     None),
])
def test_config_echo_holds_only_keys_read(tmp_path, payload, keys, tolerances):
    # comparison runs exp(+r^4) whatever a default manifold would say and
    # steps no trajectory, and neither reads a tolerance: none of these may
    # be echoed, nor a step_tol under comparison's controls
    out = tmp_path / "out"
    assert run(write_config(tmp_path, "c.json", payload), str(out)) == 0
    echo = json.loads((out / "report.json").read_text())["config"]
    assert set(echo) == keys
    assert echo.get("tolerances") == tolerances
    assert echo["controls"] == payload["controls"]


SAMPLES = {p.stem: json.loads(p.read_text())
           for p in sorted(CONFIG_DIR.glob("*.json"))}
MUTATIONS = ("type", "nan", "inf", "bool", "range", "drop", "unknown")


def _mutated(cfg: dict, path: str, mutation: str) -> dict:
    """A fast copy of sample ``cfg`` with the key at ``path`` mutated: at
    most 64 cells, and step_tol 1e-3, wherever the experiment reads them."""
    cfg = json.loads(json.dumps(cfg))
    if cfg["experiment"] in _KEYS["controls/n_cells"]["readers"]:
        controls = cfg.setdefault("controls", {})
        controls["n_cells"] = min(controls.get("n_cells", 64), 64)
        if cfg["experiment"] in _KEYS["controls/step_tol"]["readers"]:
            controls["step_tol"] = 1e-3
    key = _KEYS[path]
    *parents, name = path.split("/")
    section = cfg
    for parent in parents:
        section = section.setdefault(parent, {})
    value = section.get(name, key.get("default"))
    if mutation == "drop":
        section.pop(name, None)
    elif mutation == "unknown":
        section[f"{name}_unknown"] = 1
    elif mutation == "type":
        section[name] = {"section": [], "list": 1.0}.get(key["type"], "text")
    elif mutation in ("nan", "inf"):
        bad = math.nan if mutation == "nan" else -math.inf
        # a list carries the bad number as its first item
        section[name] = ([bad, *value[1:]] if isinstance(value, list) and value
                         else bad)
    elif mutation == "bool":
        section[name] = True
    elif "above" in key:
        section[name] = key["above"]
    elif "least" in key:
        section[name] = key["least"] - 1
    elif key["type"] == "choice":
        section[name] = 7
    elif key["type"] == "list":
        section[name] = (value or [])[:key["items"][0] - 1]
    else:  # a number the table leaves unbounded, or a section
        section[name] = 1e300 if key["type"] == "number" else "text"
    return cfg


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300)
@given(name=st.sampled_from(sorted(SAMPLES)),
       path=st.sampled_from(sorted(_KEYS)),
       mutation=st.sampled_from(MUTATIONS))
def test_exit_code_contract_under_mutated_configs(name, path, mutation):
    # whatever one key holds, a run ends in 0, 2 or 3 and never raises;
    # error.json exists exactly when a run stopped before its verdict
    cfg = _mutated(SAMPLES[name], path, mutation)
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "c.json", Path(tmp) / "out"
        config.write_text(json.dumps(cfg))
        code = run(str(config), str(out), threads=1)
        assert code in (0, 2, 3)
        error = out / "error.json"
        if error.exists():
            assert json.loads(error.read_text())["exit_code"] == code != 0
        elif code != 0:
            # the one exit without an error: validate's battery refuted
            report = json.loads((out / "report.json").read_text())
            assert (code, report["config"]["experiment"], report["verdict"]) == (
                3, "validate", "refutes")

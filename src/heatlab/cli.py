"""Command line front end: table-checked configs, stable reports, CSV data.

``heatlab <experiment> --config cfg.json --out dir`` runs one experiment and
writes ``report.json`` (byte-stable for a fixed config and seed: floats
rendered with %.12g, keys sorted), one CSV per data series, and a
``timing.json`` sidecar holding the run's measured wall time.  Exit codes: 0 when the
experiment ran to a verdict (refutes included), 2 for invalid configs or
arguments, 3 for numerical failures, overflow aborts, or a failed
validation suite.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import numbers
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from . import __version__, functionals, solver
from .errors import InvalidArgumentError, NumericalFailure, RangeError
from .experiments import (blowup_sweep, check, comparison_check,
                          completeness_probe, decide, degiorgi_sweep,
                          tail_probe)
from .geometry import (ball_indicator, euclidean, piecewise, power_exp_weight,
                       whole_count)
from .grid import build_grid
from .operator import DIRICHLET, NEUMANN, assemble
from .solver import (EXHAUSTION_SLACK, SolveControls, advance_states,
                     exhaustion_levels, monotonicity_defect, project_datum)

EXPERIMENTS = ("degiorgi", "completeness", "blowup", "comparison", "tail",
               "validate")

# every config key by its path: type, bounds, default and readers.  The
# readers are the experiments that read the key, or {selector: value} when
# only one value of a sibling selector reads it.  A key with no default is
# required by its readers.
_SOLVING = ("degiorgi", "completeness", "blowup", "comparison", "tail")
_MODELLED = ("degiorgi", "completeness", "blowup", "tail")
_WITH_DATUM = ("degiorgi", "tail")
_EXHAUSTING = ("degiorgi", "completeness")
_POSITIVE = {"type": "number", "above": 0}
_CONTROLS = asdict(SolveControls())
_KEYS = {
    "experiment": {"type": "choice", "of": EXPERIMENTS, "readers": EXPERIMENTS},
    "manifold": {"type": "section", "default": {}, "readers": _MODELLED},
    "manifold/family": {"type": "choice",
                        "of": ("euclidean", "power_exp"),
                        "default": "euclidean", "readers": _MODELLED},
    "manifold/dimension": {"type": "integer", "least": 2, "default": 3,
                           "readers": _MODELLED},
    "manifold/params": {"type": "section", "default": {},
                        "readers": {"family": "power_exp"}},
    "manifold/params/power": {"type": "number", "default": 4,
                              "readers": _MODELLED},
    "manifold/params/sign": {"type": "choice", "of": (-1, 1), "default": 1,
                             "readers": _MODELLED},
    # the experiments that read a datum need compact support
    "datum": {"type": "section", "default": {}, "readers": _WITH_DATUM},
    "datum/kind": {"type": "choice", "of": ("ball", "piecewise"),
                   "default": "ball", "readers": _WITH_DATUM},
    "datum/radius": {**_POSITIVE, "default": 1.0, "readers": {"kind": "ball"}},
    "datum/breakpoints": {"type": "list", "items": (2, math.inf),
                          "item": {"type": "list", "items": (2, 2),
                                   "item": {"type": "number"}},
                          "readers": {"kind": "piecewise"}},
    "t": {**_POSITIVE, "readers": ("completeness",)},
    "t_list": {"type": "list", "items": (1, math.inf), "item": _POSITIVE,
               "readers": ("degiorgi", "blowup", "tail")},
    "R": {**_POSITIVE, "readers": ("comparison",)},
    "R_list": {"type": "list", "items": (2, math.inf), "item": _POSITIVE,
               "readers": ("blowup",)},
    "R_out": {**_POSITIVE, "readers": ("tail",)},
    "r0": {**_POSITIVE, "readers": ("blowup",)},
    "controls": {"type": "section", "default": {}, "readers": _SOLVING},
    "controls/step_tol": {**_POSITIVE, "default": _CONTROLS["step_tol"],
                          "readers": _MODELLED},
    "controls/exhaustion": {"type": "list", "items": (1, math.inf),
                            "item": _POSITIVE, "null": True,
                            "default": None,
                            "readers": _EXHAUSTING},
    "controls/n_cells": {"type": "integer", "least": 16,
                         "default": _CONTROLS["n_cells"], "readers": _SOLVING},
    "tolerances": {"type": "section", "default": {}, "readers": ("degiorgi",)},
    "tolerances/gap_rtol": {**_POSITIVE, "default": 0.01,
                            "readers": ("degiorgi",)},
    "seed": {"type": "integer", "least": 0, "default": 0, "readers": ("validate",)},
}


def _fail(path: str, message: str):
    raise InvalidArgumentError(
        f"config invalid at {path or '(top level)'}: {message}")


def _checked(path: str, value, key: dict):
    """``value`` as the table entry ``key`` admits it at ``path``."""
    if isinstance(value, float) and not math.isfinite(value):
        _fail(path, f"holds {json.dumps(value)}, which is not a finite number")
    kind = key["type"]
    if kind == "choice":
        # True == 1, but a boolean is no sign
        if isinstance(value, bool) or value not in key["of"]:
            _fail(path, f"{value!r} is not one of "
                        f"{', '.join(map(repr, key['of']))}")
        return value
    if kind == "list":
        if value is None and key.get("null"):
            return None
        if not isinstance(value, list):
            _fail(path, f"{value!r} is not a list")
        least, most = key["items"]
        if not least <= len(value) <= most:
            span = least if least == most else f"at least {least}"
            _fail(path, f"must hold {span} item{'s' * (least > 1)}, "
                        f"got {len(value)}")
        return [_checked(f"{path}/{i}", item, key["item"])
                for i, item in enumerate(value)]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"{value!r} is not a number")
    if kind == "integer":
        # a whole-number float such as 512.0 is an integer
        if not float(value).is_integer():
            _fail(path, f"{value!r} is not an integer")
        value = int(value)
    if "above" in key and not value > key["above"]:
        _fail(path, f"must be above {key['above']}, got {value!r}")
    if "least" in key and value < key["least"]:
        _fail(path, f"must be at least {key['least']}, got {value!r}")
    return value


def _section(raw, prefix: str, experiment: str, read: bool,
             found: dict) -> dict:
    """Check one section against the table; return the keys the run reads.

    ``read`` says whether the run reads the section at all.  Missing and
    unread keys land in ``found`` under the head of their message.
    """
    if not isinstance(raw, dict):
        _fail(prefix, f"{raw!r} is not an object")
    names = {path.rpartition("/")[2]: path for path in _KEYS
             if path.rpartition("/")[0] == prefix}
    unknown = sorted(set(raw) - set(names), key=str)
    if unknown:
        _fail(prefix, f"unknown key{'s' if len(unknown) > 1 else ''} "
                      f"{', '.join(map(repr, unknown))}")
    out = {}
    for name, path in names.items():
        key = _KEYS[path]
        readers = key["readers"]
        if isinstance(readers, dict):
            [(selector, choice)] = readers.items()
            reads = read and out[selector] == choice
        else:
            reads = read and experiment in readers
        if name not in raw:
            if not reads:
                continue
            if "default" not in key:
                found[f"experiment {experiment} requires keys"].append(path)
                continue
        elif read and not reads:
            if isinstance(readers, dict):
                head = f"{prefix} {selector} {out[selector]} does not read"
                found.setdefault(head, []).append(name)
            else:
                found[f"experiment {experiment} does not read"].append(path)
        value = raw.get(name, key.get("default"))
        if key["type"] == "section":
            value = _section(value, path, experiment, reads, found)
        else:
            value = _checked(path, value, key)
        if reads:
            out[name] = value
    return out


def resolve_config(raw: dict) -> dict:
    """The checked config: exactly the keys the run reads, ``experiment``
    included, defaults filled in."""
    if not isinstance(raw, dict):
        raise InvalidArgumentError("config must be a JSON object")
    if "experiment" not in raw:
        _fail("", "missing key 'experiment'")
    experiment = _checked("experiment", raw["experiment"], _KEYS["experiment"])
    found = {f"experiment {experiment} requires keys": [],
             f"experiment {experiment} does not read": []}
    resolved = _section(raw, "", experiment, True, found)
    for head, keys in found.items():
        if keys:
            raise InvalidArgumentError(f"{head}: {', '.join(keys)}")
    return resolved


def load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise InvalidArgumentError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidArgumentError(f"config {path} is not valid JSON: {exc}") from exc
    return resolve_config(raw)


def _manifold_from(cfg: dict):
    if cfg["family"] == "euclidean":
        return euclidean(cfg["dimension"])
    return power_exp_weight(cfg["params"]["power"], cfg["params"]["sign"],
                            cfg["dimension"])


def _datum_from(cfg: dict):
    if cfg["kind"] == "ball":
        return ball_indicator(cfg["radius"])
    return piecewise(cfg["breakpoints"])


def _dumps(obj, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, %.12g floats, ascii strings."""
    if type(obj) is float:  # first, as the ABCs below are slow; non-finite quoted
        text = f"{obj:.12g}"
        return text if math.isfinite(obj) else f'"{text}"'
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=True)
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [f"{inner}{json.dumps(key)}: {_dumps(obj[key], indent + 2)}"
                 for key in sorted(str(k) for k in obj)]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [f"{inner}{_dumps(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, numbers.Integral):
        return str(int(obj))
    if isinstance(obj, numbers.Real):  # numpy floats
        return _dumps(float(obj))
    raise InvalidArgumentError(f"cannot serialize {type(obj).__name__} into a report")


def _csv_cell(value) -> str:
    if type(value) is float:  # exact floats skip the slow ``numbers`` ABCs
        return f"{value:.12g}"
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, numbers.Integral):
        return str(int(value))
    if isinstance(value, numbers.Real):
        return f"{float(value):.12g}"
    return str(value)


def _write_csv(path: str, rows):
    """One line per row under a header of the first row's keys."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        header = list(rows[0])
        writer.writerow(header)
        writer.writerows([_csv_cell(row[c]) for c in header] for row in rows)


def validate(seed: int = 0) -> dict:
    """Run the structural property battery once: one row per property, each
    a measured defect against its tolerance.

    The battery runs in two halves through ``solver.both``: the caller runs
    the three-column run, and a child the symmetry, exhaustion, semigroup
    and Neumann legs, drawing ``rng`` in one order as one process would."""
    rng = np.random.default_rng(whole_count(seed, "seed", 0))
    weighted = power_exp_weight(4, 1, 3)
    g = build_grid(weighted, 3.0, 256, (1.0,))
    op = assemble(g, weighted, DIRICHLET)
    controls = SolveControls(n_cells=256)
    ball = ball_indicator(1.0)

    def three_columns():
        # one run of [constant, ball, constant - ball] carries three rows (the bounds
        # of every column, the growth of the constant and linearity): exact reductions
        # from 0, 1 and 0 read them off blocks of 64 states after the state in row 0
        ball0 = project_datum(ball, g)
        triple = np.stack([np.ones(g.N), ball0, 1.0 - ball0], axis=1)
        block, folds, n = np.resize(triple.T, (65, 3, g.N)), [], [0]  # each row the first state

        def fold():
            states, n[0] = block[:n[0] + 1], 0
            folds.append((states[1:].min(initial=0.0), states[1:].max(initial=1.0),
                          np.diff(states[:, 0], axis=0).max(initial=0.0)))
            block[0] = states[-1]

        def track(t0, a, t1, b):
            n[0] += 1
            block[n[0]] = b.T
            if n[0] == 64:
                fold()

        (out,) = advance_states(op, triple, [0.05], controls, observer=track)
        fold()
        lo, hi, growth = np.array(folds).T
        return (max(0.0, -lo.min(), hi.max() - 1.0), max(0.0, growth.max()),
                float(np.max(np.abs(out[:, 0] - out[:, 1] - out[:, 2]))))

    def the_rest():
        # the symmetry leg: 100 pairs (u, v) drawn at once from the same stream
        u, v = rng.standard_normal((100, 2, g.N)).transpose(1, 2, 0)
        sums = [(functionals.weighted_sum(g, lu, vi), functionals.weighted_sum(g, ui, lv))
                for ui, vi, lu, lv in zip(u.T, v.T, op.apply(u).T, op.apply(v).T)]
        worst = max(abs(a - b) / max(abs(a), abs(b), 1.0) for a, b in sums)

        # the first exhaustion level's state at 0.05 is also the one-shot
        # leg of the semigroup identity, P_0.02 P_0.03 staged on that
        # level's grid; naming the automatic policy's first two radii walks
        # no third level, and a lone second level replays inline
        (g1, (direct,)), (_, (outer,)) = exhaustion_levels(
            weighted, ball, [0.05], controls, radii=(2.0, 3.0))
        op1 = assemble(g1, weighted, DIRICHLET)
        (staged,) = advance_states(op1, project_datum(ball, g1), [0.03], controls)
        (staged,) = advance_states(op1, staged, [0.02], controls)
        drift = (functionals.weighted_sum(g1, np.abs(direct - staged))
                 / functionals.weighted_sum(g1, np.abs(direct)))

        op_n = assemble(g, weighted, NEUMANN)
        u0 = rng.random(g.N) + 0.5
        mass0 = functionals.weighted_sum(g, u0)
        (u_t,) = advance_states(op_n, u0, [0.1], controls)
        return (worst, max(0.0, monotonicity_defect(direct, outer)), drift,
                abs(functionals.weighted_sum(g, u_t) - mass0) / (0.1 * mass0))

    (bounds, growth, linearity), (symmetry, monotone, drift, neumann) = \
        solver.both(three_columns, the_rest)
    rows = [check("operator_symmetry_rel", symmetry, "<=", 1e-12),
            check("max_principle_defect", bounds, "<=", 1e-12),
            check("exhaustion_monotone", monotone, "<=", EXHAUSTION_SLACK),
            check("semigroup_identity_rel", drift, "<=", 1e-4),
            check("mass_time_monotone", growth, "<=", 1e-10),
            check("neumann_mass_drift_per_time", neumann, "<=", 1e-12),
            check("three_column_linearity", linearity, "<=", 1e-12)]
    verdict, finding = decide(rows, ("all properties hold",
                                     "property violated", "undetermined"))
    return {"evidence": {"checks": rows}, "verdict": verdict,
            "finding": finding}


def _execute(cfg: dict):
    experiment = cfg["experiment"]
    if experiment == "validate":
        report = validate(cfg["seed"])
        return report, {"validate.csv": report["evidence"]["checks"]}

    manifold = _manifold_from(cfg["manifold"]) if "manifold" in cfg else None
    settings = dict(cfg["controls"])
    radii = settings.pop("exhaustion", None)  # for the drivers that walk radii
    controls = SolveControls(**settings)

    if experiment == "degiorgi":
        rep = degiorgi_sweep(manifold, _datum_from(cfg["datum"]), cfg["t_list"],
                             controls, gap_rtol=cfg["tolerances"]["gap_rtol"],
                             radii=radii)
    elif experiment == "completeness":
        rep = completeness_probe(manifold, cfg["t"], controls, radii=radii)
    elif experiment == "blowup":
        rep = blowup_sweep(manifold, cfg["r0"], cfg["t_list"], cfg["R_list"],
                           controls)
    elif experiment == "comparison":
        rep = comparison_check(cfg["R"], controls.n_cells)
    else:
        rep = tail_probe(manifold, _datum_from(cfg["datum"]), cfg["R_out"],
                         cfg["t_list"], controls)
    # a shallow copy: asdict would deep-copy every series row
    return dict(vars(rep)), {f"{name}.csv": rows
                         for name, rows in rep.series.items()}


def _write_error(out_dir: str, exc: Exception, exit_code: int):
    record = {"error": type(exc).__name__, "message": str(exc),
              "exit_code": exit_code}
    print(f"heatlab: error: {exc}", file=sys.stderr)
    with contextlib.suppress(OSError), open(os.path.join(out_dir, "error.json"), "w",
                                           encoding="utf-8") as fh:
        fh.write(_dumps(record) + "\n")


def run(config_path: str, out_dir: str, experiment: str | None = None,
        threads: int | None = None) -> int:
    """Execute one config end to end; returns the process exit code.

    ``threads`` is ignored: a run steps in one thread, with at most one
    forked child beside it (``solver.both``: an exhaustion level, blowup's
    flat companion or half of ``validate``).  It stays in the signature
    for callers that still pass it.
    """
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        print(f"heatlab: error: cannot create {out_dir}: {exc}", file=sys.stderr)
        return 2

    try:
        cfg = load_config(config_path)
        if experiment is not None and experiment != cfg["experiment"]:
            raise InvalidArgumentError(
                f"command line names {experiment} but config names "
                f"{cfg['experiment']}")
        started = time.perf_counter()  # timing.json times the run alone
        report, csv_rows = _execute(cfg)
    except InvalidArgumentError as exc:
        _write_error(out_dir, exc, 2)
        return 2
    except (RangeError, NumericalFailure) as exc:
        _write_error(out_dir, exc, 3)
        return 3

    runtime = {"total_wall_s": time.perf_counter() - started}
    # the config echo is the resolved config: only the keys the run read
    report.update(tool="heatlab", version=__version__, config=cfg,
                  files=sorted(csv_rows))

    for name, record in (("report.json", report), ("timing.json", runtime)):
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            fh.write(_dumps(record) + "\n")
    for name, rows in csv_rows.items():
        _write_csv(os.path.join(out_dir, name), rows)

    if cfg["experiment"] == "validate":
        for row in report["evidence"]["checks"]:
            print(f"{row['property']:32s} {row['measured']:12.3e} "
                  f"<= {row['tolerance']:9.1e}  {row['status'].upper()}")
        if report["verdict"] != "confirms":
            print("validate: FAILED", file=sys.stderr)
            return 3
    print(f"{cfg['experiment']}: {report['verdict']} ({report['finding']})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="heatlab",
        description="Heat-flow experiments on rotationally symmetric "
                    "weighted manifolds")
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", required=True, help="output directory")
    args = parser.parse_args(argv)
    return run(args.config, args.out, experiment=args.experiment)


if __name__ == "__main__":
    sys.exit(main())

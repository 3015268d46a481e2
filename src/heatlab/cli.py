"""Command line front end: schema-checked configs, stable reports, CSV data.

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
import copy
import csv
import itertools
import json
import math
import numbers
import os
import sys
import time
from dataclasses import asdict, dataclass, replace

import jsonschema
import numpy as np

from . import __version__, functionals
from .errors import InvalidArgumentError, NumericalFailure, RangeError
from .experiments import (blowup_sweep, comparison_check, completeness_probe,
                          degiorgi_sweep, tail_probe)
from .geometry import (ball_indicator, euclidean, piecewise, power_exp_weight,
                       warped_cone)
from .grid import build_grid
from .operator import DIRICHLET, NEUMANN, assemble
from .solver import (SolveControls, advance_states, exhaustion_levels,
                     project_datum, semigroup_check)

EXPERIMENTS = ("degiorgi", "completeness", "blowup", "comparison", "tail",
               "validate")

CSV_COLUMNS = {
    "degiorgi": ("t", "R_used", "N", "TV", "extrap_flag"),
    "completeness": ("R", "m_at_0"),
    "blowup": ("R", "TV_R", "q_at_Rmax", "r_t", "delta_t"),
    "comparison": ("r", "v_R", "w_R", "lap_w"),
    "tail": ("t", "tail", "fit_residual"),
    "validate": ("property", "measured", "tolerance", "status"),
}

# type of each SolveControls field in a config; the defaults are the
# dataclass's own
_CONTROL_TYPES = {
    "step_tol": {"type": "number"},
    "exhaustion": {"type": ["array", "null"], "items": {"type": "number"}},
    "n_cells": {"type": "integer"},
    "richardson": {"type": "boolean"},
}
_CONTROL_DEFAULTS = asdict(SolveControls())

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["experiment"],
    "properties": {
        "experiment": {"enum": list(EXPERIMENTS)},
        "manifold": {
            "type": "object",
            "additionalProperties": False,
            "default": {},
            "properties": {
                "family": {"enum": ["euclidean", "power_exp", "warped_cone"],
                           "default": "euclidean"},
                "dimension": {"type": "integer", "minimum": 2, "default": 3},
                "params": {
                    "type": "object",
                    "additionalProperties": False,
                    "default": {},
                    "properties": {
                        "power": {"type": "number", "default": 4},
                        "sign": {"enum": [-1, 1], "default": 1},
                    },
                },
            },
        },
        "datum": {
            "type": "object",
            "additionalProperties": False,
            "default": {},
            "properties": {
                # the experiments that read a datum need compact support
                "kind": {"enum": ["ball", "piecewise"], "default": "ball"},
                "radius": {"type": "number", "exclusiveMinimum": 0,
                           "default": 1.0},
                "breakpoints": {
                    "type": "array",
                    "items": {"type": "array", "minItems": 2, "maxItems": 2,
                              "items": {"type": "number"}},
                },
            },
        },
        "t": {"type": "number", "exclusiveMinimum": 0},
        "t_list": {"type": "array", "minItems": 1,
                   "items": {"type": "number", "exclusiveMinimum": 0}},
        "R": {"type": "number", "exclusiveMinimum": 0},
        "R_list": {"type": "array", "minItems": 2,
                   "items": {"type": "number", "exclusiveMinimum": 0}},
        "R_out": {"type": "number", "exclusiveMinimum": 0},
        "r0": {"type": "number", "exclusiveMinimum": 0},
        "controls": {
            "type": "object",
            "additionalProperties": False,
            "default": {},
            "properties": {
                key: {**spec, "default": _CONTROL_DEFAULTS[key]}
                for key, spec in _CONTROL_TYPES.items()},
        },
        "tolerances": {
            "type": "object",
            "additionalProperties": False,
            "default": {},
            "properties": {
                "gap_rtol": {"type": "number", "exclusiveMinimum": 0,
                             "default": 0.01},
                # at 0.1 or above the incomplete band 1 - 10*eps_c is empty
                "eps_c": {"type": "number", "exclusiveMinimum": 0,
                          "exclusiveMaximum": 0.1, "default": 1e-4},
            },
        },
        "seed": {"type": "integer", "default": 0},
        "inject_asymmetry": {"type": "boolean", "default": False},
    },
}

# keys that only one value of their section's selector reads; any other
# value rejects them
_SELECTOR_ONLY_KEYS = {
    ("manifold", "family"): {"params": "power_exp"},
    ("datum", "kind"): {"radius": "ball", "breakpoints": "piecewise"},
}

# what each experiment reads besides `experiment`:
# (required keys, optional keys, {section: names read in it})
_STEPPING = ("step_tol", "n_cells")
_KEYS_READ = {
    "degiorgi": (("t_list",), ("manifold", "datum", "controls", "tolerances"),
                 {"tolerances": ("gap_rtol",),
                  "controls": (*_STEPPING, "exhaustion", "richardson")}),
    "completeness": (("t",), ("manifold", "controls", "tolerances"),
                     {"tolerances": ("eps_c",),
                      "controls": (*_STEPPING, "exhaustion")}),
    "blowup": (("r0", "t_list", "R_list"), ("manifold", "controls"),
               {"controls": _STEPPING}),
    "comparison": (("t", "R"), ("controls",), {"controls": _STEPPING}),
    "tail": (("R_out", "t_list"), ("manifold", "datum", "controls"),
             {"controls": _STEPPING}),
    "validate": ((), ("seed", "inject_asymmetry"), {}),
}


def _defaulting_validator():
    base = jsonschema.Draft202012Validator
    check_properties = base.VALIDATORS["properties"]

    def fill_defaults(validator, properties, instance, schema):
        if isinstance(instance, dict):
            for key, sub in properties.items():
                if "default" in sub and key not in instance:
                    instance[key] = copy.deepcopy(sub["default"])
        yield from check_properties(validator, properties, instance, schema)

    return jsonschema.validators.extend(base, {"properties": fill_defaults})


_VALIDATOR = _defaulting_validator()(CONFIG_SCHEMA)


def _reject_non_finite(node, path: tuple = ()):
    """Refuse NaN and infinities anywhere: NaN passes the schema's bounds."""
    if isinstance(node, float) and not math.isfinite(node):
        raise InvalidArgumentError(
            f"config invalid at {'/'.join(map(str, path))}: holds "
            f"{json.dumps(node)}, which is not a finite number")
    children = (node.items() if isinstance(node, dict) else enumerate(node)
                if isinstance(node, (list, tuple)) else ())
    for key, child in children:
        _reject_non_finite(child, (*path, key))


@dataclass(frozen=True)
class RunConfig:
    """Validated, default-filled run description."""

    experiment: str
    resolved: dict

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise InvalidArgumentError("config must be a JSON object")
        _reject_non_finite(raw)
        cfg = copy.deepcopy(raw)
        errors = sorted(_VALIDATOR.iter_errors(cfg), key=lambda e: list(e.path))
        if errors:
            first = errors[0]
            where = "/".join(str(p) for p in first.path) or "(top level)"
            raise InvalidArgumentError(f"config invalid at {where}: {first.message}")
        experiment = cfg["experiment"]
        required, optional, sections = _KEYS_READ[experiment]
        missing = [k for k in required if k not in cfg]
        if missing:
            raise InvalidArgumentError(
                f"experiment {experiment} requires keys: {', '.join(missing)}")
        # read the raw config: the schema has filled in defaults everywhere
        unread = [k for k in raw if k not in
                  ("experiment", *required, *optional)]
        unread += [f"{section}/{k}" for section, names in sections.items()
                   for k in raw.get(section, {}) if k not in names]
        if unread:
            raise InvalidArgumentError(
                f"experiment {experiment} does not read: {', '.join(unread)}")
        for (section, selector), owners in _SELECTOR_ONLY_KEYS.items():
            choice = cfg[section][selector]
            ignored = [k for k, only in owners.items()
                       if k in raw.get(section, {}) and choice != only]
            if ignored:
                raise InvalidArgumentError(
                    f"{section} {selector} {choice} does not read: "
                    f"{', '.join(ignored)}")
        if cfg["datum"]["kind"] != "ball":
            del cfg["datum"]["radius"]  # the schema's default, unread
        return cls(experiment=experiment, resolved=cfg)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise InvalidArgumentError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidArgumentError(f"config {path} is not valid JSON: {exc}") from exc
    return RunConfig.from_dict(raw)


def _manifold_from(cfg: dict):
    family = cfg["family"]
    if family == "euclidean":
        return euclidean(cfg["dimension"])
    if family == "power_exp":
        return power_exp_weight(cfg["params"]["power"], cfg["params"]["sign"],
                                cfg["dimension"])
    return warped_cone(cfg["dimension"])


def _datum_from(cfg: dict):
    kind = cfg["kind"]
    if kind == "ball":
        return ball_indicator(cfg["radius"])
    if "breakpoints" not in cfg:
        raise InvalidArgumentError("piecewise datum needs breakpoints")
    return piecewise(cfg["breakpoints"])


def _format_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return f"{x:.12g}"


def _dumps(obj, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, %.12g floats, ascii strings."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, numbers.Integral):
        return str(int(obj))
    if isinstance(obj, numbers.Real):
        return _format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=True)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [f"{inner}{_dumps(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = []
        for key in sorted(str(k) for k in obj):
            parts.append(f"{inner}{json.dumps(key)}: {_dumps(obj[key], indent + 2)}")
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    raise InvalidArgumentError(f"cannot serialize {type(obj).__name__} into a report")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, numbers.Integral):
        return str(int(value))
    if isinstance(value, numbers.Real):
        x = float(value)
        return "nan" if math.isnan(x) else f"{x:.12g}"
    return str(value)


def _write_csv(path: str, columns, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_csv_cell(row.get(c)) for c in columns])


def _report_base(rc: RunConfig) -> dict:
    """Report header; the config echo holds only the keys the run read."""
    required, optional, sections = _KEYS_READ[rc.experiment]
    echo = {k: copy.deepcopy(v) for k, v in rc.resolved.items()
            if k in ("experiment", *required, *optional)}
    for section, names in sections.items():
        echo[section] = {k: v for k, v in echo[section].items() if k in names}
    return {"tool": "heatlab", "version": __version__, "config": echo}


def _validate_rows(seed: int, inject_asymmetry: bool) -> list:
    rng = np.random.default_rng(seed)
    weighted = power_exp_weight(4, 1, 3)
    g = build_grid(weighted, 3.0, 256, (1.0,))
    op = assemble(g, weighted, DIRICHLET)
    controls = SolveControls(n_cells=256)
    rows = []

    def add(name, measured, tol):
        status = "pass" if measured <= tol else "fail"
        rows.append({"property": name, "measured": float(measured),
                     "tolerance": float(tol), "status": status})

    sym_op = op
    if inject_asymmetry:
        # negative control: a uniform relative tilt of one off-diagonal band
        # must be caught by the symmetry property
        sym_op = replace(op, upper=op.upper * (1.0 + 1e-6))
    worst = 0.0
    for _ in range(100):
        u = rng.standard_normal(g.N)
        v = rng.standard_normal(g.N)
        a = functionals.weighted_sum(g, sym_op.apply(u), v)
        b = functionals.weighted_sum(g, u, sym_op.apply(v))
        worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1.0))
    add("operator_symmetry_rel", worst, 1e-12)

    bounds = [0.0, 1.0]
    growth = [0.0]

    def track(t0, a, t1, b):
        bounds[0] = min(bounds[0], float(np.min(b)))
        bounds[1] = max(bounds[1], float(np.max(b)))
        growth[0] = max(growth[0], float(np.max(b - a)))

    u0 = project_datum(ball_indicator(1.0), g)
    advance_states(op, u0, 0.0, 0.01, controls, observer=track)
    add("max_principle_defect", max(0.0, -bounds[0], bounds[1] - 1.0), 1e-12)

    levels = [u for _, u in itertools.islice(
        exhaustion_levels(weighted, ball_indicator(1.0), 0.05, controls), 2)]
    defect = max(0.0, float(np.max(levels[0] - levels[1][:levels[0].size])))
    add("exhaustion_monotone", defect, 1e-10)

    drift = semigroup_check(weighted, ball_indicator(1.0), 0.02, 0.03, controls)
    add("semigroup_identity_rel", drift, 1e-4)

    growth[0] = 0.0
    ones = np.ones(g.N)
    advance_states(op, ones, 0.0, 0.05, controls, observer=track)
    add("mass_time_monotone", max(0.0, growth[0]), 1e-10)

    cone = warped_cone(3)
    g_cone = build_grid(cone, 3.0, 256, (1.0,))
    op_cone = assemble(g_cone, cone, DIRICHLET)
    scale = max(float(np.max(np.abs(band)))
                for band in (op.lower, op.diag, op.upper))
    defect = max(float(np.max(np.abs(a - b))) for a, b in
                 ((op.lower, op_cone.lower), (op.diag, op_cone.diag),
                  (op.upper, op_cone.upper)))
    add("cone_twin_coefficients_rel", defect / scale, 1e-14)

    op_n = assemble(g, weighted, NEUMANN)
    u0 = rng.random(g.N) + 0.5
    mass0 = functionals.weighted_sum(g, u0)
    u_t = advance_states(op_n, u0, 0.0, 0.1, controls)
    drift = abs(functionals.weighted_sum(g, u_t) - mass0) / (0.1 * mass0)
    add("neumann_mass_drift_per_time", drift, 1e-12)

    ball0 = project_datum(ball_indicator(1.0), g)
    triple = np.stack([ones, ball0, ones - ball0], axis=1)
    out = advance_states(op, triple, 0.0, 0.05, controls)
    defect = float(np.max(np.abs(out[:, 0] - out[:, 1] - out[:, 2])))
    add("three_column_linearity", defect, 1e-12)

    return rows


def validate(seed: int = 0, inject_asymmetry: bool = False) -> dict:
    """Run the property suite twice; also demand byte-identical serialization."""
    first = _validate_rows(seed, inject_asymmetry)
    second = _validate_rows(seed, inject_asymmetry)
    stable = _dumps(first) == _dumps(second)
    rows = list(first)
    rows.append({"property": "report_bytes_reproducible",
                 "measured": 0.0 if stable else 1.0, "tolerance": 0.0,
                 "status": "pass" if stable else "fail"})
    ok = all(row["status"] == "pass" for row in rows)
    return {"experiment": "validate", "seed": seed,
            "inject_asymmetry": inject_asymmetry, "properties": rows,
            "verdict": "confirms" if ok else "refutes",
            "finding": "all properties hold" if ok else "property violated",
            "ok": ok}


def _execute(rc: RunConfig):
    cfg = rc.resolved
    if rc.experiment == "validate":
        report = validate(cfg["seed"], cfg["inject_asymmetry"])
        return report, {"validate.csv": report["properties"]}

    manifold = _manifold_from(cfg["manifold"])
    controls = SolveControls(**cfg["controls"])

    if rc.experiment == "degiorgi":
        rep = degiorgi_sweep(manifold, _datum_from(cfg["datum"]), cfg["t_list"],
                             controls,
                             gap_rtol=cfg["tolerances"]["gap_rtol"])
    elif rc.experiment == "completeness":
        rep = completeness_probe(manifold, cfg["t"], controls,
                                 eps_c=cfg["tolerances"]["eps_c"])
    elif rc.experiment == "blowup":
        rep = blowup_sweep(manifold, cfg["r0"], cfg["t_list"], cfg["R_list"],
                           controls)
    elif rc.experiment == "comparison":
        rep = comparison_check(cfg["t"], cfg["R"], controls)
    else:
        rep = tail_probe(manifold, _datum_from(cfg["datum"]), cfg["R_out"],
                         cfg["t_list"], controls)
    report = asdict(rep)
    if rc.experiment == "blowup":
        report["t_by_series"] = dict(zip(rep.series, cfg["t_list"]))
    return report, {f"{name}.csv": rows for name, rows in rep.series.items()}


def _write_error(out_dir: str, exc: Exception, exit_code: int):
    record = {"error": type(exc).__name__, "message": str(exc),
              "exit_code": exit_code}
    print(f"heatlab: error: {exc}", file=sys.stderr)
    try:
        with open(os.path.join(out_dir, "error.json"), "w",
                  encoding="utf-8") as fh:
            fh.write(_dumps(record) + "\n")
    except OSError:
        pass


def run(config_path: str, out_dir: str, experiment: str | None = None,
        threads: int | None = None, seed: int | None = None) -> int:
    """Execute one config end to end; returns the process exit code.

    ``threads`` is ignored: every run is single-threaded.  It stays in the
    signature for callers that still pass it.
    """
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        print(f"heatlab: error: cannot create {out_dir}: {exc}", file=sys.stderr)
        return 2

    try:
        rc = load_config(config_path)
        if experiment is not None and experiment != rc.experiment:
            raise InvalidArgumentError(
                f"command line names {experiment} but config names {rc.experiment}")
        if seed is not None:
            if "seed" not in _KEYS_READ[rc.experiment][1]:
                raise InvalidArgumentError(
                    f"experiment {rc.experiment} does not read: seed")
            rc = RunConfig(rc.experiment, {**rc.resolved, "seed": int(seed)})
    except InvalidArgumentError as exc:
        _write_error(out_dir, exc, 2)
        return 2

    started = time.perf_counter()
    try:
        report, csv_rows = _execute(rc)
    except InvalidArgumentError as exc:
        _write_error(out_dir, exc, 2)
        return 2
    except (RangeError, NumericalFailure, FloatingPointError) as exc:
        _write_error(out_dir, exc, 3)
        return 3

    runtime = {"total_wall_s": time.perf_counter() - started}
    report.update(_report_base(rc))
    report["files"] = sorted(csv_rows)

    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        fh.write(_dumps(report) + "\n")
    with open(os.path.join(out_dir, "timing.json"), "w", encoding="utf-8") as fh:
        fh.write(_dumps(runtime) + "\n")
    for name, rows in csv_rows.items():
        _write_csv(os.path.join(out_dir, name), CSV_COLUMNS[rc.experiment], rows)

    if rc.experiment == "validate":
        for row in report["properties"]:
            print(f"{row['property']:32s} {row['measured']:12.3e} "
                  f"<= {row['tolerance']:9.1e}  {row['status'].upper()}")
        if not report["ok"]:
            print("validate: FAILED", file=sys.stderr)
            return 3
        print("validate: all properties hold")
        return 0

    print(f"{rc.experiment}: {report['verdict']} ({report['finding']})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="heatlab",
        description="Heat-flow experiments on rotationally symmetric "
                    "weighted manifolds")
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed (validate only)")
    args = parser.parse_args(argv)
    return run(args.config, args.out, experiment=args.experiment,
               seed=args.seed)


if __name__ == "__main__":
    sys.exit(main())

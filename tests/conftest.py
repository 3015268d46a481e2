"""Shared fixtures and independent reference solutions.

The flat-space reference kernel is computed two ways that share no code with
the package under test: a closed form built from erf, and direct quadrature
of the spherically reduced Gauss kernel.  Tests cross-check the two routes
against each other before using either against the solver, so a bug in the
reference cannot silently excuse a bug in the code.
"""

import contextlib
import hashlib
import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from scipy.integrate import quad
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dpttrf, dpttrs
from scipy.special import erf

import heatlab.experiments
import heatlab.solver
from heatlab import SolveControls, euclidean, power_exp_weight

# property tests draw the same examples on every run, and a slow shared
# machine cannot fail one on time alone
settings.register_profile("heatlab", derandomize=True, deadline=None)
settings.load_profile("heatlab")

# SHA-256 of every output file of each sample config but timing.json, so a
# change that moves one digit of a sample output shows.  The digests depend
# on the installed numpy and LAPACK build: on another build, regenerate them
# with ``python tests/test_sample_configs.py``, which prints what moved.
SAMPLE_DIGESTS = Path(__file__).with_name("sample_digests.json")
# each sample's expected report.json (error.json for a run that aborts),
# pinned with the digests: a moved digest is told by the values that moved
SAMPLE_REPORTS = Path(__file__).with_name("sample_reports")
# the order moved values are listed in: the decision first, then fitted,
# then series, then the rest (the config echo, the file list)
_MOVE_ORDER = {"verdict": 0, "finding": 0, "error": 0, "exit_code": 0,
               "message": 0, "evidence": 1, "fitted": 2, "series": 3}


def output_digests(out: Path) -> dict:
    """SHA-256 of every file a run wrote, but its wall times."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.name != "timing.json"}


def moved_outputs(name: str, out: Path) -> list:
    """The files of sample config ``name``'s run into ``out`` whose digest
    differs from the recorded one, or that only one side has."""
    want, got = json.loads(SAMPLE_DIGESTS.read_text())[name], output_digests(out)
    return sorted(f for f in want.keys() | got.keys() if want.get(f) != got.get(f))


def run_record(out: Path) -> Path:
    """The JSON record a run wrote into ``out``: its report, or its error."""
    report = out / "report.json"
    return report if report.exists() else out / "error.json"


def _leaves(obj, path: str = ""):
    """(path, value) of each leaf of parsed JSON in document order; an empty
    object or list is a leaf."""
    if isinstance(obj, (dict, list)) and obj:
        items = obj.items() if isinstance(obj, dict) else enumerate(obj)
        for key, value in items:
            step = f"[{key}]" if isinstance(obj, list) else f".{key}" if path else key
            yield from _leaves(value, path + step)
    else:
        yield path, obj


_ABSENT = object()  # a path that one side lacks


def _relative(old, new):
    """|new - old| / |old| of two numbers, or None."""
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
               for v in (old, new)):
        return None
    return abs(new - old) / abs(old) if old else math.inf


def _move_line(path: str, old, new) -> str:
    rel = _relative(old, new)
    shown = [json.dumps(v) if v is not _ABSENT else "(absent)" for v in (old, new)]
    return f"{path}: {shown[0]} -> {shown[1]}" + (
        "" if rel is None else f" (relative change {rel:.3g})")


def moved_values(old: dict, new: dict) -> list:
    """One line per JSON path whose value differs between two parsed
    records, with its old and new value and relative change: verdict,
    finding and evidence first, then fitted, then series, then the rest.
    A series column that moved in several rows is one line: how many rows
    moved and the one whose relative change is largest."""
    before, after = dict(_leaves(old)), dict(_leaves(new))
    paths = [*before, *(p for p in after if p not in before)]
    moved = [p for p in paths if before.get(p, _ABSENT) != after.get(p, _ABSENT)]
    groups: dict = {}  # a series column's moved rows, under one pattern
    for path in moved:
        key = re.sub(r"^(series\.[^\[]+)\[\d+\]", r"\1[*]", path)
        groups.setdefault(key, []).append(path)
    lines = []
    for key, members in groups.items():
        pairs = [(p, before.get(p, _ABSENT), after.get(p, _ABSENT)) for p in members]
        if len(members) == 1:
            lines.append(_move_line(*pairs[0]))
            continue
        path, old_value, new_value = max(
            pairs, key=lambda pair: _relative(pair[1], pair[2]) or 0.0)
        lines.append(f"{key}: {len(members)} rows moved, the most at "
                     + _move_line(path, old_value, new_value))
    return sorted(lines, key=lambda line: _MOVE_ORDER.get(
        re.split(r"[.:\[]", line, maxsplit=1)[0], 4))


def describe_moves(name: str, out: Path) -> str:
    """The values of sample ``name``'s run into ``out`` that moved against
    its pinned record, one per line (a first run has no pinned record)."""
    pinned = SAMPLE_REPORTS / f"{name}.json"
    old = json.loads(pinned.read_text()) if pinned.exists() else {}
    return "\n".join(moved_values(old, json.loads(run_record(out).read_text())))


def no_child_left() -> bool:
    """Whether this process has no child process, running or unreaped.

    It only peeks (``WNOWAIT``), so a walk or ``both`` that still owns an
    ended child kills and reaps it later as its own; reaping is left to
    ``pytest_runtest_makereport``, after a test has failed."""
    try:
        os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT)
    except ChildProcessError:
        return True
    return False


@pytest.hookimpl(wrapper=True)
def pytest_runtest_makereport(item, call):
    # a failed test may leave an ended child behind: reap it, so the tests
    # after it do not fail their own no_child_left checks on it
    report = yield
    if report.failed:
        with contextlib.suppress(ChildProcessError):
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
    return report


@contextlib.contextmanager
def lapack_calls(log: Path):
    """Count the ``dpttrs`` and ``dpttrf`` calls made inside the block,
    forked children's included: yields a dict filled with {routine: calls}
    when the block ends.

    Each call appends its routine's last letter to ``log``, opened with
    O_APPEND, which forked children share, so their calls count too."""
    calls = {}
    fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def counted(routine):
        call, mark = getattr(heatlab.solver, routine), routine[-1].encode()

        def counting(*args, **kwargs):
            os.write(fd, mark)
            return call(*args, **kwargs)
        return counting

    try:
        with pytest.MonkeyPatch.context() as mp:
            for routine in ("dpttrs", "dpttrf"):
                mp.setattr(heatlab.solver, routine, counted(routine))
            yield calls
    finally:
        os.close(fd)
    marks = log.read_bytes()
    calls.update(dpttrs=marks.count(b"s"), dpttrf=marks.count(b"f"))


def check_row(checks, prop, gate="confirms") -> dict:
    """The one row of a report's ``checks`` that tests ``prop`` for
    ``gate``."""
    (row,) = [r for r in checks if (r["property"], r["gate"]) == (prop, gate)]
    return row


def barrier_laplacian(r: float) -> float:
    """The comparison barrier's weighted Laplacian in closed form,
    -4 + (1 - exp(-r^4)) / r^4: -3 as r -> 0 and -4 far out."""
    return -4.0 - math.expm1(-r ** 4) / r ** 4


def record_walk(monkeypatch) -> list:
    """The (grid, states) levels the drivers' exhaustion walks yield, in the
    order the drivers ask for them."""
    levels = []
    walk = heatlab.experiments.exhaustion_levels

    def recording(*args, **kwargs):
        for level in walk(*args, **kwargs):
            levels.append(level)
            yield level

    monkeypatch.setattr(heatlab.experiments, "exhaustion_levels", recording)
    return levels


def implicit_step(op, dt, u, out=None):
    """One implicit-Euler step (I - dt L) x = u as ``advance_states`` takes
    it: ``dpttrs`` on ``_factor``'s (d, e) with right-hand side D u, formed
    in ``out`` if given and solved in place there."""
    d, e = heatlab.solver._factor(op, dt)
    w = op.cell_weights if np.ndim(u) == 1 else op.cell_weights[:, None]
    return heatlab.solver.dpttrs(d, e, np.multiply(w, u, out=out), 1)[0]


def minus_laplacian_solve(op, u):
    """(-L)^{-1} u on a Dirichlet operator by one LAPACK ``dpttrf`` and
    ``dpttrs`` of D(-L) x = D u, its band built from the conductances
    alone: row j is (k_j + k_{j+1}) x_j - k_j x_{j-1} - k_{j+1} x_{j+1}."""
    k = op.conductance
    d, e, info = dpttrf(k[:-1] + k[1:], -k[1:-1])
    assert info == 0, f"dpttrf info={info}"
    x, info = dpttrs(d, e, op.cell_weights * u)
    assert info == 0, f"dpttrs info={info}"
    return x


def ball_heat_closed_form(r, t, r0=1.0):
    """Heat evolution of a unit-ball indicator in flat 3-space, closed form.

    Exact up to erf/exp rounding.  The r -> 0 limit is taken analytically
    because the generic expression loses digits to cancellation at the pole.
    """
    if t <= 0:
        raise ValueError(f"need t > 0, got {t}")
    s = 2.0 * math.sqrt(t)
    if r < 1e-10:
        return erf(r0 / s) - (r0 / math.sqrt(math.pi * t)) * math.exp(-r0 ** 2 / (4 * t))
    a = 0.5 * (erf((r0 + r) / s) + erf((r0 - r) / s))
    b = (math.sqrt(t / math.pi) / r) * (
        math.exp(-(r - r0) ** 2 / (4 * t)) - math.exp(-(r + r0) ** 2 / (4 * t)))
    return a - b


def ball_heat_quadrature(r, t, r0=1.0):
    """Same kernel by adaptive quadrature of the reduced Gaussian.

    The angular integral of the 3-d Gauss kernel collapses to a difference of
    two exponentials; that form is used directly since the sinh expression
    overflows for large r*s/t.
    """
    if t <= 0:
        raise ValueError(f"need t > 0, got {t}")
    norm = (4.0 * math.pi * t) ** -1.5

    if r < 1e-10:
        def integrand(s):
            return norm * 4.0 * math.pi * s * s * math.exp(-s * s / (4 * t))
    else:
        def integrand(s):
            gap = math.exp(-(r - s) ** 2 / (4 * t)) - math.exp(-(r + s) ** 2 / (4 * t))
            return norm * 4.0 * math.pi * s * (t / r) * gap

    val, err = quad(integrand, 0.0, r0, epsabs=1e-13, epsrel=1e-13, limit=400)
    if err > 1e-9:
        raise ArithmeticError(f"reference quadrature error {err:.2e} too large")
    return val


def ball_heat_tv(t, r0=1.0):
    """Weighted variation of the evolved ball indicator, by parts.

    The radial profile is nonincreasing, so integrating |u'| against 4 pi r^2
    equals 8 pi * integral of r * u(r).  Quadrature is split at the jump
    radius where the profile has a kink.
    """
    cut = r0 + 14.0 * math.sqrt(t)
    inner, e1 = quad(lambda r: r * ball_heat_closed_form(r, t, r0), 0.0, r0,
                     epsabs=1e-13, epsrel=1e-13, limit=400)
    outer, e2 = quad(lambda r: r * ball_heat_closed_form(r, t, r0), r0, cut,
                     epsabs=1e-13, epsrel=1e-13, limit=400)
    if e1 + e2 > 1e-9:
        raise ArithmeticError(f"reference quadrature error {e1 + e2:.2e} too large")
    return 8.0 * math.pi * (inner + outer)


def time_exact_states(manifold, op, u0, stops):
    """exp(t L) u0 at each stop t, exact in time on the solver's own grid
    and operator, from scipy's eigendecomposition of the symmetric
    tridiagonal D^-1/2 D(-L) D^-1/2, with D(-L) the banded D (I - L) less D.

    Only flat and Gaussian weights: on exp(+r^4) the D^(+-1/2) scaling
    amplifies roundoff until total variation is off by half or more, so
    any other weight raises instead of returning a wrong number.
    """
    if not (manifold.family == "euclidean"
            or manifold.params == {"p": 2.0, "sign": -1}):
        raise ValueError(f"no time-exact reference for {manifold.family} "
                         f"{manifold.params}: only flat or Gaussian weights")
    d = op.cell_weights
    main, off = op.banded(1.0)
    scale = 1.0 / np.sqrt(d)
    w, v = eigh_tridiagonal((main - d) * scale * scale,
                            off * scale[:-1] * scale[1:])
    coefficients = v.T @ (u0 / scale)
    return [scale * (v @ (np.exp(-t * w) * coefficients)) for t in stops]


@pytest.fixture(scope="session")
def euclid3():
    return euclidean(3)


@pytest.fixture(scope="session")
def pe4():
    """Superexponential weight exp(+r^4); heat flow loses mass through infinity."""
    return power_exp_weight(4, 1, 3)


@pytest.fixture(scope="session")
def gauss():
    """Gaussian weight exp(-r^2); a well-behaved control model."""
    return power_exp_weight(2, -1, 3)


@pytest.fixture()
def fast_controls():
    """Small grids and loose step tolerance for structural unit tests."""
    return SolveControls(n_cells=192, step_tol=1e-5)

"""Heat evolution and Dirichlet-ball exhaustion.

Every trajectory starts at t = 0 and takes a list of stop times to the list
of states at them.  The minimal heat semigroup on a model manifold is the
monotone limit of heat flows on balls B_R with absorbing boundary;
``exhaustion_levels`` walks that family, and each experiment reads the
levels it needs.  All truncation radii of one run share a single face
ladder, so solutions at different R can be compared cell by cell and the
exhaustion monotonicity becomes a testable discrete statement.

Time stepping is implicit Euler (unconditional discrete maximum principle,
which indicator data require).  The step size is controlled by step
doubling: a full step is compared against two half steps in the weighted L1
norm, and the accepted state is always the two-half-step one, which
preserves the maximum principle exactly rather than up to an extrapolation
residual.  Every proposed step rounds down onto the lattice
``DT_INIT * 2^(k / STEP_LATTICE)``, on which half a step is the step one
octave down, and each ``advance_states`` call factors every step size once,
so a trajectory holds a few dozen factors instead of refactoring on every
attempt.  Only a step clipped onto a stop time leaves the lattice.

Steps factor and solve with LAPACK's symmetric tridiagonal ``dpttrf`` and
``dpttrs``, the only routines heatlab takes from scipy.  They come from
scipy's compiled ``scipy/linalg/_flapack`` extension, loaded on its own:
importing ``scipy.linalg`` would run its package init, which loads
numpy.testing, numpy.f2py and more, 0.25 s of a 0.53 s start-up.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import numbers
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy

from .errors import InvalidArgumentError, NumericalFailure, RangeError
from .geometry import RadialBVDatum, RadialManifold, LOG_MAX_GRID
from .grid import Grid, build_grid, face_ladder, grid_from_faces, subgrid
from .operator import DIRICHLET, WeightedOperator, assemble

_LAPACK_DIR = os.path.join(os.path.dirname(scipy.__file__), "linalg")
_spec = importlib.machinery.PathFinder.find_spec("scipy.linalg._flapack",
                                                 [_LAPACK_DIR])
if _spec is None:
    raise ImportError(f"scipy's LAPACK extension _flapack not found in {_LAPACK_DIR}")
_flapack = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_flapack)
dpttrf, dpttrs = _flapack.dpttrf, _flapack.dpttrs

# exhaustion solutions must increase with R up to this roundoff slack
EXHAUSTION_SLACK = 1e-10
# step policy: first step, growth cap, the step accepted whatever its error,
# and the attempt budget of one trajectory
DT_INIT = 1e-7
DT_GROWTH = 1.5
# steps per octave of the step lattice DT_INIT * 2^(k / STEP_LATTICE)
STEP_LATTICE = 4
_LATTICE_BASE = tuple(2.0 ** (j / STEP_LATTICE) for j in range(STEP_LATTICE))
DT_MIN = 1e-13
MAX_STEPS = 500_000
# automatic exhaustion: the most levels one walk plans
MAX_EXHAUSTION = 8


def as_real(value) -> float:
    """``value`` as a float, or NaN for anything but a real number: True ==
    1, but a boolean is no time or radius, and a string is no number."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return math.nan
    return float(value)


@dataclass(frozen=True)
class SolveControls:
    """What an experiment chooses: step tolerance, exhaustion, resolution.

    ``step_tol`` bounds the relative local error of each accepted step.
    ``exhaustion`` is either an explicit strictly increasing tuple of
    truncation radii or None for the automatic policy, which plans up to
    ``MAX_EXHAUSTION`` levels in increments of max(1, 4*sqrt(t)) beyond the
    datum; each experiment stops walking them by its own rule once its
    readings have settled.  ``n_cells`` counts the cells inside the first
    truncation radius (degiorgi, completeness), min(R_list) (blowup), the
    whole solve ball (tail) or R (comparison); larger radii keep the spacing.
    """

    step_tol: float = 1e-6
    exhaustion: tuple[float, ...] | None = None
    n_cells: int = 1024

    def __post_init__(self):
        if not 0 < as_real(self.step_tol) < math.inf:
            raise InvalidArgumentError("step tolerance must be positive and finite")
        if not (as_real(self.n_cells).is_integer() and self.n_cells >= 16):
            raise InvalidArgumentError(
                f"need a whole number of at least 16 cells, got {self.n_cells}")
        object.__setattr__(self, "n_cells", int(self.n_cells))
        if self.exhaustion is not None:
            radii = tuple(map(as_real, self.exhaustion))
            if not all(0 < r < math.inf for r in radii):
                raise InvalidArgumentError(
                    "exhaustion radii must be positive finite numbers, "
                    f"got {self.exhaustion}")
            if len(radii) == 0 or any(b <= a for a, b in zip(radii, radii[1:])):
                raise InvalidArgumentError("exhaustion radii must be strictly increasing")
            object.__setattr__(self, "exhaustion", radii)


def project_datum(datum: RadialBVDatum, g: Grid) -> np.ndarray:
    """Cell averages of a BV profile; indicators become exact 0/1 values.

    Every jump radius of the datum must be a face of the grid, so no jump is
    ever smeared across a cell.
    """
    for r in datum.jump_radii:
        try:
            g.face_index(r)
        except InvalidArgumentError:
            raise InvalidArgumentError(
                f"jump radius {r} is not a face of the grid") from None

    # the profile is linear between breakpoints, so the midpoint value is
    # the exact average of a cell, or of each piece a kink cuts it into
    # (np.isin and np.unique would load numpy.ma for these few kinks)
    values = datum.value(g.centers)
    cells: dict[int, list[float]] = {}
    for k in sorted({r for r, _ in datum.breakpoints} - set(datum.jump_radii)):
        i = int(np.searchsorted(g.faces, k))  # the first face at or beyond k
        if k < g.R and g.faces[i] != k:
            cells.setdefault(i - 1, []).append(k)
    for i, kinks in cells.items():
        nodes = (g.faces[i], *kinks, g.faces[i + 1])
        pieces = zip(nodes, nodes[1:])
        values[i] = sum((b - a) * datum.value(0.5 * (a + b))
                        for a, b in pieces) / (nodes[-1] - nodes[0])
    return values


def _factor(op: WeightedOperator, dt: float) -> Callable[[np.ndarray], np.ndarray]:
    """The solve of (I - dt L) x = u, set up once for many right-hand sides:
    the positive definite D (I - dt L) x = D u, factored by dpttrf and solved
    by dpttrs, which leaves the factors intact."""
    d, e, info = dpttrf(*op.banded(dt), 1, 1)
    if info != 0:
        raise NumericalFailure(f"tridiagonal solve broke down at dt={dt}: dpttrf info={info}")
    w = op.cell_weights
    return lambda u: dpttrs(d, e, (w if u.ndim == 1 else w[:, None]) * u, 1)[0]


def _lattice_step(h: float) -> float:
    """The largest lattice step size at most ``h``."""
    def size(k: int) -> float:
        # one base per octave times a power of two, so half of size(k) is
        # bitwise size(k - STEP_LATTICE): a half step reuses a cached factor
        return DT_INIT * _LATTICE_BASE[k % STEP_LATTICE] * 2.0 ** (k // STEP_LATTICE)

    # the logarithm may round across a lattice point: start one above it
    k = math.floor(STEP_LATTICE * math.log2(h / DT_INIT)) + 1
    while size(k) > h:
        k -= 1
    return size(k)


def _stop_times(stops) -> list[float]:
    """The stops of one trajectory from t = 0: a non-empty, strictly
    increasing list of positive, finite real numbers and no boolean (True ==
    1, but no time), checked before numpy would coerce them."""
    if not isinstance(stops, (list, tuple)):
        raise InvalidArgumentError(f"stop times must be a list, got {stops!r}")
    if not (stops and all(math.isfinite(as_real(s)) for s in stops)
            and stops[0] > 0):
        raise InvalidArgumentError(f"time must be positive and finite, got {stops}")
    if any(b <= a for a, b in zip(stops, stops[1:])):
        raise InvalidArgumentError(f"stop times must be strictly increasing, got {stops}")
    return [float(s) for s in stops]


def advance_states(op: WeightedOperator, states: np.ndarray, stops,
                   controls: SolveControls,
                   observer: Callable[[float, np.ndarray, float, np.ndarray], None] | None = None,
                   ladder: list | None = None):
    """Advance one or several stacked states from t = 0 through ``stops``.

    ``states`` has shape (N,) or (N, k); all columns share every accepted
    step, so linear identities between columns survive time stepping exactly.
    The local error of a step is the radial-profile L1 distance (cell widths
    as weights, no area factor) between one full step and two half steps,
    relative to each column's own profile norm; the worst column must meet
    ``controls.step_tol``, and the half-step result is the one accepted.
    The controller's proposal rounds down onto the step lattice (never a
    longer step), and the call caches one factorization per step size, so
    a half step reuses the full step one octave down.
    The area weight stays out of the controller on purpose: cells of huge
    measure would otherwise pin the step size to their own stiff decay,
    which the implicit scheme damps stably anyway, while every reported
    functional applies its measure as post-processing.  ``observer`` is
    called once per accepted substate transition with both endpoint times
    and states.

    ``stops`` is a strictly increasing list of positive times; one
    trajectory runs through all of them and returns the list of states at
    the stops.  A step that would cross a stop is clipped onto it, off the
    lattice, and after the stop stepping resumes from the step size proposed
    before the clip.  ``MAX_STEPS`` attempts bound the whole trajectory;
    replayed steps count toward it too.

    ``ladder`` is the step ladder: one list of accepted step sizes per stop
    time (the steps from the previous stop up to that one).  An empty list
    is filled in as the run records; a filled one is replayed instead of
    adapting, and must have been recorded through the same stop times.  Both
    modes run the same step: a replayed one takes its size from the ladder,
    skips the full-step error solve and is always accepted, so the observer
    sees the same transitions as on the recording.
    """
    stops = _stop_times(stops)
    u = np.array(states, dtype=float)
    if u.shape[0] != op.grid.N:
        raise InvalidArgumentError("state length does not match the grid")

    replay = bool(ladder)
    if replay and len(ladder) != len(stops):
        raise InvalidArgumentError(
            f"replay ladder was recorded through {len(ladder)} stop "
            f"times, not the requested {len(stops)}")

    # the local error of a first-order step is O(h^2), so the controller
    # scales the step by (tol/err)^(1/2)
    widths = np.diff(op.grid.faces)[:, None]

    # np.add.reduce is what np.sum calls, minus its dispatch overhead
    def column_l1(arr: np.ndarray) -> np.ndarray:
        return np.add.reduce(widths * np.abs(arr.reshape(op.grid.N, -1)), axis=0)

    # one factorization per step size, kept for this call only
    factor = functools.cache(lambda dt: _factor(op, dt))

    t = 0.0
    dt = DT_INIT
    iterations = 0
    at_stops = []
    for start, stop in zip([0.0, *stops], stops):
        if replay:
            segment = ladder[len(at_stops)]
            total = math.fsum(segment)
            if abs(total - (stop - start)) > 1e-12 * max(abs(stop - start), 1.0):
                raise InvalidArgumentError(
                    f"replay ladder spans {total} before stop {stop}, not the "
                    f"requested {stop - start}")
        else:
            segment = []
            if ladder is not None:
                ladder.append(segment)
        t_end = stop - 1e-15 * max(abs(stop), 1.0)
        taken = 0
        while taken < len(segment) if replay else t < t_end:
            iterations += 1
            if iterations > MAX_STEPS:
                raise NumericalFailure(
                    f"replayed ladder of {sum(map(len, ladder))} steps overruns "
                    f"the budget of {MAX_STEPS} steps (reached t={t})" if replay
                    else f"step tolerance {controls.step_tol} unreachable within "
                    f"{MAX_STEPS} iterations (reached t={t}, dt={dt})")
            h = segment[taken] if replay else _lattice_step(dt)
            clipped = not replay and stop - t < h
            if clipped:
                h = stop - t
            # both half steps solve with I - (h/2) L: one factor serves both
            half = factor(0.5 * h)
            mid = half(u)
            fine = half(mid)
            if not replay:
                coarse = factor(h)(u)
                err = float((column_l1(coarse - fine)
                             / np.maximum(column_l1(fine), 1e-300)).max())
                if not (err <= controls.step_tol or h <= DT_MIN):
                    dt = max(h * max(0.25, 0.9 * (controls.step_tol / err) ** 0.5),
                             DT_MIN)
                    continue
                segment.append(h)
                if not clipped:  # a step clipped onto the stop keeps the proposal
                    grow = DT_GROWTH
                    if err > 0:
                        grow = min(grow, 0.9 * (controls.step_tol / err) ** 0.5)
                    dt = max(h * max(grow, 1.0), DT_MIN)
            if observer is not None:
                observer(t, u, t + 0.5 * h, mid)
                observer(t + 0.5 * h, mid, t + h, fine)
            u = fine
            t = t + h
            taken += 1
        at_stops.append(u)
    return at_stops


def overflow_safe_radius(manifold: RadialManifold) -> float:
    """Largest radius whose face area stays within the grid range budget.

    Returns inf when the budget is never hit below r = 1e6 (flat and
    decaying weights).
    """
    def fits(r: float) -> bool:
        return (manifold.log_sphere_constant
                + manifold.log_area(float(r))) <= LOG_MAX_GRID

    if fits(1e6):
        return math.inf
    lo, hi = 0.0, 1e6
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # adjacent floats: nothing moves any more
            break
        if fits(mid):
            lo = mid
        else:
            hi = mid
    return lo


def evolve(manifold: RadialManifold, data, R_read: float, stops,
           controls: SolveControls, R_cells: float | None = None):
    """Evolve radial data jointly from t = 0 through ``stops`` on one ball.

    The Dirichlet wall sits max(2, 8*sqrt(last stop)) past ``R_read``,
    capped at the overflow-safe radius with a note; ``controls.n_cells``
    cells fill ``R_cells`` (default: the wall) at one spacing out to the
    wall, and every jump radius is a face.  Returns the grid, the stacked
    (N, len(data)) states at the stops and the notes.  A grid with no
    interior face beyond ``R_read`` is a RangeError: nothing there is read.
    """
    stops = _stop_times(stops)
    safe = overflow_safe_radius(manifold)
    wanted = R_read + max(2.0, 8.0 * math.sqrt(stops[-1]))
    R = min(wanted, safe)
    notes = [f"solve radius capped at {safe:.6g}"] if wanted > safe else []
    n = controls.n_cells
    if R_cells is not None:
        n = max(n, int(math.ceil(n * R / R_cells)))
    g = build_grid(manifold, R, n, {r for d in data for r in d.jump_radii})
    if g.faces[-2] <= R_read:
        raise RangeError(
            f"no interior face lies beyond the reading radius {R_read:.6g} "
            f"before the wall at {R:.6g}; reduce it or raise n_cells")
    op = assemble(g, manifold, DIRICHLET)
    u0 = np.stack([project_datum(d, g) for d in data], axis=1)
    return g, advance_states(op, u0, stops, controls), notes


def exhaustion_radii(base: float, t: float, safe: float) -> tuple[float, ...]:
    """Automatic truncation radii: up to ``MAX_EXHAUSTION`` steps beyond
    ``base``.

    Radii advance in increments of max(1, 4*sqrt(t)) and are capped just
    inside the overflow-safe radius ``safe``; the walk stops at the cap.
    """
    step = max(1.0, 4.0 * math.sqrt(t))
    radii: list[float] = []
    for k in range(1, MAX_EXHAUSTION + 1):
        r = min(base + k * step, 0.999 * safe)
        if radii and r <= radii[-1] * (1 + 1e-12):
            break
        radii.append(r)
    return tuple(radii)


def exhaustion_ladder(manifold: RadialManifold, datum: RadialBVDatum, t: float,
                      controls: SolveControls) -> tuple[Grid, list[int]]:
    """One grid covering all requested truncation radii, plus level indices.

    Returns the full ladder grid and the face indices realizing each
    truncation level; level k is ``subgrid(ladder, indices[k])``.  Requested
    radii snap to the nearest ladder face (reported radii are the snapped
    ones).  The automatic policy caps its radii at the overflow-safe radius
    of the manifold and drops a radius that snaps onto the face of the one
    before; explicit radii raise instead, in either case.  A first radius at
    or inside the datum's last breakpoint would truncate the datum, so it
    raises too.
    """
    jumps = datum.jump_radii
    outer = datum.breakpoints[-1][0]
    safe = overflow_safe_radius(manifold)
    radii = controls.exhaustion or exhaustion_radii(outer, t, safe)
    if radii[0] <= outer:
        raise InvalidArgumentError(
            f"first truncation radius {radii[0]} does not contain the datum, "
            f"whose last breakpoint is at {outer}")
    r_top = radii[-1]
    if r_top > safe:
        raise RangeError(
            f"truncation radius {r_top:.6g} exceeds the overflow-safe radius "
            f"{safe:.6g} of this manifold")

    r1 = radii[0]
    faces = list(face_ladder(r1, controls.n_cells, jumps))
    if r_top > r1 * (1 + 1e-12):
        width = r1 / controls.n_cells
        n_extra = int(math.ceil((r_top - r1) / width - 1e-9))
        while r1 + width * n_extra > safe:  # the last face stays overflow-safe
            n_extra -= 1
        faces.extend(r1 + width * np.arange(1, n_extra + 1))
    ladder = grid_from_faces(manifold, np.asarray(faces))

    indices: list[int] = []
    for r_prev, r in zip((None, *radii), radii):
        idx = int(np.argmin(np.abs(ladder.faces - r)))
        if not indices or idx > indices[-1]:
            indices.append(idx)
        elif controls.exhaustion is not None:
            raise InvalidArgumentError(
                f"truncation radii {r_prev} and {r} snap onto the same face "
                f"{ladder.faces[idx]:.6g}; space them wider or raise n_cells")
    return ladder, indices


def monotonicity_defect(inner: np.ndarray, outer: np.ndarray) -> float:
    """How far the outer level's solution falls below the inner level's on
    the inner ball; exhaustion monotonicity holds when it is at most
    ``EXHAUSTION_SLACK``."""
    return float(np.max(inner - outer[:inner.size]))


def exhaustion_levels(manifold: RadialManifold, datum: RadialBVDatum, stops,
                      controls: SolveControls):
    """Lazily evolve the datum through ``stops`` on each truncation level.

    ``stops`` is a strictly increasing list of positive times, as in
    ``advance_states``.  Yields (grid, states at the stops) per level of
    ``exhaustion_ladder``, smallest ball first; the automatic radius policy
    sizes the ladder for the last stop.  The first level records its
    accepted time-step ladder through every stop and every later level
    replays it, so the truncated solutions are comparable cell by cell.
    Times and radii are checked at the call; levels are computed only as
    the caller asks for them, and each is checked against the one before
    at every stop before it is yielded: a ``monotonicity_defect`` beyond
    ``EXHAUSTION_SLACK`` is a scheme inconsistency and raises
    ``NumericalFailure``.
    """
    stops = _stop_times(stops)
    ladder, indices = exhaustion_ladder(manifold, datum, stops[-1], controls)

    def levels():
        u0 = project_datum(datum, ladder)
        steps: list[list[float]] = []
        inner_R, inner = None, []  # the first level has nothing inside it
        for idx in indices:
            g = subgrid(ladder, idx)
            op = assemble(g, manifold, DIRICHLET)
            at_stops = advance_states(op, u0[:idx], stops, controls, ladder=steps)
            for stop, a, b in zip(stops, inner, at_stops):
                worst = monotonicity_defect(a, b)
                if worst > EXHAUSTION_SLACK:
                    raise NumericalFailure(
                        f"exhaustion monotonicity violated by {worst:.3e} "
                        f"between R={inner_R:.6g} and R={g.R:.6g} at t={stop:.6g}")
            inner_R, inner = g.R, at_stops
            yield g, at_stops
    return levels()


def __getattr__(name):
    # perfbench shim until ROADMAP item 11: perfbench/spans.py wraps
    # heatlab.solver.solve_banded by name, which no step calls
    if name == "solve_banded":
        from scipy.linalg import solve_banded
        return solve_banded
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

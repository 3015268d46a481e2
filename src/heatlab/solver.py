"""Heat evolution and Dirichlet-ball exhaustion.

Every trajectory starts at t = 0 and takes a list of stop times to the list
of states at them.  The minimal heat semigroup on a model manifold is the
monotone limit of heat flows on balls B_R with absorbing boundary, which
``exhaustion_levels`` walks on one face ladder shared by all radii, so
solutions at different R compare cell by cell and exhaustion monotonicity
is a testable discrete statement.  Every driver that steps a ball walks
it, blowup and tail one level.  The time integral of P_t 1 on one ball
increases to its discrete exit time (-L)^{-1} 1, which ``exit_time`` sums
in closed form, with no solve.

Time stepping is implicit Euler (unconditional discrete maximum principle,
which indicator data require), each step two half steps whose second
difference controls the step size (``advance_states``).  An attempt is two
``dpttrs`` calls, a few ufuncs into reused buffers and one BLAS
matrix-vector product, with equal bits at one and two OpenBLAS threads up
to 10^6 cells.  Work that shares no data runs beside the caller in one
forked child (``_beside``): exhaustion levels 3, 5, ..., the blowup sweep's
flat companion and half of ``cli.validate``'s battery (``both``).  A child
runs the same code on a copy of the caller's data, so its pickled results
have an inline run's bits; off Linux, or on one CPU, all of it runs inline.

``dpttrf`` and ``dpttrs`` come from scipy's compiled ``_flapack``
extension, loaded on its own: ``scipy``'s package init costs 12-15 ms, and
``scipy.linalg``'s 0.25 s of a 0.53 s start-up.
"""

from __future__ import annotations

import bisect
import contextlib
import importlib.machinery
import importlib.util
import itertools
import math
import os
import pickle
import sys
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidArgumentError, NumericalFailure, RangeError
from .geometry import (LOG_MAX_GRID, RadialBVDatum, RadialManifold, as_real, instance,
                       monotone_reals, positive_real, real_array, whole_count)
from .grid import Grid, face_ladder, grid_from_faces, nearest_faces, subgrid
from .operator import DIRICHLET, WeightedOperator, assemble

_LAPACK_DIR = os.path.join(
    importlib.util.find_spec("scipy").submodule_search_locations[0], "linalg")
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
DT_MIN = 1e-13
MAX_STEPS = 500_000
# the lattice's sizes from the largest at most DT_MIN to the largest finite one; a
# size is a base per octave times 2^q, so half of it is bitwise the size an octave down
_LATTICE = tuple(sorted(
    math.ldexp(base, q)
    for base in (DT_INIT * 2.0 ** (j / STEP_LATTICE) for j in range(STEP_LATTICE))
    for q in range(math.floor(math.log2(DT_MIN / DT_INIT)),
                   sys.float_info.max_exp - math.frexp(base)[1] + 1)))  # ldexp overflows past it
# automatic exhaustion: the most levels one walk plans
MAX_EXHAUSTION = 8


@dataclass(frozen=True)
class SolveControls:
    """What every solve reads: step tolerance and resolution.

    ``step_tol`` bounds the relative local error of each accepted step.
    ``n_cells`` counts the cells inside a walk's first truncation radius
    (degiorgi, completeness), min(R_list) (blowup), tail's whole one-level
    walk or R (comparison); larger radii keep the spacing."""

    step_tol: float = 1e-6
    n_cells: int = 1024

    def __post_init__(self):
        object.__setattr__(self, "step_tol", positive_real(self.step_tol, "step tolerance"))
        object.__setattr__(self, "n_cells", whole_count(self.n_cells, "n_cells", 16))


def project_datum(datum: RadialBVDatum, g: Grid) -> np.ndarray:
    """Cell averages of a BV profile; indicators become exact 0/1 values.
    Every jump radius must be a face of the grid: no jump is smeared."""
    for r in instance(datum, RadialBVDatum).jump_radii:
        g.face_index(r)  # raises where a jump radius is not a face

    # the profile is linear between breakpoints: the midpoint value averages a
    # cell, or each piece a kink cuts (np.isin and np.unique load numpy.ma)
    values = datum.value(g.centers)
    cells: dict[int, list[float]] = {}
    for k in sorted({r for r, _ in datum.breakpoints} - set(datum.jump_radii)):
        i = int(np.searchsorted(g.faces, k))  # the first face at or beyond k
        if k < g.R and g.faces[i] != k:
            cells.setdefault(i - 1, []).append(k)
    for i, kinks in cells.items():
        nodes = (g.faces[i], *kinks, g.faces[i + 1])
        values[i] = sum((b - a) * datum.value(0.5 * (a + b))
                        for a, b in zip(nodes, nodes[1:])) / (nodes[-1] - nodes[0])
    return values


def _factor(op: WeightedOperator, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """dpttrf's factors (d, e) of the positive definite D (I - dt L): the
    step (I - dt L) x = u solves as D (I - dt L) x = D u with ``dpttrs``."""
    d, e, info = dpttrf(*op.banded(dt), 1, 1)
    if info != 0:
        raise NumericalFailure(f"tridiagonal solve broke down at dt={dt}: dpttrf info={info}")
    return d, e


def _lattice_step(h: float) -> float:
    """The largest lattice step size at most ``h``, which is at least DT_MIN."""
    return _LATTICE[bisect.bisect_right(_LATTICE, h) - 1]


def advance_states(op: WeightedOperator, states: np.ndarray, stops,
                   controls: SolveControls, record: Callable | None = None):
    """Advance one or several stacked states from t = 0 through ``stops``.

    ``states`` has shape (N,) or (N, k) and is never written; all columns
    share every accepted step, so linear identities between columns survive
    time stepping exactly.  A step is two half steps u -> mid -> fine, and
    the half-step state is the one accepted, so the maximum principle holds
    exactly.  Its local error is the radial-profile L1 norm (cell widths as
    weights: an area factor would pin the step to the stiff decay of cells
    of huge measure) of the second difference (fine - mid) - (mid - u),
    (h^2/4) u'' to leading order, relative to each column's own profile
    norm; the worst column must meet ``controls.step_tol``.  The proposal
    rounds down onto the step lattice, and the call keeps one ``dpttrf``
    factorization per half-step size.  ``record`` is called once per
    accepted step as ``record((stop index, h), u, mid, fine)``: the pair is
    what ``_replay`` takes, and the states are reused buffers valid only
    during the call.

    ``stops`` is a strictly increasing list of positive times; the call
    returns the states at them, each its own array.  A step that would cross
    a stop is clipped onto it, off the lattice, and stepping then resumes
    from the size proposed before the clip.  ``MAX_STEPS`` attempts bound
    the whole trajectory."""
    stops, controls = monotone_reals(stops, "stop times"), instance(controls, SolveControls)
    u = np.array(real_array(states, "states"), order="F")
    if u.ndim not in (1, 2) or u.shape[0] != op.grid.N:
        raise InvalidArgumentError("state length does not match the grid")
    if not (record is None or callable(record)):
        raise InvalidArgumentError(f"record must be callable or None, got {record!r:.40}")

    # a first-order step's local error is O(h^2): steps scale by (tol/err)^(1/2)
    widths = np.diff(op.grid.faces)
    # reused Fortran-ordered buffers; scratch holds |second difference|, |fine|
    mid, fine = np.empty_like(u), np.empty_like(u)
    scratch = np.empty((*u.shape, 2), order="F")
    second, size = scratch[..., 0], scratch[..., 1]
    columns = scratch.reshape(op.grid.N, -1, order="F")  # a view, k + k columns
    k = columns.shape[1] // 2
    # the cell weights in the states' shape, cheaper than a broadcast product
    weights = np.empty_like(u)
    weights.T[...] = op.cell_weights

    factors: dict[float, tuple[np.ndarray, np.ndarray]] = {}  # dpttrf's (d, e) per h/2
    t, dt, iterations, at_stops = 0.0, DT_INIT, 0, []
    for stop in stops:
        t_end = stop - 1e-15 * max(abs(stop), 1.0)
        while t < t_end:
            iterations += 1
            if iterations > MAX_STEPS:
                raise NumericalFailure(
                    f"step tolerance {controls.step_tol} unreachable within "
                    f"{MAX_STEPS} iterations (reached t={t}, dt={dt})")
            h = _lattice_step(dt)
            clipped = stop - t < h
            if clipped:
                h = stop - t
            # both half steps solve in place with I - (h/2) L: one factor
            half = 0.5 * h
            if half not in factors:
                factors[half] = _factor(op, half)
            d, e = factors[half]
            mid = dpttrs(d, e, np.multiply(weights, u, out=mid), 1)[0]
            fine = dpttrs(d, e, np.multiply(weights, mid, out=fine), 1)[0]
            # (fine - mid) - (mid - u), differenced in that order
            np.subtract(fine, mid, out=second)
            np.subtract(second, np.subtract(mid, u, out=size), out=second)
            np.abs(second, out=second)
            np.abs(fine, out=size)
            norms = (widths @ columns).tolist()  # one dot product per column
            # the worst column's ratio, with no list or max(); a NaN wins
            err = 0.0
            for j in range(k):
                b = norms[j + k]
                r = norms[j] / (1e-300 if b < 1e-300 else b)
                if r > err or r != r:
                    err = r
            if not (err <= controls.step_tol or h <= DT_MIN):
                dt = max(h * max(0.25, 0.9 * (controls.step_tol / err) ** 0.5), DT_MIN)
                continue
            if record is not None:
                record((len(at_stops), h), u, mid, fine)
            if not clipped:  # a step clipped onto the stop keeps the proposal
                grow = DT_GROWTH
                if err > 0:
                    grow = min(grow, 0.9 * (controls.step_tol / err) ** 0.5)
                dt = max(h * max(grow, 1.0), DT_MIN)
            u, fine = fine, u
            t = t + h
        at_stops.append(u.copy(order="F"))
    return at_stops


def _replay(op: WeightedOperator, states: np.ndarray, steps, n_stops: int) -> list:
    """The states at ``n_stops`` stops of the trajectory ``advance_states``
    recorded as ``steps``, its (stop index, h) pairs from a list or as they
    stream in: each step is taken as recorded, with no error estimate, and
    only the current step size's factors are held."""
    u = np.array(states, order="F")
    mid, fine, weights = np.empty_like(u), np.empty_like(u), np.empty_like(u)
    weights.T[...] = op.cell_weights
    at_stops, half, factors = [], None, ()
    for stop, h in steps:
        at_stops += [u.copy(order="F") for _ in range(stop - len(at_stops))]
        if 0.5 * h != half:
            half, factors = 0.5 * h, ()  # the last size's factors go first
            factors = _factor(op, half)
        mid = dpttrs(*factors, np.multiply(weights, u, out=mid), 1)[0]
        fine = dpttrs(*factors, np.multiply(weights, mid, out=fine), 1)[0]
        u, fine = fine, u
    return at_stops + [u.copy(order="F") for _ in range(n_stops - len(at_stops))]


def exit_time(op: WeightedOperator) -> np.ndarray:
    """The discrete exit time w_h = (-L)^{-1} 1 of a Dirichlet ball, with no
    solve: D(-L) is a birth-death chain, and its rows 0..j sum to
    k_{j+1} (w_j - w_{j+1}) = D_0 + ... + D_j with w = 0 at the wall's ghost.
    A Neumann wall has no exit: its conductance is 0."""
    if op.bc != DIRICHLET:
        raise InvalidArgumentError(f"the exit time needs a Dirichlet wall, not {op.bc!r}")
    return np.cumsum((np.cumsum(op.cell_weights) / op.conductance[1:])[::-1])[::-1]


def can_fork() -> bool:
    """Whether work beside the caller forks: on Linux, with two or more CPUs."""
    return sys.platform == "linux" and len(os.sched_getaffinity(0)) > 1


@contextlib.contextmanager
def _beside(work, fork: bool):
    """Runs ``work(inbox)``, an iterator of values, beside the caller; yields
    (send, receive): ``send(item)`` puts an item into ``inbox`` (None ends
    it), and ``receive()`` returns the next value or raises what it raised.
    With ``fork`` a forked child computes the values ahead, reading items as
    they are sent, and pickles each back; one that ended before it sent a
    value is a ``NumericalFailure``.  It is killed and reaped with the block."""
    if not fork:
        sent: list = []
        yield sent.append, work(iter(iter(sent).__next__, None)).__next__
        return
    parent, (read, write), (inbox, outbox) = os.getpid(), os.pipe(), os.pipe()
    with warnings.catch_warnings():
        # Python 3.12+ warns of threads at a fork: OpenBLAS's, stopped by its handler
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:  # the child sends each value, or its error, and leaves
        try:
            os.close(read)
            os.close(outbox)
            with os.fdopen(write, "wb") as pipe, os.fdopen(inbox, "rb") as items:
                try:
                    for value in work(iter(lambda: pickle.load(items), None)):
                        pickle.dump((True, value), pipe)
                        pipe.flush()
                except BaseException as exc:  # raised in the parent
                    pickle.dump((False, exc), pipe)
        finally:
            os._exit(0)
    os.close(write)
    os.close(inbox)

    def send(item):
        with contextlib.suppress(BrokenPipeError):  # a failed child reads no more
            pickle.dump(item, sink)

    def receive():
        try:
            ok, value = pickle.load(pipe)
        except EOFError:  # the child died before it sent this value
            raise NumericalFailure(f"child {pid} ended without a result") from None
        if not ok:
            raise value
        return value
    try:
        with os.fdopen(read, "rb") as pipe, open(outbox, "wb", buffering=0) as sink:
            yield send, receive
    finally:
        if os.getpid() == parent:  # not a later child finalizing its copy
            os.kill(pid, 9)  # SIGKILL, without the 1 ms import of signal
            os.waitpid(pid, 0)


def both(first, second):
    """(first(), second()), ``second`` computed by ``_beside`` while
    ``first`` runs in the caller, or inline after it without ``can_fork``;
    ``first``'s error wins where both fail."""
    with _beside(lambda _: (call() for call in [second]), can_fork()) as (_, receive):
        return first(), receive()


def overflow_safe_radius(manifold: RadialManifold) -> float:
    """Largest radius whose face area stays within the grid range budget, bisected
    on each call; inf when it holds up to r = 1e6 (flat and decaying weights)."""
    manifold = instance(manifold, RadialManifold)
    def fits(r: float) -> bool:
        return manifold.log_sphere_constant + manifold.log_area(float(r)) <= LOG_MAX_GRID
    if fits(1e6):
        return math.inf
    lo, hi = 0.0, 1e6
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # adjacent floats: nothing moves any more
            break
        lo, hi = (mid, hi) if fits(mid) else (lo, mid)
    return lo


def exhaustion_radii(base: float, t: float, safe: float) -> tuple[float, ...]:
    """Automatic truncation radii: up to ``MAX_EXHAUSTION`` steps of
    max(1, 4*sqrt(t)) past ``base``, ending at the cap just inside ``safe``."""
    if not (0 <= as_real(base) < math.inf and as_real(safe) > 0):
        raise InvalidArgumentError(f"need a finite base >= 0 and safe > 0, got {base!r}, {safe!r}")
    step = max(1.0, 4.0 * math.sqrt(positive_real(t, "time")))
    radii: list[float] = []
    for k in range(1, MAX_EXHAUSTION + 1):
        r = min(base + k * step, 0.999 * safe)
        if radii and r <= radii[-1] * (1 + 1e-12):
            break
        radii.append(r)
    return tuple(radii)


def exhaustion_ladder(manifold: RadialManifold, datum, t: float,
                      controls: SolveControls, radii=None) -> tuple[Grid, list[int]]:
    """The ladder grid covering every truncation radius, and the face index
    of each level: level k is ``subgrid(ladder, indices[k])``.  ``datum`` is
    a datum or a nonempty tuple of them, each jump radius a face.  ``radii``
    is a strictly increasing list, or None for ``exhaustion_radii`` at ``t``.
    Radii go to their nearest ladder face (reported radii are those faces).
    Automatic radii are capped at the overflow-safe radius, and one that
    lands on the face of the one before is dropped; explicit radii go by
    ``nearest_faces``, which raises there, and a first radius at or inside
    a datum's last breakpoint, which would truncate it, raises too."""
    data = datum if isinstance(datum, tuple) and datum else (datum,)
    outer = max(instance(d, RadialBVDatum).breakpoints[-1][0] for d in data)
    n = instance(controls, SolveControls).n_cells
    safe = overflow_safe_radius(manifold)
    planned = exhaustion_radii(outer, t, safe)  # checks t for explicit radii too
    radii = planned if radii is None else monotone_reals(radii, "exhaustion radii")
    if radii[0] <= outer:
        raise InvalidArgumentError(
            f"first truncation radius {radii[0]} does not contain the datum "
            f"whose last breakpoint is at {outer}")
    r1, r_top = radii[0], radii[-1]
    if r_top > safe:
        raise RangeError(
            f"truncation radius {r_top:.6g} exceeds the overflow-safe radius "
            f"{safe:.6g} of this manifold")
    faces = list(face_ladder(r1, n, sorted({r for d in data for r in d.jump_radii})))
    if r_top > r1 * (1 + 1e-12):
        width = r1 / n
        n_extra = int(math.ceil((r_top - r1) / width - 1e-9))
        while r1 + width * n_extra > safe:  # the last face stays overflow-safe
            n_extra -= 1
        faces.extend(r1 + width * np.arange(1, n_extra + 1))
    ladder = grid_from_faces(manifold, np.asarray(faces))

    indices = nearest_faces(ladder.faces, radii, "truncation") if radii is not planned \
        else sorted({int(np.argmin(np.abs(ladder.faces - r))) for r in radii})
    return ladder, indices


def monotonicity_defect(inner: np.ndarray, outer: np.ndarray) -> float:
    """How far the outer level's solution falls below the inner level's on
    the inner ball; monotonicity holds up to ``EXHAUSTION_SLACK``."""
    return float(np.max(inner - outer[:len(inner)]))


def exhaustion_levels(manifold: RadialManifold, datum, stops,
                      controls: SolveControls, radii=None):
    """Lazily evolve the datum through ``stops`` on each truncation level.

    ``stops`` is a strictly increasing list of positive times, as in
    ``advance_states``; a tuple of datums steps as stacked columns, in order.
    Yields (grid, states at the stops) per level of ``exhaustion_ladder``
    over ``radii``, smallest ball first; the automatic radius policy
    (``radii=None``) sizes the ladder for the last stop.  Times and radii
    are checked at the call.  Level 1 records its steps (``advance_states``)
    for later levels to replay (``_replay``): levels 2, 4, ... in the caller
    as they are asked for, and levels 3, 5, ... in one child (``_beside``,
    forked for three or more levels), level 3 from level 1's steps as they
    are accepted and level 2j+1 once the walk is asked for level 2j.  Each
    level is checked against the one before at every stop before it is
    yielded: a ``monotonicity_defect`` beyond ``EXHAUSTION_SLACK`` raises
    ``NumericalFailure``."""
    stops = monotone_reals(stops, "stop times")
    ladder, indices = exhaustion_ladder(manifold, datum, stops[-1], controls, radii)

    def levels():
        u0 = np.stack([project_datum(d, ladder) for d in datum], axis=1) \
            if isinstance(datum, tuple) else project_datum(datum, ladder)
        steps: list[tuple[int, float]] = []  # level 1's accepted (stop index, h)

        def level(idx, pairs=steps):
            g = subgrid(ladder, idx)
            return g, _replay(assemble(g, manifold, DIRICHLET), u0[:idx], pairs, len(stops))

        def odd_levels(inbox):  # level 1's pairs, then () as each even level is asked for
            streamed, kept = itertools.tee(itertools.takewhile(bool, inbox))
            yield level(indices[2], streamed)
            kept = list(kept)
            for idx in indices[4::2]:
                next(inbox)
                yield level(idx, kept)

        with _beside(odd_levels, len(indices) > 2 and can_fork()) as (send, odd):
            g1 = subgrid(ladder, indices[0])
            op1, u1 = assemble(g1, manifold, DIRICHLET), u0[:indices[0]]
            # a lone level records nothing, and only level 3 reads a sent step
            keep = None if len(indices) == 1 else (lambda pair, *_: steps.append(pair)) \
                if len(indices) == 2 else lambda pair, *_: (steps.append(pair), send(pair))
            first = g1, advance_states(op1, u1, stops, controls, record=keep)
            inner_R, inner = None, []  # the first level has nothing inside it
            for n, idx in enumerate(indices):
                if n % 2 and n + 1 < len(indices):
                    send(())  # level n + 2 may run to its end in the child
                g, at_stops = first if n == 0 else level(idx) if n % 2 else odd()
                for stop, a, b in zip(stops, inner, at_stops):
                    worst = monotonicity_defect(a, b)
                    if not worst <= EXHAUSTION_SLACK:  # a NaN defect fails too
                        raise NumericalFailure(
                            f"exhaustion monotonicity violated by {worst:.3e} between "
                            f"R={inner_R:.6g} and R={g.R:.6g} at t={stop:.6g}")
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

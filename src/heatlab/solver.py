"""Heat evolution and Dirichlet-ball exhaustion.

Every trajectory starts at t = 0 and takes a list of stop times to the list
of states at them.  The minimal heat semigroup on a model manifold is the
monotone limit of heat flows on balls B_R with absorbing boundary, which
``exhaustion_levels`` walks on one face ladder shared by all radii, so
solutions at different R compare cell by cell and exhaustion monotonicity
is a testable discrete statement.  The time integral of P_t 1 on one ball
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
from .geometry import (LOG_MAX_GRID, RadialBVDatum, RadialManifold, as_real,
                       monotone_reals, positive_real, real_array, whole_count)
from .grid import Grid, build_grid, face_ladder, grid_from_faces, subgrid
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
# the most steps of level 1's recording that level 3 replays in one call
STREAM_PIECE = 256


@dataclass(frozen=True)
class SolveControls:
    """What every solve reads: step tolerance and resolution.

    ``step_tol`` bounds the relative local error of each accepted step.
    ``n_cells`` counts the cells inside the first truncation radius
    (degiorgi, completeness), min(R_list) (blowup), the whole solve ball
    (tail) or R (comparison); larger radii keep the spacing."""

    step_tol: float = 1e-6
    n_cells: int = 1024

    def __post_init__(self):
        object.__setattr__(self, "step_tol", positive_real(self.step_tol, "step tolerance"))
        object.__setattr__(self, "n_cells", whole_count(self.n_cells, "n_cells", 16))


def project_datum(datum: RadialBVDatum, g: Grid) -> np.ndarray:
    """Cell averages of a BV profile; indicators become exact 0/1 values.
    Every jump radius must be a face of the grid: no jump is smeared."""
    for r in datum.jump_radii:
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
                   controls: SolveControls,
                   observer: Callable[[float, np.ndarray, float, np.ndarray], None] | None = None,
                   ladder: list | None = None):
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
    factorization per half-step size (a replay drops each after its last
    step).  ``observer`` is called once per accepted substate transition
    with both endpoint times and states, reused buffers valid only during
    the call.

    ``stops`` is a strictly increasing list of positive times; the call
    returns the states at them, each its own array.  A step that would cross
    a stop is clipped onto it, off the lattice, and stepping then resumes
    from the size proposed before the clip.  ``MAX_STEPS`` attempts, replayed
    steps included, bound the whole trajectory.

    ``ladder`` is the step ladder: one list of accepted step sizes per stop
    (the steps since the stop before).  An empty list is filled in as the
    run records; a filled one, recorded through the same stops, is replayed
    instead: each step takes its size from the ladder, skips the error
    estimate and is accepted, so the observer sees the recording's
    transitions."""
    stops = monotone_reals(stops, "stop times")
    u = np.array(real_array(states, "states"), order="F")
    if u.ndim not in (1, 2) or u.shape[0] != op.grid.N:
        raise InvalidArgumentError("state length does not match the grid")

    if ladder is not None and not (isinstance(ladder, list) and all(
            isinstance(steps, list) and all(0 < as_real(h) < math.inf for h in steps)
            for steps in ladder)):
        raise InvalidArgumentError(
            f"ladder must be a list of lists of positive finite steps, got {ladder!r:.80}")
    replay = bool(ladder)
    if replay and len(ladder) != len(stops):
        raise InvalidArgumentError(f"replay ladder was recorded through {len(ladder)} "
                                   f"stop times, not the requested {len(stops)}")

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

    # dpttrf's (d, e) per half-step size, kept for this call only; a replay
    # drops one, locals too, at the attempt that last uses its size
    factors: dict[float, tuple[np.ndarray, np.ndarray]] = {}
    last = {0.5 * h: n for n, h in enumerate(itertools.chain(*ladder), 1)} if replay else {}

    t, dt, iterations, at_stops = 0.0, DT_INIT, 0, []
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
            # both half steps solve in place with I - (h/2) L: one factor
            half = 0.5 * h
            if half not in factors:
                factors[half] = _factor(op, half)
            d, e = factors[half]
            mid = dpttrs(d, e, np.multiply(weights, u, out=mid), 1)[0]
            fine = dpttrs(d, e, np.multiply(weights, mid, out=fine), 1)[0]
            if replay and last[half] == iterations:
                del factors[half], d, e
            if not replay:
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
                observer(t, u, t + half, mid)
                observer(t + half, mid, t + h, fine)
            u, fine = fine, u
            t = t + h
            taken += 1
        at_stops.append(u.copy(order="F"))
    return at_stops


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
    """Largest radius whose face area stays within the grid range budget;
    inf when the budget holds up to r = 1e6 (flat and decaying weights)."""
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


def dirichlet_ball(manifold: RadialManifold, data, R_read: float, t_end: float,
                   controls: SolveControls, R_cells: float | None = None):
    """The ball ``evolve`` steps on to ``t_end``: (operator, stacked
    (N, len(data)) projected data, notes).  Its Dirichlet wall sits
    max(2, 8*sqrt(t_end)) past ``R_read``, capped at the overflow-safe
    radius with a note; ``controls.n_cells`` cells fill ``R_cells`` (default:
    the wall) at one spacing out to the wall, and every jump radius is a
    face.  An ``R_read`` not below the overflow-safe radius, or a grid with
    no interior face beyond it, is a RangeError: nothing there is read."""
    if not (isinstance(data, (list, tuple)) and data
            and all(isinstance(d, RadialBVDatum) for d in data)):
        raise InvalidArgumentError(f"need a nonempty list or tuple of datums, got {data!r:.40}")
    R_read = positive_real(R_read, "reading radius")
    safe = overflow_safe_radius(manifold)
    if not R_read < safe:
        raise RangeError(
            f"reading radius {R_read:.6g} is not below the overflow-safe "
            f"radius {safe:.6g}; reduce it")
    wanted = R_read + max(2.0, 8.0 * math.sqrt(positive_real(t_end, "end time")))
    R = min(wanted, safe)
    notes = [f"solve radius capped at {safe:.6g}"] if wanted > safe else []
    n = controls.n_cells
    if R_cells is not None:
        n = max(n, int(math.ceil(n * R / positive_real(R_cells, "R_cells"))))
    g = build_grid(manifold, R, n, sorted({r for d in data for r in d.jump_radii}))
    if g.faces[-2] <= R_read:
        raise RangeError(
            f"no interior face lies beyond the reading radius {R_read:.6g} "
            f"before the wall at {R:.6g}; reduce it or raise n_cells")
    return (assemble(g, manifold, DIRICHLET),
            np.stack([project_datum(d, g) for d in data], axis=1), notes)


def evolve(manifold: RadialManifold, data, R_read: float, stops,
           controls: SolveControls, R_cells: float | None = None):
    """Evolve radial data jointly from t = 0 through ``stops`` on the last
    stop's ``dirichlet_ball``: (grid, stacked states at the stops, notes)."""
    stops = monotone_reals(stops, "stop times")
    op, u0, notes = dirichlet_ball(manifold, data, R_read, stops[-1], controls, R_cells)
    return op.grid, advance_states(op, u0, stops, controls), notes


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


def exhaustion_ladder(manifold: RadialManifold, datum: RadialBVDatum, t: float,
                      controls: SolveControls, radii=None) -> tuple[Grid, list[int]]:
    """The ladder grid covering every truncation radius, and the face index
    of each level: level k is ``subgrid(ladder, indices[k])``.  ``radii`` is
    a strictly increasing list, or None for ``exhaustion_radii`` at time
    ``t``.  Radii snap to the nearest ladder face (reported radii are the
    snapped ones).  Automatic radii are capped at the overflow-safe radius,
    and one that snaps onto the face of the one before is dropped; explicit
    radii raise there instead, and so does a first radius at or inside the
    datum's last breakpoint, which would truncate it."""
    outer = datum.breakpoints[-1][0]
    safe = overflow_safe_radius(manifold)
    planned = exhaustion_radii(outer, t, safe)  # checks t for explicit radii too
    radii = planned if radii is None else monotone_reals(radii, "exhaustion radii")
    if radii[0] <= outer:
        raise InvalidArgumentError(
            f"first truncation radius {radii[0]} does not contain the datum, "
            f"whose last breakpoint is at {outer}")
    r1, r_top = radii[0], radii[-1]
    if r_top > safe:
        raise RangeError(
            f"truncation radius {r_top:.6g} exceeds the overflow-safe radius "
            f"{safe:.6g} of this manifold")
    faces = list(face_ladder(r1, controls.n_cells, datum.jump_radii))
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
        elif radii is not planned:
            raise InvalidArgumentError(
                f"truncation radii {r_prev} and {r} snap onto the same face "
                f"{ladder.faces[idx]:.6g}; space them wider or raise n_cells")
    return ladder, indices


def monotonicity_defect(inner: np.ndarray, outer: np.ndarray) -> float:
    """How far the outer level's solution falls below the inner level's on
    the inner ball; monotonicity holds up to ``EXHAUSTION_SLACK``."""
    return float(np.max(inner - outer[:inner.size]))


def exhaustion_levels(manifold: RadialManifold, datum: RadialBVDatum, stops,
                      controls: SolveControls, radii=None):
    """Lazily evolve the datum through ``stops`` on each truncation level.

    ``stops`` is a strictly increasing list of positive times, as in
    ``advance_states``.  Yields (grid, states at the stops) per level of
    ``exhaustion_ladder`` over ``radii``, smallest ball first; the automatic
    radius policy (``radii=None``) sizes the ladder for the last stop.
    Times and radii are checked at the call.  Level 1 records its step
    ladder and the caller replays levels 2, 4, ... from it as they are asked
    for; levels 3, 5, ... replay ahead in one child (``_beside``, forked for
    three or more levels), level 3 from level 1's steps as they are
    accepted, at most ``STREAM_PIECE`` of one stop per call (a one-shot
    replay's bits).  Each level is checked against the one before at every
    stop before it is yielded: a ``monotonicity_defect`` beyond
    ``EXHAUSTION_SLACK`` raises ``NumericalFailure``."""
    stops = monotone_reals(stops, "stop times")
    ladder, indices = exhaustion_ladder(manifold, datum, stops[-1], controls, radii)

    def levels():
        u0 = project_datum(datum, ladder)
        steps: list[list[float]] = []

        def level(idx, recorded=steps, observer=None):
            g = subgrid(ladder, idx)
            op = assemble(g, manifold, DIRICHLET)
            return g, advance_states(op, u0[:idx], stops, controls, observer, ladder=recorded)

        def odd_levels(stream):  # stream: level 1's (stop index, step) pairs
            g = subgrid(ladder, indices[2])
            op = assemble(g, manifold, DIRICHLET)
            u, at_stops, collected = u0[:indices[2]], [], [[] for _ in stops]
            for stop, pairs in itertools.groupby(stream, key=lambda pair: pair[0]):
                at_stops += [u] * (stop - len(at_stops))
                pending = (h for _, h in pairs)
                while piece := list(itertools.islice(pending, STREAM_PIECE)):
                    (u,) = advance_states(op, u, [math.fsum(piece)], controls, ladder=[piece])
                    collected[stop] += piece
            yield g, at_stops + [u] * (len(stops) - len(at_stops))
            for idx in indices[4::2]:
                yield level(idx, collected)

        with _beside(odd_levels, len(indices) > 2 and can_fork()) as (send, odd):
            def accepted(*_, transitions=itertools.count()):  # level 1's observer
                if next(transitions) % 2 == 0:  # a step's first half: the ladder holds it
                    send((len(steps) - 1, steps[-1][-1]))
            first = level(indices[0], observer=accepted if len(indices) > 2 else None)
            send(None)
            inner_R, inner = None, []  # the first level has nothing inside it
            for n, idx in enumerate(indices):
                g, at_stops = first if n == 0 else level(idx) if n % 2 else odd()
                for stop, a, b in zip(stops, inner, at_stops):
                    worst = monotonicity_defect(a, b)
                    if worst > EXHAUSTION_SLACK:
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

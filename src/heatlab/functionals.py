"""Discrete BV functionals on radial states (arrays of cell values).

Total variation is accumulated in flux form, face by face: the variation
across the face between cells i and i+1 is sigma * A(face) * |u_{i+1} - u_i|.
This matches the flux identity used by the divergence witness exactly (no
gradient reconstruction), and each term stays inside the floating range
because grids are built under a log-area budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, RangeError
from .geometry import (RadialManifold, as_reals, instance, monotone_reals, positive_real,
                       real_array)
from .grid import Grid


def _check_grid(u, g: Grid, name: str) -> np.ndarray:
    values = real_array(u, name)
    if values.ndim != 1 or values.size != g.N:
        raise InvalidArgumentError(f"{name} is not defined on this grid")
    return values


def finite_fsum(terms, message: str) -> float:
    """``math.fsum`` of finite ``terms``, a RangeError with ``message`` where
    their sum passes the double range (fsum raises OverflowError there)."""
    try:
        return math.fsum(terms)
    except OverflowError:
        raise RangeError(message) from None


def weighted_sum(g: Grid, *profiles) -> float:
    """Compensated sum over cells of mu_i times the product of the profiles.

    One profile gives its mass sum mu_i u_i, two their weighted inner
    product, ``np.abs(u)`` the weighted L1 norm, none the ball volume.  The
    product is taken left to right, measure first.
    """
    acc = np.exp(g.log_cell_measure)
    with np.errstate(over="ignore", invalid="ignore"):  # raised below
        for k, p in enumerate(profiles, start=1):
            acc = acc * _check_grid(p, g, f"profile {k}")
    if not np.all(np.isfinite(acc)):
        raise RangeError("weighted sum overflows double precision")
    return finite_fsum(acc, "weighted sum overflows double precision")


def face_variation_terms(u, g: Grid, m: RadialManifold) -> np.ndarray:
    """Per-interior-face variation sigma * A(f) * |u_{i+1} - u_i|.

    Faces are indexed 1..N-1; the artificial boundary face at R is excluded,
    so the value measures variation inside the open truncation ball.
    """
    du = np.abs(np.diff(_check_grid(u, g, "solution")))
    log_sa = instance(m, RadialManifold).log_sphere_constant + g.log_face_area[1:-1]
    with np.errstate(over="ignore"):  # overflow is detected and raised below
        terms = np.exp(log_sa) * du
    if not np.all(np.isfinite(terms)):
        j = int(np.argmax(~np.isfinite(terms)))
        raise RangeError(
            f"variation term overflows at face r={g.faces[j + 1]:.6g}")
    return terms


def total_variation(u, g: Grid, m: RadialManifold) -> float:
    """Weighted total variation of a discrete profile, compensated sum."""
    return finite_fsum(face_variation_terms(u, g, m),
                       "total variation overflows double precision")


@dataclass(frozen=True)
class FluxProfile:
    """Discrete radial flux q(f) = -A(f) * du/dr at the interior faces."""

    radii: np.ndarray
    q: np.ndarray

    def at(self, r: float) -> float:
        """Flux at the interior face nearest to radius r."""
        r = positive_real(r, "radius")
        return float(self.q[int(np.argmin(np.abs(self.radii - r)))])

    def crossing(self, qthreshold: float) -> tuple[float | None, float | None]:
        """(r_t, delta_t): the first face whose flux exceeds ``qthreshold``
        and the flux there; both None when no face crosses."""
        above = np.nonzero(self.q > qthreshold)[0]
        if not above.size:
            return None, None
        j = int(above[0])
        return float(self.radii[j]), float(self.q[j])


def flux_profile(u, g: Grid) -> FluxProfile:
    """Flux profile of cell values at the interior faces.

    Meant for evolved states: on a projected datum a jump reads as its
    height over one center spacing.
    """
    du = np.diff(_check_grid(u, g, "solution"))
    # the grid budget bounds sigma * A, not A, so a small sigma lets A
    # overflow on its own (inf * 0 is invalid); both are raised below
    with np.errstate(over="ignore", invalid="ignore"):
        q = -np.exp(g.log_face_area[1:-1]) * du / np.diff(g.centers)
    if not np.all(np.isfinite(q)):
        j = int(np.argmax(~np.isfinite(q)))
        raise RangeError(
            f"flux overflows at face r={g.faces[j + 1]:.6g}; reduce R_max")
    return FluxProfile(radii=g.faces[1:-1].copy(), q=q)


@dataclass(frozen=True)
class ExtrapolationResult:
    limit: float
    error_indicator: float
    low_confidence: bool


def extrapolate_limit(series) -> ExtrapolationResult:
    """Limit of a sequence sampled at h decreasing to 0.

    ``series`` is a list of (h, value) pairs with h strictly decreasing.
    The limit comes from iterated Aitken delta-squared, which is exact for
    geometric error decay of unknown ratio.  The error indicator is the
    magnitude of the last applied correction, and ``low_confidence`` flags
    sequences whose raw differences fail to contract.  A difference within
    1e-10 of the series scale (the solver's exhaustion slack) is roundoff.
    """
    if not isinstance(series, (list, tuple)):
        raise InvalidArgumentError(f"series must be a list, got {series!r}")
    pairs = [as_reals(p, "an (h, value) point") for p in series]
    if any(len(p) != 2 for p in pairs) or not all(math.isfinite(v) for _, v in pairs):
        raise InvalidArgumentError(f"series must hold (h, finite value) pairs, got {series!r}")
    hs = monotone_reals([h for h, _ in pairs], "h", "decreasing", least=3)
    xs = [v for _, v in pairs]

    scale = max(abs(x) for x in xs)
    if max(xs) - min(xs) <= 1e-15 * max(scale, 1e-300):
        return ExtrapolationResult(limit=xs[-1], error_indicator=0.0,
                                   low_confidence=False)

    deltas = [b - a for a, b in zip(xs, xs[1:])]
    low, noise = False, 1e-10 * max(scale, 1e-300)
    for d0, d1 in zip(deltas, deltas[1:]):
        if abs(d1) <= noise:
            continue
        if abs(d0) <= noise or abs(d1) >= 0.9 * abs(d0):
            low = True

    stages = [xs]
    while len(stages[-1]) >= 3:
        cur = stages[-1]
        nxt = []
        for a, b, c in zip(cur, cur[1:], cur[2:]):
            den = (c - b) - (b - a)
            if abs(den) <= 1e-14 * (abs(a) + abs(b) + abs(c) + 1e-300):
                nxt = []
                break
            nxt.append(c - (c - b) ** 2 / den)
        if not nxt:
            break
        stages.append(nxt)
    limit = stages[-1][-1]  # the last raw value when no stage formed
    error = abs(deltas[-1] if len(stages) == 1 else limit - stages[-2][-1])

    if error > 0.05 * max(abs(limit), 1e-30):
        low = True
    return ExtrapolationResult(limit=float(limit), error_indicator=float(error),
                               low_confidence=low)

"""Rotationally symmetric weighted manifolds and exact geometric functionals.

A model manifold is encoded entirely by its weighted area function A(r): the
(n-1)-dimensional weighted area density of the sphere of radius r.  All
quantities involving A are carried as logarithms so that violently growing
weights (e.g. A(r) = r^2 e^{r^4}) never overflow intermediate arithmetic;
exponentials are taken only for final scalar outputs, behind explicit range
checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NumericalFailure, RangeError

# log of the largest double with a little headroom; exp() beyond this is an error
LOG_MAX_SCALAR = 709.0
# stricter budget for face areas entering grids: cell measures, flux sums and
# inner products multiply in O(1) factors that must not push past LOG_MAX_SCALAR
LOG_MAX_GRID = 700.0

# the 16-point Gauss-Legendre rule on [-1, 1], weights kept as logs
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_GL_LOG_WEIGHTS = np.log(_GL_WEIGHTS)


def logsumexp(a, axis=None):
    """log(sum(exp(a))) over axis, bitwise as scipy.special.logsumexp >= 1.15
    on nonempty float64 input.

    The tied maxima are summed apart: log1p of the rest, scaled by their
    count, plus log of the count and the max.  Where that is not finite
    (all -inf, an inf or a NaN) the direct log of the sum stands.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    axis = tuple(range(a.ndim)) if axis is None else axis
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        direct = np.log(np.sum(np.exp(a), axis=axis, keepdims=True))
        top = np.max(a, axis=axis, keepdims=True)
        tied = a == top
        count = np.sum(tied, axis=axis, keepdims=True, dtype=float)
        rest = np.sum(np.exp(np.where(tied, -np.inf, a) - top), axis=axis,
                      keepdims=True)
        rest = np.where(rest == 0, rest, rest / count)
        out = np.log1p(rest) + np.log(count) + top
    out = np.squeeze(np.where(np.isfinite(out), out, direct), axis=axis)
    return out[()] if out.ndim == 0 else out


def sphere_constant(dimension: int) -> float:
    """Surface measure of the unit (n-1)-sphere, 2*pi^(n/2)/Gamma(n/2)."""
    if dimension < 1:
        raise InvalidArgumentError(
            f"dimension must be at least 1 for a unit sphere, got {dimension}")
    try:
        return 2.0 * math.pi ** (dimension / 2.0) / math.gamma(dimension / 2.0)
    except OverflowError:
        raise InvalidArgumentError(
            f"dimension {dimension} is too large: the unit sphere's "
            f"measure 2*pi^(n/2)/Gamma(n/2) is out of double range"
        ) from None


class RadialManifold:
    """A weighted rotationally symmetric model manifold.

    Immutable after construction.  Use the factory functions ``euclidean``
    and ``power_exp_weight`` rather than the constructor.
    """

    def __init__(self, family: str, dimension: int, params: dict,
                 log_area_fn):
        if dimension < 2 or int(dimension) != dimension:
            raise InvalidArgumentError(f"dimension must be an integer >= 2, got {dimension}")
        self.family = family
        self.dimension = int(dimension)
        self.params = dict(params)
        self.sphere_constant = sphere_constant(self.dimension)
        self.log_sphere_constant = math.log(self.sphere_constant)
        self._log_area_fn = log_area_fn

    def log_area(self, r):
        """log A(r), elementwise; -inf at r = 0.  Never warns: where A itself
        is out of double range (a huge weight exponent) the log is +-inf."""
        arr = np.asarray(r, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise InvalidArgumentError("radius must be finite")
        if np.any(arr < 0):
            raise InvalidArgumentError("radius must be nonnegative")
        with np.errstate(divide="ignore", over="ignore"):
            out = self._log_area_fn(arr)
        if arr.ndim == 0:
            return float(out)
        return out

    def __repr__(self):
        extras = "".join(f", {k}={v}" for k, v in self.params.items())
        return f"RadialManifold({self.family}, n={self.dimension}{extras})"


def euclidean(dimension: int = 3) -> RadialManifold:
    """Flat R^n with Lebesgue measure: A(r) = r^(n-1)."""
    k = dimension - 1

    def _log_a(r):
        return k * np.log(r)

    return RadialManifold("euclidean", dimension, {}, _log_a)


def power_exp_weight(p: float, sign: int, dimension: int = 3) -> RadialManifold:
    """R^n weighted by exp(sign * r^p): A(r) = r^(n-1) exp(sign * r^p).

    ``p=4, sign=+1, dimension=3`` is the stochastically incomplete model whose
    complement perimeters blow up; ``p=2, sign=-1`` is the Gaussian-weight
    model with nonnegative generalized curvature.
    """
    if p <= 0:
        raise InvalidArgumentError(f"weight exponent must be positive, got {p}")
    if sign not in (1, -1):
        raise InvalidArgumentError(f"weight sign must be +1 or -1, got {sign}")
    k = dimension - 1

    def _log_a(r):
        return k * np.log(r) + sign * r ** p

    return RadialManifold("power_exp", dimension, {"p": float(p), "sign": int(sign)}, _log_a)


def perimeter_ball(manifold: RadialManifold, r: float) -> float:
    """Weighted perimeter of the centered ball of radius r: sigma * A(r)."""
    log_a = manifold.log_area(float(r))
    total = manifold.log_sphere_constant + log_a
    if total > LOG_MAX_SCALAR:
        raise RangeError(f"perimeter overflows double precision at r={r}")
    return manifold.sphere_constant * math.exp(log_a) if log_a > -math.inf else 0.0


def _gl_log_terms(manifold: RadialManifold, mids: np.ndarray,
                  half: np.ndarray) -> np.ndarray:
    """log of the Gauss-Legendre terms w_k * h * A(m + h x_k) of panels with
    centers m and half-widths h; the 16 nodes make a new last axis."""
    nodes = mids[..., None] + half[..., None] * _GL_NODES
    return np.log(half)[..., None] + _GL_LOG_WEIGHTS + manifold.log_area(nodes)


def log_area_integral(manifold: RadialManifold, a: float, b: float,
                      rel_tol: float = 1e-12) -> float:
    """log of the integral of A(s) ds over [a, b], by panelwise Gauss-Legendre.

    All accumulation happens in log space (log-sum-exp), so the result is
    finite and accurate even when A itself would overflow.  Panels are doubled
    (at most 18 times) until the log value moves by less than rel_tol, which
    bounds the relative error of the underlying integral.
    """
    if b < a:
        raise InvalidArgumentError(f"empty integration range [{a}, {b}]")
    if b == a:
        return -math.inf
    previous = None
    panels = 1
    for _ in range(18):
        edges = np.linspace(a, b, panels + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        value = float(logsumexp(_gl_log_terms(manifold, mids, half)))
        if previous is not None and abs(value - previous) <= rel_tol:
            return value
        previous = value
        panels *= 2
    raise NumericalFailure(f"log-space quadrature failed to converge on [{a}, {b}]")


def ball_volume(manifold: RadialManifold, r: float) -> float:
    """Weighted volume of the centered ball of radius r, to ~1e-10 relative."""
    if r < 0 or not math.isfinite(r):
        raise InvalidArgumentError(f"radius must be finite and nonnegative, got {r}")
    if r == 0.0:
        return 0.0
    log_integral = log_area_integral(manifold, 0.0, float(r), rel_tol=1e-11)
    total = manifold.log_sphere_constant + log_integral
    if total > LOG_MAX_SCALAR:
        raise RangeError(f"ball volume overflows double precision at r={r}")
    return math.exp(total)


@dataclass(frozen=True)
class RadialBVDatum:
    """A radial bounded-variation profile with exact total variation.

    The profile is a sorted sequence of (radius, value) breakpoints,
    linearly interpolated between distinct radii; a repeated radius encodes
    a jump.  Outside the breakpoint range the profile is constant.
    """

    breakpoints: tuple[tuple[float, float], ...]

    def __post_init__(self):
        pts = self.breakpoints
        if len(pts) < 2:
            raise InvalidArgumentError("a datum needs at least two breakpoints")
        if not all(math.isfinite(x) for p in pts for x in p):
            raise InvalidArgumentError("breakpoint radii and values must be finite")
        radii = [p[0] for p in pts]
        if radii[0] < 0 or any(b < a for a, b in zip(radii, radii[1:])):
            raise InvalidArgumentError("breakpoint radii must be nonnegative and sorted")
        if any(radii.count(r) > 2 for r in radii):
            raise InvalidArgumentError("at most two breakpoints may share a radius")
        # np.interp evaluates a piece through its slope, so that must be finite
        if any(not math.isfinite((v1 - v0) / (r1 - r0))
               for (r0, v0), (r1, v1) in zip(pts, pts[1:]) if r1 > r0):
            raise InvalidArgumentError(
                "a linear piece is too steep to evaluate; repeat its radius "
                "to give a jump")

    @property
    def support_radius(self) -> float:
        """Radius beyond which the profile vanishes (inf if it never does)."""
        last_r, last_v = self.breakpoints[-1]
        return last_r if last_v == 0.0 else math.inf

    @property
    def jump_radii(self) -> tuple[float, ...]:
        """Radii where the profile is discontinuous."""
        radii = [p[0] for p in self.breakpoints]
        return tuple(sorted({r for r in radii if radii.count(r) == 2 and r > 0}))

    def value(self, r):
        """Profile value at radius r (elementwise).  At a jump, the right limit."""
        arr = np.asarray(r, dtype=float)
        radii = np.array([p[0] for p in self.breakpoints])
        values = np.array([p[1] for p in self.breakpoints])
        # right-continuous: at duplicated radii np.interp already returns
        # the later table entry for queries at or beyond the jump
        out = np.interp(arr, radii, values)
        if arr.ndim == 0:
            return float(out)
        return out


def piecewise(points) -> RadialBVDatum:
    return RadialBVDatum(tuple((float(r), float(v)) for r, v in points))


def ball_indicator(radius: float) -> RadialBVDatum:
    return piecewise(((0.0, 1.0), (radius, 1.0), (radius, 0.0)))


def constant_one() -> RadialBVDatum:
    # a flat pair at the pole, so its feature radius is 0
    return RadialBVDatum(((0.0, 1.0), (0.0, 1.0)))


def exact_total_variation(datum: RadialBVDatum, manifold: RadialManifold) -> float:
    """Exact weighted total variation of a radial BV profile.

    Jumps contribute |jump| * sigma * A(r); linear pieces contribute
    |slope| * sigma * integral of A over the piece.  Indicators of balls and
    their complements both return the ball perimeter; constants return 0.
    """
    sigma = manifold.sphere_constant
    total = 0.0
    pts = datum.breakpoints
    for (r0, v0), (r1, v1) in zip(pts, pts[1:]):
        if r1 == r0:
            if v1 != v0:
                total += abs(v1 - v0) * perimeter_ball(manifold, r0)
        elif v1 != v0:
            # past double range the quadrature cannot converge, so a piece
            # that reaches there is refused before it is tried
            if manifold.log_sphere_constant + manifold.log_area(r1) > LOG_MAX_SCALAR:
                raise RangeError(
                    f"total variation out of range on segment [{r0}, {r1}]: "
                    f"the perimeter at r={r1} overflows double precision")
            slope = abs(v1 - v0) / (r1 - r0)
            log_piece = log_area_integral(manifold, r0, r1)
            if manifold.log_sphere_constant + math.log(slope) + log_piece > LOG_MAX_SCALAR:
                raise RangeError(f"total variation overflows on segment [{r0}, {r1}]")
            total += slope * sigma * math.exp(log_piece)
    return total

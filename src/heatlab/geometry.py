"""Rotationally symmetric weighted manifolds and exact geometric functionals.

A model manifold is encoded entirely by its weighted area function A(r): the
(n-1)-dimensional weighted area density of the sphere of radius r.  All
quantities involving A are carried as logarithms so that violently growing
weights (e.g. A(r) = r^2 e^{r^4}) never overflow intermediate arithmetic;
exponentials are taken only for final scalar outputs, behind explicit range
checks.  Every integral of A comes from one quadrature, ``log_area_integral``,
held to 1e-12 of each whole interval's integral, ``_BLOCK`` intervals at a time.
"""

from __future__ import annotations

import math
import numbers
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


def logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a))) along each row of a 2-d float64 array with nonempty
    rows, bitwise as scipy.special.logsumexp(a, axis=1) >= 1.15.

    The tied maxima are summed apart: log1p of the rest, scaled by their
    count, plus log of the count and the max.  Where that is not finite
    (all -inf, an inf or a NaN) the direct log of the sum stands.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        direct = np.log(np.sum(np.exp(a), axis=1, keepdims=True))
        top = np.max(a, axis=1, keepdims=True)
        tied = a == top
        count = np.sum(tied, axis=1, keepdims=True, dtype=float)
        rest = np.sum(np.exp(np.where(tied, -np.inf, a) - top), axis=1,
                      keepdims=True)
        rest = np.where(rest == 0, rest, rest / count)
        out = np.log1p(rest) + np.log(count) + top
    return np.where(np.isfinite(out), out, direct)[:, 0]


def as_real(value) -> float:
    """``value`` as a float, or NaN for anything but a real number: True ==
    1, but a boolean is no time or radius, and a string is no number."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return math.nan
    return float(value)


def as_reals(values, name: str) -> list[float]:
    """Each item of ``values`` through ``as_real``; only a list or tuple is
    a list of ``name``, never a lone number or an ndarray."""
    if not isinstance(values, (list, tuple)):
        raise InvalidArgumentError(f"{name} must be a list, got {values!r}")
    return [as_real(v) for v in values]


def instance(value, cls: type):
    """``value`` if it is a ``cls``, else InvalidArgumentError naming its type."""
    if not isinstance(value, cls):
        raise InvalidArgumentError(f"need a {cls.__name__}, got {type(value).__name__}")
    return value


def positive_real(value, name: str) -> float:
    """``value`` as a positive finite float, else InvalidArgumentError."""
    if not 0 < as_real(value) < math.inf:
        raise InvalidArgumentError(f"{name} must be a positive finite number, got {value!r}")
    return float(value)


def whole_count(value, name: str, least: int) -> int:
    """``value`` as an int >= ``least``: 512.0 counts, True and "512" do not."""
    if not (as_real(value).is_integer() and value >= least):
        raise InvalidArgumentError(f"{name} must be a whole number >= {least}, got {value!r}")
    return int(value)


def monotone_reals(values, name: str, order: str = "increasing", least: int = 1) -> list[float]:
    """``values`` as a list of at least ``least`` positive finite floats,
    strictly monotone in ``order`` ("increasing" or "decreasing")."""
    reals = as_reals(values, name)
    if not (len(reals) >= least and all(0 < x < math.inf for x in reals)):
        raise InvalidArgumentError(
            f"{name} must hold {least} or more positive finite numbers, got {values!r}")
    pairs = zip(reals, reals[1:]) if order == "increasing" else zip(reals[1:], reals)
    if any(b <= a for a, b in pairs):
        raise InvalidArgumentError(f"{name} must be strictly {order}, got {values!r}")
    return reals


def real_array(values, name: str) -> np.ndarray:
    """``values`` as a float array of finite numbers or booleans, never
    strings; booleans only as items, as a lone True is no number."""
    try:
        arr = np.asarray(values)
    except ValueError:  # a ragged list
        arr = np.asarray(None)
    if arr.dtype.kind not in ("biuf" if arr.ndim else "iuf") or not np.all(np.isfinite(arr)):
        raise InvalidArgumentError(f"{name} must hold finite real numbers, got {values!r:.80}")
    return arr.astype(float, copy=False)


def sphere_constant(dimension: int) -> float:
    """Surface measure of the unit (n-1)-sphere, 2*pi^(n/2)/Gamma(n/2)."""
    if not as_real(dimension) >= 1:
        raise InvalidArgumentError(
            f"dimension must be at least 1 for a unit sphere, got {dimension!r}")
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
        self.family = family
        self.dimension = whole_count(dimension, "dimension", 2)
        self.params = dict(params)
        self.sphere_constant = sphere_constant(self.dimension)
        self.log_sphere_constant = math.log(self.sphere_constant)
        self._log_area_fn = log_area_fn

    def log_area(self, r):
        """log A(r), elementwise; -inf at r = 0.  Never warns: where A itself
        is out of double range (a huge weight exponent) the log is +-inf."""
        arr = real_array(r, "radius")
        if np.any(arr < 0):
            raise InvalidArgumentError("radius must be nonnegative")
        with np.errstate(divide="ignore", over="ignore"):
            out = self._log_area_fn(arr)
        return float(out) if arr.ndim == 0 else out

    def __repr__(self):
        extras = "".join(f", {k}={v}" for k, v in self.params.items())
        return f"RadialManifold({self.family}, n={self.dimension}{extras})"


def euclidean(dimension: int = 3) -> RadialManifold:
    """Flat R^n with Lebesgue measure: A(r) = r^(n-1)."""
    def _log_a(r):  # the manifold checks the dimension before any call
        return (dimension - 1) * np.log(r)

    return RadialManifold("euclidean", dimension, {}, _log_a)


def power_exp_weight(p: float, sign: int, dimension: int = 3) -> RadialManifold:
    """R^n weighted by exp(sign * r^p): A(r) = r^(n-1) exp(sign * r^p).

    ``p=4, sign=+1, dimension=3`` is the stochastically incomplete model whose
    complement perimeters blow up; ``p=2, sign=-1`` is the Gaussian-weight
    model with nonnegative generalized curvature.
    """
    p = positive_real(p, "weight exponent")
    if as_real(sign) not in (1, -1):
        raise InvalidArgumentError(f"weight sign must be +1 or -1, got {sign}")

    def _log_a(r):
        return (dimension - 1) * np.log(r) + sign * r ** p

    return RadialManifold("power_exp", dimension, {"p": p, "sign": int(sign)}, _log_a)


def perimeter_ball(manifold: RadialManifold, r: float) -> float:
    """Weighted perimeter of the centered ball of radius r: sigma * A(r)."""
    log_a = instance(manifold, RadialManifold).log_area(as_real(r))
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


# bisections of an interval before the quadrature gives up on it, and the
# intervals integrated at once: the temporaries are sized by one block
_MAX_DEPTH = 18
_BLOCK = 512


def log_area_integral(manifold: RadialManifold, a, b):
    """log of the integral of A over [a, b], for scalar or array ends.

    A piece's value is the 16-node Gauss-Legendre rule on each of its halves,
    summed in log space: A may overflow, and the result is +inf only where
    log A is.  Where it moves off the rule on the whole piece by over 1e-12
    of the whole interval's integral, the piece is bisected (at most
    ``_MAX_DEPTH`` times) and its halves are integrated the same way.  The
    intervals go ``_BLOCK`` at a time, each block to its last bisection.
    """
    instance(manifold, RadialManifold)
    a, b = np.broadcast_arrays(real_array(a, "lower ends"), real_array(b, "upper ends"))
    if np.any(b < a):
        raise InvalidArgumentError(f"empty integration range [{a}, {b}]")
    shape, a, b = a.shape, a.ravel(), b.ravel()
    out = np.full(a.size, -np.inf)
    for start in range(0, a.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        _integrate_block(manifold, a, b, start + np.flatnonzero(b[block] != a[block]), out)
    return out.reshape(shape) if shape else float(out[0])


def _integrate_block(manifold: RadialManifold, a: np.ndarray, b: np.ndarray,
                     owner: np.ndarray, out: np.ndarray) -> None:
    """Add the log integral of A over [a, b] at each index in ``owner`` to
    ``out`` (log space), piece by piece; its temporaries end with the call."""
    lo, hi, top = a[owner], b[owner], None  # top: its interval's log integral
    for _ in range(_MAX_DEPTH + 1):
        coarse = logsumexp(_gl_log_terms(manifold, 0.5 * (lo + hi), 0.5 * (hi - lo)))
        q = 0.25 * (hi - lo)
        halves = _gl_log_terms(manifold, np.stack([lo + q, hi - q], axis=1), q[:, None])
        fine = logsumexp(halves.reshape(-1, 2 * _GL_NODES.size))
        top = fine if top is None else top
        with np.errstate(invalid="ignore", over="ignore"):  # where A overflows
            rough = np.abs(fine - coarse) > 1e-12 * np.exp(top - fine)
        np.logaddexp.at(out, owner[~rough], fine[~rough])
        mid = 0.5 * (lo[rough] + hi[rough])
        lo = np.stack([lo[rough], mid], axis=1).reshape(-1)
        hi = np.stack([mid, hi[rough]], axis=1).reshape(-1)
        owner, top = np.repeat(owner[rough], 2), np.repeat(top[rough], 2)
        if not owner.size:
            return
    raise NumericalFailure(f"log-space quadrature failed to converge on "
                           f"[{a[owner[0]]}, {b[owner[0]]}]")


def ball_volume(manifold: RadialManifold, r: float) -> float:
    """Weighted volume of the centered ball of radius r, by
    ``log_area_integral`` at its 1e-12 whole-interval tolerance."""
    if not 0 <= as_real(r) < math.inf:
        raise InvalidArgumentError(f"radius must be finite and nonnegative, got {r!r}")
    log_integral = log_area_integral(manifold, 0.0, float(r))
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
        if not isinstance(self.breakpoints, (list, tuple)):
            raise InvalidArgumentError(f"breakpoints must be a list, got {self.breakpoints!r}")
        pts = tuple(tuple(as_reals(p, "a breakpoint")) for p in self.breakpoints)
        object.__setattr__(self, "breakpoints", pts)
        if len(pts) < 2 or not all(len(p) == 2 and all(map(math.isfinite, p)) for p in pts):
            raise InvalidArgumentError("a datum needs two or more breakpoints of finite reals")
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
        return float(out) if arr.ndim == 0 else out


def piecewise(points) -> RadialBVDatum:
    return RadialBVDatum(points)


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
    sigma = instance(manifold, RadialManifold).sphere_constant
    total = 0.0
    pts = instance(datum, RadialBVDatum).breakpoints
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

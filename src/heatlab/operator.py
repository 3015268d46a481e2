"""Discrete weighted Laplacian in flux form.

The operator realizes u -> (1/A) d/dr (A du/dr) on a finite-volume grid:
cell i sees the difference of face fluxes A(f) * du/dr divided by its
weighted measure.  This makes the radial flux a first-class discrete object,
gives exact discrete integration by parts, and keeps every coefficient O(1)
as a ratio of neighboring weighted quantities.

Boundary conditions: the pole face carries zero flux because A(0) = 0;
at r = R either a homogeneous Dirichlet ghost value (the ball exhaustion)
or a zero-flux Neumann face (conservation checks).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NumericalFailure, RangeError
from .geometry import RadialManifold
from .grid import Grid

DIRICHLET = "dirichlet_at_R"
NEUMANN = "neumann_at_R"
# the largest half-span of a grid's log measures: D in units of exp(c), c the
# middle of the span, stays well inside double range
SYMMETRIC_HALF_SPAN = 500.0


@dataclass(frozen=True)
class WeightedOperator:
    """Tridiagonal operator L, symmetric in the cell measures D.  In units
    of exp(c), D is ``cell_weights``; D L couples cells through their face's
    ``conductance`` sigma * A(face) / dc, which is 0 at the pole and, under
    Neumann, at the wall, so D L conserves mass to roundoff."""

    grid: Grid
    bc: str
    cell_weights: np.ndarray
    conductance: np.ndarray   # faces 0..N

    def apply(self, u: np.ndarray) -> np.ndarray:
        """Matrix-vector product L u; accepts (N,) or (N, k) stacks."""
        u = np.asarray(u, dtype=float)
        if u.shape[0] != self.grid.N:
            raise InvalidArgumentError(
                f"vector length {u.shape[0]} does not match grid with {self.grid.N} cells")
        # face fluxes k * du with zero ghosts at the pole and the wall
        cols = u.reshape(self.grid.N, -1)
        flux = self.conductance[:, None] * np.diff(cols, axis=0, prepend=0.0, append=0.0)
        return (np.diff(flux, axis=0) / self.cell_weights[:, None]).reshape(u.shape)

    def banded(self, dt: float) -> tuple[np.ndarray, np.ndarray]:
        """Fresh main and off-diagonal of D (I - dt L) in dpttrf order."""
        # the diagonal sums the rounded off-diagonal it is solved with, so
        # each row sums to D, less the wall's drain, up to two roundings
        off = -dt * self.conductance
        return self.cell_weights - (off[:-1] + off[1:]), off[1:-1]


def assemble(g: Grid, manifold: RadialManifold, bc: str = DIRICHLET) -> WeightedOperator:
    """Assemble the discrete weighted Laplacian on a grid.

    With c the middle of the span of the log cell measures, the cell weights
    are exp(log mu_cell - c) and the conductances exp(log sigma + log A(face)
    - c) / dc, with dc the distance between the cell centers (or
    center-to-boundary for the Dirichlet ghost).  Interior row sums of D L
    vanish identically, so constants are harmonic away from the boundary.
    A grid whose log measures span more than ``2 * SYMMETRIC_HALF_SPAN``
    raises ``RangeError``.
    """
    if bc not in (DIRICHLET, NEUMANN):
        raise InvalidArgumentError(f"unknown boundary condition {bc!r}")
    log_mu = g.log_cell_measure
    lo, hi = float(log_mu.min()), float(log_mu.max())
    if not hi - lo <= 2.0 * SYMMETRIC_HALF_SPAN:  # a nan span fails too
        raise RangeError(
            f"log cell measures span {hi - lo:.6g}, over the {2 * SYMMETRIC_HALF_SPAN:g} "
            "that double precision holds; reduce R, n_cells or the dimension")
    c = 0.5 * (lo + hi)
    # face j sits between cells j-1 and j; face N is the wall
    dc = np.diff(g.centers, append=g.faces[-1])
    k = np.exp(manifold.log_sphere_constant + g.log_face_area[1:] - c) / dc
    if bc == NEUMANN:
        k[-1] = 0.0
    bad = np.nonzero(~np.isfinite(k))[0]
    if bad.size:
        raise NumericalFailure(
            f"non-finite conductance at face radius {g.faces[bad[0] + 1]:.6g}")
    return WeightedOperator(grid=g, bc=bc, cell_weights=np.exp(log_mu - c),
                            conductance=np.concatenate(([0.0], k)))

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

from .errors import InvalidArgumentError, NumericalFailure
from .geometry import RadialManifold
from .grid import Grid

DIRICHLET = "dirichlet_at_R"
NEUMANN = "neumann_at_R"
# past this half-span of a grid's log measures, D in units of exp(c) (c the
# middle of the span) nears double range: no symmetric form, steps solve L
SYMMETRIC_HALF_SPAN = 500.0


@dataclass(frozen=True)
class WeightedOperator:
    """Tridiagonal operator L, symmetric in the cell measures D.  In units
    of exp(c), D is ``cell_weights``; D L couples cells through their face's
    ``conductance`` sigma * A(face) / dc and conserves mass to roundoff."""

    grid: Grid
    lower: np.ndarray   # coupling to cell i-1; lower[0] = 0
    diag: np.ndarray
    upper: np.ndarray   # coupling to cell i+1; upper[N-1] = 0
    bc: str
    cell_weights: np.ndarray | None = None  # None: no symmetric form
    conductance: np.ndarray | None = None   # faces 0..N; 0 at the pole

    def apply(self, u: np.ndarray) -> np.ndarray:
        """Matrix-vector product L u; accepts (N,) or (N, k) stacks."""
        u = np.asarray(u, dtype=float)
        if u.shape[0] != self.grid.N:
            raise InvalidArgumentError(
                f"vector length {u.shape[0]} does not match grid with {self.grid.N} cells")
        cols = u.reshape(self.grid.N, -1)
        out = self.diag[:, None] * cols
        out[:-1] += self.upper[:-1, None] * cols[1:]
        out[1:] += self.lower[1:, None] * cols[:-1]
        return out.reshape(u.shape)

    def banded(self, shift: float, scale: float) -> tuple[np.ndarray, ...]:
        """Fresh bands of (shift * I + scale * L) for LAPACK: the main and
        off-diagonal of D (shift * I + scale * L) in dpttrf order, or without
        a symmetric form the three diagonals in dgtsv order."""
        if self.cell_weights is None:
            return (scale * self.lower[1:], shift + scale * self.diag,
                    scale * self.upper[:-1])
        # the diagonal sums the rounded off-diagonal it is solved with, so
        # each row sums to shift * D, less the wall's drain, up to two roundings
        off = scale * self.conductance
        return shift * self.cell_weights - (off[:-1] + off[1:]), off[1:-1]


def assemble(g: Grid, manifold: RadialManifold, bc: str = DIRICHLET) -> WeightedOperator:
    """Assemble the discrete weighted Laplacian on a grid.

    Coefficients are exp(log sigma + log A(face) - log mu_cell) / dc, with dc
    the distance between the cell centers (or center-to-boundary for the
    Dirichlet ghost).  Interior row sums vanish identically, so constants are
    harmonic away from the boundary.
    """
    if bc not in (DIRICHLET, NEUMANN):
        raise InvalidArgumentError(f"unknown boundary condition {bc!r}")
    n = g.N
    log_sigma = manifold.log_sphere_constant
    centers, faces = g.centers, g.faces

    lower = np.zeros(n)
    upper = np.zeros(n)
    dc = centers[1:] - centers[:-1]
    # interior face j sits between cells j-1 and j
    log_flux = log_sigma + g.log_face_area[1:n]
    upper[:-1] = np.exp(log_flux - g.log_cell_measure[:-1]) / dc
    lower[1:] = np.exp(log_flux - g.log_cell_measure[1:]) / dc

    diag = -(lower + upper)
    if bc == DIRICHLET:
        ghost = np.exp(log_sigma + g.log_face_area[n] - g.log_cell_measure[n - 1])
        diag[n - 1] -= ghost / (faces[n] - centers[n - 1])

    log_mu = g.log_cell_measure
    lo, hi = float(log_mu.min()), float(log_mu.max())
    symmetric = {}
    if hi - lo <= 2.0 * SYMMETRIC_HALF_SPAN:
        c = 0.5 * (lo + hi)
        wall = (np.exp(log_sigma + g.log_face_area[n] - c)
                / (faces[n] - centers[n - 1]) if bc == DIRICHLET else 0.0)
        symmetric = dict(cell_weights=np.exp(log_mu - c), conductance=np.concatenate(
            ([0.0], np.exp(log_flux - c) / dc, [wall])))

    for arr, name in ((lower, "lower"), (diag, "diag"), (upper, "upper")):
        bad = np.nonzero(~np.isfinite(arr))[0]
        if bad.size:
            raise NumericalFailure(
                f"non-finite {name} coefficient at row {bad[0]} (face radius "
                f"{faces[bad[0]]:.6g})")
    return WeightedOperator(grid=g, lower=lower, diag=diag, upper=upper, bc=bc,
                            **symmetric)

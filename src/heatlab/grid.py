"""Finite-volume meshes on [0, R] with log-space cell measures.

Cell measures mu_i = sigma * integral of A over the cell are computed by
per-cell Gauss-Legendre quadrature accumulated in log space, so grids remain
usable on manifolds whose area function overflows double precision long
before the truncation radius does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, RangeError
from .geometry import (LOG_MAX_GRID, RadialManifold, _gl_log_terms,
                       log_area_integral, logsumexp)


@dataclass(frozen=True)
class Grid:
    """Mesh of N cells on [0, R]; immutable and shareable."""

    R: float
    N: int
    faces: np.ndarray            # N+1 radii, strictly increasing, 0 .. R
    centers: np.ndarray          # N cell-center radii
    log_face_area: np.ndarray    # log A at each face; -inf at the pole
    log_cell_measure: np.ndarray  # log mu_i, sigma included

    def face_index(self, r: float) -> int:
        """Index of the face at radius r; raises if r is not a face."""
        idx = int(np.argmin(np.abs(self.faces - r)))
        if not math.isclose(self.faces[idx], r, rel_tol=1e-12, abs_tol=1e-15 * self.R):
            raise InvalidArgumentError(f"radius {r} is not a face of this grid")
        return idx


def _cell_log_integrals(manifold: RadialManifold, faces: np.ndarray) -> np.ndarray:
    """log of the per-cell integral of A, one vectorized Gauss-Legendre pass.

    Every cell is evaluated with 16 nodes and re-evaluated with two 16-node
    panels; cells where the two disagree fall back to adaptive refinement.
    """
    lo, hi = faces[:-1], faces[1:]
    coarse = logsumexp(_gl_log_terms(manifold, 0.5 * (lo + hi), 0.5 * (hi - lo)),
                       axis=1)

    q = 0.25 * (hi - lo)
    sub_mid = np.stack([lo + q, hi - q], axis=1)          # (N, 2)
    fine = logsumexp(_gl_log_terms(manifold, sub_mid, q[:, None])
                     .reshape(len(lo), -1), axis=1)

    out = fine
    rough = np.nonzero(np.abs(fine - coarse) > 1e-12)[0]
    for i in rough:
        out[i] = log_area_integral(manifold, lo[i], hi[i], rel_tol=1e-13)
    return out


def face_ladder(R: float, N: int, jump_radii=()) -> np.ndarray:
    """Faces of a uniform N-cell mesh on [0, R] holding every jump radius.

    Jump radii are snapped onto the nearest interior face (moving it by at
    most half a cell), so indicator data project onto cells without smearing.

    Args:
        R: truncation radius, > 0.
        N: cell count, >= 16.
        jump_radii: radii in (0, R) that must appear among the faces.
    """
    if not (math.isfinite(R) and R > 0):
        raise InvalidArgumentError(f"truncation radius must be finite and positive, got {R}")
    if N < 16:
        raise InvalidArgumentError(f"need at least 16 cells, got {N}")

    faces = np.linspace(0.0, R, N + 1)
    taken: dict[int, float] = {}
    for r in sorted(float(j) for j in jump_radii):
        if not 0.0 < r < R:
            raise InvalidArgumentError(f"jump radius {r} outside (0, {R})")
        idx = int(np.argmin(np.abs(faces - r)))
        idx = min(max(idx, 1), N - 1)
        if idx in taken:
            raise InvalidArgumentError(
                f"N={N} too small to separate jump radii {taken[idx]} and {r}")
        taken[idx] = r
    for idx, r in taken.items():
        faces[idx] = r
    if np.any(np.diff(faces) <= 0):
        raise InvalidArgumentError("jump snapping collapsed a cell; increase N")
    return faces


def build_grid(manifold: RadialManifold, R: float, N: int,
               jump_radii=()) -> Grid:
    """Mesh of N cells on [0, R] over ``face_ladder``; jump radii are faces."""
    return grid_from_faces(manifold, face_ladder(R, N, jump_radii))


def grid_from_faces(manifold: RadialManifold, faces) -> Grid:
    """Grid over an explicit strictly increasing face ladder starting at 0."""
    faces = np.asarray(faces, dtype=float)
    if faces.ndim != 1 or faces.size < 17:
        raise InvalidArgumentError("need a 1-d ladder of at least 17 faces")
    if faces[0] != 0.0 or np.any(np.diff(faces) <= 0):
        raise InvalidArgumentError("faces must start at 0 and increase strictly")
    log_face_area = manifold.log_area(faces)
    lost = np.flatnonzero(~np.isfinite(log_face_area[1:]))
    if lost.size:
        raise RangeError(
            f"log face area at r={faces[lost[0] + 1]:.6g} is not finite: the "
            f"weight is out of double range there")
    worst = manifold.log_sphere_constant + float(np.max(log_face_area))
    if worst > LOG_MAX_GRID:
        raise RangeError(
            f"face area at r={faces[int(np.argmax(log_face_area))]:.6g} exceeds "
            f"the floating range of final scalar outputs")
    centers = 0.5 * (faces[:-1] + faces[1:])
    log_cell_measure = manifold.log_sphere_constant + _cell_log_integrals(manifold, faces)
    return Grid(R=float(faces[-1]), N=faces.size - 1, faces=faces, centers=centers,
                log_face_area=log_face_area, log_cell_measure=log_cell_measure)


def subgrid(g: Grid, n_cells: int) -> Grid:
    """The first n_cells cells of g as a grid in its own right.

    Used by the exhaustion: all truncations share one face ladder, so
    solutions at different radii can be compared at identical cell centers.
    """
    if not 16 <= n_cells <= g.N:
        raise InvalidArgumentError(f"prefix cell count {n_cells} out of range [16, {g.N}]")
    k = n_cells
    return Grid(R=float(g.faces[k]), N=k, faces=g.faces[:k + 1],
                centers=g.centers[:k], log_face_area=g.log_face_area[:k + 1],
                log_cell_measure=g.log_cell_measure[:k])

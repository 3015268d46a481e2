"""Finite-volume meshes on [0, R] with log-space cell measures.

Cell measures mu_i = sigma * integral of A over the cell come from the one
quadrature of A, ``geometry.log_area_integral`` (in log space, each cell to
1e-12 of its integral), so grids stay usable where A overflows double
precision long before the truncation radius does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, RangeError
from .geometry import (LOG_MAX_GRID, RadialManifold, as_real, as_reals, instance,
                       log_area_integral, positive_real, real_array, whole_count)


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
        x = as_real(r)  # a non-number is NaN, near no face
        idx = int(np.argmin(np.abs(self.faces - x)))
        if not math.isclose(self.faces[idx], x, rel_tol=1e-12, abs_tol=1e-15 * self.R):
            raise InvalidArgumentError(f"radius {r} is not a face of this grid")
        return idx


def nearest_faces(faces: np.ndarray, radii, name: str) -> list[int]:
    """The one rule by which radii meet a grid: the index of the face nearest each of
    the increasing ``radii``; two on one face are an InvalidArgumentError."""
    js = [int(np.argmin(np.abs(faces - r))) for r in radii]
    for r, s, i, j in zip(radii, radii[1:], js, js[1:]):
        if i == j:
            raise InvalidArgumentError(f"{name} radii {r} and {s} snap onto the same face "
                                       f"{faces[j]:.6g}; space them wider or raise n_cells")
    return js


def face_ladder(R: float, N: int, jump_radii=()) -> np.ndarray:
    """Faces of a uniform N-cell mesh on [0, R] holding every jump radius.

    Jump radii are snapped onto the nearest interior face (``nearest_faces``
    over faces 1..N-1, moving it by at most half a cell), so indicator data
    project onto cells without smearing; two on one face are an error.

    Args:
        R: truncation radius, > 0.
        N: cell count, >= 16.
        jump_radii: radii in (0, R) that must appear among the faces.
    """
    R = positive_real(R, "truncation radius")
    N = whole_count(N, "cell count", 16)
    faces = np.linspace(0.0, R, N + 1)
    jumps = sorted(as_reals(jump_radii, "jump radii"))
    for r in jumps:
        if not 0.0 < r < R:
            raise InvalidArgumentError(f"jump radius {r} outside (0, {R})")
    faces[[j + 1 for j in nearest_faces(faces[1:-1], jumps, "jump")]] = jumps
    if np.any(np.diff(faces) <= 0):
        raise InvalidArgumentError("jump snapping collapsed a cell; increase N")
    return faces


def build_grid(manifold: RadialManifold, R: float, N: int,
               jump_radii=()) -> Grid:
    """Mesh of N cells on [0, R] over ``face_ladder``; jump radii are faces."""
    return grid_from_faces(manifold, face_ladder(R, N, jump_radii))


def grid_from_faces(manifold: RadialManifold, faces) -> Grid:
    """Grid over an explicit strictly increasing face ladder starting at 0."""
    faces = real_array(faces, "faces")
    if faces.ndim != 1 or faces.size < 17:
        raise InvalidArgumentError("need a 1-d ladder of at least 17 faces")
    if faces[0] != 0.0 or np.any(np.diff(faces) <= 0):
        raise InvalidArgumentError("faces must start at 0 and increase strictly")
    log_face_area = instance(manifold, RadialManifold).log_area(faces)
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
    log_cell_measure = (manifold.log_sphere_constant
                        + log_area_integral(manifold, faces[:-1], faces[1:]))
    return Grid(R=float(faces[-1]), N=faces.size - 1, faces=faces, centers=centers,
                log_face_area=log_face_area, log_cell_measure=log_cell_measure)


def subgrid(g: Grid, n_cells: int) -> Grid:
    """The first n_cells cells of g as a grid in its own right.

    Used by the exhaustion: all truncations share one face ladder, so
    solutions at different radii can be compared at identical cell centers.
    """
    k = whole_count(n_cells, "prefix cell count", 16)
    if k > g.N:
        raise InvalidArgumentError(f"prefix cell count {n_cells} exceeds the grid's {g.N}")
    return Grid(R=float(g.faces[k]), N=k, faces=g.faces[:k + 1],
                centers=g.centers[:k], log_face_area=g.log_face_area[:k + 1],
                log_cell_measure=g.log_cell_measure[:k])

"""Every blowup and completeness check row can fail: one planted defect per
(sample, row).

A defect is a monkeypatch of what ``heatlab.experiments`` reads: for
blowup the variation terms, the flux, or the noise floor it hands
``_blowup_at``; for completeness the exhaustion walk, whose levels it reads
the pole values from.  Each (sample, row) pair of ``blowup_superexp``,
``blowup_euclidean_control``, ``completeness_euclidean`` and
``completeness_superexp`` names the defect that must flip that row's status
at every time of the sample, run as its config stands.  The flat control's
two ``q_at_Rmax`` rows are left out: its threshold comes from the run's own
flux, so the refutes row holds whatever q reads and its confirms twin never
does (ROADMAP item 29, until item 33's wall-to-wall floor).

Each sample's walks are stepped once, inline, and kept, so a defect run
only reads: a completeness walk replays the levels its clean run read and
then ends.  The module takes about 1.7 s on 2 shared vCPUs, 1.5 s of it
the four stepped runs.
"""

import contextlib
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

import heatlab.experiments
import heatlab.solver
from heatlab import functionals
from heatlab.cli import run

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

_walled_ball = heatlab.experiments._walled_ball
_blowup_at = heatlab.experiments._blowup_at
_levels = heatlab.experiments.exhaustion_levels
_terms = functionals.face_variation_terms
_flux = functionals.flux_profile
_WALKS: dict = {}  # each wall rule's call, by its arguments' repr, to its stepped walk
_LEVELS: dict = {}  # each walk's arguments' repr to the levels its first run read


def _kept_walk(*args):
    key = repr(args)
    if key not in _WALKS:
        faces, step = _walled_ball(*args)
        _WALKS[key] = faces, step()
    faces, stepped = _WALKS[key]
    return faces, lambda: stepped


def _kept_levels(*args):
    """The walk's levels as its first run read them; a later run replays
    those and the walk ends there."""
    key = repr(args)
    if key in _LEVELS:
        yield from _LEVELS[key]
        return
    kept = _LEVELS[key] = []
    with contextlib.closing(_levels(*args)) as walk:
        for level in walk:
            kept.append(level)
            yield level


def _pole_values(change):
    """The walk with the pole value of level k (from 0) read as change(k, value)."""
    def walk(*args):
        for k, (g, (values,)) in enumerate(_kept_levels(*args)):
            values = values.copy()
            values[0] = change(k, values[0])
            yield g, [values]
    return walk


def _cut_after_two(*args):
    yield from itertools.islice(_kept_levels(*args), 2)


def _last_level_dented(*args):
    *levels, (g, (values,)) = _kept_levels(*args)
    yield from levels
    values = values.copy()
    values[0] -= 1e-3
    yield g, [values]


def _terms_cut_past(radius):
    """Variation terms zeroed on every face past the one nearest ``radius``."""
    def cut(u, g, m):
        terms = _terms(u, g, m).copy()
        terms[int(np.argmin(np.abs(g.faces - radius))):] = 0.0
        return terms
    return cut


def _unit_per_face(u, g, m):
    """A unit of variation added on every face."""
    return _terms(u, g, m) + 1.0


def _dented_flux(u, g):
    """The flux at the second interior face dented by 1."""
    q = _flux(u, g).copy()
    q[1] -= 1.0
    return q


def _floor_scaled(m, g, state, js, noise_floor_q):
    return _blowup_at(m, g, state, js, 1e30 * noise_floor_q)


# name: (attribute of functionals or experiments, the defect); R_list is
# [2, 3, 4, 5] on both blowup samples
DEFECTS = {
    "tv_flat_past_R4": ("face_variation_terms", _terms_cut_past(4.0)),
    "tv_flat_past_R2": ("face_variation_terms", _terms_cut_past(2.0)),
    "tv_unit_per_face": ("face_variation_terms", _unit_per_face),
    "mass_flux_dent": ("flux_profile", _dented_flux),
    "floor_times_1e30": ("_blowup_at", _floor_scaled),
    "walk_cut_after_two": ("exhaustion_levels", _cut_after_two),
    "pole_oscillating": ("exhaustion_levels", _pole_values(lambda k, m: m + 0.01 * (-1) ** k)),
    "pole_halved": ("exhaustion_levels", _pole_values(lambda k, m: 0.5 * m)),
    "pole_set_to_one": ("exhaustion_levels", _pole_values(lambda k, m: 1.0)),
    "last_level_dented": ("exhaustion_levels", _last_level_dented),
}

# (sample, row property, row gate): the defect that flips the row at every t
ROWS = {
    ("blowup_superexp", "least_tv_increment", "confirms"): "tv_flat_past_R4",
    ("blowup_superexp", "slope", "confirms"): "tv_flat_past_R2",
    ("blowup_superexp", "mass_flux_defect", "confirms"): "mass_flux_dent",
    ("blowup_superexp", "q_at_Rmax", "confirms"): "floor_times_1e30",
    ("blowup_superexp", "last_tv_step", "refutes"): "tv_flat_past_R4",
    ("blowup_superexp", "q_at_Rmax", "refutes"): "floor_times_1e30",
    ("blowup_euclidean_control", "least_tv_increment", "confirms"): "tv_flat_past_R4",
    ("blowup_euclidean_control", "slope", "confirms"): "tv_unit_per_face",
    ("blowup_euclidean_control", "mass_flux_defect", "confirms"): "mass_flux_dent",
    ("blowup_euclidean_control", "last_tv_step", "refutes"): "tv_unit_per_face",
    ("completeness_euclidean", "exhaustion_levels", "both"): "walk_cut_after_two",
    ("completeness_euclidean", "extrapolation_low_confidence", "both"): "pole_oscillating",
    ("completeness_euclidean", "m_limit", "confirms"): "pole_halved",
    ("completeness_euclidean", "m_limit", "refutes"): "pole_halved",
    ("completeness_euclidean", "last_delta", "refutes"): "last_level_dented",
    ("completeness_superexp", "exhaustion_levels", "both"): "walk_cut_after_two",
    ("completeness_superexp", "extrapolation_low_confidence", "both"): "pole_oscillating",
    ("completeness_superexp", "m_limit", "confirms"): "pole_set_to_one",
    ("completeness_superexp", "m_limit", "refutes"): "pole_set_to_one",
    ("completeness_superexp", "last_delta", "refutes"): "last_level_dented",
}
LEFT_OUT = {("blowup_euclidean_control", "q_at_Rmax", "confirms"),
            ("blowup_euclidean_control", "q_at_Rmax", "refutes")}


def _statuses(name, out, defect=None) -> list[dict]:
    """Each time's {(property, gate): status} from one run of the sample."""
    with pytest.MonkeyPatch.context() as patch:
        # inline, so the companion's walk is kept in this process too
        patch.setattr(heatlab.solver, "can_fork", lambda: False)
        patch.setattr(heatlab.experiments, "_walled_ball", _kept_walk)
        patch.setattr(heatlab.experiments, "exhaustion_levels", _kept_levels)
        if defect is not None:
            attribute, planted = DEFECTS[defect]
            owner = functionals if hasattr(functionals, attribute) else heatlab.experiments
            patch.setattr(owner, attribute, planted)
        assert run(str(CONFIGS / f"{name}.json"), str(out)) == 0
    checks = json.loads((out / "report.json").read_text())["evidence"]["checks"]
    if isinstance(checks[0], dict):  # one time: one row list
        checks = [checks]
    return [{(row["property"], row["gate"]): row["status"] for row in at_t}
            for at_t in checks]


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    return {name: _statuses(name, tmp_path_factory.mktemp(name))
            for name in sorted({name for name, _, _ in ROWS})}


def test_the_table_covers_every_row_of_its_samples(clean):
    pairs = {(name, *row) for name, at_ts in clean.items() for at_t in at_ts for row in at_t}
    assert pairs == set(ROWS) | LEFT_OUT


@pytest.mark.parametrize("name, defect", sorted({(name, defect)
                                                 for (name, *_), defect in ROWS.items()}))
def test_the_defect_flips_its_rows_at_every_time(clean, tmp_path, name, defect):
    planted = _statuses(name, tmp_path, defect)
    for (sample, *row), by in ROWS.items():
        if (sample, by) == (name, defect):
            row = tuple(row)
            assert [at_t[row] for at_t in planted] == \
                ["fail" if at_t[row] == "pass" else "pass" for at_t in clean[name]], row

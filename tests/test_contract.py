"""The Python API's contract: every export either returns or raises one of
heatlab's three errors, whatever a caller passes for a number or a list.

Each export has one valid call on a small problem.  Hypothesis draws every
pair of (argument, mutation) of that call: a number or a list becomes a
boolean, a string, NaN, an infinity, 0, a negative, a numpy scalar, an
ndarray, a non-whole number, or a list where a number is due (a lone
number where a list is due).  The first item of a list argument is mutated
the same way.  Any other exception, or any warning (the suite makes every
warning an error), breaks the contract, and so does a call that honours
what no caller can mean as a number: a boolean, a string or NaN, or a
negative where only positive values make sense.  Escapes this caught:
``face_ladder(True, 16)`` ran as R = 1 and ``face_ladder(1.0, 16.5)`` raised
TypeError; ``subgrid(g, 16.5)`` raised IndexError; ``evolve`` (later
``dirichlet_ball``, now the drivers' wall rule) ran with a reading radius
of True or -1.0; ``extrapolate_limit`` read NaN and string
h values; ``total_variation(["1"] * 32, g, m)`` read strings as numbers;
``Grid.face_index("a")`` and ``FluxProfile.at("a")`` raised numpy's
UFuncTypeError, ``WeightedOperator.apply(["a"] * 32)`` a bare ValueError
and ``RadialBVDatum(((0.0, 1.0), 5))`` a TypeError; ``face_index(True)``
and ``RadialManifold.log_area(True)`` ran as radius 1; ``advance_states``
raised AttributeError on a step ladder of ``()`` and TypeError on
``[["a"]]`` (its ``record`` is now a callable or None).  A datum or a
``SolveControls`` of the wrong type escaped as AttributeError from
``project_datum``, ``exhaustion_levels``, ``advance_states`` and the
drivers; each export that takes one now names the type it got.  So does
each export that takes a manifold, where None, a datum or a list escaped
as AttributeError (``overflow_safe_radius([1])`` as TypeError from its
cache).  Arguments that take no number are also mutated to None and to
an object of another type.
The methods and the raw datum constructor are held to the same contract
as the exports.
"""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heatlab
from heatlab import (InvalidArgumentError, NumericalFailure, RadialBVDatum,
                     RangeError, SolveControls, advance_states, assemble,
                     ball_indicator, ball_volume, blowup_sweep, build_grid,
                     comparison_check, completeness_probe, degiorgi_sweep,
                     euclidean, exact_total_variation, exhaustion_ladder,
                     exhaustion_levels, exhaustion_radii, extrapolate_limit,
                     face_ladder, face_variation_terms, flux_profile,
                     grid_from_faces, log_area_integral, overflow_safe_radius,
                     perimeter_ball, piecewise, power_exp_weight, project_datum,
                     sphere_constant, subgrid, tail_probe, total_variation, weighted_sum)

ALLOWED = (InvalidArgumentError, RangeError, NumericalFailure)

FLAT = euclidean(3)
BALL = ball_indicator(0.5)
GRID = build_grid(FLAT, 2.0, 32, (0.5,))
OP = assemble(GRID, FLAT)
FAST = SolveControls(step_tol=1e-3, n_cells=16)
PROFILE = list(np.linspace(1.0, 0.0, GRID.N))
RECORDED = []  # the (stop index, h) pairs of the table's advance_states calls


def _negated(value):
    """``value`` with every number made negative (0 becomes -1)."""
    if isinstance(value, (list, tuple)):
        return [_negated(v) for v in value]
    return -abs(value) if value else -1.0


def _mutations(value) -> dict:
    """Every way a caller may get ``value`` wrong, by name; a value that is
    no number (a manifold, a datum, the controls, a callable) is got wrong
    as the number 1.0 is, and as None or an object of another type."""
    is_list = isinstance(value, (list, tuple))
    number, objects = value, {}
    while isinstance(number, (list, tuple)):
        number = number[0]
    if not isinstance(number, (int, float)):
        objects = {"none": None, "stranger": FLAT if isinstance(value, RadialBVDatum) else BALL}
        value, number = [1.0] if is_list else 1.0, 1.0
    as_numpy = np.int64 if isinstance(number, int) else np.float64
    return {
        "boolean": True, "text": "a", "numeral": str(number),
        "nan": math.nan, "inf": math.inf, "-inf": -math.inf, "zero": 0,
        "negative": _negated(value),
        "numpy_scalar": as_numpy(number), "ndarray": np.asarray(value),
        "non_whole": number + 0.5,
        # a lone item where a list is due, a list where a number is due
        "swapped": value[0] if is_list else [value],
        **objects,
    }


KINDS = tuple(_mutations(1.0))
# the arguments that take no number, and the kinds only they are mutated by
OBJECTS = {"manifold", "m", "datum", "controls", "record"}
OBJECT_KINDS = ("none", "stranger")
# mutations that must raise: True == 1 and float("1") == 1.0, but neither
# is a number a caller means
NEVER = {"boolean", "text", "numeral", "nan", "negative"}
# array arguments, where numpy's booleans count as 0 and 1, and the
# arguments, or items of them, that may be negative
ARRAYS = {"a", "b", "faces", "profile", "states", "u"}
SIGNED = {"profile", "states", "u", "sign", ("points", 1, 1), ("series", 1, 1),
          ("breakpoints", 1, 1)}


def may_return(path, kind: str) -> bool:
    """Whether a call with ``kind`` at ``path`` may honour it."""
    root = path if isinstance(path, str) else path[0]
    if kind in OBJECT_KINDS:  # record=None records nothing
        return (root, kind) == ("record", "none")
    if kind == "boolean":
        return root in ARRAYS
    if kind == "negative":
        return root in SIGNED or path in SIGNED
    return kind not in NEVER

# export: (callable, a valid call's keyword arguments, the argument paths
# to mutate; a path into a list names its item)
CALLS = {
    "sphere_constant": (sphere_constant, {"dimension": 3}, ["dimension"]),
    "euclidean": (euclidean, {"dimension": 3}, ["dimension"]),
    "power_exp_weight": (power_exp_weight,
                         {"p": 4.0, "sign": 1, "dimension": 3},
                         ["p", "sign", "dimension"]),
    "perimeter_ball": (perimeter_ball, {"manifold": FLAT, "r": 1.0}, ["manifold", "r"]),
    "ball_volume": (ball_volume, {"manifold": FLAT, "r": 1.0}, ["manifold", "r"]),
    "log_area_integral": (log_area_integral,
                          {"manifold": FLAT, "a": 0.5, "b": 1.0}, ["manifold", "a", "b"]),
    "ball_indicator": (ball_indicator, {"radius": 0.5}, ["radius"]),
    "exact_total_variation": (exact_total_variation, {"datum": BALL, "manifold": FLAT},
                              ["datum", "manifold"]),
    "RadialBVDatum": (RadialBVDatum,
                      {"breakpoints": [(0.0, 1.0), (1.0, 0.5), (2.0, 0.0)]},
                      ["breakpoints", ("breakpoints", 1), ("breakpoints", 1, 0),
                       ("breakpoints", 1, 1)]),
    "piecewise": (piecewise, {"points": [(0.0, 1.0), (1.0, 0.5), (2.0, 0.0)]},
                  ["points", ("points", 1, 0), ("points", 1, 1)]),
    "face_ladder": (face_ladder, {"R": 2.0, "N": 16, "jump_radii": [0.5]},
                    ["R", "N", "jump_radii", ("jump_radii", 0)]),
    "build_grid": (build_grid, {"manifold": FLAT, "R": 2.0, "N": 16,
                                "jump_radii": [0.5]},
                   ["manifold", "R", "N", "jump_radii", ("jump_radii", 0)]),
    "grid_from_faces": (grid_from_faces,
                        {"manifold": FLAT,
                         "faces": list(np.linspace(0.0, 2.0, 17))},
                        ["manifold", "faces", ("faces", 3)]),
    "subgrid": (subgrid, {"g": GRID, "n_cells": 16}, ["n_cells"]),
    "assemble": (assemble, {"g": GRID, "manifold": FLAT}, ["manifold"]),
    "SolveControls": (SolveControls, {"step_tol": 1e-3, "n_cells": 16},
                      ["step_tol", "n_cells"]),
    "project_datum": (project_datum, {"datum": BALL, "g": GRID}, ["datum"]),
    "advance_states": (advance_states,
                       {"op": OP, "states": PROFILE, "stops": [0.01],
                        "controls": FAST,
                        "record": lambda pair, *_: RECORDED.append(pair)},
                       ["states", ("states", 0), "stops", ("stops", 0), "record",
                        "controls"]),
    "overflow_safe_radius": (overflow_safe_radius, {"manifold": FLAT}, ["manifold"]),
    "exhaustion_radii": (exhaustion_radii,
                         {"base": 1.0, "t": 0.05, "safe": 5.0},
                         ["base", "t", "safe"]),
    "exhaustion_ladder": (exhaustion_ladder,
                          {"manifold": FLAT, "datum": BALL, "t": 0.01,
                           "controls": FAST, "radii": [1.0, 1.5]},
                          ["manifold", "datum", "t", "controls", "radii", ("radii", 0)]),
    "exhaustion_levels": (exhaustion_levels,
                          {"manifold": FLAT, "datum": BALL, "stops": [0.01],
                           "controls": FAST, "radii": [1.0, 1.5]},
                          ["manifold", "datum", "stops", ("stops", 0), "controls",
                           "radii", ("radii", 0)]),
    "extrapolate_limit": (extrapolate_limit,
                          {"series": [(0.1, 3.1), (0.05, 3.05),
                                      (0.025, 3.025)]},
                          ["series", ("series", 1, 0), ("series", 1, 1)]),
    "weighted_sum": (lambda g, profile: weighted_sum(g, profile),
                     {"g": GRID, "profile": PROFILE},
                     ["profile", ("profile", 0)]),
    "total_variation": (total_variation, {"u": PROFILE, "g": GRID, "m": FLAT},
                        ["u", ("u", 0), "m"]),
    "face_variation_terms": (face_variation_terms,
                             {"u": PROFILE, "g": GRID, "m": FLAT},
                             ["u", ("u", 0), "m"]),
    "flux_profile": (flux_profile, {"u": PROFILE, "g": GRID},
                     ["u", ("u", 0)]),
    "degiorgi_sweep": (degiorgi_sweep,
                       {"manifold": FLAT, "datum": BALL,
                        "t_list": [0.02, 0.01, 0.005], "controls": FAST,
                        "gap_rtol": 0.01, "radii": [1.0]},
                       ["manifold", "datum", "t_list", ("t_list", 0), "controls",
                        "gap_rtol", "radii", ("radii", 0)]),
    "completeness_probe": (completeness_probe,
                           {"manifold": FLAT, "t": 0.01, "controls": FAST,
                            "radii": [1.0, 1.5, 2.0]},
                           ["manifold", "t", "controls", "radii", ("radii", 0)]),
    "blowup_sweep": (blowup_sweep,
                     {"manifold": FLAT, "r0": 0.5, "t_list": [0.01],
                      "R_list": [1.0, 1.5], "controls": FAST},
                     ["manifold", "r0", "t_list", ("t_list", 0), "R_list",
                      ("R_list", 0), "controls"]),
    "comparison_check": (comparison_check, {"R": 1.0, "n_cells": 16},
                         ["R", "n_cells"]),
    "tail_probe": (tail_probe,
                   {"manifold": FLAT, "datum": BALL, "R_out": 1.0,
                    "t_list": [0.01], "controls": FAST},
                   ["manifold", "datum", "R_out", "t_list", ("t_list", 0), "controls"]),
}

# methods of the objects the exports return, held to the same contract
METHODS = {
    "RadialManifold.log_area": (FLAT.log_area, {"r": 1.0}, ["r"]),
    "Grid.face_index": (GRID.face_index, {"r": 0.5}, ["r"]),
    "WeightedOperator.apply": (OP.apply, {"u": PROFILE}, ["u", ("u", 0)]),
    "FluxProfile.at": (flux_profile(PROFILE, GRID).at, {"r": 1.0}, ["r"]),
}


def mutated(kwargs: dict, path, kind: str) -> dict:
    """A deep copy of ``kwargs`` with the value at ``path`` mutated."""
    out = copy.deepcopy(kwargs)
    *parents, leaf = (path,) if isinstance(path, str) else path
    holder = out
    for step in parents:
        if isinstance(holder[step], tuple):
            holder[step] = list(holder[step])
        holder = holder[step]
    holder[leaf] = _mutations(holder[leaf])[kind]
    return out


@pytest.mark.parametrize("data", [BALL, (), (BALL, 1.0), (0.5,), np.array([0.5])],
                         ids=["lone_datum", "empty", "number_item", "number_tuple", "ndarray"])
def test_evolve_takes_a_list_or_tuple_of_data(data):
    # data evolve jointly on the exhaustion walk, which takes a datum or a
    # nonempty tuple of them: a lone datum steps to the bits of its 1-tuple's
    # column, as a 1-d state; anything else is refused by type, where a
    # number among the data once raised AttributeError
    walk = dict(manifold=FLAT, stops=[0.01], controls=FAST, radii=[1.0, 1.5])
    if data is not BALL:
        with pytest.raises(InvalidArgumentError, match="^need a RadialBVDatum, got "):
            exhaustion_levels(datum=data, **walk)
        return
    lone, tupled = (list(exhaustion_levels(datum=datum, **walk)) for datum in (BALL, (BALL,)))
    for (g, (alone,)), (_, (column,)) in zip(lone, tupled, strict=True):
        assert alone.shape == (g.N,) and column.shape == (g.N, 1)
        assert alone.tobytes() == column[:, 0].tobytes()


@pytest.mark.parametrize("wrong", [None, BALL, [FLAT]], ids=["none", "datum", "list"])
@pytest.mark.parametrize("name", sorted(name for name, (_, kwargs, _) in CALLS.items()
                                        if {"manifold", "m"} & set(kwargs)))
def test_a_manifold_of_the_wrong_type_is_named(name, wrong):
    # a wrong manifold once escaped as AttributeError, or from
    # overflow_safe_radius's cache as TypeError (unhashable type: 'list')
    fn, kwargs, _ = CALLS[name]
    key = "m" if "m" in kwargs else "manifold"
    with pytest.raises(InvalidArgumentError,
                       match=f"^need a RadialManifold, got {type(wrong).__name__}$"):
        fn(**{**kwargs, key: wrong})


@pytest.mark.parametrize("name", sorted({**CALLS, **METHODS}))
def test_every_export_returns_or_raises_a_heatlab_error(name):
    fn, kwargs, paths = {**CALLS, **METHODS}[name]
    fn(**kwargs)  # the unmutated call is valid
    cases = [(path, kind) for path in paths
             for kind in KINDS + (OBJECT_KINDS if path in OBJECTS else ())]

    @settings(max_examples=len(cases), database=None)
    @given(st.sampled_from(cases))
    def call(case):
        path, kind = case
        try:
            fn(**mutated(kwargs, path, kind))
        except ALLOWED:
            return
        assert may_return(path, kind), f"{name} honoured a {kind} at {path}"

    call()


def test_the_contract_covers_every_export():
    # every callable heatlab exports that takes a number, a list, a manifold,
    # a datum or controls; the classes build through the factories and
    # drivers above, and constant_one takes nothing
    takes_none = {"constant_one"}
    classes = {name for name in heatlab.__all__
               if isinstance(getattr(heatlab, name), type)}
    functions = {name for name in heatlab.__all__
                 if callable(getattr(heatlab, name))} - classes
    assert functions - takes_none == set(CALLS) - classes

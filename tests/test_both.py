"""Work beside the caller: ``solver.both`` and the walks that use it.

A forked child must hand back the bits an inline call computes, raise what
the call raised with its class and message, and leave no process behind
once ``both`` returns or raises, whether the child sent its outcome, was
killed by a failing caller or died on its own.
"""

import json
import os
import time
import warnings

import pytest

import heatlab.solver
from heatlab import (InvalidArgumentError, NumericalFailure, SolveControls,
                     ball_indicator, exhaustion_levels)
from heatlab.cli import run, validate
from heatlab.solver import both
from conftest import no_child_left

FORKS = pytest.mark.skipif(not heatlab.solver.can_fork(),
                           reason="forks only on Linux with two or more CPUs")
WALK = dict(stops=[0.02, 0.05], controls=SolveControls(n_cells=64, step_tol=1e-5),
            radii=(2.0, 3.0, 4.0, 5.0))


def _spy(monkeypatch) -> tuple[list, list]:
    """The calls to ``solver.both`` from here on, and the pids the caller's
    ``os.fork`` returns."""
    calls, pids = [], []
    call, fork = heatlab.solver.both, os.fork

    def spied_both(first, second):
        calls.append(None)
        return call(first, second)

    def spied_fork():
        pid = fork()
        pids.append(pid)
        return pid

    monkeypatch.setattr(heatlab.solver, "both", spied_both)
    monkeypatch.setattr(os, "fork", spied_fork)
    return calls, pids


def _fails(message, error=InvalidArgumentError):
    raise error(message)


@pytest.mark.parametrize("fork", [True, False], ids=["forked", "inline"])
def test_a_result_or_an_error_comes_back_whole(monkeypatch, fork):
    monkeypatch.setattr(heatlab.solver, "can_fork", lambda: fork)
    assert both(lambda: divmod(17, 5), lambda: divmod(23, 4)) == ((3, 2), (5, 3))
    assert no_child_left()
    with pytest.raises(InvalidArgumentError, match="^planted: 7$"):
        both(lambda: 1, lambda: _fails("planted: 7"))
    assert no_child_left()
    with pytest.raises(InvalidArgumentError, match="^planted: 8$"):
        both(lambda: _fails("planted: 8"), lambda: 1)
    assert no_child_left()


@pytest.mark.parametrize("fork", [True, False], ids=["forked", "inline"])
def test_where_both_sides_fail_the_first_error_wins(monkeypatch, fork):
    # the second side fails at once, the first a moment later
    monkeypatch.setattr(heatlab.solver, "can_fork", lambda: fork)

    def first():
        time.sleep(0.2)
        _fails("the first")

    with pytest.raises(InvalidArgumentError, match="^the first$"):
        both(first, lambda: _fails("the second", NumericalFailure))
    assert no_child_left()


@FORKS
def test_a_failing_first_kills_a_sleeping_second_at_once():
    started = time.perf_counter()
    with pytest.raises(InvalidArgumentError, match="^planted$"):
        both(lambda: _fails("planted"), lambda: time.sleep(60))
    assert time.perf_counter() - started < 10
    assert no_child_left()


@FORKS
def test_a_child_that_dies_without_a_result_is_a_numerical_failure():
    with pytest.raises(NumericalFailure, match="ended without a result"):
        both(lambda: 1, lambda: os.kill(os.getpid(), 9))
    assert no_child_left()


def test_forked_levels_have_the_inline_bits(euclid3, monkeypatch):
    # the second and third of four levels replay as a pair, the third in a
    # child, and the fourth alone; every level must match the inline walk
    # bit for bit, memory order included
    calls, pids = _spy(monkeypatch)
    forked = list(exhaustion_levels(euclid3, ball_indicator(1.0), **WALK))
    assert len(calls) == 1 and len(pids) == heatlab.solver.can_fork()
    assert no_child_left()
    monkeypatch.setattr(heatlab.solver, "can_fork", lambda: False)
    inline = list(exhaustion_levels(euclid3, ball_indicator(1.0), **WALK))
    assert len(forked) == len(inline) == 4
    for (g, states), (h, expected) in zip(forked, inline):
        assert g.faces.tobytes() == h.faces.tobytes()
        for a, b in zip(states, expected):
            assert a.tobytes() == b.tobytes() and a.flags.f_contiguous == b.flags.f_contiguous


def test_a_walk_closed_inside_a_pair_kills_and_reaps_its_child(euclid3, monkeypatch):
    # the pair is finished, and its child reaped, before its first level
    # is yielded
    calls, pids = _spy(monkeypatch)
    walk = exhaustion_levels(euclid3, ball_indicator(1.0), **WALK)
    next(walk)
    assert calls == []
    next(walk)  # the second level, the first of the pair
    assert len(calls) == 1 and len(pids) == heatlab.solver.can_fork()
    assert no_child_left()
    walk.close()
    assert no_child_left()


@pytest.mark.parametrize("side", ["child", "parent"])
def test_a_failure_on_either_side_of_a_pair_reaches_the_caller(euclid3, monkeypatch, side):
    # a dpttrs that fails in the child, whose error must come back as it
    # was raised, or in the parent once the pair is under way, whose child
    # must not outlive it
    parent, solve = os.getpid(), heatlab.solver.dpttrs
    calls, _ = _spy(monkeypatch)

    def failing(*args):
        here = "parent" if os.getpid() == parent else "child"
        if here == side and (calls or here == "child"):
            raise NumericalFailure(f"planted in the {side}")
        return solve(*args)

    monkeypatch.setattr(heatlab.solver, "dpttrs", failing)
    walk = exhaustion_levels(euclid3, ball_indicator(1.0), **WALK)
    next(walk)
    if side == "child" and not heatlab.solver.can_fork():
        pytest.skip("forks only on Linux with two or more CPUs")
    with pytest.raises(NumericalFailure, match=f"^planted in the {side}$"):
        list(walk)
    assert no_child_left()


@FORKS
@pytest.mark.parametrize("payload", [
    {"experiment": "completeness", "t": 0.05,
     "controls": {"n_cells": 64, "step_tol": 1e-5, "exhaustion": [2, 3, 4]}},
    {"experiment": "blowup", "manifold": {"family": "power_exp"}, "r0": 1.0,
     "t_list": [0.05], "R_list": [2.0, 3.0], "controls": {"n_cells": 64, "step_tol": 1e-5}},
    {"experiment": "validate", "seed": 0},
], ids=["exhaustion_level", "flat_companion", "validate"])
def test_a_failure_in_a_child_exits_3_with_its_message(tmp_path, monkeypatch, payload):
    parent, solve = os.getpid(), heatlab.solver.dpttrs

    def failing_in_a_child(*args):
        if os.getpid() != parent:
            raise NumericalFailure("planted in a child")
        return solve(*args)

    monkeypatch.setattr(heatlab.solver, "dpttrs", failing_in_a_child)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(payload))
    assert run(str(config), str(tmp_path / "out")) == 3
    error = json.loads((tmp_path / "out" / "error.json").read_text())
    assert error == {"error": "NumericalFailure", "message": "planted in a child",
                     "exit_code": 3}
    assert no_child_left()


@pytest.mark.parametrize("seed", range(4))
def test_validate_forks_one_half_with_the_inline_result(monkeypatch, seed):
    # the three-column run stays in the caller and the rest of the battery
    # runs in one child, whose lone second exhaustion level forks nothing
    calls, pids = _spy(monkeypatch)
    forked = validate(seed=seed)
    assert len(calls) == 1 and len(pids) == heatlab.solver.can_fork()
    assert no_child_left()
    monkeypatch.setattr(heatlab.solver, "can_fork", lambda: False)
    assert validate(seed=seed) == forked
    assert forked["verdict"] == "confirms"


def test_a_failure_in_validates_own_half_leaves_no_child(monkeypatch):
    # a dpttrs that fails in the caller's three-column run raises there,
    # and the child running the other half must not outlive it
    parent, solve = os.getpid(), heatlab.solver.dpttrs

    def failing_in_the_caller(*args):
        if os.getpid() == parent:
            raise NumericalFailure("planted in the caller")
        return solve(*args)

    monkeypatch.setattr(heatlab.solver, "dpttrs", failing_in_the_caller)
    with pytest.raises(NumericalFailure, match="^planted in the caller$"):
        validate(seed=0)
    assert no_child_left()


def test_the_fork_warning_of_a_threaded_process_is_no_error(euclid3, monkeypatch):
    # Python 3.12+ warns at each fork of a process with threads, and the
    # suite makes warnings errors; a fork that warns must still run the walk
    fork = os.fork

    def warning_fork():
        pid = fork()
        if pid:
            warnings.warn("This process is multi-threaded, use of fork() may "
                          "lead to deadlocks in the child.", DeprecationWarning)
        return pid

    monkeypatch.setattr(os, "fork", warning_fork)
    assert len(list(exhaustion_levels(euclid3, ball_indicator(1.0), **WALK))) == 4
    assert no_child_left()

"""Work beside the caller: ``solver.both`` and the exhaustion walk's child.

A forked child must hand back the bits an inline call computes, raise what
the call raised with its class and message, and leave no process behind
once ``both`` returns or raises, or a walk ends, is closed or raises,
whether the child sent its outcome, was killed by a failing caller or died
on its own.
"""

import json
import os
import time
import warnings
from pathlib import Path

import pytest

import heatlab.solver
from heatlab import (InvalidArgumentError, NumericalFailure, RangeError, SolveControls,
                     ball_indicator, blowup_sweep, constant_one, euclidean,
                     exhaustion_ladder, exhaustion_levels, power_exp_weight)
from heatlab.cli import run, validate
from heatlab.solver import both
from conftest import lapack_calls, no_child_left

FORKS = pytest.mark.skipif(not heatlab.solver.can_fork(),
                           reason="forks only on Linux with two or more CPUs")
CONFIGS = Path(__file__).resolve().parents[1] / "configs"
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


def test_a_blowup_ball_out_of_range_raises_before_anything_forks(monkeypatch):
    # the signal's wall is checked in the caller before its flat companion
    # forks, so a reading radius past exp(+r^4)'s overflow-safe radius forks
    # nothing
    calls, pids = _spy(monkeypatch)
    with pytest.raises(RangeError, match="overflow-safe"):
        blowup_sweep(power_exp_weight(4, 1, 3), 1.0, (0.1,), (2.0, 6.0),
                     SolveControls(n_cells=64))
    assert calls == [] and pids == []


@FORKS
def test_only_blowups_flat_companion_forks_beside_a_one_level_walk(tmp_path, monkeypatch):
    # tail and blowup step on one-level walks, which fork nothing; blowup's
    # flat companion forks once beside the signal (without can_fork nothing
    # forks: test_sample_configs::test_a_sample_that_forks_keeps_its_digests_inline)
    calls, pids = _spy(monkeypatch)
    assert run(str(CONFIGS / "tail_euclidean.json"), str(tmp_path / "tail")) == 0
    assert calls == [] and pids == []
    assert run(str(CONFIGS / "blowup_superexp.json"), str(tmp_path / "blowup")) == 0
    assert len(calls) == len(pids) == 1
    assert no_child_left()


def test_forked_levels_have_the_inline_bits(euclid3, monkeypatch):
    # levels 3, 5, ... replay in one child, level 3 from level 1's steps as
    # they stream in; at 1 to 5 levels and 1 or 4 stops every level must
    # match the inline walk bit for bit, memory order included.  Only a walk
    # of three or more levels forks, once, and no walk calls both
    calls, pids = _spy(monkeypatch)
    controls = SolveControls(n_cells=64, step_tol=1e-5)
    for stops in ([0.05], [0.005, 0.01, 0.02, 0.05]):
        for n in range(1, 6):
            walk = dict(stops=stops, controls=controls, radii=(2.0, 3.0, 4.0, 5.0, 6.0)[:n])
            calls.clear()
            pids.clear()
            forked = list(exhaustion_levels(euclid3, ball_indicator(1.0), **walk))
            assert calls == [] and len(pids) == (n > 2 and heatlab.solver.can_fork())
            assert no_child_left()
            with monkeypatch.context() as inline:
                inline.setattr(heatlab.solver, "can_fork", lambda: False)
                expected = list(exhaustion_levels(euclid3, ball_indicator(1.0), **walk))
            assert len(forked) == len(expected) == n
            for (g, states), (h, want) in zip(forked, expected):
                assert g.faces.tobytes() == h.faces.tobytes()
                for a, b in zip(states, want, strict=True):
                    assert a.tobytes() == b.tobytes()
                    assert a.flags.f_contiguous == b.flags.f_contiguous


def _held_walk(log, levels: int, pause: float) -> dict:
    """The LAPACK calls of ``completeness_euclidean``'s walk taken to
    ``levels`` levels, held ``pause`` seconds, then closed."""
    with lapack_calls(log) as calls:
        walk = exhaustion_levels(euclidean(3), constant_one(), [0.1],
                                 SolveControls(n_cells=1024, step_tol=1e-6))
        for _ in range(levels):
            next(walk)
        time.sleep(pause)
        walk.close()
    assert no_child_left()
    return calls


@FORKS
def test_the_child_replays_no_level_that_nothing_asked_for(tmp_path, monkeypatch):
    # completeness_euclidean's walk plans 8 levels and its probe reads 5.
    # The child starts level 2j+1 only once the walk is asked for level 2j,
    # so a walk held after level 5 makes the inline walk's calls (the child
    # once ran on into level 7: 12,674 solves), and one held after level 4
    # has at most level 5 in flight
    _, indices = exhaustion_ladder(euclidean(3), constant_one(), 0.1,
                                   SolveControls(n_cells=1024, step_tol=1e-6))
    assert len(indices) == 8
    _, pids = _spy(monkeypatch)
    forked = _held_walk(tmp_path / "forked", 5, 0.2)
    after_four = _held_walk(tmp_path / "after_four", 4, 0.2)
    assert len(pids) == 2
    monkeypatch.setattr(heatlab.solver, "can_fork", lambda: False)
    inline = _held_walk(tmp_path / "inline", 5, 0.0)
    assert forked == inline == {"dpttrs": 10_562, "dpttrf": 270}
    assert after_four["dpttrs"] <= inline["dpttrs"]


def test_a_walk_closed_after_any_level_leaves_no_child(euclid3, monkeypatch):
    # the child forks with the first level and runs ahead on the odd ones;
    # a walk closed after level 1, 2 or 3, or dropped unclosed, kills and
    # reaps it
    _, pids = _spy(monkeypatch)
    for levels in (1, 2, 3):
        pids.clear()
        walk = exhaustion_levels(euclid3, ball_indicator(1.0), **WALK)
        for _ in range(levels):
            next(walk)
        assert len(pids) == heatlab.solver.can_fork()
        walk.close()
        assert no_child_left()
    walk = exhaustion_levels(euclid3, ball_indicator(1.0), **WALK)
    next(walk)
    del walk
    assert no_child_left()


@FORKS
def test_a_check_for_children_leaves_a_suspended_walk_its_child(euclid3, monkeypatch):
    # a three-level walk's child sends level 3 and ends; a no_child_left
    # check while the walk is suspended sees that child without reaping it,
    # so the walk's close still kills and reaps its own child
    _, pids = _spy(monkeypatch)
    walk = exhaustion_levels(euclid3, ball_indicator(1.0), stops=WALK["stops"],
                             controls=WALK["controls"], radii=(2.0, 3.0, 4.0))
    assert len([next(walk) for _ in range(3)]) == 3
    (pid,) = pids
    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)  # until it has ended, unreaped
    assert not no_child_left()
    walk.close()  # os.kill raised ProcessLookupError where the check reaped
    assert no_child_left()


@pytest.mark.parametrize("where, cells", [
    pytest.param("streamed", 128, id="streamed"),
    pytest.param("later_odd", 192, id="later_odd"),
    pytest.param("caller", 96, id="caller")])
def test_a_failure_anywhere_in_a_walk_reaches_the_caller(euclid3, monkeypatch,
                                                        where, cells):
    # a dpttrs that fails on one level of five: the third, which replays
    # level 1's steps as they stream into the child, the fifth, which the
    # child replays later, or the second, in the caller while the child
    # runs; the error must come back as it was raised, and no child outlive
    # the walk
    parent, solve = os.getpid(), heatlab.solver.dpttrs

    def failing(d, e, b, *args):
        if b.shape[0] == cells:
            side = "caller" if os.getpid() == parent else "child"
            raise NumericalFailure(f"planted in the {side}")
        return solve(d, e, b, *args)

    monkeypatch.setattr(heatlab.solver, "dpttrs", failing)
    walk = exhaustion_levels(euclid3, ball_indicator(1.0), stops=WALK["stops"],
                             controls=WALK["controls"], radii=(2.0, 3.0, 4.0, 5.0, 6.0))
    side = "child" if where != "caller" and heatlab.solver.can_fork() else "caller"
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

"""The first-kind run beside the rest of an op (``checks._alongside``).

When ``checks._spare_cpu()`` holds, ``compare-embeddings`` and
``check-invariants`` integrate the first kind in a forked child while the
parent runs the other half.  Each test here forces the predicate both ways
and holds the forked path to the serial one: the same report bits, the same
failure (type, message, cause and context), the same warnings, and no child
left behind.  Each test starts one child at most.
"""

import dataclasses
import os
import signal
import threading
import time
import warnings

import numpy as np
import pytest

from constrained_dynamics import ForceField, MechanicalSystem, catalog_scenario, checks
from constrained_dynamics.smooth import EvaluationError

CHARTED = ["pendulum", "spherical-pendulum", "rotating-wire-bead"]


@pytest.fixture(autouse=True)
def forks(monkeypatch):
    """The pids of the children a test forks: one at most, none left unreaped."""
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    yield pids
    assert len(pids) <= 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _spare(monkeypatch, spare: bool):
    monkeypatch.setattr(checks, "_spare_cpu", lambda: spare)


def _both_paths(monkeypatch, forks, op):
    """(serial, forked) results of ``op()``; the forked result crossed the pipe,
    so this process ran the first kind only for the serial one."""
    ran, integrate = [], checks.integrate_first_kind

    def counted(*args):
        ran.append(os.getpid())
        return integrate(*args)

    monkeypatch.setattr(checks, "integrate_first_kind", counted)
    _spare(monkeypatch, False)
    serial = op()
    assert ran == [os.getpid()] and forks == []
    _spare(monkeypatch, True)
    forked = op()
    assert ran == [os.getpid()] and len(forks) == 1
    return serial, forked


@pytest.mark.parametrize("name", CHARTED)
def test_compare_embeddings_gives_the_same_bits_on_both_paths(monkeypatch, forks, name):
    sc = catalog_scenario(name)
    serial, forked = _both_paths(
        monkeypatch, forks, lambda: checks.compare_embeddings_report(sc, t_end=0.3)
    )
    assert forked.to_dict() == serial.to_dict()
    assert forked.to_text() == serial.to_text()


@pytest.mark.parametrize("name", CHARTED + ["knife-edge"])
def test_check_scenario_gives_the_same_bits_on_both_paths(monkeypatch, forks, name):
    sc = catalog_scenario(name)
    serial, forked = _both_paths(monkeypatch, forks, lambda: checks.check_scenario(sc, t_end=0.3))
    assert [e.name for e in forked.entries] == [e.name for e in serial.entries]
    assert forked.to_dict() == serial.to_dict()
    assert forked.to_text() == serial.to_text()


def _nan_force(sc, t_nan=0.2):
    """``sc`` with its force NaN from t = t_nan on."""
    f = sc.system.force

    def force(t, x, v):
        return np.full(f.dim, np.nan) if t >= t_nan else f.value(t, x, v)

    system = MechanicalSystem(mass=sc.system.mass, force=ForceField(f.dim, force, f.potential))
    return dataclasses.replace(sc, system=system)


def _chain(exc):
    """(type, message, cause, context) of ``exc``, down its whole chain."""
    if exc is None:
        return None
    return type(exc), str(exc), _chain(exc.__cause__), _chain(exc.__context__)


def _failures(monkeypatch, op):
    """(serial, forked) exceptions raised by ``op()``."""
    out = []
    for spare in (False, True):
        _spare(monkeypatch, spare)
        with pytest.raises(Exception) as err:
            op()
        out.append(err.value)
    return out


def test_a_first_kind_failure_in_the_child_is_the_serial_one(monkeypatch, forks):
    # both kinds meet the NaN force; the serial order fails on the first kind's
    sc = _nan_force(catalog_scenario("pendulum"))
    serial, forked = _failures(monkeypatch, lambda: checks.compare_embeddings_report(sc, 0.5))
    assert type(serial) is EvaluationError and len(forks) == 1
    with pytest.raises(EvaluationError) as first:
        checks.integrate_first_kind(sc.system, sc.constraints, sc.initial, 0.5, sc.integrator)
    assert _chain(serial) == _chain(first.value)
    assert _chain(forked) == _chain(serial)


def test_when_both_halves_fail_the_first_kind_wins(monkeypatch, forks):
    # the run meets the NaN force, and so do the virtual-work check's samples
    sc = _nan_force(catalog_scenario("pendulum"))
    with pytest.raises(EvaluationError) as sampled:
        checks.check_virtual_work(sc, checks.DEFAULT_THRESHOLDS)
    serial, forked = _failures(monkeypatch, lambda: checks.check_scenario(sc, 0.5))
    assert type(serial) is EvaluationError and str(serial) != str(sampled.value)
    # the sampled check's failure is not in the chain either
    assert _chain(forked) == _chain(serial)


def test_a_sampled_check_failure_is_raised_when_the_run_succeeds(monkeypatch, forks):
    sc = _nan_force(catalog_scenario("pendulum"))
    with pytest.raises(EvaluationError) as sampled:
        checks.check_virtual_work(sc, checks.DEFAULT_THRESHOLDS)
    serial, forked = _failures(monkeypatch, lambda: checks.check_scenario(sc, 0.1))
    assert _chain(serial) == _chain(sampled.value)
    assert _chain(forked) == _chain(serial)


def test_a_child_that_dies_is_replaced_by_the_serial_run(monkeypatch, forks):
    sc = catalog_scenario("pendulum")
    _spare(monkeypatch, False)
    serial = checks.compare_embeddings_report(sc, t_end=0.3)
    parent, integrate = os.getpid(), checks.integrate_first_kind

    def killed_in_a_child(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return integrate(*args)

    monkeypatch.setattr(checks, "integrate_first_kind", killed_in_a_child)
    _spare(monkeypatch, True)
    assert checks.compare_embeddings_report(sc, t_end=0.3).to_dict() == serial.to_dict()
    assert len(forks) == 1


def test_a_warning_in_the_child_is_emitted_once_in_the_parent(monkeypatch, forks):
    sc = catalog_scenario("pendulum")
    _spare(monkeypatch, False)
    serial = checks.compare_embeddings_report(sc, t_end=0.3)
    parent, integrate = os.getpid(), checks.integrate_first_kind

    def warning(*args):
        warnings.warn(f"first kind in {'the parent' if os.getpid() == parent else 'a child'}",
                      RuntimeWarning)
        return integrate(*args)

    monkeypatch.setattr(checks, "integrate_first_kind", warning)
    _spare(monkeypatch, True)
    with pytest.warns(RuntimeWarning) as caught:
        forked = checks.compare_embeddings_report(sc, t_end=0.3)
    assert [str(w.message) for w in caught] == ["first kind in the parent"]
    assert forked.to_dict() == serial.to_dict() and len(forks) == 1


def test_a_failed_fork_runs_serially(monkeypatch, forks):
    def no_fork():
        raise BlockingIOError("Resource temporarily unavailable")

    _spare(monkeypatch, True)
    monkeypatch.setattr(os, "fork", no_fork)
    assert checks._alongside(lambda: 1.5, lambda: 2.5) == (1.5, 2.5)


def test_an_interrupt_kills_and_reaps_the_child_before_it_propagates(monkeypatch, forks):
    def interrupted():
        raise KeyboardInterrupt

    _spare(monkeypatch, True)
    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        checks._alongside(lambda: time.sleep(60), interrupted)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert time.perf_counter() - t0 < 30 and len(forks) == 1


def test_the_spare_cpu_is_asked_for_on_every_call(monkeypatch, forks):
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        assert not checks._spare_cpu()
        return
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert checks._spare_cpu()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert not checks._spare_cpu()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    # another Python thread could hold a lock across the fork
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(30,))
    thread.start()
    try:
        assert not checks._spare_cpu()
    finally:
        release.set()
        thread.join(30)
    assert not thread.is_alive() and checks._spare_cpu()

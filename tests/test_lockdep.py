"""Runtime lockdep harness: declared order, tracked primitives, order graph.

These tests drive :mod:`repro.analysis.lockdep` directly with a private
``LockdepState`` ranking toy locks — they never touch the global
installed state, so they compose with a ``REPRO_LOCKDEP=1`` run of the
whole suite (where the conftest hook owns the global state).
"""

from __future__ import annotations

import json
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import lockdep
from repro.analysis.lockdep import (
    LOCK_ORDER,
    LockdepState,
    LockOrderError,
    ThreadingFacade,
    TrackedCondition,
    TrackedLock,
    TrackedRLock,
    TrackedSemaphore,
)
from repro.obs.metrics import MetricsRegistry


def new_state(*order: str) -> LockdepState:
    return LockdepState(order, metrics=MetricsRegistry())


def make_lock(state: LockdepState, name: str) -> TrackedLock:
    return TrackedLock(state, threading.Lock(), name)


def held_seconds(registry: MetricsRegistry, lock: str):
    return registry.histogram(
        "lockdep_held_seconds", buckets=lockdep.HELD_SECONDS_BUCKETS, lock=lock
    )


# ----------------------------------------------------------------------
# order checking and graph recording
# ----------------------------------------------------------------------
class TestOrderGraph:
    def test_nested_acquire_records_edge(self):
        state = new_state("A", "B")
        a, b = make_lock(state, "A"), make_lock(state, "B")
        with a:
            with b:
                pass
        assert ("A", "B") in state.edges()
        assert ("B", "A") not in state.edges()
        assert state.violations() == []

    def test_seeded_wrong_order_raises_at_inner_acquire(self):
        """Order (A, B), nested B then A: the inner acquire raises before
        A is taken, and B stays held until its own block exits."""
        state = new_state("A", "B")
        a, b = make_lock(state, "A"), make_lock(state, "B")
        with b:
            with pytest.raises(LockOrderError, match="A is ranked before held B"):
                a.acquire()
            assert state.held_names() == ["B"]
            assert not a._inner.locked()
            assert b._inner.locked()
        assert state.held_names() == []
        [violation] = state.violations()
        assert violation["lock"] == "A"
        assert violation["held"] == ["B"]

    def test_undeclared_lock_raises(self):
        """A name missing from the order (e.g. a ``file.py:lineno``
        fallback) is refused even with nothing held."""
        state = new_state("A")
        stray = make_lock(state, "mod.py:12")
        with pytest.raises(LockOrderError, match="not declared"):
            stray.acquire()
        assert not stray._inner.locked()
        assert [v["lock"] for v in state.violations()] == ["mod.py:12"]

    @settings(max_examples=60, deadline=None)
    @given(orders=st.lists(st.booleans(), min_size=1, max_size=12))
    def test_two_lock_inversion_always_detected(self, orders):
        """Whatever came before it, every B->A nesting raises at once and
        no A->B nesting does.

        Each draw is a sequence of nested two-lock critical sections:
        ``True`` nests A->B, ``False`` nests B->A, under the order (A, B).
        """
        state = new_state("A", "B")
        a, b = make_lock(state, "A"), make_lock(state, "B")
        for a_first in orders:
            outer, inner = (a, b) if a_first else (b, a)
            with outer:
                try:
                    with inner:
                        pass
                except LockOrderError:
                    assert not a_first, f"A->B refused in {orders}"
                else:
                    assert a_first, f"B->A allowed in {orders}"
        assert len(state.violations()) == orders.count(False)
        assert state.held_names() == []

    def test_cross_thread_ordering_also_detected(self):
        """An out-of-order nesting raises in the thread that attempts it."""
        state = new_state("A", "B")
        a, b = make_lock(state, "A"), make_lock(state, "B")
        errors = []

        def invert():
            with b:
                try:
                    with a:
                        pass
                except LockOrderError as error:
                    errors.append(error)

        with a:
            with b:
                pass
        worker = threading.Thread(target=invert, name="lockdep-invert")
        worker.start()
        worker.join(timeout=5.0)
        assert not worker.is_alive()
        assert len(errors) == 1
        [violation] = state.violations()
        assert violation["thread"] == "lockdep-invert"
        assert state.edges()[("B", "A")].example_thread == "lockdep-invert"

    def test_reentrant_rlock_records_no_self_edge(self):
        state = new_state("R")
        r = TrackedRLock(state, threading.RLock(), "R")
        with r:
            with r:
                pass
        assert ("R", "R") not in state.edges()
        assert state.violations() == []

    def test_trylock_against_rank_records_edge_without_raising(self):
        """A failed try-acquire backs off and cannot wedge: it is exempt
        from the rank check, but its edge is still recorded."""
        state = new_state("A", "B")
        a, b = make_lock(state, "A"), make_lock(state, "B")
        with b:
            assert a.acquire(blocking=False)
            a.release()
        assert state.violations() == []
        assert state.edges()[("B", "A")].trylock == 1
        assert state.edges()[("B", "A")].blocking == 0

    def test_condition_wait_releases_held_set(self):
        """While parked in ``wait()`` the lock is NOT held: acquisitions
        made by the woken path must not order against it."""
        state = new_state("L", "C")
        cond = TrackedCondition(state, threading.Condition(), "C")
        other = make_lock(state, "L")
        ready = threading.Event()

        def waiter():
            with cond:
                ready.set()
                cond.wait(timeout=5.0)
                # re-acquired: a fresh held segment begins
                assert state.held_names() == ["C"]

        worker = threading.Thread(target=waiter, name="lockdep-waiter")
        worker.start()
        assert ready.wait(timeout=5.0)
        with other:  # acquired while the waiter sits inside wait()
            with cond:
                cond.notify_all()
        worker.join(timeout=5.0)
        assert not worker.is_alive()
        # the waiter never held C while L was taken — no C->L edge from
        # this interleaving, only the deliberate L->C nesting above
        assert ("C", "L") not in state.edges()
        assert ("L", "C") in state.edges()
        assert state.violations() == []

    def test_cross_thread_semaphore_release_pops_acquirer_entry(self):
        """A slot released by another thread (Timer-style hand-off) must
        retire the acquirer's stack entry — otherwise every later
        acquisition on the acquiring thread hangs phantom edges off it."""
        state = new_state("S", "L")
        sem = TrackedSemaphore(state, threading.BoundedSemaphore(1), "S")
        lock = make_lock(state, "L")
        assert sem.acquire()
        releaser = threading.Thread(target=sem.release, name="lockdep-releaser")
        releaser.start()
        releaser.join()
        assert state.held_names() == []
        with lock:
            pass
        assert ("S", "L") not in state.edges()

    def test_held_duration_histogram_observed(self):
        registry = MetricsRegistry()
        state = LockdepState(("Timed.L",), metrics=registry)
        lock = make_lock(state, "Timed.L")
        with lock:
            time.sleep(0.002)
        histogram = held_seconds(registry, "Timed.L")
        assert histogram.count == 1
        assert histogram.sum > 0.0

    def test_held_time_through_tracked_registry_terminates(self):
        """With ``repro.obs.metrics`` tracked, recording a held time may
        create its histogram under the registry's own tracked lock, whose
        release records a held time again; that observation must find
        its histogram and stop."""
        registry = MetricsRegistry()
        state = LockdepState(("A", "MetricsRegistry._lock"), metrics=registry)
        registry._lock = TrackedLock(state, threading.Lock(), "MetricsRegistry._lock")
        with make_lock(state, "A"):
            pass
        assert held_seconds(registry, "A").count == 1
        # one held segment per histogram the registry lock created
        assert held_seconds(registry, "MetricsRegistry._lock").count == 2
        assert state.violations() == []

    def test_graph_dump_is_json_able(self):
        state = new_state("A", "B")
        a, b = make_lock(state, "A"), make_lock(state, "B")
        with a:
            with b:
                pass
        graph = json.loads(json.dumps(state.graph()))
        assert graph["order"] == ["A", "B"]
        assert graph["locks"] == ["A", "B"]
        assert graph["acquires"] == 2
        assert graph["violations"] == []
        assert graph["edges"][0]["source"] == "A"
        assert graph["edges"][0]["target"] == "B"


# ----------------------------------------------------------------------
# facade + install
# ----------------------------------------------------------------------
class TestFacade:
    def test_facade_constructs_tracked_primitives(self):
        facade = ThreadingFacade(new_state())
        assert isinstance(facade.Lock(), TrackedLock)
        assert isinstance(facade.RLock(), TrackedRLock)
        assert isinstance(facade.Condition(), TrackedCondition)
        assert isinstance(facade.Semaphore(2), TrackedSemaphore)
        assert isinstance(facade.BoundedSemaphore(1), TrackedSemaphore)
        # everything else falls through to the real module
        assert facade.Event is threading.Event
        assert facade.current_thread is threading.current_thread

    def test_condition_unwraps_tracked_lock_argument(self):
        """Condition(tracked_lock) shares the *inner* primitive — one
        acquisition, one held entry, no double tracking."""
        state = new_state("Owner._cond")
        facade = ThreadingFacade(state)

        class Owner:
            def __init__(self):
                self._lock = facade.Lock()
                self._cond = facade.Condition(self._lock)

        owner = Owner()
        assert owner._cond._inner._lock is owner._lock._inner
        with owner._cond:
            assert state.held_names() == ["Owner._cond"]
            # the shared primitive really is taken
            assert not owner._lock._inner.acquire(blocking=False)

    def test_derived_names_use_class_and_attribute(self):
        facade = ThreadingFacade(new_state())

        class Owner:
            def __init__(self):
                self.my_lock = facade.Lock()

        owner = Owner()
        assert owner.my_lock.lockdep_name == "Owner.my_lock"

    def test_install_is_scoped_and_reversible(self):
        if lockdep.active_state() is not None:
            pytest.skip("global lockdep install active (REPRO_LOCKDEP=1)")
        import repro.serve.server as server_module

        original = server_module.threading
        state = lockdep.install(["repro.serve.server"])
        try:
            assert lockdep.active_state() is state
            assert state.order == LOCK_ORDER
            assert isinstance(server_module.threading, ThreadingFacade)
            # idempotent: second install returns the same state
            assert lockdep.install(["repro.serve.server"]) is state
        finally:
            lockdep.uninstall()
        assert server_module.threading is original
        assert lockdep.active_state() is None

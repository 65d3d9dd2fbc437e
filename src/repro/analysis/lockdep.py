"""Runtime lockdep: instrumented locks checked against a declared order.

:data:`LOCK_ORDER` ranks every threading primitive in ``src/``,
outermost first.  :func:`install` replaces the ``threading`` attribute
of the modules that construct them with a facade whose
``Lock``/``RLock``/``Condition``/``Semaphore`` factories return tracked
wrappers.  Every wrapper checks each acquire *attempt*, before
the real acquire can block:

* acquiring a lock whose name is not in the order is a violation (this
  covers the ``file.py:lineno`` fallback names);
* a blocking acquire made while the thread holds a lock of equal or
  higher rank is a violation.  Reentrant acquires are not.  Try-acquires
  cannot wedge (the failed path backs off), so they are exempt from the
  rank check, though their edges are still recorded.

A violation is recorded on the state and raised as
:class:`LockOrderError` in the acquiring thread, so an inversion fails
the first time it is attempted, not once both orders have been seen.
Under a total order every potential-deadlock cycle contains an edge
that goes against rank, so no cycle detection is needed.  The state
also records the observed (held → acquired) edges, and held durations
feed ``lockdep_held_seconds`` histograms in the
:mod:`repro.obs.metrics` registry.  Lock identities are class-qualified
(``ClassName.attr``), derived by inspecting the constructing frame.

Usage (the whole test suite)::

    REPRO_LOCKDEP=1 pytest tests/    # conftest installs, fails on violations

or programmatic::

    state = lockdep.install()
    try:
        ... exercise the serving stack ...
    finally:
        lockdep.uninstall()
    assert not state.violations()

Non-goals: this is a development/CI harness, not production
instrumentation — wrappers cost a dict update per acquire and are never
installed unless asked for.
"""

from __future__ import annotations

import importlib
import linecache
import os
import re
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

#: every threading primitive in ``src/``, outermost first: a thread may
#: block on a lock only while every lock it holds ranks before it.  The
#: estimate slot is held across a whole estimate, which reads through
#: the generation gate and, on serialised backends, the read serialiser;
#: the registry lock guards instrument creation only and takes nothing
#: else, so it is the leaf.
LOCK_ORDER: Tuple[str, ...] = (
    "EstimationServer._estimate_slots",
    "GenerationManager._cond",
    "EstimationServer._read_serialiser",
    "EstimationServer._conn_lock",
    "EstimationServer._inflight_cond",
    "MetricsRegistry._lock",
)

#: modules whose ``threading`` attribute :func:`install` replaces: the
#: ones constructing a primitive named in :data:`LOCK_ORDER`
DEFAULT_MODULES: Tuple[str, ...] = (
    "repro.serve.server",
    "repro.serve.generations",
    "repro.obs.metrics",
)

#: histogram buckets for held durations: locks here are held for
#: microseconds (queue handoff) up to whole estimates (~seconds)
HELD_SECONDS_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.001, 0.01, 0.1, 0.5, 1.0, 5.0, 30.0,
)

_ASSIGN_RE = re.compile(r"self\.(\w+)\s*(?::[^=]+?)?=")


class LockOrderError(RuntimeError):
    """An acquire broke the declared lock order (raised before it ran)."""


# ----------------------------------------------------------------------
# observed-graph state
# ----------------------------------------------------------------------
@dataclass
class EdgeStats:
    """How one (held → acquired) ordering was observed."""

    blocking: int = 0
    trylock: int = 0
    #: name of a thread that recorded the edge (first occurrence)
    example_thread: str = ""

    @property
    def count(self) -> int:
        return self.blocking + self.trylock

    def to_dict(self) -> Dict[str, Any]:
        return {
            "blocking": self.blocking,
            "trylock": self.trylock,
            "example_thread": self.example_thread,
        }


@dataclass
class _Held:
    """One entry of a thread's held-lock stack."""

    name: str
    since: float


class LockdepState:
    """The declared order, the observed graph and per-thread held stacks.

    Checks and edge recording happen at acquire-*attempt* time, before
    the real acquire can block — an out-of-order acquire raises instead
    of wedging.  Reentrant acquires (RLock depth > 1) record no edge and
    are never a violation: a lock cannot order against itself.
    """

    def __init__(self, order: Sequence[str], metrics: Optional[Any] = None) -> None:
        self.order = tuple(order)
        self._rank = {name: rank for rank, name in enumerate(self.order)}
        self._mutex = threading.Lock()
        #: thread ident → that thread's held stack.  A shared dict (not
        #: ``threading.local``) because semaphore slots are legitimately
        #: released by a *different* thread than the one that acquired
        #: them — a thread-local stack would keep the acquirer's entry
        #: forever and hang phantom edges off it.
        self._stacks: Dict[int, List[_Held]] = {}
        self._edges: Dict[Tuple[str, str], EdgeStats] = {}
        self._violations: List[Dict[str, Any]] = []
        self._locks_seen: Set[str] = set()
        self._acquires = 0
        self._metrics = metrics

    # -- held-stack plumbing -------------------------------------------
    def _my_stack(self) -> List[_Held]:
        """The calling thread's stack; the mutex must be held."""
        return self._stacks.setdefault(threading.get_ident(), [])

    def held_names(self) -> List[str]:
        """The calling thread's currently held locks, outermost first."""
        with self._mutex:
            return [entry.name for entry in self._my_stack()]

    # -- recording ------------------------------------------------------
    def note_attempt(self, name: str, *, blocking: bool) -> None:
        """Record an acquire attempt; raise if it breaks the order."""
        with self._mutex:
            stack = self._my_stack()
            self._locks_seen.add(name)
            self._acquires += 1
            if any(entry.name == name for entry in stack):
                return  # reentrant: no self-ordering
            thread_name = threading.current_thread().name
            for entry in stack:
                stats = self._edges.setdefault((entry.name, name), EdgeStats())
                if blocking:
                    stats.blocking += 1
                else:
                    stats.trylock += 1
                if not stats.example_thread:
                    stats.example_thread = thread_name
            rank = self._rank.get(name)
            held = [entry.name for entry in stack]
            if rank is None:
                problem = "is not declared in the lock order"
            else:
                later = [other for other in held if self._rank[other] >= rank]
                if not blocking or not later:
                    return
                problem = f"is ranked before held {', '.join(later)}"
            violation = {
                "lock": name,
                "held": held,
                "thread": thread_name,
                "problem": problem,
            }
            self._violations.append(violation)
        raise LockOrderError(
            f"lockdep: thread {thread_name!r} acquiring {name} while holding "
            f"{', '.join(held) or 'nothing'}: {name} {problem}"
        )

    def note_acquired(self, name: str) -> None:
        with self._mutex:
            self._my_stack().append(_Held(name, time.monotonic()))

    def note_release(self, name: str) -> None:
        entry: Optional[_Held] = None
        with self._mutex:
            stack = self._my_stack()
            for index in range(len(stack) - 1, -1, -1):
                if stack[index].name == name:
                    entry = stack.pop(index)
                    break
            else:
                # cross-thread release (a Timer returning a semaphore
                # slot, a hand-off protocol): retire the oldest matching
                # entry from whichever thread acquired it
                for other in self._stacks.values():
                    for index, candidate in enumerate(other):
                        if candidate.name == name:
                            entry = other.pop(index)
                            break
                    if entry is not None:
                        break
        if entry is not None:
            self._observe_held(name, time.monotonic() - entry.since)
        # no entry at all: released a primitive acquired before install()

    def note_wait(self, name: str) -> Optional[float]:
        """``Condition.wait`` releases the lock: pop it for the duration."""
        with self._mutex:
            stack = self._my_stack()
            for index in range(len(stack) - 1, -1, -1):
                if stack[index].name == name:
                    entry = stack.pop(index)
                    break
            else:
                return None
        self._observe_held(name, time.monotonic() - entry.since)
        return entry.since

    def note_wait_done(self, name: str, token: Optional[float]) -> None:
        if token is not None:
            # re-acquired inside wait(): a fresh held segment begins
            with self._mutex:
                self._my_stack().append(_Held(name, time.monotonic()))

    def _observe_held(self, name: str, seconds: float) -> None:
        # the registry's own lock may be tracked: creating a histogram
        # takes it, and its release observes again.  That recursion ends
        # once the registry lock's own histogram exists (one more
        # creation at most), because a lookup that hits takes no lock.
        registry = self._metrics
        if registry is None:
            from repro.obs.metrics import get_global_registry

            registry = get_global_registry()
        registry.histogram(
            "lockdep_held_seconds", buckets=HELD_SECONDS_BUCKETS, lock=name
        ).observe(seconds)

    # -- queries --------------------------------------------------------
    def edges(self) -> Dict[Tuple[str, str], EdgeStats]:
        with self._mutex:
            return dict(self._edges)

    def violations(self) -> List[Dict[str, Any]]:
        """Every acquire refused so far, in the order they were attempted."""
        with self._mutex:
            return [dict(violation) for violation in self._violations]

    def graph(self) -> Dict[str, Any]:
        """JSON-able dump of everything observed so far."""
        with self._mutex:
            edges = sorted(self._edges.items())
            locks = sorted(self._locks_seen)
            acquires = self._acquires
        return {
            "order": list(self.order),
            "locks": locks,
            "acquires": acquires,
            "edges": [
                {"source": source, "target": target, **stats.to_dict()}
                for (source, target), stats in edges
            ],
            "violations": self.violations(),
        }


# ----------------------------------------------------------------------
# tracked primitives
# ----------------------------------------------------------------------
def _looks_blocking(blocking: bool, timeout: Optional[float]) -> bool:
    return blocking and (timeout is None or timeout != 0)


class _TrackedBase:
    """Shared acquire/release bookkeeping for all tracked primitives."""

    def __init__(self, state: LockdepState, inner: Any, name: str) -> None:
        self._state = state
        self._inner = inner
        self.lockdep_name = name

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        effective_timeout = None if timeout == -1 else timeout
        self._state.note_attempt(
            self.lockdep_name,
            blocking=_looks_blocking(blocking, effective_timeout),
        )
        acquired = bool(self._inner.acquire(blocking, timeout))
        if acquired:
            self._state.note_acquired(self.lockdep_name)
        return acquired

    def release(self) -> None:
        self._inner.release()
        self._state.note_release(self.lockdep_name)

    def __enter__(self) -> "_TrackedBase":
        self.acquire()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<lockdep {type(self).__name__} {self.lockdep_name!r} of {self._inner!r}>"

    def __getattr__(self, attr: str) -> Any:
        return getattr(self._inner, attr)


class TrackedLock(_TrackedBase):
    pass


class TrackedRLock(_TrackedBase):
    pass


class TrackedSemaphore(_TrackedBase):
    def acquire(self, blocking: bool = True, timeout: Optional[float] = None) -> bool:
        self._state.note_attempt(
            self.lockdep_name, blocking=_looks_blocking(blocking, timeout)
        )
        acquired = bool(self._inner.acquire(blocking, timeout))
        if acquired:
            self._state.note_acquired(self.lockdep_name)
        return acquired


class TrackedCondition(_TrackedBase):
    """Condition wrapper; ``wait`` un-holds the condition while parked.

    Waiting on the held condition is the one blocking-while-holding
    pattern that is *correct* (the wait releases the lock), so the
    held-set must not contain the condition during the wait — otherwise
    every lock acquired by the thread that eventually notifies would
    appear to order after this condition.
    """

    def wait(self, timeout: Optional[float] = None) -> bool:
        token = self._state.note_wait(self.lockdep_name)
        try:
            return bool(self._inner.wait(timeout))
        finally:
            self._state.note_wait_done(self.lockdep_name, token)

    def wait_for(self, predicate: Any, timeout: Optional[float] = None) -> Any:
        token = self._state.note_wait(self.lockdep_name)
        try:
            return self._inner.wait_for(predicate, timeout)
        finally:
            self._state.note_wait_done(self.lockdep_name, token)

    def notify(self, n: int = 1) -> None:
        self._inner.notify(n)

    def notify_all(self) -> None:
        self._inner.notify_all()


# ----------------------------------------------------------------------
# naming: which ``self.attr = threading.X()`` created this primitive?
# ----------------------------------------------------------------------
def _derive_name(kind: str) -> str:
    """Class-qualified name for the primitive being constructed.

    Walks out of this module's frames to the construction site, takes
    the class name from the caller's ``self``, and scans a few source
    lines upward from the call for the ``self.attr = …`` assignment
    target (upward because a multi-line initialiser, e.g. a conditional
    ``None if … else threading.Lock()``, reports the *last* line of the
    expression).  Falls back to ``file.py:lineno`` when the site is not
    an attribute assignment; such a name is never in the lock order, so
    acquiring that primitive is a violation.
    """
    frame = sys._getframe(1)
    while frame is not None and frame.f_globals.get("__file__") == __file__:
        frame = frame.f_back
    if frame is None:  # pragma: no cover - only with exotic embedding
        return f"<unknown {kind}>"
    self_obj = frame.f_locals.get("self")
    filename = frame.f_code.co_filename
    lineno = frame.f_lineno
    if self_obj is not None:
        for candidate in range(lineno, max(lineno - 6, 0), -1):
            match = _ASSIGN_RE.search(linecache.getline(filename, candidate))
            if match is not None:
                return f"{type(self_obj).__name__}.{match.group(1)}"
    return f"{os.path.basename(filename)}:{lineno}"


class ThreadingFacade:
    """Drop-in for a module's ``threading`` attribute.

    The lock factories return tracked wrappers; everything else
    (``Thread``, ``Event``, ``local``, …) delegates to the real module,
    so patched modules behave identically apart from the bookkeeping.
    """

    def __init__(self, state: LockdepState) -> None:
        self._state = state

    def Lock(self) -> TrackedLock:  # noqa: N802 - mirrors threading's API
        return TrackedLock(self._state, threading.Lock(), _derive_name("Lock"))

    def RLock(self) -> TrackedRLock:  # noqa: N802
        return TrackedRLock(self._state, threading.RLock(), _derive_name("RLock"))

    def Condition(self, lock: Optional[Any] = None) -> TrackedCondition:  # noqa: N802
        if isinstance(lock, _TrackedBase):
            lock = lock._inner
        return TrackedCondition(
            self._state, threading.Condition(lock), _derive_name("Condition")
        )

    def Semaphore(self, value: int = 1) -> TrackedSemaphore:  # noqa: N802
        return TrackedSemaphore(
            self._state, threading.Semaphore(value), _derive_name("Semaphore")
        )

    def BoundedSemaphore(self, value: int = 1) -> TrackedSemaphore:  # noqa: N802
        return TrackedSemaphore(
            self._state, threading.BoundedSemaphore(value), _derive_name("BoundedSemaphore")
        )

    def __getattr__(self, attr: str) -> Any:
        return getattr(threading, attr)


# ----------------------------------------------------------------------
# install / uninstall
# ----------------------------------------------------------------------
_installed: Dict[str, Any] = {}
_active_state: Optional[LockdepState] = None


def install(modules: Sequence[str] = DEFAULT_MODULES) -> LockdepState:
    """Patch ``modules`` to construct tracked primitives; idempotent.

    The state checks against :data:`LOCK_ORDER`.  Only primitives
    constructed *after* install are tracked — install before building
    servers/managers (the conftest hook runs at import time, ahead of
    every fixture, for exactly this reason).
    """
    global _active_state
    if _active_state is not None:
        return _active_state
    _active_state = LockdepState(LOCK_ORDER)
    facade = ThreadingFacade(_active_state)
    for name in modules:
        module = importlib.import_module(name)
        _installed[name] = module.threading
        module.threading = facade  # type: ignore[attr-defined]
    return _active_state


def uninstall() -> None:
    """Restore every patched module's real ``threading``."""
    global _active_state
    for name, original in _installed.items():
        module = sys.modules.get(name)
        if module is not None:
            module.threading = original  # type: ignore[attr-defined]
    _installed.clear()
    _active_state = None


def active_state() -> Optional[LockdepState]:
    """The state installed by :func:`install`, if any."""
    return _active_state


__all__ = [
    "DEFAULT_MODULES",
    "EdgeStats",
    "HELD_SECONDS_BUCKETS",
    "LOCK_ORDER",
    "LockOrderError",
    "LockdepState",
    "ThreadingFacade",
    "TrackedCondition",
    "TrackedLock",
    "TrackedRLock",
    "TrackedSemaphore",
    "active_state",
    "install",
    "uninstall",
]

"""Runtime lockdep: instrumented locks that learn the acquisition graph.

The static half of the concurrency sanitizer
(:mod:`repro.analysis.concurrency`) predicts the lock-order graph from
the AST; this module *observes* it.  :func:`install` replaces the
``threading`` attribute of the serving-path modules with a facade whose
``Lock``/``RLock``/``Condition``/``BoundedSemaphore`` factories return
tracked wrappers.  Every wrapper records, at acquire time, an edge from
each lock the calling thread already holds to the one being acquired —
so a potential deadlock (two threads taking the same pair of locks in
opposite orders) is reported even on runs that never actually
deadlocked.  Held durations feed ``lockdep_held_seconds`` histograms in
the :mod:`repro.obs.metrics` registry.

The two halves cross-check each other: ``repro lockdep-report`` asserts
that every *observed* edge is present in the *static* model.  An
observed edge the static pass cannot derive means the model lost track
of an acquisition path — itself a finding.  Lock identities are
class-qualified (``ClassName.attr``, derived by inspecting the
constructing frame) so both halves speak the same names.

Usage (the whole test suite)::

    REPRO_LOCKDEP=1 pytest tests/test_serve.py    # conftest installs
    repro lockdep-report --graph lockdep_graph.json --src src

or programmatic::

    state = lockdep.install()
    try:
        ... exercise the serving stack ...
    finally:
        lockdep.uninstall()
    assert not state.cycles()

Non-goals: this is a development/CI harness, not production
instrumentation — wrappers cost a dict update per acquire and are never
installed unless asked for.
"""

from __future__ import annotations

import argparse
import importlib
import json
import linecache
import os
import re
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.concurrency import find_cycles

#: modules whose ``threading`` attribute :func:`install` replaces —
#: the concurrent serving path.  ``repro.obs.metrics`` is deliberately
#: absent: its registry lock guards engine-internal metric factories the
#: static model cannot see through, so tracking it would manufacture
#: observed edges with no static counterpart.
DEFAULT_MODULES: Tuple[str, ...] = (
    "repro.serve.server",
    "repro.serve.generations",
    "repro.cluster.coordinator",
)

#: histogram buckets for held durations: locks here are held for
#: microseconds (queue handoff) up to whole estimates (~seconds)
HELD_SECONDS_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.001, 0.01, 0.1, 0.5, 1.0, 5.0, 30.0,
)

_ASSIGN_RE = re.compile(r"self\.(\w+)\s*(?::[^=]+?)?=")


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
    """The global order graph plus per-thread held-lock stacks.

    Edge recording happens at acquire-*attempt* time, before the real
    acquire can block — a genuine deadlock still leaves the inversion in
    the graph.  Reentrant acquires (RLock depth > 1) record no edge: a
    lock cannot order against itself.
    """

    def __init__(self, metrics: Optional[Any] = None) -> None:
        self._mutex = threading.Lock()
        #: thread ident → that thread's held stack.  A shared dict (not
        #: ``threading.local``) because semaphore slots are legitimately
        #: released by a *different* thread than the one that acquired
        #: them — a thread-local stack would keep the acquirer's entry
        #: forever and hang phantom edges off it.
        self._stacks: Dict[int, List[_Held]] = {}
        self._edges: Dict[Tuple[str, str], EdgeStats] = {}
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
        registry = self._metrics
        if registry is None:
            from repro.obs.metrics import get_global_registry

            registry = get_global_registry()
        registry.histogram(
            "lockdep_held_seconds", buckets=HELD_SECONDS_BUCKETS, lock=name
        ).observe(seconds)

    # -- queries --------------------------------------------------------
    def edges(self, *, include_trylock: bool = True) -> Dict[Tuple[str, str], EdgeStats]:
        with self._mutex:
            if include_trylock:
                return dict(self._edges)
            return {
                key: stats
                for key, stats in self._edges.items()
                if stats.blocking > 0
            }

    def cycles(self) -> List[List[str]]:
        """Potential-deadlock cycles among *blocking* edges.

        An edge recorded only by try-acquires cannot wedge (the failed
        path backs off), so trylock-only edges are excluded here — but
        they still count for the static-subgraph comparison.
        """
        return find_cycles(self.edges(include_trylock=False).keys())

    def graph(self) -> Dict[str, Any]:
        """JSON-able dump of everything observed so far."""
        with self._mutex:
            edges = sorted(self._edges.items())
            locks = sorted(self._locks_seen)
            acquires = self._acquires
        return {
            "locks": locks,
            "acquires": acquires,
            "edges": [
                {"source": source, "target": target, **stats.to_dict()}
                for (source, target), stats in edges
            ],
            "cycles": self.cycles(),
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
    an attribute assignment; those names still participate in the graph
    but cannot match the static model.
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

    The four lock factories return tracked wrappers; everything else
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
_MISSING = object()  # module had no `threading` attribute before install
_installed: Dict[str, Any] = {}
_active_state: Optional[LockdepState] = None


def install(
    modules: Sequence[str] = DEFAULT_MODULES,
    *,
    state: Optional[LockdepState] = None,
    metrics: Optional[Any] = None,
) -> LockdepState:
    """Patch ``modules`` to construct tracked primitives; idempotent.

    Only primitives constructed *after* install are tracked — install
    before building servers/managers (the conftest hook runs at import
    time, ahead of every fixture, for exactly this reason).
    """
    global _active_state
    if _active_state is not None:
        return _active_state
    _active_state = state if state is not None else LockdepState(metrics=metrics)
    facade = ThreadingFacade(_active_state)
    for name in modules:
        module = importlib.import_module(name)
        _installed[name] = getattr(module, "threading", _MISSING)
        module.threading = facade  # type: ignore[attr-defined]
    return _active_state


def uninstall() -> None:
    """Restore every patched module's real ``threading``."""
    global _active_state
    for name, original in _installed.items():
        module = sys.modules.get(name)
        if module is None:
            continue
        if original is _MISSING:
            delattr(module, "threading")
        else:
            module.threading = original  # type: ignore[attr-defined]
    _installed.clear()
    _active_state = None


def active_state() -> Optional[LockdepState]:
    """The state installed by :func:`install`, if any."""
    return _active_state


# ----------------------------------------------------------------------
# report: observed graph vs static model
# ----------------------------------------------------------------------
def unexplained_edges(
    observed: Iterable[Tuple[str, str]], src_paths: Sequence[str]
) -> List[Tuple[str, str]]:
    """Observed edges the static model cannot derive.

    The static graph must over-approximate the runtime one — any
    observed edge without a static counterpart means the AST pass lost
    an acquisition path (an unresolved call, a lock constructed outside
    ``__init__``, …).  Edges whose endpoints never matched a
    ``Class.attr`` name (``file.py:lineno`` fallbacks) are reported too:
    a lock the static model cannot even *name* is equally a blind spot.
    """
    from repro.analysis.concurrency import build_lock_model
    from repro.analysis.engine import load_project

    project, _errors = load_project(list(src_paths))
    static_keys = build_lock_model(project).edge_keys
    return [edge for edge in observed if edge not in static_keys]


def build_lockdep_report_parser(
    parser: Optional[argparse.ArgumentParser] = None,
) -> argparse.ArgumentParser:
    """Arguments of ``repro lockdep-report``."""
    if parser is None:
        parser = argparse.ArgumentParser(
            prog="repro lockdep-report",
            description="check an observed lock-order graph against the static model",
        )
    parser.add_argument(
        "--graph",
        default="lockdep_graph.json",
        help="observed-graph JSON written by the REPRO_LOCKDEP=1 test run",
    )
    parser.add_argument(
        "--src", nargs="+", default=["src"], metavar="PATH",
        help="source paths for the static lock model (default: src)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )
    return parser


def run_lockdep_report_from_args(args: argparse.Namespace) -> int:
    """``repro lockdep-report``: 0 = acyclic and fully explained."""
    try:
        with open(args.graph, "r", encoding="utf-8") as handle:
            graph = json.load(handle)
    except OSError as error:
        print(f"error: cannot read graph {args.graph!r}: {error}")  # noqa: T201 - CLI output
        return 2
    observed = [(edge["source"], edge["target"]) for edge in graph.get("edges", [])]
    blocking = [
        (edge["source"], edge["target"])
        for edge in graph.get("edges", [])
        if edge.get("blocking", 0) > 0
    ]
    cycles = find_cycles(blocking)
    unexplained = unexplained_edges(observed, args.src)
    verdict = {
        "locks": graph.get("locks", []),
        "acquires": graph.get("acquires", 0),
        "observed_edges": [list(edge) for edge in observed],
        "cycles": cycles,
        "unexplained_edges": [list(edge) for edge in unexplained],
        "ok": not cycles and not unexplained,
    }
    if args.format == "json":
        print(json.dumps(verdict, indent=2, sort_keys=True))  # noqa: T201 - CLI output
    else:
        print(  # noqa: T201 - CLI output
            f"lockdep: {len(verdict['locks'])} lock(s), "
            f"{verdict['acquires']} acquire(s), {len(observed)} ordered edge(s)"
        )
        for source, target in observed:
            marker = "" if (source, target) not in unexplained else "   [NOT IN STATIC MODEL]"
            print(f"  {source} -> {target}{marker}")  # noqa: T201 - CLI output
        for cycle in cycles:
            print(f"  CYCLE: {' -> '.join(cycle)}")  # noqa: T201 - CLI output
        if verdict["ok"]:
            print("lockdep: observed graph is acyclic and a subgraph of the static model")  # noqa: T201 - CLI output
        else:
            print("lockdep: FAIL")  # noqa: T201 - CLI output
    return 0 if verdict["ok"] else 1


__all__ = [
    "DEFAULT_MODULES",
    "EdgeStats",
    "HELD_SECONDS_BUCKETS",
    "LockdepState",
    "ThreadingFacade",
    "TrackedCondition",
    "TrackedLock",
    "TrackedRLock",
    "TrackedSemaphore",
    "active_state",
    "build_lockdep_report_parser",
    "install",
    "run_lockdep_report_from_args",
    "uninstall",
    "unexplained_edges",
]

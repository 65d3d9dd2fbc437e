"""The repo-specific rules: the contracts this codebase actually lives by.

Every rule encodes an invariant that used to be enforced only by runtime
tests (or by reviewers remembering it).  See the README's "Static
analysis" section for the rule table and the pragma syntax; each rule's
docstring states the contract and where it came from.

==== ======================= ==========================================
R001 seed-discipline         no unseeded/derived-from-wall-clock RNGs
                             in library code outside ``rng.py``
R002 lock-guard-discipline   attributes written under ``self._lock``
                             are never mutated outside it
R005 pickle-boundary         ``pickle.load(s)`` only in the transport
R006 all-parity              ``__all__`` matches the public defs
R007 broad-except            ``except Exception`` must be deliberate
                             (pragma with a reason) or narrowed
R010 lock-leak               bare ``.acquire()`` needs a ``finally``-
                             guaranteed ``.release()``
==== ======================= ==========================================

Three contracts need no rule because they are declared and checked at
runtime instead: the lock order in
:data:`repro.analysis.lockdep.LOCK_ORDER` (checked at every acquire
under ``REPRO_LOCKDEP=1``), snapshot state in :mod:`repro.state`
(checked on every restore), and the two protocol op tables — the
``op_*`` methods of :class:`~repro.shard.ops.ShardWorker` and
``EstimationServer._HANDLERS`` — which tier-1 tests compare with the
ops their callers send.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.engine import Finding, Project, Rule, SourceModule

# ----------------------------------------------------------------------
# shared AST helpers
# ----------------------------------------------------------------------
_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for Attribute/Name chains, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def iter_calls(tree: ast.AST) -> Iterable[ast.Call]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node


def _contains_call_to(node: ast.AST, names: Set[str]) -> bool:
    for call in iter_calls(node):
        name = dotted_name(call.func)
        if name is not None and name in names:
            return True
    return False


# ----------------------------------------------------------------------
# R001 — seed discipline
# ----------------------------------------------------------------------
class SeedDisciplineRule(Rule):
    """The bit-identity contract: all randomness flows from explicit seeds.

    Every estimator in this library is only reproducible because every
    stochastic component threads a seeded generator through
    :mod:`repro.rng`.  Library code must therefore never reach for an
    OS-seeded generator (``np.random.default_rng()`` with no argument),
    the legacy numpy global state (``np.random.seed`` / ``np.random.rand``
    …), the stdlib :mod:`random` module, or a seed derived from the wall
    clock.  ``rng.py`` itself is exempt — it is the one place the
    ``None`` → OS-seeded spelling is implemented.
    """

    id = "R001"
    name = "seed-discipline"
    description = (
        "no unseeded default_rng()/stdlib random/time-derived seeds in "
        "library code outside rng.py"
    )

    _LEGACY_NP = {
        "seed", "rand", "randn", "randint", "random", "random_sample",
        "shuffle", "permutation", "choice", "uniform", "normal",
    }
    _CLOCK_CALLS = {
        "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
        "datetime.now", "datetime.datetime.now", "datetime.utcnow",
        "datetime.datetime.utcnow",
    }
    _SEEDED_CTORS = {
        "np.random.default_rng", "numpy.random.default_rng", "default_rng",
        "np.random.seed", "numpy.random.seed",
        "np.random.RandomState", "numpy.random.RandomState",
        "ensure_rng", "random.Random", "random.seed",
    }

    def check_module(self, module: SourceModule, project: Project) -> Iterable[Finding]:
        if module.basename == "rng.py":
            return []
        findings: List[Finding] = []
        imports_stdlib_random = False
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" and alias.asname is None:
                        imports_stdlib_random = True
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random" and node.level == 0:
                    findings.append(
                        self.finding(
                            module, node,
                            "stdlib `random` import in library code — all "
                            "randomness must flow through repro.rng seeds",
                        )
                    )
        for call in iter_calls(module.tree):
            name = dotted_name(call.func)
            if name is None:
                continue
            if name in ("np.random.default_rng", "numpy.random.default_rng"):
                if not call.args and not call.keywords:
                    findings.append(
                        self.finding(
                            module, call,
                            "unseeded np.random.default_rng() in library code "
                            "— take a RandomState and use repro.rng.ensure_rng",
                        )
                    )
            elif name in (
                "np.random.RandomState", "numpy.random.RandomState"
            ) and not call.args and not call.keywords:
                findings.append(
                    self.finding(
                        module, call,
                        "unseeded np.random.RandomState() in library code",
                    )
                )
            elif name.startswith(("np.random.", "numpy.random.")):
                tail = name.rsplit(".", 1)[-1]
                if tail in self._LEGACY_NP:
                    findings.append(
                        self.finding(
                            module, call,
                            f"legacy numpy global-state RNG call `{name}` — "
                            "shared mutable state breaks seeded bit-identity",
                        )
                    )
            elif imports_stdlib_random and name.startswith("random."):
                findings.append(
                    self.finding(
                        module, call,
                        f"stdlib random call `{name}` in library code — all "
                        "randomness must flow through repro.rng seeds",
                    )
                )
            if name in self._SEEDED_CTORS and (
                any(_contains_call_to(arg, self._CLOCK_CALLS) for arg in call.args)
                or any(
                    _contains_call_to(kw.value, self._CLOCK_CALLS)
                    for kw in call.keywords
                )
            ):
                findings.append(
                    self.finding(
                        module, call,
                        f"time-derived seed passed to `{name}` — wall-clock "
                        "seeds are unreproducible by construction",
                    )
                )
        return findings


# ----------------------------------------------------------------------
# R002 — lock-guard discipline
# ----------------------------------------------------------------------
_LOCK_ATTR_RE = re.compile(r"(?i)lock|cond|mutex|sema|seriali[sz]er")

#: method calls that mutate a container in place
_MUTATING_METHODS = {
    "append", "extend", "insert", "add", "remove", "discard", "pop",
    "popitem", "clear", "update", "setdefault", "appendleft", "popleft",
}


class LockGuardRule(Rule):
    """Lock-guard discipline for the concurrent serving layers.

    If a class ever writes ``self.x`` inside a ``with self._lock:``
    block (any ``self`` attribute whose name looks lock-like: ``_lock``,
    ``_cond``, ``_conn_lock``, ``_read_serialiser`` …), then ``x`` is a
    lock-guarded field and every *other* write to it must also hold the
    lock.  ``__init__``/``__new__`` are exempt — construction happens
    before the object is shared.  Writes counted: plain/augmented
    attribute assignment, subscript assignment, ``del``, and in-place
    container mutations (``append``/``pop``/``update`` …).
    """

    id = "R002"
    name = "lock-guard-discipline"
    description = (
        "attributes written under `with self._lock:` must never be "
        "mutated outside one"
    )

    def check_module(self, module: SourceModule, project: Project) -> Iterable[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                findings.extend(self._check_class(module, node))
        return findings

    # -- per-class analysis --------------------------------------------
    def _check_class(self, module: SourceModule, cls: ast.ClassDef) -> List[Finding]:
        # writes: (attr, node, under_lock, in_init)
        writes: List[Tuple[str, ast.AST, bool, bool]] = []

        def is_lock_ctx(item: ast.withitem) -> bool:
            ctx = item.context_expr
            return (
                isinstance(ctx, ast.Attribute)
                and isinstance(ctx.value, ast.Name)
                and ctx.value.id == "self"
                and _LOCK_ATTR_RE.search(ctx.attr) is not None
            )

        def self_attr(node: ast.AST) -> Optional[str]:
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                return node.attr
            return None

        def walk(node: ast.AST, under_lock: bool, in_init: bool) -> None:
            if isinstance(node, ast.ClassDef) and node is not cls:
                return  # nested classes analysed on their own
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                in_init = node.name in ("__init__", "__new__")
            if isinstance(node, (ast.With, ast.AsyncWith)):
                if any(is_lock_ctx(item) for item in node.items):
                    under_lock = True
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    attr = self_attr(target)
                    if attr is not None:
                        writes.append((attr, target, under_lock, in_init))
                    elif isinstance(target, ast.Subscript):
                        attr = self_attr(target.value)
                        if attr is not None:
                            writes.append((attr, target, under_lock, in_init))
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    attr = self_attr(target)
                    if attr is None and isinstance(target, ast.Subscript):
                        attr = self_attr(target.value)
                    if attr is not None:
                        writes.append((attr, target, under_lock, in_init))
            elif isinstance(node, ast.Call):
                if isinstance(node.func, ast.Attribute):
                    attr = self_attr(node.func.value)
                    if attr is not None and node.func.attr in _MUTATING_METHODS:
                        writes.append((attr, node, under_lock, in_init))
            for child in ast.iter_child_nodes(node):
                walk(child, under_lock, in_init)

        for child in ast.iter_child_nodes(cls):
            walk(child, False, False)

        guarded = {attr for attr, _node, under, _init in writes if under}
        # the lock attributes themselves are infrastructure, not data
        guarded = {attr for attr in guarded if _LOCK_ATTR_RE.search(attr) is None}
        findings = []
        for attr, node, under, in_init in writes:
            if attr in guarded and not under and not in_init:
                findings.append(
                    self.finding(
                        module, node,
                        f"`self.{attr}` is written under a lock elsewhere in "
                        f"class {cls.name} but mutated here without one",
                    )
                )
        return findings


# ----------------------------------------------------------------------
# R005 — pickle boundary
# ----------------------------------------------------------------------
class PickleBoundaryRule(Rule):
    """Pickle deserialisation stays behind the transport boundary.

    ``pickle.loads``/``pickle.load`` executes arbitrary callables, so
    the ROADMAP's wire-format migration (structured binary frames for
    untrusted links) only stays honest if deserialisation does not leak
    into new call sites.  The single allowed module is
    ``cluster/transport.py``; anything else (snapshot loaders included)
    must carry an explicit pragma naming its trust justification.
    """

    id = "R005"
    name = "pickle-boundary"
    description = "pickle.load/loads allowed only in cluster/transport.py"

    _ALLOWED_SUFFIX = "cluster/transport.py"

    def check_module(self, module: SourceModule, project: Project) -> Iterable[Finding]:
        if module.path.endswith(self._ALLOWED_SUFFIX):
            return []
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "pickle":
                for alias in node.names:
                    if alias.name in ("load", "loads"):
                        findings.append(
                            self.finding(
                                module, node,
                                f"`from pickle import {alias.name}` outside the "
                                "transport boundary",
                            )
                        )
        for call in iter_calls(module.tree):
            name = dotted_name(call.func)
            if name in ("pickle.load", "pickle.loads", "cPickle.load", "cPickle.loads"):
                findings.append(
                    self.finding(
                        module, call,
                        f"`{name}` outside cluster/transport.py — pickle "
                        "deserialisation is confined to the trusted-link "
                        "transport (pragma with the trust justification if "
                        "this site is deliberate)",
                    )
                )
        return findings


# ----------------------------------------------------------------------
# R006 — __all__ parity
# ----------------------------------------------------------------------
class AllParityRule(Rule):
    """``__all__`` is exactly the public def/class surface, at parse time.

    Promotes the runtime ``test_public_api`` check to lint time: in any
    module declaring ``__all__``, (a) every listed name must be bound at
    module top level (def, class, assignment, or import), and (b) every
    public top-level ``def``/``class`` must be listed.  Modules without
    ``__all__`` are out of scope.
    """

    id = "R006"
    name = "all-parity"
    description = "__all__ must match the module's public defs exactly"

    def check_module(self, module: SourceModule, project: Project) -> Iterable[Finding]:
        dunder_all: Optional[ast.AST] = None
        listed: Optional[List[str]] = None
        bound: Set[str] = set()
        public_defs: Dict[str, ast.AST] = {}
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound.add(node.name)
                if not node.name.startswith("_"):
                    public_defs[node.name] = node
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        bound.add(target.id)
                        if target.id == "__all__":
                            dunder_all = node
                            listed = self._literal_names(node.value)
            elif isinstance(node, ast.AnnAssign):
                if isinstance(node.target, ast.Name):
                    bound.add(node.target.id)
            elif isinstance(node, ast.AugAssign):
                if isinstance(node.target, ast.Name) and node.target.id == "__all__":
                    # `__all__ += [...]`: merge the extension if literal
                    extension = self._literal_names(node.value)
                    if listed is not None and extension is not None:
                        listed.extend(extension)
                    else:
                        listed = None  # dynamic __all__: out of scope
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    bound.add(alias.asname or alias.name.split(".")[0])
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name == "*":
                        return []  # star imports defeat static binding
                    bound.add(alias.asname or alias.name)
        if dunder_all is None or listed is None:
            return []
        findings: List[Finding] = []
        for name in listed:
            if name not in bound and name != "__version__":
                findings.append(
                    self.finding(
                        module, dunder_all,
                        f"__all__ lists {name!r} but the module never binds it",
                    )
                )
        listed_set = set(listed)
        for name, node in sorted(public_defs.items()):
            if name not in listed_set:
                findings.append(
                    self.finding(
                        module, node,
                        f"public {type(node).__name__.replace('Def', '').lower()} "
                        f"`{name}` is missing from __all__ (underscore it or "
                        "export it)",
                    )
                )
        seen: Set[str] = set()
        for name in listed:
            if name in seen:
                findings.append(
                    self.finding(
                        module, dunder_all, f"__all__ lists {name!r} twice"
                    )
                )
            seen.add(name)
        return findings

    @staticmethod
    def _literal_names(node: ast.AST) -> Optional[List[str]]:
        if not isinstance(node, (ast.List, ast.Tuple)):
            return None
        names: List[str] = []
        for element in node.elts:
            if not (isinstance(element, ast.Constant) and isinstance(element.value, str)):
                return None
            names.append(element.value)
        return names


# ----------------------------------------------------------------------
# R007 — broad except
# ----------------------------------------------------------------------
class BroadExceptRule(Rule):
    """Catch-alls must be visibly deliberate.

    ``except Exception`` / ``except BaseException`` (and
    ``contextlib.suppress(Exception)``) around library logic hides real
    failures — the sites that *should* catch everything (a worker serve
    loop reporting errors to its peer, best-effort teardown) carry a
    pragma naming the reason, so reviewers and the linter can tell the
    deliberate catch-alls from accidental ones at a glance.
    """

    id = "R007"
    name = "broad-except"
    description = (
        "except Exception/BaseException must be narrowed or pragma-"
        "annotated as deliberate"
    )

    _BROAD = {"Exception", "BaseException"}

    def check_module(self, module: SourceModule, project: Project) -> Iterable[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                names: List[Optional[str]] = []
                if isinstance(node.type, ast.Tuple):
                    names = [dotted_name(el) for el in node.type.elts]
                else:
                    names = [dotted_name(node.type)]
                broad = [name for name in names if name in self._BROAD]
                if broad:
                    findings.append(
                        self.finding(
                            module, node,
                            f"broad `except {broad[0]}` — narrow it to the "
                            "concrete failure types, or pragma-annotate why "
                            "this site must catch everything",
                        )
                    )
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name in ("contextlib.suppress", "suppress"):
                    for arg in node.args:
                        if dotted_name(arg) in self._BROAD:
                            findings.append(
                                self.finding(
                                    module, node,
                                    "broad `suppress(Exception)` — narrow it, "
                                    "or pragma-annotate why this site must "
                                    "swallow everything",
                                )
                            )
                            break
        return findings


# ----------------------------------------------------------------------
# R010 — lock leak
# ----------------------------------------------------------------------
class LockLeakRule(Rule):
    """Every bare ``.acquire()`` needs a ``finally``-guaranteed release.

    ``with lock:`` releases on every exit path; a bare ``acquire()``
    followed by an exception before ``release()`` holds the lock
    forever.  The rule flags ``X.acquire()`` on a lock-like receiver in
    any function whose own body (nested functions are checked on their
    own) has neither an ``X.release()`` inside a ``finally`` block nor a
    ``with X:``.  Hand-off patterns that release in another function
    need a pragma explaining the protocol.
    """

    id = "R010"
    name = "lock-leak"
    description = (
        "a lock acquired via .acquire() must be released in a finally "
        "block of the same function"
    )

    def check_module(self, module: SourceModule, project: Project) -> Iterable[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                findings.extend(self._check_function(module, node))
        return findings

    def _check_function(
        self, module: SourceModule, func: "ast.FunctionDef | ast.AsyncFunctionDef"
    ) -> List[Finding]:
        acquires: List[Tuple[str, ast.Call]] = []
        released: Set[Optional[str]] = set()

        def walk(node: ast.AST) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, _FUNCTION_NODES):
                    continue
                if isinstance(child, ast.Try):
                    for stmt in child.finalbody:
                        for call in iter_calls(stmt):
                            func_node = call.func
                            if isinstance(func_node, ast.Attribute) and func_node.attr == "release":
                                released.add(dotted_name(func_node.value))
                elif isinstance(child, (ast.With, ast.AsyncWith)):
                    released.update(dotted_name(item.context_expr) for item in child.items)
                elif (
                    isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "acquire"
                ):
                    receiver = dotted_name(child.func.value)
                    if receiver is not None and _LOCK_ATTR_RE.search(receiver):
                        acquires.append((receiver, child))
                walk(child)

        walk(func)
        return [
            self.finding(
                module, call,
                f"`{receiver}.acquire()` in {func.name} has no finally-guaranteed "
                f"`{receiver}.release()` — an exception in between leaks the lock",
            )
            for receiver, call in acquires
            if receiver not in released
        ]


# ----------------------------------------------------------------------
def default_rules() -> List[Rule]:
    """Fresh instances of every shipped rule, in id order."""
    return [
        SeedDisciplineRule(),
        LockGuardRule(),
        PickleBoundaryRule(),
        AllParityRule(),
        BroadExceptRule(),
        LockLeakRule(),
    ]


__all__ = [
    "AllParityRule",
    "BroadExceptRule",
    "LockGuardRule",
    "LockLeakRule",
    "PickleBoundaryRule",
    "SeedDisciplineRule",
    "default_rules",
    "dotted_name",
    "iter_calls",
]

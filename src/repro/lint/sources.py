"""The one model of nondeterminism sources under ``repro lint`` and
``repro certify``.

What counts as a host-dependent callable — a value that can differ
between two correct executions of the same configuration — is decided
here and nowhere else: :data:`CATALOGUE` lists the callables by kind,
:class:`ImportMap` resolves every spelling a module can reach them by,
and :func:`classify_call` answers for one call site.  Which expressions
are unordered sets is decided here too (:func:`is_set_expr`,
:func:`is_set_annotation`, :func:`materialised_set`); each analysis
brings only its own memory of which names it has seen bound to one.  The
RPD checker (:mod:`repro.lint.checker`) maps the answers to rule codes,
the send-determinism certifier (:mod:`repro.lint.sendet`) to taint kinds.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Iterable

__all__ = ["CATALOGUE", "SEEDED_CTORS", "ImportMap", "Source",
           "classify_call", "classify_ref", "is_set_annotation",
           "is_set_expr", "materialised_set", "terminal_name"]

_CLOCK_READS = frozenset({"now", "utcnow", "today"})
_ADDR_BUILTINS = frozenset({"id"})

#: canonical owner (module, or class for the datetime constructors) ->
#: (kind, callables); ``None`` means every attribute of the owner.
#: Kinds: ``rng`` unseeded randomness, ``time`` host clock, ``entropy``
#: OS entropy (a host read to the linter, randomness to the certifier),
#: ``addr`` allocator addresses.
CATALOGUE: dict[str, tuple[str, frozenset[str] | None]] = {
    "random": ("rng", None),
    "numpy.random": ("rng", None),
    "time": ("time", frozenset({
        "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
        "perf_counter_ns", "process_time", "process_time_ns", "clock",
        "clock_gettime", "clock_gettime_ns", "thread_time", "thread_time_ns",
    })),
    "datetime.datetime": ("time", _CLOCK_READS),
    "datetime.date": ("time", _CLOCK_READS),
    "os": ("entropy", frozenset({"urandom"})),
    "builtins": ("addr", _ADDR_BUILTINS),
}

#: generator constructors that are deterministic *when given a seed* —
#: any positional or keyword argument.  Everything else under ``random`` /
#: ``numpy.random`` (``SystemRandom``, the legacy ``RandomState``, the
#: module-level functions, ``seed`` itself) draws from or mutates state
#: the kernel does not own.
SEEDED_CTORS = frozenset({
    "random.Random", "numpy.random.default_rng", "numpy.random.Generator",
    "numpy.random.SeedSequence",
})

_ROOTS = frozenset(owner.split(".")[0] for owner in CATALOGUE) - {"builtins"}


@dataclass(frozen=True)
class Source:
    """One nondeterminism source: its catalogue kind and the canonical
    dotted callable (``numpy.random.rand`` however it was imported)."""

    kind: str
    name: str

    @property
    def label(self) -> str:
        return f"{self.name}()"


def terminal_name(node: ast.expr) -> str | None:
    """The last identifier of a Name/Attribute chain (``a.b.c`` -> ``c``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


class ImportMap:
    """Local name -> canonical dotted path, for the catalogue's modules.

    Built once per module tree from *every* import statement in it
    (function-local ones included), so ``import m``, ``import m as a``,
    ``from m import f``, ``from m import f as g`` and ``numpy.random``
    reached as an attribute or as a submodule alias all resolve to the
    same canonical name.
    """

    def __init__(self, tree: ast.AST | None = None) -> None:
        self.names: dict[str, str] = {}
        nodes = ast.walk(tree) if tree is not None else ()
        for node in nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in _ROOTS:
                        # `import a.b` binds `a`; `import a.b as c` binds
                        # `c` to the submodule
                        self.names.setdefault(
                            alias.asname or root,
                            alias.name if alias.asname else root)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                module = node.module or ""
                if module.split(".")[0] in _ROOTS:
                    for alias in node.names:
                        self.names.setdefault(alias.asname or alias.name,
                                              f"{module}.{alias.name}")
        # unless an import shadows them, the catalogue's builtins
        for name in _ADDR_BUILTINS:
            self.names.setdefault(name, f"builtins.{name}")

    @classmethod
    def merged(cls, maps: Iterable["ImportMap"]) -> "ImportMap":
        """One map over several modules (a kernel's ancestry spread over
        files); on a clash the earlier module's binding wins."""
        out = cls()
        for other in maps:
            for name, dotted in other.names.items():
                out.names.setdefault(name, dotted)
        return out

    def resolve(self, node: ast.expr) -> str | None:
        """Canonical dotted path of a Name/Attribute chain, or ``None``
        when it does not start at a catalogue import (or builtin)."""
        if isinstance(node, ast.Name):
            return self.names.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self.resolve(node.value)
            return None if base is None else f"{base}.{node.attr}"
        return None


def classify_ref(node: ast.expr, imports: ImportMap) -> Source | None:
    """The catalogue callable a Name/Attribute chain refers to, if any
    (``key=id`` passes one without calling it)."""
    dotted = imports.resolve(node)
    if dotted is None:
        return None
    owner, _, attr = dotted.rpartition(".")
    kind, attrs = CATALOGUE.get(owner, (None, frozenset()))
    if kind is None or (attrs is not None and attr not in attrs):
        return None
    return Source(kind, dotted.removeprefix("builtins."))


def classify_call(call: ast.Call, imports: ImportMap) -> Source | None:
    """The nondeterminism source ``call`` reads, or ``None`` — for a
    callable outside the catalogue and for an explicitly seeded
    generator constructor alike (its result is as clean as its seed)."""
    source = classify_ref(call.func, imports)
    if (source is not None and source.name in SEEDED_CTORS
            and (call.args or call.keywords)):
        return None
    return source


# ----------------------------------------------------------------------
# Unordered sets (RPD003 / SD104)
# ----------------------------------------------------------------------
_SET_CTORS = frozenset({"set", "frozenset"})
_SET_ANNOTATIONS = _SET_CTORS | {"Set", "FrozenSet", "AbstractSet"}
#: set methods that return another set
_SET_RETURNING_METHODS = frozenset({
    "union", "intersection", "difference", "symmetric_difference", "copy",
})
#: builtins that materialise their argument in iteration order
_ORDER_MATERIALISERS = frozenset({"list", "tuple", "iter", "enumerate"})


def is_set_annotation(node: ast.expr) -> bool:
    """``set`` / ``frozenset[int]`` / ``typing.AbstractSet[str]`` ..."""
    base = node.value if isinstance(node, ast.Subscript) else node
    return terminal_name(base) in _SET_ANNOTATIONS


def is_set_expr(node: ast.expr, known: Callable[[ast.expr], bool]) -> bool:
    """Does ``node`` evaluate to a ``set`` / ``frozenset``?  ``known`` is
    the caller's memory: is this name / attribute / subscript bound to a
    set (by an assignment or annotation it has seen)?"""
    if isinstance(node, (ast.Set, ast.SetComp)) or known(node):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            return func.id in _SET_CTORS
        return (isinstance(func, ast.Attribute)
                and func.attr in _SET_RETURNING_METHODS
                and is_set_expr(func.value, known))
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)):
        return is_set_expr(node.left, known) or is_set_expr(node.right, known)
    return False


def materialised_set(node: ast.expr,
                     known: Callable[[ast.expr], bool]) -> str | None:
    """The builtin (``list`` / ``tuple`` / ``iter`` / ``enumerate``) by
    which ``node`` freezes a set's iteration order into a sequence."""
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _ORDER_MATERIALISERS
            and node.args and is_set_expr(node.args[0], known)):
        return node.func.id
    return None

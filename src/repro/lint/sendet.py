"""Send-determinism certifier: static taint analysis over rank programs.

The protocol's entire correctness argument rests on the paper's Section
II-A assumption: every rank program is *send-deterministic* — for a fixed
configuration, the sequence of messages each rank sends is identical in
every correct execution, regardless of the order in which
non-causally-related messages are delivered.  Until now that contract
lived as a docstring on :class:`repro.apps.base.RankProgram`; this module
*proves or refutes* it per kernel, before a single trial runs.

The analysis is an interprocedural AST dataflow/taint pass over
``RankProgram`` subclasses:

**Taint sources** — values that can differ between two correct executions
that deliver non-causally-related messages in different orders:

* the result of ``api.recv`` with ``ANY_SOURCE`` (the default!) — kind
  ``order``;
* host-dependent callables — host clocks (kind ``time``), unseeded
  randomness and OS entropy (``rng``), ``id()`` addresses (``addr``) —
  exactly as :mod:`repro.lint.sources` catalogues and import-resolves
  them: the one model ``repro lint`` reports RPD001/002/004 from, so a
  line the linter flags cannot be certified clean here.  An explicitly
  seeded generator is as clean as its seed expression;
* the *virtual* clock ``api.now()``, whose value moves with delivery
  timing — kind ``time``;
* iteration over (or ``list()`` / ``tuple()`` / ``iter()`` /
  ``enumerate()`` of) an unordered set, as the same module's
  ``is_set_expr`` — the model RPD003 reports from — recognises one —
  kind ``iter``.

**Sinks** — any argument of ``send`` or a collective (destination,
payload, tag, size), and any branch or loop condition that dominates a
send.

**Propagation** — through locals, arithmetic, containers, ``self.state``
fields (flow-insensitive fixpoint, so the default deep-copy
``snapshot()``/``restore()`` pair preserves taint identically and a
restored program is analyzed exactly like a live one), helper methods
(including ``yield from self._gen(...)`` generator helpers, summarized by
their return taint with sends inside them checked under the caller's
guards), and instance attributes.

**Order-neutralizers** — ``sorted`` / ``min`` / ``max`` / ``len`` /
``np.sort`` produce values that are pure functions of the input
*multiset*, so they strip ``order`` and ``iter`` taint (other kinds pass
through).  ``sum()`` deliberately does **not** neutralize: float addition
is non-associative, so a running sum over an ANY_SOURCE receive loop
leaks arrival order into the last ulps — the exact ``reduce_tree`` bug
the chaos harness found after the fact; this analysis finds it before.

**Collective results are clean** by the certifier's inductive hypothesis:
the simulator's collectives are built from explicit-source receives and
fixed binomial combine orders, so given that every rank's sends are
deterministic (what we are proving, per rank), every collective *result*
is too.

Verdicts per kernel:

``PROVEN_SD``
    no finding survived and no analysis assumption was needed;
``CONDITIONAL``
    every finding is suppressed by a *justified* ``# repro:
    noqa[SDxxx]: <reason>``, and/or the analysis had to assume something
    it cannot check (custom ``snapshot``/``restore``, an unresolvable
    helper);
``VIOLATION``
    at least one unsuppressed finding, with a concrete source→sink
    evidence path;
``UNKNOWN``
    the class could not be analyzed (base class outside the analyzed
    file set).

The dynamic half of the certifier (K adversarial delivery schedules and
the send-sequence witness chain) lives in :mod:`repro.lint.certify`.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass, field
from typing import Iterable

from .noqa import Suppressions, parse_suppressions
from .rules import LintFinding
from .sources import (
    ImportMap,
    classify_call,
    is_set_annotation,
    is_set_expr,
    materialised_set,
    terminal_name,
)

__all__ = [
    "VERDICTS",
    "KernelReport",
    "ModuleIndex",
    "SendetResult",
    "Taint",
    "analyze_paths",
    "analyze_sources",
    "kernel_code_digest",
]

#: verdict lattice, strongest claim first
VERDICTS = ("PROVEN_SD", "CONDITIONAL", "VIOLATION", "UNKNOWN")

#: taint kind -> (data-sink code, control-sink code)
_KIND_CODES = {
    "order": ("SD101", "SD102"),
    "rng": ("SD103", "SD103"),
    "iter": ("SD104", "SD104"),
    "time": ("SD105", "SD105"),
    "addr": ("SD106", "SD106"),
}

#: catalogue source kind -> taint kind (OS entropy is randomness here)
_SOURCE_TAINT = {"rng": "rng", "entropy": "rng", "time": "time",
                 "addr": "addr"}

_KIND_LABEL = {
    "order": "arrival order",
    "rng": "unseeded randomness",
    "iter": "set-iteration order",
    "time": "clock reading",
    "addr": "id() address",
}

#: the SD family's bare-suppression pseudo-code
BARE_NOQA_CODE = "SD100"

_COLLECTIVE_OPS = frozenset({"bcast", "reduce", "allreduce", "alltoall"})
#: api ops with order/time-free results
_NEUTRAL_OPS = frozenset({"compute", "checkpoint", "maybe_checkpoint"})

#: builtins whose result is a pure function of the argument *multiset* —
#: they neutralize order/iter taint.  ``sum`` is intentionally absent:
#: float addition is non-associative.
_ORDER_NEUTRALIZERS = frozenset({"sorted", "min", "max", "len", "numpy.sort"})
#: methods through which an argument's taint enters the receiver
_MUTATORS = frozenset({"append", "extend", "add", "insert", "update",
                       "setdefault"})
#: api.send's positional parameters
_SEND_PARAMS = ("dst", "payload", "tag", "size")
#: nodes that hold a block of statements under a compound statement
_BLOCK = (ast.stmt, ast.ExceptHandler, ast.match_case)

_MAX_STEPS = 10
_MAX_CALL_DEPTH = 12
_MAX_PASSES = 10


# ----------------------------------------------------------------------
# Taint values and evidence paths
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Step:
    line: int
    what: str


@dataclass(frozen=True)
class Taint:
    """One taint fact: a kind plus the provenance chain that carried it."""

    kind: str
    steps: tuple[_Step, ...]

    @property
    def source_line(self) -> int:
        return self.steps[0].line

    @property
    def source(self) -> str:
        return self.steps[0].what

    def via(self, line: int, what: str) -> "Taint":
        last = self.steps[-1]
        if last.what == what and last.line == line:
            return self
        steps = self.steps + (_Step(line, what),)
        if len(steps) > _MAX_STEPS:
            steps = steps[:3] + steps[-(_MAX_STEPS - 3):]
        return Taint(self.kind, steps)

    def path(self) -> str:
        return " -> ".join(f"{s.what} (line {s.line})" for s in self.steps)


_EMPTY: frozenset[Taint] = frozenset()


def _source(kind: str, line: int, what: str) -> frozenset[Taint]:
    return frozenset({Taint(kind, (_Step(line, what),))})


def _via(taints: frozenset[Taint], line: int, what: str) -> frozenset[Taint]:
    if not taints:
        return _EMPTY
    return frozenset(t.via(line, what) for t in taints)


def _union(parts: Iterable[frozenset[Taint]]) -> frozenset[Taint]:
    return _EMPTY.union(*parts)


def _strip(taints: frozenset[Taint], kinds: frozenset[str]) -> frozenset[Taint]:
    return frozenset(t for t in taints if t.kind not in kinds)


# ----------------------------------------------------------------------
# Module / class indexing (cross-file inheritance)
# ----------------------------------------------------------------------
@dataclass
class _ClassInfo:
    name: str
    path: str
    node: ast.ClassDef
    source: str
    #: base-class *names* as written (dotted bases keep the last part)
    bases: tuple[str, ...]
    methods: dict[str, ast.FunctionDef] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for item in self.node.body:
            if isinstance(item, ast.FunctionDef):
                self.methods[item.name] = item


class ModuleIndex:
    """All parsed files of one analysis run: classes + import aliases.

    Inheritance is resolved *by name* across the whole file set, which is
    exactly right for a package analyzed as a unit (``repro certify
    src/repro/apps``) and degrades safely for single files: a class whose
    base cannot be found is reported UNKNOWN rather than mis-analyzed.
    """

    def __init__(self) -> None:
        self.classes: dict[str, _ClassInfo] = {}
        #: path -> the module's import map
        self.imports: dict[str, ImportMap] = {}
        self.parse_errors: list[str] = []

    # ------------------------------------------------------------------
    def add_source(self, source: str, path: str) -> None:
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            self.parse_errors.append(f"{path}: {exc.msg} (line {exc.lineno})")
            return
        self.imports[path] = ImportMap(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases = tuple(filter(None, map(terminal_name, node.bases)))
                info = _ClassInfo(node.name, path, node, source, bases)
                # first definition wins (stable across sorted file order)
                self.classes.setdefault(node.name, info)

    # ------------------------------------------------------------------
    def _ancestry(self, name: str) -> tuple[list[_ClassInfo], set[str]]:
        """Breadth-first over base *names*: the indexed classes in
        linearized order, and the names the index does not hold."""
        chain: list[_ClassInfo] = []
        missing: set[str] = set()
        queue = [name]
        while queue:
            cur = queue.pop(0)
            info = self.classes.get(cur)
            if info is None:
                missing.add(cur)
            elif info not in chain:
                chain.append(info)
                queue.extend(info.bases)
        return chain, missing

    def mro(self, name: str) -> tuple[list[_ClassInfo], bool]:
        """Linearized ancestry by name; ``(chain, resolved)`` where
        ``resolved`` is False when a non-``RankProgram`` base is missing
        from the index."""
        chain, missing = self._ancestry(name)
        return chain, missing <= {"RankProgram", "ABC", "object", "Generic"}

    def is_rank_program(self, name: str) -> bool:
        """Does ``name``'s ancestry (by name) reach ``RankProgram``?"""
        chain, missing = self._ancestry(name)
        return name != "RankProgram" and (
            "RankProgram" in missing
            or any(c.name == "RankProgram" for c in chain))

    def find_method(self, cls: str, method: str) -> tuple[_ClassInfo, ast.FunctionDef] | None:
        chain, _ = self.mro(cls)
        for info in chain:
            fn = info.methods.get(method)
            if fn is not None:
                return info, fn
        return None


def kernel_code_digest(index: ModuleIndex, name: str) -> str:
    """Stable digest of a kernel's code: the class source segments along
    its (index-resolved) ancestry.  Keys the certification registry, so a
    registry entry goes stale the moment the kernel — or a base class it
    inherits ``run`` from — changes."""
    chain, _ = index.mro(name)
    h = hashlib.blake2b(digest_size=16)
    for info in chain:
        seg = ast.get_source_segment(info.source, info.node) or ""
        h.update(seg.encode())
        h.update(b"\x00")
    return h.hexdigest()


# ----------------------------------------------------------------------
# Per-kernel analysis state
# ----------------------------------------------------------------------
#: a storage place the analysis tracks: ``("local", name)`` in the method
#: frame; ``("self", attr)`` and ``("state", key)`` on the kernel object
_Place = tuple[str, str]
#: ``self.state`` as a whole, and any key that is not a constant
_ANY_STATE: _Place = ("state", "*")


class _KernelContext:
    """Shared mutable state while analyzing one kernel class."""

    def __init__(self, index: ModuleIndex, info: _ClassInfo,
                 imports: ImportMap):
        self.index = index
        self.info = info
        self.imports = imports
        #: ``self.state`` keys and ``self.<attr>`` -> taints;
        #: flow-insensitive fixpoint
        self.fields: dict[_Place, frozenset[Taint]] = {}
        #: the fields known to hold unordered sets
        self.set_fields: set[_Place] = set()
        self.assumptions: list[tuple[int, str]] = []
        self.findings: list[LintFinding] = []
        self.reporting = False
        self._finding_keys: set[tuple] = set()
        self.call_depth = 0

    # ------------------------------------------------------------------
    def assume(self, line: int, text: str) -> None:
        if (line, text) not in self.assumptions:
            self.assumptions.append((line, text))

    def get(self, place: _Place) -> frozenset[Taint]:
        if place == _ANY_STATE:
            return _union(taints for field_, taints in self.fields.items()
                          if field_[0] == "state")
        out = self.fields.get(place, _EMPTY)
        if place[0] == "state":
            out |= self.fields.get(_ANY_STATE, _EMPTY)
        return out

    def put(self, place: _Place, taints: frozenset[Taint], line: int) -> None:
        if not taints:
            return
        kind, key = place
        taints = _via(taints, line,
                      f"state[{key!r}]" if kind == "state" else f"self.{key}")
        cur = self.fields.get(place, _EMPTY)
        if not taints <= cur:
            self.fields[place] = cur | taints

    # ------------------------------------------------------------------
    def sink(self, node: ast.AST, taints: frozenset[Taint], what: str,
             control: bool) -> None:
        """Record findings for every taint reaching a send sink."""
        if not self.reporting or not taints:
            return
        line = getattr(node, "lineno", 0)
        col = getattr(node, "col_offset", 0)
        for t in sorted(taints, key=lambda t: (t.kind, t.source_line)):
            code = _KIND_CODES[t.kind][1 if control else 0]
            key = (code, line, t.kind, t.source_line, t.source)
            if key in self._finding_keys:
                continue
            self._finding_keys.add(key)
            label = _KIND_LABEL[t.kind]
            reach = (f"{what} is dominated by" if control
                     else f"{what} depends on")
            msg = (f"{reach} {label}: "
                   f"{t.via(line, what).path()}")
            self.findings.append(
                LintFinding(self.info.path, line, col, code, msg))


class _MethodFrame:
    """Per-invocation environment of one analyzed method."""

    def __init__(self) -> None:
        self.env: dict[str, frozenset[Taint]] = {}
        self.api_names: set[str] = set()
        self.state_aliases: set[str] = set()
        #: the locals known to hold unordered sets
        self.set_vars: set[_Place] = set()
        self.returns: frozenset[Taint] = frozenset()


# ----------------------------------------------------------------------
# The analyzer
# ----------------------------------------------------------------------
class _Analyzer:
    """Abstract interpreter for one method body.

    One rule decides what gets a handler: a node has one only where it
    means *more* than the union of its children — it is a source, sink or
    neutralizer (``Call``), reads or binds a place (names, attributes,
    subscripts, assignment / loop / ``with`` / comprehension targets,
    ``del``), returns, or opens a scope that is not executed in place.
    Everything else takes :meth:`ev` / :meth:`stmt`'s default, which
    visits *every* child — so no expression form can launder taint and no
    block can hide a send by being forgotten in a hand-written traversal.
    """

    def __init__(self, ctx: _KernelContext, frame: _MethodFrame,
                 guards: list[tuple[int, frozenset[Taint]]]):
        self.ctx = ctx
        self.frame = frame
        self.guards = guards

    # -- helpers -------------------------------------------------------
    def _guard_taints(self) -> frozenset[Taint]:
        return _union(taints for _line, taints in self.guards)

    def _is_api(self, node: ast.AST) -> bool:
        return isinstance(node, ast.Name) and node.id in self.frame.api_names

    def _is_self(self, node: ast.AST) -> bool:
        return isinstance(node, ast.Name) and node.id == "self"

    def _is_state(self, node: ast.AST) -> bool:
        """``self.state`` itself, or a local alias (``st = self.state``)."""
        if isinstance(node, ast.Name):
            return node.id in self.frame.state_aliases
        return (isinstance(node, ast.Attribute) and node.attr == "state"
                and self._is_self(node.value))

    def _place(self, node: ast.AST) -> _Place | None:
        """The tracked storage a name / ``self.attr`` / ``state[key]``
        expression denotes."""
        if self._is_state(node):
            return _ANY_STATE
        if isinstance(node, ast.Name):
            return ("local", node.id)
        if isinstance(node, ast.Attribute) and self._is_self(node.value):
            return ("self", node.attr)
        if isinstance(node, ast.Subscript) and self._is_state(node.value):
            key = node.slice
            if isinstance(key, ast.Constant) and isinstance(key.value,
                                                            (str, int)):
                return ("state", str(key.value))
            return _ANY_STATE
        return None

    def _load(self, place: _Place) -> frozenset[Taint]:
        if place[0] == "local":
            return self.frame.env.get(place[1], _EMPTY)
        return self.ctx.get(place)

    def _store(self, place: _Place, taints: frozenset[Taint],
               line: int) -> None:
        """Weak update: the place keeps what it held."""
        if place[0] != "local":
            self.ctx.put(place, taints, line)
        elif taints:
            name = place[1]
            self.frame.env[name] = (self.frame.env.get(name, _EMPTY)
                                    | _via(taints, line, name))

    def _set_places(self, place: _Place) -> set[_Place]:
        return (self.frame.set_vars if place[0] == "local"
                else self.ctx.set_fields)

    def _known_set(self, node: ast.AST) -> bool:
        """The analyzer's memory for :func:`~.sources.is_set_expr`: has
        this place (or, for a state key, *some* key) been bound to one?"""
        place = self._place(node)
        return place is not None and (
            place in self._set_places(place)
            or place[0] == "state" and _ANY_STATE in self.ctx.set_fields)

    def _mark_set(self, target: ast.AST) -> None:
        place = self._place(target)
        if place is not None:
            self._set_places(place).add(place)

    def _actuals(self, node: ast.Call
                 ) -> list[tuple[str | None, ast.expr, frozenset[Taint]]]:
        """Every argument of a call: (keyword or None, expression, taint)."""
        args = [(None, a) for a in node.args] + [
            (kw.arg, kw.value) for kw in node.keywords]
        return [(kw, expr, self.ev(expr)) for kw, expr in args]

    def _iterated(self, node: ast.expr) -> frozenset[Taint]:
        """Taint of the elements ``for ... in node`` yields."""
        taints = self.ev(node)
        if is_set_expr(node, self._known_set):
            taints |= _source("iter", node.lineno,
                              "iteration over unordered set")
        return taints

    @staticmethod
    def _is_any_source(node: ast.AST | None) -> bool:
        if node is None:
            return True  # api.recv() defaults to ANY_SOURCE
        if isinstance(node, (ast.Name, ast.Attribute)):
            return terminal_name(node) == "ANY_SOURCE"
        try:
            return ast.literal_eval(node) == -1
        except (ValueError, TypeError):
            return False

    # -- expressions ---------------------------------------------------
    def ev(self, node: ast.AST | None) -> frozenset[Taint]:
        """Taint of an expression — or of the expressions under a helper
        node (``keyword``, ``arguments``, ``match_case`` patterns...)."""
        if node is None:
            return _EMPTY
        method = getattr(self, f"_ev_{type(node).__name__}", None)
        if method is not None:
            return method(node)
        # default: union over *all* children
        return _union(self.ev(child) for child in ast.iter_child_nodes(node))

    def _ev_Name(self, node: ast.Name) -> frozenset[Taint]:
        return self._load(_ANY_STATE if self._is_state(node)
                          else ("local", node.id))

    def _ev_Attribute(self, node: ast.Attribute) -> frozenset[Taint]:
        place = self._place(node)
        if place is not None:
            return self._load(place)
        # any attribute of a tainted value is tainted
        return _via(self.ev(node.value), node.lineno, f".{node.attr}")

    def _ev_Subscript(self, node: ast.Subscript) -> frozenset[Taint]:
        place = self._place(node)
        base = self._load(place) if place else self.ev(node.value)
        return base | self.ev(node.slice)

    def _ev_NamedExpr(self, node: ast.NamedExpr) -> frozenset[Taint]:
        taints = self.ev(node.value)
        self._bind_target(node.target, taints, node.lineno)
        return taints

    def _ev_comprehension(self, node: ast.comprehension) -> frozenset[Taint]:
        taints = self._iterated(node.iter)
        self._bind_target(node.target, taints, node.iter.lineno)
        for cond in node.ifs:
            taints |= self.ev(cond)
        return taints

    def _ev_ListComp(self, node: ast.ListComp | ast.SetComp | ast.DictComp
                     | ast.GeneratorExp) -> frozenset[Taint]:
        # generators first: they bind what the element reads
        out = _union([self.ev(gen) for gen in node.generators])
        return out | _union(self.ev(child)
                            for child in ast.iter_child_nodes(node)
                            if not isinstance(child, ast.comprehension))

    _ev_SetComp = _ev_DictComp = _ev_GeneratorExp = _ev_ListComp

    # -- calls ---------------------------------------------------------
    def _ev_Call(self, node: ast.Call) -> frozenset[Taint]:
        func = node.func
        # api operations -------------------------------------------------
        if isinstance(func, ast.Attribute) and self._is_api(func.value):
            return self._api_call(node, func.attr)
        # self-method call: interprocedural
        if isinstance(func, ast.Attribute) and self._is_self(func.value):
            return self._self_call(node, func.attr)
        taints = self.ev(func) | _union(t for *_, t in self._actuals(node))
        # catalogued nondeterminism sources (clocks, RNG, id()); an
        # explicitly seeded generator is as clean as its seed and falls
        # through to the argument pass-through below
        source = classify_call(node, self.ctx.imports)
        if source is not None:
            return _source(_SOURCE_TAINT[source.kind], node.lineno,
                           source.label)
        materialiser = materialised_set(node, self._known_set)
        if materialiser is not None:
            taints |= _source("iter", node.lineno,
                              f"{materialiser}() over unordered set")
        # mutating method: taint flows into the receiver
        if isinstance(func, ast.Attribute) and func.attr in _MUTATORS:
            self._bind_target(func.value, taints, node.lineno)
        # sorted / min / max / len / np.sort erase order; every other
        # callable — a method of a tainted object (unseeded rng.random(),
        # a tainted list's .pop()) included — passes through what it is
        # and what it is given
        name = self.ctx.imports.resolve(func) or (
            func.id if isinstance(func, ast.Name) else None)
        if name in _ORDER_NEUTRALIZERS:
            return _via(_strip(taints, frozenset({"order", "iter"})),
                        node.lineno, f"{name}(...)")
        return taints

    def _api_call(self, node: ast.Call, op: str) -> frozenset[Taint]:
        """Simulator ops: sends/collectives are sinks, receives sources."""
        line = node.lineno
        actuals = self._actuals(node)
        if op == "send" or op in _COLLECTIVE_OPS:
            # every argument is a sink; a collective's result is clean by
            # the inductive hypothesis (fixed binomial trees,
            # explicit-source receives, deterministic combine order)
            for i, (kw, _expr, taints) in enumerate(actuals):
                name = kw or (_SEND_PARAMS[i] if op == "send"
                              and i < len(_SEND_PARAMS) else "value")
                what = "destination" if name == "dst" else name
                self.ctx.sink(node, taints, f"api.{op} {what}", control=False)
            self.ctx.sink(node, self._guard_taints(), f"api.{op}",
                          control=True)
            return _EMPTY
        if op == "now":
            return _source("time", line, "api.now() (virtual clock)")
        if op in _NEUTRAL_OPS:
            return _EMPTY
        # recv from a taint-chosen peer or tag (and any op this model
        # does not know) carries whatever chose its arguments
        out = _union(taints for *_, taints in actuals)
        if op == "recv":
            out = _via(out, line, "recv(src) result")
            src = next((e for kw, e, _t in actuals if kw == "src"),
                       node.args[0] if node.args else None)
            if self._is_any_source(src):
                out |= _source("order", line, "recv(ANY_SOURCE) result")
        return out

    def _self_call(self, node: ast.Call, method: str) -> frozenset[Taint]:
        """Interprocedural: analyze ``self.<method>(...)`` in context."""
        ctx = self.ctx
        found = ctx.index.find_method(ctx.info.name, method)
        actuals = self._actuals(node)
        if found is None:
            if method in ("snapshot", "restore", "result"):
                return ctx.get(_ANY_STATE)
            ctx.assume(node.lineno,
                       f"call to unresolvable helper self.{method}() "
                       f"assumed taint-free")
            return _EMPTY
        if ctx.call_depth >= _MAX_CALL_DEPTH:
            ctx.assume(node.lineno,
                       f"recursion depth cap reached at self.{method}(); "
                       f"summary assumed taint-free")
            return _EMPTY
        fn = found[1]
        spec = fn.args
        params = [a.arg for a in spec.posonlyargs + spec.args][1:]  # not self
        named = set(params) | {a.arg for a in spec.kwonlyargs}
        everyone = sorted(
            named | {a.arg for a in (spec.vararg, spec.kwarg) if a})
        frame = _MethodFrame()
        exact = True  # until a *starred argument hides the positions
        for i, (kw, expr, taints) in enumerate(actuals):
            exact = exact and not isinstance(expr, ast.Starred)
            if kw in named:
                pname = kw
            elif exact and i < min(len(node.args), len(params)):
                pname = params[i]
            else:
                pname = None
            if pname is not None and self._is_api(expr):
                frame.api_names.add(pname)
                continue
            # an argument the signature cannot place (``*a``, ``**kw``, a
            # surplus positional) reaches every parameter
            taints = _via(taints, fn.lineno,
                          f"param {pname or '*'} of {method}()")
            for target in [pname] if pname is not None else everyone:
                frame.env[target] = frame.env.get(target, _EMPTY) | taints
        frame.api_names = frame.api_names or {"api"}
        ctx.call_depth += 1
        try:
            _Analyzer(ctx, frame, self.guards).run_body(fn.body)
        finally:
            ctx.call_depth -= 1
        return _via(frame.returns, node.lineno, f"return of {method}()")

    # -- binding -------------------------------------------------------
    def _bind_target(self, target: ast.AST, taints: frozenset[Taint],
                     line: int, *, strong: bool = False) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for e in target.elts:
                self._bind_target(e, taints, line, strong=strong)
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value, taints, line, strong=strong)
        elif isinstance(target, ast.Name) and strong:
            self.frame.env[target.id] = _via(taints, line, target.id)
            self.frame.set_vars.discard(("local", target.id))
        else:
            # a store *into* an object (``d[k] = v``, ``a.b = v``,
            # ``state["k"][i] = v``) taints the outermost container the
            # analysis tracks — with the value and with every index
            while True:
                if isinstance(target, ast.Subscript):
                    taints |= self.ev(target.slice)
                place = self._place(target)
                if place is not None:
                    self._store(place, taints, line)
                if place is not None or not isinstance(
                        target, (ast.Subscript, ast.Attribute)):
                    return
                target = target.value

    def _assign(self, target: ast.expr, value: ast.expr, line: int) -> None:
        self._bind_target(target, self.ev(value), line,
                          strong=isinstance(target, ast.Name))
        if is_set_expr(value, self._known_set):
            self._mark_set(target)

    # -- statements ----------------------------------------------------
    def run_body(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self.stmt(stmt)

    def stmt(self, node: ast.AST) -> None:
        method = getattr(self, f"_st_{type(node).__name__}", None)
        if method is not None:
            method(node)
        else:
            self._blocks(node, self._header(node))

    def _header(self, node: ast.AST) -> frozenset[Taint]:
        """Default, part 1: union over every child that is not a block."""
        return _union(self.ev(child) for child in ast.iter_child_nodes(node)
                      if not isinstance(child, _BLOCK))

    def _blocks(self, node: ast.AST, header: frozenset[Taint]) -> None:
        """Default, part 2: the header guards *every* nested block —
        whatever field holds it (``body`` / ``orelse`` / ``finalbody`` /
        ``handlers`` / ``cases`` / one not invented yet)."""
        self.guards.append((getattr(node, "lineno", 0), header))
        try:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, _BLOCK):
                    self.stmt(child)
        finally:
            self.guards.pop()

    def _st_Assign(self, node: ast.Assign) -> None:
        value = node.value
        # aliasing forms first: st = self.state / my_api = api
        if self._is_state(value):
            aliases = self.frame.state_aliases
        elif self._is_api(value):
            aliases = self.frame.api_names
        else:
            for t in node.targets:
                self._assign(t, value, node.lineno)
            return
        aliases.update(t.id for t in node.targets if isinstance(t, ast.Name))

    def _st_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._assign(node.target, node.value, node.lineno)
        if is_set_annotation(node.annotation):
            self._mark_set(node.target)

    def _st_AugAssign(self, node: ast.AugAssign) -> None:
        taints = self.ev(node.value) | self.ev(node.target)
        self._bind_target(node.target, taints, node.lineno)

    def _st_For(self, node: ast.For | ast.AsyncFor) -> None:
        # the loop trip count / element order dominates sends in the body
        taints = self._iterated(node.iter)
        self._bind_target(node.target, taints, node.lineno)
        self._blocks(node, taints)

    _st_AsyncFor = _st_For

    def _st_With(self, node: ast.With | ast.AsyncWith) -> None:
        header: frozenset[Taint] = frozenset()
        for item in node.items:
            taints = self.ev(item.context_expr)
            if item.optional_vars is not None:
                self._bind_target(item.optional_vars, taints, node.lineno)
            header |= taints
        self._blocks(node, header)

    _st_AsyncWith = _st_With

    def _st_Match(self, node: ast.Match) -> None:
        # capture patterns (``case x``, ``case [*rest]``, ``case {**rest}``)
        # bind names to parts of the subject
        subject = self.ev(node.subject)
        for case in node.cases:
            for sub in ast.walk(case.pattern):
                name = getattr(sub, "name", None) or getattr(sub, "rest", None)
                if name is not None:
                    self._store(("local", name), subject, case.pattern.lineno)
        self._blocks(node, subject)

    def _st_Return(self, node: ast.Return) -> None:
        self.frame.returns |= self.ev(node.value)

    def _st_FunctionDef(self, node: ast.FunctionDef | ast.AsyncFunctionDef
                        | ast.ClassDef) -> None:
        # a nested scope is not executed here, and a call to it passes
        # its arguments through without entering the body
        self.ctx.assume(node.lineno,
                        f"nested {type(node).__name__} {node.name} assumed "
                        f"to send nothing and capture no taint")

    _st_AsyncFunctionDef = _st_ClassDef = _st_FunctionDef

    def _st_Delete(self, node: ast.Delete) -> None:
        for t in node.targets:
            if isinstance(t, ast.Name):
                self.frame.env.pop(t.id, None)


# ----------------------------------------------------------------------
# Kernel-level driver
# ----------------------------------------------------------------------
@dataclass
class KernelReport:
    """Certification result for one ``RankProgram`` subclass."""

    name: str
    path: str
    line: int
    verdict: str
    digest: str
    findings: list[LintFinding] = field(default_factory=list)
    #: ``(code, line, reason)`` for justified-noqa suppressions
    suppressed: list[tuple[str, int, str]] = field(default_factory=list)
    assumptions: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "path": self.path,
            "line": self.line,
            "verdict": self.verdict,
            "digest": self.digest,
            "findings": [f.to_json() for f in self.findings],
            "suppressed": [
                {"code": c, "line": ln, "reason": r}
                for c, ln, r in self.suppressed
            ],
            "assumptions": list(self.assumptions),
        }


def _analyze_kernel(index: ModuleIndex, info: _ClassInfo,
                    suppressions: dict[str, Suppressions]) -> KernelReport:
    chain, resolved = index.mro(info.name)
    digest = kernel_code_digest(index, info.name)
    report = KernelReport(info.name, info.path, info.node.lineno,
                          "UNKNOWN", digest)
    if not resolved:
        missing = [b for b in info.bases
                   if b not in index.classes and b != "RankProgram"]
        report.assumptions.append(
            f"line {info.node.lineno}: base class "
            f"{', '.join(missing) or '<unknown>'} not in the analyzed "
            f"file set; kernel not analyzed")
        return report

    run = index.find_method(info.name, "run")
    if run is None:
        report.assumptions.append(
            f"line {info.node.lineno}: no run() method found")
        return report
    run_fn = run[1]

    # the kernel's own module first: its bindings win a cross-file clash
    imports = ImportMap.merged(index.imports[c.path] for c in chain)
    ctx = _KernelContext(index, info, imports)
    # overridden snapshot/restore cannot be proven taint-preserving
    # statically; the default deep-copy pair on RankProgram itself is the
    # identity on taint, so only subclass overrides need an assumption
    for special in ("snapshot", "restore"):
        found = index.find_method(info.name, special)
        if found is not None and found[0].name != "RankProgram":
            owner, fn = found
            ctx.assume(fn.lineno,
                       f"custom {special}() (line {fn.lineno} of "
                       f"{owner.name}) assumed to preserve state taint "
                       f"like the default deep copy")

    init = index.find_method(info.name, "__init__")
    run_params = [a.arg for a in run_fn.args.args]

    def one_pass() -> None:
        if init is not None:
            _run_method(ctx, init[1], api_names=set())
        _run_method(ctx, run_fn, api_names={
            run_params[1] if len(run_params) > 1 else "api"})

    # fixpoint over self.state / attribute taint (snapshot()/restore()
    # round-trips are the identity on this map, so a restored program is
    # analyzed exactly like a live one)
    for _ in range(_MAX_PASSES):
        before = (dict(ctx.fields), set(ctx.set_fields))
        one_pass()
        if (ctx.fields, ctx.set_fields) == before:
            break
    ctx.reporting = True
    one_pass()

    # apply SD noqa suppressions (justification required) ----------------
    supp = suppressions.get(info.path)
    kept: list[LintFinding] = []
    for finding in ctx.findings:
        reason = supp.justification(finding.line, finding.code) if supp else None
        if reason:
            report.suppressed.append((finding.code, finding.line, reason))
        else:
            kept.append(finding)
    kept.sort(key=lambda f: (f.line, f.col, f.code))
    report.findings = kept
    report.assumptions.extend(
        f"line {ln}: {text}" for ln, text in sorted(ctx.assumptions)
    )

    if kept:
        report.verdict = "VIOLATION"
    elif report.suppressed or report.assumptions:
        report.verdict = "CONDITIONAL"
    else:
        report.verdict = "PROVEN_SD"
    return report


def _run_method(ctx: _KernelContext, fn: ast.FunctionDef,
                api_names: set[str]) -> None:
    frame = _MethodFrame()
    frame.api_names = api_names
    _Analyzer(ctx, frame, guards=[]).run_body(fn.body)


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------
@dataclass
class SendetResult:
    """Everything one certification pass produced."""

    reports: list[KernelReport] = field(default_factory=list)
    #: SD100 bare-noqa findings (per file, not per kernel)
    noqa_findings: list[LintFinding] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    def all_findings(self) -> list[LintFinding]:
        out = [f for r in self.reports for f in r.findings]
        out.extend(self.noqa_findings)
        out.sort(key=lambda f: (f.path, f.line, f.col, f.code))
        return out


def analyze_sources(sources: dict[str, str]) -> SendetResult:
    """Certify every ``RankProgram`` subclass in ``{path: source}``."""
    index = ModuleIndex()
    for path in sorted(sources):
        index.add_source(sources[path], path)
    result = SendetResult(errors=list(index.parse_errors))

    suppressions: dict[str, Suppressions] = {}
    for path, source in sources.items():
        supp = parse_suppressions(source)
        suppressions[path] = supp
        for line, codes in supp.bare_sd_lines():
            result.noqa_findings.append(LintFinding(
                path, line, 0, BARE_NOQA_CODE,
                f"bare SD suppression {sorted(codes)} without a "
                f"justification; write `# repro: noqa[SDxxx]: <reason>` "
                f"(the suppression is ignored until justified)"
            ))

    for name in sorted(index.classes):
        info = index.classes[name]
        if name == "RankProgram" or not index.is_rank_program(name):
            continue
        result.reports.append(_analyze_kernel(index, info, suppressions))
    return result


def analyze_paths(paths: list[str]) -> SendetResult:
    """Certify kernels across files/directories (cross-file inheritance
    resolves within the given path set)."""
    from .runner import read_sources

    sources, errors = read_sources(paths)
    result = analyze_sources(sources)
    result.errors = errors + result.errors
    return result

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
* iteration over ``set`` / ``frozenset`` (unordered) — kind ``iter``.

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

from .noqa import Suppressions, parse_suppressions
from .rules import LintFinding
from .sources import ImportMap, classify_call

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
_ORDER_NEUTRALIZERS = frozenset({"sorted", "min", "max", "len"})

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
                bases = []
                for b in node.bases:
                    if isinstance(b, ast.Name):
                        bases.append(b.id)
                    elif isinstance(b, ast.Attribute):
                        bases.append(b.attr)
                info = _ClassInfo(node.name, path, node, source, tuple(bases))
                # first definition wins (stable across sorted file order)
                self.classes.setdefault(node.name, info)

    # ------------------------------------------------------------------
    def mro(self, name: str) -> tuple[list[_ClassInfo], bool]:
        """Linearized ancestry by name; ``(chain, resolved)`` where
        ``resolved`` is False when a non-``RankProgram`` base is missing
        from the index."""
        chain: list[_ClassInfo] = []
        seen: set[str] = set()
        resolved = True
        queue = [name]
        while queue:
            cur = queue.pop(0)
            if cur in seen:
                continue
            seen.add(cur)
            info = self.classes.get(cur)
            if info is None:
                if cur not in ("RankProgram", "ABC", "object", "Generic"):
                    resolved = False
                continue
            chain.append(info)
            queue.extend(info.bases)
        return chain, resolved

    def is_rank_program(self, name: str) -> bool:
        """Does ``name``'s ancestry (by name) reach ``RankProgram``?"""
        seen: set[str] = set()
        queue = [name]
        while queue:
            cur = queue.pop(0)
            if cur in seen:
                continue
            seen.add(cur)
            if cur == "RankProgram" and cur != name:
                return True
            info = self.classes.get(cur)
            if info is not None:
                queue.extend(info.bases)
            elif cur == "RankProgram":
                return True
        return False

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
class _KernelContext:
    """Shared mutable state while analyzing one kernel class."""

    def __init__(self, index: ModuleIndex, info: _ClassInfo,
                 imports: ImportMap):
        self.index = index
        self.info = info
        self.imports = imports
        #: self.state key (or "*") -> taints; flow-insensitive fixpoint
        self.state_taints: dict[str, frozenset[Taint]] = {}
        #: self.<attr> -> taints
        self.attr_taints: dict[str, frozenset[Taint]] = {}
        #: self.state keys (or "*") known to hold unordered sets
        self.state_set_keys: set[str] = set()
        #: self.<attr> names known to hold unordered sets
        self.attr_sets: set[str] = set()
        self.assumptions: list[tuple[int, str]] = []
        self.findings: list[tuple[LintFinding, Taint]] = []
        self.reporting = False
        self._finding_keys: set[tuple] = set()
        self._assumed: set[tuple[int, str]] = set()
        self.call_depth = 0

    # ------------------------------------------------------------------
    def assume(self, line: int, text: str) -> None:
        key = (line, text)
        if key not in self._assumed:
            self._assumed.add(key)
            self.assumptions.append(key)

    def state_get(self, key: str) -> frozenset[Taint]:
        if key == "*":
            out: frozenset[Taint] = frozenset()
            for t in self.state_taints.values():
                out |= t
            return out
        return self.state_taints.get(key, _EMPTY) | self.state_taints.get("*", _EMPTY)

    def state_put(self, key: str, taints: frozenset[Taint], line: int) -> None:
        if not taints:
            return
        taints = _via(taints, line, f"state[{key!r}]")
        cur = self.state_taints.get(key, _EMPTY)
        if not taints <= cur:
            self.state_taints[key] = cur | taints

    def attr_get(self, name: str) -> frozenset[Taint]:
        return self.attr_taints.get(name, _EMPTY)

    def attr_put(self, name: str, taints: frozenset[Taint], line: int) -> None:
        if not taints:
            return
        taints = _via(taints, line, f"self.{name}")
        cur = self.attr_taints.get(name, _EMPTY)
        if not taints <= cur:
            self.attr_taints[name] = cur | taints

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
                (LintFinding(self.info.path, line, col, code, msg), t)
            )


class _MethodFrame:
    """Per-invocation environment of one analyzed method."""

    def __init__(self) -> None:
        self.env: dict[str, frozenset[Taint]] = {}
        self.api_names: set[str] = set()
        self.state_aliases: set[str] = set()
        self.set_vars: set[str] = set()
        self.returns: frozenset[Taint] = frozenset()


# ----------------------------------------------------------------------
# The analyzer
# ----------------------------------------------------------------------
class _Analyzer:
    """Abstract interpreter for one method body."""

    def __init__(self, ctx: _KernelContext, frame: _MethodFrame,
                 guards: list[tuple[int, frozenset[Taint]]]):
        self.ctx = ctx
        self.frame = frame
        self.guards = guards

    # -- helpers -------------------------------------------------------
    def _guard_taints(self) -> frozenset[Taint]:
        out: frozenset[Taint] = frozenset()
        for _line, t in self.guards:
            out |= t
        return out

    def _is_api(self, node: ast.AST) -> bool:
        return isinstance(node, ast.Name) and node.id in self.frame.api_names

    def _is_self(self, node: ast.AST) -> bool:
        return isinstance(node, ast.Name) and node.id == "self"

    def _is_self_state(self, node: ast.AST) -> bool:
        return (isinstance(node, ast.Attribute) and node.attr == "state"
                and self._is_self(node.value))

    def _is_state_alias(self, node: ast.AST) -> bool:
        if self._is_self_state(node):
            return True
        return (isinstance(node, ast.Name)
                and node.id in self.frame.state_aliases)

    def _is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("set", "frozenset")
        if isinstance(node, ast.Name):
            return node.id in self.frame.set_vars
        if isinstance(node, ast.Subscript) and self._is_state_alias(node.value):
            key = self._const_key(node.slice)
            keys = self.ctx.state_set_keys
            return key in keys or "*" in keys
        if isinstance(node, ast.Attribute) and self._is_self(node.value):
            return node.attr in self.ctx.attr_sets
        return False

    @staticmethod
    def _const_key(node: ast.AST) -> str:
        if isinstance(node, ast.Constant) and isinstance(node.value, (str, int)):
            return repr(node.value) if not isinstance(node.value, str) else node.value
        return "*"

    @staticmethod
    def _is_any_source(node: ast.AST | None) -> bool:
        if node is None:
            return True  # api.recv() defaults to ANY_SOURCE
        if isinstance(node, ast.Name) and node.id == "ANY_SOURCE":
            return True
        if isinstance(node, ast.Attribute) and node.attr == "ANY_SOURCE":
            return True
        if isinstance(node, ast.Constant) and node.value == -1:
            return True
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            v = node.operand
            return isinstance(v, ast.Constant) and v.value == 1
        return False

    # -- expressions ---------------------------------------------------
    def ev(self, node: ast.AST | None) -> frozenset[Taint]:
        if node is None:
            return _EMPTY
        method = getattr(self, f"_ev_{type(node).__name__}", None)
        if method is not None:
            return method(node)
        # default: union over child expressions
        out: frozenset[Taint] = frozenset()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                out |= self.ev(child)
        return out

    def _ev_Constant(self, node: ast.Constant) -> frozenset[Taint]:
        return _EMPTY

    def _ev_Name(self, node: ast.Name) -> frozenset[Taint]:
        return self.frame.env.get(node.id, _EMPTY)

    def _ev_Attribute(self, node: ast.Attribute) -> frozenset[Taint]:
        if self._is_self(node.value):
            if node.attr == "state":
                return self.ctx.state_get("*")
            return self.ctx.attr_get(node.attr)
        base = self.ev(node.value)
        # any attribute of a tainted value is tainted
        return _via(base, node.lineno, f".{node.attr}")

    def _ev_Subscript(self, node: ast.Subscript) -> frozenset[Taint]:
        idx = self.ev(node.slice)
        if self._is_state_alias(node.value):
            return self.ctx.state_get(self._const_key(node.slice)) | idx
        return self.ev(node.value) | idx

    def _ev_BinOp(self, node: ast.BinOp) -> frozenset[Taint]:
        return self.ev(node.left) | self.ev(node.right)

    def _ev_BoolOp(self, node: ast.BoolOp) -> frozenset[Taint]:
        out: frozenset[Taint] = frozenset()
        for v in node.values:
            out |= self.ev(v)
        return out

    def _ev_UnaryOp(self, node: ast.UnaryOp) -> frozenset[Taint]:
        return self.ev(node.operand)

    def _ev_Compare(self, node: ast.Compare) -> frozenset[Taint]:
        out = self.ev(node.left)
        for c in node.comparators:
            out |= self.ev(c)
        return out

    def _ev_IfExp(self, node: ast.IfExp) -> frozenset[Taint]:
        return self.ev(node.test) | self.ev(node.body) | self.ev(node.orelse)

    def _ev_Tuple(self, node: ast.Tuple) -> frozenset[Taint]:
        out: frozenset[Taint] = frozenset()
        for e in node.elts:
            out |= self.ev(e)
        return out

    _ev_List = _ev_Tuple
    _ev_Set = _ev_Tuple

    def _ev_Dict(self, node: ast.Dict) -> frozenset[Taint]:
        out: frozenset[Taint] = frozenset()
        for k in node.keys:
            out |= self.ev(k)
        for v in node.values:
            out |= self.ev(v)
        return out

    def _ev_Starred(self, node: ast.Starred) -> frozenset[Taint]:
        return self.ev(node.value)

    def _ev_JoinedStr(self, node: ast.JoinedStr) -> frozenset[Taint]:
        out: frozenset[Taint] = frozenset()
        for v in node.values:
            out |= self.ev(v)
        return out

    def _ev_FormattedValue(self, node: ast.FormattedValue) -> frozenset[Taint]:
        return self.ev(node.value)

    def _ev_Yield(self, node: ast.Yield) -> frozenset[Taint]:
        return self.ev(node.value)

    def _ev_YieldFrom(self, node: ast.YieldFrom) -> frozenset[Taint]:
        return self.ev(node.value)

    def _ev_Await(self, node: ast.Await) -> frozenset[Taint]:
        return self.ev(node.value)

    def _ev_NamedExpr(self, node: ast.NamedExpr) -> frozenset[Taint]:
        taints = self.ev(node.value)
        if isinstance(node.target, ast.Name):
            self._bind_name(node.target.id, taints, node.lineno)
        return taints

    def _ev_Lambda(self, node: ast.Lambda) -> frozenset[Taint]:
        return _EMPTY

    def _comp(self, node, elts: list[ast.expr]) -> frozenset[Taint]:
        for gen in node.generators:
            taints = self.ev(gen.iter)
            if self._is_set_expr(gen.iter):
                taints = taints | _source(
                    "iter", node.lineno,
                    "iteration over unordered set")
            self._bind_target(gen.target, taints, node.lineno)
            for cond in gen.ifs:
                self.ev(cond)
        out: frozenset[Taint] = frozenset()
        for e in elts:
            out |= self.ev(e)
        return out

    def _ev_ListComp(self, node: ast.ListComp) -> frozenset[Taint]:
        return self._comp(node, [node.elt])

    def _ev_GeneratorExp(self, node: ast.GeneratorExp) -> frozenset[Taint]:
        return self._comp(node, [node.elt])

    def _ev_SetComp(self, node: ast.SetComp) -> frozenset[Taint]:
        return self._comp(node, [node.elt])

    def _ev_DictComp(self, node: ast.DictComp) -> frozenset[Taint]:
        return self._comp(node, [node.key, node.value])

    # -- calls ---------------------------------------------------------
    def _ev_Call(self, node: ast.Call) -> frozenset[Taint]:
        func = node.func
        arg_taints = self._all_arg_taints(node)

        # api operations -------------------------------------------------
        if isinstance(func, ast.Attribute) and self._is_api(func.value):
            return self._api_call(node, func.attr)

        # catalogued nondeterminism sources (clocks, RNG, id()); an
        # explicitly seeded generator is as clean as its seed and falls
        # through to the argument pass-through below
        source = classify_call(node, self.ctx.imports)
        if source is not None:
            return _source(_SOURCE_TAINT[source.kind], node.lineno,
                           source.label)

        # builtins -------------------------------------------------------
        if isinstance(func, ast.Name):
            name = func.id
            if name in _ORDER_NEUTRALIZERS:
                return _via(_strip(arg_taints, frozenset({"order", "iter"})),
                            node.lineno, f"{name}(...)")
            if name in ("set", "frozenset", "list", "tuple", "dict", "print",
                        "enumerate", "zip", "range", "abs", "float", "int",
                        "str", "repr", "round", "sum", "any", "all", "map",
                        "filter", "reversed", "isinstance", "getattr",
                        "hasattr", "max", "min"):
                return arg_taints

        if isinstance(func, ast.Attribute):
            # self-method call: interprocedural
            if self._is_self(func.value):
                return self._self_call(node, func.attr)
            # np.sort etc. on a numpy alias neutralizes like sorted()
            if self.ctx.imports.resolve(func) == "numpy.sort":
                return _via(_strip(arg_taints, frozenset({"order", "iter"})),
                            node.lineno, "np.sort(...)")
            # mutating method on a local: taint flows into the receiver
            if (isinstance(func.value, ast.Name)
                    and func.attr in ("append", "extend", "add", "insert",
                                      "update", "setdefault")):
                self._bind_name(func.value.id, arg_taints, node.lineno)
            # mutating method on a state field: taint flows into the field
            if (isinstance(func.value, ast.Subscript)
                    and self._is_state_alias(func.value.value)
                    and func.attr in ("append", "extend", "add", "insert",
                                      "update", "setdefault")):
                self.ctx.state_put(self._const_key(func.value.slice),
                                   arg_taints, node.lineno)
            # method call on a tainted object (unseeded rng.random(), a
            # tainted list's .pop(), ...) carries the object's taint
            return self.ev(func.value) | arg_taints

        # unknown callable: conservative pass-through
        return arg_taints | self.ev(func)

    def _all_arg_taints(self, node: ast.Call) -> frozenset[Taint]:
        out: frozenset[Taint] = frozenset()
        for a in node.args:
            out |= self.ev(a)
        for kw in node.keywords:
            out |= self.ev(kw.value)
        return out

    def _api_call(self, node: ast.Call, op: str) -> frozenset[Taint]:
        """Simulator ops: sends/collectives are sinks, receives sources."""
        line = node.lineno
        args = list(node.args)
        kwargs = {kw.arg: kw.value for kw in node.keywords if kw.arg}
        guard = self._guard_taints()

        def sink_args(label: str, positional: list[tuple[str, ast.expr | None]]):
            for argname, expr in positional:
                if expr is None:
                    continue
                taints = self.ev(expr)
                self.ctx.sink(node, taints, f"{label} {argname}", control=False)
            if guard:
                self.ctx.sink(node, guard, f"{label}", control=True)

        if op == "send":
            sink_args("api.send", [
                ("destination", args[0] if args else kwargs.get("dst")),
                ("payload", args[1] if len(args) > 1 else kwargs.get("payload")),
                ("tag", args[2] if len(args) > 2 else kwargs.get("tag")),
                ("size", args[3] if len(args) > 3 else kwargs.get("size")),
            ])
            return _EMPTY
        if op in _COLLECTIVE_OPS:
            # inputs are sinks (the collective sends them); results are
            # clean by the inductive hypothesis (fixed binomial trees,
            # explicit-source receives, deterministic combine order)
            sink_args(f"api.{op}", [
                ("value", a) for a in args
            ] + [(kw.arg or "value", kw.value) for kw in node.keywords])
            return _EMPTY
        if op == "recv":
            src = args[0] if args else kwargs.get("src")
            if self._is_any_source(src):
                return _source("order", line, "recv(ANY_SOURCE) result")
            # receiving from an order/taint-chosen peer taints the
            # result with whatever chose the peer
            return _via(self.ev(src), line, "recv(src) result")
        if op == "now":
            return _source("time", line, "api.now() (virtual clock)")
        if op in _NEUTRAL_OPS:
            return _EMPTY
        # unknown api op: conservative
        return self._all_arg_taints(node)

    def _self_call(self, node: ast.Call, method: str) -> frozenset[Taint]:
        """Interprocedural: analyze ``self.<method>(...)`` in context."""
        ctx = self.ctx
        found = ctx.index.find_method(ctx.info.name, method)
        arg_taints = [self.ev(a) for a in node.args]
        kw_taints = {kw.arg: self.ev(kw.value) for kw in node.keywords if kw.arg}
        if found is None:
            if method in ("snapshot", "restore", "result"):
                return ctx.state_get("*")
            ctx.assume(node.lineno,
                       f"call to unresolvable helper self.{method}() "
                       f"assumed taint-free")
            return _EMPTY
        if ctx.call_depth >= _MAX_CALL_DEPTH:
            ctx.assume(node.lineno,
                       f"recursion depth cap reached at self.{method}(); "
                       f"summary assumed taint-free")
            return _EMPTY
        owner, fn = found
        frame = _MethodFrame()
        params = [a.arg for a in fn.args.args]
        values: list[frozenset[Taint] | None] = []
        api_args: set[str] = set()
        # bind positional parameters (skip self)
        for i, pname in enumerate(params[1:]):
            if i < len(node.args):
                if self._is_api(node.args[i]):
                    api_args.add(pname)
                    values.append(None)
                else:
                    values.append(arg_taints[i])
            elif pname in kw_taints:
                values.append(kw_taints[pname])
            else:
                values.append(None)
        for pname, value in zip(params[1:], values):
            if value:
                frame.env[pname] = _via(value, fn.lineno,
                                        f"param {pname} of {method}()")
        frame.api_names = api_args or {"api"}
        ctx.call_depth += 1
        try:
            sub = _Analyzer(ctx, frame, self.guards)
            sub.run_body(fn.body)
        finally:
            ctx.call_depth -= 1
        if frame.returns:
            return _via(frame.returns, node.lineno, f"return of {method}()")
        return _EMPTY

    # -- binding -------------------------------------------------------
    def _bind_name(self, name: str, taints: frozenset[Taint],
                   line: int) -> None:
        if not taints:
            return
        taints = _via(taints, line, name)
        self.frame.env[name] = self.frame.env.get(name, _EMPTY) | taints

    def _bind_target(self, target: ast.AST, taints: frozenset[Taint],
                     line: int, *, strong: bool = False) -> None:
        if isinstance(target, ast.Name):
            if strong:
                self.frame.env[target.id] = _via(taints, line, target.id)
                self.frame.set_vars.discard(target.id)
            else:
                self._bind_name(target.id, taints, line)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for e in target.elts:
                self._bind_target(e, taints, line, strong=strong)
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value, taints, line, strong=strong)
        elif isinstance(target, ast.Subscript):
            if self._is_state_alias(target.value):
                self.ctx.state_put(self._const_key(target.slice), taints, line)
            elif isinstance(target.value, ast.Name):
                self._bind_name(target.value.id, taints, line)
            elif isinstance(target.value, ast.Attribute) and self._is_self(
                    target.value.value):
                self.ctx.attr_put(target.value.attr, taints, line)
            elif (isinstance(target.value, ast.Subscript)
                  and self._is_state_alias(target.value.value)):
                # nested store: state["k"][i] = v
                self.ctx.state_put(self._const_key(target.value.slice),
                                   taints, line)
        elif isinstance(target, ast.Attribute):
            if self._is_self(target.value):
                if target.attr == "state":
                    self.ctx.state_put("*", taints, line)
                else:
                    self.ctx.attr_put(target.attr, taints, line)

    # -- statements ----------------------------------------------------
    def run_body(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self.stmt(stmt)

    def stmt(self, node: ast.stmt) -> None:
        method = getattr(self, f"_st_{type(node).__name__}", None)
        if method is not None:
            method(node)
            return
        # default: evaluate expressions, recurse into bodies
        for name in ("body", "orelse", "finalbody"):
            sub = getattr(node, name, None)
            if sub:
                self.run_body(sub)
        handlers = getattr(node, "handlers", None)
        if handlers:
            for h in handlers:
                self.run_body(h.body)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.ev(child)

    def _st_Expr(self, node: ast.Expr) -> None:
        self.ev(node.value)

    def _st_Assign(self, node: ast.Assign) -> None:
        value = node.value
        # aliasing forms first: st = self.state / my_api = api
        if self._is_self_state(value):
            for t in node.targets:
                if isinstance(t, ast.Name):
                    self.frame.state_aliases.add(t.id)
            return
        if self._is_api(value):
            for t in node.targets:
                if isinstance(t, ast.Name):
                    self.frame.api_names.add(t.id)
            return
        taints = self.ev(value)
        is_set = self._is_set_expr(value)
        for t in node.targets:
            single_name = isinstance(t, ast.Name)
            self._bind_target(t, taints, node.lineno, strong=single_name)
            if single_name:
                if is_set:
                    self.frame.set_vars.add(t.id)
            elif is_set and isinstance(t, ast.Subscript) \
                    and self._is_state_alias(t.value):
                self.ctx.state_set_keys.add(self._const_key(t.slice))
            elif is_set and isinstance(t, ast.Attribute) \
                    and self._is_self(t.value) and t.attr != "state":
                self.ctx.attr_sets.add(t.attr)

    def _st_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is None:
            return
        taints = self.ev(node.value)
        self._bind_target(node.target, taints, node.lineno,
                          strong=isinstance(node.target, ast.Name))

    def _st_AugAssign(self, node: ast.AugAssign) -> None:
        taints = self.ev(node.value) | self.ev(node.target)
        self._bind_target(node.target, taints, node.lineno)

    def _st_If(self, node: ast.If) -> None:
        cond = self.ev(node.test)
        self.guards.append((node.lineno, cond))
        try:
            self.run_body(node.body)
            self.run_body(node.orelse)
        finally:
            self.guards.pop()

    def _st_While(self, node: ast.While) -> None:
        cond = self.ev(node.test)
        self.guards.append((node.lineno, cond))
        try:
            self.run_body(node.body)
            self.run_body(node.orelse)
        finally:
            self.guards.pop()

    def _st_For(self, node: ast.For) -> None:
        iter_taints = self.ev(node.iter)
        target_taints = iter_taints
        if self._is_set_expr(node.iter):
            target_taints = target_taints | _source(
                "iter", node.lineno, "iteration over unordered set")
        self._bind_target(node.target, target_taints, node.lineno)
        # the loop trip count / element order dominates sends in the body
        self.guards.append((node.lineno, target_taints))
        try:
            self.run_body(node.body)
            self.run_body(node.orelse)
        finally:
            self.guards.pop()

    def _st_Return(self, node: ast.Return) -> None:
        self.frame.returns |= self.ev(node.value)

    def _st_With(self, node: ast.With) -> None:
        for item in node.items:
            taints = self.ev(item.context_expr)
            if item.optional_vars is not None:
                self._bind_target(item.optional_vars, taints, node.lineno)
        self.run_body(node.body)

    def _st_Try(self, node: ast.Try) -> None:
        self.run_body(node.body)
        for h in node.handlers:
            self.run_body(h.body)
        self.run_body(node.orelse)
        self.run_body(node.finalbody)

    def _st_Assert(self, node: ast.Assert) -> None:
        self.ev(node.test)

    def _st_Raise(self, node: ast.Raise) -> None:
        if node.exc is not None:
            self.ev(node.exc)

    def _st_FunctionDef(self, node: ast.FunctionDef) -> None:
        # nested function definitions are not executed here; calls to them
        # fall back to conservative argument pass-through
        return

    _st_AsyncFunctionDef = _st_FunctionDef

    def _st_ClassDef(self, node: ast.ClassDef) -> None:
        return

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

    def one_pass() -> None:
        if init is not None:
            _run_method(ctx, init[1], api_param=None)
        _run_method(ctx, run_fn, api_param="auto")

    # fixpoint over self.state / attribute taint (snapshot()/restore()
    # round-trips are the identity on this map, so a restored program is
    # analyzed exactly like a live one)
    for _ in range(_MAX_PASSES):
        before = (dict(ctx.state_taints), dict(ctx.attr_taints))
        one_pass()
        if (ctx.state_taints, ctx.attr_taints) == before:
            break
    ctx.reporting = True
    one_pass()

    # apply SD noqa suppressions (justification required) ----------------
    supp = suppressions.get(info.path)
    kept: list[LintFinding] = []
    for finding, _taint in ctx.findings:
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
                api_param: str | None) -> None:
    frame = _MethodFrame()
    if api_param == "auto":
        params = [a.arg for a in fn.args.args]
        frame.api_names = {params[1]} if len(params) > 1 else {"api"}
    analyzer = _Analyzer(ctx, frame, guards=[])
    analyzer.run_body(fn.body)


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

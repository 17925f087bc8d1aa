"""AST pass implementing the RPD determinism rules.

One :class:`DeterminismChecker` visit walks a module and emits
:class:`~repro.lint.rules.LintFinding` records; :func:`lint_source` is the
string-level entry point (parse, visit, apply path scopes and ``noqa``
suppressions).

Design notes
------------
The checker is *name-resolution light*: import spellings are resolved by
the shared :class:`~repro.lint.sources.ImportMap` (``import numpy as np``
makes ``np.random.rand`` recognisable) and which callables are
nondeterminism sources is :func:`~repro.lint.sources.classify_call`'s
answer, mapped here to RPD001/002/004; for the unordered-iteration rule
it tracks simple local assignments (``s = set(...)`` followed by ``for x
in s``), but it does not attempt type inference.
False negatives are accepted — a linter that misses a hazard is still
useful; one that cries wolf gets ``noqa``-ed into silence.  Every
heuristic below errs toward precision.
"""

from __future__ import annotations

import ast

from .noqa import parse_suppressions
from .rules import PARSE_ERROR_CODE, RULE_CODES, LintFinding
from .sources import (
    ImportMap,
    classify_call,
    classify_ref,
    is_set_annotation,
    is_set_expr,
    materialised_set,
    terminal_name,
)

__all__ = ["DeterminismChecker", "lint_source"]

#: source kind -> (rule code, message template over the source's label);
#: ``addr`` is absent because an ``id()`` call alone is harmless — RPD004
#: flags it only where it orders something
_SOURCE_RULES = {
    "rng": ("RPD001", "{} draws from unseeded RNG state; use a seeded "
                      "random.Random(seed) / numpy.random.default_rng(seed)"),
    "time": ("RPD002", "wall-clock read {}"),
    "entropy": ("RPD002", "{} reads OS entropy"),
}
#: callables whose result as a default argument is shared across calls
_MUTABLE_FACTORIES = frozenset({
    "list", "dict", "set", "bytearray", "defaultdict", "deque",
})
#: identifiers that mark an expression as (float) clock-typed for RPD005.
#: Integer logical clocks — epoch, phase, date — compare exactly by design
#: and are NOT listed; they are still caught when compared against a float
#: literal, because any float constant marks the comparison.
_CLOCKISH_NAMES = frozenset({
    "now", "elapsed", "duration", "deadline", "timestamp", "t0", "t1",
})
_CLOCKISH_SUFFIXES = ("_time", "_at", "_seconds", "_ts")


class DeterminismChecker(ast.NodeVisitor):
    """Single-pass visitor collecting RPD findings for one module."""

    def __init__(self) -> None:
        self.findings: list[LintFinding] = []
        self._imports = ImportMap()
        # scope stack for set-typed local names (RPD003) -----------------
        self._set_vars: list[set[str]] = [set()]

    # ------------------------------------------------------------------
    def _emit(self, node: ast.AST, code: str, message: str) -> None:
        self.findings.append(LintFinding(
            path="", line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0), code=code, message=message,
        ))

    def visit_Module(self, node: ast.Module) -> None:
        self._imports = ImportMap(node)
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # Scope handling (RPD003 set-variable tracking, RPD006 defaults)
    # ------------------------------------------------------------------
    def _check_defaults(self, node: ast.FunctionDef | ast.AsyncFunctionDef
                        | ast.Lambda) -> None:
        args = node.args
        for default in list(args.defaults) + [
            d for d in args.kw_defaults if d is not None
        ]:
            if self._is_mutable_literal(default):
                self._emit(default, "RPD006",
                           "mutable default argument is created once and "
                           "shared across calls")

    @staticmethod
    def _is_mutable_literal(node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _MUTABLE_FACTORIES
        )

    def visit_FunctionDef(self, node: ast.FunctionDef | ast.AsyncFunctionDef
                          ) -> None:
        self._check_defaults(node)
        self._set_vars.append(set())
        self.generic_visit(node)
        self._set_vars.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._set_vars.append(set())
        self.generic_visit(node)
        self._set_vars.pop()

    # ------------------------------------------------------------------
    # RPD003: the set model is `sources.is_set_expr`; the checker's own
    # memory is which local names it saw bound to one
    # ------------------------------------------------------------------
    def _known_set(self, node: ast.expr) -> bool:
        return isinstance(node, ast.Name) and any(
            node.id in scope for scope in self._set_vars)

    def visit_Assign(self, node: ast.Assign) -> None:
        is_set = is_set_expr(node.value, self._known_set)
        for target in node.targets:
            if isinstance(target, ast.Name):
                scope = self._set_vars[-1]
                if is_set:
                    scope.add(target.id)
                else:
                    scope.discard(target.id)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name) and is_set_annotation(
            node.annotation
        ):
            self._set_vars[-1].add(node.target.id)
        self.generic_visit(node)

    def visit_For(self, node: ast.For | ast.AsyncFor | ast.comprehension
                  ) -> None:
        if is_set_expr(node.iter, self._known_set):
            self._emit(node.iter, "RPD003",
                       "iteration over a set has no deterministic order; "
                       "wrap in sorted(...) or keep an ordered container")
        self.generic_visit(node)

    visit_AsyncFor = visit_comprehension = visit_For

    # ------------------------------------------------------------------
    # Calls: RPD001, RPD002, RPD003 (materialisers/popitem), RPD004
    # ------------------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        source = classify_call(node, self._imports)
        if source is not None and source.kind in _SOURCE_RULES:
            code, message = _SOURCE_RULES[source.kind]
            self._emit(node, code, message.format(source.label))
        # list(set(...)) and friends materialise in iteration order
        materialiser = materialised_set(node, self._known_set)
        if materialiser is not None:
            self._emit(node, "RPD003",
                       f"{materialiser}() over a set materialises a "
                       "nondeterministic order; use sorted(...)")
        if isinstance(func, ast.Attribute) and func.attr == "popitem":
            self._emit(node, "RPD003",
                       "dict.popitem() removes an arbitrary end of the "
                       "insertion order; pop an explicit key instead")
        # sorted/min/max/.sort with key=id
        target = terminal_name(func)
        if target in ("sorted", "min", "max", "sort"):
            for kw in node.keywords:
                if kw.arg == "key" and self._kind(kw.value) == "addr":
                    self._emit(node, "RPD004",
                               f"{target}(key=id) orders by allocator "
                               "address; use a stable key")
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # RPD004 (id comparisons) and RPD005 (float equality)
    # ------------------------------------------------------------------
    def _kind(self, node: ast.expr) -> str | None:
        """Catalogue kind of the source a call reads / a reference names."""
        source = (classify_call(node, self._imports)
                  if isinstance(node, ast.Call)
                  else classify_ref(node, self._imports))
        return source.kind if source is not None else None

    def _is_clockish(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Constant):
            return isinstance(node.value, float)
        if isinstance(node, ast.Call):
            # a host clock read, or anything's .now() (api.now(), engine.now())
            return (self._kind(node) == "time"
                    or terminal_name(node.func) == "now")
        name = terminal_name(node)
        if name is None:
            return False
        low = name.lower()
        return low in _CLOCKISH_NAMES or low.endswith(_CLOCKISH_SUFFIXES)

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for i, op in enumerate(node.ops):
            left, right = operands[i], operands[i + 1]
            if isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)):
                if self._kind(left) == self._kind(right) == "addr":
                    self._emit(node, "RPD004",
                               "ordering id() values compares allocator "
                               "addresses")
            elif isinstance(op, (ast.Eq, ast.NotEq)):
                if self._is_clockish(left) or self._is_clockish(right):
                    self._emit(node, "RPD005",
                               "exact ==/!= on a clock/epoch/phase-typed "
                               "expression; use a tolerance or integer "
                               "logical clocks")
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # RPD007: bare except
    # ------------------------------------------------------------------
    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._emit(node, "RPD007",
                       "bare `except:` also catches SystemExit/"
                       "KeyboardInterrupt and masks crash isolation")
        self.generic_visit(node)


def lint_source(
    source: str,
    path: str = "<string>",
    select: frozenset[str] | None = None,
    ignore: frozenset[str] | None = None,
) -> list[LintFinding]:
    """Lint one module's source text.

    ``select``/``ignore`` filter by rule code *after* path scoping and
    ``noqa`` suppression.  Unparseable source yields a single
    ``RPD000`` finding (a broken file cannot be certified deterministic).
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [LintFinding(path=path, line=exc.lineno or 0,
                            col=exc.offset or 0, code=PARSE_ERROR_CODE,
                            message=f"file does not parse: {exc.msg}")]
    checker = DeterminismChecker()
    checker.visit(tree)
    suppressions = parse_suppressions(source)
    out: list[LintFinding] = []
    for finding in checker.findings:
        rule = RULE_CODES[finding.code]
        if not rule.applies_to(path):
            continue
        if suppressions.suppresses(finding.line, finding.code):
            continue
        if select is not None and finding.code not in select:
            continue
        if ignore is not None and finding.code in ignore:
            continue
        out.append(LintFinding(path=path, line=finding.line, col=finding.col,
                               code=finding.code, message=finding.message))
    out.sort(key=lambda f: (f.line, f.col, f.code))
    return out

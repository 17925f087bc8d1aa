"""Send-determinism certifier: every planted violation family is caught
with a source->sink evidence path, deterministic shapes are proven, and
the shipped kernels certify clean."""

import os
import re
import textwrap

import pytest

from repro.lint import VERDICTS, analyze_paths, analyze_sources, lint_source
from repro.lint.sources import CATALOGUE

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
APPS = os.path.join(REPO, "src", "repro", "apps")

HEADER = "from repro.apps.base import RankProgram\n\n"


def analyze(body: str):
    """Analyze one fixture kernel; return its KernelReport."""
    src = HEADER + textwrap.dedent(body)
    result = analyze_sources({"fixture.py": src})
    assert not result.errors, result.errors
    assert len(result.reports) == 1
    return result.reports[0]


def codes(report):
    return sorted({f.code for f in report.findings})


# ----------------------------------------------------------------------
# Planted violations: one fixture per SD rule, each with evidence path
# ----------------------------------------------------------------------
def test_sd101_arrival_order_payload():
    report = analyze("""\
        import random
        import time

        class ArrivalSum(RankProgram):
            def run(self, api):
                acc = yield api.recv()
                yield api.send(1, acc)
        """)
    assert report.verdict == "VIOLATION"
    assert codes(report) == ["SD101"]
    msg = report.findings[0].message
    assert "recv(ANY_SOURCE)" in msg
    assert "->" in msg  # evidence path, source -> sink
    assert "api.send payload" in msg


def test_sd102_arrival_order_control():
    report = analyze("""\
        class OrderBranch(RankProgram):
            def run(self, api):
                val = yield api.recv()
                if val > 0:
                    yield api.send(1, 1.0)
        """)
    assert report.verdict == "VIOLATION"
    assert "SD102" in codes(report)
    msg = next(f.message for f in report.findings if f.code == "SD102")
    assert "dominated by arrival order" in msg
    assert "recv(ANY_SOURCE)" in msg and "->" in msg


def test_sd103_unseeded_rng_destination():
    report = analyze("""\
        import random

        class RngDestination(RankProgram):
            def run(self, api):
                dst = random.randrange(self.size)
                yield api.send(dst, 0.0)
        """)
    assert report.verdict == "VIOLATION"
    assert codes(report) == ["SD103"]
    msg = report.findings[0].message
    assert "unseeded randomness" in msg
    assert "random.randrange()" in msg and "->" in msg


def test_sd104_set_iteration():
    report = analyze("""\
        class SetLoop(RankProgram):
            def run(self, api):
                for peer in {1, 2, 3}:
                    yield api.send(peer, 0.5)
        """)
    assert report.verdict == "VIOLATION"
    assert codes(report) == ["SD104"]
    assert "unordered set" in report.findings[0].message


def test_sd104_set_stored_in_state():
    # set-ness tracked through self.state across methods
    report = analyze("""\
        class SetIterState(RankProgram):
            def __init__(self, rank, size):
                super().__init__(rank, size)
                self.state["peers"] = {1, 2, 3}

            def run(self, api):
                for peer in self.state["peers"]:
                    yield api.send(peer, 0.5)
        """)
    assert report.verdict == "VIOLATION"
    assert codes(report) == ["SD104"]


def test_sd104_set_stored_on_attribute():
    report = analyze("""\
        class AttrSetIter(RankProgram):
            def __init__(self, rank, size):
                super().__init__(rank, size)
                self.peers = set(range(size))

            def run(self, api):
                for peer in self.peers:
                    yield api.send(peer, 1.0)
        """)
    assert report.verdict == "VIOLATION"
    assert codes(report) == ["SD104"]


def test_sd105_wall_clock_payload():
    report = analyze("""\
        import time

        class WallClockPayload(RankProgram):
            def run(self, api):
                yield api.send(1, time.time())
        """)
    assert report.verdict == "VIOLATION"
    assert codes(report) == ["SD105"]
    msg = report.findings[0].message
    assert "clock reading" in msg and "time.time()" in msg


def test_sd106_address_payload():
    report = analyze("""\
        class AddrPayload(RankProgram):
            def run(self, api):
                yield api.send(1, id(api))
        """)
    assert report.verdict == "VIOLATION"
    assert codes(report) == ["SD106"]
    assert "id()" in report.findings[0].message


# ----------------------------------------------------------------------
# Deterministic shapes must NOT be flagged
# ----------------------------------------------------------------------
def test_sorted_combine_is_proven():
    # the paper's canonical SD pattern: arrival order is erased by a
    # commutative/sorted combine before anything reaches a send
    report = analyze("""\
        class SortedCombine(RankProgram):
            def run(self, api):
                if self.rank == 0:
                    parts = []
                    for _ in range(self.size - 1):
                        parts.append((yield api.recv()))
                    yield api.send(0, sum(sorted(parts)))
                else:
                    yield api.send(0, float(self.rank))
        """)
    assert report.verdict == "PROVEN_SD"
    assert report.findings == []


def test_list_in_state_is_proven():
    # lists are ordered: storing one in state must not poison iteration
    report = analyze("""\
        class ListIterState(RankProgram):
            def __init__(self, rank, size):
                super().__init__(rank, size)
                self.state["peers"] = [1, 2, 3]

            def run(self, api):
                for peer in self.state["peers"]:
                    yield api.send(peer, 0.5)
        """)
    assert report.verdict == "PROVEN_SD"
    assert report.findings == []


def test_sorted_set_iteration_is_proven():
    report = analyze("""\
        class SortedSetLoop(RankProgram):
            def run(self, api):
                for peer in sorted({1, 2, 3}):
                    yield api.send(peer, 0.5)
        """)
    assert report.verdict == "PROVEN_SD"


def test_seeded_rng_is_proven():
    report = analyze("""\
        import random

        class SeededRng(RankProgram):
            def run(self, api):
                rng = random.Random(self.rank)
                yield api.send((self.rank + 1) % self.size, rng.random())
        """)
    assert report.verdict == "PROVEN_SD"
    assert report.findings == []


# ----------------------------------------------------------------------
# One source model: every catalogue entry, under every import spelling,
# is a VIOLATION to the certifier and an RPD finding on the same line
# ----------------------------------------------------------------------
#: source kind -> (certifier code, linter code)
EXPECTED_CODES = {
    "rng": ("SD103", "RPD001"),
    "entropy": ("SD103", "RPD002"),
    "time": ("SD105", "RPD002"),
    "addr": ("SD106", "RPD004"),
}
#: representative attributes of the owners whose whole namespace is a
#: source (catalogue value ``None``); constructors are called unseeded
OPEN_ENDED = {
    "random": ("random", "randint", "lognormvariate", "seed", "Random",
               "SystemRandom"),
    "numpy.random": ("rand", "randint", "normal", "seed", "default_rng",
                     "RandomState"),
}
#: catalogue owners (and prefixes) that are importable modules
MODULES = {"random", "numpy", "numpy.random", "time", "datetime", "os"}


def spellings(dotted):
    """``(import line, reference)`` for every way to reach ``dotted``."""
    parts = dotted.split(".")
    if parts[0] == "builtins":
        yield "", parts[1]
        return
    yield f"import {parts[0]}", dotted
    yield f"import {parts[0]} as m_", ".".join(["m_"] + parts[1:])
    for k in range(1, len(parts)):
        module, rest = ".".join(parts[:k]), parts[k:]
        if module not in MODULES:
            break
        yield f"from {module} import {rest[0]}", ".".join(rest)
        yield (f"from {module} import {rest[0]} as g_",
               ".".join(["g_"] + rest[1:]))
        if k > 1:
            yield f"import {module}", dotted
            yield f"import {module} as sub_", ".".join(["sub_"] + rest)


def parity_cases():
    for owner, (kind, attrs) in CATALOGUE.items():
        for attr in sorted(attrs if attrs is not None else OPEN_ENDED[owner]):
            for imports, ref in spellings(f"{owner}.{attr}"):
                # RPD004 flags id() only where it orders something
                expr = (f"{ref}(self) < {ref}(api)" if kind == "addr"
                        else f"{ref}()")
                yield pytest.param(imports, expr, *EXPECTED_CODES[kind],
                                   id=f"{imports or 'builtin'}: {expr}")


#: the spellings one analysis flagged and the other certified PROVEN_SD
#: before the two shared a source model
DRIFTED = [
    pytest.param("from time import perf_counter", "perf_counter()",
                 "SD105", "RPD002", id="from-time-import-perf_counter"),
    pytest.param("import time", "time.thread_time()",
                 "SD105", "RPD002", id="time.thread_time"),
    pytest.param("import random", "random.lognormvariate(0, 1)",
                 "SD103", "RPD001", id="random.lognormvariate"),
    pytest.param("from random import random", "random()",
                 "SD103", "RPD001", id="from-random-import-random"),
    pytest.param("import os as o", "o.urandom(8)",
                 "SD103", "RPD002", id="import-os-as-o"),
    pytest.param("from os import urandom", "urandom(8)",
                 "SD103", "RPD002", id="from-os-import-urandom"),
]


def sending_kernel(imports, expr):
    return HEADER + (f"{imports}\n\n"
                     "class Sends(RankProgram):\n"
                     "    def run(self, api):\n"
                     f"        yield api.send(1, {expr})\n")


@pytest.mark.parametrize("imports,expr,sd_code,rpd_code",
                         DRIFTED + list(parity_cases()))
def test_source_is_flagged_by_both_analyses(imports, expr, sd_code, rpd_code):
    src = sending_kernel(imports, expr)
    report = analyze_sources({"fixture.py": src}).reports[0]
    assert report.verdict == "VIOLATION"
    assert codes(report) == [sd_code]
    send_line = report.findings[0].line
    assert (rpd_code, send_line) in [
        (f.code, f.line) for f in lint_source(src, path="fixture.py")]


@pytest.mark.parametrize("imports,expr", [
    ("import numpy as np", "np.random.default_rng(seed=42).random()"),
    ("from numpy.random import default_rng", "default_rng(seed=42).random()"),
    ("import numpy.random as npr", "npr.default_rng(7).random()"),
    ("import numpy", "numpy.random.SeedSequence(entropy=3).entropy"),
    ("import random", "random.Random(x=7).random()"),
    ("from random import Random as R", "R(7).random()"),
])
def test_seeded_constructor_is_clean_under_both_analyses(imports, expr):
    src = sending_kernel(imports, expr)
    report = analyze_sources({"fixture.py": src}).reports[0]
    assert report.verdict == "PROVEN_SD", [f.message for f in report.findings]
    assert lint_source(src, path="fixture.py") == []


def test_seeded_constructor_is_only_as_clean_as_its_seed():
    report = analyze("""\
        import time
        import numpy as np

        class ClockSeeded(RankProgram):
            def run(self, api):
                rng = np.random.default_rng(time.time_ns())
                yield api.send(1, rng.random())
        """)
    assert report.verdict == "VIOLATION"
    assert codes(report) == ["SD105"]


# ----------------------------------------------------------------------
# noqa: justification required for the SD family
# ----------------------------------------------------------------------
def test_justified_noqa_downgrades_to_conditional():
    report = analyze("""\
        import time

        class Justified(RankProgram):
            def run(self, api):
                yield api.send(1, time.time())  # repro: noqa[SD105]: benchmark timestamp, receiver ignores value
        """)
    assert report.verdict == "CONDITIONAL"
    assert report.findings == []
    assert len(report.suppressed) == 1
    code, _line, reason = report.suppressed[0]
    assert code == "SD105"
    assert "benchmark timestamp" in reason


def test_bare_sd_noqa_is_sd100_and_finding_kept():
    src = HEADER + textwrap.dedent("""\
        import time

        class Bare(RankProgram):
            def run(self, api):
                yield api.send(1, time.time())  # repro: noqa[SD105]
        """)
    result = analyze_sources({"fixture.py": src})
    report = result.reports[0]
    # the unjustified marker neither suppresses nor certifies
    assert report.verdict == "VIOLATION"
    assert codes(report) == ["SD105"]
    assert [f.code for f in result.noqa_findings] == ["SD100"]
    assert "justification" in result.noqa_findings[0].message


# ----------------------------------------------------------------------
# The shipped kernels certify clean (no false positives)
# ----------------------------------------------------------------------
def test_shipped_kernels_all_certified():
    result = analyze_paths([APPS])
    assert not result.errors, result.errors
    names = {r.name for r in result.reports}
    assert {"Stencil1D", "Stencil2D", "CGKernel", "LUKernel", "FTKernel",
            "ISKernel", "MGKernel", "BTKernel", "SPKernel", "ADIKernel",
            "ReduceTreeKernel", "PingPong"} <= names
    for report in result.reports:
        assert report.verdict in ("PROVEN_SD", "CONDITIONAL"), (
            report.name, report.verdict,
            [f.message for f in report.findings])
        assert report.findings == [], (report.name,
                                       [f.message for f in report.findings])
    assert result.noqa_findings == []


def test_reports_carry_digest_and_valid_verdicts():
    result = analyze_paths([APPS])
    for report in result.reports:
        assert report.verdict in VERDICTS
        assert len(report.digest) == 32  # blake2b-16 hex
        assert report.path.endswith(".py")
        assert report.line > 0


def test_digest_tracks_kernel_source():
    base = """\
        class Digested(RankProgram):
            def run(self, api):
                yield api.send(1, {payload})
        """
    a = analyze(base.format(payload="1.0"))
    b = analyze(base.format(payload="2.0"))
    assert a.digest != b.digest
    again = analyze(base.format(payload="1.0"))
    assert a.digest == again.digest


# ----------------------------------------------------------------------
# No node launders, no block hides: the walker visits every child of
# every node, so routing an arrival-ordered value through ANY expression
# form reaches the send (SD101) and a send nested in ANY block of a
# compound statement is found under its header (SD102)
# ----------------------------------------------------------------------
LAUNDERING = os.path.join(REPO, "tests", "lint", "fixtures",
                          "laundering_kernels.py")

#: expression form -> an expression over ``w = recv(ANY_SOURCE)``
EXPRESSION_FORMS = {
    "BinOp": "1 + w",
    "BoolOp": "0 or w",
    "UnaryOp": "-w",
    "Compare": "1 < 2 < w",
    "IfExp test": "1 if w else 2",
    "IfExp branch": "1 if self.rank else w",
    "tuple display": "(1, w)",
    "list display": "[1, w]",
    "set display": "{1, w}",
    "dict key": "{w: 1}",
    "dict value": "{1: w}",
    "dict **": "{1: 2, **w}",
    "Starred": "[1, *w]",
    "f-string value": 'f"{w}"',
    "f-string spec": 'f"{1:{w}}"',
    "index": '"abc"[w]',
    "slice bound": '"abc"[1:w]',
    "slice step": '"abc"[::w]',
    "attribute": "w.real",
    "call positional": "abs(w)",
    "call keyword": "dict(k=w)",
    "call *args": "print(*w)",
    "call **kwargs": "dict(**w)",
    "call func": "w()",
    "method receiver": "w.bit_length()",
    "comprehension element": "[w for _ in range(2)]",
    "comprehension iterable": "[1 for _ in w]",
    "comprehension condition": "[1 for _ in range(4) if w > 2]",
    "nested generator": "[1 for _ in range(2) for _ in range(w)]",
    "set comprehension": "{w for _ in range(2)}",
    "dict comprehension key": "{w: 1 for _ in range(2)}",
    "dict comprehension value": "{1: w for _ in range(2)}",
    "generator expression": "sum(w for _ in range(2))",
    "lambda capture": "(lambda: w)()",
    "lambda default": "(lambda x=w: x)()",
    "walrus": "(v := w)",
    "walrus read back": "[(v := w), v][1]",
    "helper positional": "self.helper(w)",
    "helper keyword": "self.helper(x=w)",
    "helper keyword-only": "self.helper(k=w)",
    "helper *args": "self.helper(*w)",
    "helper **kwargs": "self.helper(**w)",
}


@pytest.mark.parametrize("expr", EXPRESSION_FORMS.values(),
                         ids=EXPRESSION_FORMS.keys())
def test_no_expression_form_launders_arrival_order(expr):
    report = analyze(f"""\
        class Launders(RankProgram):
            def helper(self, x=0, *rest, k=0, **more):
                return [x, rest, k, more]

            def run(self, api):
                w = yield api.recv()
                yield api.send(1, {expr})
        """)
    assert report.verdict == "VIOLATION", expr
    assert codes(report) == ["SD101"], expr
    assert report.findings[0].line == 9


#: compound statement -> a body whose one send sits in the named block,
#: under a header that read ``w = recv(ANY_SOURCE)``
SEND = "yield api.send(1, 1.0)"
STATEMENT_FORMS = {
    "if body": f"if w:\n    {SEND}",
    "if else": f"if w:\n    pass\nelse:\n    {SEND}",
    "elif": f"if self.rank:\n    pass\nelif w:\n    {SEND}",
    "while body": f"while w:\n    {SEND}",
    "while else": f"while w:\n    pass\nelse:\n    {SEND}",
    "for body": f"for _ in range(w):\n    {SEND}",
    "for else": f"for _ in range(w):\n    pass\nelse:\n    {SEND}",
    "with body": f"with open(w):\n    {SEND}",
    "with as": f"with open(w) as fh:\n    {SEND}",
    "try body": f"if w:\n    try:\n        {SEND}\n    finally:\n        pass",
    "try handler": ("if w:\n    try:\n        pass\n"
                    f"    except ValueError:\n        {SEND}"),
    "try else": ("if w:\n    try:\n        pass\n    except ValueError:\n"
                 f"        pass\n    else:\n        {SEND}"),
    "try finally": f"if w:\n    try:\n        pass\n    finally:\n        {SEND}",
    "except type": f"try:\n    pass\nexcept w:\n    {SEND}",
    "match subject": f"match w:\n    case 1:\n        {SEND}",
    "match default": (f"match w:\n    case 1:\n        pass\n"
                      f"    case _:\n        {SEND}"),
    "match guard": f"match self.rank:\n    case r if r > w:\n        {SEND}",
    "match value": f"match self.rank:\n    case w.real:\n        {SEND}",
}


@pytest.mark.parametrize("body", STATEMENT_FORMS.values(),
                         ids=STATEMENT_FORMS.keys())
def test_no_block_hides_a_send_from_its_header(body):
    src = HEADER + ("class Hides(RankProgram):\n"
                    "    def run(self, api):\n"
                    "        w = yield api.recv()\n"
                    + textwrap.indent(body, " " * 8) + "\n")
    report = analyze_sources({"fixture.py": src}).reports[0]
    assert report.verdict == "VIOLATION", body
    assert codes(report) == ["SD102"], body
    send_line = 1 + src.splitlines().index(
        next(ln for ln in src.splitlines() if SEND in ln))
    assert [f.line for f in report.findings] == [send_line]


def test_match_capture_binds_the_subject():
    report = analyze("""\
        class Captures(RankProgram):
            def run(self, api):
                w = yield api.recv()
                match w:
                    case [first, *rest]:
                        pass
                yield api.send(1, first)
                yield api.send(2, rest)
        """)
    assert codes(report) == ["SD101"]
    assert [f.line for f in report.findings] == [9, 10]


def test_store_into_an_object_taints_the_container_it_hangs_off():
    # the value AND every index on the way: d[w] = 1 makes d's key set
    # arrival-ordered
    for store in ("d[w] = 1", "d[0] = w", "d[0][w] = 1", "d.field = w",
                  "d.append(w)", "d[0].add(w)"):
        report = analyze(f"""\
            class Stores(RankProgram):
                def run(self, api):
                    w = yield api.recv()
                    d = [set()]
                    {store}
                    yield api.send(1, d)
            """)
        assert codes(report) == ["SD101"], store
    for store in ('self.state["k"][w] = 1', "self.seen[w] = 1",
                  "self.seen.append(w)", "st = self.state; st[w] = 1"):
        report = analyze(f"""\
            class Stores(RankProgram):
                def run(self, api):
                    w = yield api.recv()
                    {store}
                    yield api.send(1, [self.state["k"], self.seen])
            """)
        assert codes(report) == ["SD101"], store


def test_scope_the_walker_does_not_enter_is_an_assumption():
    # a nested def is not executed in place: what it captures and sends
    # is assumed, in writing, instead of passing silently as PROVEN_SD
    report = analyze("""\
        class Nested(RankProgram):
            def run(self, api):
                w = yield api.recv()

                def relay():
                    yield api.send(1, w)

                yield from relay()
        """)
    assert report.verdict == "CONDITIONAL"
    assert len(report.assumptions) == 1
    assert "nested FunctionDef relay" in report.assumptions[0]


def test_laundering_fixtures_are_all_violations():
    result = analyze_paths([LAUNDERING])
    assert not result.errors
    assert sorted(r.name for r in result.reports) == [
        "CompIf", "FSpec", "KeyStore", "LambdaCapture", "MatchStmt",
        "SetAnn", "SetListed", "SetMethod", "SetUnion"]
    by_name = {r.name: r for r in result.reports}
    for name, report in by_name.items():
        assert report.verdict == "VIOLATION", name
    for name in ("FSpec", "CompIf", "LambdaCapture", "KeyStore"):
        assert codes(by_name[name]) == ["SD101"], name
    assert codes(by_name["MatchStmt"]) == ["SD102"]
    for name in ("SetUnion", "SetMethod", "SetAnn", "SetListed"):
        assert codes(by_name[name]) == ["SD104"], name


# ----------------------------------------------------------------------
# One set model: every line the linter flags as RPD003 (unordered
# iteration) is the source of an SD104 finding when the iterated value
# reaches a send
# ----------------------------------------------------------------------
#: ``(setup statements, iterable)`` for ``for x in <iterable>: send(x)``
SET_FORMS = [
    ("", "{1, 2, 3}"),
    ("", "{n for n in range(3)}"),
    ("", "set(range(3))"),
    ("", "frozenset(range(3))"),
    ("a = {1, 2}", "a"),
    ("a = {1, 2}", "a | {3}"),
    ("a = {1, 2}", "a & {1}"),
    ("a = {1, 2}", "a ^ {1}"),
    ("a = {1, 2}", "a - {1}"),
    ("a = {1, 2}", "{0} | a"),
    ("a = {1, 2}", "a.union({3})"),
    ("a = {1, 2}", "a.intersection({1})"),
    ("a = {1, 2}", "a.difference({1})"),
    ("a = {1, 2}", "a.symmetric_difference({1})"),
    ("a = {1, 2}", "a.copy()"),
    ("a = {1, 2}", "a.copy().union({3})"),
    ("a: set[int] = set(); a.add(1)", "a"),
    ("a: frozenset = frozenset((1, 2))", "a"),
    ("import typing; a: typing.AbstractSet[int] = {1}", "a"),
    ("a = {1, 2}", "list(a)"),
    ("a = {1, 2}", "tuple(a)"),
    ("a = {1, 2}", "iter(a)"),
    ("a = {1, 2}", "enumerate(a)"),
    ("a = {1, 2}; b = a", "b"),
    ("a = {1, 2}", "[n for n in a]"),
    ("a = {1, 2}", "(n for n in a | {3})"),
]


def set_kernel(setup, iterable):
    return HEADER + ("class Iterates(RankProgram):\n"
                     "    def run(self, api):\n"
                     f"        {setup or 'pass'}\n"
                     f"        for x in {iterable}:\n"
                     "            yield api.send(1, x)\n")


def sd104_source_lines(report):
    """The line each SD104 evidence path starts at."""
    return {int(re.search(r"\(line (\d+)\)", f.message).group(1))
            for f in report.findings if f.code == "SD104"}


@pytest.mark.parametrize("setup,iterable", SET_FORMS,
                         ids=[f"{s}; {i}" if s else i for s, i in SET_FORMS])
def test_every_rpd003_line_is_an_sd104_source(setup, iterable):
    src = set_kernel(setup, iterable)
    flagged = {f.line for f in lint_source(src, path="fixture.py")
               if f.code == "RPD003"}
    assert flagged == {6}, "the linter must flag the iteration line"
    report = analyze_sources({"fixture.py": src}).reports[0]
    assert report.verdict == "VIOLATION"
    assert codes(report) == ["SD104"]
    assert flagged <= sd104_source_lines(report)


def test_rpd003_and_sd104_agree_on_the_laundering_fixtures():
    with open(LAUNDERING, encoding="utf-8") as fh:
        src = fh.read()
    flagged = {f.line for f in lint_source(src, path=LAUNDERING)
               if f.code == "RPD003"}
    assert len(flagged) == 4
    sources = set()
    for report in analyze_sources({LAUNDERING: src}).reports:
        sources |= sd104_source_lines(report)
    assert flagged == sources


@pytest.mark.parametrize("iterable", ["sorted(a)", "sorted(a | {3})",
                                      "range(len(a))", "[1, 2]",
                                      "list((1, 2))", "d", "d | d"])
def test_ordered_iteration_is_clean_under_both_analyses(iterable):
    src = set_kernel("a = {1, 2}; d = {1: 2}", iterable)
    assert lint_source(src, path="fixture.py") == []
    report = analyze_sources({"fixture.py": src}).reports[0]
    assert report.verdict == "PROVEN_SD", [f.message for f in report.findings]

"""Per-rule unit tests for the determinism linter.

Each rule gets a true-positive, a true-negative and (where interesting) a
``# repro: noqa[...]`` suppression, all via :func:`lint_source` on string
fixtures.  Paths matter: a path outside the ``repro`` package tree is
"unknown location" and gets every rule, while package paths exercise the
scoping (obs/ exempt from RPD002, only core/simmpi/sweep get RPD003).
"""

import textwrap

from repro.lint import PARSE_ERROR_CODE, RULE_CODES, RULES, lint_source, module_parts

#: strict default — outside the repro tree, every rule applies
ANY = "scratch/fixture.py"
CORE = "src/repro/core/protocol.py"
OBS = "src/repro/obs/export.py"
ANALYSIS = "src/repro/analysis/tables.py"


def codes(source, path=ANY, **kw):
    return [f.code for f in lint_source(textwrap.dedent(source), path=path, **kw)]


# ----------------------------------------------------------------------
# Catalog sanity
# ----------------------------------------------------------------------

def test_catalog_codes_unique_and_stable():
    assert len(RULE_CODES) == len(RULES) == 14
    assert sorted(RULE_CODES) == (
        [f"RPD00{i}" for i in range(1, 8)] + [f"SD10{i}" for i in range(7)]
    )
    assert PARSE_ERROR_CODE == "RPD000"


def test_module_parts():
    assert module_parts("src/repro/core/protocol.py") == ("core", "protocol.py")
    assert module_parts("a\\repro\\obs\\x.py") == ("obs", "x.py")
    assert module_parts("elsewhere/script.py") is None


# ----------------------------------------------------------------------
# RPD001 unseeded-rng
# ----------------------------------------------------------------------

def test_rpd001_module_level_random():
    assert codes("""
        import random
        x = random.random()
    """) == ["RPD001"]


def test_rpd001_numpy_global_and_aliases():
    assert codes("""
        import numpy as np
        import numpy.random as npr
        a = np.random.rand(3)
        b = npr.randint(10)
    """) == ["RPD001", "RPD001"]


def test_rpd001_from_import():
    assert codes("""
        from random import randint
        x = randint(0, 9)
    """) == ["RPD001"]


def test_rpd001_seeded_constructions_clean():
    assert codes("""
        import random
        import numpy as np
        rng = random.Random(42)
        x = rng.random()
        g = np.random.default_rng(7)
        y = g.integers(10)
        kw = random.Random(x=42)
        gk = np.random.default_rng(seed=7)
    """) == []


# ----------------------------------------------------------------------
# RPD002 wall-clock-read
# ----------------------------------------------------------------------

def test_rpd002_time_and_datetime():
    assert codes("""
        import time
        import datetime
        t = time.perf_counter()
        u = time.time()
        d = datetime.datetime.now()
    """) == ["RPD002"] * 3


def test_rpd002_from_import_alias():
    assert codes("""
        from time import monotonic as mono
        t = mono()
    """) == ["RPD002"]


def test_rpd002_exempt_in_obs():
    src = """
        import time
        t = time.time()
    """
    assert codes(src, path=OBS) == []
    assert codes(src, path=CORE) == ["RPD002"]


# ----------------------------------------------------------------------
# RPD003 unordered-iteration
# ----------------------------------------------------------------------

def test_rpd003_set_iteration_in_core():
    assert codes("""
        def f(s: set):
            for x in s | {1}:
                print(x)
    """, path=CORE) == ["RPD003"]


def test_rpd003_tracked_set_variable_and_materialisers():
    assert codes("""
        pending = {1, 2, 3}
        order = list(pending)
        for p in pending:
            pass
    """, path=CORE) == ["RPD003", "RPD003"]


def test_rpd003_popitem():
    assert codes("""
        d = {1: 2}
        k, v = d.popitem()
    """, path=CORE) == ["RPD003"]


def test_rpd003_sorted_is_clean_and_scope_limited():
    src = """
        pending = {1, 2, 3}
        for p in sorted(pending):
            pass
    """
    assert codes(src, path=CORE) == []
    # set iteration is allowed outside the order-sensitive packages
    bad = """
        for x in {1, 2}:
            pass
    """
    assert codes(bad, path=ANALYSIS) == []
    assert codes(bad, path=CORE) == ["RPD003"]


# ----------------------------------------------------------------------
# RPD004 id-ordering
# ----------------------------------------------------------------------

def test_rpd004_sort_key_and_comparison():
    assert codes("""
        xs = [object(), object()]
        xs.sort(key=id)
        first = min(xs, key=id)
        flag = id(xs[0]) < id(xs[1])
    """) == ["RPD004"] * 3


def test_rpd004_identity_equality_is_fine():
    assert codes("""
        a, b = object(), object()
        same = id(a) == id(b)
    """) == []


# ----------------------------------------------------------------------
# RPD005 float-equality
# ----------------------------------------------------------------------

def test_rpd005_float_literal_equality():
    assert codes("""
        def f(t):
            return t == 0.5
    """) == ["RPD005"]


def test_rpd005_clockish_names():
    assert codes("""
        def f(now, deadline):
            return now != deadline
    """) == ["RPD005"]


def test_rpd005_integer_logical_clocks_clean():
    assert codes("""
        def f(epoch, phase):
            return epoch == 3 and phase != 0
    """) == []


# ----------------------------------------------------------------------
# RPD006 mutable-default
# ----------------------------------------------------------------------

def test_rpd006_mutable_defaults():
    assert codes("""
        def f(xs=[], m={}, s=set()):
            pass
    """) == ["RPD006"] * 3


def test_rpd006_immutable_defaults_clean():
    assert codes("""
        def f(xs=(), m=None, s=frozenset(), *, k=0):
            pass
    """) == []


# ----------------------------------------------------------------------
# RPD007 bare-except
# ----------------------------------------------------------------------

def test_rpd007_bare_except():
    assert codes("""
        try:
            pass
        except:
            pass
    """) == ["RPD007"]


def test_rpd007_typed_except_clean():
    assert codes("""
        try:
            pass
        except Exception:
            pass
    """) == []


# ----------------------------------------------------------------------
# Suppressions, select/ignore, parse errors
# ----------------------------------------------------------------------

def test_noqa_specific_code():
    assert codes("""
        import time
        t = time.time()  # repro: noqa[RPD002]
    """) == []


def test_noqa_blanket_and_wrong_code():
    assert codes("""
        import time
        t = time.time()  # repro: noqa
    """) == []
    assert codes("""
        import time
        t = time.time()  # repro: noqa[RPD001]
    """) == ["RPD002"]


def test_plain_flake8_noqa_does_not_suppress():
    """Only the namespaced form counts; `# noqa` belongs to other tools."""
    assert codes("""
        import time
        t = time.time()  # noqa
    """) == ["RPD002"]


def test_select_and_ignore():
    src = """
        import time
        t = time.time()
        try:
            pass
        except:
            pass
    """
    assert codes(src, select=frozenset({"RPD007"})) == ["RPD007"]
    assert codes(src, ignore=frozenset({"RPD007"})) == ["RPD002"]


def test_syntax_error_becomes_parse_finding():
    found = lint_source("def f(:\n", path=ANY)
    assert [f.code for f in found] == [PARSE_ERROR_CODE]


def test_findings_sorted_and_renderable():
    found = lint_source(textwrap.dedent("""
        import time
        b = time.time()
        a = time.time()
    """), path=ANY)
    assert [f.line for f in found] == sorted(f.line for f in found)
    for f in found:
        assert f.render().startswith(f"{ANY}:{f.line}:")
        assert set(f.to_json()) == {"path", "line", "col", "code", "message"}

"""Cold start: what a process imports is what it runs.

``import repro.core`` used to pull networkx (for one clustering function)
and, through the engine's sanitizer import, the whole static analyser;
``import repro.service`` pulled asyncio, ssl and the process pool.  The
probes run in a subprocess: this process has long imported everything.
"""

import ast
import importlib
import os
import subprocess
import sys

import pytest

import repro

PROBE = """
import sys
import repro.core, repro.analysis, repro.apps
heavy = [m for m in ("networkx", "repro.lint.sendet", "repro.lint.certify",
                     "repro.lint.checker", "repro.lint.runner")
         if m in sys.modules]
assert not heavy, heavy
assert "repro.lint.sanitize" in sys.modules      # the engine's one import

# the package namespace still answers for everything, on first use
import repro.lint
from repro.lint import analyze_paths, lint_source, sanitizer_for
assert "repro.lint.sendet" in sys.modules and "repro.lint.checker" in sys.modules
assert repro.lint.lint_source is lint_source     # cached after the first get
namespace = {}
exec("from repro.lint import *", namespace)
missing = [n for n in repro.lint.__all__ if n not in namespace]
assert not missing, missing
try:
    repro.lint.no_such_name
except AttributeError as err:
    assert "no_such_name" in str(err)
else:
    raise AssertionError("unknown attribute resolved")

# the one networkx user imports it when called
import numpy as np
from repro.core.clustering import modularity_clusters
assert "networkx" not in sys.modules
ring = np.roll(np.eye(8, dtype=np.int64), 1, axis=1)
assert len(modularity_clusters(ring + ring.T, 2)) == 8
assert "networkx" in sys.modules
print("ok")
"""


CHAOS_PROBE = """
import sys
import repro.campaigns, repro.service, repro.chaos
report = repro.chaos.run_campaign(1, seed=0, workers=1, shrink=0)
assert report.trials == 1
print(" ".join(m for m in NEVER if m in sys.modules))
"""

SWEEP_PROBE = """
import sys
from repro.campaigns import selftest_cell, selftest_tasks
from repro.sweep import run_sweep
results = run_sweep(selftest_cell, selftest_tasks(4), workers=2)
assert all(r.ok for r in results) and "repro.sweep.scheduler" in sys.modules
print(" ".join(m for m in sys.modules if m.startswith("repro.service")))
"""

#: what a chaos campaign never calls: the service's server and client, the
#: sweep's process pool, the dashboard, explainer and trace exporter, the
#: analyses Table I does not print, the shrinker, and the stdlib only those
#: reach
NEVER = ("asyncio ssl socket html csv logging concurrent.futures "
         "multiprocessing repro.service.server repro.service.client "
         "repro.sweep.scheduler repro.obs.report repro.obs.explain "
         "repro.obs.perfetto repro.analysis.commmatrix "
         "repro.analysis.timeline repro.chaos.shrink").split()

FACADES = ("analysis", "chaos", "lint", "obs", "service", "sweep")


def _run_probe(probe: str) -> str:
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_cell_imports_neither_networkx_nor_the_static_analyser():
    assert _run_probe(PROBE) == "ok"


def test_chaos_campaign_loads_only_what_it_runs():
    loaded = _run_probe(f"NEVER = {NEVER!r}\n" + CHAOS_PROBE)
    assert loaded == "", f"a chaos campaign loaded {loaded}"


def test_a_pooled_sweep_never_loads_the_service():
    """The pool lives in ``repro.sweep``: the service depends on the
    sweep, never the other way round."""
    loaded = _run_probe(SWEEP_PROBE)
    assert loaded == "", f"a pooled sweep loaded {loaded}"


def _static_names(package) -> dict[str, str]:
    """Name -> submodule, as the package's ``TYPE_CHECKING`` imports (what
    a type checker reads) declare it."""
    with open(package.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    block = next(node for node in tree.body if isinstance(node, ast.If)
                 and getattr(node.test, "id", None) == "TYPE_CHECKING")
    return {alias.name: imp.module for imp in block.body
            for alias in imp.names}


@pytest.mark.parametrize("name", FACADES)
def test_facade_resolves_what_type_checkers_read(name):
    package = importlib.import_module(f"repro.{name}")
    static = _static_names(package)
    assert sorted(package.__all__) == sorted(static)
    for attr, module in static.items():
        submodule = importlib.import_module(f"repro.{name}.{module}")
        assert getattr(package, attr) is getattr(submodule, attr), attr
    assert set(package.__all__) <= set(dir(package))
    namespace: dict = {}
    exec(f"from repro.{name} import *", namespace)
    assert set(package.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match=f"'repro.{name}'.*no_such_name"):
        getattr(package, "no_such_name")

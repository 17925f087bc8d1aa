"""Cold start: what a Table-I cell imports is what it uses.

``import repro.core`` used to pull networkx (for one clustering function)
and, through the engine's sanitizer import, the whole static analyser.
Run in a subprocess: this process has long imported everything.
"""

import os
import subprocess
import sys

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


def test_cell_imports_neither_networkx_nor_the_static_analyser():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"

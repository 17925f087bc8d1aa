"""Content-addressed result cache: keys, invalidation, storage."""

import os
import pickle
import shutil
import subprocess
import sys

import pytest

from repro.campaigns import selftest_cell, table1_cell
from repro.service import CacheUnkeyable, ResultCache, cache_key, canonical_params
from repro.sweep import SweepResult
from repro.sweep.executor import mp_context


# ----------------------------------------------------------------------
# canonical params
# ----------------------------------------------------------------------

def test_canonical_params_sorted_and_compact():
    assert canonical_params({"b": 2, "a": [1, None]}) == '{"a":[1,null],"b":2}'


def test_canonical_params_excludes_injected_entries():
    """``seed`` and ``obs`` are injected by the executor — the seed is a
    separate key component, and the registry is per-run machinery."""
    a = canonical_params({"x": 1})
    b = canonical_params({"x": 1, "seed": 42, "obs": object()})
    assert a == b


def test_canonical_params_refuses_ambiguity():
    with pytest.raises(CacheUnkeyable):
        canonical_params({1: "a", "1": "b"})  # colliding stringified keys
    with pytest.raises(CacheUnkeyable):
        canonical_params({"x": object()})  # repr() is not content-stable


# ----------------------------------------------------------------------
# cache keys
# ----------------------------------------------------------------------

def test_cache_key_sensitive_to_every_component():
    base = cache_key(selftest_cell, {"i": 1}, seed=7)
    assert cache_key(selftest_cell, {"i": 1}, seed=7) == base  # stable
    assert cache_key(selftest_cell, {"i": 2}, seed=7) != base
    assert cache_key(selftest_cell, {"i": 1}, seed=8) != base
    assert cache_key(selftest_cell, {"i": 1}, seed=7,
                     collect_obs=True) != base
    assert cache_key(selftest_cell, {"i": 1}, seed=7,
                     timeseries=0.5) != base
    assert cache_key(table1_cell, {"i": 1}, seed=7) != base  # code digest


def test_cache_key_sensitive_to_sanitizer_arming(monkeypatch):
    from repro.lint.sanitize import ENV_VAR

    monkeypatch.delenv(ENV_VAR, raising=False)
    off = cache_key(selftest_cell, {"i": 1}, seed=7)
    monkeypatch.setenv(ENV_VAR, "1")
    on = cache_key(selftest_cell, {"i": 1}, seed=7)
    assert on != off


@pytest.mark.parametrize("spelling", ["off", "false", " No ", "0"])
def test_cache_key_arming_is_the_sanitizers_own_rule(monkeypatch, spelling):
    """The key's ``sanitize`` flag is ``sanitize_enabled()``: a value that
    leaves every component unsanitized must address the unsanitized
    entries, never the ones a ``REPRO_SANITIZE=1`` run is served."""
    from repro.lint.sanitize import ENV_VAR

    monkeypatch.delenv(ENV_VAR, raising=False)
    unset = cache_key(selftest_cell, {"i": 1}, seed=7)
    monkeypatch.setenv(ENV_VAR, spelling)
    assert cache_key(selftest_cell, {"i": 1}, seed=7) == unset
    monkeypatch.setenv(ENV_VAR, "1")
    assert cache_key(selftest_cell, {"i": 1}, seed=7) != unset


def test_cache_key_covers_kernel_dependency():
    """``table1_cell`` results depend on the named kernel class: different
    kernels must address differently even with otherwise equal params."""
    cg = cache_key(table1_cell, {"kernel": "CG", "ranks": 8}, seed=1)
    ft = cache_key(table1_cell, {"kernel": "FT", "ranks": 8}, seed=1)
    assert cg != ft


def test_cache_key_covers_every_source_file_of_the_package(tmp_path):
    """Key soundness: an edit to *any* module a task can reach — here a
    copy of ``core/protocol.py``, which is neither the task function nor
    a kernel — must change the key, or stale results are served as
    byte-identical hits.  Bytecode caches are not source."""
    import repro

    tree = tmp_path / "repro"
    shutil.copytree(os.path.dirname(repro.__file__), tree,
                    ignore=shutil.ignore_patterns("__pycache__"))

    def key() -> str:
        code = ("from repro.campaigns import table1_cell\n"
                "from repro.service import cache_key\n"
                "print(cache_key(table1_cell, {'kernel': 'CG', 'ranks': 8},"
                " seed=1))")
        env = dict(os.environ, PYTHONPATH=str(tmp_path),
                   PYTHONDONTWRITEBYTECODE="1")
        return subprocess.run([sys.executable, "-c", code], env=env,
                              check=True, capture_output=True, text=True,
                              timeout=120).stdout.strip()

    base = key()
    assert key() == base  # a fresh interpreter agrees with itself
    (tree / "core" / "__pycache__").mkdir()
    (tree / "core" / "__pycache__" / "protocol.cpython-312.pyc").write_bytes(
        b"not source")
    assert key() == base
    with open(tree / "core" / "protocol.py", "a") as fh:
        fh.write("#")
    assert key() != base


def test_cache_key_covers_a_task_function_outside_the_package():
    """A task function from outside ``repro`` adds its own module file to
    the digest (here: this test module), and still keys by its name."""
    from repro.service import code_digest

    inside, outside = code_digest(selftest_cell), code_digest(_spawned_key)
    assert inside.startswith("repro.campaigns.selftest_cell:")
    assert outside.startswith(f"{__name__}._spawned_key:")
    assert inside.rpartition(":")[2] != outside.rpartition(":")[2]
    assert code_digest(_result).rpartition(":")[2] == \
        outside.rpartition(":")[2]  # same module, same sources


def test_a_task_function_without_a_source_file_bypasses_the_cache(tmp_path):
    """``python -c`` code has no file to digest, so two bodies of ``f``
    would share a key: both runs compute, each with one unkeyable task."""
    import repro

    code = ("from repro.service import ResultCache\n"
            "from repro.sweep import SweepTask, run_sweep\n"
            "def f(params): return {value}\n"
            "cache = ResultCache({path!r})\n"
            "result, = run_sweep(f, [SweepTask('t')], cache=cache)\n"
            "print(result.value, result.cached, cache.stats()['unkeyable'])")
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    runs = [subprocess.run(
        [sys.executable, "-c", code.format(value=v, path=str(tmp_path))],
        env=env, check=True, capture_output=True, text=True,
        timeout=120).stdout.split() for v in (1, 2)]
    assert runs == [["1", "False", "1"], ["2", "False", "1"]]


def test_a_module_read_from_stdin_is_unkeyable(monkeypatch):
    """``python - < f.py`` names its ``__main__`` file ``"<stdin>"``: the
    key is refused, not a ``FileNotFoundError``."""
    import types

    module = types.ModuleType("stdin_task_module")
    module.__file__ = "<stdin>"
    exec("def f(params):\n    return 1\n", module.__dict__)
    monkeypatch.setitem(sys.modules, module.__name__, module)
    cache = ResultCache()
    assert cache.key_for(module.f, {}, seed=0) is None
    assert cache.stats()["unkeyable"] == 1


def _spawned_key(_):
    # runs in a child process: same inputs must address identically
    return cache_key(selftest_cell, {"i": 3, "w": [1, 2]}, seed=99,
                     collect_obs=True)


@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_cache_key_is_start_method_invariant(method):
    """Pure content hashing: a cache filled by a fork pool must serve a
    spawn pool (and vice versa), so keys computed in fork/spawn children
    and in the parent all agree."""
    import multiprocessing

    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"start method {method} unavailable")
    parent = _spawned_key(None)
    ctx = mp_context(method)
    with ctx.Pool(1) as pool:
        child = pool.map(_spawned_key, [None])[0]
    assert child == parent


# ----------------------------------------------------------------------
# storage
# ----------------------------------------------------------------------

def _result(value):
    return SweepResult(index=0, name="t", status="ok", value=value,
                       duration=0.25, seed=1)


def test_memory_round_trip_returns_fresh_copies():
    cache = ResultCache()
    key = cache_key(selftest_cell, {"i": 0}, seed=0)
    assert cache.get(key) is None  # cold
    cache.put(key, _result({"a": [1, 2]}))
    first = cache.get(key)
    first.value["a"].append(3)  # caller mutation must not corrupt store
    second = cache.get(key)
    assert second.value == {"a": [1, 2]}
    assert cache.stats()["hits"] == 2
    assert cache.stats()["misses"] == 1


def test_disk_round_trip_survives_new_instance(tmp_path):
    key = cache_key(selftest_cell, {"i": 5}, seed=5)
    writer = ResultCache(str(tmp_path / "cache"))
    writer.put(key, _result(123))
    reader = ResultCache(str(tmp_path / "cache"))  # fresh process stand-in
    hit = reader.get(key)
    assert hit is not None and hit.value == 123 and hit.duration == 0.25


def test_corrupt_disk_entry_is_a_miss(tmp_path):
    key = cache_key(selftest_cell, {"i": 6}, seed=6)
    cache = ResultCache(str(tmp_path / "cache"))
    cache.put(key, _result(1))
    cache._memory.clear()
    path = cache._file_for(key)
    with open(path, "wb") as fh:
        fh.write(b"not a pickle")
    assert cache.get(key) is None
    assert cache.stats()["misses"] == 1


def test_failed_disk_write_keeps_the_campaign_going(tmp_path, monkeypatch):
    """A full disk costs an entry its persistence, not the campaign: the
    memory copy still serves, and nothing half-written is left behind."""
    import errno
    import tempfile

    from repro.service import run_campaign_job

    def no_space(*args, **kwargs):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(tempfile, "mkstemp", no_space)
    cache = ResultCache(str(tmp_path / "cache"))
    cold = run_campaign_job({"kind": "selftest", "tasks": 3}, workers=1,
                            cache=cache)
    assert cold["summary"]["ok"] == 3 and cold["summary"]["errors"] == 0
    warm = run_campaign_job({"kind": "selftest", "tasks": 3}, workers=1,
                            cache=cache)
    assert warm["summary"]["cache"]["hits"] == 3
    assert not [p for p in (tmp_path / "cache").rglob("*") if p.is_file()]


def test_unkeyable_tasks_bypass_cache():
    cache = ResultCache()
    key = cache.key_for(selftest_cell, {"x": object()}, seed=0)
    assert key is None
    assert cache.stats()["unkeyable"] == 1
    assert cache.get(None) is None  # counted as a miss, never a crash
    cache.put(None, _result(1))  # no-op
    assert cache.stats()["stores"] == 0


def test_stored_entries_are_pickled_blobs():
    """Entries are stored serialized, not as live objects — the disk and
    memory layers share one representation."""
    cache = ResultCache()
    key = cache_key(selftest_cell, {"i": 9}, seed=9)
    cache.put(key, _result(9))
    assert isinstance(cache._memory[key], bytes)
    assert pickle.loads(cache._memory[key]).value == 9

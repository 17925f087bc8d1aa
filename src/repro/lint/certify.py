"""Send-determinism certification: static verdicts, differential dynamic
verification, and the campaign-gate registry behind ``repro certify``.

Three layers, weakest to strongest evidence:

1. **Static** — :mod:`repro.lint.sendet` taint analysis over the
   ``RankProgram`` subclasses found under the given paths, classifying
   each kernel PROVEN_SD / CONDITIONAL / VIOLATION / UNKNOWN with
   source→sink evidence paths (paper Section II-A: a send-deterministic
   rank emits the same send sequence regardless of the delivery order of
   non-causally-related messages).
2. **Dynamic** (``--dynamic``) — the differential delivery-order
   verifier: run each kernel under K adversarial delivery schedules
   (seeded network jitter perturbs every message's transit time, hence
   every ANY_SOURCE race) and require bit-identical per-rank send-witness
   hash chains (:func:`repro.simmpi.trace.send_witness_chains`) across
   all K.  A static verdict the verifier contradicts is downgraded to
   VIOLATION — the analysis is unsound evidence, the witness is ground
   truth.
3. **Registry** — verdicts keyed by kernel name + code digest land in a
   JSON registry (``results/certification.json`` by default).  The
   campaign entry points (``repro table1 / sweep / chaos``) consult it at
   start via :func:`check_campaign_certification`, warning on
   uncertified, stale or VIOLATION kernels — or refusing to run with
   ``--strict-sd``.

The registry stores *verdicts*, never witness chains: chains fold salted
``hash()`` digests for str/bytes payloads and are only comparable within
one interpreter invocation.
"""

from __future__ import annotations

import json
import os
from contextlib import closing
from dataclasses import dataclass
from typing import Any, Iterable

from ..errors import ConfigError

__all__ = [
    "REGISTRY_VERSION",
    "DEFAULT_REGISTRY",
    "DEFAULT_SCHEDULES",
    "DEFAULT_JITTER",
    "OK_VERDICTS",
    "DynamicVerdict",
    "dynamic_verify",
    "build_registry",
    "save_registry",
    "load_registry",
    "registry_entry",
    "current_kernel_digest",
    "check_campaign_certification",
    "render_registry_text",
]

#: version of the certification registry document
REGISTRY_VERSION = 1

#: where ``repro certify`` writes (and the campaign gates read) verdicts
DEFAULT_REGISTRY = os.path.join("results", "certification.json")

#: adversarial delivery schedules per kernel (schedule 0 is jitter-free)
DEFAULT_SCHEDULES = 8

#: relative transit-time jitter for the adversarial schedules, in [0, 1)
DEFAULT_JITTER = 0.35

#: seed base for the jitter streams; schedule ``s`` uses ``base + s``
_SEED_BASE = 2026

#: iterations a dynamic-verification run takes: the fewest a chaos trial
#: draws, enough that every kernel communicates in each phase
_NITERS = 16


def _catalogue() -> dict[str, Any]:
    """Kernel class name -> its :data:`repro.apps.KERNELS` entry, imported
    on use so that a static ``repro certify`` never drags the app kernels
    (and numpy workspaces) into :mod:`repro.lint`."""
    from ..apps import KERNELS

    return {entry.cls.__name__: entry for entry in KERNELS.values()}


# ----------------------------------------------------------------------
# Dynamic differential verification
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DynamicVerdict:
    """Outcome of the differential delivery-order verifier on one kernel."""

    kernel: str
    schedules: int
    deterministic: bool
    detail: str

    def to_json(self) -> dict[str, Any]:
        return {
            "kernel": self.kernel,
            "schedules": self.schedules,
            "deterministic": self.deterministic,
            "detail": self.detail,
        }


def dynamic_verify(
    kernel: str,
    schedules: int = DEFAULT_SCHEDULES,
    jitter: float = DEFAULT_JITTER,
    base_seed: int = _SEED_BASE,
) -> DynamicVerdict:
    """Run ``kernel`` under K adversarial delivery schedules and compare
    per-rank send-witness chains bit-exactly.

    Schedule 0 is the jitter-free canonical execution; schedules 1..K-1
    perturb every transit time by a seeded relative jitter, reshuffling
    the arrival order of concurrent messages (every ANY_SOURCE race gets
    K chances to resolve differently).  Send-determinism demands the
    witness chains not care.
    """
    from ..analysis.rollback import CellTrace, _RecordingHook
    from ..simmpi import TimingModel, World
    from ..simmpi.trace import send_witness_chains

    if schedules < 2:
        raise ConfigError(f"dynamic_verify needs at least 2 delivery schedules, not {schedules}")
    catalogue = _catalogue()
    entry = catalogue.get(kernel)
    if entry is None:
        raise ConfigError(f"kernel {kernel!r} has no catalogue entry "
                          f"(have {sorted(catalogue)})")
    nprocs = entry.certify_ranks or entry.ranks[0]
    ref_chains: list[str] | None = None
    for s in range(schedules):
        timing = TimingModel(jitter=0.0 if s == 0 else jitter)
        trace = CellTrace([[] for _ in range(nprocs)])
        world = World(nprocs, entry.make(_NITERS), timing=timing,
                      hook_factory=lambda r: _RecordingHook(r, trace),
                      network_seed=base_seed + s, record_sequences=True)
        with closing(world):
            world.launch()
            world.run()
        chains = send_witness_chains(world.tracer)
        if ref_chains is None:
            ref_chains = chains
        elif chains != ref_chains:
            bad = [r for r, (a, b) in enumerate(zip(ref_chains, chains))
                   if a != b]
            return DynamicVerdict(
                kernel, schedules, False,
                f"delivery schedule {s} changed the send sequence of "
                f"rank(s) {bad}")
    return DynamicVerdict(
        kernel, schedules, True,
        f"{schedules} delivery schedules "
        f"(jitter={jitter}), witness chains identical")


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def build_registry(
    paths: list[str],
    kernels: Iterable[str] | None = None,
    dynamic: bool = False,
    schedules: int = DEFAULT_SCHEDULES,
    jitter: float = DEFAULT_JITTER,
    base_seed: int = _SEED_BASE,
) -> dict[str, Any]:
    """Certify every kernel under ``paths``; returns the registry document.

    ``kernels`` restricts both passes to the named kernel classes.  With
    ``dynamic``, kernels that have a :data:`repro.apps.KERNELS` entry are
    also run through :func:`dynamic_verify`; a diverging kernel's verdict
    becomes VIOLATION regardless of what the static pass proved.
    """
    from .sendet import analyze_paths  # the taint pass: ``repro certify`` only

    result = analyze_paths(paths)
    catalogue = _catalogue() if dynamic else {}
    wanted = set(kernels) if kernels is not None else None
    entries: dict[str, Any] = {}
    for report in result.reports:
        if wanted is not None and report.name not in wanted:
            continue
        entry = report.to_json()
        entry["static"] = report.verdict
        entry["dynamic"] = None
        if report.name in catalogue:
            dv = dynamic_verify(report.name, schedules=schedules,
                                jitter=jitter, base_seed=base_seed)
            entry["dynamic"] = dv.to_json()
            if not dv.deterministic:
                entry["verdict"] = "VIOLATION"
        entries[report.name] = entry
    return {
        "v": REGISTRY_VERSION,
        "kernels": entries,
        "errors": list(result.errors),
        "noqa_findings": [f.to_json() for f in result.noqa_findings],
    }


def save_registry(registry: dict[str, Any], path: str) -> None:
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(registry, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_registry(path: str) -> dict[str, Any] | None:
    """The registry document, or ``None`` when absent/unreadable."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        return None
    if not isinstance(doc, dict) or doc.get("v") != REGISTRY_VERSION:
        return None
    return doc


def registry_entry(registry: dict[str, Any] | None,
                   kernel: str) -> dict[str, Any] | None:
    if registry is None:
        return None
    entry = registry.get("kernels", {}).get(kernel)
    return entry if isinstance(entry, dict) else None


def current_kernel_digest(cls: type) -> str | None:
    """Code digest of a kernel *class object*, for staleness checks.

    Recomputed from the live source files of the class's MRO, so a
    registry entry recorded for an older revision of the kernel is
    detected as stale.  ``None`` when source is unavailable (REPL-defined
    classes, frozen apps) — callers treat that as "cannot check".
    """
    import inspect

    from .sendet import ModuleIndex, kernel_code_digest

    index = ModuleIndex()
    seen: set[str] = set()
    try:
        for klass in cls.__mro__:
            # mirror the static index: the analyzer treats ABC/Generic/
            # object as known-external bases and never indexes them, so
            # indexing e.g. stdlib abc.py here would skew the digest
            if klass.__name__ in ("ABC", "object", "Generic"):
                continue
            path = inspect.getsourcefile(klass)
            if path is None or path in seen:
                continue
            seen.add(path)
            with open(path, encoding="utf-8") as fh:
                index.add_source(fh.read(), path)
        return kernel_code_digest(index, cls.__name__)
    except (OSError, TypeError):
        return None


#: verdicts that count as "certified send-deterministic"
OK_VERDICTS = frozenset({"PROVEN_SD", "CONDITIONAL"})


def check_campaign_certification(
    kernels: Iterable[type | str],
    registry_path: str = DEFAULT_REGISTRY,
    strict: bool = False,
) -> list[str]:
    """Campaign-start gate: is every kernel we are about to run certified?

    ``kernels`` mixes kernel classes (digest-checked against the live
    source) and bare class names (verdict-checked only).  Returns warning
    strings — empty when everything is certified send-deterministic.
    With ``strict``, any warning raises :class:`~repro.errors.ConfigError`
    instead (the ``--strict-sd`` flag).
    """
    registry = load_registry(registry_path)
    warnings: list[str] = []
    if registry is None:
        names = sorted(
            k if isinstance(k, str) else k.__name__ for k in kernels
        )
        warnings.append(
            f"no certification registry at {registry_path} — kernel(s) "
            f"{', '.join(names)} are uncertified; run `repro certify "
            f"src/repro/apps --dynamic` first"
        )
    else:
        for kernel in sorted(
            set(kernels), key=lambda k: k if isinstance(k, str) else k.__name__
        ):
            name = kernel if isinstance(kernel, str) else kernel.__name__
            entry = registry_entry(registry, name)
            if entry is None:
                warnings.append(
                    f"kernel {name} has no entry in {registry_path} — "
                    f"uncertified")
                continue
            verdict = entry.get("verdict")
            if verdict not in OK_VERDICTS:
                warnings.append(
                    f"kernel {name} is certified {verdict}: "
                    f"{_entry_why(entry)}")
                continue
            if not isinstance(kernel, str):
                digest = current_kernel_digest(kernel)
                if digest is not None and digest != entry.get("digest"):
                    warnings.append(
                        f"kernel {name} changed since certification "
                        f"(digest {digest} != recorded "
                        f"{entry.get('digest')}) — re-run `repro certify`")
    if warnings and strict:
        raise ConfigError(
            "--strict-sd: refusing to run with uncertified kernels:\n  "
            + "\n  ".join(warnings)
        )
    return warnings


def _entry_why(entry: dict[str, Any]) -> str:
    findings = entry.get("findings") or []
    if findings:
        first = findings[0]
        return f"{len(findings)} finding(s), e.g. {first.get('code')} at " \
               f"{first.get('path')}:{first.get('line')}"
    dynamic = entry.get("dynamic")
    if isinstance(dynamic, dict) and not dynamic.get("deterministic", True):
        return dynamic.get("detail", "dynamic verification diverged")
    return "see registry entry"


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def render_registry_text(registry: dict[str, Any]) -> str:
    """Human-readable certification table for ``repro certify``."""
    lines: list[str] = []
    kernels = registry.get("kernels", {})
    width = max((len(n) for n in kernels), default=6)
    for name in sorted(kernels):
        entry = kernels[name]
        dyn = entry.get("dynamic")
        if isinstance(dyn, dict):
            dyn_txt = ("deterministic" if dyn.get("deterministic")
                       else "DIVERGED") + f" ({dyn.get('schedules')} schedules)"
        else:
            dyn_txt = "not run"
        lines.append(
            f"{name:<{width}}  {entry.get('verdict', '?'):<12} "
            f"static={entry.get('static', '?'):<12} dynamic={dyn_txt}"
        )
        for finding in entry.get("findings") or []:
            lines.append(f"  {finding.get('code')} "
                         f"{finding.get('path')}:{finding.get('line')}: "
                         f"{finding.get('message')}")
        for assumption in entry.get("assumptions") or []:
            lines.append(f"  assumes: {assumption}")
    for finding in registry.get("noqa_findings") or []:
        lines.append(f"{finding.get('path')}:{finding.get('line')}: "
                     f"{finding.get('code')} {finding.get('message')}")
    for error in registry.get("errors") or []:
        lines.append(f"error: {error}")
    n = len(kernels)
    ok = sum(1 for e in kernels.values() if e.get("verdict") in OK_VERDICTS)
    lines.append(f"{n} kernel(s) analyzed, {ok} certified send-deterministic")
    return "\n".join(lines)

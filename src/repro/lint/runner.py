"""File discovery, batch linting and report rendering for ``repro lint``.

The runner walks the given paths (files or directories), lints every
``*.py`` in sorted order — deterministic output is table stakes for a
determinism linter — and renders the findings as text or JSON.  Two
passes run over the file set: the per-file :mod:`~repro.lint.checker`
(RPD rules) and the cross-file send-determinism certifier
:mod:`~repro.lint.sendet` (SD rules over ``RankProgram`` subclasses,
with inheritance resolved across the whole path set).  Exit status: 0
clean, 1 findings, 2 usage errors (unknown rule code, missing path).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from .checker import lint_source
from .rules import RULES, RULE_CODES, LintFinding

__all__ = ["JSON_SCHEMA_VERSION", "LintReport", "lint_paths",
           "iter_python_files", "read_sources", "render_text", "render_json",
           "list_rules_text"]

#: version of the JSON report document emitted by :func:`render_json`
#: (same convention as ``repro.obs.stream``: bump on breaking shape
#: changes so downstream consumers can dispatch on ``"v"``)
JSON_SCHEMA_VERSION = 1

#: directories never descended into
_SKIP_DIRS = frozenset({
    "__pycache__", ".git", ".mypy_cache", ".ruff_cache", ".pytest_cache",
    "build", "dist",
})


@dataclass
class LintReport:
    """Findings plus enough bookkeeping for a summary line."""

    findings: list[LintFinding] = field(default_factory=list)
    files_checked: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings and not self.errors

    @property
    def exit_code(self) -> int:
        if self.errors:
            return 2
        return 1 if self.findings else 0


def iter_python_files(paths: list[str]) -> tuple[list[str], list[str]]:
    """Expand files/directories into a sorted list of ``*.py`` paths.

    Returns ``(files, errors)``; a non-existent path is an error, a
    directory without Python files is merely empty.
    """
    files: list[str] = []
    errors: list[str] = []
    for path in paths:
        if os.path.isfile(path):
            files.append(path)
        elif os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames if d not in _SKIP_DIRS
                )
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        files.append(os.path.join(dirpath, name))
        else:
            errors.append(f"path does not exist: {path}")
    # dedupe while keeping a stable global order
    return sorted(dict.fromkeys(files)), errors


def read_sources(paths: list[str]) -> tuple[dict[str, str], list[str]]:
    """``({path: text}, errors)`` for every ``*.py`` under ``paths`` — the
    file set both ``repro lint`` and ``repro certify`` analyze."""
    files, errors = iter_python_files(paths)
    sources: dict[str, str] = {}
    for path in files:
        try:
            with open(path, encoding="utf-8") as fh:
                sources[path] = fh.read()
        except OSError as exc:
            errors.append(f"cannot read {path}: {exc}")
    return sources, errors


def _validate_codes(codes: list[str] | None, label: str,
                    errors: list[str]) -> frozenset[str] | None:
    if not codes:
        return None
    out = set()
    for code in codes:
        code = code.strip().upper()
        if code not in RULE_CODES:
            errors.append(f"unknown rule code in --{label}: {code}")
        out.add(code)
    return frozenset(out)


def lint_paths(
    paths: list[str],
    select: list[str] | None = None,
    ignore: list[str] | None = None,
) -> LintReport:
    """Lint every Python file under ``paths``."""
    from .sendet import analyze_sources

    report = LintReport()
    sel = _validate_codes(select, "select", report.errors)
    ign = _validate_codes(ignore, "ignore", report.errors)
    sources, read_errors = read_sources(paths)
    report.errors.extend(read_errors)
    if report.errors:
        return report
    # pass 1: per-file RPD checker
    per_file: dict[str, list[LintFinding]] = {}
    for path in sorted(sources):
        report.files_checked += 1
        per_file[path] = list(
            lint_source(sources[path], path=path, select=sel, ignore=ign)
        )
    # pass 2: cross-file send-determinism certification (SD rules); the
    # whole path set is one inheritance scope, so a kernel subclassing a
    # base in a sibling file still resolves
    sd = analyze_sources(sources)
    for finding in sd.all_findings():
        if sel is not None and finding.code not in sel:
            continue
        if ign is not None and finding.code in ign:
            continue
        per_file.setdefault(finding.path, []).append(finding)
    for path in sorted(per_file):
        report.findings.extend(
            sorted(per_file[path], key=lambda f: (f.line, f.col, f.code))
        )
    return report


def render_text(report: LintReport) -> str:
    """Human-readable report: one finding per line plus a summary."""
    lines = [f.render() for f in report.findings]
    lines.extend(f"error: {e}" for e in report.errors)
    n = len(report.findings)
    lines.append(
        f"{report.files_checked} files checked, "
        f"{n} finding{'s' if n != 1 else ''}"
    )
    return "\n".join(lines)


def render_json(report: LintReport) -> str:
    """Machine-readable report (stable key order, versioned schema)."""
    doc = {
        "v": JSON_SCHEMA_VERSION,
        "files_checked": report.files_checked,
        "findings": [f.to_json() for f in report.findings],
        "errors": list(report.errors),
        "exit_code": report.exit_code,
    }
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def list_rules_text() -> str:
    """The rule catalog, as printed by ``repro lint --list-rules``."""
    lines = []
    for rule in RULES:
        lines.append(f"{rule.code} {rule.name}")
        lines.append(f"    {rule.summary}")
    return "\n".join(lines)

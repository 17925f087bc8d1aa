"""Correctness tooling: determinism linter + protocol-invariant sanitizer.

Two complementary halves, one subsystem:

* **Static** (:mod:`repro.lint.checker` / :mod:`repro.lint.runner`) — an
  AST pass over the codebase flagging the bug classes that silently break
  bit-reproducibility: unseeded RNG, wall-clock reads, unordered set
  iteration on hot paths, ``id()`` ordering, float equality on logical
  clocks, mutable defaults and bare excepts.  ``repro lint [paths]``
  exits nonzero on findings; ``# repro: noqa[RPDxxx]`` suppresses a line.
  The send-determinism certifier (:mod:`repro.lint.sendet` /
  :mod:`repro.lint.certify`, ``repro certify``) traces the same sources
  to a rank program's sends.  What a nondeterminism source *is* — the
  callable catalogue and the import-spelling resolver — is defined once,
  in :mod:`repro.lint.sources`, under both.
* **Dynamic** (:mod:`repro.lint.sanitize`) — runtime assertions, enabled
  by ``REPRO_SANITIZE=1`` (or ``repro --sanitize ...``), that check the
  paper's protocol invariants live inside the protocol, recovery and
  engine layers.

See ``docs/static-analysis.md`` for the rule catalog and the mapping of
sanitizer invariants to the paper's lemmas.
"""

import importlib

from .sanitize import (
    AUDIT_INTERVAL,
    ENV_VAR,
    INVARIANTS,
    Sanitizer,
    sanitize_enabled,
    sanitizer_for,
)

# The engine imports the sanitizer on every cold start; the static half
# loads on first use (PEP 562).
_LAZY = {
    "checker": "DeterminismChecker lint_source",
    "noqa": "parse_suppressions",
    "rules": "PARSE_ERROR_CODE RULES RULE_CODES LintFinding Rule module_parts",
    "runner": "JSON_SCHEMA_VERSION LintReport iter_python_files lint_paths "
              "list_rules_text render_json render_text",
    "sendet": "VERDICTS KernelReport analyze_paths analyze_sources",
}


def __getattr__(name: str) -> object:
    for module, names in _LAZY.items():
        if name in names.split():
            value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
            globals()[name] = value
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AUDIT_INTERVAL",
    "DeterminismChecker",
    "ENV_VAR",
    "INVARIANTS",
    "LintFinding",
    "LintReport",
    "PARSE_ERROR_CODE",
    "RULES",
    "RULE_CODES",
    "Rule",
    "Sanitizer",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "list_rules_text",
    "module_parts",
    "parse_suppressions",
    "render_json",
    "render_text",
    "sanitize_enabled",
    "sanitizer_for",
]

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

from typing import TYPE_CHECKING

from .. import lazy_facade

if TYPE_CHECKING:
    from .checker import DeterminismChecker, lint_source
    from .noqa import parse_suppressions
    from .rules import (
        PARSE_ERROR_CODE,
        RULE_CODES,
        RULES,
        LintFinding,
        Rule,
        module_parts,
    )
    from .runner import (
        JSON_SCHEMA_VERSION,
        LintReport,
        iter_python_files,
        lint_paths,
        list_rules_text,
        render_json,
        render_text,
    )
    from .sanitize import (
        AUDIT_INTERVAL,
        ENV_VAR,
        INVARIANTS,
        Sanitizer,
        sanitize_enabled,
        sanitizer_for,
    )
    from .sendet import VERDICTS, KernelReport, analyze_paths, analyze_sources
else:
    __getattr__, __dir__, __all__ = lazy_facade(globals(), {
        "checker": "DeterminismChecker lint_source",
        "noqa": "parse_suppressions",
        "rules": "PARSE_ERROR_CODE RULES RULE_CODES LintFinding Rule module_parts",
        "runner": "JSON_SCHEMA_VERSION LintReport iter_python_files lint_paths "
                  "list_rules_text render_json render_text",
        "sanitize": "AUDIT_INTERVAL ENV_VAR INVARIANTS Sanitizer "
                    "sanitize_enabled sanitizer_for",
        "sendet": "VERDICTS KernelReport analyze_paths analyze_sources",
    })

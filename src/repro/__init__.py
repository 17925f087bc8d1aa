"""repro — reproduction of "Uncoordinated Checkpointing Without Domino
Effect for Send-Deterministic MPI Applications" (IPDPS 2011).

Subpackages
-----------
* :mod:`repro.simmpi` — discrete-event MPI runtime simulator (substrate)
* :mod:`repro.core` — the paper's protocol, recovery process, clustering
* :mod:`repro.baselines` — coordinated / message-logging / plain
  uncoordinated / CIC comparison protocols
* :mod:`repro.apps` — send-deterministic NAS-pattern mini-kernels
* :mod:`repro.analysis` — rollback & logging analyses (Table I, Fig. 8)
* :mod:`repro.netmodel` — analytic performance model (Figs. 6-7)

A package that re-exports its submodules' names does so through
:func:`lazy_facade` (PEP 562), so that importing it imports none of them:
a name loads its submodule on first use.  Such a package reads::

    if TYPE_CHECKING:
        from .server import CampaignService, serve
    else:
        __getattr__, __dir__, __all__ = lazy_facade(globals(), {
            "server": "CampaignService serve",
        })

The ``TYPE_CHECKING`` imports are what type checkers read; the table is
what runs.  ``tests/test_cold_start.py`` holds the two equal.
"""

from __future__ import annotations

from typing import Any, Callable

__version__ = "1.0.0"


def lazy_facade(
    namespace: dict[str, Any], table: dict[str, str]
) -> tuple[Callable[[str], Any], Callable[[], list[str]], list[str]]:
    """``(__getattr__, __dir__, __all__)`` for the package whose globals are
    ``namespace``; ``table`` maps a submodule to its space-separated names.

    A name imports its submodule on first access and is then cached in the
    package globals, so later lookups never reach ``__getattr__``.
    """
    package = namespace["__name__"]
    owner = {name: module for module, names in table.items()
             for name in names.split()}

    def __getattr__(name: str) -> Any:
        module = owner.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        # ``__import__``, not ``importlib.import_module``: only the former
        # shows in ``python -X importtime``
        submodule = __import__(f"{package}.{module}", fromlist=[name])
        value = getattr(submodule, name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(owner))

    return __getattr__, __dir__, list(owner)

"""Always-on campaign service (``repro.service``).

The one-shot sweep executor grown into a resident orchestration layer.
The service keeps one :class:`repro.sweep.Scheduler` (the sweep's FIFO
process pool) alive across jobs and hands it to every campaign; the pool
itself lives in :mod:`repro.sweep`.

* :mod:`~repro.service.cache` — content-addressed result cache keyed by
  blake2b of (code digest, task seed, canonical params);
* :mod:`~repro.service.server` / :mod:`~repro.service.client` — the
  asyncio job-queue service (``repro serve``) and its JSONL client
  (``repro submit``);
* :mod:`~repro.service.jobs` — the job runner: one campaign spec run by
  :func:`repro.campaigns.run_campaign` (the runner the one-shot CLI
  uses) and returned as a document with content digests.

See ``docs/service.md`` for queue/lease/cache semantics.
"""

from typing import TYPE_CHECKING

from .. import lazy_facade

if TYPE_CHECKING:
    from .cache import (
        CacheUnkeyable,
        ResultCache,
        cache_key,
        canonical_params,
        code_digest,
    )
    from .client import ServiceClient
    from .jobs import CAMPAIGN_KINDS, run_campaign_job, validate_spec
    from .server import CampaignService, serve
else:
    __getattr__, __dir__, __all__ = lazy_facade(globals(), {
        "cache": "CacheUnkeyable ResultCache cache_key canonical_params "
                 "code_digest",
        "client": "ServiceClient",
        "jobs": "CAMPAIGN_KINDS run_campaign_job validate_spec",
        "server": "CampaignService serve",
    })

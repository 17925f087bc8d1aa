"""Negative control for ``repro certify`` (CI `certify` job and
``test_certify_cli_goes_red_on_unsound_kernel``): a rank program that is
NOT send-deterministic — it sends a host clock reading, reached through a
from-import.  The certifier must report VIOLATION and exit non-zero; a
certifier that passes this file cannot be trusted when it passes the
shipped kernels.  Never imported, only analyzed.
"""

from time import perf_counter

from repro.apps.base import RankProgram


class UnsoundKernel(RankProgram):
    def run(self, api):
        yield api.send((self.rank + 1) % self.size, perf_counter())

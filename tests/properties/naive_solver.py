"""The literal Fig. 4 recovery-line fix-point — test oracle only."""

from repro.errors import ProtocolError


class NaiveRecoveryLineSolver:
    """Textbook Fig. 4 fix-point: rescan *every* SPE entry until stable.

    Deliberately the most literal transcription of the paper's pseudocode
    (lines 9-16) — O(all edges) per sweep, sweeping until nothing changes.
    The reference the equivalence property test checks both
    :class:`repro.core.recovery.RecoveryLineSolver` and the all-failures
    closure of :mod:`repro.analysis.rollback` against.
    """

    def __init__(self, spe_tables: dict[int, dict]):
        self.spe_tables = spe_tables

    def solve(self, failed_restarts: dict[int, int]) -> dict[int, tuple[int, int]]:
        rl: dict[int, int] = dict(failed_restarts)
        changed = True
        while changed:
            changed = False
            for k, spe in self.spe_tables.items():
                for epoch_send, (_start, per_peer) in spe.items():
                    for j, epoch_recv in per_peer.items():
                        bound = rl.get(j)
                        if bound is None or epoch_recv < bound:
                            continue
                        cur = rl.get(k)
                        if cur is None or epoch_send < cur:
                            rl[k] = epoch_send
                            changed = True
        out: dict[int, tuple[int, int]] = {}
        for rank in sorted(rl):
            epoch = rl[rank]
            spe = self.spe_tables.get(rank, {})
            if epoch not in spe:
                raise ProtocolError(
                    f"recovery line needs epoch {epoch} of rank {rank} but its "
                    f"SPE has no such epoch (available: {sorted(spe)})"
                )
            out[rank] = (epoch, spe[epoch][0])
        return out

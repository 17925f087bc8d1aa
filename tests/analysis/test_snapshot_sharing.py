"""SPE snapshots are read-only and share what did not change.

``SpeSampler.take`` reuses the previous snapshot's ``(start_date,
recv_epoch)`` entry for every epoch record that is unchanged; these tests
pin that sharing, that the §V-E-1 analysis cannot tell shared snapshots
from deep copies, and that the SPE a process uploads in a recovery round
is still a copy of its own.
"""

import copy

from repro.analysis.rollback import SpeSampler, rollback_analysis
from repro.apps.stencil import Stencil1D
from repro.campaigns import table1_setup
from repro.core import ProtocolConfig, build_ft_world
from repro.core.protocol import CTL
from repro.core.recovery import RecoveryProcess, compute_recovery_line

from .live_cell import live_world


def _sampled_cell(kernel="CG", ranks=16, niters=8):
    """A Table I cell run under a sampler whose every take also records a
    fresh, unshared export of the live tables at the same instant."""
    cell = table1_setup({"kernel": kernel, "ranks": ranks, "clusters": 4,
                         "niters": niters})
    period = cell.pop("period")
    world, controller = live_world(**cell)
    sampler = SpeSampler(controller, period)
    fresh = []
    take = sampler.take

    def recording_take():
        fresh.append({r: p.state.spe_export()
                      for r, p in enumerate(controller.protocols)})
        return take()

    sampler.take = recording_take
    sampler.arm()
    world.launch()
    world.run()
    return controller, sampler.snapshots, fresh


def test_consecutive_snapshots_share_unchanged_entries():
    _, snaps, fresh = _sampled_cell()
    assert len(snaps) >= 3
    shared = rebuilt = 0
    for before, after in zip(snaps, snaps[1:]):
        for rank, spe in after.spe_tables.items():
            old = before.spe_tables[rank]
            for epoch, entry in spe.items():
                if old.get(epoch) == entry:
                    assert entry is old[epoch]
                    shared += 1
                else:
                    # a changed or new record gets an entry of its own,
                    # aliasing no earlier snapshot
                    assert all(entry[1] is not s.spe_tables[rank][e][1]
                               for s in snaps[:snaps.index(after)]
                               for e in s.spe_tables[rank])
                    rebuilt += 1
    assert shared and rebuilt
    # sharing never changes what a snapshot holds: each equals a fresh
    # export taken at its instant, later mutations of the live state
    # notwithstanding
    assert [s.spe_tables for s in snaps] == fresh


def test_analysis_of_shared_snapshots_equals_analysis_of_copies():
    controller, snaps, _ = _sampled_cell(kernel="MG")
    copies = copy.deepcopy(snaps)
    nprocs = len(controller.protocols)
    shared_stats = rollback_analysis(snaps, nprocs)
    copied_stats = rollback_analysis(copies, nprocs)
    assert shared_stats.counts == copied_stats.counts
    assert shared_stats.per_rank_mean == copied_stats.per_rank_mean
    for snap, twin in zip(snaps, copies):
        for failed in range(0, nprocs, 3):
            restart = {failed: snap.epochs[failed]}
            assert (compute_recovery_line(snap.spe_tables, restart)
                    == compute_recovery_line(twin.spe_tables, restart))
    assert snaps == copies  # the analyses left both untouched


def test_spe_upload_never_aliases_live_state(monkeypatch):
    """A recovery round's SPE upload is a fresh export: it shares nothing
    with the uploader's live SPE or with the sampler's snapshots, so the
    round's report keeps what was uploaded whatever happens after."""
    uploads = []
    receive = RecoveryProcess.receive

    def spying_receive(self, env):
        if env.tag == CTL.SPE_UPLOAD:
            live = self.controller.protocols[env.src].state.spe
            for epoch, (_start, per_peer) in env.payload["spe"].items():
                assert per_peer is not live[epoch].recv_epoch
                for snap in sampler.snapshots:
                    entry = snap.spe_tables[env.src].get(epoch)
                    assert entry is None or per_peer is not entry[1]
            uploads.append(env.src)
        receive(self, env)

    monkeypatch.setattr(RecoveryProcess, "receive", spying_receive)
    world, controller = build_ft_world(
        8, lambda r, s: Stencil1D(r, s, niters=30, cells=4),
        ProtocolConfig(checkpoint_interval=2e-5, rank_stagger=2e-6))
    sampler = SpeSampler(controller, 1.5e-5)
    sampler.arm()
    controller.inject_failure(6e-5, 3)
    controller.arm()
    world.launch()
    world.run()
    assert sorted(uploads) == list(range(8))
    report = controller.recovery_reports[0]
    kept = copy.deepcopy(report.spe_tables)
    for proto in controller.protocols:
        for rec in proto.state.spe.values():
            rec.recv_epoch[99] = 99
    assert report.spe_tables == kept

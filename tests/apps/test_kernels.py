"""Tests for the NAS-pattern kernels: determinism, restartability, numeric
sanity, and the communication-pattern shapes Table I / Fig. 8 depend on."""

import numpy as np
import pytest

from repro import apps
from repro.apps import (
    BTKernel,
    CGKernel,
    FTKernel,
    LUKernel,
    MGKernel,
    SPKernel,
    Stencil1D,
    Stencil2D,
    TABLE1_KERNELS,
    cg_grid,
)
from repro.errors import ConfigError
from repro.simmpi import World

#: every catalogue kernel, at the largest rank count it runs at; ids as
#: these tests have always named them
KERNELS = sorted(apps.KERNELS)
IDS = [{"stencil": "ST1", "stencil2d": "ST2"}.get(k, k.upper())
       for k in KERNELS]


def run_world(cls, nprocs, kw):
    world = World(nprocs, lambda r, s: cls(r, s, **kw), record_sequences=True)
    world.launch()
    world.run()
    return world


def run_catalogued(name):
    entry = apps.KERNELS[name]
    world = World(max(entry.ranks), entry.make(8), record_sequences=True)
    world.launch()
    world.run()
    return world


@pytest.mark.parametrize("name", KERNELS, ids=IDS)
def test_kernel_completes(name):
    world = run_catalogued(name)
    assert world.all_done
    assert world.tracer.total_app_messages() > 0


def _mg_neighbors_uncached(kernel, rank, stride):
    """The derivation MG used to repeat at every exchange: (direction,
    peer) for +-stride along each dimension, through ``CartGrid.shift``."""
    grid = kernel.grid
    out = []
    for dim in range(grid.ndims):
        if grid.dims[dim] == 1:
            continue
        step = stride % grid.dims[dim]
        if step == 0:
            step = grid.dims[dim] // 2 or 1
        for di, disp in enumerate((-step, +step)):
            peer = grid.shift(rank, dim, disp)
            if peer is not None and peer != rank:
                out.append((dim * 2 + di, peer))
    return out


@pytest.mark.parametrize("nprocs", [2, 8, 27, 64, 96, 256])
def test_mg_neighbour_tables_equal_the_uncached_derivation(nprocs):
    # 2 ranks: two dims of extent 1 (skipped); 8 and 96: a stride that is
    # a multiple of an extent (the step == 0 fallback)
    levels = 4
    for rank in range(nprocs):
        kernel = MGKernel(rank, nprocs, niters=1, levels=levels, block=4)
        assert len(kernel._neighbors) == levels
        for level in range(levels):
            assert kernel._neighbors[level] == _mg_neighbors_uncached(
                kernel, rank, 1 << level), (rank, level)


@pytest.mark.parametrize("name", KERNELS, ids=IDS)
def test_kernel_deterministic_across_runs(name):
    a = run_catalogued(name)
    b = run_catalogued(name)
    assert a.tracer.send_sequences() == b.tracer.send_sequences()
    for pa, pb in zip(a.programs, b.programs):
        np.testing.assert_equal(pa.result(), pb.result())


@pytest.mark.parametrize("name", KERNELS, ids=IDS)
def test_kernel_snapshot_restore_roundtrip(name):
    """Restartability contract: snapshot mid-run state, restore it into a
    fresh program, and re-run every rank — the outcome must match."""
    ref = run_catalogued(name)
    nprocs, factory = len(ref.programs), apps.KERNELS[name].make(8)

    # capture snapshots partway: run a world for half the iterations by
    # snapshotting fresh programs, mutating nothing
    programs = [factory(r, nprocs) for r in range(nprocs)]
    snaps = [p.snapshot() for p in programs]
    restored = [factory(r, nprocs) for r in range(nprocs)]
    for p, s in zip(restored, snaps):
        p.restore(s)
    world = World(nprocs, lambda r, s: restored[r])
    world.launch()
    world.run()
    for pa, pb in zip(ref.programs, restored):
        np.testing.assert_equal(pa.result(), pb.result())


def test_snapshot_is_deep():
    p = Stencil1D(0, 4, niters=3, cells=4)
    snap = p.snapshot()
    p.state["u"][:] = 123.0
    q = Stencil1D(0, 4, niters=3, cells=4)
    q.restore(snap)
    assert not np.allclose(q.state["u"], 123.0)


def test_cg_grid_shapes():
    assert cg_grid(16) == (4, 4)
    assert cg_grid(64) == (8, 8)
    assert cg_grid(128) == (8, 16)
    assert cg_grid(256) == (16, 16)
    with pytest.raises(ConfigError):
        cg_grid(48)


def test_cg_converges_on_square_grid():
    world = run_world(CGKernel, 16, dict(niters=15, block=4))
    hist = world.programs[0].result()["res_history"]
    assert hist[-1] < hist[0] * 1e-10


def test_cg_residual_consistent_across_ranks():
    world = run_world(CGKernel, 16, dict(niters=6, block=4))
    rhos = [p.result()["rho"] for p in world.programs]
    assert max(rhos) - min(rhos) < 1e-12


def test_cg_rectangular_grid_runs_pattern_mode():
    world = run_world(CGKernel, 8, dict(niters=5, block=4))
    assert world.all_done
    assert not world.programs[0].exact


def test_stencil1d_converges_to_mean():
    world = run_world(Stencil1D, 6, dict(niters=600, cells=4))
    mean = (6 - 1) / 2.0
    for p in world.programs:
        np.testing.assert_allclose(p.result(), mean, atol=1e-3)


def test_stencil2d_conserves_mean():
    world = run_world(Stencil2D, 8, dict(niters=30, block=3))
    total = sum(float(p.result().sum()) for p in world.programs)
    expected = sum(r * 9 for r in range(8))
    assert total == pytest.approx(expected, rel=1e-9)


def test_ft_checksum_identical_on_all_ranks():
    world = run_world(FTKernel, 8, dict(niters=4, slab=2))
    sums = {p.result()["checksum"] for p in world.programs}
    assert len(sums) == 1


def test_table1_kernel_registry():
    assert TABLE1_KERNELS == {"MG": MGKernel, "LU": LUKernel, "FT": FTKernel,
                              "CG": CGKernel, "BT": BTKernel}
    assert list(TABLE1_KERNELS) == ["MG", "LU", "FT", "CG", "BT"]


def test_every_exported_kernel_has_exactly_one_catalogue_entry():
    """A kernel outside the catalogue would skip chaos, ``certify
    --dynamic`` and the tests above without anyone noticing."""
    exported = {
        obj for obj in (getattr(apps, name) for name in apps.__all__)
        if isinstance(obj, type) and issubclass(obj, apps.RankProgram)
        and obj is not apps.RankProgram
    }
    catalogued = [entry.cls for entry in apps.KERNELS.values()]
    assert len(catalogued) == len(set(catalogued))
    assert set(catalogued) == exported
    assert set(apps.CHAOS_POOL) <= set(apps.KERNELS)


# ----------------------------------------------------------------------
# Communication-pattern shapes (what Fig. 8 / Table I rely on)
# ----------------------------------------------------------------------
def comm_matrix(cls, nprocs, kw):
    return run_world(cls, nprocs, kw).tracer.comm_matrix()


def test_ft_pattern_is_dense_all_to_all():
    m = comm_matrix(FTKernel, 8, dict(niters=3, slab=2))
    off_diag = m + 0
    np.fill_diagonal(off_diag, 1)
    assert (off_diag > 0).all()


def test_lu_pattern_is_sparse_neighbors():
    m = comm_matrix(LUKernel, 16, dict(niters=3, nblocks=2, block=4))
    fill = (m > 0).sum() / (16 * 15)
    assert fill < 0.5  # nearest-neighbour, not all-to-all


def test_cg_pattern_heavier_in_row_blocks():
    m = comm_matrix(CGKernel, 16, dict(niters=4, block=4))
    # butterfly partners live inside the 4-wide row blocks
    intra = sum(
        m[i, j] for i in range(16) for j in range(16) if i // 4 == j // 4
    )
    assert intra > 0.4 * m.sum()


def test_mg_pattern_touches_multiple_strides():
    m = comm_matrix(MGKernel, 8, dict(niters=2, levels=3, block=4))
    partners = {(i, j) for i in range(8) for j in range(8) if m[i, j] > 0}
    degrees = {i: sum(1 for a, b in partners if a == i) for i in range(8)}
    assert min(degrees.values()) >= 2


def test_sp_sends_more_messages_than_bt():
    m_bt = comm_matrix(BTKernel, 9, dict(niters=3, block=4))
    m_sp = comm_matrix(SPKernel, 9, dict(niters=3, block=4))
    assert m_sp.sum() > m_bt.sum()


def test_stencil_requires_two_ranks():
    with pytest.raises(ConfigError):
        Stencil1D(0, 1)

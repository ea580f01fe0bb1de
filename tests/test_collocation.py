"""Grids, geometric quantities, Gram assembly, and the SPD solve."""

import itertools
import mmap
import re
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

import conmet
from conmet import (
    DynamicalSystem,
    FactorizationError,
    GridSpec,
    assemble,
    collocation_data,
    eval_metric_batch,
    linear_example,
    make_grid,
    solve,
    wendland_c8,
)
from conmet.operator import pairwise_scalars
from conftest import BOUNDS, in_fresh_process, straddling_pairs
from oracles import (
    FunctionalIndex,
    functional_indices,
    gram_entry,
    point_data,
    riesz_representer,
    triangle_indices,
)


_WIDE = ((-4.0, 4.0), (-4.0, 4.0))


# -- grids --------------------------------------------------------------------

def test_make_grid_counts():
    assert len(make_grid(GridSpec(BOUNDS, 1.0))) == 9
    assert len(make_grid(GridSpec(BOUNDS, 1.0 / 32.0))) == 65 * 65
    assert len(make_grid(GridSpec(((-4.0, 4.0), (-4.0, 4.0)), 0.2))) == 41 * 41


def test_make_grid_alpha_one_nodes():
    pts = make_grid(GridSpec(BOUNDS, 1.0))
    expected = [(x, y) for x in (-1.0, 0.0, 1.0) for y in (-1.0, 0.0, 1.0)]
    assert [tuple(p) for p in pts] == expected


def test_make_grid_lexicographic_and_deterministic():
    spec = GridSpec(BOUNDS, 0.25)
    pts = make_grid(spec)
    assert [tuple(p) for p in pts] == sorted(tuple(p) for p in pts)
    assert np.array_equal(pts, make_grid(spec))


def test_make_grid_check_grid_offsets():
    alpha0 = 1.0 / 64.0
    spec = GridSpec(BOUNDS, alpha0, offset=alpha0 / 2.0)
    pts = make_grid(spec)
    assert len(pts) == 128 * 128
    assert pts.min() == -1.0 + alpha0 / 2.0
    assert pts.max() == 1.0 - alpha0 / 2.0
    # staggered: no check point lies on any node-lattice line
    nodes = make_grid(GridSpec(BOUNDS, alpha0))
    assert not set(map(tuple, pts)) & set(map(tuple, nodes))


def test_grid_spec_validation():
    with pytest.raises(ValueError, match="exceeds edge"):
        GridSpec(BOUNDS, 3.0)
    with pytest.raises(ValueError, match="divide"):
        GridSpec(BOUNDS, 0.3)
    with pytest.raises(ValueError, match="positive"):
        GridSpec(BOUNDS, -0.25)
    with pytest.raises(ValueError, match="empty axis"):
        GridSpec(((1.0, -1.0), (-1.0, 1.0)), 0.25)
    with pytest.raises(ValueError, match="offset"):
        GridSpec(BOUNDS, 0.25, offset=1.5)
    with pytest.raises(ValueError, match="spacing must be positive, got nan"):
        GridSpec(BOUNDS, float("nan"))
    with pytest.raises(ValueError, match="offset must be nonnegative, got nan"):
        GridSpec(BOUNDS, 0.25, offset=float("nan"))
    for axis in ((-1.0, float("nan")), (-1.0, float("inf")), (-1e308, 1e308)):
        with pytest.raises(ValueError, match="is not finite"):
            GridSpec((axis, (-1.0, 1.0)), 0.25)
    for bounds in ([], [[1.0, 2.0], [3.0]], [[-1.0, 1.0, 2.0]]):
        with pytest.raises(ValueError, match=r"bounds must be one \[lo, hi\] pair per axis, "
                                             rf"got {re.escape(str(bounds))}"):
            GridSpec(bounds, 0.25)


def test_make_grid_refuses_points_that_do_not_fit(monkeypatch):
    # a 513 x 513 grid of float64 pairs: one byte less is refused before
    # anything is built, that amount is not
    spec = GridSpec(BOUNDS, 1.0 / 256.0)
    expected = make_grid(spec)
    monkeypatch.setattr(conmet.collocation, "_available_memory_bytes", lambda: expected.nbytes - 1)
    with pytest.raises(MemoryError, match="the 513 x 513 points of a grid need about 4 MB"):
        make_grid(spec)
    monkeypatch.setattr(conmet.collocation, "_available_memory_bytes", lambda: expected.nbytes)
    assert np.array_equal(make_grid(spec), expected)


# -- collocation sets and assembly ---------------------------------------------

def test_collocation_set_enumeration(linear, kernel):
    system, _, _ = linear
    pts = make_grid(GridSpec(BOUNDS, 1.0))
    cset, _ = assemble(system, kernel, pts)
    indices = functional_indices(cset)
    assert len(indices) == 9 * 3
    expected = [(k, i, j) for k in range(9) for i, j in ((0, 0), (0, 1), (1, 1))]
    assert [(ix.k, ix.i, ix.j) for ix in indices] == expected
    data = point_data(cset, 4)
    assert np.array_equal(data.x, pts[4])
    assert np.array_equal(data.f, system.f(pts[4:5])[0])


def test_assemble_single_point_is_spd(linear, kernel):
    system, _, _ = linear
    _, gram = assemble(system, kernel, [[0.3, 0.2]])
    assert gram.shape == (3, 3)
    assert np.allclose(gram, gram.T, rtol=1e-13, atol=1e-13)
    np.linalg.cholesky(gram)


def test_assemble_far_points_block_diagonal(linear, kernel):
    system, _, _ = linear
    _, gram = assemble(system, kernel, [[0.0, 0.0], [3.0, 0.0]])
    assert gram.shape == (6, 6)
    assert np.array_equal(gram[:3, 3:], np.zeros((3, 3)))
    assert np.array_equal(gram[3:, :3], np.zeros((3, 3)))
    np.linalg.cholesky(gram)


def test_assemble_matches_scalar_gram_entry(linear, kernel):
    system, _, _ = linear
    pts = np.array([[0.0, 0.0], [0.4, 0.1], [-0.3, 0.5]])
    cset, gram = assemble(system, kernel, pts)
    pairs = triangle_indices(2)
    for (l, pl), (k, pk) in itertools.product(
            itertools.product(range(3), pairs), repeat=2):
        row = l * 3 + pairs.index(pl)
        col = k * 3 + pairs.index(pk)
        entry = gram_entry(kernel, point_data(cset, l), FunctionalIndex(l, *pl),
                           point_data(cset, k), FunctionalIndex(k, *pk))
        assert gram[row, col] == pytest.approx(entry, rel=1e-12, abs=1e-12)


def _wide_nodes(kernel, rng):
    """About 60 nodes on [-4, 4]^2, much wider than the support, shuffled.

    Two corners fix the centre of the bounding box at (-0.05, 0.15), where
    the engine's centred distances round differently from the plain ones.
    Pairs sit at R (1 -+ 1e-9) and at R to within rounding (straddling_pairs).
    """
    radius = kernel.support_radius
    corners = np.array([[-4.0, -3.7], [3.9, 4.0]])
    centre = 0.5 * (corners[0] + corners[1])
    nodes = [corners, rng.uniform(-3.6, 3.6, (44, 2))]
    for scale in (1.0 - 1e-9, 1.0 + 1e-9, 1.0 - 1e-9, 1.0 + 1e-9):
        p = rng.uniform(-2.4, 2.4, 2)
        angle = rng.uniform(0.0, 2.0 * np.pi)
        nodes.append([p, p + radius * scale * np.array([np.cos(angle), np.sin(angle)])])
    nodes += [np.array(pair) for pair in straddling_pairs(
        kernel, centre, rng, (-2.4, -2.4), (2.4, 2.4), 3)]
    nodes = np.concatenate(nodes)
    return nodes[rng.permutation(len(nodes))]


def test_assemble_skips_only_exact_zeros(linear, kernel, monkeypatch):
    # every chunk size, down to one block row, on one and two workers, must
    # keep every pair the kernel does not map to zero, including pairs at the
    # radius to within rounding, and leave exactly zero blocks for all others;
    # the bandwidth read off those kernel values does not depend on either
    system, _, _ = linear
    nodes = _wide_nodes(kernel, np.random.default_rng(71))
    cset = conmet.collocation_data(system, nodes)
    big_n = len(nodes)
    pairs = triangle_indices(2)
    oracle = np.zeros((big_n, 3, big_n, 3))    # gram_entry is exactly 0 for r >= R
    near = np.linalg.norm(nodes[:, None] - nodes[None], axis=-1) < 1.01 * kernel.support_radius
    for l, k in zip(*np.nonzero(near)):
        for (a, pl), (b, pk) in itertools.product(enumerate(pairs), repeat=2):
            oracle[l, a, k, b] = gram_entry(kernel, point_data(cset, l), FunctionalIndex(l, *pl),
                                            point_data(cset, k), FunctionalIndex(k, *pk))
    psi = pairwise_scalars(kernel, cset.centre, cset.points, cset.f_values,
                           cset.points, cset.f_values)[0]
    # one, two, seven and all block rows per chunk; one- and two-row chunks
    # round differently here, so a cut that followed the worker count would show
    bandwidths = set()
    for budget in (1, 8 * 2 * big_n, 8 * 7 * big_n, conmet.operator._BLOCK_BYTES):
        monkeypatch.setattr(conmet.operator, "_BLOCK_BYTES", budget)
        by_workers = []
        for workers in (1, 2):
            monkeypatch.setattr(conmet.operator, "block_workers",
                                lambda blocks, w=workers: min(w, blocks))
            cset, gram = assemble(system, kernel, nodes)
            blocks = _whole(gram).reshape(big_n, 3, big_n, 3)
            assert np.allclose(blocks, oracle, rtol=1e-12, atol=1e-12)
            assert np.array_equal(np.any(blocks != 0.0, axis=(1, 3)), psi != 0.0)
            by_workers.append(gram.tobytes())
            bandwidths.add(cset.kd)
        assert by_workers[0] == by_workers[1]
    assert len(bandwidths) == 1


def _whole(gram):
    """The symmetric matrix that the lower triangle of gram defines."""
    return np.tril(gram) + np.tril(gram, -1).T


def test_assemble_writes_only_the_lower_triangle(linear, kernel, monkeypatch):
    # a chunk writes its block rows as block columns of the lower triangle,
    # which covers the upper half of its diagonal square; every other strict
    # upper entry keeps the mapping's zero, for every chunk size and worker
    # count.  On the grid the lower triangle does not depend on the chunk
    # size, so each budget defines the one-chunk Gram bit for bit
    system, _, _ = linear
    for nodes, one_lower in ((_wide_nodes(kernel, np.random.default_rng(72)), False),
                             (make_grid(GridSpec(BOUNDS, 0.125)), True)):
        big_n = len(nodes)
        lowers = set()
        for rows in (big_n, 1, 2, 7):
            monkeypatch.setattr(conmet.operator, "_BLOCK_BYTES", 8 * rows * big_n)
            chunk = np.arange(3 * big_n) // (3 * rows)
            outside = np.triu(chunk[:, None] != chunk[None, :])
            by_workers = set()
            for workers in (1, 2):
                monkeypatch.setattr(conmet.operator, "block_workers",
                                    lambda blocks, w=workers: min(w, blocks))
                _, gram = assemble(system, kernel, nodes)
                assert gram.flags.f_contiguous
                assert not np.any(gram[outside])
                # the square's upper half is computed, not copied: round-off apart
                assert np.allclose(gram[~outside], _whole(gram)[~outside], rtol=0,
                                   atol=1e-13 * np.max(np.abs(gram)))
                by_workers.add(_bits(np.tril(gram)))
            assert len(by_workers) == 1
            lowers |= by_workers
        assert len(lowers) == 1 or not one_lower


def test_assemble_two_point_fd_oracle(linear, kernel):
    # X = {(0,0), (0.5,0)}: every entry against finite-difference double
    # application of the operator to the representer fields
    system, _, _ = linear
    pts = np.array([[0.0, 0.0], [0.5, 0.0]])
    cset, gram = assemble(system, kernel, pts)
    pairs = triangle_indices(2)
    h = 1e-6

    def fd_apply_row(l, field):
        x = cset.points[l]
        jac = cset.jacobians[l]
        grad = np.empty((2, 2, 2))
        for a in range(2):
            e = np.zeros(2)
            e[a] = h
            grad[..., a] = (field(x + e) - field(x - e)) / (2.0 * h)
        return jac.T @ field(x) + field(x) @ jac + grad @ cset.f_values[l]

    for l, k in itertools.product(range(2), repeat=2):
        for a, pl in enumerate(pairs):
            for b, pk in enumerate(pairs):
                field = lambda y: riesz_representer(
                    kernel, point_data(cset, k), FunctionalIndex(k, *pk), y)
                oracle = fd_apply_row(l, field)[pl[0], pl[1]]
                assert gram[l * 3 + a, k * 3 + b] == pytest.approx(
                    oracle, rel=1e-5, abs=1e-5)


def test_assemble_rejects_duplicates(linear, kernel):
    system, _, _ = linear
    with pytest.raises(ValueError, match="0 and 2"):
        assemble(system, kernel, [[0.1, 0.2], [0.5, 0.5], [0.1, 0.2]])


def test_assemble_refuses_no_points_before_the_memory_check(linear, kernel, monkeypatch):
    def no_check(*args):
        raise AssertionError("checked the memory of a Gram without unknowns")

    monkeypatch.setattr(conmet.collocation, "_check_memory", no_check)
    with pytest.raises(ValueError, match="no collocation point"):
        assemble(linear[0], kernel, np.empty((0, 2)))


def test_assemble_bitwise_deterministic(linear, kernel):
    system, _, _ = linear
    pts = make_grid(GridSpec(BOUNDS, 0.5))
    _, gram1 = assemble(system, kernel, pts)
    _, gram2 = assemble(system, kernel, pts)
    assert np.array_equal(gram1, gram2)


def test_assemble_threads_stress(linear, kernel, monkeypatch):
    # more workers than cores, one-row chunks and a short switch interval:
    # a chunk writing columns that are not its own would change the bytes
    system, _, _ = linear
    pts = make_grid(GridSpec(BOUNDS, 0.125))
    monkeypatch.setattr(conmet.operator, "_BLOCK_BYTES", 1)
    grams = []
    for workers in (1, 8):
        monkeypatch.setattr(conmet.operator, "block_workers",
                            lambda blocks, w=workers: min(w, blocks))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            grams.append(assemble(system, kernel, pts)[1].tobytes())
        finally:
            sys.setswitchinterval(interval)
    assert grams[0] == grams[1]


def test_assemble_random_sets_spd_and_symmetric(linear, kernel):
    system, _, _ = linear
    rng = np.random.default_rng(33)
    for _ in range(20):
        count = int(rng.integers(2, 16))
        pts = rng.uniform(-1, 1, (count, 2))
        _, gram = assemble(system, kernel, pts)
        scale = np.max(np.abs(gram))
        assert np.allclose(gram, gram.T, rtol=1e-12, atol=1e-12 * scale)
        np.linalg.cholesky(gram)           # SPD iff this succeeds


def test_assemble_gram_exactly_symmetric(linear, kernel):
    # the lower triangle defines an exactly symmetric Gram; one chunk covers
    # this grid, so its upper triangle is computed too, equal up to round-off
    system, _, _ = linear
    _, gram = assemble(system, kernel, make_grid(GridSpec(BOUNDS, 0.125)))
    whole = _whole(gram)
    assert gram.flags.f_contiguous
    assert np.array_equal(whole, whole.T)
    assert np.allclose(gram, whole, rtol=0, atol=1e-13 * np.max(np.abs(gram)))


def test_assemble_translation_invariant_far_from_origin(kernel):
    # the h = 1/8 grid shifted by 2^12 with the system shifted along: every
    # Gram entry depends only on differences of points and on f, Df there
    # (whose entries are not dyadic, so the products round)
    mat = np.array([[-1.0, 0.3], [0.7, -2.1]])
    shift = np.full(2, 2.0 ** 12)
    jac = lambda x: np.tile(mat, (len(x), 1, 1))
    base = DynamicalSystem(2, lambda x: x @ mat.T, jac, label="base")
    moved = DynamicalSystem(2, lambda x: (x - shift) @ mat.T, jac, label="shifted")
    pts = make_grid(GridSpec(BOUNDS, 0.125))
    _, near = assemble(base, kernel, pts)
    _, far = assemble(moved, kernel, pts + shift)
    assert np.max(np.abs(far - near)) <= 1e-14 * np.max(np.abs(near))


def test_assemble_fails_fast_without_memory(linear, kernel, monkeypatch):
    system, _, _ = linear
    pts = make_grid(GridSpec(BOUNDS, 0.125))
    monkeypatch.setattr(conmet.collocation, "_available_memory_bytes", lambda: 10 ** 6)
    with pytest.raises(MemoryError, match=r"867-unknown .* about \d+ MB, but only 1 MB"):
        assemble(system, kernel, pts)
    # an unreadable availability skips the check
    monkeypatch.setattr(conmet.collocation, "_available_memory_bytes", lambda: None)
    assert assemble(system, kernel, pts)[1].shape == (867, 867)


def test_assemble_refuses_the_lower_triangle_before_any_reach(linear, kernel, monkeypatch):
    # the lower triangle needs only the node count, so a Gram too large for
    # it is refused before the reaches scan the nodes
    def no_reach(*args):
        raise AssertionError("took the reach of a Gram that cannot fit")

    monkeypatch.setattr(conmet.collocation, "_chunk_reach", no_reach)
    monkeypatch.setattr(conmet.collocation, "_available_memory_bytes", lambda: 10 ** 6)
    with pytest.raises(MemoryError, match=r"^the 867-unknown Gram matrix, .* only 1 MB"):
        assemble(linear[0], kernel, make_grid(GridSpec(BOUNDS, 0.125)))


def test_memory_check_counts_the_workspaces_assembly_allocates(linear, kernel, monkeypatch):
    # the check asks for the Gram's lower triangle, the page each of its
    # columns starts on, and exactly one workspace, of the size the chunks
    # receive, per worker: one byte less is refused, that amount is not.
    # This grid's band takes dpbtrf, and solve checks nothing
    system, _, rhs = linear
    cset, gram = _assert_assembly_asks(system, kernel, make_grid(GridSpec(BOUNDS, 0.125)),
                                       monkeypatch)
    assert not conmet.collocation._takes_panels(len(gram), cset.kd)
    monkeypatch.setattr(conmet.collocation, "_available_memory_bytes", lambda: 0)
    solve(gram, rhs, cset)


def test_memory_check_counts_the_panel_temporaries(linear, kernel, monkeypatch):
    # the band of [-4, 4]^2 at h = 0.5 holds 0.041 of the dense flops, so
    # the factor takes panels: assembly asks for nothing more than it maps
    # and allocates, and solve, before it reads the Gram, asks for the two
    # panel-wide arrays of float64 that it holds beside it
    system, _, rhs = linear
    cset, gram = _assert_assembly_asks(system, kernel, make_grid(GridSpec(_WIDE, 0.5)),
                                       monkeypatch)
    assert conmet.collocation._takes_panels(len(gram), cset.kd)
    needed = 2 * 8 * conmet.collocation._PANEL * len(gram)
    kept = gram.copy(order="F")
    monkeypatch.setattr(conmet.collocation, "_available_memory_bytes", lambda: needed - 1)
    with pytest.raises(MemoryError, match=r"^the panels of the \d+-unknown Gram's factor"):
        solve(gram, rhs, cset)
    assert _bits(gram) == _bits(kept)
    monkeypatch.setattr(conmet.collocation, "_available_memory_bytes", lambda: needed)
    solve(gram, rhs, cset)


def _assert_assembly_asks(system, kernel, pts, monkeypatch):
    """The amount assemble's memory check needs on 2 workers with 16 KiB
    blocks: one byte less is refused, that amount is not; the node set and
    Gram that amount gives."""
    monkeypatch.setattr(conmet.operator, "_BLOCK_BYTES", 2 ** 14)
    monkeypatch.setattr(conmet.operator, "block_workers", lambda blocks: min(2, blocks))
    seen = {}
    run_blocks = conmet.collocation.run_blocks

    def recording(work, blocks, *shape):
        def task(block, workspace):
            seen[id(workspace)] = workspace.nbytes
            return work(block, workspace)
        return run_blocks(task, blocks, *shape)

    monkeypatch.setattr(conmet.collocation, "run_blocks", recording)
    gram = assemble(system, kernel, pts)[1]
    (workspace_bytes,) = set(seen.values())
    dim = len(gram)
    needed = 8 * dim * (dim + 1) // 2 + dim * mmap.PAGESIZE + 2 * workspace_bytes
    monkeypatch.setattr(conmet.collocation, "_available_memory_bytes", lambda: needed - 1)
    with pytest.raises(MemoryError):
        assemble(system, kernel, pts)
    monkeypatch.setattr(conmet.collocation, "_available_memory_bytes", lambda: needed)
    cset, again = assemble(system, kernel, pts)
    assert np.array_equal(again, gram)
    return cset, again


def test_failed_mapping_is_a_memory_error(linear, kernel, monkeypatch):
    def refuse(*args, **kwargs):
        raise OSError(12, "Cannot allocate memory")

    monkeypatch.setattr(mmap, "mmap", refuse)
    with pytest.raises(MemoryError, match="cannot map the 867-unknown Gram matrix"):
        assemble(linear[0], kernel, make_grid(GridSpec(BOUNDS, 0.125)))


_RSS_GROWTH = """
import conmet

system, _, rhs = conmet.linear_example()
points = conmet.make_grid(conmet.GridSpec(((-4.0, 4.0), (-4.0, 4.0)), 0.2))
kernel = conmet.wendland_c8(0.9)
before = status("VmRSS:")
cset, gram = conmet.assemble(system, kernel, points)
print((status("VmRSS:") - before) / gram.nbytes)
conmet.solve(gram, rhs, cset)
print((status("VmRSS:") - before) / gram.nbytes)
"""


def test_assemble_leaves_the_unwritten_pages_unmapped():
    # on [-4, 4]^2 at h = 0.2 the chunks write about a quarter of the Gram's
    # pages: the lower triangle up to each chunk's last block column in the
    # support; a Gram on huge pages, or one written whole, costs all of them.
    # The panel factor stays inside the band, where one dense dpotrf
    # call would write the whole lower triangle (0.71 of the Gram's bytes)
    assembled, solved = map(float, in_fresh_process(_RSS_GROWTH).split())
    assert assembled < 0.5
    assert solved < 0.45


_MEMORY_ASKED_AND_USED = """
import sys
import conmet, conmet.collocation

half, spacing = map(float, sys.argv[1:])
system, _, rhs = conmet.linear_example()
points = conmet.make_grid(conmet.GridSpec(((-half, half), (-half, half)), spacing))
asks = []
check = conmet.collocation._check_memory

def recorded(what, needed):
    asks.append(needed)
    check(what, needed)

conmet.collocation._check_memory = recorded
before = status("VmRSS:")
cset, gram = conmet.assemble(system, conmet.wendland_c8(0.9), points)
conmet.solve(gram, rhs, cset)
print(max(asks), status("VmHWM:") - before)
"""


@pytest.mark.parametrize("half, spacing", [(4.0, 0.2), (1.0, 0.0625), (1.0, 0.125)],
                         ids=["large-domain", "h=1/16", "h=1/8"])
def test_memory_check_asks_for_no_less_than_assembly_and_solve_use(half, spacing):
    # the largest memory check of assemble and solve against the resident
    # memory they add at their peak, in a fresh process; 16 MB covers the
    # allocator and the threads' stacks.  The peak is the process's VmHWM,
    # not ru_maxrss, which a spawned process takes over from its parent.  The
    # ask may lie well above the use (2.1x on [-4, 4]^2, whose lower triangle
    # the kernel's zeros mostly leave unwritten), but never below it, or a
    # problem that does not fit is killed for want of memory, not refused
    output = in_fresh_process(_MEMORY_ASKED_AND_USED, str(half), str(spacing))
    asked, used = map(int, output.split())
    assert used <= asked + 16 * 10 ** 6


def test_available_memory_is_positive_or_unknown():
    available = conmet.collocation._available_memory_bytes()
    assert available is None or available > 0


@pytest.mark.parametrize("version", [0, 1], ids=["cgroup-v2", "cgroup-v1"])
def test_memory_check_takes_the_headroom_under_the_cgroup_limit(tmp_path, monkeypatch,
                                                                version):
    # limit 1 GiB, usage 900 MiB of which 100 MiB is inactive file cache: the
    # headroom is 224 MiB, so a 300 MB need is refused although the limit and
    # MemAvailable (64 GiB) would take it
    mib = 2 ** 20
    key = conmet.collocation._CGROUP_FILES[version][3]
    limit, usage, stat, meminfo = (tmp_path / name for name in ("limit", "usage", "stat",
                                                                "meminfo"))
    limit.write_text(f"{1024 * mib}\n")
    usage.write_text(f"{900 * mib}\n")
    # the other version's key too, with another value: only this version's counts
    stat.write_text(f"active_file 7\ninactive_file {100 * mib if version == 0 else 3}\n"
                    f"total_inactive_file {100 * mib if version == 1 else 3}\n")
    meminfo.write_text(f"MemTotal: {2 ** 27} kB\nMemAvailable: {2 ** 26} kB\n")
    monkeypatch.setattr(conmet.collocation, "_MEMINFO", str(meminfo))
    monkeypatch.setattr(conmet.collocation, "_CGROUP_FILES",
                        ((str(limit), str(usage), str(stat), key),))
    assert conmet.collocation._available_memory_bytes() == 224 * mib
    with pytest.raises(MemoryError, match="only 235 MB are available"):
        conmet.collocation._check_memory("a 300 MB array", 300 * 10 ** 6)
    usage.write_text(f"{400 * mib}\n")
    conmet.collocation._check_memory("a 300 MB array", 300 * 10 ** 6)
    limit.write_text("max\n")                  # cgroup v2's no limit
    assert conmet.collocation._available_memory_bytes() == 2 ** 36


def test_assemble_and_solve_hold_one_gram(linear, kernel, monkeypatch):
    # assembly works in chunks of the budget, one per worker, and the solve
    # factors in place, so the Gram is the only dim x dim array alive at any
    # time; it lives in a mapping that tracemalloc does not see, so the peak
    # traced is what assembly and solve allocate beside it
    system, _, rhs = linear
    budget = 2 ** 20
    monkeypatch.setattr(conmet.operator, "_BLOCK_BYTES", budget // 32)   # 14 of 289 rows
    monkeypatch.setattr(conmet.operator, "block_workers", lambda blocks: min(2, blocks))
    pts = make_grid(GridSpec(BOUNDS, 0.125))
    tracemalloc.start()
    try:
        cset, gram = assemble(system, kernel, pts)
        solve(gram, rhs, cset)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert gram.nbytes > 5 * budget
    assert peak <= 2 * budget


def test_panel_factor_holds_two_panels_beside_the_gram(linear, kernel):
    # on [-4, 4]^2 at h = 0.25 the factor runs panel by panel; beside the
    # Gram it holds at most the two panel-wide arrays the memory check counts
    system, _, rhs = linear
    cset, gram = assemble(system, kernel, make_grid(GridSpec(_WIDE, 0.25)))
    bound = 2 * 8 * conmet.collocation._PANEL * len(gram)
    tracemalloc.start()
    try:
        solve(gram, rhs, cset)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert gram.nbytes > 5 * bound
    assert peak <= bound


def test_assemble_checks_equilibrium_condition(kernel):
    unstable = DynamicalSystem(2, lambda x: np.asarray(x, float),
                               lambda x: np.tile(np.eye(2), (len(x), 1, 1)), label="expanding")
    pts = make_grid(GridSpec(BOUNDS, 0.5))
    with pytest.raises(ValueError, match="eigenvalue condition"):
        assemble(unstable, kernel, pts,
                 equilibria=((np.zeros(2), "stable"),))
    # correctly labelled sign passes
    assemble(unstable, kernel, pts, equilibria=((np.zeros(2), "unstable"),))


def _expanding_about(x0):
    """x' = x - x0: one equilibrium at x0, both eigenvalues +1 (unstable)."""
    x0 = np.asarray(x0, dtype=float)
    return DynamicalSystem(2, lambda x: np.asarray(x, float) - x0,
                           lambda x: np.tile(np.eye(2), (len(x), 1, 1)), label="expanding")


_FLAT = np.array([[-0.5, 0.0], [0.0, 0.0], [0.5, 0.0], [1.0, 0.0]])   # no 2-D hull


@pytest.mark.parametrize("x0, pts", [
    pytest.param([0.25, -0.25], None, id="interior"),
    pytest.param([-1.0, -1.0], None, id="corner"),
    pytest.param([1.0, 1.0], None, id="far-corner"),
    pytest.param([1.0, 0.3], None, id="edge"),
    pytest.param([-0.5, -1.0], None, id="edge-node"),
    *(pytest.param(x0, None, id=f"outside-{gap:g}-{side}") for gap in (1e-9, 1e-13)
      for side, x0 in (("right", [1.0 + gap, 0.2]), ("below", [-0.3, -1.0 - gap]),
                       ("diagonal", [1.0 + gap, 1.0 + gap]))),
    pytest.param([5.0, 5.0], None, id="far-outside"),
    pytest.param([0.0, 0.0], _FLAT, id="flat"),
])
def test_every_declared_equilibrium_is_checked(kernel, x0, pts):
    # the condition depends on the system and x0 alone: inside the grid's
    # hull, on it, outside it, and for a point set without a hull
    if pts is None:
        pts = make_grid(GridSpec(BOUNDS, 0.5))
    with pytest.raises(ValueError, match="fails the stable eigenvalue condition"):
        assemble(_expanding_about(x0), kernel, pts, equilibria=((x0, "stable"),))
    assemble(_expanding_about(x0), kernel, pts, equilibria=((x0, "unstable"),))


# -- solve ---------------------------------------------------------------------

def test_solve_single_equilibrium_point_lyapunov_case(linear, kernel):
    # one collocation point at the equilibrium: the functional condition is
    # the Lyapunov equation; solved by hand via two nested Lyapunov solves
    system, exact, rhs = linear
    cset, gram = assemble(system, kernel, np.zeros((1, 2)))
    solution = solve(gram, rhs, cset)
    residual = conmet.eval_operator_batch(solution, cset.points) + rhs
    assert np.max(np.abs(residual)) <= 1e-12 * np.max(np.abs(rhs))
    expected_beta = np.array([[-0.05, -0.03], [-0.03, -0.02]])   # gamma = (-1/20, -3/50, -1/50)
    assert np.allclose(solution.beta[0], expected_beta, rtol=0, atol=1e-13)
    origin = np.zeros((1, 2))
    assert np.allclose(eval_metric_batch(solution, origin), exact.value(origin),
                       rtol=0, atol=1e-12)


def test_solve_interpolation_conditions(solved_eighth, linear):
    # reapplying the functionals through the independent operator-evaluation
    # path reproduces -C at every collocation point
    _, _, rhs = linear
    fs = conmet.eval_operator_batch(solved_eighth, solved_eighth.collocation.points)
    dev = np.max(np.abs(fs + rhs))
    assert dev <= 1e-8 * np.max(np.abs(rhs))


def test_solve_rhs_scaling_linearity(linear, kernel):
    system, _, rhs = linear
    pts = make_grid(GridSpec(BOUNDS, 0.5))
    cset, gram = assemble(system, kernel, pts)
    base = solve(gram.copy(order="F"), rhs, cset)
    scaled = solve(gram, 4.0 * rhs, cset)
    assert np.allclose(scaled.beta, 4.0 * base.beta, rtol=1e-14, atol=0)
    x = np.array([[0.21, -0.43]])
    assert np.allclose(eval_metric_batch(scaled, x), 4.0 * eval_metric_batch(base, x),
                       rtol=1e-13, atol=1e-15)


def test_solve_validates_rhs(linear, kernel):
    system, _, _ = linear
    cset, gram = assemble(system, kernel, np.zeros((1, 2)))
    with pytest.raises(ValueError, match="symmetric"):
        solve(gram, np.array([[1.0, 0.2], [0.0, 1.0]]), cset)
    with pytest.raises(ValueError, match="positive definite"):
        solve(gram, np.array([[1.0, 0.0], [0.0, -1.0]]), cset)
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="must be finite"):
            solve(gram, np.array([[bad, 0.0], [0.0, 1.0]]), cset)


def test_solve_overflow_raises(linear, kernel):
    # finite, symmetric and positive definite, but gamma = A^-1 b overflows
    system, _, _ = linear
    cset, gram = assemble(system, kernel, make_grid(GridSpec(BOUNDS, 0.5)))
    with pytest.raises(FloatingPointError, match="not finite"):
        solve(gram, np.diag([1e308, 1e308]), cset)


def test_solve_beta_exactly_symmetric(solved_quarter):
    beta = solved_quarter.beta
    assert np.array_equal(beta, beta.transpose(0, 2, 1))


def test_solve_factorization_error_carries_pivot(linear, kernel, monkeypatch):
    # one Cholesky attempt per solve: a spoiled Gram raises and is not retried
    system, _, rhs = linear
    cset, gram = assemble(system, kernel, [[0.0, 0.0], [0.2, 0.1]])
    eps = 1e-10 * np.trace(gram) / len(gram)
    low = np.min(np.linalg.eigvalsh(gram))
    spoiled = np.asfortranarray(gram - (low + 0.5 * eps) * np.eye(len(gram)))
    cholesky = conmet.collocation._cholesky
    calls = []
    monkeypatch.setattr(conmet.collocation, "_cholesky",
                        lambda a, kd: calls.append(len(a)) or cholesky(a, kd))
    with pytest.raises(FactorizationError) as err:
        solve(spoiled, rhs, cset)
    assert isinstance(err.value.pivot, int) and err.value.pivot >= 1
    assert calls == [len(gram)]


def _bits(array):
    return np.asarray(array).view(np.uint64).tobytes(order="A")


def test_solve_consumes_gram(linear, kernel):
    # the factor overwrites the lower triangle in place and leaves the strict
    # upper one as assembled; solve reads nothing else, so a strict upper
    # triangle of NaN gives the same beta bit for bit; a C-ordered copy,
    # which would not be factored in place, is refused and left as it was
    system, _, rhs = linear
    cset, gram = assemble(system, kernel, make_grid(GridSpec(BOUNDS, 0.25)))
    kept = gram.copy(order="F")
    kept.flags.writeable = False          # LAPACK would write through the flag
    with pytest.raises(ValueError, match="writeable"):
        solve(kept, rhs, cset)
    solution = solve(gram, rhs, cset)
    assert _bits(np.triu(gram, 1)) == _bits(np.triu(kept, 1))
    factor = np.linalg.cholesky(_whole(kept))
    assert np.max(np.abs(np.tril(gram) - factor)) <= 1e-12 * np.max(np.abs(factor))
    assert solution.diagnostics.min_pivot == pytest.approx(
        np.min(np.diag(factor)), rel=1e-12)
    assert solution.diagnostics.relative_residual is None
    blind = np.where(np.tri(len(kept), dtype=bool), kept, np.nan)
    _assert_blind_solve_matches(blind, rhs, cset, solution)

    cset, gram = assemble(system, kernel, [[0.0, 0.0], [0.2, 0.1]])
    eps = 1e-10 * np.trace(gram) / len(gram)
    low = np.min(np.linalg.eigvalsh(gram))
    spoiled = np.asfortranarray(gram - (low + 0.5 * eps) * np.eye(len(gram)))
    with pytest.raises(FactorizationError) as err:
        solve(spoiled.copy(order="F"), rhs, cset)
    assert isinstance(err.value.pivot, int) and err.value.pivot >= 1


@pytest.mark.parametrize("bounds, spacing, panels", [
    pytest.param(_WIDE, 0.25, True, id="panels"),          # band: 0.042 of the flops
    pytest.param(BOUNDS, 0.125, False, id="one-call"),     # 0.477
])
def test_solve_factor_matches_dense_cholesky(linear, kernel, monkeypatch, bounds, spacing,
                                             panels):
    # either path leaves the Cholesky factor of the whole matrix in the lower
    # triangle and the strict upper one as assembled; the band factor calls
    # LAPACK's dpbtrf by pointer, not cho_factor
    system, _, rhs = linear
    cset, gram = assemble(system, kernel, make_grid(GridSpec(bounds, spacing)))
    kept = gram.copy(order="F")
    shapes = []
    cho_factor = scipy.linalg.cho_factor
    monkeypatch.setattr(scipy.linalg, "cho_factor",
                        lambda a, **kwargs: shapes.append(a.shape) or cho_factor(a, **kwargs))
    solution = solve(gram, rhs, cset)
    if panels:
        assert len(shapes) > 1 and max(shapes) == (conmet.collocation._PANEL,) * 2
    else:
        assert shapes == []
    assert np.array_equal(np.triu(gram, 1), np.triu(kept, 1))
    factor = np.linalg.cholesky(_whole(kept))
    del kept
    assert np.max(np.abs(np.tril(gram) - factor)) <= 1e-12 * np.max(np.abs(factor))
    assert solution.diagnostics.min_pivot == pytest.approx(np.min(np.diag(factor)), rel=1e-12)


def test_panel_factor_reads_only_the_lower_triangle(linear, kernel, monkeypatch):
    # as test_solve_consumes_gram, on a Gram that takes panels (42 chunks of
    # [-4, 4]^2 at h = 0.5): a strict upper triangle of NaN gives the same
    # beta bit for bit, and a C-ordered copy is refused
    system, _, rhs = linear
    monkeypatch.setattr(conmet.operator, "_BLOCK_BYTES", 2 ** 14)
    cset, gram = assemble(system, kernel, make_grid(GridSpec(_WIDE, 0.5)))
    blind = np.where(np.tri(len(gram), dtype=bool), gram, np.nan)
    solution = solve(gram, rhs, cset)
    _assert_blind_solve_matches(blind, rhs, cset, solution)


_RNG = np.random.default_rng(24)


@pytest.mark.parametrize("points, c, flops", [
    pytest.param(make_grid(GridSpec(_WIDE, 0.2)), 0.9, 0.0421, id="large-domain"),
    pytest.param(_RNG.permutation(make_grid(GridSpec(_WIDE, 0.4))), 0.9, 1.0010,
                 id="shuffled-grid"),
    pytest.param(_RNG.uniform(-4.0, 4.0, (700, 2)), 0.9, 1.0007, id="random-points"),
    # grid neighbours two lines apart lie exactly on the support radius, where
    # the kernel is 0: a margin around the radius would give 0.0405
    pytest.param(make_grid(GridSpec(_WIDE, 0.5)), 1.0, 0.0124, id="exact-radius"),
])
def test_node_ends_cover_every_nonzero(linear, points, c, flops):
    # the oracle: one past the last nonzero row of each column of the lower
    # triangle, which holds the diagonal; the bandwidth that each node's last
    # node in the support gives reaches exactly the farthest of them
    cset, gram = assemble(linear[0], wendland_c8(c), points)
    nonzero = len(gram) - np.argmax(gram[::-1] != 0.0, axis=0)
    assert np.all(nonzero >= np.arange(1, len(gram) + 1))
    assert cset.kd + 1 == np.max(nonzero - np.arange(len(gram)))
    columns = np.minimum(cset.kd + 1, np.arange(len(gram), 0, -1))      # rows j .. j + kd
    share = np.sum(columns ** 2.0) / (len(gram) ** 3 / 3)
    assert share == pytest.approx(flops, abs=5e-4)


@pytest.mark.parametrize("bounds, spacing, c, panels", [
    pytest.param(_WIDE, 0.5, 0.9, True, id="panels-support-two-lines"),
    pytest.param(_WIDE, 0.5, 2.5, True, id="panels-support-inside-a-cell"),  # 0.4 < h: kd = 2
    pytest.param(BOUNDS, 0.125, 0.9, False, id="band"),    # 0.477 of the dense flops
])
def test_nothing_past_the_band_is_read(linear, bounds, spacing, c, panels):
    # NaN in the lower triangle past row j + kd of each column j gives the same
    # beta and diagnostics bit for bit, so neither factor nor the triangular
    # solves read those entries; the panels write zeros over the NaN in the
    # rows they read, and dpbtrf leaves them all as they were
    system, _, rhs = linear
    cset, gram = assemble(system, wendland_c8(c), make_grid(GridSpec(bounds, spacing)))
    assert conmet.collocation._takes_panels(len(gram), cset.kd) == panels
    past = np.arange(len(gram))[:, None] > np.arange(len(gram)) + cset.kd
    assert np.all(gram[past] == 0.0) and np.count_nonzero(past) > len(gram)
    blind = np.asfortranarray(np.where(past, np.nan, gram))
    solution = solve(gram, rhs, cset)
    other = solve(blind, rhs, cset)
    assert _bits(other.beta) == _bits(solution.beta)
    assert other.diagnostics == solution.diagnostics
    assert np.all(np.isnan(blind[past])) == (not panels)


def test_lapack_binding_checks_the_signature_and_info():
    # a declared argument list that differs from scipy's is an ImportError at
    # binding, before any call; an argument LAPACK rejects is a RuntimeError
    # naming it
    bind = conmet.collocation._lapack
    wrong = (("uplo", conmet.collocation._CHAR), ("n", conmet.collocation._INT),
             ("ab", conmet.collocation._DOUBLE), ("ldab", conmet.collocation._INT),
             ("info", conmet.collocation._INT))                # dpbtrf without kd
    with pytest.raises(ImportError, match="dpbtrf"):
        bind("dpbtrf", wrong)
    with pytest.raises(ImportError, match="no_such_routine"):
        bind("no_such_routine", wrong)
    a = np.asfortranarray(2.0 * np.eye(4))
    with pytest.raises(RuntimeError, match="dpbtrf rejected its argument ldab"):
        conmet.collocation._DPBTRF(b"L", 4, 2, a, 2)           # LDAB < KD + 1
    assert conmet.collocation._DPBTRF(b"L", 4, 1, a, 5) == 0
    assert np.array_equal(a, np.sqrt(2.0) * np.eye(4))


def _assert_blind_solve_matches(blind, rhs, cset, solution):
    """The Fortran-ordered blind Gram solves to solution bit for bit; a
    C-ordered copy of it is a ValueError and keeps its bits."""
    copy = np.array(blind, order="C")
    with pytest.raises(ValueError, match=r'Fortran-ordered.*gram\.copy\(order="F"\)'):
        solve(copy, rhs, cset)
    assert _bits(copy) == _bits(blind)
    other = solve(np.array(blind, order="F"), rhs, cset)
    assert _bits(other.beta) == _bits(solution.beta)
    assert other.diagnostics == solution.diagnostics


@pytest.mark.parametrize("bounds, spacing, c, spoiled, panels", [
    pytest.param(_WIDE, 0.25, 0.9, 3 * 256 + 17, True, id="panels"),    # in the fourth panel
    pytest.param(BOUNDS, 0.125, 0.9, 3 * 256 + 17, False, id="one-call"),
    # 243 unknowns: the one panel is the whole Gram, a contiguous block that
    # cho_factor would overwrite in part before the pivot is read
    pytest.param(BOUNDS, 0.25, 2.5, 200, True, id="one-panel"),
])
def test_solve_reports_the_global_pivot(linear, bounds, spacing, c, spoiled, panels):
    # a negative diagonal entry: every leading minor before it is intact, so
    # the factor fails exactly there
    system, _, rhs = linear
    cset, gram = assemble(system, wendland_c8(c), make_grid(GridSpec(bounds, spacing)))
    assert conmet.collocation._takes_panels(len(gram), cset.kd) == panels
    gram[spoiled, spoiled] = -1.0
    with pytest.raises(FactorizationError) as err:
        solve(gram, rhs, cset)
    assert err.value.pivot == spoiled + 1
    assert f"pivot {spoiled + 1}" in str(err.value)


def test_solve_permutation_invariance(linear, kernel):
    system, _, rhs = linear
    pts = make_grid(GridSpec(BOUNDS, 0.5))
    rng = np.random.default_rng(44)
    perm = rng.permutation(len(pts))
    cset_a, gram_a = assemble(system, kernel, pts)
    cset_b, gram_b = assemble(system, kernel, pts[perm])
    sol_a = solve(gram_a, rhs, cset_a)
    sol_b = solve(gram_b, rhs, cset_b)
    xs = rng.uniform(-1, 1, (20, 2))
    assert np.allclose(eval_metric_batch(sol_a, xs), eval_metric_batch(sol_b, xs),
                       rtol=0, atol=1e-10)


@pytest.mark.parametrize("c, panels", [
    pytest.param(0.4, False, id="one-call"),      # band: 0.340 of the dense flops
    pytest.param(1.2, True, id="panels"),         # 0.047
])
def test_solve_takes_the_kernel_from_the_node_set(linear, monkeypatch, c, panels):
    # on [-3, 3]^2 at h = 0.2 the factor's band comes from the kernel that
    # assemble stored with the nodes, so the solve interpolates C at every node
    system, _, _ = linear
    k = wendland_c8(c)
    cset, gram = assemble(system, k, make_grid(GridSpec(((-3.0, 3.0), (-3.0, 3.0)), 0.2)))
    assert cset.kernel is k
    shapes = []
    cho_factor = scipy.linalg.cho_factor
    monkeypatch.setattr(scipy.linalg, "cho_factor",
                        lambda a, **kwargs: shapes.append(a.shape) or cho_factor(a, **kwargs))
    solution = solve(gram, np.eye(2), cset)
    assert (len(shapes) > 1) == panels
    assert solution.kernel is k and solution.collocation is cset
    residual = conmet.eval_operator_batch(solution, cset) + np.eye(2)
    assert np.max(np.abs(residual)) <= 1e-8


def test_solve_takes_only_what_assemble_returns(linear, kernel):
    # a node set that assemble did not build, with or without a kernel, and
    # a C-ordered, read-only or float32 Gram, are each a ValueError before
    # anything is written
    system, _, rhs = linear
    cset, gram = assemble(system, kernel, make_grid(GridSpec(BOUNDS, 0.5)))
    kept = gram.copy(order="F")
    bare = collocation_data(system, cset.points)
    for other in (bare, replace(bare, kernel=kernel)):
        with pytest.raises(ValueError, match="carries no bandwidth; pass the set from assemble"):
            solve(gram, rhs, other)
    read_only = gram.copy(order="F")
    read_only.flags.writeable = False
    for bad in (np.array(gram, order="C"), read_only, np.asfortranarray(gram, np.float32)):
        copy = bad.copy(order="A")
        with pytest.raises(ValueError, match="writeable, Fortran-ordered float64"):
            solve(bad, rhs, cset)
        assert bad.tobytes(order="A") == copy.tobytes(order="A")
    assert _bits(gram) == _bits(kept)


def test_solve_shape_mismatch_rejected(linear, kernel):
    system, _, rhs = linear
    cset, _ = assemble(system, kernel, np.zeros((1, 2)))
    with pytest.raises(ValueError, match="Gram matrix"):
        solve(np.eye(5), rhs, cset)

import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinpst import (ChainSpec, CouplingMatrix, Partition, TransferMap, basis,
                     build_couplings, chain, dynamics, scale)
from spinpst.config import RunConfig

from _oracles import (block_gram_batch, dipole_couplings, expm_propagator,
                      gathered_parity_blocks, gram_stack, pauli_xx_hamiltonian,
                      plane_gram_parts, restrict_to_sector, transfer_block)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
EPS = np.finfo(float).eps


class TestEigendecompose:
    def test_scalar_zero_block(self):
        eig = dynamics.eigendecompose(np.zeros((1, 1), dtype=complex))
        assert eig.eigenvalues[0] == 0
        assert eig.eigenvectors[0, 0] == 1

    def test_two_site_flip_flop(self):
        eig = dynamics.eigendecompose(np.array([[0, 0.5], [0.5, 0]], dtype=complex))
        assert np.allclose(np.sort(eig.eigenvalues), [-0.5, 0.5])

    def test_reconstruction_random_45(self, rng):
        z = rng.standard_normal((45, 45)) + 1j * rng.standard_normal((45, 45))
        h = (z + z.conj().T) / 2
        eig = dynamics.eigendecompose(h)
        u = eig.eigenvectors
        assert np.abs(u @ np.diag(eig.eigenvalues) @ u.conj().T - h).max() < 1e-12
        assert np.abs(u @ u.conj().T - np.eye(45)).max() < 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            dynamics.eigendecompose(np.array([[0, 1], [0, 0]], dtype=complex))
        # the check runs by row blocks; an asymmetry past the first block counts
        h = np.zeros((150, 150))
        h[140, 3] = 1e-9
        with pytest.raises(ValueError, match=r"not Hermitian \(max asymmetry 1.00e-09\)"):
            dynamics.eigendecompose(h)


class TestPropagator:
    def test_identity_at_zero(self):
        eig = dynamics.eigendecompose(np.array([[0, 0.5], [0.5, 0]], dtype=complex))
        assert np.abs(dynamics.propagator(eig, 0.0) - np.eye(2)).max() < 1e-15

    def test_full_transfer_two_sites(self):
        c = build_couplings(ChainSpec(n_sites=2))
        eig = dynamics.sector_eigensystem(c, 1)
        v = dynamics.propagator(eig, np.pi)
        assert abs(v[1, 0] - (-1j)) < 1e-12
        assert abs(v[0, 1] - (-1j)) < 1e-12

    def test_group_law(self, rng):
        z = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        eig = dynamics.eigendecompose((z + z.conj().T) / 2)
        v1 = dynamics.propagator(eig, 0.7)
        v2 = dynamics.propagator(eig, 1.9)
        v12 = dynamics.propagator(eig, 2.6)
        assert np.abs(v1 @ v2 - v12).max() < 1e-10

    def test_unitarity(self, chain10):
        eig = dynamics.sector_eigensystem(chain10, 2)
        for tau in (0.3, 5.0, 14.391):
            v = dynamics.propagator(eig, tau)
            assert np.abs(v @ v.conj().T - np.eye(v.shape[0])).max() < 1e-11

    def test_matches_expm_oracle(self, rng):
        z = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
        h = (z + z.conj().T) / 2
        eig = dynamics.eigendecompose(h)
        assert np.abs(dynamics.propagator(eig, 1.3) - expm_propagator(h, 1.3)).max() < 1e-11

    def test_rejects_non_finite_tau(self):
        eig = dynamics.eigendecompose(np.zeros((1, 1), dtype=complex))
        with pytest.raises(ValueError):
            dynamics.propagator(eig, float("inf"))


class TestTransferBlock:
    def test_zero_at_tau0(self, chain10, part10):
        eig = dynamics.sector_eigensystem(chain10, 2)
        v0 = dynamics.propagator(eig, 0.0)
        tb = transfer_block(v0, part10(5), 2, tau=0.0)
        assert np.abs(tb.v_hat).max() < 1e-14
        assert tb.v_hat.shape == (10, 3)

    def test_column_norms_are_er_probabilities(self, chain10, part10):
        part = part10(5)
        eig = dynamics.sector_eigensystem(chain10, 2)
        v = dynamics.propagator(eig, 14.391)
        tb = transfer_block(v, part, 2, tau=14.391)
        er_ords = basis.embed_subsystem(part.er_sites, 10, 2)
        s_ords = basis.embed_subsystem(part.sender_sites, 10, 2)
        for col, s_ord in enumerate(s_ords):
            prob = sum(abs(v[r_ord, s_ord]) ** 2 for r_ord in er_ords)
            assert np.linalg.norm(tb.v_hat[:, col]) ** 2 == pytest.approx(prob, abs=1e-12)

    def test_column_norm_bound(self, tmap10):
        for tau in (3.0, 9.5, 14.391):
            tb = tmap10(5).v_hat(tau)
            assert np.linalg.norm(tb.v_hat, axis=0).max() <= 1 + 1e-12

    def test_continuity(self, tmap10, chain10):
        tm = tmap10(5)
        h_norm = np.abs(chain.hamiltonian_block(chain10, 2)).sum(axis=1).max()
        delta = 1e-6
        d = np.abs(tm.v_hat(14.391 + delta).v_hat - tm.v_hat(14.391).v_hat).max()
        assert d < 1e-4 * h_norm

    def test_transfer_map_matches_block_extraction(self, chain10, part10):
        part = part10(4)
        eig = dynamics.sector_eigensystem(chain10, 2)
        v = dynamics.propagator(eig, 7.7)
        direct = transfer_block(v, part, 2, tau=7.7).v_hat
        cached = TransferMap(chain10, part, 2).v_hat(7.7).v_hat
        assert np.abs(direct - cached).max() < 1e-13

    def test_excitation_conservation_full_space(self, rng):
        # evolving any k-sector vector stays in sector: full-space oracle, n=6
        gaps = rng.uniform(0.9, 1.2, 5)
        c = dipole_couplings(np.concatenate([[0.0], np.cumsum(gaps)]))
        h_full = pauli_xx_hamiltonian(c.d)
        v_full = expm_propagator(h_full, 2.1)
        for k in range(7):
            masks = basis.k_states(6, k).states
            sector = restrict_to_sector(v_full, masks)
            eig = dynamics.sector_eigensystem(c, k)
            assert np.abs(dynamics.propagator(eig, 2.1) - sector).max() < 1e-11
            # off-sector leakage is exactly zero
            others = [m for m in range(64) if m not in set(masks)]
            assert np.abs(v_full[np.ix_(others, list(masks))]).max() < 1e-12

    def test_gram_batch_matches_single_tau_at_block_edges(self, tmap10):
        # two calls, as a scan makes them: each is one interpolated block
        tm = tmap10(5)
        taus = 10.0 + 0.001 * np.arange(3001)
        b = dynamics.SCAN_CHUNK
        grams = np.concatenate([gram_stack(*tm.gram_batch(taus[:b], 0.001)),
                                gram_stack(*tm.gram_batch(taus[b:], 0.001))])
        for i in (0, b // 2, b - 1, b, len(taus) - 1):
            v = tm.v_hat(taus[i]).v_hat
            assert np.abs(grams[i] - v.conj().T @ v).max() < 1e-13

    def test_gram_batch_of_no_points_is_empty(self, tmap10):
        diag, upper = tmap10(5).gram_batch(np.array([]), 0.001)
        assert diag.shape == (3, 0) and [u.shape for u in upper] == [(0,)] * 3

    def test_gram_batch_rejects_non_uniform_grid(self, tmap10):
        with pytest.raises(ValueError, match="uniform"):
            tmap10(5).gram_batch(np.array([0.0, 0.1, 0.3]), 0.1)

    def test_v_hat_keeps_to_the_phase_error_bound(self, tmap10):
        # tau is a rounded double: past eps max|lambda| |tau| = MAX_PHASE_ERROR a phase
        # lambda tau, and so V_hat, keeps no digit it can vouch for; a NaN tau keeps none
        tm = tmap10(4)
        edge = dynamics.MAX_PHASE_ERROR / (EPS * np.abs(tm.eig.eigenvalues).max())
        assert 1e6 < edge < 1e7
        for tau in (edge * (1 - 1e-9), -edge * (1 - 1e-9)):
            assert np.isfinite(tm.v_hat(tau).v_hat).all()
        for tau in (edge * (1 + 1e-9), -edge * (1 + 1e-9), 1e17, np.nan):
            with pytest.raises(ValueError, match="where a phase lambda tau errs by up to"):
                tm.v_hat(tau)

    def test_real_sector_gives_real_eigenvectors(self, chain10):
        eig = dynamics.sector_eigensystem(chain10, 2)
        assert eig.eigenvectors.dtype == np.float64

    def test_partition_mismatch(self, chain10):
        eig = dynamics.sector_eigensystem(chain10, 2)
        v = dynamics.propagator(eig, 1.0)
        with pytest.raises(ValueError):
            transfer_block(v, Partition(n_sites=12, n_s=3, n_r=3, n_er=5), 2)


def single_tau_grams(tm, taus):
    vs = [tm.v_hat(t).v_hat for t in taus]
    return np.array([v.conj().T @ v for v in vs])


def explicit_chain(n, scale_by, seed, mirror=False):
    rng = np.random.default_rng(seed)
    m = np.triu(rng.uniform(0.0, 1.0, (n, n)), 1)
    m = m + m.T
    if mirror:
        m = (m + m[::-1, ::-1]) / 2
    return CouplingMatrix(scale_by * m)


class TestInterpolatedBlocks:
    B = dynamics.SCAN_CHUNK         # grid points per Gram call in a scan, one block each

    @pytest.mark.parametrize("n_t", [1, 2, 511, 512, 513, 1061, B - 1, B, B + 1, 2 * B + 37])
    def test_gram_batch_matches_single_tau(self, tmap10, n_t):
        # every offset of one block: a scan's length, shorter and longer ones
        tm = tmap10(5)
        taus = 13.7 + 0.001 * np.arange(n_t)
        grams = gram_stack(*tm.gram_batch(taus, 0.001))
        assert np.abs(grams - single_tau_grams(tm, taus)).max() < 1e-13

    def test_fewer_nodes_than_grid_points_at_the_published_grid(self, tmap10):
        lam_max = np.abs(tmap10(5).eig.eigenvalues).max()
        offsets, interp = dynamics._step_nodes(self.B, 0.001, lam_max)
        assert interp.shape == (self.B, len(offsets)) and len(offsets) <= 21
        # the Lagrange rows reproduce constants and the offsets themselves
        assert np.abs(interp.sum(axis=1) - 1).max() < 1e-13
        span = 0.001 * (self.B - 1)
        assert np.abs(interp @ offsets - 0.001 * np.arange(self.B)).max() < 8 * EPS * span

    @pytest.mark.parametrize("lam_max", [2.4, 24.0, 240.0])
    def test_lagrange_rows_are_finite_for_every_block_length(self, lam_max):
        for b in range(2, self.B + 1):
            offsets, interp = dynamics._step_nodes(b, 0.001, lam_max)
            assert np.isfinite(interp).all()
            assert np.abs(interp.sum(axis=1) - 1).max() < 1e-12

    def test_fallback_is_the_exact_step_table_product(self):
        # couplings x100 on a 0.01 grid: omega ~ 500 asks for more nodes than points
        c = explicit_chain(8, 100.0, seed=3)
        tm = TransferMap(c, Partition(n_sites=8, n_s=2, n_r=2, n_er=3), 2)
        lam = tm.eig.eigenvalues
        n_t = 612
        taus = 0.4 + 0.01 * np.arange(n_t)
        offsets, interp = dynamics._step_nodes(n_t, 0.01, np.abs(lam).max())
        assert np.array_equal(interp, np.eye(n_t))
        phases = np.exp(-1j * np.outer(0.01 * np.arange(n_t), lam)) * np.exp(-1j * lam * taus[0])
        re, im = (np.vstack([phases.real, phases.imag]) @ tm._khatri_rao).reshape(
            2, n_t, tm.n_er_k, tm.n_s_k)
        # the step-table block through the kernel's Gram arithmetic, bit for bit
        diag, upper = tm.gram_batch(taus, 0.01)
        want_diag, want_upper = plane_gram_parts(re + 1j * im)
        assert np.array_equal(diag, want_diag)
        assert np.array_equal(upper, want_upper)

    @given(sector=st.sampled_from([(3, 3), (3, 2), (4, 2)]), mirror=st.booleans(),
           step=st.sampled_from([0.001, 0.01, 0.07]), fallback=st.booleans(),
           n_t=st.integers(1, B + 40), tau_lo=st.floats(0.0, 30.0),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_gram_parts_match_batched_and_single_tau_grams(self, sector, mirror, step, fallback,
                                                          n_t, tau_lo, seed):
        # s = 1, 3 and 6 sender columns; a fallback chain has omega >> b, so P >= b
        n_s, k = sector
        n = n_s + 4
        c = explicit_chain(n, 16.0 / step if fallback else 1.5, seed, mirror)
        tm = TransferMap(c, Partition(n_sites=n, n_s=n_s, n_r=n_s, n_er=4), k)
        lam_max = float(np.abs(tm.eig.eigenvalues).max())
        if fallback:
            assert np.array_equal(dynamics._step_nodes(n_t, step, lam_max)[1], np.eye(n_t))
        taus = tau_lo + step * np.arange(n_t)
        diag, upper = tm.gram_batch(taus, step)
        assert diag.shape == (tm.n_s_k, n_t) and len(upper) == tm.n_s_k * (tm.n_s_k - 1) // 2
        grams = gram_stack(diag, upper)
        # the same phases by the former route: only the rounding of the products differs
        assert np.abs(grams - block_gram_batch(tm, taus, step)).max() < 1e-13
        # single-tau phases round lambda tau apart from the block's base and step phases
        tol = 1e-13 + 8 * np.finfo(float).eps * lam_max * taus[-1]
        assert np.abs(grams - single_tau_grams(tm, taus)).max() < tol

    @given(n=st.integers(6, 7), k=st.integers(1, 2), n_s=st.integers(2, 3),
           step=st.sampled_from([0.001, 0.01, 0.07]), tau_lo=st.floats(0.0, 30.0),
           seed=st.integers(0, 2 ** 32 - 1), mirror=st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_scan_rows_match_expm_oracle(self, n, k, n_s, step, tau_lo, seed, mirror):
        n_er = n - n_s
        c = explicit_chain(n, 1.5, seed, mirror)
        part = Partition(n_sites=n, n_s=n_s, n_r=n_s, n_er=n_er)
        res = scale.scan(TransferMap(c, part, k), tau_lo, tau_lo + step * (self.B + 20), step)
        h_full = pauli_xx_hamiltonian(c.d)
        sector = [m for m in range(2 ** n) if bin(m).count("1") == k]
        s_masks = [m for m in sector if m >> n_s == 0]
        er_masks = [m for m in sector if m & ((1 << (n - n_er)) - 1) == 0]
        for i in (0, self.B - 1, self.B, len(res.taus) - 1):
            v = expm_propagator(h_full, res.taus[i])[np.ix_(er_masks, s_masks)]
            want = np.sort(np.linalg.svd(v, compute_uv=False))
            assert np.abs(res.roots[i] - want).max() < 1e-12


def diagonalised_blocks(couplings, k):
    """The sector eigensystem and the blocks it diagonalised."""
    blocks = []
    eigendecompose = dynamics.eigendecompose
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "eigendecompose",
                   lambda h: blocks.append(h) or eigendecompose(h))
        eig = dynamics.sector_eigensystem(couplings, k)
    return eig, blocks


def mirror_positions(gaps, odd):
    """Site coordinates symmetric about 0, exactly, from the gaps of one half."""
    right = np.cumsum(gaps) - (0.0 if odd else gaps[0] / 2)
    return tuple(np.concatenate([-right[::-1], [0.0] if odd else [], right]))


def assert_split_eigensystem(couplings, k):
    h = chain.hamiltonian_block(couplings, k)
    eig, blocks = diagonalised_blocks(couplings, k)
    assert len(blocks) == 2 and sum(map(len, blocks)) == len(h)
    u, lam = eig.eigenvectors, eig.eigenvalues
    assert u.dtype == np.float64
    assert np.abs(u.T @ u - np.eye(len(h))).max() < 1e-12
    assert np.abs(h @ u - u * lam).max() < 1e-12
    assert np.abs(lam - np.linalg.eigvalsh(h)).max() < 1e-12


class TestMirrorSplit:
    @given(n=st.integers(2, 9), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_palindromic_positions_split_every_sector(self, n, data):
        gaps = data.draw(st.lists(st.floats(0.6, 1.6), min_size=n // 2,
                                  max_size=n // 2))
        c = dipole_couplings(mirror_positions(gaps, n % 2))
        for k in range(n + 1):
            assert_split_eigensystem(c, k)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_palindromic_overrides_split_every_sector(self, n):
        ends = {1: 0.3005, n - 1: 0.3005}
        if n >= 4:
            ends |= {2: 0.5311, n - 2: 0.5311}
        c = build_couplings(ChainSpec(n_sites=n, nn_overrides=ends))
        for k in range(n + 1):
            assert_split_eigensystem(c, k)

    def test_fixed_states_and_dim_one_sectors(self):
        # n=5, k=1: the middle site is fixed by the reflection; k=0, 5 have one state
        c = build_couplings(ChainSpec(n_sites=5))
        sizes = [[len(h) for h in diagonalised_blocks(c, k)[1]] for k in (0, 1, 5)]
        assert sizes == [[1, 0], [3, 2], [1, 0]]

    @pytest.mark.parametrize("couplings", [
        dipole_couplings((0.0, 1.0, 2.1, 3.3, 4.2, 5.0)),
        dipole_couplings((0.0, 1.0, 2.1, 3.3, 4.2, 5.0, 6.1, 7.0)),
        build_couplings(ChainSpec(n_sites=12, nn_overrides={3: 0.8}))],
        ids=["positions-6", "positions-8", "override-12"])
    def test_asymmetric_chains_take_the_trivial_mirror(self, couplings):
        # J is the identity: every state is fixed, the even block is the whole
        # sector block and the odd block is 0 x 0, bit for bit one dense eigh
        for k in range(couplings.n_sites + 1):
            eig, (even, odd) = diagonalised_blocks(couplings, k)
            h = chain.hamiltonian_block(couplings, k)
            one = dynamics.eigendecompose(h)
            assert odd.shape == (0, 0)
            assert_same_bits(even, h)
            assert_same_bits(eig.eigenvalues, one.eigenvalues)
            assert_same_bits(eig.eigenvectors, one.eigenvectors)

    @pytest.mark.parametrize("name", ["table1a_er4", "table2_n30", "table2_n42_distance"])
    def test_parity_blocks_are_the_gathered_blocks(self, name, monkeypatch):
        # N = 10, 30 and the adjusted N = 42 chain, bit for bit, without a dense block
        c = RunConfig.from_file(CONFIGS / f"{name}.cfg").couplings()
        even, odd = gathered_parity_blocks(c, 2)
        monkeypatch.setattr(chain, "hamiltonian_block", None)
        _, blocks = diagonalised_blocks(c, 2)
        assert len(blocks) == 2
        assert np.array_equal(blocks[0], even) and np.array_equal(blocks[1], odd)

    def test_n42_distance_reading_splits(self):
        c = RunConfig.from_file(CONFIGS / "table2_n42_distance.cfg").couplings()
        # its positions come from a cumsum: mirror-symmetric only to rounding
        assert 0 < np.abs(c.d - c.d[::-1, ::-1]).max() <= dynamics.MIRROR_TOL * c.d.max()
        eig, blocks = diagonalised_blocks(c, 2)
        assert [len(h) for h in blocks] == [441, 420]       # 21 mirror-fixed states and 420 pairs
        h = chain.hamiltonian_block(c, 2)
        assert np.abs(h @ eig.eigenvectors - eig.eigenvectors * eig.eigenvalues).max() < 1e-12

    def test_mirror_ordinals_reverse_the_masks(self):
        sector = basis.k_states(7, 3)
        mirror = basis.mirror_ordinals(7, 3)
        for m, j in zip(sector.states.tolist(), mirror):
            sites = {q for q in range(7) if m >> q & 1}
            assert sector.states[j] == sum(1 << (6 - q) for q in sites)
        assert np.array_equal(mirror[mirror], np.arange(len(sector)))


def assert_same_bits(x, y):
    assert x.shape == y.shape and x.dtype == y.dtype
    assert x.tobytes() == y.tobytes()


class TestEigenvectorRows:
    @pytest.mark.parametrize("n", range(2, 10))
    def test_rows_of_split_sectors_are_the_assembled_rows(self, n, rng):
        c = build_couplings(ChainSpec(n_sites=n))
        for k in range(n + 1):
            u = dynamics.sector_eigensystem(c, k).eigenvectors
            for size in (0, 1, 5, 2 * len(u)):
                ords = rng.integers(0, len(u), size)
                assert_same_bits(dynamics.sector_eigensystem(c, k, ords).eigenvectors, u[ords])
            assert_same_bits(dynamics.sector_eigensystem(c, k, list(range(len(u)))).eigenvectors, u)

    def test_rows_of_one_block_sectors_are_the_assembled_rows(self, rng):
        c = dipole_couplings((0.0, 1.0, 2.1, 3.3, 4.2, 5.0))
        for k in range(7):
            u = dynamics.sector_eigensystem(c, k).eigenvectors
            ords = rng.integers(0, len(u), 2 * len(u))
            assert_same_bits(dynamics.sector_eigensystem(c, k, ords).eigenvectors, u[ords])

    @pytest.mark.parametrize("positions", [None, (0.0, 1.0, 2.1, 3.3, 4.2, 5.0, 6.1, 7.0)],
                             ids=["mirror", "asymmetric"])
    def test_khatri_rao_factor_matches_the_assembled_rows(self, positions):
        c = dipole_couplings(np.arange(8.0) if positions is None else positions)
        for n_s, n_er, k in [(2, 3, 1), (3, 4, 2), (3, 5, 3)]:
            part = Partition(n_sites=8, n_s=n_s, n_r=n_s, n_er=n_er)
            tm = TransferMap(c, part, k)
            u = dynamics.sector_eigensystem(c, k).eigenvectors
            u_er = u[basis.embed_subsystem(part.er_sites, 8, k)]
            u_s = u[basis.embed_subsystem(part.sender_sites, 8, k)]
            want = np.einsum("ra,sa->ars", u_er, u_s).reshape(tm.eig.dim, -1)
            assert np.array_equal(tm._khatri_rao, want)

    def test_n42_transfer_map_keeps_no_dense_copy(self):
        # numpy reports its allocations to tracemalloc, so the counts repeat
        cfg = RunConfig.from_file(CONFIGS / "table2_n42_distance.cfg")
        partition = cfg.partition()
        positions = np.arange(42.0)
        positions[5] += 0.01                 # site 6: the trivial mirror, one block
        asymmetric = dipole_couplings(positions)
        for couplings in (cfg.couplings(), asymmetric):
            tracemalloc.start()
            try:
                tm = TransferMap(couplings, partition, 2)
                alive, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # the map keeps the eigenvector rows of its ER and sender states, no more
            assert tm.eig.eigenvectors.shape == (tm.n_er_k + tm.n_s_k, tm.eig.dim)
            dense = tm.eig.dim ** 2 * 8      # one dim x dim float64 matrix
            assert peak < 2.5 * dense
            assert alive < 0.1 * dense

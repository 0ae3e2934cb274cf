import functools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinpst import ChainSpec, Partition, TransferMap, build_couplings, scale
from spinpst.config import RunConfig
from spinpst.dynamics import SCAN_CHUNK
from spinpst.paper import LAMBDA_TOL, PAPER_ROOTS, PAPER_TABLE_1A, TAU0_TOL

from _oracles import (cubic_from_gram, expm_propagator, feasibility, gram, gram_parts,
                      gram_stack, hamiltonian_block_loop, lambda_polynomial,
                      lapack_singular_values, pauli_xx_hamiltonian, random_unitary, real_roots,
                      transfer_block)

EPS = np.finfo(float).eps
CONFIGS = Path(__file__).resolve().parents[1] / "configs"
# The scan's precision contract (README): every root is within
# C1 eps + C2 eps max|lambda| max|tau| of the exact singular value.
CONTRACT_C1, CONTRACT_C2 = 8, 1
TABLE_WINDOWS = ["table1a_er4", "table1a_er5", "table1a_er6", "table2_n20", "table2_n30",
                 "table2_n40", "table2_n42_distance"]


def random_psd(rng, n):
    z = rng.standard_normal((n + 2, n)) + 1j * rng.standard_normal((n + 2, n))
    return z.conj().T @ z / (n + 2)


class TestGram:
    def test_zero_block(self):
        g = gram(np.zeros((7, 3), dtype=complex))
        assert np.abs(g.g).max() == 0

    def test_orthonormal_columns(self, rng):
        q = np.linalg.qr(rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3)))[0]
        g = gram(q)
        assert np.abs(g.g - np.eye(3)).max() < 1e-12

    def test_psd(self, rng):
        for _ in range(20):
            v = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
            g = gram(v)
            assert np.linalg.eigvalsh(g.g).min() > -1e-12


class TestLambdaPolynomial:
    def test_degree_one(self):
        g = np.array([[0.37 + 0j]])
        poly = lambda_polynomial(g)
        assert np.allclose(poly.coeffs, [1.0, -0.37])
        assert real_roots(poly)[0] == pytest.approx(np.sqrt(0.37), abs=1e-12)

    def test_scalar_matrix_triple_root(self):
        mu2 = 0.49
        poly = lambda_polynomial(mu2 * np.eye(3, dtype=complex))
        roots = real_roots(poly)
        assert len(roots) == 3
        assert np.allclose(roots, np.sqrt(mu2), atol=1e-4)

    def test_matches_cubic_oracle(self, rng):
        for _ in range(50):
            g = random_psd(rng, 3)
            poly = lambda_polynomial(g)
            assert np.allclose(poly.coeffs, cubic_from_gram(g), atol=1e-10)

    def test_coefficients_real_many_grams(self, rng):
        worst = 0.0
        for _ in range(1000):
            n = rng.integers(2, 5)
            g = random_psd(rng, int(n))
            poly = lambda_polynomial(g)
            worst = max(worst, np.abs(np.imag(poly.coeffs)).max())
        assert worst == 0.0  # coefficients are stored real; reality enforced inside

    def test_is_the_gram_characteristic_polynomial(self, rng):
        # x det(G' - xI) - det(G - xE) = -det(G - xI): the roots are G's spectrum
        for _ in range(50):
            g = random_psd(rng, int(rng.integers(1, 6)))
            want = np.poly(np.linalg.eigvalsh(g))
            assert np.abs(lambda_polynomial(g).coeffs - want).max() < 1e-10

    def test_monic(self, rng):
        poly = lambda_polynomial(random_psd(rng, 4))
        assert poly.coeffs[0] == 1.0
        assert poly.degree == 4

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            lambda_polynomial(np.array([[1.0, 0.5], [0.1, 1.0]], dtype=complex))


class TestRealRoots:
    @pytest.mark.parametrize("n_er", [4, 5, 6])
    def test_published_root_lists(self, tmap10, n_er):
        tau0 = PAPER_TABLE_1A[n_er][0]
        roots = scale.roots_at(tmap10(n_er), tau0)
        assert len(roots) == 3
        for got, want in zip(roots, PAPER_ROOTS[n_er]):
            assert got == pytest.approx(want, abs=LAMBDA_TOL)

    @pytest.mark.parametrize("n_er", [4, 5, 6])
    def test_roots_at_match_polynomial_oracle(self, tmap10, n_er):
        tau0 = PAPER_TABLE_1A[n_er][0]
        poly = real_roots(lambda_polynomial(gram(tmap10(n_er).v_hat(tau0)).g))
        roots = scale.roots_at(tmap10(n_er), tau0)
        assert len(poly) == 3 and np.abs(roots - poly).max() < 1e-9

    def test_unitary_submatrix_roots_in_range(self, rng):
        for _ in range(25):
            u = random_unitary(rng, 9)
            v = u[:5, :2]
            roots = real_roots(lambda_polynomial(gram(v).g))
            assert np.all(roots >= 0) and np.all(roots <= 1 + 1e-9)

    def test_column_permutation_invariance(self, vhat_at, rng):
        v = vhat_at(5).v_hat
        base = real_roots(lambda_polynomial(gram(v).g))[0]
        for _ in range(5):
            perm = rng.permutation(3)
            r = real_roots(lambda_polynomial(gram(v[:, perm]).g))[0]
            assert abs(r - base) < 1e-8


def spectral_gram(rng, eigenvalues):
    """Q diag(eigenvalues) Q^dag for a random unitary Q."""
    q = random_unitary(rng, len(eigenvalues))
    return (q * np.asarray(eigenvalues, dtype=float)) @ q.conj().T


def assert_matches_lapack(grams, factor=8):
    """Kernel eigenvalues ascending and within factor * s * eps * ||G||_2 of LAPACK's."""
    grams = np.asarray(grams)
    got = scale.jacobi_eigenvalues(*gram_parts(grams))
    assert np.all(np.diff(got, axis=-1) >= 0)
    tol = factor * grams.shape[-1] * EPS * np.linalg.norm(grams, 2, axis=(1, 2))
    want = lapack_singular_values(grams) ** 2
    assert np.all(np.abs(np.clip(got, 0.0, None) - want).max(axis=-1) <= tol)
    return got


class TestGramEigenvalues:
    @given(s=st.sampled_from([1, 2, 3, 6]), rank=st.integers(0, 6),
           repeated=st.booleans(), magnitude=st.sampled_from([1.0, 1e-300, 1e-150, 1e150]),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_lapack_oracle(self, s, rank, repeated, magnitude, seed):
        rng = np.random.default_rng(seed)
        x = np.sort(rng.random(s))
        x[:max(s - rank, 0)] = 0.0                # rank-deficient below s
        if repeated and s > 1:
            x[1] = x[0]                           # repeated sigma_min
        v = rng.standard_normal((s + 2, s)) + 1j * rng.standard_normal((s + 2, s))
        grams = np.stack([spectral_gram(rng, x), v.conj().T @ v / (s + 2)]) * magnitude
        got = assert_matches_lapack(grams)
        # each row is computed as if alone
        for i in range(len(grams)):
            assert np.array_equal(scale.jacobi_eigenvalues(*gram_parts(grams[i:i + 1]))[0], got[i])

    def test_zero_gram(self):
        zeros = gram_parts(np.zeros((4, 3, 3), dtype=complex))
        assert np.array_equal(scale.jacobi_eigenvalues(*zeros), np.zeros((4, 3)))

    def test_scalar_gram_triple_root(self):
        got = scale.jacobi_eigenvalues(*gram_parts(0.49 * np.eye(3, dtype=complex)[None]))
        assert np.array_equal(got, np.full((1, 3), 0.49))

    def test_rank_deficient(self, rng):
        v = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
        v = np.column_stack([v, v @ np.array([0.3 - 0.2j, 1.1])])     # third = combination
        got = assert_matches_lapack((v.conj().T @ v)[None])
        assert abs(got[0, 0]) <= 8 * 3 * EPS * np.linalg.norm(v, 2) ** 2

    def test_repeated_sigma_min(self, rng):
        got = assert_matches_lapack(spectral_gram(rng, [0.2, 0.2, 0.9])[None])
        assert np.abs(got[0] - [0.2, 0.2, 0.9]).max() < 1e-15

    def test_entries_near_underflow(self, rng):
        g = spectral_gram(rng, [0.25, 0.5, 1.0])
        got = assert_matches_lapack(np.stack([g, g * 1e-300]))
        assert np.abs(got[1] / 1e-300 - got[0]).max() < 8 * 3 * EPS

    def test_power_of_two_scaling_is_exact(self, rng):
        g = spectral_gram(rng, [0.1, 0.3, 0.8])
        got = scale.jacobi_eigenvalues(*gram_parts(np.stack([g, g * 2.0 ** -900])))
        assert np.array_equal(got[1] * 2.0 ** 900, got[0])

    def test_sweep_cap_raises(self, rng, monkeypatch):
        monkeypatch.setattr(scale, "JACOBI_MAX_SWEEPS", 1)
        with pytest.raises(np.linalg.LinAlgError):
            scale.jacobi_eigenvalues(*gram_parts(spectral_gram(rng, [0.1, 0.3, 0.8])[None]))


def oracle_scan_rows(tm, taus, step):
    """LAPACK roots of the Gram stacks a scan forms, chunk by chunk."""
    return np.concatenate([
        lapack_singular_values(gram_stack(*tm.gram_batch(taus[lo:lo + SCAN_CHUNK], step)))
        for lo in range(0, len(taus), SCAN_CHUNK)])


@pytest.fixture(scope="module")
def sector_expm10(chain10):
    """The N=10, k=2 sector propagator by scipy's expm of the loop-built block, per tau."""
    h = hamiltonian_block_loop(chain10.d, 2)
    return functools.cache(lambda tau: expm_propagator(h, tau))


class TestScan:
    @pytest.mark.parametrize("n_er", [4, 5, 6])
    def test_table_1a_grid_matches_lapack_oracle(self, tmap10, n_er):
        res = scale.scan(tmap10(n_er), 0.0, 20.0, 0.001)
        assert np.abs(res.roots - oracle_scan_rows(tmap10(n_er), res.taus, 0.001)).max() < 1e-14

    @pytest.mark.parametrize("n_s, k", [(4, 2), (3, 3)], ids=["s6", "s1"])
    def test_rows_match_lapack_oracle_other_sector_sizes(self, chain10, n_s, k):
        part = Partition(n_sites=10, n_s=n_s, n_r=n_s, n_er=5)
        tm = TransferMap(chain10, part, k)
        res = scale.scan(tm, 0.0, 5.0, 0.001)
        n_roots = res.roots.shape[1]
        assert n_roots == {2: 6, 3: 1}[k]
        # V_hat is a block of a unitary, so ||G||_2 <= 1; at s=6 a small root
        # magnifies the eigenvalue error 1 / (2 sigma), so compare eigenvalues
        want = oracle_scan_rows(tm, res.taus, 0.001)
        assert np.abs(res.roots ** 2 - want ** 2).max() <= 8 * n_roots * EPS

    @pytest.mark.parametrize("n_er", [4, 5, 6])
    def test_table_1a(self, tmap10, n_er):
        res = scale.scan(tmap10(n_er), 0.0, 20.0, 0.001)
        tau_ref, lam_ref = PAPER_TABLE_1A[n_er]
        assert res.tau0 == pytest.approx(tau_ref, abs=TAU0_TOL)
        assert res.lambda_min == pytest.approx(lam_ref, abs=LAMBDA_TOL)
        assert res.tau0 == pytest.approx(res.tau_argmax + 0.001, abs=1e-9)

    def test_single_point_range(self, tmap10):
        res = scale.scan(tmap10(5), 0.0, 0.0, 0.001)
        assert res.tau0 == 0.0
        assert res.lambda_min < 1e-12

    def test_grid_stops_at_tau_max(self, tmap10):
        # 1.0 is not a multiple of 0.35: the grid ends at 0.7, not at 1.05
        res = scale.scan(tmap10(5), 0.0, 1.0, 0.35)
        assert np.array_equal(res.taus, [0.0, 0.35, 0.7])
        assert res.tau0 <= 1.0
        # (12.6 - 12.4) / 0.001 rounds to 199.9999999999993; 12.6 stays on the grid
        assert len(scale.scan(tmap10(5), 12.4, 12.6, 0.001).taus) == 201

    def test_bell_shape_near_peak(self, tmap10):
        res = scale.scan(tmap10(5), 0.0, 20.0, 0.001)
        mins = res.roots[:, 0]
        i0 = int(np.argmax(mins))
        for dt in (-0.05, 0.05):
            j = i0 + int(round(dt / 0.001))
            assert mins[j] >= 0.9 * mins[i0]

    def test_rows_at_block_and_chunk_edges_match_single_tau(self, tmap10):
        # a Gram call's block is SCAN_CHUNK points and Jacobi takes two calls at a time
        chunk = SCAN_CHUNK
        res = scale.scan(tmap10(5), 10.0, 15.0, 0.001)
        for i in (0, chunk - 1, chunk, 2 * chunk - 1, 2 * chunk, len(res.taus) - 1):
            want = lapack_singular_values(gram(tmap10(5).v_hat(res.taus[i])).g)
            assert np.abs(res.roots[i] - want).max() < 1e-13

    def test_rows_match_expm_oracle(self):
        # N=8, sender sites 1-3, extended receiver sites 5-8; site q is bit q-1
        c = build_couplings(ChainSpec(n_sites=8))
        res = scale.scan(TransferMap(c, Partition(n_sites=8, n_s=3, n_r=3, n_er=4), 2),
                         0.0, 12.0, 0.001)
        h_full = pauli_xx_hamiltonian(c.d)
        pairs = [m for m in range(256) if bin(m).count("1") == 2]
        s_masks = [m for m in pairs if m & ~0b00000111 == 0]
        er_masks = [m for m in pairs if m & ~0b11110000 == 0]
        i0 = int(round(res.tau0 / 0.001))
        for i in (1, i0):
            v = expm_propagator(h_full, res.taus[i])[np.ix_(er_masks, s_masks)]
            want = np.sort(np.linalg.svd(v, compute_uv=False))
            assert np.abs(res.roots[i] - want).max() < 1e-12

    @pytest.mark.parametrize("n_er", [4, 5, 6])
    def test_small_roots_match_sector_expm_absolutely(self, tmap10, part10, sector_expm10, n_er):
        # at tau = 0.001 the smallest root is 1.2e-13 (n_er = 4); a root
        # carries absolute precision, and below 1e-6 its printed digits move
        # with the rounding of the route.  Every grid point to 3, where roots
        # below 1e-6 end (tau = 1.632 at n_er = 4).
        res = scale.scan(tmap10(n_er), 0.0, 20.0, 0.001)
        for i in range(1, 3001):
            v = transfer_block(sector_expm10(res.taus[i]), part10(n_er), 2).v_hat
            want = np.sort(np.linalg.svd(v, compute_uv=False))
            assert np.abs(res.roots[i] - want).max() < 1e-15, res.taus[i]

    @pytest.mark.parametrize("name", TABLE_WINDOWS)
    def test_roots_meet_the_precision_contract_against_expm(self, name):
        # every Table 1a and Table 2 window, N = 10, 20, 30, 40, 42: both ends,
        # a third of the way and the peak
        cfg = RunConfig.from_file(CONFIGS / f"{name}.cfg")
        c, part, k = cfg.couplings(), cfg.partition(), cfg["excitation.k"]
        res = scale.scan(TransferMap(c, part, k), cfg["scan.tau_min"], cfg["scan.tau_max"],
                         cfg["scan.step"])
        h = hamiltonian_block_loop(c.d, k)
        lam_max = np.abs(np.linalg.eigvalsh(h)).max()
        bound = EPS * (CONTRACT_C1 + CONTRACT_C2 * lam_max * np.abs(res.taus).max())
        last = len(res.taus) - 1
        for i in sorted({0, last // 3, int(np.argmax(res.roots[:, 0])), last}):
            v = transfer_block(expm_propagator(h, res.taus[i]), part, k).v_hat
            want = np.sort(np.linalg.svd(v, compute_uv=False))
            assert np.abs(res.roots[i] - want).max() <= bound, res.taus[i]

    def test_step_within_4_ulps_of_the_window_rejected(self):
        # an ulp near 1e17 is 16, so 1e17 + j rounds to repeated grid points
        tm = TransferMap(build_couplings(ChainSpec(n_sites=6)),
                         Partition(n_sites=6, n_s=2, n_r=2, n_er=3), 1)
        for hi, step in ((1.00000000000001e17, 1.0), (1e17 + 640, 64.0)):
            with pytest.raises(ValueError, match="4 ulps"):
                scale.scan(tm, 1e17, hi, step)
        # 5 ulps builds a grid, but a phase there errs by eps max|lambda| 1e17 ~ 22
        with pytest.raises(ValueError, match="errs by up to 22 "):
            scale.scan(tm, 1e17, 1e17 + 800, 80.0)

    def test_empty_range_rejected(self, tmap10):
        with pytest.raises(ValueError):
            scale.scan(tmap10(5), 1.0, 0.0, 0.001)
        with pytest.raises(ValueError):
            scale.scan(tmap10(5), 0.0, 1.0, -0.1)

    def test_scan_roots_match_polynomial_route(self, tmap10):
        # dual route: batched Gram spectra vs determinant polynomial + companion
        res = scale.scan(tmap10(5), 14.0, 14.5, 0.1)
        for tau, row in zip(res.taus, res.roots):
            direct = real_roots(lambda_polynomial(gram(tmap10(5).v_hat(tau)).g))
            assert np.allclose(row, direct, atol=1e-9)

    def test_roots_at_is_the_scan_route(self, tmap10):
        # the scan's kernel on a one-point grid: a one-row scan bit for bit, and
        # within 8 eps of the rows an interpolated block gives
        res = scale.scan(tmap10(5), 14.0, 14.5, 0.1)
        for tau, row in zip(res.taus, res.roots):
            roots = scale.roots_at(tmap10(5), tau)
            assert np.array_equal(roots, scale.scan(tmap10(5), tau, tau, 0.1).roots[0])
            assert np.abs(roots - row).max() <= 8 * EPS

    @pytest.mark.parametrize("tau", [1e17, np.nan])
    def test_roots_at_checks_reach_before_the_kernel(self, tau):
        tm = TransferMap(build_couplings(ChainSpec(n_sites=6)),
                         Partition(n_sites=6, n_s=2, n_r=2, n_er=3), 1)
        calls = []
        tm.gram_batch = lambda *args: calls.append(args)
        with pytest.raises(ValueError, match="errs by up to"):
            scale.roots_at(tm, tau)
        assert calls == []


class TestFeasibility:
    def test_minimum_er_dimension(self):
        f = feasibility(n_er=4, n_s=3, k=2)
        assert f.required_min == 5
        assert f.feasible and f.n_er_k == 6

    def test_infeasible(self):
        f = feasibility(n_er=3, n_s=3, k=2)
        assert not f.feasible and f.n_er_k == 3

    def test_counting_bound_weaker(self):
        for n_s in (2, 3, 4):
            for k in (1, 2):
                f = feasibility(6, n_s, k)
                assert f.required_min > f.counting_bound

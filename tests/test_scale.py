import numpy as np
import pytest

from spinpst import ChainSpec, Partition, build_couplings, scale
from spinpst.dynamics import GRAM_BLOCK

from _oracles import (cubic_from_gram, expm_propagator, feasibility, gram, lambda_polynomial,
                      pauli_xx_hamiltonian, random_unitary, real_roots)

TABLE_1A = {4: (12.493, 0.435), 5: (14.391, 0.597), 6: (14.132, 0.714)}
ROOT_LISTS = {
    4: (0.435, 0.660, 0.828),
    5: (0.597, 0.794, 0.866),
    6: (0.714, 0.888, 0.931),
}


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
    def test_published_root_lists(self, chain10, part10, n_er):
        tau0 = TABLE_1A[n_er][0]
        roots = scale.roots_at(chain10, part10(n_er), 2, tau0)
        assert len(roots) == 3
        for got, want in zip(roots, ROOT_LISTS[n_er]):
            assert got == pytest.approx(want, abs=5e-4)

    @pytest.mark.parametrize("n_er", [4, 5, 6])
    def test_roots_at_match_polynomial_oracle(self, chain10, part10, tmap10, n_er):
        tau0 = TABLE_1A[n_er][0]
        poly = real_roots(lambda_polynomial(gram(tmap10(n_er).v_hat(tau0)).g))
        roots = scale.roots_at(chain10, part10(n_er), 2, tau0)
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


class TestScan:
    @pytest.mark.parametrize("n_er", [4, 5, 6])
    def test_table_1a(self, chain10, part10, n_er):
        res = scale.scan(chain10, part10(n_er), 2, 0.0, 20.0, 0.001)
        tau_ref, lam_ref = TABLE_1A[n_er]
        assert res.tau0 == pytest.approx(tau_ref, abs=1e-9)
        assert res.lambda_min == pytest.approx(lam_ref, abs=5e-4)
        assert res.tau0 == pytest.approx(res.tau_argmax + 0.001, abs=1e-9)

    def test_single_point_range(self, chain10, part10):
        res = scale.scan(chain10, part10(5), 2, 0.0, 0.0, 0.001)
        assert res.tau0 == 0.0
        assert res.lambda_min < 1e-12

    def test_bell_shape_near_peak(self, chain10, part10):
        res = scale.scan(chain10, part10(5), 2, 0.0, 20.0, 0.001)
        mins = res.roots[:, 0]
        i0 = int(np.argmax(mins))
        for dt in (-0.05, 0.05):
            j = i0 + int(round(dt / 0.001))
            assert mins[j] >= 0.9 * mins[i0]

    def test_threaded_scan_matches_serial(self, chain10, part10):
        # 7,001 points: four chunks of up to 2,048 points, each of several phase blocks
        a = scale.scan(chain10, part10(4), 2, 0.0, 7.0, 0.001)
        b = scale.scan(chain10, part10(4), 2, 0.0, 7.0, 0.001, threads=2)
        assert np.array_equal(a.roots, b.roots)

    def test_rows_at_block_and_chunk_edges_match_single_tau(self, chain10, part10, tmap10):
        chunk, b = 2048, GRAM_BLOCK
        res = scale.scan(chain10, part10(5), 2, 10.0, 13.0, 0.001, chunk=chunk)
        for i in (0, b - 1, b, chunk - 1, chunk, len(res.taus) - 1):
            g = gram(tmap10(5).v_hat(res.taus[i])).g
            want = np.sqrt(np.clip(np.linalg.eigvalsh(g), 0.0, None))
            assert np.abs(res.roots[i] - want).max() < 1e-13

    def test_rows_match_expm_oracle(self):
        # N=8, sender sites 1-3, extended receiver sites 5-8; site q is bit q-1
        c = build_couplings(ChainSpec(n_sites=8))
        res = scale.scan(c, Partition(n_sites=8, n_s=3, n_r=3, n_er=4), 2,
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

    def test_empty_range_rejected(self, chain10, part10):
        with pytest.raises(ValueError):
            scale.scan(chain10, part10(5), 2, 1.0, 0.0, 0.001)
        with pytest.raises(ValueError):
            scale.scan(chain10, part10(5), 2, 0.0, 1.0, -0.1)

    def test_scan_roots_match_polynomial_route(self, chain10, part10, tmap10):
        # dual route: batched Gram spectra vs determinant polynomial + companion
        res = scale.scan(chain10, part10(5), 2, 14.0, 14.5, 0.1)
        for tau, row in zip(res.taus, res.roots):
            direct = real_roots(lambda_polynomial(gram(tmap10(5).v_hat(tau)).g))
            assert np.allclose(row, direct, atol=1e-9)

    def test_roots_at_is_the_scan_route(self, chain10, part10):
        res = scale.scan(chain10, part10(5), 2, 14.0, 14.5, 0.1)
        for tau, row in zip(res.taus, res.roots):
            assert np.abs(scale.roots_at(chain10, part10(5), 2, tau) - row).max() < 1e-13


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

import numpy as np
import pytest

from spinpst import basis, chain

from _oracles import (dipole_couplings, excitation_sort_permutation, full_basis,
                      hamiltonian_block_loop, hamiltonian_full, pauli_xx_hamiltonian,
                      restrict_to_sector)


class TestBuildCouplings:
    def test_homogeneous_dipole(self):
        c = chain.build_couplings(chain.ChainSpec(n_sites=10))
        assert c.d[0, 1] == 1.0
        assert c.d[0, 2] == pytest.approx(0.125, abs=0)

    def test_adjusted_42_chain_end_bonds(self):
        spec = chain.ChainSpec(n_sites=42, nn_overrides={1: 0.3005, 2: 0.5311,
                                                         40: 0.5311, 41: 0.3005})
        c = chain.build_couplings(spec)
        assert c.d[0, 1] == pytest.approx(0.3005, rel=1e-12)
        assert c.d[40, 41] == pytest.approx(0.3005, rel=1e-12)
        assert c.d[1, 2] == pytest.approx(0.5311, rel=1e-12)
        assert c.d[39, 40] == pytest.approx(0.5311, rel=1e-12)
        inner = [c.d[i, i + 1] for i in range(2, 39)]
        assert np.allclose(inner, 1.0)

    def test_explicit_passthrough(self):
        # an arbitrary coupling matrix is a CouplingMatrix, its array kept as given
        for m in (np.array([[0.0, 0.7], [0.7, 0.0]]), 2.0 * (np.ones((4, 4)) - np.eye(4))):
            assert np.array_equal(chain.CouplingMatrix(m).d, m)

    def test_positions_geometry(self):
        c = dipole_couplings((0.0, 1.0, 3.0))
        assert c.d[1, 2] == pytest.approx(1.0 / 8.0)
        assert c.d[0, 2] == pytest.approx(1.0 / 27.0)
        # the test chains' helper builds the package's dipole matrices bit for bit
        overrides = {1: 0.3005, 2: 0.5311, 6: 0.8}
        gaps = np.ones(8)
        gaps[[0, 1, 5]] = [d ** (-1.0 / 3.0) for d in overrides.values()]
        for spec, pos in ((chain.ChainSpec(n_sites=9), np.arange(9.0)),
                          (chain.ChainSpec(n_sites=9, nn_overrides=overrides),
                           np.concatenate([[0.0], np.cumsum(gaps)]))):
            assert np.array_equal(chain.build_couplings(spec).d, dipole_couplings(pos).d)

    def test_dipole_monotone_in_distance(self):
        c = chain.build_couplings(chain.ChainSpec(n_sites=9))
        row = c.d[0, 1:]
        assert np.all(np.diff(row) < 0)

    def test_invalid_specs(self):
        with pytest.raises(chain.InvalidSpecError):
            chain.ChainSpec(n_sites=1)
        # a gap of 1e60**(-1/3) vanishes beside position 8: two sites coincide
        with pytest.raises(chain.InvalidSpecError, match="coincident"):
            chain.build_couplings(chain.ChainSpec(n_sites=12, nn_overrides={9: 1e60}))
        with pytest.raises(chain.InvalidSpecError):
            chain.ChainSpec(n_sites=3, nn_overrides={1: -0.2})
        near = np.array([[0.0, 1.0], [1.0 + 1e-12, 0.0]])   # allclose, not exactly symmetric
        for m in (np.array([[0.0, 1.0], [0.5, 0.0]]), near, np.ones((2, 3)),
                  np.array([[1.0, 1.0], [1.0, 0.0]]), np.array([[0.0, -1.0], [-1.0, 0.0]])):
            with pytest.raises(chain.InvalidSpecError):
                chain.CouplingMatrix(m)


class TestHamiltonianBlock:
    def test_n2_k1(self):
        c = chain.build_couplings(chain.ChainSpec(n_sites=2))
        h = chain.hamiltonian_block(c, 1)
        assert np.array_equal(h, np.array([[0, 0.5], [0.5, 0]], dtype=complex))

    def test_degenerate_sectors_are_scalar_zero(self):
        c = chain.build_couplings(chain.ChainSpec(n_sites=5))
        for k in (0, 5):
            h = chain.hamiltonian_block(c, k)
            assert h.shape == (1, 1) and h[0, 0] == 0

    def test_exact_hermiticity(self):
        c = chain.build_couplings(chain.ChainSpec(n_sites=7))
        h = chain.hamiltonian_block(c, 3)
        assert np.array_equal(h, h.conj().T)

    def test_against_pauli_oracle_n2(self):
        c = chain.build_couplings(chain.ChainSpec(n_sites=2))
        full = pauli_xx_hamiltonian(c.d)
        sector = restrict_to_sector(full, basis.k_states(2, 1).states)
        assert np.abs(chain.hamiltonian_block(c, 1) - sector).max() < 1e-15

    def test_against_pauli_oracle_n8_random_dipole(self, rng):
        gaps = rng.uniform(0.7, 1.5, 7)
        pos = np.concatenate([[0.0], np.cumsum(gaps)])
        c = dipole_couplings(pos)
        full = pauli_xx_hamiltonian(c.d)
        for k in range(9):
            sector = restrict_to_sector(full, basis.k_states(8, k).states)
            assert np.abs(chain.hamiltonian_block(c, k) - sector).max() < 1e-12

    @pytest.mark.parametrize("n", range(3, 13))
    def test_same_bytes_as_the_loop(self, n):
        rng = np.random.default_rng(n)
        m = np.triu(rng.uniform(0.0, 1.0, (n, n)), 1)
        for c in (chain.build_couplings(chain.ChainSpec(n_sites=n)),
                  chain.CouplingMatrix(m + m.T)):
            for k in range(n + 1):
                assert np.array_equal(chain.hamiltonian_block(c, k),
                                      hamiltonian_block_loop(c.d, k))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_every_hop_is_one_distinct_entry(self, n):
        c = chain.build_couplings(chain.ChainSpec(n_sites=n))
        for k in range(n + 1):
            rows, cols, values = chain.sector_hops(c, k)
            assert len(rows) == basis.binom(n, k) * k * (n - k)
            assert len(set(zip(rows.tolist(), cols.tolist()))) == len(rows)

    def test_same_bytes_as_the_loop_n42(self):
        spec = chain.ChainSpec(n_sites=42, nn_overrides={1: 0.3005, 2: 0.5311,
                                                         40: 0.5311, 41: 0.3005})
        c = chain.build_couplings(spec)
        assert np.array_equal(chain.hamiltonian_block(c, 2), hamiltonian_block_loop(c.d, 2))


class TestHamiltonianFull:
    def test_n2_block_diagonal(self):
        c = chain.build_couplings(chain.ChainSpec(n_sites=2))
        h = hamiltonian_full(c)
        want = np.zeros((4, 4), dtype=complex)
        want[1:3, 1:3] = [[0, 0.5], [0.5, 0]]
        assert np.array_equal(h, want)

    def test_matches_permuted_pauli_oracle(self, rng):
        gaps = rng.uniform(0.8, 1.3, 7)
        pos = np.concatenate([[0.0], np.cumsum(gaps)])
        c = dipole_couplings(pos)
        perm = excitation_sort_permutation(8)
        full = pauli_xx_hamiltonian(c.d)[np.ix_(perm, perm)]
        assert np.abs(hamiltonian_full(c) - full).max() < 1e-12

    def test_commutes_with_total_excitation(self):
        c = chain.build_couplings(chain.ChainSpec(n_sites=4))
        h = hamiltonian_full(c)
        counts = np.array([bin(m).count("1") for m in full_basis(4)], dtype=float)
        nz = np.diag(counts)
        assert np.abs(h @ nz - nz @ h).max() == 0.0

    def test_guard(self):
        c = chain.CouplingMatrix(d=np.zeros((15, 15)))
        with pytest.raises(ValueError):
            hamiltonian_full(c)


class TestPartition:
    def test_layout(self):
        p = chain.Partition(n_sites=10, n_s=3, n_r=3, n_er=5)
        assert p.sender_sites == (1, 2, 3)
        assert p.receiver_sites == (8, 9, 10)
        assert p.er_sites == (6, 7, 8, 9, 10)
        assert p.a_sites == (6, 7)
        assert p.tl_sites == (4, 5, 6, 7)

    def test_overlap_rejected(self):
        with pytest.raises(chain.InvalidSpecError):
            chain.Partition(n_sites=6, n_s=3, n_r=3, n_er=4)

    def test_unequal_sender_receiver_rejected(self):
        with pytest.raises(chain.InvalidSpecError):
            chain.Partition(n_sites=10, n_s=3, n_r=2, n_er=5)

    def test_s0_r0_inside_tl(self):
        p = chain.Partition(n_sites=10, n_s=3, n_r=3, n_er=5,
                            s0_sites=(4,), r0_sites=(7,))
        assert p.s0_sites == (4,)
        with pytest.raises(chain.InvalidSpecError):
            chain.Partition(n_sites=10, n_s=3, n_r=3, n_er=5, s0_sites=(2,))
        with pytest.raises(chain.InvalidSpecError):
            chain.Partition(n_sites=10, n_s=3, n_r=3, n_er=5,
                            s0_sites=(4,), r0_sites=(4,))

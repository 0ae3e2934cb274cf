import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinpst import basis

from _oracles import full_basis


def sites(mask, n):
    return tuple(q + 1 for q in range(n) if (mask >> q) & 1)


class TestKStates:
    def test_3_choose_2_ordering(self):
        b = basis.k_states(3, 2)
        assert [sites(m, 3) for m in b.states] == [(1, 2), (1, 3), (2, 3)]
        assert len(b) == 3

    def test_zero_excitations(self):
        b = basis.k_states(5, 0)
        assert b.states.dtype == np.int64
        assert b.states.tolist() == [0]

    def test_6_choose_2_count(self):
        assert len(basis.k_states(6, 2)) == 15

    def test_lexicographic_by_positions(self):
        b = basis.k_states(5, 3)
        tuples = [sites(m, 5) for m in b.states]
        assert tuples == sorted(tuples)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            basis.k_states(4, 5)
        with pytest.raises(ValueError):
            basis.k_states(4, -1)
        with pytest.raises(ValueError, match="n <= 63"):
            basis.k_states(64, 1)

    @given(st.integers(2, 12), st.data())
    @settings(max_examples=40, deadline=None)
    def test_rank_unrank_round_trip(self, n, data):
        k = data.draw(st.integers(0, n))
        b = basis.k_states(n, k)
        assert np.array_equal(b.ordinals(b.states), np.arange(len(b)))
        for i, m in enumerate(b.states.tolist()):
            assert b.ordinals(m) == i
        perm = np.random.default_rng(n).permutation(len(b))
        assert np.array_equal(b.ordinals(b.states[perm].reshape(-1, 1)), perm.reshape(-1, 1))

    def test_index_of_rejects_foreign_mask(self):
        b = basis.k_states(4, 2)
        with pytest.raises(KeyError):
            b.ordinals(0b0001)
        for foreign in (0b0001, 0b0111, 0b10011, 0):
            with pytest.raises(KeyError, match=f"{foreign:#x}"):
                b.ordinals([0b0011, foreign, 0b1100])


class TestFullBasis:
    def test_n2(self):
        assert full_basis(2) == (0b00, 0b01, 0b10, 0b11)

    def test_n3_order(self):
        fb = full_basis(3)
        assert len(fb) == 8
        assert fb[0] == 0 and fb[-1] == 0b111
        counts = [bin(m).count("1") for m in fb]
        assert counts == sorted(counts)

    def test_two_excitation_block_position_n4(self):
        fb = full_basis(4)
        two = [i for i, m in enumerate(fb) if bin(m).count("1") == 2]
        assert two == list(range(5, 11))

    def test_guard(self):
        with pytest.raises(ValueError):
            full_basis(15)

    def test_sector_sizes_sum(self):
        for n in range(1, 21):
            assert sum(basis.binom(n, k) for k in range(n + 1)) == 2 ** n


class TestBinom:
    def test_values(self):
        assert basis.binom(10, 2) == 45
        assert basis.binom(7, 0) == 1
        assert basis.binom(42, 2) == 861

    def test_range_errors(self):
        with pytest.raises(ValueError):
            basis.binom(3, 4)


class TestEmbedding:
    def test_identity_placement(self):
        ords = basis.embed_subsystem((1, 2, 3), 10, 2)
        chain = basis.k_states(10, 2)
        assert ords.tolist() == chain.ordinals([0b11, 0b101, 0b110]).tolist() == [0, 1, 9]

    def test_offset_shift(self):
        ords = basis.embed_subsystem(tuple(range(6, 11)), 10, 2)
        masks = basis.k_states(10, 2).states[ords]
        # first ER-local pair (1,2) lands on chain sites (6,7)
        assert masks[0] == (1 << 5) | (1 << 6)
        assert masks.tolist() == (basis.k_states(5, 2).states << 5).tolist()

    def test_consistent_with_scan(self):
        ords = basis.embed_subsystem((2, 5, 7, 8), 10, 2)
        masks = basis.k_states(10, 2).states[ords]
        assert [sites(m, 10) for m in masks] == [
            (2, 5), (2, 7), (2, 8), (5, 7), (5, 8), (7, 8)]

    def test_excitation_count_preserved(self):
        ords = basis.embed_subsystem((3, 4, 9), 11, 2)
        assert all(bin(m).count("1") == 2 for m in basis.k_states(11, 2).states[ords].tolist())

    def test_injective(self):
        ords = basis.embed_subsystem((1, 4, 6, 9), 12, 3)
        assert len(set(ords.tolist())) == len(ords) == 4

    def test_site_out_of_range(self):
        with pytest.raises(ValueError):
            basis.embed_subsystem((0, 1), 5, 1)
        with pytest.raises(ValueError):
            basis.embed_subsystem((4, 6), 5, 1)

    def test_too_small_for_k(self):
        with pytest.raises(ValueError):
            basis.embed_subsystem((1, 2), 5, 3)

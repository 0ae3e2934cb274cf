import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinpst
from spinpst import (ChainSpec, Partition, RestoreProblem, TransferMap,
                     build_couplings, fit_circuit, protocol, solve_general)
from spinpst.basis import embed_subsystem, k_states
from spinpst.paper import N42_OVERRIDES, PAPER_TABLE_1A
from spinpst.protocol import amplification_runs
from spinpst.restore import family_space

from _oracles import (exact_value_controlled_pattern_flips, expm_propagator,
                      full_space_protocol, parity_flip_matches,
                      pattern_controlled_value_flips, pauli_xx_hamiltonian,
                      value_controlled_pattern_flips, value_mask, wer_full_from_solution)


def random_state(rng, dim):
    s = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return s / np.linalg.norm(s)


@pytest.fixture(scope="module")
def chain8():
    return build_couplings(ChainSpec(n_sites=8))


@pytest.fixture(scope="module")
def part8():
    return Partition(n_sites=8, n_s=3, n_r=3, n_er=4)


@pytest.fixture(scope="module")
def tm8(chain8, part8):
    return TransferMap(chain8, part8, 2)


@pytest.fixture(scope="module")
def solution8(tm8):
    return solve_general(RestoreProblem(v_hat=tm8.v_hat(9.0),
                                        mode="preserving-general",
                                        seed=13))


class TestKExcitationProtocol:
    def test_basis_vector_exact(self, tmap10, solution5):
        rep = protocol.run("k_excitation", tmap10(5).partition, np.array([1.0, 0, 0]),
                           solution5)
        assert rep.fidelity == pytest.approx(1.0, abs=1e-10)
        out = rep.output_amplitudes
        assert abs(out[0]) == pytest.approx(1.0, abs=1e-10)
        assert np.abs(out[1:]).max() < 1e-8

    def test_fidelity_and_probability(self, tmap10, solution5, rng):
        for _ in range(10):
            s = random_state(rng, 3)
            rep = protocol.run("k_excitation", tmap10(5).partition, s, solution5)
            assert rep.fidelity >= 1 - 1e-8
            assert rep.success_probability == pytest.approx(
                abs(solution5.lam) ** 2, abs=1e-8)
            assert rep.success_probability == pytest.approx(0.356, abs=1e-3)

    def test_output_phase_uniform(self, tmap10, solution5, rng):
        s = random_state(rng, 3)
        rep = protocol.run("k_excitation", tmap10(5).partition, s, solution5)
        ratios = rep.output_amplitudes / s
        phases = np.angle(ratios / ratios[0])
        assert np.abs(phases).max() < 1e-8

    def test_identity_wer_gives_vhat_columns(self, chain8, part8, tm8, rng):
        # with W_ER = identity and no post-selection the receiver block of the
        # evolved state equals V-hat @ s; cross-check against a full-space
        # Kronecker/expm oracle
        from spinpst.dynamics import propagator, sector_eigensystem
        s = random_state(rng, 3)
        sender = embed_subsystem(part8.sender_sites, 8, 2)
        cb = k_states(8, 2)
        state = np.zeros(len(cb), dtype=complex)
        state[sender] = s
        eig = sector_eigensystem(chain8, 2)
        evolved = propagator(eig, 5.0) @ state

        h_full = pauli_xx_hamiltonian(chain8.d)
        full0 = np.zeros(256, dtype=complex)
        full0[cb.states[sender]] = s
        full_t = expm_propagator(h_full, 5.0) @ full0

        vs = tm8.v_hat(5.0).v_hat @ s
        er_masks = k_states(4, 2).states << 4
        for i, mask in enumerate(er_masks):
            assert full_t[mask] == pytest.approx(vs[i], abs=1e-10)
            assert evolved[cb.ordinals(mask)] == pytest.approx(vs[i], abs=1e-10)

    def test_sector_equals_full_space_pipeline(self, chain8, tm8, solution8, rng):
        # the whole fixed-k pipeline agrees amplitude-wise with a brute-force
        # full-space simulation at N=8
        s = random_state(rng, 3)
        rep = protocol.run("k_excitation", tm8.partition, s, solution8)

        h_full = pauli_xx_hamiltonian(chain8.d)
        full = np.zeros(256, dtype=complex)
        for j, mask in enumerate([0b011, 0b101, 0b110]):
            full[mask] = s[j]
        full = expm_propagator(h_full, 9.0) @ full
        w_er = wer_full_from_solution(solution8)
        full = (np.kron(w_er, np.eye(16)) @ full)
        recv = [m << 5 for m in k_states(3, 2).states]
        prob = sum(abs(full[m]) ** 2 for m in recv)
        assert prob == pytest.approx(rep.success_probability, abs=1e-10)
        out = np.array([full[m] for m in recv]) / math.sqrt(prob)
        assert np.abs(out - rep.output_amplitudes).max() < 1e-10

    @pytest.mark.parametrize("variant", ["k_excitation", "global", "arbitrary"])
    def test_rejects_nonpreserving_solution(self, variant, tmap10, setup10,
                                            solution5_nonpreserving):
        # the encoded variant runs on the map with S0 and R0, so only the
        # solution family is wrong
        tm = setup10[0] if variant == "arbitrary" else tmap10(5)
        s = np.ones(2 if variant == "arbitrary" else 3)
        with pytest.raises(ValueError, match=f"the {variant} protocol needs a preserving"):
            protocol.run(variant, tm.partition, s, solution5_nonpreserving)

    @pytest.mark.parametrize("make, match", [
        # an n_er=4 solution, run on the n_er=5 partition
        (lambda vhat_at, sol: solve_general(RestoreProblem(v_hat=vhat_at(4, 14.391),
                                                           mode="preserving-general")),
         r"the partition \(n_sites, n_s, n_er\) = \(10, 3, 5\) is not the solution's "
         r"\(10, 3, 4\)"),
        (lambda vhat_at, sol: replace(sol, restart_records=()), "did not converge"),
    ], ids=["n_er-4-solution", "no-converged-restart"])
    def test_rejects_foreign_or_unconverged_solution(self, tmap10, vhat_at, solution5,
                                                     make, match):
        with pytest.raises(ValueError, match=match):
            protocol.run("k_excitation", tmap10(5).partition, np.array([1.0, 0, 0]),
                         make(vhat_at, solution5))

    def test_rejects_unknown_variant(self, tmap10, solution5):
        assert spinpst.run_protocol is protocol.run
        with pytest.raises(ValueError, match="unknown protocol variant 'bogus'"):
            protocol.run("bogus", tmap10(5).partition, np.array([1.0, 0, 0]), solution5)


class TestGlobalProtocol:
    def test_agrees_with_sector_variant(self, tm8, solution8, rng):
        s = random_state(rng, 3)
        rep_k = protocol.run("k_excitation", tm8.partition, s, solution8)
        rep_g = protocol.run("global", tm8.partition, s, solution8)
        assert rep_g.success_probability == pytest.approx(
            rep_k.success_probability, abs=1e-10)
        assert np.abs(rep_g.output_amplitudes - rep_k.output_amplitudes).max() < 1e-10

    def test_rejects_long_input(self, tm8, solution8):
        with pytest.raises(ValueError, match="expected 3 input amplitudes"):
            protocol.run("global", tm8.partition, np.ones(4), solution8)


@pytest.fixture(scope="module")
def setup10(chain10):
    part = Partition(n_sites=10, n_s=3, n_r=3, n_er=5,
                     s0_sites=(4,), r0_sites=(7,))
    tm = TransferMap(chain10, part, 2)
    sol = solve_general(RestoreProblem(v_hat=tm.v_hat(14.391),
                                       mode="preserving-general",
                                       seed=33))
    return tm, sol


@pytest.fixture(scope="module")
def circuit_np4(chain10):
    part = Partition(n_sites=10, n_s=3, n_r=3, n_er=4)
    tm = TransferMap(chain10, part, 2)
    return tm, fit_circuit(RestoreProblem(v_hat=tm.v_hat(12.493),
                                            mode="circuit-nonpreserving",
                                            q_layers=2, n_extra_zero_rows=0,
                                            seed=77, restarts=30))


class TestArbitraryProtocol:
    def test_random_qubit_through_chain(self, setup10, rng):
        tm, sol = setup10
        psi = random_state(rng, 2)
        rep = protocol.run("arbitrary", tm.partition, psi, sol)
        assert rep.fidelity >= 1 - 1e-8
        assert rep.success_probability == pytest.approx(abs(sol.lam) ** 2,
                                                        abs=1e-6)

    def test_ground_in_ground_out(self, setup10):
        tm, sol = setup10
        rep = protocol.run("arbitrary", tm.partition, np.array([1.0, 0.0]), sol)
        assert rep.fidelity >= 1 - 1e-8
        assert abs(rep.output_amplitudes[0]) == pytest.approx(1.0, abs=1e-8)

    def test_dimension_bound(self, chain10, solution5):
        part = Partition(n_sites=10, n_s=3, n_r=3, n_er=5,
                         s0_sites=(4, 5), r0_sites=(6, 7))
        with pytest.raises(ValueError, match="exceed"):
            protocol.run("arbitrary", part, np.ones(4) / 2.0, solution5)

    def test_needs_s0_r0(self, tmap10, solution5):
        with pytest.raises(ValueError, match="S0"):
            protocol.run("arbitrary", tmap10(5).partition, np.array([1.0, 0.0]), solution5)

    def test_matches_sector_pipeline_composition(self, setup10, rng):
        # oracle: encoding maps |j> to sender pattern chi_j, so the encoded
        # run must reproduce the fixed-k protocol on s = (psi_0, psi_1, 0)
        tm, sol = setup10
        psi = random_state(rng, 2)
        rep_arb = protocol.run("arbitrary", tm.partition, psi, sol)
        s = np.array([psi[0], psi[1], 0.0])
        rep_k = protocol.run("k_excitation", tm.partition, s, sol)
        assert rep_arb.success_probability == pytest.approx(
            rep_k.success_probability, abs=1e-10)
        assert np.abs(rep_arb.output_amplitudes -
                      rep_k.output_amplitudes[:2]).max() < 1e-9


class TestNonpreservingProtocol:
    def test_table_value(self, tmap10, solution5_nonpreserving, rng):
        s = random_state(rng, 3)
        rep = protocol.run("nonpreserving", tmap10(5).partition, s, solution5_nonpreserving)
        assert rep.fidelity >= 1 - 1e-8
        assert rep.success_probability == pytest.approx(0.356, abs=1e-3)

    def test_flag_branch_fully_on_marker_patterns(self, tmap10, solution5_nonpreserving,
                                                  rng):
        # the B=1 branch is supported entirely on D=1 receiver patterns, so
        # the reported output amplitudes carry the whole post-selected norm
        s = random_state(rng, 3)
        rep = protocol.run("nonpreserving", tmap10(5).partition, s, solution5_nonpreserving)
        assert np.linalg.norm(rep.output_amplitudes) == pytest.approx(1.0,
                                                                      abs=1e-8)

    def test_rejects_preserving_solution(self, tmap10, solution5, rng):
        with pytest.raises(ValueError, match="non-preserving"):
            protocol.run("nonpreserving", tmap10(5).partition, random_state(rng, 3),
                         solution5)

    def test_circuit_solution_drives_pipeline(self, circuit_np4, rng):
        # a fitted sector-mixing circuit carries its own (smaller) lambda;
        # the protocol still post-selects a perfect copy at |lambda|**2
        tm, sol = circuit_np4
        s = random_state(rng, 3)
        rep = protocol.run("nonpreserving", tm.partition, s, sol)
        assert rep.fidelity >= 1 - 1e-8
        assert rep.success_probability == pytest.approx(abs(sol.lam) ** 2,
                                                        abs=1e-8)


@pytest.mark.parametrize("case", ["k_excitation", "arbitrary", "nonpreserving",
                                  "circuit-nonpreserving", "global"])
def test_runners_match_full_space_oracle(case, chain10, tmap10, solution5,
                                         solution5_nonpreserving, setup10,
                                         circuit_np4, rng):
    # every k-sector runner equals the gate-level 2**N composition at N=10
    tm, w, tau0 = {
        "k_excitation": (tmap10(5), solution5, 14.391),
        "arbitrary": (*setup10, 14.391),
        "nonpreserving": (tmap10(5), solution5_nonpreserving, 14.391),
        "circuit-nonpreserving": (*circuit_np4, 12.493),
        "global": (tmap10(5), solution5, 14.391),
    }[case]
    variant = "nonpreserving" if case == "circuit-nonpreserving" else case
    s = random_state(rng, 2 if variant == "arbitrary" else 3)
    rep = protocol.run(variant, tm.partition, s, w)
    # the report's k and tau0 are the solution's block's
    assert (rep.k, rep.tau0) == (w.problem.v_hat.k, w.problem.v_hat.tau) == (2, tau0)
    prob, out = full_space_protocol(variant, chain10, tm.partition, 2, s, w, tau0)
    assert abs(rep.success_probability - prob) <= 1e-12
    assert np.abs(rep.output_amplitudes - out).max() <= 1e-12
    assert rep.fidelity >= 1 - 1e-8


@pytest.fixture(scope="module")
def tmaps42():
    """The N=42 chain's map, and its map with the encoded protocol's S0 and R0."""
    couplings = build_couplings(ChainSpec(n_sites=42, nn_overrides=N42_OVERRIDES))
    return {encoded: TransferMap(couplings, Partition(n_sites=42, n_s=3, n_r=3, n_er=5,
                                                      s0_sites=s0, r0_sites=r0), 2)
            for encoded, s0, r0 in ((False, (), ()), (True, (4,), (38,)))}


@pytest.mark.parametrize("variant", protocol.VARIANTS)
def test_n42_distance_reading(variant, tmaps42, rng):
    # Table 2's N=42 chain at tau0 = 57.267: every variant runs in the k-sector
    # and post-selects a perfect copy with probability sigma_min(V_hat)**2
    tm = tmaps42[variant == "arbitrary"]
    tau0 = 57.267
    v = tm.v_hat(tau0)
    sigma_min = np.linalg.svd(v.v_hat, compute_uv=False).min()
    assert sigma_min == pytest.approx(0.467, abs=5e-3)
    mode = "nonpreserving-general" if variant == "nonpreserving" else "preserving-general"
    sol = solve_general(RestoreProblem(v_hat=v, mode=mode, seed=0))
    dim = 2 if variant == "arbitrary" else 3
    rep = protocol.run(variant, tm.partition, random_state(rng, dim), sol)
    assert rep.fidelity >= 1 - 1e-8
    assert rep.success_probability == pytest.approx(sigma_min ** 2, abs=1e-6)


def branch_map(solution, dim):
    """M = (W_ER b)[receiver rows, :], read from the solution alone, cut to the
    ``dim`` inputs a variant uses: the post-selected branch of input x is M x."""
    b, recv, _ = family_space(solution.problem.mode, solution.problem.v_hat)
    return (solution.completed_unitary @ b)[recv[:dim], :dim]


def certified_deviation(solution, dim):
    """delta = ||M - lambda I||_2 / |lambda|.  Every unit input then has fidelity at
    least (1 - delta) / (1 + delta) and success probability in |lambda|^2 (1 +- delta)^2."""
    m = branch_map(solution, dim)
    return np.linalg.norm(m - solution.lam * np.eye(dim), 2) / abs(solution.lam)


def assert_runs_within_certificate(run, dim, solution, delta, rng, n=200):
    """``run(s)`` gives the fidelity and the success probability of a unit input s."""
    # M and each run are rounded apart, so a sample may pass a bound by a few eps
    slack = 4 * np.finfo(float).eps
    lam2 = abs(solution.lam) ** 2
    for _ in range(n):
        fidelity, prob = run(random_state(rng, dim))
        assert fidelity >= (1 - delta) / (1 + delta) - slack
        assert lam2 * (1 - delta) ** 2 - slack <= prob <= lam2 * (1 + delta) ** 2 + slack


def protocol_runs(variant, partition, solution):
    def run(s):
        rep = protocol.run(variant, partition, s, solution)
        return rep.fidelity, rep.success_probability
    return run


class TestCertificate:
    """ROADMAP item 7: one small matrix M certifies a run over the whole input sphere."""

    @pytest.mark.parametrize("n_er", sorted(PAPER_TABLE_1A))
    @pytest.mark.parametrize("variant", ["k_excitation", "arbitrary", "global",
                                         "nonpreserving"])
    def test_general_solutions_at_the_table_1a_tau0(self, chain10, variant, n_er, rng):
        registers = dict(s0_sites=(4,), r0_sites=(7,)) if variant == "arbitrary" else {}
        part = Partition(n_sites=10, n_s=3, n_r=3, n_er=n_er, **registers)
        mode = "nonpreserving-general" if variant == "nonpreserving" else "preserving-general"
        v_hat = TransferMap(chain10, part, 2).v_hat(PAPER_TABLE_1A[n_er][0])
        sol = solve_general(RestoreProblem(v_hat=v_hat, mode=mode, seed=n_er))
        dim = 2 if variant == "arbitrary" else 3
        delta = certified_deviation(sol, dim)
        assert delta <= 1e-12            # measured at most 9.8e-16
        assert_runs_within_certificate(protocol_runs(variant, part, sol), dim, sol, delta, rng)

    @pytest.mark.parametrize("variant", protocol.VARIANTS)
    def test_full_space_runs_within_the_certificate(self, variant, rng):
        # M comes from the k-sector route; the bound holds for the gate-level
        # 2**N composition as well (N=6, k=1, the scanned tau0 of 0..8)
        couplings = build_couplings(ChainSpec(n_sites=6))
        part = Partition(n_sites=6, n_s=2, n_r=2, n_er=3, s0_sites=(3,), r0_sites=(4,))
        tau0 = 7.56
        mode = "nonpreserving-general" if variant == "nonpreserving" else "preserving-general"
        sol = solve_general(RestoreProblem(v_hat=TransferMap(couplings, part, 1).v_hat(tau0),
                                           mode=mode, seed=0))
        assert sol.converged
        delta = certified_deviation(sol, 2)
        assert delta <= 1e-12            # measured at most 3.2e-16

        def run(s):
            prob, out = full_space_protocol(variant, couplings, part, 1, s, sol, tau0)
            return abs(np.vdot(s, out)), prob
        assert_runs_within_certificate(run, 2, sol, delta, rng, n=1000)

    @pytest.mark.parametrize("mode", ["circuit-preserving", "circuit-nonpreserving"])
    def test_circuit_solutions_within_the_residual_bound(self, mode, circuit_np4, chain10,
                                                         rng):
        # each entry of M - lambda I off the lambda slot is a restoring residual, whose
        # real and imaginary parts the fit bounds by `residual`: the Frobenius norm gives
        # delta <= sqrt(2 (s^2 - 1)) residual / |lambda|, s = N^(S)_k = 3
        if mode == "circuit-nonpreserving":
            tm, sol = circuit_np4
        else:
            tm = TransferMap(chain10, Partition(n_sites=10, n_s=3, n_r=3, n_er=4), 2)
            sol = fit_circuit(RestoreProblem(v_hat=tm.v_hat(12.493), mode=mode, q_layers=3,
                                             n_extra_zero_rows=0, restarts=1, seed=5))
        delta = certified_deviation(sol, 3)
        assert delta <= math.sqrt(2 * (3 ** 2 - 1)) * sol.residual / abs(sol.lam)
        variant = "nonpreserving" if mode == "circuit-nonpreserving" else "k_excitation"
        assert_runs_within_certificate(protocol_runs(variant, tm.partition, sol), 3, sol,
                                       delta, rng)


def _perm_matrix(perm):
    m = np.zeros((len(perm), len(perm)))
    m[perm, np.arange(len(perm))] = 1.0
    return m


def _controlled_op(n, control_projector_diag, xor_mask):
    """Dense P (x) flip + (I - P) (x) I for a diagonal control projector."""
    dim = 2 ** n
    op = np.zeros((dim, dim))
    for m in range(dim):
        op[m ^ xor_mask if control_projector_diag[m] else m, m] = 1.0
    return op


class TestControlledCascades:
    """Index-map cascades equal their dense controlled-operator products."""

    # 6-site chain: S = {1,2}, TL = {3,4}, R = {5,6}, S0 = {3}, R0 = {4}, k=1
    N = 6
    S0 = (3,)
    R0 = (4,)
    S_PATTERNS = [0b000001, 0b000010]        # chi_0 = site 1, chi_1 = site 2
    R_PATTERNS = [0b010000, 0b100000]        # chi_0 = site 5, chi_1 = site 6

    def test_value_controlled_pattern_flips(self):
        perm = value_controlled_pattern_flips(self.N, self.S0, self.S_PATTERNS)
        dense = np.eye(2 ** self.N)
        for j, pat in enumerate(self.S_PATTERNS):
            diag = [(m >> 2) & 1 == j for m in range(2 ** self.N)]
            dense = _controlled_op(self.N, diag, pat) @ dense
        assert np.array_equal(_perm_matrix(perm), dense)

    def test_pattern_controlled_value_flips(self):
        perm = pattern_controlled_value_flips(self.N, self.S_PATTERNS, self.S0)
        dense = np.eye(2 ** self.N)
        for j, pat in enumerate(self.S_PATTERNS):
            diag = [(m & pat) == pat for m in range(2 ** self.N)]
            dense = _controlled_op(self.N, diag, value_mask(j, self.S0)) @ dense
        assert np.array_equal(_perm_matrix(perm), dense)

    def test_exact_value_controlled_pattern_flips(self):
        perm = exact_value_controlled_pattern_flips(self.N, self.R0,
                                                    self.R_PATTERNS)
        dense = np.eye(2 ** self.N)
        for j, pat in enumerate(self.R_PATTERNS):
            diag = [((m >> 3) & 1) == j for m in range(2 ** self.N)]
            dense = _controlled_op(self.N, diag, pat) @ dense
        assert np.array_equal(_perm_matrix(perm), dense)

    def test_cascades_are_unitary_permutations(self):
        for perm in (
            value_controlled_pattern_flips(self.N, self.S0, self.S_PATTERNS),
            pattern_controlled_value_flips(self.N, self.S_PATTERNS, self.S0),
            exact_value_controlled_pattern_flips(self.N, self.R0, self.R_PATTERNS),
        ):
            m = _perm_matrix(perm)
            assert np.array_equal(m @ m.T, np.eye(len(perm)))


class TestLabelOperator:
    def test_partial_projector_matches_full_pattern_in_sector(self):
        # k-qubit subset controls act like exact-pattern projectors on the
        # k-sector: verified against full patterns at N = 8, k = 2
        n, k = 8, 2
        part = Partition(n_sites=8, n_s=3, n_r=3, n_er=4)
        r_masks = [sum(1 << (q - 1) for q in (6, 7, 8) if (m >> (q - 6)) & 1)
                   for m in k_states(3, 2).states]
        sector = k_states(n, k).states
        subset = parity_flip_matches(r_masks, sector)
        exact = np.isin(sector, r_masks)
        assert np.array_equal(subset, exact)

    def test_parity_product_is_unitary_off_sector(self):
        # overlapping subset controls flip twice on doubly-matching states;
        # the composite equals the product of controlled-X matrices
        n = 4
        masks = [0b0011, 0b0101, 0b0110]
        flips = parity_flip_matches(masks, n)
        dense = np.eye(2 ** (n + 1))
        for pat in masks:
            diag = [(m & pat) == pat for m in range(2 ** n)]
            op = np.zeros((2 ** (n + 1),) * 2)
            for m in range(2 ** n):
                for b in (0, 1):
                    col = m | (b << n)
                    row = m | ((b ^ diag[m]) << n)
                    op[row, col] = 1.0
            dense = op @ dense
        mine = np.zeros_like(dense)
        for m in range(2 ** n):
            for b in (0, 1):
                col = m | (b << n)
                row = m | ((b ^ int(flips[m])) << n)
                mine[row, col] = 1.0
        assert np.array_equal(mine, dense)
        assert np.array_equal(dense @ dense.T, np.eye(2 ** (n + 1)))


class TestReport:
    @pytest.mark.parametrize("lam, runs", [(math.sqrt(0.510), 2), (0.5j, 4), (1.0, 1),
                                           (0.0, None)],
                             ids=["sqrt-0.51", "imaginary-half", "one", "zero"])
    def test_runs_expected(self, lam, runs):
        rep = protocol.ProtocolReport("k_excitation", 2, 10.0, abs(lam) ** 2, 1.0,
                                      np.ones(3) / math.sqrt(3), complex(lam))
        assert rep.to_dict()["runs_expected"] == runs


class TestAmplification:
    def test_half_probability(self):
        assert amplification_runs(0.5, 0.001) == 10

    def test_table_probability(self):
        assert amplification_runs(0.189, 0.01) == 22

    @pytest.mark.parametrize("p", [1e-15, 1e-18])
    def test_tiny_probability(self, p):
        # 1 - p rounds to 1 (or close to it); -log(1 - p) = p + O(p^2)
        assert amplification_runs(p, 0.01) == pytest.approx(math.log(100) / p, rel=1e-12)

    def test_bounds(self):
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError):
                amplification_runs(bad, 0.01)
        with pytest.raises(ValueError):
            amplification_runs(0.5, 0.0)

    @given(st.integers(1, 9), st.integers(1, 9))
    @settings(max_examples=50, deadline=None)
    def test_monotonicity(self, pi, ei):
        p = pi / 10.0
        eps = ei / 10.0
        m = amplification_runs(p, eps)
        if pi < 9:
            assert amplification_runs(p + 0.1, eps) <= m
        if ei > 1:
            assert amplification_runs(p, eps - 0.1 * eps) >= m

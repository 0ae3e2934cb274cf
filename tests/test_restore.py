import dataclasses

import numpy as np
import pytest

from spinpst import RestoreProblem, fit_circuit, restore, solve_general
from spinpst.basis import k_states
from spinpst.dynamics import TransferBlock
from spinpst.restore import (CIRCUIT_MODES, ConvergenceError, FeasibilityError,
                             _circuit_sweep, _circuit_unitary, _exchange_blocks,
                             _lambda_residuals, family_space)

from _oracles import (build_circuit_nonpreserving, build_circuit_preserving,
                      exchange_blocks_product_form, finite_difference_jacobian,
                      full_basis, gram, lambda_polynomial,
                      least_squares_lambda, pack_rows, random_unitary, real_roots,
                      restoring_columns, restoring_jacobian, restoring_residuals,
                      u_pair, unpack_rows)

SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
                dtype=complex)


def block(v, n_er=5, n_s=3, k=2, tau=14.391):
    return TransferBlock(v_hat=np.asarray(v, dtype=complex), tau=tau,
                         n_sites=10, n_s=n_s, n_er=n_er, k=k)


def columns(problem):
    v = problem.v_hat
    return restoring_columns(v.v_hat, v.n_er, v.k, problem.mode)


class TestGeneralSolver:
    def test_orthogonal_equal_norm_columns(self):
        # three orthogonal columns of norm mu: rows = normalized columns
        # satisfy every constraint with lambda = mu
        mu = 0.6
        v = np.zeros((10, 3), dtype=complex)
        v[0, 0] = v[3, 1] = v[7, 2] = mu
        sol = solve_general(RestoreProblem(v_hat=block(v), mode="preserving-general",
                                           seed=0))
        assert sol.lam_abs == pytest.approx(mu, abs=1e-9)
        assert sol.residual <= 1e-10

    def test_zero_block_gives_zero_lambda(self):
        v = np.zeros((10, 3), dtype=complex)
        sol = solve_general(RestoreProblem(v_hat=block(v), mode="preserving-general",
                                           seed=1))
        assert sol.lam_abs < 1e-12
        assert sol.converged

    def test_table_value_preserving(self, vhat_at):
        sol = solve_general(RestoreProblem(v_hat=vhat_at(5),
                                           mode="preserving-general", seed=2))
        assert sol.lam_abs == pytest.approx(0.597, abs=1e-3)

    def test_table_value_preserving_er6(self, vhat_at):
        sol = solve_general(RestoreProblem(v_hat=vhat_at(6),
                                           mode="preserving-general", seed=2))
        assert sol.lam_abs == pytest.approx(0.714, abs=1e-3)
        assert sol.lam_abs ** 2 == pytest.approx(0.510, abs=1e-3)

    def test_nonpreserving_er4_matches_table(self, vhat_at):
        sol = solve_general(RestoreProblem(v_hat=vhat_at(4, tau=12.493),
                                           mode="nonpreserving-general", seed=3))
        assert sol.lam_abs == pytest.approx(0.435, abs=1e-3)

    def test_nonpreserving_er6_matches_table(self, vhat_at):
        # 64-dimensional register: 59 zeroing rows, which a least-squares
        # search over every row entry could not reach cheaply
        sol = solve_general(RestoreProblem(v_hat=vhat_at(6),
                                           mode="nonpreserving-general", seed=3))
        assert sol.lam_abs == pytest.approx(0.714, abs=1e-3)
        assert sol.completed_unitary.shape == (64, 64)

    def test_modes_agree(self, solution5, solution5_nonpreserving):
        assert solution5.lam_abs == pytest.approx(solution5_nonpreserving.lam_abs,
                                                  abs=1e-8)

    def test_lambda_spread_and_min_root(self, vhat_at):
        # the least-squares search over free rows lands on the same |lambda|
        # from every start: the smallest root, which the closed form returns
        problem = RestoreProblem(v_hat=vhat_at(5), mode="preserving-general", seed=5)
        b = columns(problem)
        d, n = b.shape
        lams = np.array([least_squares_lambda(b, n, d - n + 1, seed=5 + 1000 * t)
                         for t in range(1, 9)])
        assert lams.max() - lams.min() < 1e-8
        min_root = real_roots(lambda_polynomial(gram(vhat_at(5)).g))[0]
        assert abs(lams.mean() - min_root) < 1e-6
        assert np.abs(lams - solve_general(problem).lam_abs).max() < 1e-8

    def test_constraints_hold(self, solution5, vhat_at):
        a = solution5.constrained_rows
        b = vhat_at(5).v_hat
        e = a @ b
        lam = e[0, 0]
        target = np.zeros_like(e)
        for j in range(3):
            target[j, j] = lam
        assert np.abs(e - target).max() <= 1e-10
        g = a @ a.conj().T
        assert np.abs(g - np.eye(a.shape[0])).max() <= 1e-10

    def test_infeasible_dimensions(self, chain10):
        from spinpst import Partition, TransferMap
        part = Partition(n_sites=10, n_s=3, n_r=3, n_er=3)
        v = TransferMap(chain10, part, 2).v_hat(14.391)
        with pytest.raises(FeasibilityError):
            solve_general(RestoreProblem(v_hat=v, mode="preserving-general"))

    def test_preserving_extra_rows_pinned(self, vhat_at):
        with pytest.raises(ValueError):
            solve_general(RestoreProblem(v_hat=vhat_at(5), mode="preserving-general",
                                         n_extra_zero_rows=2))

    @pytest.mark.parametrize("n_extra", [-1, 28])
    def test_nonpreserving_extra_rows_out_of_range(self, vhat_at, n_extra):
        # 2**5 = 32 rows hold 3 receiver rows, 2 partners and at most 27 zero rows
        with pytest.raises(FeasibilityError):
            solve_general(RestoreProblem(v_hat=vhat_at(5), mode="nonpreserving-general",
                                         n_extra_zero_rows=n_extra))

    def test_residual_above_tolerance_raises(self, vhat_at):
        with pytest.raises(ConvergenceError) as info:
            solve_general(RestoreProblem(v_hat=vhat_at(5), mode="preserving-general",
                                         tol=1e-30))
        assert 0 < info.value.best_residual < 1e-12

    def test_deterministic_by_seed(self, vhat_at):
        p = RestoreProblem(v_hat=vhat_at(4, tau=12.493), mode="preserving-general",
                           seed=9)
        s1 = solve_general(p)
        s2 = solve_general(p)
        assert np.array_equal(s1.constrained_rows, s2.constrained_rows)
        assert s1.lam == s2.lam

    def test_analytic_jacobian_matches_finite_differences(self, rng):
        m, d, n = 4, 6, 2
        b = rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n))
        a = rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))
        p0 = pack_rows(a)
        jac = restoring_jacobian(a, b, n)
        fd = finite_difference_jacobian(
            lambda p: restoring_residuals(unpack_rows(p, m, d), b, n), p0)
        assert np.abs(jac - fd).max() < 1e-6


def _random_v(rng, d, n, kind):
    """A seeded d x n transfer block of the named kind."""
    v = (rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n))) / np.sqrt(2 * d)
    if kind == "zero":
        return np.zeros((d, n), dtype=complex)
    if kind == "rank-deficient":
        return v[:, :n - 1] @ (rng.standard_normal((n - 1, n)) + 0j)
    if kind == "repeated":
        sigma = np.array([0.8] + [0.4] * (n - 1))      # sigma_min repeated
        return random_unitary(rng, d)[:, :n] * sigma @ random_unitary(rng, n)
    return v


# (mode, n_s, n_er, k, kind, n_extra): with k = 1 the block is n_er x n_s, so
# the preserving cases walk d from the minimum 2n - 1 to 3n
CLOSED_FORM_CASES = {
    **{f"gauss-n{n}-d{d}": ("preserving-general", n, d, 1, "gauss", None)
       for n in (2, 3, 4) for d in (2 * n - 1, 2 * n, 2 * n + 1, 3 * n)},
    "zero": ("preserving-general", 3, 7, 1, "zero", None),
    "zero-nonpreserving": ("nonpreserving-general", 3, 3, 1, "zero", None),
    "rank-deficient": ("preserving-general", 3, 6, 1, "rank-deficient", None),
    "rank-deficient-nonpreserving": ("nonpreserving-general", 3, 4, 2,
                                     "rank-deficient", None),
    "repeated": ("preserving-general", 4, 9, 1, "repeated", None),
    "repeated-k2": ("preserving-general", 3, 5, 2, "repeated", None),
    "n1": ("preserving-general", 1, 2, 1, "gauss", None),
    "n1-nonpreserving": ("nonpreserving-general", 1, 1, 1, "gauss", None),
    "nonpreserving": ("nonpreserving-general", 3, 4, 1, "gauss", None),
    "nonpreserving-extra0": ("nonpreserving-general", 3, 4, 1, "gauss", 0),
    "nonpreserving-extra4": ("nonpreserving-general", 3, 4, 2, "gauss", 4),
}


class TestClosedForm:
    @pytest.mark.parametrize("case", sorted(CLOSED_FORM_CASES))
    def test_properties(self, case):
        mode, n_s, n_er, k, kind, n_extra = CLOSED_FORM_CASES[case]
        d, n = len(k_states(n_er, k)), len(k_states(n_s, k))
        v = _random_v(np.random.default_rng(sorted(CLOSED_FORM_CASES).index(case)),
                      d, n, kind)
        problem = RestoreProblem(v_hat=block(v, n_er=n_er, n_s=n_s, k=k), mode=mode,
                                 n_extra_zero_rows=n_extra, seed=11)
        sol = solve_general(problem)
        b = columns(problem)
        a = sol.constrained_rows
        sigma_min = np.linalg.svd(v, compute_uv=False)[-1]
        assert sol.converged
        assert sol.residual <= 1e-12
        assert np.abs(restoring_residuals(a, b, n)).max() <= 1e-12
        assert abs(sol.lam.imag) <= 1e-12
        assert abs(sol.lam.real - sigma_min) <= 1e-12
        w = sol.completed_unitary
        assert np.abs(w @ w.conj().T - np.eye(len(w))).max() <= 1e-12
        assert np.array_equal(w[list(sol.row_positions)], a)
        if n_extra is not None:
            assert a.shape[0] == n + n_extra

        again = solve_general(problem)
        assert np.array_equal(again.constrained_rows, a)
        assert np.array_equal(again.completed_unitary, w)
        assert again.lam == sol.lam

        other = solve_general(dataclasses.replace(problem, seed=12))
        assert np.abs(other.constrained_rows - a).max() > 1e-6
        assert abs(other.lam - sol.lam) <= 1e-12


class TestCircuitBuilders:
    def test_pair_gate_is_swap_at_zero(self):
        u = u_pair(np.eye(4, dtype=complex), 1, 2, 0.0, 0.0, 2)
        assert np.abs(u - SWAP).max() < 1e-12

    def test_pair_gate_excitation_preserving(self, rng):
        num = np.diag([0.0, 1.0, 1.0, 2.0]).astype(complex)
        for _ in range(100):
            a, b = rng.uniform(0, 2 * np.pi, 2)
            u = u_pair(np.eye(4, dtype=complex), 1, 2, a, b, 2)
            assert np.abs(u @ num - num @ u).max() < 1e-12

    def test_preserving_block_diagonal(self, rng):
        n_er = 4
        fb = full_basis(n_er)
        counts = np.array([bin(m).count("1") for m in fb])
        perm = np.array(fb)
        for _ in range(10):
            w = build_circuit_preserving(rng.uniform(0, 2 * np.pi, 2 * 2 * n_er),
                                         2, n_er)
            ws = w[np.ix_(perm, perm)]
            off = ws[counts[:, None] != counts[None, :]]
            assert np.abs(off).max() < 1e-12

    def test_preserving_unitary(self, rng):
        w = build_circuit_preserving(rng.uniform(0, 2 * np.pi, 2 * 1 * 2), 1, 2)
        assert np.abs(w @ w.conj().T - np.eye(4)).max() < 1e-12

    def test_ring_of_swaps_at_zero_angles(self):
        # zero angles: each pair gate is a SWAP, so the layer is the ring
        # product of swaps, a permutation matrix
        w = build_circuit_preserving(np.zeros(2 * 1 * 3), 1, 3)
        assert np.allclose(np.abs(w), np.abs(w).round())
        assert np.abs(w @ w.conj().T - np.eye(8)).max() < 1e-12

    def test_nonpreserving_zero_angles_permutation_like(self):
        w = build_circuit_nonpreserving(np.zeros(3 * 2 * 4), 2, 4, a_qubits=())
        assert np.allclose(np.abs(w) ** 2, (np.abs(w) ** 2).round())
        assert np.abs(w @ w.conj().T - np.eye(16)).max() < 1e-12

    def test_nonpreserving_breaks_conservation(self, rng):
        n_er = 4
        fb = full_basis(n_er)
        counts = np.array([bin(m).count("1") for m in fb])
        perm = np.array(fb)
        w = build_circuit_nonpreserving(rng.uniform(0, 2 * np.pi, 3 * 2 * n_er),
                                        2, n_er, a_qubits=(1,))
        ws = w[np.ix_(perm, perm)]
        off = ws[counts[:, None] != counts[None, :]]
        assert np.abs(off).max() > 1e-6

    def test_nonpreserving_unitary(self, rng):
        w = build_circuit_nonpreserving(rng.uniform(0, 2 * np.pi, 3 * 2 * 5),
                                        2, 5, a_qubits=(1, 2))
        assert np.abs(w @ w.conj().T - np.eye(32)).max() < 1e-12

    def test_parameter_count_mismatch(self):
        with pytest.raises(ValueError):
            build_circuit_preserving(np.zeros(7), 2, 4)
        with pytest.raises(ValueError):
            build_circuit_nonpreserving(np.zeros(7), 2, 4, a_qubits=(1,))


class TestPairGateClosedForm:
    """The pair gate as n . sigma against the paper's product R sigma_x R^dag."""

    @staticmethod
    def _agree(p):
        blocks = _exchange_blocks(p)
        h, dh = exchange_blocks_product_form(p[..., 0], p[..., 1])
        assert blocks.shape == (*p.shape[:-1], 3, 2, 2)
        assert np.abs(blocks[..., 0, :, :] - h).max() <= 1e-14
        assert np.abs(blocks[..., 1:, :, :] - dh).max() <= 1e-14
        # n . sigma with |n| = 1 is a Hermitian involution
        h = blocks[..., 0, :, :]
        assert np.abs(h - h.conj().swapaxes(-1, -2)).max() <= 1e-15
        assert np.abs(h @ h - np.eye(2)).max() <= 4e-15

    def test_matches_product_form_on_stacks(self, rng):
        self._agree(rng.uniform(0, 2 * np.pi, (16, 12, 2)))

    def test_matches_product_form_at_quarter_turns(self):
        turns = np.array([0.0, 0.5, 1.0, 1.5]) * np.pi
        alpha, beta = np.meshgrid(turns, turns, indexing="ij")
        self._agree(np.stack([alpha, beta], axis=-1))


class TestFitCircuit:
    def test_preserving_fit_small_budget(self, vhat_at):
        problem = RestoreProblem(v_hat=vhat_at(4, tau=12.493),
                                 mode="circuit-preserving", q_layers=3,
                                 n_extra_zero_rows=0, seed=21, restarts=25)
        sol = fit_circuit(problem)
        assert sol.converged and sol.residual <= 1e-10
        assert sol.circuit_params is not None
        # a converged circuit solution never beats the general optimum
        assert sol.lam_abs <= 0.4347428 + 1e-6

    def test_nonpreserving_fit_small_budget(self, vhat_at):
        problem = RestoreProblem(v_hat=vhat_at(4, tau=12.493),
                                 mode="circuit-nonpreserving", q_layers=2,
                                 n_extra_zero_rows=0, seed=22, restarts=25)
        sol = fit_circuit(problem)
        assert sol.converged and sol.residual <= 1e-10
        assert sol.lam_abs <= 0.4347428 + 1e-6
        assert sol.wer_full is not None
        w = sol.wer_full
        assert np.abs(w @ w.conj().T - np.eye(16)).max() < 1e-12

    def test_constraint_budget_warning(self, vhat_at):
        problem = RestoreProblem(v_hat=vhat_at(5), mode="circuit-preserving",
                                 q_layers=2, n_extra_zero_rows=1, seed=0,
                                 restarts=1)
        with pytest.warns(UserWarning, match="constraints exceed"):
            try:
                fit_circuit(problem)
            except ConvergenceError:
                pass

    @pytest.mark.parametrize("mode", CIRCUIT_MODES)
    @pytest.mark.parametrize("n_extra", [-1, 4, 20])
    def test_extra_rows_out_of_range(self, vhat_at, mode, n_extra):
        # N=10, n_er=4, k=2: 6 k-sector rows, 3 receiver rows, 3 free rows
        problem = RestoreProblem(v_hat=vhat_at(4, tau=12.493), mode=mode,
                                 n_extra_zero_rows=n_extra, restarts=1)
        with pytest.raises(FeasibilityError, match="admits 0..3"):
            fit_circuit(problem)

    @pytest.mark.parametrize("restarts", [0, -3])
    def test_non_positive_restarts_rejected(self, vhat_at, restarts):
        with pytest.raises(ValueError, match="restarts must be at least 1"):
            RestoreProblem(v_hat=vhat_at(4, tau=12.493), mode="circuit-preserving",
                           restarts=restarts)

    def test_rows_match_built_unitary(self, vhat_at):
        # the winner's rows and k-block against the gate-by-gate oracle
        problem = RestoreProblem(v_hat=vhat_at(4, tau=12.493),
                                 mode="circuit-preserving", q_layers=3,
                                 n_extra_zero_rows=0, seed=21, restarts=5)
        sol = fit_circuit(problem)
        er = k_states(4, 2).states
        want = build_circuit_preserving(sol.circuit_params, 3, 4)
        assert np.abs(sol.completed_unitary - want[np.ix_(er, er)]).max() < 1e-12
        rows = want[np.ix_(er[list(sol.row_positions)], er)]
        assert np.abs(sol.constrained_rows - rows).max() < 1e-12


# (mode, q, n_er, n_extra, a_qubits): N=10, n_s=3, k=2, so n_er - 3 free
# k-sector rows for zeroing; a_qubits only enter the nonpreserving family
JACOBIAN_CASES = [
    ("circuit-preserving", 1, 3, 0, ()),
    ("circuit-preserving", 2, 4, 1, ()),
    ("circuit-preserving", 3, 4, 0, ()),
    ("circuit-preserving", 3, 5, 2, ()),
    ("circuit-nonpreserving", 1, 3, 0, ()),
    ("circuit-nonpreserving", 3, 3, 0, (2,)),
    ("circuit-nonpreserving", 2, 4, 0, (1,)),
    ("circuit-nonpreserving", 3, 4, 2, ()),
    ("circuit-nonpreserving", 2, 5, 1, (1, 2)),
]


class TestCircuitJacobian:
    @pytest.mark.parametrize("mode, q, n_er, n_extra, a_qubits", JACOBIAN_CASES)
    def test_sweep(self, vhat_at, mode, q, n_er, n_extra, a_qubits):
        v = vhat_at(n_er, tau=12.493)
        problem = RestoreProblem(v_hat=v, mode=mode, q_layers=q,
                                 n_extra_zero_rows=n_extra)
        b, recv, rest = family_space(mode, v)
        positions = recv + rest[:n_extra]
        assert len(positions) == v.columns + n_extra
        assert all(type(i) is int for i in recv + rest)
        er = k_states(n_er, 2).states
        # preserving rows are k-sector ordinals, non-preserving ones register masks
        masks = er[positions] if mode == "circuit-preserving" else positions

        def built(x):
            """rows @ V from the matrix that build_circuit_* assembles."""
            if mode == "circuit-preserving":
                w = build_circuit_preserving(x, q, n_er)
            else:
                w = build_circuit_nonpreserving(x, q, n_er, a_qubits)
            return w[np.ix_(masks, er)] @ v.v_hat

        per_gate = 2 if mode == "circuit-preserving" else 3
        x = np.random.default_rng(1000 * q + 10 * n_er + n_extra).uniform(
            0, 2 * np.pi, per_gate * q * n_er)
        lam, res, jac = _circuit_sweep(problem, x[None], a_qubits, b, positions)
        lam, res, jac = lam[0], res[0], jac[0]
        e = built(x)
        assert np.abs(res - _lambda_residuals(e)).max() <= 1e-13
        assert abs(lam - e[0, 0]) <= 1e-13

        # the residuals are real-linear in e, so differences of e map to
        # differences of the residuals through _lambda_residuals
        eye = np.eye(x.size)
        h = 1e-6
        central = np.array([(built(x + h * d) - built(x - h * d)) / (2 * h)
                            for d in eye])
        assert np.abs(jac - _lambda_residuals(central).T).max() <= 1e-7
        if mode == "circuit-nonpreserving":
            # every angle enters once, as exp(-i theta P / 2) with P a Pauli,
            # and e is linear in each gate: e(theta + s) - e(theta - s) =
            # 4 sin(s / 2) e'(theta) for any shift s
            s = np.pi / 2
            shifted = np.array([(built(x + s * d) - built(x - s * d))
                                / (4 * np.sin(s / 2)) for d in eye])
            assert np.abs(jac - _lambda_residuals(shifted).T).max() <= 1e-12


BENCH_FITS = [("circuit-preserving", 3), ("circuit-nonpreserving", 2)]


class TestCircuitFitDeterminism:
    @pytest.mark.parametrize("mode, q", BENCH_FITS)
    def test_same_seed_gives_same_fit(self, vhat_at, mode, q):
        problem = RestoreProblem(v_hat=vhat_at(4, tau=12.493), mode=mode,
                                 q_layers=q, n_extra_zero_rows=0, seed=5,
                                 restarts=8)
        first, again = fit_circuit(problem), fit_circuit(problem)
        assert np.array_equal(first.circuit_params, again.circuit_params)
        assert first.lam == again.lam
        assert first.restart_records == again.restart_records

    @pytest.mark.parametrize("mode, q", BENCH_FITS)
    def test_restarts_run_independently(self, vhat_at, mode, q):
        # restart i keeps its start and its trajectory whatever else is stacked
        problem = RestoreProblem(v_hat=vhat_at(4, tau=12.493), mode=mode,
                                 q_layers=q, n_extra_zero_rows=0, seed=5,
                                 restarts=8)
        eight = fit_circuit(problem).restart_records
        four = fit_circuit(dataclasses.replace(problem, restarts=4)).restart_records
        assert eight[:4] == four

    @pytest.mark.parametrize("mode, q, a_qubits", [("circuit-preserving", 3, ()),
                                                   ("circuit-nonpreserving", 2, (1,))],
                             ids=["circuit-preserving", "circuit-nonpreserving"])
    def test_stacked_sweep_equals_single_row_sweeps(self, vhat_at, mode, q, a_qubits):
        # the batched products and the one gather per sweep treat each row alone
        v = vhat_at(4, tau=12.493)
        problem = RestoreProblem(v_hat=v, mode=mode, q_layers=q, n_extra_zero_rows=0)
        b, recv, _ = family_space(mode, v)
        per_gate = 2 if mode == "circuit-preserving" else 3
        x = np.random.default_rng(8).uniform(0, 2 * np.pi, (8, per_gate * q * 4))
        stacked = _circuit_sweep(problem, x, a_qubits, b, recv)
        for i in range(len(x)):
            single = _circuit_sweep(problem, x[i:i + 1], a_qubits, b, recv)
            for got, want in zip(stacked, single):   # lambda, residuals, Jacobian
                assert np.array_equal(got[i], want[0])


class TestStackedSolver:
    @pytest.mark.parametrize("mode, q", BENCH_FITS)
    def test_benchmark_fits_converge_on_every_restart(self, vhat_at, mode, q):
        # the benchmark's circuit-fit configs: n_er=4, tau=12.493, seed 0
        problem = RestoreProblem(v_hat=vhat_at(4, tau=12.493), mode=mode,
                                 q_layers=q, n_extra_zero_rows=0, seed=0,
                                 restarts=8)
        records = fit_circuit(problem).restart_records
        assert [r.index for r in records] == list(range(8))
        assert all(r.converged and r.residual <= 1e-13 for r in records)

    def test_over_constrained_fit_stops_and_raises(self, vhat_at, monkeypatch):
        # q=1 and all 3 free rows: 34 real constraints on 8 angles, so every
        # restart stops at the lower iteration cap
        sweep, sweeps = restore._circuit_sweep, []

        def counted(*args):
            sweeps.append(1)
            return sweep(*args)
        monkeypatch.setattr(restore, "_circuit_sweep", counted)
        problem = RestoreProblem(v_hat=vhat_at(4, tau=12.493),
                                 mode="circuit-preserving", q_layers=1,
                                 n_extra_zero_rows=3, seed=0, restarts=4)
        with pytest.warns(UserWarning, match="34 real constraints exceed 8"):
            with pytest.raises(ConvergenceError) as info:
                fit_circuit(problem)
        assert 1e-3 < info.value.best_residual < 1.0
        assert len(sweeps) == restore.LM_MAX_ITERATIONS_OVER + 1

    @pytest.mark.parametrize("mode", CIRCUIT_MODES)
    @pytest.mark.parametrize("q", [1, 2, 3])
    @pytest.mark.parametrize("n_er", [3, 4, 5])
    def test_wer_full_matches_gate_by_gate_unitary(self, mode, q, n_er):
        rng = np.random.default_rng(100 * q + n_er)
        if mode == "circuit-preserving":
            # the sweep of each k-sector is the oracle's k-block, and the
            # oracle has nothing outside those blocks
            x = rng.uniform(0, 2 * np.pi, 2 * q * n_er)
            w = np.zeros((2 ** n_er, 2 ** n_er), dtype=complex)
            for k in range(n_er + 1):
                sector = k_states(n_er, k).states
                w[np.ix_(sector, sector)] = _circuit_unitary(mode, x, q, n_er, k, ())
            assert np.abs(w - build_circuit_preserving(x, q, n_er)).max() <= 1e-14
            return
        x = rng.uniform(0, 2 * np.pi, 3 * q * n_er)
        for a_qubits in [(), tuple(range(1, n_er - 2))]:   # none, or every A qubit
            w = _circuit_unitary(mode, x, q, n_er, 2, a_qubits)
            want = build_circuit_nonpreserving(x, q, n_er, a_qubits)
            assert np.abs(w - want).max() <= 1e-14

    @pytest.mark.parametrize("mode, q", BENCH_FITS)
    def test_solution_carries_the_winner_unitary(self, vhat_at, mode, q):
        problem = RestoreProblem(v_hat=vhat_at(4, tau=12.493), mode=mode,
                                 q_layers=q, n_extra_zero_rows=0, seed=0,
                                 restarts=2)
        sol = fit_circuit(problem)
        a_qubits = (1,)    # the default: the one site of ER outside R
        assert np.array_equal(sol.completed_unitary, _circuit_unitary(
            mode, sol.circuit_params, q, 4, 2, a_qubits))


class TestSolutionSerialization:
    def test_round_trip_fields(self, solution5):
        d = solution5.to_dict()
        assert d["mode"] == "preserving-general"
        assert d["lambda"]["abs"] == pytest.approx(0.5966, abs=1e-3)
        assert len(d["rows"]) == solution5.constrained_rows.shape[0]
        assert d["seed"] == 42

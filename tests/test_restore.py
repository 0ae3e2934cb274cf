import dataclasses

import numpy as np
import pytest

from spinpst import (RestoreProblem, build_circuit_nonpreserving,
                     build_circuit_preserving, complete_unitary, fit_circuit,
                     scale, solve_general)
from spinpst.basis import full_basis, k_states
from spinpst.dynamics import TransferBlock
from spinpst.restore import (CIRCUIT_MODES, ConvergenceError, FeasibilityError,
                             _circuit_row_positions, _circuit_sweep,
                             _lambda_residuals, _register_columns, _u_pair)

from _oracles import (finite_difference_jacobian, least_squares_lambda, pack_rows,
                      random_unitary, restoring_columns, restoring_jacobian,
                      restoring_residuals, unpack_rows)

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
        min_root = scale.real_roots(scale.lambda_polynomial(
            scale.gram(vhat_at(5)).g))[0]
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
        u = _u_pair(np.eye(4, dtype=complex), 1, 2, 0.0, 0.0, 2)
        assert np.abs(u - SWAP).max() < 1e-12

    def test_pair_gate_excitation_preserving(self, rng):
        num = np.diag([0.0, 1.0, 1.0, 2.0]).astype(complex)
        for _ in range(100):
            a, b = rng.uniform(0, 2 * np.pi, 2)
            u = _u_pair(np.eye(4, dtype=complex), 1, 2, a, b, 2)
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

    def test_rows_match_built_unitary(self, vhat_at):
        problem = RestoreProblem(v_hat=vhat_at(4, tau=12.493),
                                 mode="circuit-preserving", q_layers=3,
                                 n_extra_zero_rows=0, seed=21, restarts=5)
        sol = fit_circuit(problem)
        er = np.fromiter(k_states(4, 2).states, dtype=np.int64)
        wk = sol.wer_full[np.ix_(er, er)]
        assert np.abs(wk - sol.completed_unitary).max() < 1e-12


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
        positions = _circuit_row_positions(problem)
        assert len(positions) == v.columns + n_extra
        er = np.fromiter(k_states(n_er, 2).states, dtype=np.int64)

        def built(x):
            """rows @ V from the matrix that build_circuit_* assembles."""
            if mode == "circuit-preserving":
                w = build_circuit_preserving(x, q, n_er)
            else:
                w = build_circuit_nonpreserving(x, q, n_er, a_qubits)
            return w[np.ix_(positions, er)] @ v.v_hat

        per_gate = 2 if mode == "circuit-preserving" else 3
        x = np.random.default_rng(1000 * q + 10 * n_er + n_extra).uniform(
            0, 2 * np.pi, per_gate * q * n_er)
        lam, res, jac = _circuit_sweep(problem, x, a_qubits,
                                       _register_columns(v, n_er), positions)
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


class TestCircuitFitDeterminism:
    @pytest.mark.parametrize("mode, q", [("circuit-preserving", 3),
                                         ("circuit-nonpreserving", 2)])
    def test_threads_do_not_change_the_fit(self, vhat_at, mode, q):
        problem = RestoreProblem(v_hat=vhat_at(4, tau=12.493), mode=mode,
                                 q_layers=q, n_extra_zero_rows=0, seed=5,
                                 restarts=8)
        serial = fit_circuit(problem, threads=1)
        pooled = fit_circuit(problem, threads=2)
        assert np.array_equal(serial.circuit_params, pooled.circuit_params)
        assert serial.lam == pooled.lam
        assert serial.restart_records == pooled.restart_records


class TestCompleteUnitary:
    def test_first_identity_row(self):
        w = complete_unitary(np.eye(2, dtype=complex)[:1], 2,
                             rng=np.random.default_rng(0))
        assert np.abs(w[0] - [1, 0]).max() < 1e-12
        assert abs(abs(w[1, 1]) - 1) < 1e-12

    def test_unitarity(self, rng):
        a = np.linalg.qr(rng.standard_normal((8, 3)) +
                         1j * rng.standard_normal((8, 3)))[0].conj().T
        w = complete_unitary(a, 8, rng=rng)
        assert np.abs(w @ w.conj().T - np.eye(8)).max() < 1e-10

    def test_recovers_rows_of_known_unitary(self, rng):
        u = random_unitary(rng, 6)
        w = complete_unitary(u[:3], 6, rng=rng)
        assert np.abs(w[:3] - u[:3]).max() < 1e-12
        assert np.abs(w @ w.conj().T - np.eye(6)).max() < 1e-10

    def test_row_positions(self, rng):
        u = random_unitary(rng, 5)
        w = complete_unitary(u[:2], 5, row_positions=(3, 1), rng=rng)
        assert np.abs(w[3] - u[0]).max() < 1e-12
        assert np.abs(w[1] - u[1]).max() < 1e-12

    def test_rejects_non_orthonormal(self, rng):
        bad = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
        with pytest.raises(ValueError):
            complete_unitary(bad, 5)

    def test_deterministic(self, rng):
        a = random_unitary(np.random.default_rng(3), 6)[:2]
        w1 = complete_unitary(a, 6, rng=np.random.default_rng(11))
        w2 = complete_unitary(a, 6, rng=np.random.default_rng(11))
        assert np.array_equal(w1, w2)


class TestSolutionSerialization:
    def test_round_trip_fields(self, solution5):
        d = solution5.to_dict()
        assert d["mode"] == "preserving-general"
        assert d["lambda"]["abs"] == pytest.approx(0.5966, abs=1e-3)
        assert len(d["rows"]) == solution5.constrained_rows.shape[0]
        assert d["seed"] == 42

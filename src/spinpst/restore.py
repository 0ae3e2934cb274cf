"""Constrained synthesis of the restoring unitary W_ER.

Four solution families share one constraint set: rows a_i of W_ER must give
a_i . b_j = lambda * delta_ij on the transfer columns b_j (common lambda),
extra rows must annihilate every b_j, and the constrained rows must be
orthonormal.  The general modes treat the row entries as free; their rows
follow in closed form from the SVD of the transfer columns, with lambda =
sigma_min.  The circuit modes parameterize W_ER by gate angles and minimize
the stacked real/imaginary residuals with damped least squares from random
restarts.  In every mode lambda is the derived quantity a_0 . b_0, never a
free variable.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import least_squares

from .basis import full_basis, k_states
from .dynamics import TransferBlock
from .gates import HADAMARD, apply_cnot, apply_single, ry, rz

GENERAL_MODES = ("preserving-general", "nonpreserving-general")
CIRCUIT_MODES = ("circuit-preserving", "circuit-nonpreserving")
DEFAULT_TOL = 1e-10
DEFAULT_RESTARTS_CIRCUIT = 1000


class FeasibilityError(ValueError):
    """Extended receiver too small for the restoring system."""


class ConvergenceError(RuntimeError):
    """No solve or restart reached the residual tolerance."""

    def __init__(self, message: str, best_residual: float):
        super().__init__(message)
        self.best_residual = best_residual


@dataclass(frozen=True)
class RestoreProblem:
    """One restoring task: transfer block, solution family, solver knobs.

    ``n_extra_zero_rows`` is the number of additional garbage-zeroing
    constraints.  For the general modes it defaults to (and for the
    preserving one must equal) every row the family supports; for circuit
    modes it is a free choice limited by the parameter budget.  ``restarts``
    is the circuit fits' restart budget; the general modes solve in closed
    form and use ``seed`` only to pick among equally valid W_ER.
    """

    v_hat: TransferBlock
    mode: str
    n_extra_zero_rows: int | None = None
    q_layers: int = 2
    restarts: int | None = None
    tol: float = DEFAULT_TOL
    seed: int = 0

    def __post_init__(self):
        if self.mode not in GENERAL_MODES + CIRCUIT_MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.tol <= 0:
            raise ValueError("tolerance must be positive")
        if self.mode in CIRCUIT_MODES and self.q_layers < 1:
            raise ValueError("circuit modes need at least one layer")

    @property
    def n_s_k(self) -> int:
        return self.v_hat.columns

    @property
    def n_er_k(self) -> int:
        return self.v_hat.rows

    @property
    def n_er(self) -> int:
        return self.v_hat.n_er

    def default_restarts(self) -> int:
        return DEFAULT_RESTARTS_CIRCUIT if self.restarts is None else self.restarts


@dataclass(frozen=True)
class RestartRecord:
    index: int
    converged: bool
    residual: float
    lam_abs: float


@dataclass(frozen=True)
class RestoreSolution:
    """Converged constrained rows, the scale factor, and a unitary completion.

    ``constrained_rows[i]`` sits at row ``row_positions[i]`` of
    ``completed_unitary``; the first N^(S)_k rows are the receiver rows (the
    ones the protocol projector selects), the rest are garbage-zeroing rows.
    For preserving modes the completion is the k-excitation block of W_ER
    (dimension N^(ER)_k); for non-preserving modes it is the full 2**n_er
    matrix.  ``wer_full`` is the whole extended-receiver unitary whenever the
    family defines one (circuit modes), else None.
    """

    mode: str
    constrained_rows: np.ndarray
    row_positions: tuple[int, ...]
    lam: complex
    residual: float
    completed_unitary: np.ndarray
    tau: float
    n_er: int
    k: int
    seed: int
    restart_records: tuple[RestartRecord, ...] = ()
    circuit_params: np.ndarray | None = None
    wer_full: np.ndarray | None = None

    @property
    def converged(self) -> bool:
        return bool(self.restart_records) and any(r.converged for r in self.restart_records)

    @property
    def lam_abs(self) -> float:
        return abs(self.lam)

    def to_dict(self) -> dict:
        out = {
            "mode": self.mode,
            "n_er": self.n_er,
            "k": self.k,
            "tau": self.tau,
            "lambda": {"abs": abs(self.lam), "arg": float(np.angle(self.lam))},
            "residual": self.residual,
            "seed": self.seed,
            "rows": [[[float(z.real), float(z.imag)] for z in row]
                     for row in self.constrained_rows],
        }
        if self.circuit_params is not None:
            out["circuit_params"] = [float(x) for x in self.circuit_params]
        return out


# ---------------------------------------------------------------------------
# receiver/extra row placement
# ---------------------------------------------------------------------------

def _er_k_positions(n_er: int, n_r: int, k: int) -> tuple[list[int], list[int]]:
    """Positions in the ER k-sector basis of (receiver rows, other rows).

    Receiver rows are the k-states with every excitation inside R (the last
    n_r qubits of the extended receiver), ordered like the receiver k-basis.
    """
    er = k_states(n_er, k)
    r_local = k_states(n_r, k)
    offset = n_er - n_r
    recv = [er.index_of(m << offset) for m in r_local.states]
    rest = [i for i in range(len(er)) if i not in set(recv)]
    return recv, rest


def _full_er_positions(n_er: int, n_r: int, k: int) -> tuple[list[int], list[int]]:
    """Same as above but as computational-basis indices of the full ER register.

    Extra-row candidates stay inside the k-sector (zeroing constraints act on
    k-excitation garbage), in sector order.
    """
    er = k_states(n_er, k)
    r_local = k_states(n_r, k)
    offset = n_er - n_r
    recv = [m << offset for m in r_local.states]
    rest = [m for m in er.states if m not in set(recv)]
    return recv, rest


# ---------------------------------------------------------------------------
# general modes: closed form from the SVD of the transfer columns
# ---------------------------------------------------------------------------

def _constraint_residuals(rows: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Real and imaginary parts of rows @ b - lambda * I, lambda = (rows @ b)_00."""
    e = rows @ b
    rc = (e - e[0, 0] * np.eye(*e.shape)).ravel()[1:]   # drop the slot defining lambda
    return np.concatenate([rc.real, rc.imag])


def _general_residuals(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stacked real residuals: restoring constraints then row orthonormality."""
    g = a @ a.conj().T
    iu = np.triu_indices(a.shape[0], k=1)
    return np.concatenate([_constraint_residuals(a, b), g[iu].real, g[iu].imag,
                           g.diagonal().real - 1.0])


def _closed_form_rows(b: np.ndarray, n_extra: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Receiver rows with A b = sigma_min I, then ``n_extra`` rows with Z b = 0.

    With b = W S Q^dag and P a random orthonormal basis of range(W[:, n:]),
    x_j = c_j w_j + sqrt(1 - c_j^2) p_j with c_j = sigma_min / sigma_j gives
    X^dag b = sigma_min Q^dag, so the rows Q X^dag restore with lambda =
    sigma_min; the next ``n_extra`` columns of P give the zeroing rows.
    """
    d, n = b.shape
    w, sigma, qh = np.linalg.svd(b)
    g = rng.standard_normal((d - n, d - n)) + 1j * rng.standard_normal((d - n, d - n))
    p = w[:, n:] @ np.linalg.qr(g)[0]
    c = np.ones(n)
    np.divide(sigma[-1], sigma, out=c, where=sigma > 0)
    x = c * w[:, :n]
    x[:, :-1] += np.sqrt(1.0 - c[:-1] ** 2) * p[:, :n - 1]
    return np.vstack([qh.conj().T @ x.conj().T, p[:, n - 1:n - 1 + n_extra].conj().T])


def solve_general(problem: RestoreProblem) -> RestoreSolution:
    """Solve the restoring system with unconstrained rows (either general mode).

    The rows come in closed form from the SVD of the transfer columns, so
    |lambda| = sigma_min(V) exactly; ``problem.seed`` picks the basis of the
    complement of range(V) and of the unitary completion, since every such
    basis gives an equally valid W_ER.  The single restart record holds the
    residual, which must not exceed ``problem.tol``.
    """
    if problem.mode not in GENERAL_MODES:
        raise ValueError(f"solve_general does not handle mode {problem.mode!r}")
    v = problem.v_hat
    n = v.columns
    k = v.k
    n_r = v.n_s  # receiver size equals sender size
    if problem.mode == "preserving-general":
        d = v.rows
        b = np.asarray(v.v_hat, dtype=complex)
        recv, rest = _er_k_positions(problem.n_er, n_r, k)
    else:
        d = 2 ** problem.n_er
        b = np.zeros((d, n), dtype=complex)
        er_states = np.fromiter(k_states(problem.n_er, k).states, dtype=np.int64)
        b[er_states, :] = v.v_hat
        recv, _ = _full_er_positions(problem.n_er, n_r, k)
        # zero-row candidates in excitation-sorted order over the whole register
        rest = [m for m in full_basis(problem.n_er) if m not in set(recv)]
    if d < 2 * n - 1:
        raise FeasibilityError(f"dimension {d} < {2 * n - 1} required")
    n_extra_max = d - (2 * n - 1)
    n_extra = problem.n_extra_zero_rows
    if n_extra is None:
        n_extra = n_extra_max
    if problem.mode == "preserving-general" and n_extra != n_extra_max:
        raise FeasibilityError(f"preserving-general requires exactly {n_extra_max} "
                               f"extra zero rows, got {n_extra}")
    if not 0 <= n_extra <= n_extra_max:
        raise FeasibilityError(f"{n_extra} extra zero rows; dimension {d} "
                               f"admits 0..{n_extra_max}")

    rng = np.random.default_rng(problem.seed)
    a = _closed_form_rows(b, n_extra, rng)
    residual = float(np.abs(_general_residuals(a, b)).max())
    lam = complex((a @ b)[0, 0])
    if residual > problem.tol:
        raise ConvergenceError(
            f"closed-form residual {residual:.2e} exceeds tol={problem.tol}", residual)
    positions = tuple(recv[:n]) + tuple(rest[:n_extra])
    completed = complete_unitary(a, d, row_positions=positions, rng=rng)
    return RestoreSolution(mode=problem.mode, constrained_rows=a,
                           row_positions=positions, lam=lam, residual=residual,
                           completed_unitary=completed, tau=v.tau,
                           n_er=problem.n_er, k=k, seed=problem.seed,
                           restart_records=(RestartRecord(0, True, residual, abs(lam)),))


# ---------------------------------------------------------------------------
# circuit families
# ---------------------------------------------------------------------------

def _u_pair(state: np.ndarray, i: int, j: int, alpha: float, beta: float,
            n: int) -> np.ndarray:
    """Excitation-preserving two-qubit block C_ij R_i C_ji R_i^dag C_ij."""
    r = rz(beta) @ ry(alpha) @ rz(-beta)
    out = apply_cnot(state, i, j, n)
    out = apply_single(out, r.conj().T, i, n)
    out = apply_cnot(out, j, i, n)
    out = apply_single(out, r, i, n)
    return apply_cnot(out, i, j, n)


def build_circuit_preserving(params: Sequence[float], q_layers: int,
                             n_er: int) -> np.ndarray:
    """Layered ring of excitation-preserving two-qubit gates on 2**n_er.

    Layer q applies U_{j, j+1 mod n_er}(alpha_qj, beta_qj) for j = 1..n_er,
    j ascending acting first; layers stack in increasing q.
    """
    p = np.asarray(params, dtype=float)
    if p.size != 2 * q_layers * n_er:
        raise ValueError(f"expected {2 * q_layers * n_er} parameters, got {p.size}")
    p = p.reshape(q_layers, n_er, 2)
    w = np.eye(2 ** n_er, dtype=complex)
    for q in range(q_layers):
        for j in range(1, n_er + 1):
            jj = j + 1 if j < n_er else 1
            w = _u_pair(w, j, jj, p[q, j - 1, 0], p[q, j - 1, 1], n_er)
    return w


def build_circuit_nonpreserving(params: Sequence[float], q_layers: int,
                                n_er: int, a_qubits: Sequence[int]) -> np.ndarray:
    """Rotation layers with full CNOT cascades, then Hadamards on the A qubits.

    Each layer applies R_z(alpha) R_y(beta) R_z(gamma) on every qubit, then
    CNOTs C_ij over all pairs i < j (lexicographic, (1,2) acting first).
    ``a_qubits`` are 1-based positions within the extended receiver.
    """
    p = np.asarray(params, dtype=float)
    if p.size != 3 * q_layers * n_er:
        raise ValueError(f"expected {3 * q_layers * n_er} parameters, got {p.size}")
    p = p.reshape(q_layers, n_er, 3)
    w = np.eye(2 ** n_er, dtype=complex)
    for q in range(q_layers):
        for l in range(1, n_er + 1):
            al, be, ga = p[q, l - 1]
            w = apply_single(w, rz(al) @ ry(be) @ rz(ga), l, n_er)
        for i in range(1, n_er):
            for j in range(i + 1, n_er + 1):
                w = apply_cnot(w, i, j, n_er)
    for a in a_qubits:
        w = apply_single(w, HADAMARD, a, n_er)
    return w


def _circuit_rows(problem: RestoreProblem, params: np.ndarray,
                  a_qubits: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(constrained rows, column matrix b, full W_ER) for a circuit parameter set."""
    v = problem.v_hat
    k, n_r = v.k, v.n_s
    n_extra = problem.n_extra_zero_rows or 0
    er_states = np.fromiter(k_states(problem.n_er, k).states, dtype=np.int64)
    if problem.mode == "circuit-preserving":
        w = build_circuit_preserving(params, problem.q_layers, problem.n_er)
        wk = w[np.ix_(er_states, er_states)]
        recv, rest = _er_k_positions(problem.n_er, n_r, k)
        rows = wk[recv + rest[:n_extra], :]
        b = v.v_hat
    else:
        w = build_circuit_nonpreserving(params, problem.q_layers,
                                        problem.n_er, a_qubits)
        recv, rest = _full_er_positions(problem.n_er, n_r, k)
        rows = w[recv + rest[:n_extra], :]
        b = np.zeros((2 ** problem.n_er, v.columns), dtype=complex)
        b[er_states, :] = v.v_hat
    return rows, b, w


def _circuit_row_positions(problem: RestoreProblem) -> list[int]:
    """Constrained row positions as full-register computational indices."""
    v = problem.v_hat
    n_extra = problem.n_extra_zero_rows or 0
    recv, rest = _full_er_positions(problem.n_er, v.n_s, v.k)
    return recv + rest[:n_extra]


def _circuit_rows_fast(problem: RestoreProblem, params: np.ndarray,
                       a_qubits: tuple[int, ...], positions: list[int],
                       cols: np.ndarray) -> np.ndarray:
    """W_ER[positions][:, cols] without building the full matrix.

    Propagates the requested basis columns through the adjoint circuit in
    reverse application order; the preserving two-qubit block is Hermitian,
    so it is its own adjoint.
    """
    n = problem.n_er
    e = np.zeros((2 ** n, len(positions)), dtype=complex)
    e[positions, np.arange(len(positions))] = 1.0
    if problem.mode == "circuit-preserving":
        p = np.asarray(params, dtype=float).reshape(problem.q_layers, n, 2)
        for q in range(problem.q_layers - 1, -1, -1):
            for j in range(n, 0, -1):
                jj = j + 1 if j < n else 1
                e = _u_pair(e, j, jj, p[q, j - 1, 0], p[q, j - 1, 1], n)
    else:
        p = np.asarray(params, dtype=float).reshape(problem.q_layers, n, 3)
        for a in a_qubits:
            e = apply_single(e, HADAMARD, a, n)
        pairs = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
        for q in range(problem.q_layers - 1, -1, -1):
            for i, j in reversed(pairs):
                e = apply_cnot(e, i, j, n)
            for l in range(n, 0, -1):
                al, be, ga = p[q, l - 1]
                e = apply_single(e, (rz(al) @ ry(be) @ rz(ga)).conj().T, l, n)
    return e[cols, :].conj().T


def _fit_attempt(payload) -> tuple[int, np.ndarray, float, complex]:
    """One circuit-fit restart; module level so worker processes can run it."""
    problem, a_qubits, positions, cols, seed, i, n_params = payload
    b_small = problem.v_hat.v_hat

    def fun(x):
        rows = _circuit_rows_fast(problem, x, a_qubits, positions, cols)
        return _constraint_residuals(rows, b_small)

    rng = np.random.default_rng(seed)
    x0 = rng.uniform(0.0, 2.0 * np.pi, n_params)
    sol = least_squares(fun, x0, method="trf", xtol=1e-14, ftol=1e-14,
                        gtol=1e-14, max_nfev=3000)
    res = float(np.abs(fun(sol.x)).max())
    rows = _circuit_rows_fast(problem, sol.x, a_qubits, positions, cols)
    lam = complex((rows @ b_small)[0, 0])
    return i, sol.x, res, lam


def fit_circuit(problem: RestoreProblem, threads: int = 1,
                a_qubits: Sequence[int] | None = None) -> RestoreSolution:
    """Fit circuit parameters to the restoring constraints, best over restarts.

    Every restart starts from uniform random angles; converged restarts keep
    their own lambda (the circuit families do not pin it), and the returned
    solution is the converged one with the largest |lambda|.  ``threads`` > 1
    distributes restarts over worker processes.
    """
    if problem.mode not in CIRCUIT_MODES:
        raise ValueError(f"fit_circuit does not handle mode {problem.mode!r}")
    v = problem.v_hat
    n = v.columns
    n_extra = problem.n_extra_zero_rows or 0
    per_layer = 2 if problem.mode == "circuit-preserving" else 3
    n_params = per_layer * problem.q_layers * problem.n_er
    n_constraints = 2 * ((n + n_extra) * n - 1)
    if n_constraints > n_params:
        warnings.warn(
            f"{n_constraints} real constraints exceed {n_params} parameters; "
            "the fit may only reach a least-squares residual", stacklevel=2)
    if a_qubits is None:
        a_qubits = tuple(range(1, problem.n_er - v.n_s + 1))
    else:
        a_qubits = tuple(a_qubits)

    positions = _circuit_row_positions(problem)
    cols = np.fromiter(k_states(problem.n_er, v.k).states, dtype=np.int64)
    b_small = v.v_hat

    seeds = np.random.SeedSequence(problem.seed).spawn(problem.default_restarts())
    payloads = [(problem, a_qubits, positions, cols, seeds[i], i, n_params)
                for i in range(len(seeds))]
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_fit_attempt, payloads, chunksize=8))
    else:
        results = [_fit_attempt(p) for p in payloads]

    records = tuple(RestartRecord(i, res <= problem.tol, res, abs(lam))
                    for i, _, res, lam in results)
    converged = [(i, x, res, lam) for i, x, res, lam in results if res <= problem.tol]
    if not converged:
        best = min(results, key=lambda r: r[2])
        raise ConvergenceError(
            f"no circuit restart of {len(results)} reached tol={problem.tol}",
            best[2])
    best_i, best_x, best_res, best_lam = min(
        converged, key=lambda r: (-abs(r[3]), r[2], r[0]))
    rows, b, w_full = _circuit_rows(problem, best_x, a_qubits)
    k, n_r = v.k, v.n_s
    er_states = np.fromiter(k_states(problem.n_er, k).states, dtype=np.int64)
    if problem.mode == "circuit-preserving":
        recv, rest = _er_k_positions(problem.n_er, n_r, k)
        completed = w_full[np.ix_(er_states, er_states)]
    else:
        recv, rest = _full_er_positions(problem.n_er, n_r, k)
        completed = w_full
    positions = tuple(recv) + tuple(rest[:n_extra])
    return RestoreSolution(mode=problem.mode, constrained_rows=rows,
                           row_positions=positions, lam=best_lam,
                           residual=best_res, completed_unitary=completed,
                           tau=v.tau, n_er=problem.n_er, k=k,
                           seed=problem.seed, restart_records=records,
                           circuit_params=np.asarray(best_x), wer_full=w_full)


# ---------------------------------------------------------------------------
# unitary completion
# ---------------------------------------------------------------------------

def complete_unitary(rows: np.ndarray, dim: int,
                     row_positions: Sequence[int] | None = None,
                     rng: np.random.Generator | None = None,
                     tol: float = 1e-10) -> np.ndarray:
    """Extend orthonormal rows to a full unitary, deterministic under the rng.

    The given rows are placed at ``row_positions`` (default 0..m-1); the
    remaining rows come from orthonormalizing a random complement.
    """
    a = np.asarray(rows, dtype=complex)
    m = a.shape[0]
    if a.shape[1] != dim:
        raise ValueError(f"rows of length {a.shape[1]} cannot fill dim={dim}")
    g = a @ a.conj().T
    dev = np.abs(g - np.eye(m)).max()
    if dev > tol:
        raise ValueError(f"input rows are not orthonormal (deviation {dev:.2e})")
    if row_positions is None:
        row_positions = tuple(range(m))
    row_positions = tuple(int(i) for i in row_positions)
    if len(row_positions) != m or len(set(row_positions)) != m:
        raise ValueError("row positions must be distinct and match the row count")
    rng = rng or np.random.default_rng(0)
    w = np.zeros((dim, dim), dtype=complex)
    w[list(row_positions), :] = a
    if m < dim:
        x = rng.standard_normal((dim - m, dim)) + 1j * rng.standard_normal((dim - m, dim))
        x -= (x @ a.conj().T) @ a
        q, r = np.linalg.qr(x.conj().T)
        comp = q.conj().T
        # one re-orthogonalization pass guards against near-rank-deficient draws
        comp -= (comp @ a.conj().T) @ a
        comp, _ = np.linalg.qr(comp.conj().T)
        comp = comp.conj().T
        others = [i for i in range(dim) if i not in set(row_positions)]
        w[others, :] = comp
    uni = np.abs(w @ w.conj().T - np.eye(dim)).max()
    if uni > tol:
        raise ValueError(f"completion failed unitarity check ({uni:.2e})")
    return w


def wer_full_from_solution(solution: RestoreSolution) -> np.ndarray:
    """Whole extended-receiver unitary (2**n_er) implied by a solution.

    Preserving families embed the k-block at the k-sector positions and leave
    every other sector's block as the identity; non-preserving families carry
    the full matrix already.
    """
    if solution.wer_full is not None:
        return solution.wer_full
    if solution.mode == "nonpreserving-general":
        return solution.completed_unitary
    n_er, k = solution.n_er, solution.k
    er_states = np.fromiter(k_states(n_er, k).states, dtype=np.int64)
    w = np.eye(2 ** n_er, dtype=complex)
    w[np.ix_(er_states, er_states)] = solution.completed_unitary
    return w

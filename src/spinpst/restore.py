"""Constrained synthesis of the restoring unitary W_ER.

Four solution families share one constraint set: rows a_i of W_ER must give
a_i . b_j = lambda * delta_ij on the transfer columns b_j (common lambda),
extra rows must annihilate every b_j, and the constrained rows must be
orthonormal.  Each family fixes the space W_ER acts in (``family_space``):
the preserving families act on the ER k-sector, the non-preserving ones on
the 2**n_er register.  The general modes treat the row entries as free;
their rows follow in closed form from the SVD of the transfer columns, with
lambda = sigma_min.  The circuit modes parameterize W_ER by gate angles and
minimize the stacked real/imaginary residuals from random restarts, all
restarts in one Levenberg-Marquardt solve with the restarts on a leading
array axis.  Each gate of a circuit is one batched product on the stacked
states: a dense k-sector matrix per preserving pair gate, whose 2x2 block is
n . sigma in closed form, and a 2x2 block on one register bit per
non-preserving rotation.  Per iteration, one forward and one backward sweep
give every restart's residuals and exact Jacobian (adjoint
differentiation), and one batched solve gives every restart's damped step.
In every mode lambda is the derived quantity a_0 . b_0, never a free
variable.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .basis import binom, k_states
from .dynamics import TransferBlock
from .gates import HADAMARD, _bit_split, _cnot_perm

GENERAL_MODES = ("preserving-general", "nonpreserving-general")
CIRCUIT_MODES = ("circuit-preserving", "circuit-nonpreserving")
PRESERVING_MODES = ("preserving-general", "circuit-preserving")
DEFAULT_TOL = 1e-10
DEFAULT_RESTARTS_CIRCUIT = 1000
LM_MU0 = 1e-3              # initial damping relative to max diag J^T J
LM_XTOL = 1e-14            # a restart stops when |step| <= LM_XTOL (|x| + LM_XTOL)
LM_MAX_ITERATIONS = 500
LM_MAX_ITERATIONS_OVER = 100   # the cap when the constraints outnumber the angles


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
    form, ignore it and use ``seed`` only to pick among equally valid W_ER.
    """

    v_hat: TransferBlock
    mode: str
    n_extra_zero_rows: int | None = None
    q_layers: int = 2
    restarts: int = DEFAULT_RESTARTS_CIRCUIT
    tol: float = DEFAULT_TOL
    seed: int = 0

    def __post_init__(self):
        if self.mode not in GENERAL_MODES + CIRCUIT_MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.tol <= 0:
            raise ValueError("tolerance must be positive")
        if self.mode in CIRCUIT_MODES and self.q_layers < 1:
            raise ValueError("circuit modes need at least one layer")
        if self.restarts < 1:
            raise ValueError(f"restarts must be at least 1, got {self.restarts}")


@dataclass(frozen=True)
class RestartRecord:
    index: int
    converged: bool
    residual: float
    lam_abs: float


@dataclass(frozen=True)
class RestoreSolution:
    """Converged constrained rows, the scale factor, and a unitary completion.

    ``problem`` is the task solved: its transfer block V_hat(tau0), family
    and seed, so the solution alone fixes a protocol run.
    ``completed_unitary`` is W_ER in its family's space (``family_space``):
    the k-excitation block (dimension N^(ER)_k, sector order) for the
    preserving families, the full 2**n_er matrix for the non-preserving
    ones.  ``constrained_rows[i]`` is its row ``row_positions[i]``; the
    first N^(S)_k rows are the receiver rows (the ones the protocol
    projector selects), the rest are garbage-zeroing rows.  ``wer_full`` is
    a circuit W_ER on the whole 2**n_er register (``_register_unitary``),
    the identity outside the k-sector for the preserving family, and None
    for the general modes.  Only the benchmark checks under ``bench/`` read
    it; it goes when they next change (ROADMAP item 1).
    """

    problem: RestoreProblem
    constrained_rows: np.ndarray
    row_positions: tuple[int, ...]
    lam: complex
    residual: float
    completed_unitary: np.ndarray
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
        v = self.problem.v_hat
        out = {
            "mode": self.problem.mode,
            "n_er": v.n_er,
            "k": v.k,
            "tau": v.tau,
            "lambda": {"abs": abs(self.lam), "arg": float(np.angle(self.lam))},
            "residual": self.residual,
            "seed": self.problem.seed,
            "rows": np.stack([self.constrained_rows.real, self.constrained_rows.imag],
                             axis=-1).tolist(),
        }
        if self.circuit_params is not None:
            out["circuit_params"] = [float(x) for x in self.circuit_params]
        return out


# ---------------------------------------------------------------------------
# family spaces: transfer columns and row placement
# ---------------------------------------------------------------------------

def _register_columns(v: TransferBlock) -> np.ndarray:
    """Transfer columns V placed at the k-sector rows of the 2**n_er register."""
    b = np.zeros((2 ** v.n_er, v.columns), dtype=complex)
    b[k_states(v.n_er, v.k).states, :] = v.v_hat
    return b


def family_space(mode: str, v: TransferBlock) -> tuple[np.ndarray, list[int], list[int]]:
    """The space a family's W_ER acts in: transfer columns, receiver rows and
    zero-row candidates there.

    Preserving families act on the C(n_er, k) ER k-sector, rows given as
    sector ordinals; non-preserving families act on the 2**n_er register,
    rows given as register masks.  Receiver rows are the k-states with every
    excitation inside R (the last n_r qubits of the extended receiver),
    ordered like the receiver k-basis.  The candidates are the other k-sector
    rows in sector order (zeroing constraints act on k-excitation garbage),
    except for nonpreserving-general, whose candidates run over every sector
    of the register in excitation order.
    """
    n_er, k = v.n_er, v.k
    recv = (k_states(v.n_s, k).states << (n_er - v.n_s)).tolist()
    if mode in PRESERVING_MODES:
        recv = k_states(n_er, k).ordinals(recv).tolist()
        rest = [i for i in range(binom(n_er, k)) if i not in recv]
        return np.asarray(v.v_hat, dtype=complex), recv, rest
    sectors = range(n_er + 1) if mode == "nonpreserving-general" else (k,)
    rest = [m for j in sectors for m in k_states(n_er, j).states.tolist() if m not in recv]
    return _register_columns(v), recv, rest


def _register_unitary(mode: str, w: np.ndarray, n_er: int, k: int) -> np.ndarray:
    """W_ER on the whole 2**n_er register from W_ER in its family's space.

    A preserving family's k-block goes to the k-sector, with the identity on
    every other sector; a non-preserving W_ER is the register matrix already.
    """
    if mode not in PRESERVING_MODES:
        return w
    states = k_states(n_er, k).states
    full = np.eye(2 ** n_er, dtype=complex)
    full[np.ix_(states, states)] = w
    return full


# ---------------------------------------------------------------------------
# general modes: closed form from the SVD of the transfer columns
# ---------------------------------------------------------------------------

def _lambda_residuals(e: np.ndarray) -> np.ndarray:
    """Restoring residuals of e = rows @ b: Re and Im of e - lambda * I, lambda = e_00.

    Acts on the last two axes, so a stack of derivatives d e / d theta maps
    to Jacobian columns (the residuals are real-linear in e).
    """
    rc = (e - e[..., :1, :1] * np.eye(*e.shape[-2:])).reshape(*e.shape[:-2], -1)
    rc = rc[..., 1:]   # drop the slot defining lambda
    return np.concatenate([rc.real, rc.imag], axis=-1)


def _general_residuals(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stacked real residuals: restoring constraints then row orthonormality."""
    g = a @ a.conj().T
    iu = np.triu_indices(a.shape[0], k=1)
    return np.concatenate([_lambda_residuals(a @ b), g[iu].real, g[iu].imag,
                           g.diagonal().real - 1.0])


def _closed_form_rows(b: np.ndarray, n_extra: int,
                      rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Receiver rows with A b = sigma_min I, then ``n_extra`` rows with Z b = 0;
    also the rows that complete them to a unitary.

    With b = W S Q^dag and P a random orthonormal basis of range(W[:, n:]),
    x_j = c_j w_j + s_j p_j with c_j = sigma_min / sigma_j and s_j =
    sqrt(1 - c_j^2) gives X^dag b = sigma_min Q^dag, so the rows Q X^dag
    restore with lambda = sigma_min; the next ``n_extra`` columns of P give
    the zeroing rows.  The partners y_j = c_j p_j - s_j w_j (j < n - 1), in
    the plane of w_j and p_j, and the unused columns of P complete the rows.
    """
    d, n = b.shape
    w, sigma, qh = np.linalg.svd(b)
    g = rng.standard_normal((d - n, d - n)) + 1j * rng.standard_normal((d - n, d - n))
    p = w[:, n:] @ np.linalg.qr(g)[0]
    c = np.ones(n)
    np.divide(sigma[-1], sigma, out=c, where=sigma > 0)
    s = np.sqrt(1.0 - c[:-1] ** 2)
    x = c * w[:, :n]
    x[:, :-1] += s * p[:, :n - 1]
    y = c[:-1] * p[:, :n - 1] - s * w[:, :n - 1]
    rows = np.vstack([qh.conj().T @ x.conj().T, p[:, n - 1:n - 1 + n_extra].conj().T])
    return rows, np.vstack([y.conj().T, p[:, n - 1 + n_extra:].conj().T])


def solve_general(problem: RestoreProblem) -> RestoreSolution:
    """Solve the restoring system with unconstrained rows (either general mode).

    The rows come in closed form from the SVD of the transfer columns, so
    |lambda| = sigma_min(V) exactly; ``problem.seed`` picks the basis of the
    complement of range(V), which gives the zeroing rows and the unitary
    completion, since every such basis gives an equally valid W_ER.  The
    single restart record holds the residual, which must not exceed
    ``problem.tol``.
    """
    if problem.mode not in GENERAL_MODES:
        raise ValueError(f"solve_general does not handle mode {problem.mode!r}")
    v = problem.v_hat
    n = v.columns
    b, recv, rest = family_space(problem.mode, v)
    d = len(b)
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
    a, others = _closed_form_rows(b, n_extra, rng)
    residual = float(np.abs(_general_residuals(a, b)).max())
    lam = complex((a @ b)[0, 0])
    if residual > problem.tol:
        raise ConvergenceError(
            f"closed-form residual {residual:.2e} exceeds tol={problem.tol}", residual)
    positions = tuple(recv) + tuple(rest[:n_extra])
    completed = np.zeros((d, d), dtype=complex)
    completed[list(positions)] = a
    completed[[i for i in range(d) if i not in positions]] = others
    return RestoreSolution(problem=problem, constrained_rows=a,
                           row_positions=positions, lam=lam, residual=residual,
                           completed_unitary=completed,
                           restart_records=(RestartRecord(0, True, residual, abs(lam)),))


# ---------------------------------------------------------------------------
# circuit families
# ---------------------------------------------------------------------------

# A circuit is a sequence of gates, each one batched product on the stacked
# states r, shape (restarts, dimension, columns), in the family's space.  A
# gate (split, block) multiplies r viewed as (restarts, split, m, rest) by an
# m x m block: a fixed one, or for a tuned gate (block = its index) one per
# restart from its angles.  A gate (perm, None) maps r to r[perm[0]] and its
# transpose to r[perm[1]].  A tuned gate changes only its index pairs, so its
# derivatives are 2x2 blocks on them.

class _Circuit(NamedTuple):
    dim: int
    gates: tuple          # (split, block) or (perm, None) per gate
    tuned: np.ndarray     # (n_tuned, 1, 1) position of each tuned gate in ``gates``
    pairs: np.ndarray     # (n_tuned, n_pairs, 2) index pairs of each tuned gate
    scatter: np.ndarray | None   # preserving: flat (gate, row, column) of the pair blocks


_SZ = np.array([1.0, -1.0])   # diagonal of sigma_z
_PAULI = np.array([[0, 1, 1, 0], [0, -1j, 1j, 0], [1, 0, 0, -1]])   # sigma_x, _y, _z


@lru_cache(maxsize=None)
def _circuit(mode: str, q_layers: int, n: int, k: int,
             a_qubits: tuple[int, ...]) -> _Circuit:
    """The gate sequence of a family's circuit.

    Preserving: layer q applies the pair gate U_{j, j+1 mod n} for j = 1..n,
    j = 1 first, each a dense k-sector matrix; its pairs are the sector
    ordinals of (bit i = 0, bit j = 1) and (1, 0).  Nonpreserving, on the
    2**n register: layer q applies rz(alpha) ry(beta) rz(gamma) on every
    qubit l, a 2x2 block on bit l - 1, then CNOTs C_ij over all pairs i < j
    ((1, 2) first) as one permutation; the layers end with Hadamards on
    ``a_qubits``.
    """
    if mode == "circuit-preserving":
        sector, pairs = k_states(n, k), []
        for i in range(1, n + 1):
            j = i % n + 1
            flip = (1 << (i - 1)) | (1 << (j - 1))
            m = sector.states[sector.states & flip == 1 << (j - 1)]
            pairs.append(sector.ordinals(np.stack([m, m ^ flip], axis=-1)))
        pairs = np.array(pairs * q_layers, dtype=np.intp)
        dim, t = len(sector), np.arange(len(pairs))[:, None, None]
        scatter = (t[..., None] * dim + pairs[..., None]) * dim + pairs[..., None, :]
        return _Circuit(dim, tuple((1, g) for g in range(len(pairs))), t, pairs, scatter)
    perm = np.arange(2 ** n)
    for i, j in itertools.combinations(range(1, n + 1), 2):
        perm = perm[_cnot_perm(n, i, j)]
    gates = []
    for q in range(q_layers):
        gates += [(2 ** (n - l), q * n + l - 1) for l in range(1, n + 1)]
        gates.append(((perm, np.argsort(perm)), None))
    tuned = np.array([t for t, (_, g) in enumerate(gates) if g is not None])
    pairs = np.array([_bit_split(n, l) for l in range(1, n + 1)] * q_layers).swapaxes(1, 2)
    gates += [(2 ** (n - a), HADAMARD) for a in a_qubits]
    return _Circuit(2 ** n, tuple(gates), tuned[:, None, None], pairs, None)


def _exchange_blocks(p: np.ndarray) -> np.ndarray:
    """Pair-gate blocks on (|i=0, j=1>, |i=1, j=0>) for rows (alpha, beta), and
    their d/d(alpha, beta), shape (..., 3, 2, 2).

    The excitation-preserving gate C_ij R_i C_ji R_i^dag C_ij is R sigma_x
    R^dag on that pair, R = rz(beta) ry(alpha) rz(-beta), and the identity on
    |00> and |11>.  R turns the Bloch x axis by alpha about (-sin beta, cos
    beta, 0), so the block is the involution n . sigma with n = (cos alpha +
    sin^2 beta (1 - cos alpha), -sin beta cos beta (1 - cos alpha), -cos beta
    sin alpha); its derivatives are dn/d(alpha, beta) . sigma.
    """
    c, s = np.cos(p), np.sin(p)
    ca, cb, sa, sb = c[..., 0], c[..., 1], s[..., 0], s[..., 1]
    v, sc = 1.0 - ca, sb * cb
    n = np.empty((*ca.shape, 3, 3))   # rows n, dn/dalpha, dn/dbeta; columns x, y, z
    n[..., 0, 0], n[..., 0, 1], n[..., 0, 2] = ca + sb * sb * v, -sc * v, -cb * sa
    n[..., 1, 0], n[..., 1, 1], n[..., 1, 2] = -cb * cb * sa, -sc * sa, -cb * ca
    n[..., 2, 0], n[..., 2, 1], n[..., 2, 2] = 2.0 * sc * v, (sb * sb - cb * cb) * v, sb * sa
    return (n.reshape(-1, 3) @ _PAULI).reshape(*n.shape[:-1], 2, 2)


def _rotation_blocks(p: np.ndarray) -> np.ndarray:
    """rz(alpha) ry(beta) rz(gamma) for rows (alpha, beta, gamma), and its d/d
    of each, shape (..., 4, 2, 2); d ry/d beta = ry(beta + pi) / 2."""
    z = np.exp(-0.5j * p[..., ::2, None] * _SZ)   # diagonals of rz(alpha), rz(gamma)
    outer = z[..., 0, :, None] * z[..., 1, None, :]
    c, s = np.cos(p[..., 1] / 2.0), np.sin(p[..., 1] / 2.0)
    ry = np.empty((*c.shape, 2, 2))
    ry[..., 0, 0] = ry[..., 1, 1] = c
    ry[..., 0, 1], ry[..., 1, 0] = -s, s
    out = np.empty((*c.shape, 4, 2, 2), dtype=complex)
    u = np.multiply(outer, ry, out=out[..., 0, :, :])
    np.multiply(-0.5j * _SZ[:, None], u, out=out[..., 1, :, :])
    np.multiply(outer, ry[..., ::-1] * (0.5 * _SZ), out=out[..., 2, :, :])
    np.multiply(u, -0.5j * _SZ, out=out[..., 3, :, :])
    return out


def _products(circuit: _Circuit, mats: list, states: np.ndarray,
              transpose: bool = False) -> None:
    """states[t + 1] = G_t states[t] for every gate t, or with ``transpose``
    states[t] = G_t^T states[t + 1] from the last gate down to the second.
    ``states`` is (gates + 1, restarts, rows, columns): a product reads one
    contiguous slab and writes the next."""
    stack = states.shape[1]
    for t in range(len(mats) - 1, 0, -1) if transpose else range(len(mats)):
        src, dst = (states[t + 1], states[t]) if transpose else (states[t], states[t + 1])
        split, g = circuit.gates[t][0], mats[t]
        if g is None:
            np.take(src, split[transpose], axis=1, out=dst, mode="clip")
            continue
        g = g.swapaxes(-1, -2) if transpose else g
        view = (stack, split, g.shape[-1], -1)
        src, dst = src.reshape(view), dst.reshape(view)
        if g.shape[-1] == 2:   # a qubit's block column by column: no product per restart
            np.multiply(g[..., :1], src[:, :, :1], out=dst)
            dst += g[..., 1:] * src[:, :, 1:]
        else:
            np.matmul(g, src, out=dst)


def _forward(mode: str, circuit: _Circuit, params: np.ndarray,
             b: np.ndarray) -> tuple[np.ndarray, list, np.ndarray]:
    """The forward sweep r_t = G_t r_(t-1) from r_0 = b at the stacked
    ``params`` (restarts, n_params): the states (gates + 1, restarts, rows,
    columns), each gate's matrix (the preserving ones from one scatter of
    the pair blocks into identities), and the tuned gates' derivative blocks
    (restarts, tuned gates, angles per gate, 2, 2) in parameter order."""
    stack = len(params)
    if mode == "circuit-preserving":
        blocks = _exchange_blocks(params.reshape(stack, -1, 2))
        tuned = np.broadcast_to(np.eye(circuit.dim, dtype=complex),
                                (stack, len(circuit.gates), circuit.dim, circuit.dim)).copy()
        tuned.reshape(stack, -1)[:, circuit.scatter] = blocks[:, :, None, 0]
    else:
        blocks = _rotation_blocks(params.reshape(stack, -1, 3))
        tuned = blocks[:, :, 0]
    mats = [tuned[:, g, None] if isinstance(g, int) else g for _, g in circuit.gates]
    r = np.empty((len(mats) + 1, stack, *b.shape), dtype=complex)
    r[0] = b
    _products(circuit, mats, r)
    return r, mats, blocks[:, :, 1:]


def _circuit_sweep(problem: RestoreProblem, params: np.ndarray,
                   a_qubits: tuple[int, ...], b: np.ndarray,
                   positions: list[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lambda, residuals, exact Jacobian) of the circuits at the stacked ``params``.

    ``params`` has shape (restarts, n_params); the outputs have shapes
    (restarts,), (restarts, n_residuals) and (restarts, n_residuals,
    n_params).  ``b`` and ``positions`` are the transfer columns and the
    constrained rows in the family's space.  Adjoint differentiation: the
    forward sweep gives e = W[positions] @ b; the backward sweep carries
    l_t = E G_L ... G_(t+1), E the identity rows at ``positions``; an angle
    of G_t contributes d e = l_t dG_t r_(t-1), which needs only the rows of
    l_t^T and r_(t-1) at the gate's pairs, one gather from each sweep.
    """
    circuit = _circuit(problem.mode, problem.q_layers, problem.v_hat.n_er,
                       problem.v_hat.k, a_qubits)
    r, mats, dg = _forward(problem.mode, circuit, params, b)
    stack, n_pos = len(params), len(positions)
    e = r[-1][:, positions]
    ell = np.zeros((len(mats) + 1, stack, len(b), n_pos), dtype=complex)   # l_t^T
    ell[-1][:, positions, np.arange(n_pos)] = 1.0
    _products(circuit, mats, ell, transpose=True)
    # rows (pair i, side a) of each tuned gate's r_(t-1) and l_t^T, (a, column) flattened
    n_tuned, n_pairs = circuit.pairs.shape[:2]
    rows = (circuit.tuned * stack + np.arange(stack)[:, None, None, None]) * len(b) + circuit.pairs
    r_in, ell_out = (np.take(a.reshape(-1, a.shape[-1]), rows + t * stack * len(b), axis=0)
                     .reshape(stack, n_tuned, n_pairs, 2 * a.shape[-1])
                     for t, a in enumerate((r, ell)))
    # m[..., a, :, c, :] = (l^T rows of side a)^T (r rows of side c), summed over the pairs
    m = (ell_out.swapaxes(-1, -2) @ r_in).reshape(stack, n_tuned, 1, 2, n_pos, 2, -1)
    d = dg[..., None, None]
    de = d[..., 0, 0, :, :] * m[..., 0, :, 0, :] + d[..., 0, 1, :, :] * m[..., 0, :, 1, :]
    de += d[..., 1, 0, :, :] * m[..., 1, :, 0, :] + d[..., 1, 1, :, :] * m[..., 1, :, 1, :]
    de = _lambda_residuals(de.reshape(stack, -1, *e.shape[1:]))
    return e[:, 0, 0], _lambda_residuals(e), de.swapaxes(-1, -2)


def _circuit_unitary(mode: str, params: np.ndarray, q_layers: int, n: int, k: int,
                     a_qubits: tuple[int, ...]) -> np.ndarray:
    """W_ER of one circuit in its family's space: the identity swept through
    its gates (the k-block for the preserving family)."""
    circuit = _circuit(mode, q_layers, n, k, a_qubits)
    return _forward(mode, circuit, params[None], np.eye(circuit.dim))[0][-1, 0]


def _levenberg_marquardt(sweep, x: np.ndarray,
                         max_iterations: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimize |f(x)|^2 for every row of x at once; returns (x, lambda, f).

    ``sweep(x)`` gives (lambda, f, J) for the stacked rows of x.  Each row
    takes damped Gauss-Newton steps (J^T J + mu I) h = -J^T f with its own
    mu (Levenberg damping, mu_0 = LM_MU0 * max diag J^T J) and nu, updated
    from the gain ratio rho of actual to predicted cost reduction (Nielsen
    1999): an accepted step (rho > 0) scales mu by max(1/3, 1 - (2 rho - 1)^3),
    a rejected one by nu, which then doubles.  A row stops when its step is
    below LM_XTOL relative to |x|, or after ``max_iterations``; the damped
    normal equations of all running rows go to one batched solve.  With no
    residuals every x already solves the problem, and no row takes a step.
    """
    x = x.copy()
    lam, f, jac = sweep(x)
    cost = 0.5 * (f * f).sum(axis=1)
    mu = LM_MU0 * (jac * jac).sum(axis=1).max(axis=1)
    nu = np.full(len(x), 2.0)
    active = np.arange(len(x) if f.shape[1] else 0)
    eye = np.eye(x.shape[1])
    for _ in range(max_iterations):
        if not active.size:
            break
        jt = jac[active].swapaxes(1, 2)
        grad = (jt @ f[active, :, None])[..., 0]
        step = -np.linalg.solve(jt @ jt.swapaxes(1, 2) + mu[active, None, None] * eye,
                                grad[..., None])[..., 0]
        trial = x[active] + step
        lam_t, f_t, jac_t = sweep(trial)
        cost_t = 0.5 * (f_t * f_t).sum(axis=1)
        predicted = 0.5 * (step * (mu[active, None] * step - grad)).sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            rho = (cost[active] - cost_t) / predicted
        ok = rho > 0
        acc, rej = active[ok], active[~ok]
        x[acc], lam[acc], f[acc], jac[acc], cost[acc] = (
            trial[ok], lam_t[ok], f_t[ok], jac_t[ok], cost_t[ok])
        mu[acc] *= np.maximum(1.0 / 3.0, 1.0 - (2.0 * rho[ok] - 1.0) ** 3)
        nu[acc] = 2.0
        mu[rej] *= nu[rej]
        nu[rej] *= 2.0
        size = np.linalg.norm(x[active], axis=1)
        active = active[np.linalg.norm(step, axis=1) > LM_XTOL * (size + LM_XTOL)]
    return x, lam, f


def fit_circuit(problem: RestoreProblem) -> RestoreSolution:
    """Fit circuit parameters to the restoring constraints, best over restarts.

    Restart i starts from uniform random angles drawn from child i of
    ``SeedSequence(problem.seed)``.  All restarts run together as one
    stacked Levenberg-Marquardt solve (``_levenberg_marquardt``), each with
    its own damping and stopping test; every iteration is one stacked
    forward and backward sweep (``_circuit_sweep``) for the residuals and
    their exact Jacobian, and one batched solve of the damped normal
    equations.  A restart converges when its largest residual is within
    ``problem.tol``; converged restarts keep their own lambda (the circuit
    families do not pin it), and the returned solution is the converged one
    with the largest |lambda|, its W_ER built by sweeping the identity
    through the same gates.  Everything runs in the family's space
    (``family_space``).  An ``n_extra_zero_rows`` outside 0..(free k-sector
    rows) raises FeasibilityError.  When the real constraints outnumber the
    angles, the fit warns and stops after LM_MAX_ITERATIONS_OVER iterations.
    """
    if problem.mode not in CIRCUIT_MODES:
        raise ValueError(f"fit_circuit does not handle mode {problem.mode!r}")
    v = problem.v_hat
    n = v.columns
    b, recv, rest = family_space(problem.mode, v)
    n_extra = problem.n_extra_zero_rows or 0
    if not 0 <= n_extra <= len(rest):
        raise FeasibilityError(f"{n_extra} extra zero rows; the k-sector of "
                               f"{v.n_er} qubits admits 0..{len(rest)}")
    positions = recv + rest[:n_extra]
    per_layer = 2 if problem.mode == "circuit-preserving" else 3
    n_params = per_layer * problem.q_layers * v.n_er
    n_constraints = 2 * ((n + n_extra) * n - 1)
    over = n_constraints > n_params
    if over:
        warnings.warn(
            f"{n_constraints} real constraints exceed {n_params} parameters; "
            "the fit may only reach a least-squares residual", stacklevel=2)
    a_qubits = tuple(range(1, v.n_er - v.n_s + 1))

    seeds = np.random.SeedSequence(problem.seed).spawn(problem.restarts)
    x0 = np.array([np.random.default_rng(s).uniform(0.0, 2.0 * np.pi, n_params)
                   for s in seeds])
    x, lam, f = _levenberg_marquardt(
        lambda p: _circuit_sweep(problem, p, a_qubits, b, positions), x0,
        LM_MAX_ITERATIONS_OVER if over else LM_MAX_ITERATIONS)
    res = np.abs(f).max(axis=1, initial=0.0)
    records = tuple(RestartRecord(i, bool(res[i] <= problem.tol), float(res[i]),
                                  float(abs(lam[i]))) for i in range(len(x)))
    converged = [r for r in records if r.converged]
    if not converged:
        raise ConvergenceError(
            f"no circuit restart of {len(records)} reached tol={problem.tol}",
            float(res.min()))
    best = min(converged, key=lambda r: (-r.lam_abs, r.residual, r.index)).index

    w = _circuit_unitary(problem.mode, x[best], problem.q_layers, v.n_er, v.k, a_qubits)
    return RestoreSolution(problem=problem, constrained_rows=w[positions],
                           row_positions=tuple(positions), lam=complex(lam[best]),
                           residual=float(res[best]), completed_unitary=w,
                           restart_records=records, circuit_params=x[best],
                           wer_full=_register_unitary(problem.mode, w, v.n_er, v.k))

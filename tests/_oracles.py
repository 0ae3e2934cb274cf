"""Independent brute-force constructions used as test oracles.

Everything here is built from first principles (Pauli matrices, Kronecker
products, dense matrix exponentials, hand-expanded determinants, a damped
least-squares search over restoring rows, loop-built sector Hamiltonians,
dipole couplings of arbitrary site coordinates,
gate-by-gate circuit unitaries) and never calls the code paths it checks.
The paper's forms that the package replaced live here too: the pair gate
R sigma_x R^dag from stacked 2x2 products (the package writes it as n .
sigma), the |lambda|^2 polynomial from determinants with its
companion-matrix roots (the package takes the Gram spectrum), the Gram
spectrum from LAPACK's Hermitian eigensolver (the package runs its own
Jacobi kernel), the scan's Grams from complex transfer blocks and a
batched v^H v (the package takes column dots of real planes), the
mirror-parity blocks gathered from the dense sector block (the package
sums them from the hop list), the dimensionality feasibility test, transfer blocks cut
from a full sector propagator, the full-space Hamiltonian as the direct sum
of the package's sector blocks, and the gate-level composition of the four
protocol variants over the 2**N space with their value/pattern cascades
(the package runs them in the k-sector), and the excitation-sorted full
basis with its size guard.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.optimize import least_squares

from spinpst.basis import binom, embed_subsystem, k_states, mirror_ordinals
from spinpst.chain import CouplingMatrix, Partition, hamiltonian_block
from spinpst.dynamics import (TransferBlock, TransferMap, _step_nodes, propagator,
                              sector_eigensystem)
from spinpst.restore import _register_unitary

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

IMAG_RESIDUE_TOL = 1e-10
ROOT_IMAG_TOL = 1e-9
ROOT_CLUSTER_TOL = 1e-4
ROOT_RANGE_SLACK = 1e-9
FULL_SPACE_GUARD = 14


def full_basis(n: int) -> tuple[int, ...]:
    """All 2**n bitmasks sorted by excitation number, then lexicographically."""
    if n > FULL_SPACE_GUARD:
        raise ValueError(f"full basis guarded to n <= {FULL_SPACE_GUARD}, got n={n}")
    out: list[int] = []
    for k in range(n + 1):
        out.extend(k_states(n, k).states.tolist())
    return tuple(out)


def site_operator(op: np.ndarray, site: int, n: int) -> np.ndarray:
    """Embed a one-site operator; site q lives on bit q-1 of the index."""
    out = np.array([[1.0 + 0j]])
    for q in range(n, 0, -1):
        out = np.kron(out, op if q == site else I2)
    return out


def dipole_couplings(positions) -> CouplingMatrix:
    """D_ij = 1 / |x_i - x_j|**3 of a chain with the given distinct site
    coordinates, made exactly symmetric as ``chain.build_couplings`` does."""
    pos = np.asarray(positions, dtype=float)
    r = np.abs(pos[:, None] - pos[None, :])
    with np.errstate(divide="ignore"):
        d = 1.0 / r ** 3
    np.fill_diagonal(d, 0.0)
    return CouplingMatrix(d=(d + d.T) / 2.0)


def pauli_xx_hamiltonian(d: np.ndarray) -> np.ndarray:
    """Full 2**n x 2**n flip-flop Hamiltonian from spin-1/2 operators."""
    n = d.shape[0]
    dim = 2 ** n
    h = np.zeros((dim, dim), dtype=complex)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if d[i - 1, j - 1] == 0:
                continue
            ix_i, iy_i = site_operator(SX, i, n) / 2, site_operator(SY, i, n) / 2
            ix_j, iy_j = site_operator(SX, j, n) / 2, site_operator(SY, j, n) / 2
            h += d[i - 1, j - 1] * (ix_i @ ix_j + iy_i @ iy_j)
    return h


def restrict_to_sector(h_full: np.ndarray, masks) -> np.ndarray:
    idx = np.asarray(list(masks), dtype=np.int64)
    return h_full[np.ix_(idx, idx)]


def expm_propagator(h: np.ndarray, tau: float) -> np.ndarray:
    return scipy.linalg.expm(-1j * h * tau)


def hamiltonian_block_loop(d: np.ndarray, k: int) -> np.ndarray:
    """k-excitation XX block, one hop i -> j at a time (lexicographic k-states).

    Every state, occupied site i and empty site j adds D_ij / 2 at (target,
    source), in this order, as a pure-Python loop.
    """
    n = d.shape[0]
    states = [sum(1 << q for q in c) for c in itertools.combinations(range(n), k)]
    index = {m: a for a, m in enumerate(states)}
    h = np.zeros((len(states), len(states)))
    for a, m in enumerate(states):
        occ = [q for q in range(n) if (m >> q) & 1]
        for i in occ:
            for j in range(n):
                if (m >> j) & 1 or j == i:
                    continue
                h[index[(m ^ (1 << i)) | (1 << j)], a] += d[i, j] / 2.0
    return h


def cubic_from_gram(g: np.ndarray) -> np.ndarray:
    """Hand-expanded degree-3 polynomial in x = |lambda|**2, monic descending.

    Expansion of x*det(G'-xI) - det(G-x*diag(1,1,0)) for a 3x3 Gram matrix;
    the cyclic product term carries the factor two required for consistency
    with the determinant form (both cyclic orientations contribute).
    """
    assert g.shape == (3, 3)
    g00, g11, g22 = (g[i, i].real for i in range(3))
    a01, a02, a12 = abs(g[0, 1]) ** 2, abs(g[0, 2]) ** 2, abs(g[1, 2]) ** 2
    cyc = (g[0, 1] * g[1, 2] * g[2, 0]).real
    c2 = -(g00 + g11 + g22)
    c1 = g00 * g11 + g00 * g22 + g11 * g22 - a01 - a02 - a12
    c0 = a02 * g11 + a12 * g00 + a01 * g22 - g00 * g11 * g22 - 2.0 * cyc
    return np.array([1.0, c2, c1, c0])


@dataclass(frozen=True)
class GramData:
    """Hermitian PSD matrix of transfer-column inner products b_i^dag b_j."""

    g: np.ndarray

    @property
    def size(self) -> int:
        return self.g.shape[0]


@dataclass(frozen=True)
class LambdaPolynomial:
    """Monic real polynomial in x = |lambda|^2, coefficients descending."""

    coeffs: np.ndarray   # length degree+1, coeffs[0] == 1

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def gram(v_hat: TransferBlock | np.ndarray) -> GramData:
    """Gram matrix of the transfer-block columns."""
    v = v_hat.v_hat if isinstance(v_hat, TransferBlock) else np.asarray(v_hat)
    return GramData(g=v.conj().T @ v)


def lapack_singular_values(grams: np.ndarray) -> np.ndarray:
    """Ascending singular values behind a stack of Grams: sqrt(eigvalsh(G)), negatives clipped."""
    return np.sqrt(np.clip(np.linalg.eigvalsh(grams), 0.0, None))


def block_gram_batch(tm: TransferMap, taus: np.ndarray, step: float) -> np.ndarray:
    """(n, s, s) Grams on the grid taus[0] + step j by a complex block and batched v^H v.

    The package's former scan route on one interpolated block: the node
    block ``node_phases @ (base * K)`` as one complex GEMM, spread over the
    grid by the Lagrange matrix, and one (s x r)(r x s) product per grid
    point.  It shares the base phases and the step table with
    ``TransferMap.gram_batch``, not its arithmetic.
    """
    lam = tm.eig.eigenvalues
    offsets, interp = _step_nodes(len(taus), step, float(np.abs(lam).max()))
    nodes = np.exp(-1j * np.outer(offsets, lam)) @ (
        np.exp(-1j * lam * taus[0])[:, None] * tm._khatri_rao)
    v = (interp @ nodes.view(float)).view(complex).reshape(-1, tm.n_er_k, tm.n_s_k)
    return v.conj().transpose(0, 2, 1) @ v


def gathered_parity_blocks(couplings: CouplingMatrix, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The even and odd mirror-parity blocks of the k-sector, gathered from the dense block.

    The package's former construction: with a the first state of each
    mirror pair, b = Ja its image and the fixed states last, the pair blocks
    of H_sym = (H + JHJ)/2 are summed from ``np.ix_`` gathers of the dense
    ``hamiltonian_block``.
    """
    h = hamiltonian_block(couplings, k)
    mirror = mirror_ordinals(couplings.n_sites, k)
    ordinal = np.arange(len(mirror))
    a, fixed = ordinal[ordinal < mirror], ordinal[ordinal == mirror]
    b = mirror[a]
    same = h[np.ix_(a, a)] + h[np.ix_(b, b)]
    cross = h[np.ix_(a, b)] + h[np.ix_(b, a)]
    pair_fixed = (h[np.ix_(a, fixed)] + h[np.ix_(b, fixed)]) / np.sqrt(2)
    even = np.block([[(same + cross) / 2, pair_fixed],
                     [pair_fixed.T, h[np.ix_(fixed, fixed)]]])
    return even, (same - cross) / 2


def gram_stack(diag: np.ndarray, upper) -> np.ndarray:
    """(n, s, s) Hermitian Grams from ``TransferMap.gram_batch``'s parts: the (s, n)
    real diagonal and the strict upper triangle, pairs in ``itertools.combinations`` order."""
    s, n = np.shape(diag)
    g = np.zeros((n, s, s), dtype=complex)
    g[:, range(s), range(s)] = np.transpose(diag)
    for (i, j), entry in zip(itertools.combinations(range(s), 2), upper, strict=True):
        g[:, i, j], g[:, j, i] = entry, np.conj(entry)
    return g


def gram_parts(grams: np.ndarray) -> tuple[np.ndarray, list]:
    """``gram_stack`` inverted: the (s, B) real diagonal and the upper triangle of a
    (B, s, s) stack of Grams, as fresh arrays that ``scale.jacobi_eigenvalues`` may rotate."""
    return grams.diagonal(0, 1, 2).real.T.copy(), [
        grams[:, i, j].copy() for i, j in itertools.combinations(range(grams.shape[-1]), 2)]


def plane_gram_parts(v: np.ndarray) -> tuple[np.ndarray, list]:
    """``TransferMap.gram_batch``'s Gram arithmetic, written out, on an (n, r, s) stack of
    blocks: real planes (column, re/im, row; grid point last) and dots down their columns."""
    planes = np.stack([v.real, v.imag]).transpose(3, 0, 2, 1).copy()
    cols = planes.reshape(len(planes), -1, len(v))
    return np.einsum("cij,cij->cj", cols, cols), [
        np.einsum("ij,ij->j", cols[p], cols[q])
        + 1j * (np.einsum("ij,ij->j", planes[p, 0], planes[q, 1])
                - np.einsum("ij,ij->j", planes[p, 1], planes[q, 0]))
        for p, q in itertools.combinations(range(len(planes)), 2)]


def lambda_polynomial(g: GramData | np.ndarray) -> LambdaPolynomial:
    """The paper's monic polynomial for x = |lambda|^2 from a Gram matrix.

    Coefficients are recovered by evaluating x*det(G'-xI) - det(G-xE) at
    Chebyshev nodes (E = diag(1,..,1,0)) and solving the Vandermonde system;
    determinants use pivoted LU.  Imaginary residue beyond tolerance, or a
    non-Hermitian input, is an error.
    """
    gm = g.g if isinstance(g, GramData) else np.asarray(g, dtype=complex)
    if gm.ndim != 2 or gm.shape[0] != gm.shape[1]:
        raise ValueError("Gram matrix must be square")
    herm = np.abs(gm - gm.conj().T).max() if gm.size else 0.0
    if herm > 1e-10:
        raise ValueError(f"Gram matrix is not Hermitian (residual {herm:.2e})")
    n = gm.shape[0]
    lead = gm[: n - 1, : n - 1]
    e_last = np.ones(n)
    e_last[-1] = 0.0
    # n+1 Chebyshev nodes on [0, 1+trace] cover the root range with margin
    span = 1.0 + float(np.real(np.trace(gm)))
    j = np.arange(n + 1)
    nodes = 0.5 * span * (1.0 + np.cos((2 * j + 1) * np.pi / (2 * (n + 1))))

    def p(x: float) -> complex:
        d1 = np.linalg.det(lead - x * np.eye(n - 1)) if n > 1 else 1.0
        d2 = np.linalg.det(gm - x * np.diag(e_last))
        return x * d1 - d2

    vals = np.array([p(x) for x in nodes])
    imag = np.abs(vals.imag).max()
    if imag > IMAG_RESIDUE_TOL * max(1.0, np.abs(vals).max()):
        raise ValueError(f"polynomial evaluations not real (residue {imag:.2e})")
    vander = np.vander(nodes, n + 1)          # columns x^n .. x^0
    coeffs = np.linalg.solve(vander, vals.real)
    coeffs = coeffs / coeffs[0]               # leading coefficient is +-1 exactly
    return LambdaPolynomial(coeffs=coeffs)


def real_roots(poly: LambdaPolynomial | np.ndarray) -> np.ndarray:
    """Real roots x of the polynomial in [0, 1], mapped to |lambda| = sqrt(x).

    Roots are located as companion-matrix eigenvalues.  A repeated real root
    splits numerically into a near-real conjugate cluster (radius eps**(1/m)
    for multiplicity m), so conjugate pairs closer than a cluster tolerance
    to the real axis are realified with their multiplicity kept; isolated
    roots farther from the axis than the strict tolerance are dropped.
    """
    coeffs = poly.coeffs if isinstance(poly, LambdaPolynomial) else np.asarray(poly)
    rts = np.roots(coeffs)
    keep: list[float] = []
    used = np.zeros(len(rts), dtype=bool)
    for i, r in enumerate(rts):
        if used[i]:
            continue
        used[i] = True
        if abs(r.imag) < ROOT_IMAG_TOL:
            keep.append(r.real)
            continue
        if abs(r.imag) < ROOT_CLUSTER_TOL:
            for j in range(i + 1, len(rts)):
                if not used[j] and abs(rts[j] - r.conjugate()) < 2 * ROOT_CLUSTER_TOL:
                    used[j] = True
                    keep.extend([r.real, rts[j].real])
                    break
    x = np.asarray(keep)
    x = x[(x > -ROOT_RANGE_SLACK) & (x < 1.0 + ROOT_RANGE_SLACK)]
    return np.sort(np.sqrt(np.clip(x, 0.0, 1.0)))


@dataclass(frozen=True)
class Feasibility:
    """Dimensionality check for the restoring system."""

    feasible: bool
    n_er_k: int
    required_min: int          # 2*N^(S)_k - 1
    counting_bound: float      # weaker variable-count bound


def feasibility(n_er: int, n_s: int, k: int) -> Feasibility:
    """Check N^(ER)_k >= 2*N^(S)_k - 1 and report the counting bound too."""
    n_er_k = binom(n_er, k) if k <= n_er else 0
    n_s_k = binom(n_s, k)
    required = 2 * n_s_k - 1
    counting = 1.5 * n_s_k - 1.0 / n_s_k
    return Feasibility(feasible=n_er_k >= required, n_er_k=n_er_k,
                       required_min=required, counting_bound=counting)


def transfer_block(v_k: np.ndarray, partition: Partition, k: int,
                   tau: float = float("nan")) -> TransferBlock:
    """Extract the S -> ER block from a full k-sector propagator matrix.

    Rows are indexed by ER-local k-states (all excitations inside the extended
    receiver, rest of the chain ground), columns by sender-local k-states,
    both in sector-basis order.
    """
    n = partition.n_sites
    dim = len(k_states(n, k))
    if v_k.shape != (dim, dim):
        raise ValueError(f"propagator shape {v_k.shape} does not match "
                         f"sector dimension {dim}")
    v_hat = v_k[np.ix_(embed_subsystem(partition.er_sites, n, k),
                       embed_subsystem(partition.sender_sites, n, k))]
    return TransferBlock(v_hat=v_hat, tau=tau, n_sites=n,
                         n_s=partition.n_s, n_er=partition.n_er, k=k)


def hamiltonian_full(couplings: CouplingMatrix) -> np.ndarray:
    """Direct sum of all sector blocks in the excitation-sorted full basis."""
    n = couplings.n_sites
    if n > FULL_SPACE_GUARD:
        raise ValueError(f"dense full-space assembly guarded to n <= {FULL_SPACE_GUARD}")
    h = np.zeros((2 ** n, 2 ** n), dtype=complex)
    off = 0
    for k in range(n + 1):
        blk = hamiltonian_block(couplings, k)
        h[off:off + len(blk), off:off + len(blk)] = blk
        off += len(blk)
    return h


def excitation_sort_permutation(n: int) -> np.ndarray:
    """Permutation p with p[j] = computational-basis index of excitation-sorted state j."""
    return np.fromiter(full_basis(n), dtype=np.int64)


def finite_difference_jacobian(fun, x0: np.ndarray, eps: float = 1e-7) -> np.ndarray:
    f0 = fun(x0)
    jac = np.empty((f0.size, x0.size))
    for i in range(x0.size):
        xp = x0.copy()
        xp[i] += eps
        xm = x0.copy()
        xm[i] -= eps
        jac[:, i] = (fun(xp) - fun(xm)) / (2 * eps)
    return jac


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------------------
# restoring rows by damped least squares (the general modes' search form)
# ---------------------------------------------------------------------------

def restoring_columns(v: np.ndarray, n_er: int, k: int, mode: str) -> np.ndarray:
    """Transfer columns b the restoring rows act on: the k-sector block itself
    (preserving-general) or that block placed at the lexicographic k-state
    masks of the 2**n_er register (nonpreserving-general)."""
    if mode == "preserving-general":
        return np.asarray(v, dtype=complex)
    masks = [sum(1 << q for q in c) for c in itertools.combinations(range(n_er), k)]
    b = np.zeros((2 ** n_er, v.shape[1]), dtype=complex)
    b[masks] = v
    return b


def restoring_residuals(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Stacked real residuals: restoring constraints then row orthonormality."""
    m = a.shape[0]
    e = a @ b
    lam = e[0, 0]
    target = np.zeros_like(e)
    for j in range(min(n, m)):
        target[j, j] = lam
    rc = (e - target).ravel()[1:]          # drop the (0,0) slot defining lambda
    g = a @ a.conj().T
    iu = np.triu_indices(m, k=1)
    ro_off = g[iu]
    ro_diag = g.diagonal().real - 1.0
    return np.concatenate([rc.real, rc.imag, ro_off.real, ro_off.imag, ro_diag])


def restoring_jacobian(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Analytic Jacobian of :func:`restoring_residuals` w.r.t. [Re(A), Im(A)]."""
    m, d = a.shape
    ncols = b.shape[1]
    n_c = m * ncols - 1
    iu0, iu1 = np.triu_indices(m, k=1)
    n_off = len(iu0)
    n_res = 2 * n_c + 2 * n_off + m
    jac = np.zeros((n_res, 2 * m * d))

    # constraint rows: r_{ij} = (A B)_{ij} - delta_ij (A B)_{00}
    pairs = [(i, j) for i in range(m) for j in range(ncols)][1:]
    for row, (i, j) in enumerate(pairs):
        c = np.zeros((m, d), dtype=complex)
        c[i, :] = b[:, j]
        if i == j and i < n:
            c[0, :] -= b[:, 0]
        cre = c.ravel()
        jac[row, :m * d] = cre.real
        jac[row, m * d:] = -cre.imag
        jac[row + n_c, :m * d] = cre.imag
        jac[row + n_c, m * d:] = cre.real

    # off-diagonal orthonormality: G_{ij} = sum_l A_il conj(A_jl), i < j
    base = 2 * n_c
    for t, (i, j) in enumerate(zip(iu0, iu1)):
        alpha = np.zeros((m, d), dtype=complex)   # d/dRe
        beta = np.zeros((m, d), dtype=complex)    # d/dIm
        alpha[i, :] += a[j, :].conj()
        alpha[j, :] += a[i, :]
        beta[i, :] += 1j * a[j, :].conj()
        beta[j, :] += -1j * a[i, :]
        jac[base + t, :m * d] = alpha.ravel().real
        jac[base + t, m * d:] = beta.ravel().real
        jac[base + n_off + t, :m * d] = alpha.ravel().imag
        jac[base + n_off + t, m * d:] = beta.ravel().imag

    # diagonal orthonormality: G_{ii} - 1 (real)
    base = 2 * n_c + 2 * n_off
    for i in range(m):
        jac[base + i, i * d:(i + 1) * d] = 2.0 * a[i, :].real
        jac[base + i, m * d + i * d:m * d + (i + 1) * d] = 2.0 * a[i, :].imag
    return jac


def pack_rows(a: np.ndarray) -> np.ndarray:
    return np.concatenate([a.real.ravel(), a.imag.ravel()])


def unpack_rows(p: np.ndarray, m: int, d: int) -> np.ndarray:
    h = m * d
    return (p[:h] + 1j * p[h:]).reshape(m, d)


def least_squares_rows(b: np.ndarray, n: int, m: int,
                       rng: np.random.Generator) -> tuple[np.ndarray, float]:
    """One restart: m restoring rows from orthonormalized Gaussian rows.

    Returns the rows and their largest absolute residual; the caller decides
    whether that converged.
    """
    d = b.shape[0]
    x = rng.standard_normal((d, m)) + 1j * rng.standard_normal((d, m))
    a0 = np.linalg.qr(x)[0].conj().T

    def fun(p):
        return restoring_residuals(unpack_rows(p, m, d), b, n)

    def jac(p):
        return restoring_jacobian(unpack_rows(p, m, d), b, n)

    sol = least_squares(fun, pack_rows(a0), jac=jac, method="trf", tr_solver="lsmr",
                        xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=400)
    res = float(np.abs(fun(sol.x)).max())
    if res > 1e-10:  # polish near-converged candidates once more
        sol = least_squares(fun, sol.x, jac=jac, method="trf", tr_solver="lsmr",
                            xtol=1e-16, ftol=1e-16, gtol=1e-16, max_nfev=200)
        res = float(np.abs(fun(sol.x)).max())
    return unpack_rows(sol.x, m, d), res


def least_squares_lambda(b: np.ndarray, n: int, m: int, seed: int,
                         tol: float = 1e-10, restarts: int = 8) -> float:
    """|lambda| of the first restart (seeds split off ``seed``) within ``tol``."""
    best = np.inf
    for child in np.random.SeedSequence(seed).spawn(restarts):
        a, res = least_squares_rows(b, n, m, np.random.default_rng(child))
        if res <= tol:
            return abs((a @ b)[0, 0])
        best = min(best, res)
    raise AssertionError(f"no least-squares restart of {restarts} reached "
                         f"tol={tol} (best {best:.2e})")


# ---------------------------------------------------------------------------
# circuit unitaries gate by gate (the circuit families' reference form)
# ---------------------------------------------------------------------------

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)


def rz(angle: float) -> np.ndarray:
    """z-rotation exp(-i sigma_z angle / 2)."""
    return np.array([[np.exp(-0.5j * angle), 0], [0, np.exp(0.5j * angle)]])


def ry(angle: float) -> np.ndarray:
    """y-rotation exp(-i sigma_y angle / 2)."""
    c, s = np.cos(angle / 2.0), np.sin(angle / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def apply_single(mat: np.ndarray, u2: np.ndarray, qubit: int, n: int) -> np.ndarray:
    """Left-multiply ``mat`` (2**n rows) by a one-qubit gate; qubit q is bit q-1."""
    idx = np.arange(2 ** n)
    i0 = idx[((idx >> (qubit - 1)) & 1) == 0]
    i1 = i0 | (1 << (qubit - 1))
    out = np.empty_like(mat, dtype=complex)
    m0, m1 = mat[i0], mat[i1]
    out[i0] = u2[0, 0] * m0 + u2[0, 1] * m1
    out[i1] = u2[1, 0] * m0 + u2[1, 1] * m1
    return out


def apply_cnot(mat: np.ndarray, control: int, target: int, n: int) -> np.ndarray:
    """Left-multiply by CNOT (flip ``target`` where ``control`` is excited)."""
    idx = np.arange(2 ** n)
    ctrl = (idx >> (control - 1)) & 1
    return mat[np.where(ctrl == 1, idx ^ (1 << (target - 1)), idx)]


def u_pair(state: np.ndarray, i: int, j: int, alpha: float, beta: float,
           n: int) -> np.ndarray:
    """Excitation-preserving two-qubit block C_ij R_i C_ji R_i^dag C_ij."""
    r = rz(beta) @ ry(alpha) @ rz(-beta)
    out = apply_cnot(state, i, j, n)
    out = apply_single(out, r.conj().T, i, n)
    out = apply_cnot(out, j, i, n)
    out = apply_single(out, r, i, n)
    return apply_cnot(out, i, j, n)


def exchange_blocks_product_form(alpha: np.ndarray,
                                 beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pair gate's block R sigma_x R^dag on (|i=0, j=1>, |i=1, j=0>), with
    R = rz(beta) ry(alpha) rz(-beta), and its d/d(alpha, beta), from stacked
    2x2 products, shapes (..., 2, 2) and (..., 2, 2, 2).

    R_ab = z_a ry_ab conj(z_b) with z the diagonal of rz(beta), so d R / d
    alpha = z_a ry(alpha + pi)_ab conj(z_b) / 2 and d R / d beta = -i/2
    (s_a - s_b) R_ab for s = (1, -1) the diagonal of sigma_z; d(R sigma_x
    R^dag) = K + K^dag with K = dR sigma_x R^dag.  The package writes the
    block as n . sigma in closed form.
    """
    def ry_blocks(angle):
        c, s = np.cos(angle / 2.0), np.sin(angle / 2.0)
        return np.stack([c, -s, s, c], axis=-1).reshape(*angle.shape, 2, 2)

    sz = np.array([1.0, -1.0])
    z = np.exp(-0.5j * beta[..., None] * sz)
    phase = z[..., :, None] * z.conj()[..., None, :]
    r = phase * ry_blocks(alpha)
    dr = np.stack([phase * ry_blocks(alpha + np.pi) / 2.0,
                   -0.5j * (sz[:, None] - sz[None, :]) * r], axis=-3)
    r_dag = r.conj().swapaxes(-1, -2)
    k = dr[..., ::-1] @ r_dag[..., None, :, :]
    return r[..., ::-1] @ r_dag, k + k.conj().swapaxes(-1, -2)


def build_circuit_preserving(params, q_layers: int, n_er: int) -> np.ndarray:
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
            w = u_pair(w, j, jj, p[q, j - 1, 0], p[q, j - 1, 1], n_er)
    return w


def build_circuit_nonpreserving(params, q_layers: int, n_er: int,
                                a_qubits) -> np.ndarray:
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


# ---------------------------------------------------------------------------
# gate-level full-space protocol composition (the paper's form of the four
# protocol variants; site q <-> bit q-1 of the computational index)
# ---------------------------------------------------------------------------

def sites_mask(sites) -> int:
    m = 0
    for q in sites:
        m |= 1 << (q - 1)
    return m


def value_mask(value: int, sites) -> int:
    """Computational mask of register value ``value`` laid out on ``sites``."""
    m = 0
    for b, q in enumerate(sites):
        if (value >> b) & 1:
            m |= 1 << (q - 1)
    return m


def k_pattern_masks(sub_sites, k: int) -> list[int]:
    """Chain masks of the subsystem k-patterns, in subsystem k-basis order."""
    return [sites_mask(sub_sites[b] for b in range(len(sub_sites)) if (m >> b) & 1)
            for m in k_states(len(sub_sites), k).states]


def parity_flip_matches(masks, indices_or_n) -> np.ndarray:
    """Boolean array: odd number of control patterns fully excited per index.

    Equivalent to the product of one multi-controlled flip per pattern; inside
    a k-sector at most one k-qubit pattern can match, recovering plain
    projector semantics.
    """
    if isinstance(indices_or_n, int):
        idx = np.arange(2 ** indices_or_n, dtype=np.int64)
    else:
        idx = np.asarray(indices_or_n, dtype=np.int64)
    flips = np.zeros(idx.shape, dtype=bool)
    for m in masks:
        flips ^= (idx & m) == m
    return flips


def value_controlled_pattern_flips(n: int, value_sites, pattern_masks) -> np.ndarray:
    """Permutation of the cascade "if register == j, flip pattern_masks[j]".

    One controlled operator per register value, all commuting; with a pattern
    for every value the composite reduces to a single XOR per basis state.
    Returns ``perm`` with ``new[perm[m]] = old[m]``.
    """
    value_sites = tuple(value_sites)
    if len(pattern_masks) != 2 ** len(value_sites):
        raise ValueError("need one pattern per register value")
    idx = np.arange(2 ** n, dtype=np.int64)
    vals = np.zeros(2 ** n, dtype=np.int64)
    for b, q in enumerate(value_sites):
        vals |= ((idx >> (q - 1)) & 1) << b
    return idx ^ np.asarray(pattern_masks, dtype=np.int64)[vals]


def pattern_controlled_value_flips(n: int, pattern_masks, value_sites) -> np.ndarray:
    """Permutation of the cascade "if pattern j fully excited, XOR j into register".

    The per-pattern operators commute (diagonal controls, targets off the
    control sites); they are composed sequentially so states matching several
    patterns (possible off-sector) accumulate every XOR.
    """
    value_sites = tuple(value_sites)
    perm = np.arange(2 ** n, dtype=np.int64)
    for j, pat in enumerate(pattern_masks):
        matched = (perm & pat) == pat
        perm = np.where(matched, perm ^ value_mask(j, value_sites), perm)
    return perm


def exact_value_controlled_pattern_flips(n: int, value_sites,
                                         pattern_masks) -> np.ndarray:
    """Permutation of the cascade "if register == j exactly, flip pattern j".

    Like :func:`value_controlled_pattern_flips` but defined for fewer
    patterns than register values (unmatched values pass through).
    """
    value_sites = tuple(value_sites)
    all_mask = sites_mask(value_sites)
    perm = np.arange(2 ** n, dtype=np.int64)
    for j, pat in enumerate(pattern_masks):
        matched = (perm & all_mask) == value_mask(j, value_sites)
        perm = np.where(matched, perm ^ pat, perm)
    return perm


def apply_perm(amps: np.ndarray, perm: np.ndarray) -> np.ndarray:
    out = np.empty_like(amps)
    out[perm] = amps
    return out


def swap_flag(amps: np.ndarray, matched: np.ndarray, axis: int) -> np.ndarray:
    """Flip the two values of one trailing qubit axis on matched chain rows."""
    out = amps.copy()
    moved = np.moveaxis(out, axis, 1)
    moved[matched] = moved[matched][:, ::-1]
    return out


def evolve_full(amps: np.ndarray, couplings: CouplingMatrix, tau: float) -> np.ndarray:
    """Apply the block-diagonal propagator to a computational-order full vector."""
    n = couplings.n_sites
    flat = amps.reshape(2 ** n, -1)
    out = flat.copy()
    for k in range(n + 1):
        idx = k_states(n, k).states
        sub = flat[idx]
        if np.linalg.norm(sub) < 1e-15:
            continue
        out[idx] = propagator(sector_eigensystem(couplings, k), tau) @ sub
    return out.reshape(amps.shape)


def wer_full_from_solution(solution) -> np.ndarray:
    """Whole extended-receiver unitary (2**n_er) of a restoring solution.

    A preserving family's k-block is embedded with the identity on every
    other sector; a non-preserving solution carries the register matrix.
    """
    v = solution.problem.v_hat
    return _register_unitary(solution.problem.mode, solution.completed_unitary, v.n_er, v.k)


def apply_wer_full_space(amps: np.ndarray, w_er: np.ndarray, n_sites: int,
                         n_er: int) -> np.ndarray:
    """Apply a 2**n_er unitary to the extended receiver (the top qubits)."""
    mat = amps.reshape(2 ** n_er, -1)
    return (w_er @ mat).reshape(amps.shape)


def full_space_protocol(variant: str, couplings: CouplingMatrix, partition: Partition,
                        k: int, s, w, tau0: float) -> tuple[float, np.ndarray]:
    """(success probability, post-selected output) of a variant over the 2**N space.

    ``s`` is the sender k-sector amplitudes, or the S0 register state for
    ``arbitrary``.  ``w`` is a restoring solution, or for ``global`` a whole
    2**N x 2**N line unitary.  The flag ancilla B is the last axis.
    """
    n = partition.n_sites
    if n > FULL_SPACE_GUARD:
        raise ValueError(f"full-space protocol guarded to n_sites <= {FULL_SPACE_GUARD}")
    s = np.asarray(s, dtype=complex) / np.linalg.norm(s)
    idx = np.arange(2 ** n, dtype=np.int64)
    s_masks = k_pattern_masks(partition.sender_sites, k)
    r_masks = k_pattern_masks(partition.receiver_sites, k)
    ancillas = (2, 2) if variant == "nonpreserving" else (2,)    # (D,) B
    amps = np.zeros((2 ** n,) + ancillas, dtype=complex)

    if variant == "arbitrary":
        s0, r0 = partition.s0_sites, partition.r0_sites
        n_vals = 2 ** len(s0)
        s_masks, r_masks = s_masks[:n_vals], r_masks[:n_vals]
        for j in range(n_vals):
            amps[value_mask(j, s0), 0] = s[j]
        # encode S0 value j into sender pattern j, then ground S0
        amps = apply_perm(amps, value_controlled_pattern_flips(n, s0, s_masks))
        amps = apply_perm(amps, pattern_controlled_value_flips(n, s_masks, s0))
    else:
        for j, mask in enumerate(s_masks):
            amps[(mask,) + (0,) * len(ancillas)] = s[j]
    amps = evolve_full(amps, couplings, tau0)

    if variant == "nonpreserving":             # D marks "all k excitations in ER"
        er_masks = k_pattern_masks(partition.er_sites, k)
        amps = swap_flag(amps, parity_flip_matches(er_masks, idx), axis=1)
    if isinstance(w, np.ndarray):
        amps = (w @ amps.reshape(2 ** n, -1)).reshape(amps.shape)
    else:
        amps = apply_wer_full_space(amps, wer_full_from_solution(w), n, partition.n_er)

    if variant == "nonpreserving":             # A ground, a receiver pattern, D set
        in_r = (idx & sites_mask(partition.receiver_sites))[:, None] == np.array(r_masks)
        matched = ((idx & sites_mask(partition.a_sites)) == 0) & in_r.any(axis=1)
        amps[:, 1] = swap_flag(amps[:, 1], matched, axis=1)
    elif variant == "global":                  # S + TL ground
        stl = sites_mask(range(1, n - partition.n_r + 1))
        amps = swap_flag(amps, (idx & stl) == 0, axis=1)
    else:
        amps = swap_flag(amps, parity_flip_matches(r_masks, idx), axis=1)

    if variant == "arbitrary":
        # decode receiver pattern j into R0 value j, then ground the receiver
        amps = apply_perm(amps, pattern_controlled_value_flips(n, r_masks, r0))
        amps = apply_perm(amps, exact_value_controlled_pattern_flips(n, r0, r_masks))
        out_masks = [value_mask(j, r0) for j in range(n_vals)]
    else:
        out_masks = r_masks
    flagged = amps[..., 1]
    prob = float(np.linalg.norm(flagged) ** 2)
    out = flagged[out_masks]
    if variant == "nonpreserving":
        out = out[:, 1]
    return prob, out / np.sqrt(prob)

"""Sector propagators and the sender-to-extended-receiver transfer block.

One eigensystem per (chain, k) pair serves every evaluation time:
V(tau) = U exp(-i Lambda tau) U^dag.  The chain's sector blocks are real
symmetric, so U is real.  A mirror-symmetric chain, as every published one
is, splits its sector block into an even and an odd block under the site
reflection, each about half the size, and diagonalises the two apart; any
other chain takes the same route with the identity as its mirror, one even
block and an empty odd one.  The transfer block collects the propagator
elements between "all excitations in the sender" and "all excitations in
the extended receiver" states, both in sector-basis order, so it reads only
those rows of U, and its map assembles and keeps only them.

A scan evaluates the block on a uniform tau grid, one block of SCAN_CHUNK
points per call.  Within a block the phases exp(-i lambda j delta) are an entire
function of the offset j delta whose band limit is max|lambda|, so a few
Chebyshev nodes carry them: the block is the transfer block at the nodes,
spread over the grid by a real Lagrange matrix, with an interpolation error
below the unit roundoff.  The scan takes the block's Gram matrices V^dag V
as parts; their spectra come from ``scale.jacobi_eigenvalues``, a cyclic
Jacobi kernel run on two chunks of Grams at once that rotates a pair
only where |g_pq| > eps sqrt(g_pp g_qq).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .basis import binom, embed_subsystem, mirror_ordinals
from .chain import CouplingMatrix, Partition, sector_hops

HERMITICITY_TOL = 1e-10
# Largest mirror asymmetry max|D - JDJ| / max|D| whose sector blocks split by
# parity.  The adjusted N=42 chain's positions come from a cumsum and sit
# at 24 eps, so 8 eps would miss it.
MIRROR_TOL = 64 * np.finfo(float).eps
# Grid points per gram_batch call in scale.scan (bounds its memory), one block of 20-21 nodes
# on the published grids.  Gram layer, full Table 1a/2 grids, N=10/30/42, 1 BLAS thread, ms:
# 4.6-7.1/11.7-13.7/19.9-28.3, against 4.4-7.2/14.0-22.6/28.8-31.7 for 512-point blocks.
SCAN_CHUNK = 2048
# Largest first-order phase error eps max|lambda| |tau| of an evaluation: tau is a
# rounded double, so a phase lambda tau, and with it V_hat and its roots, errs by
# that much.  The published windows reach 3.4e-14 (N=42, tau = 65).
MAX_PHASE_ERROR = 1e-9


@dataclass(frozen=True)
class SectorEigensystem:
    """Eigenvalues (ascending) of one k-sector Hamiltonian block and the rows of
    its eigenvectors U asked for, all of U by default; column a goes with eigenvalue a."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]


@dataclass(frozen=True)
class TransferBlock:
    """Complex N^(ER)_k x N^(S)_k block mapping sender to ER amplitudes."""

    v_hat: np.ndarray
    tau: float
    n_sites: int
    n_s: int
    n_er: int
    k: int

    @property
    def columns(self) -> int:
        return self.v_hat.shape[1]


def eigendecompose(h_block: np.ndarray) -> SectorEigensystem:
    """Diagonalize a Hermitian sector block.

    A real symmetric block gives real eigenvectors; a complex one, complex.
    The Hermiticity check runs over 64 rows at a time, so its temporaries
    stay small beside the block.
    """
    h = np.asarray(h_block)
    asym = max((np.abs(h[lo:lo + 64] - h[:, lo:lo + 64].conj().T).max()
                for lo in range(0, len(h), 64)), default=0.0)
    if asym > HERMITICITY_TOL:
        raise ValueError(f"input is not Hermitian (max asymmetry {asym:.2e})")
    evals, evecs = np.linalg.eigh(h)
    return SectorEigensystem(eigenvalues=evals, eigenvectors=evecs)


def propagator(eig: SectorEigensystem, tau: float) -> np.ndarray:
    """Unitary sector propagator at dimensionless time tau."""
    if not np.isfinite(tau):
        raise ValueError(f"tau must be finite, got {tau}")
    u = eig.eigenvectors
    phases = np.exp(-1j * eig.eigenvalues * tau)
    return (u * phases) @ u.conj().T


def sector_eigensystem(couplings: CouplingMatrix, k: int, ordinals=None) -> SectorEigensystem:
    """Eigendecomposition of the k-sector block of a chain's Hamiltonian, with
    the rows of U at the sector ``ordinals`` (all of U for None).

    J is the site reflection for a mirror-symmetric chain, max|D - JDJ| <=
    MIRROR_TOL max|D|, and the identity for any other.  The block H commutes
    with J, which pairs each state m with its image Jm.  In the basis of
    (|m> + |Jm>)/sqrt2 and the states fixed by J, and of (|m> - |Jm>)/sqrt2,
    H splits into an even and an odd block.  Both are summed from the
    symmetrised H_sym = (H + JHJ)/2, read off the sector's hop list without
    forming H, and diagonalised apart; the rows asked for are assembled from
    their eigenvectors, eigenvalues ascending as from one block.  Under the
    identity every state is fixed: the even block is H, bit for bit, and the
    odd block is 0 x 0.
    H_sym is the Hamiltonian of the couplings (D + JDJ)/2, and
    exp(-iH tau) - exp(-iH_sym tau) is an integral over [0, tau] of unitary
    factors around H - H_sym, so ||V_hat - V_hat_sym||_2 <= tau ||H - H_sym||_2.
    For the adjusted N=42 chain (k=2, max|D - JDJ| = 24 eps max|D|) that
    bound is 1.7e-13 at tau = 65, and the split and the unsplit (identity J)
    transfer blocks differ there by 5.3e-15.
    """
    d = couplings.d
    ordinal = np.arange(binom(couplings.n_sites, k))
    mirrored = np.abs(d - d[::-1, ::-1]).max() <= MIRROR_TOL * np.abs(d).max()
    mirror = mirror_ordinals(couplings.n_sites, k) if mirrored else ordinal
    parity = np.sign(mirror - ordinal)
    a, fixed = ordinal[parity > 0], ordinal[parity == 0]
    n_pairs, n_fixed = len(a), len(fixed)
    block_row = np.empty_like(mirror)
    block_row[a] = block_row[mirror[a]] = np.arange(n_pairs)
    block_row[fixed] = n_pairs + np.arange(n_fixed)
    # H[rows, cols] = values; same = H[a, a] + H[b, b] and cross = H[a, b] + H[b, a] (b = Ja)
    # give each entry at most two addends: exactly symmetric, bit for bit the gathered sums
    rows, cols, values = sector_hops(couplings, k)
    local = np.where(parity == 0, block_row - n_pairs, block_row)
    r, c, p_r, p_c = local[rows], local[cols], parity[rows], parity[cols]

    def summed(where, n_r, n_c):
        return np.bincount(r[where] * n_c + c[where], values[where],
                           minlength=n_r * n_c).reshape(n_r, n_c)
    same = summed((p_r == p_c) & (p_r != 0), n_pairs, n_pairs)
    cross = summed((p_r == -p_c) & (p_r != 0), n_pairs, n_pairs)
    pair_fixed = summed((p_r != 0) & (p_c == 0), n_pairs, n_fixed) / np.sqrt(2)
    fixed_fixed = summed((p_r == 0) & (p_c == 0), n_fixed, n_fixed)
    del rows, cols, values, r, c, p_r, p_c     # no hop array lives beside a block copy
    even_h = np.block([[(same + cross) / 2, pair_fixed], [pair_fixed.T, fixed_fixed]])
    odd_h = (same - cross) / 2
    del same, cross, fixed_fixed               # only the blocks live through eigh
    even, odd = eigendecompose(even_h), eigendecompose(odd_h)
    evals = np.concatenate([even.eigenvalues, odd.eigenvalues])
    order = np.argsort(evals, kind="stable")
    ords = ordinal if ordinals is None else np.asarray(ordinals, dtype=int)
    row, sign = block_row[ords], parity[ords]
    pair = sign != 0
    u = np.zeros((len(ords), len(evals)))
    u[:, :len(even_h)] = even.eigenvectors[row]
    u[pair, len(even_h):] = odd.eigenvectors[row[pair]] * sign[pair, None]
    u[pair] /= np.sqrt(2)
    return SectorEigensystem(eigenvalues=evals[order], eigenvectors=u[:, order])


class TransferMap:
    """Cached evaluator of the transfer block over many registration times.

    With real eigenvectors U, V_hat(tau)[r, s] = sum_a U_ER[r, a] U_S[s, a]
    exp(-i lambda_a tau), so one real Khatri-Rao factor K[a, (r, s)] =
    U_ER[r, a] U_S[s, a] turns each evaluation into a phase-vector product and
    a batch of grid points into one GEMM.  The map is the one handle on a
    chain, a partition and k that the scan, the roots and the restoring
    solves take.  ``v_hat`` at its tau and ``scale.scan`` on its window keep to
    MAX_PHASE_ERROR (``check_reach``).
    """

    def __init__(self, couplings: CouplingMatrix, partition: Partition, k: int):
        self.partition = partition
        self.k = k
        er, sender = (embed_subsystem(sites, partition.n_sites, k)
                      for sites in (partition.er_sites, partition.sender_sites))
        self.n_er_k, self.n_s_k = len(er), len(sender)
        self.eig = sector_eigensystem(couplings, k, np.concatenate([er, sender]))
        self.lam_max = float(np.abs(self.eig.eigenvalues).max(initial=0.0))
        u_er, u_s = np.split(self.eig.eigenvectors, [len(er)])
        self._khatri_rao = np.einsum("ra,sa->ars", u_er, u_s).reshape(self.eig.dim, -1)
        self._step_table: tuple = (None,)     # ((b, step), interp, node_phases)

    def check_reach(self, reach: float) -> None:
        """Raise ValueError where |tau| up to ``reach`` lets a phase lambda tau err
        by more than MAX_PHASE_ERROR, eps max|lambda| |tau| at first order, or
        where that error is NaN (a NaN tau)."""
        error = np.finfo(float).eps * self.lam_max * reach
        if not error <= MAX_PHASE_ERROR:
            raise ValueError(f"the tau window reaches {reach:g}, where a phase lambda tau errs "
                             f"by up to {error:.2g} (eps max|lambda| tau), over "
                             f"{MAX_PHASE_ERROR:g}")

    def v_hat(self, tau: float) -> TransferBlock:
        self.check_reach(abs(tau))
        phases = np.exp(-1j * self.eig.eigenvalues * tau)
        block = (phases @ self._khatri_rao).reshape(self.n_er_k, self.n_s_k)
        return TransferBlock(v_hat=block, tau=float(tau),
                             n_sites=self.partition.n_sites,
                             n_s=self.partition.n_s,
                             n_er=self.partition.n_er, k=self.k)

    def gram_batch(self, taus: np.ndarray, step: float) -> tuple[np.ndarray, list]:
        """Gram matrices V^dag V of the transfer block on the grid taus[0] + step j, as parts.

        The call is one interpolated block: V is the step table
        exp(-i lambda j delta) = ``interp @ node_phases`` (``_step_nodes``,
        kept for the next call of equal length and step) times K scaled by
        the exact base phases exp(-i lambda taus[0]): one real GEMM of the
        (Re; Im) rows of ``node_phases * base`` against K, and one spreading
        the nodes over the grid into real planes, grid point last, V[row,
        col] = planes[col, 0, row] + i planes[col, 1, row].  As the rows of U
        are unit vectors, V inherits the phases' error, below the unit
        roundoff; ``interp`` is the identity, and V exact, where the bound
        asks for as many nodes as points.  Dots down the planes' columns
        give the (s, n) real diagonal and the s(s-1)/2 complex (n,) upper
        entries for ``scale.jacobi_eigenvalues``.  A grid off
        taus[0] + step j beyond rounding raises ValueError.
        """
        taus = np.asarray(taus, dtype=float)
        n_t, r, s = len(taus), self.n_er_k, self.n_s_k
        scale = max(1.0, float(np.abs(taus).max(initial=0.0)))
        if np.abs(taus - taus[:1] - step * np.arange(n_t)).max(initial=0.0) > \
                16 * np.finfo(float).eps * scale:
            raise ValueError("gram_batch needs the uniform tau grid taus[0] + step j")
        lam, key = self.eig.eigenvalues, (n_t, step)
        if self._step_table[0] != key:
            offsets, interp = _step_nodes(*key, self.lam_max)
            self._step_table = (key, interp, np.exp(-1j * np.outer(offsets, lam)))
        _, interp, node_phases = self._step_table
        phases = node_phases * np.exp(-1j * np.outer(taus[:1], lam))   # no rows for no taus
        nodes = (np.vstack([phases.real, phases.imag]) @ self._khatri_rao).reshape(2, -1, r, s)
        planes = nodes.transpose(3, 0, 2, 1).reshape(2 * r * s, -1) @ interp.T
        cols = planes.reshape(s, 2 * r, n_t)         # rows: r real parts, then r imaginary
        return np.einsum("cij,cij->cj", cols, cols), [
            np.einsum("ij,ij->j", cols[p], cols[q]) + 1j * (
                np.einsum("ij,ij->j", cols[p, :r], cols[q, r:])
                - np.einsum("ij,ij->j", cols[p, r:], cols[q, :r]))
            for p, q in itertools.combinations(range(s), 2)]


def _step_nodes(b: int, delta: float, lam_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Offsets of the phase nodes of a b-point block and the b x P Lagrange matrix.

    On the block's offset interval [0, (b-1) delta] = c + h [-1, 1], the
    Chebyshev series of exp(-i lambda (c + h x)) has coefficients of size
    2 |J_n(lambda h)| <= 2 (omega/2)^n / n!, omega = lam_max h, and
    interpolation at the P Chebyshev points of the first kind errs by at most
    twice the dropped tail, 4 sum_{n>=P} (omega/2)^n / n!.  Once P + 1 >=
    omega the terms at least halve, so the tail is below 8 (omega/2)^P / P!,
    and P is the least value that puts this under the unit roundoff.  If that
    needs P >= b, the nodes are the grid offsets and the matrix the identity.
    The matrix holds the barycentric Lagrange weights from the nodes to the
    offsets j delta.
    """
    omega = lam_max * delta * (b - 1) / 2
    p, term = 1, omega / 2                  # term = (omega/2)^p / p!
    while p < b and (p + 1 < omega or 8 * term > np.finfo(float).eps / 2):
        p += 1
        term *= omega / (2 * p)
    if p >= b:
        return delta * np.arange(b), np.eye(b)
    theta = (2 * np.arange(p) + 1) * np.pi / (2 * p)
    x_nodes = np.cos(theta)
    weights = (-1.0) ** np.arange(p) * np.sin(theta)
    # no offset equals a node in floating point for b <= 2048 and P < b, so no row
    # divides by zero (test_lagrange_rows_are_finite_for_every_block_length)
    terms = weights / ((2 * np.arange(b) / (b - 1) - 1)[:, None] - x_nodes)
    interp = terms / terms.sum(axis=1, keepdims=True)
    return delta * (b - 1) / 2 * (1 + x_nodes), interp

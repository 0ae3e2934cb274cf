"""Sector propagators and the sender-to-extended-receiver transfer block.

One Hermitian eigendecomposition per (chain, k) pair serves every evaluation
time: V(tau) = U exp(-i Lambda tau) U^dag.  The chain's sector blocks are
real symmetric, so U is real.  The transfer block collects the propagator
elements between "all excitations in the sender" and "all excitations in the
extended receiver" states, both in sector-basis order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import SectorBasis, embed_subsystem, k_states
from .chain import CouplingMatrix, Partition, hamiltonian_block

HERMITICITY_TOL = 1e-10
# Grid points per phase-table GEMM in TransferMap.gram_batch.  Scans at
# N=30 and N=42 (k=2, one BLAS thread) took within 10 % of each other for 64,
# 128 and 256; 128 had the fastest gram_batch at N=42, and 512 was 30 % slower.
GRAM_BLOCK = 128


@dataclass(frozen=True)
class SectorEigensystem:
    """Eigenvalues and eigenvectors of one k-sector Hamiltonian block."""

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

    @property
    def rows(self) -> int:
        return self.v_hat.shape[0]


def eigendecompose(h_block: np.ndarray) -> SectorEigensystem:
    """Diagonalize a Hermitian sector block.

    A real symmetric block gives real eigenvectors; a complex one, complex.
    """
    h = np.asarray(h_block)
    asym = np.abs(h - h.conj().T).max() if h.size else 0.0
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


def sector_eigensystem(couplings: CouplingMatrix, k: int) -> SectorEigensystem:
    """Eigendecomposition of the k-sector block of a chain's Hamiltonian."""
    return eigendecompose(hamiltonian_block(couplings, k))


def transfer_block(v_k: np.ndarray, partition: Partition, k: int,
                   tau: float = float("nan"),
                   basis: SectorBasis | None = None) -> TransferBlock:
    """Extract the S -> ER block from a full k-sector propagator matrix.

    Rows are indexed by ER-local k-states (all excitations inside the extended
    receiver, rest of the chain ground), columns by sender-local k-states,
    both in sector-basis order.
    """
    n = partition.n_sites
    if basis is None:
        basis = k_states(n, k)
    if v_k.shape != (len(basis), len(basis)):
        raise ValueError(f"propagator shape {v_k.shape} does not match "
                         f"sector dimension {len(basis)}")
    s_map = embed_subsystem(partition.sender_sites, n, k)
    er_map = embed_subsystem(partition.er_sites, n, k)
    v_hat = v_k[np.ix_(er_map.chain_ordinals, s_map.chain_ordinals)]
    return TransferBlock(v_hat=v_hat, tau=tau, n_sites=n,
                         n_s=partition.n_s, n_er=partition.n_er, k=k)


class TransferMap:
    """Cached evaluator of the transfer block over many registration times.

    With real eigenvectors U, V_hat(tau)[r, s] = sum_a U_ER[r, a] U_S[s, a]
    exp(-i lambda_a tau), so one real Khatri-Rao factor K[a, (r, s)] =
    U_ER[r, a] U_S[s, a] turns each evaluation into a phase-vector product and
    a batch of grid points into one GEMM.
    """

    def __init__(self, couplings: CouplingMatrix, partition: Partition, k: int):
        self.partition = partition
        self.k = k
        self.eig = sector_eigensystem(couplings, k)
        n = partition.n_sites
        s_map = embed_subsystem(partition.sender_sites, n, k)
        er_map = embed_subsystem(partition.er_sites, n, k)
        u = self.eig.eigenvectors
        u_er = u[np.asarray(er_map.chain_ordinals), :]
        u_s = u[np.asarray(s_map.chain_ordinals), :]
        self.n_er_k, self.n_s_k = len(u_er), len(u_s)
        self._khatri_rao = np.einsum("ra,sa->ars", u_er, u_s).reshape(self.eig.dim, -1)

    def v_hat(self, tau: float) -> TransferBlock:
        phases = np.exp(-1j * self.eig.eigenvalues * tau)
        block = (phases @ self._khatri_rao).reshape(self.n_er_k, self.n_s_k)
        return TransferBlock(v_hat=block, tau=float(tau),
                             n_sites=self.partition.n_sites,
                             n_s=self.partition.n_s,
                             n_er=self.partition.n_er, k=self.k)

    def gram_batch(self, taus: np.ndarray) -> np.ndarray:
        """Gram matrices V^dag V of the transfer block on a uniform tau grid.

        The grid is cut into blocks of GRAM_BLOCK points.  Since
        exp(-i lambda (tau_lo + j delta)) = exp(-i lambda tau_lo)
        exp(-i lambda j delta), one table of step phases serves every block,
        and each block is one GEMM of that table against K scaled by the
        block's base phases.  A grid that is not uniform to rounding raises
        ValueError.
        """
        taus = np.asarray(taus, dtype=float)
        n_t, r, s = len(taus), self.n_er_k, self.n_s_k
        delta = (taus[-1] - taus[0]) / (n_t - 1) if n_t > 1 else 0.0
        ideal = taus[:1] + delta * np.arange(n_t)
        scale = max(1.0, float(np.abs(taus).max(initial=0.0)))
        if np.abs(taus - ideal).max(initial=0.0) > 16 * np.finfo(float).eps * scale:
            raise ValueError("gram_batch needs a uniform tau grid")
        lam = self.eig.eigenvalues
        steps = np.exp(-1j * np.outer(delta * np.arange(min(GRAM_BLOCK, n_t)), lam))
        grams = np.empty((n_t, s, s), dtype=complex)
        for lo in range(0, n_t, GRAM_BLOCK):
            m = min(GRAM_BLOCK, n_t - lo)
            base = np.exp(-1j * lam * taus[lo])
            v = (steps[:m] @ (base[:, None] * self._khatri_rao)).reshape(m, r, s)
            grams[lo:lo + m] = v.conj().transpose(0, 2, 1) @ v
        return grams

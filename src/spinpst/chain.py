"""Chain geometry, coupling constants, and excitation-sector Hamiltonian blocks.

The model is the XX flip-flop Hamiltonian with all-to-all couplings D_ij:
the matrix element between two k-excitation states that differ by moving one
excitation from site i to site j is D_ij / 2, the diagonal is zero.  Couplings
are nondimensionalized so the reference nearest-neighbor coupling is 1 and
time is measured in units of its inverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import binom, k_states


class InvalidSpecError(ValueError):
    """Chain specification violates an invariant."""


@dataclass(frozen=True)
class ChainSpec:
    """Geometry of a 1-D dipolar spin-1/2 chain: unit-spaced sites (the
    homogeneous chain), or ``nn_overrides``, nearest-neighbor coupling values
    keyed by the 1-based left site of the bond, converted to inter-site
    distances r = D**(-1/3) so that all long-range couplings stay
    dipole-consistent.  Any other coupling matrix is a ``CouplingMatrix``
    built directly.
    """

    n_sites: int
    nn_overrides: dict[int, float] | None = None

    def __post_init__(self):
        if self.n_sites < 2:
            raise InvalidSpecError(f"need at least 2 sites, got {self.n_sites}")
        if self.nn_overrides is not None:
            for i, d in self.nn_overrides.items():
                if not 1 <= i <= self.n_sites - 1:
                    raise InvalidSpecError(f"override bond {i}-{i + 1} out of range")
                if d <= 0:
                    raise InvalidSpecError(f"override coupling for bond {i}-{i + 1} "
                                           "must be positive")


@dataclass(frozen=True)
class CouplingMatrix:
    """Square, exactly symmetric, nonnegative coupling constants with zero diagonal."""

    d: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.d, dtype=float)
        object.__setattr__(self, "d", d)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise InvalidSpecError("coupling matrix must be square")
        if not np.array_equal(d, d.T):
            raise InvalidSpecError("coupling matrix must be exactly symmetric")
        if np.any(np.diag(d) != 0):
            raise InvalidSpecError("coupling matrix diagonal must be zero")
        if np.any(d < 0):
            raise InvalidSpecError("couplings must be nonnegative")

    @property
    def n_sites(self) -> int:
        return self.d.shape[0]


@dataclass(frozen=True)
class Partition:
    """Sender / transmission-line / receiver split of the chain.

    Layout: sender S = sites 1..n_s, receiver R = the last n_r sites,
    extended receiver ER = the last n_er sites (so A = ER minus R), and
    TL = everything between S and R.  Optional contiguous subranges S0 and
    R0 inside TL carry the input/output registers of the encoded protocol.
    All sites are 1-based.
    """

    n_sites: int
    n_s: int
    n_r: int
    n_er: int
    s0_sites: tuple[int, ...] = ()
    r0_sites: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "s0_sites", tuple(self.s0_sites))
        object.__setattr__(self, "r0_sites", tuple(self.r0_sites))
        if self.n_er < self.n_r:
            raise InvalidSpecError("extended receiver must contain the receiver")
        if self.n_s + self.n_er > self.n_sites:
            raise InvalidSpecError("sender and extended receiver overlap")
        if self.n_r != self.n_s:
            raise InvalidSpecError("restoring assumes equal sender and receiver size")
        tl = set(self.tl_sites)
        for name, sites in (("S0", self.s0_sites), ("R0", self.r0_sites)):
            if not set(sites) <= tl:
                raise InvalidSpecError(f"{name} sites {sites} must lie inside TL {sorted(tl)}")
        if set(self.s0_sites) & set(self.r0_sites):
            raise InvalidSpecError("S0 and R0 must be disjoint")

    @property
    def sender_sites(self) -> tuple[int, ...]:
        return tuple(range(1, self.n_s + 1))

    @property
    def receiver_sites(self) -> tuple[int, ...]:
        return tuple(range(self.n_sites - self.n_r + 1, self.n_sites + 1))

    @property
    def er_sites(self) -> tuple[int, ...]:
        return tuple(range(self.n_sites - self.n_er + 1, self.n_sites + 1))

    @property
    def a_sites(self) -> tuple[int, ...]:
        return tuple(range(self.n_sites - self.n_er + 1, self.n_sites - self.n_r + 1))

    @property
    def tl_sites(self) -> tuple[int, ...]:
        return tuple(range(self.n_s + 1, self.n_sites - self.n_r + 1))


def build_couplings(spec: ChainSpec) -> CouplingMatrix:
    """Assemble the dipole coupling matrix D_ij = 1 / r_ij**3 of a chain
    specification.  Nearest-neighbor overrides are realized as adjusted
    inter-site distances, keeping every long-range coupling consistent with
    the dipole law.
    """
    n = spec.n_sites
    if spec.nn_overrides:
        gaps = np.ones(n - 1)
        for i, d in spec.nn_overrides.items():
            gaps[i - 1] = d ** (-1.0 / 3.0)
        pos = np.concatenate([[0.0], np.cumsum(gaps)])
    else:
        pos = np.arange(n, dtype=float)
    r = np.abs(pos[:, None] - pos[None, :])
    if np.any(r[~np.eye(n, dtype=bool)] <= 0):   # a huge override's gap rounds away
        raise InvalidSpecError("coincident site positions")
    with np.errstate(divide="ignore"):
        d = 1.0 / r ** 3
    np.fill_diagonal(d, 0.0)
    d = (d + d.T) / 2.0  # exact symmetry despite rounding
    return CouplingMatrix(d=d)


def sector_hops(couplings: CouplingMatrix, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Target and source sector ordinals and D_ij/2 of every one-excitation hop i -> j;
    two states one hop apart fix the hop, so no (target, source) pair repeats."""
    n = couplings.n_sites
    sector = k_states(n, k)
    bits = ((sector.states[:, None] >> np.arange(n)) & 1).astype(bool)
    # every state has k occupied and n - k empty sites, in increasing order
    occ = np.nonzero(bits)[1].reshape(len(sector), k)[:, :, None]
    empty = np.nonzero(~bits)[1].reshape(len(sector), n - k)[:, None, :]
    target = (sector.states[:, None, None] ^ (1 << occ)) | (1 << empty)
    source = np.broadcast_to(np.arange(len(sector))[:, None, None], target.shape)
    return sector.ordinals(target).ravel(), source.ravel(), (couplings.d[occ, empty] / 2.0).ravel()


def hamiltonian_block(couplings: CouplingMatrix, k: int) -> np.ndarray:
    """k-excitation block of the XX Hamiltonian in the sector basis.

    Element between states differing by one excitation hop i -> j is D_ij/2;
    everything else (including the diagonal) is zero, so the output is a real
    symmetric float64 matrix.
    """
    rows, cols, values = sector_hops(couplings, k)
    h = np.zeros((binom(couplings.n_sites, k),) * 2)
    h[rows, cols] = values
    return h

"""Excitation-sector bases: enumeration, ranking, and subsystem embedding.

Basis states are occupation bitmasks: site ``q`` (1-based) excited <=> bit
``q-1`` set.  The k-sector is ordered lexicographically by the sorted tuple
of excited sites, i.e. (1,2) < (1,3) < ... < (2,3) < ...  Only this module
knows that order: every other module takes sector ordinals from
``SectorBasis.ordinals``, ``mirror_ordinals`` or ``embed_subsystem``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

MAX_SITES = 63      # the bitmasks are int64


def binom(n: int, k: int) -> int:
    """Exact integer binomial coefficient C(n, k); raises for k outside [0, n]."""
    if not 0 <= k <= n:
        raise ValueError(f"binom requires 0 <= k <= n, got n={n}, k={k}")
    return math.comb(n, k)


@dataclass(frozen=True, eq=False)
class SectorBasis:
    """Ordered enumeration of the k-excitation states of an n-site register."""

    n: int
    k: int
    states: np.ndarray      # int64 bitmasks in sector order

    def __len__(self) -> int:
        return len(self.states)

    def ordinals(self, masks) -> np.ndarray:
        """Sector ordinals of occupation bitmasks, in the shape of ``masks``.

        A mask that is not a k-excitation state of n sites raises KeyError.
        """
        masks = np.asarray(masks, dtype=np.int64)
        order = np.argsort(self.states)
        ranked = self.states[order]
        pos = np.searchsorted(ranked, masks).clip(max=len(order) - 1)
        foreign = masks[ranked[pos] != masks]
        if foreign.size:
            raise KeyError(f"mask {int(foreign[0]):#x} is not a {self.k}-excitation state "
                           f"of {self.n} sites")
        return order[pos]


def k_states(n: int, k: int) -> SectorBasis:
    """Enumerate the C(n, k) k-excitation bitmasks in lexicographic order."""
    if not 0 <= k <= n <= MAX_SITES:
        raise ValueError(f"k-sector needs 0 <= k <= n <= {MAX_SITES}, got n={n}, k={k}")
    sites = np.array(list(itertools.combinations(range(n), k)), dtype=np.int64)
    return SectorBasis(n=n, k=k, states=(1 << sites).sum(axis=1))


def _place(sector: SectorBasis, sites) -> np.ndarray:
    """Each state of ``sector`` with its bit q moved to bit ``sites[q]``."""
    bits = (sector.states[:, None] >> np.arange(sector.n)) & 1
    return (bits << np.asarray(sites, dtype=np.int64)).sum(axis=1)


def mirror_ordinals(n: int, k: int) -> np.ndarray:
    """Ordinal of the mirror image of each k-sector state of an n-site chain.

    The site reflection q -> n + 1 - q reverses a state's bitmask; it is an
    involution on the sector and carries no sign in the spin basis.
    """
    sector = k_states(n, k)
    return sector.ordinals(_place(sector, range(n - 1, -1, -1)))


def embed_subsystem(sub_sites, chain_n: int, k: int) -> np.ndarray:
    """Chain k-sector ordinal of each k-sector state of a subsystem.

    ``sub_sites`` are 1-based chain sites, in increasing order.  The image of
    subsystem state j is the chain state with the corresponding subsystem
    sites excited and every other site in the ground state.
    """
    sub_sites = tuple(sub_sites)
    if any(not 1 <= q <= chain_n for q in sub_sites):
        raise ValueError(f"subsystem sites {sub_sites} out of range 1..{chain_n}")
    if len(set(sub_sites)) != len(sub_sites):
        raise ValueError("subsystem sites must be distinct")
    if len(sub_sites) < k:
        raise ValueError(f"subsystem of {len(sub_sites)} sites cannot hold k={k} excitations")
    masks = _place(k_states(len(sub_sites), k), [q - 1 for q in sub_sites])
    return k_states(chain_n, k).ordinals(masks)

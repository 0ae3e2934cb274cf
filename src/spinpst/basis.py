"""Excitation-sector bases: enumeration, ranking, and subsystem embedding.

Basis states are occupation bitmasks: site ``q`` (1-based) excited <=> bit
``q-1`` set.  The k-sector is ordered lexicographically by the sorted tuple
of excited sites, i.e. (1,2) < (1,3) < ... < (2,3) < ...
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field


def binom(n: int, k: int) -> int:
    """Exact integer binomial coefficient C(n, k); raises for k outside [0, n]."""
    if not 0 <= k <= n:
        raise ValueError(f"binom requires 0 <= k <= n, got n={n}, k={k}")
    return math.comb(n, k)


def _mask(sites_0based) -> int:
    m = 0
    for q in sites_0based:
        m |= 1 << q
    return m


@dataclass(frozen=True)
class SectorBasis:
    """Ordered enumeration of the k-excitation states of an n-site register."""

    n: int
    k: int
    states: tuple[int, ...]
    _index: dict[int, int] = field(repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        if not self._index:
            object.__setattr__(self, "_index", {m: i for i, m in enumerate(self.states)})

    def __len__(self) -> int:
        return len(self.states)

    def index_of(self, mask: int) -> int:
        """Ordinal of an occupation bitmask within this sector."""
        try:
            return self._index[mask]
        except KeyError:
            raise KeyError(f"mask {mask:#x} is not a {self.k}-excitation state "
                           f"of {self.n} sites") from None


def k_states(n: int, k: int) -> SectorBasis:
    """Enumerate the C(n, k) k-excitation bitmasks in lexicographic order."""
    if not 0 <= k <= n:
        raise ValueError(f"excitation count k={k} out of range for n={n}")
    states = tuple(_mask(c) for c in itertools.combinations(range(n), k))
    return SectorBasis(n=n, k=k, states=states)


def mirror_ordinals(n: int, k: int) -> tuple[int, ...]:
    """Ordinal of the mirror image of each k-sector state of an n-site chain.

    The site reflection q -> n + 1 - q reverses a state's bitmask; it is an
    involution on the sector and carries no sign in the spin basis.
    """
    sector = k_states(n, k)
    return tuple(sector.index_of(int(format(m, f"0{n}b")[::-1], 2)) for m in sector.states)


@dataclass(frozen=True)
class EmbeddingMap:
    """Map from a subsystem's k-sector ordinals to chain k-sector ordinals.

    The image of subsystem state j is the chain state with the corresponding
    subsystem sites excited and every other site in the ground state.
    """

    chain_ordinals: tuple[int, ...]     # chain k-sector ordinal per subsystem ordinal
    chain_masks: tuple[int, ...]        # chain bitmask per subsystem ordinal

    def __len__(self) -> int:
        return len(self.chain_ordinals)


def embed_subsystem(sub_sites, chain_n: int, k: int) -> EmbeddingMap:
    """Build the injection of a subsystem's k-sector into the chain k-sector.

    ``sub_sites`` are 1-based chain sites, in increasing order.
    """
    sub_sites = tuple(sub_sites)
    if any(not 1 <= q <= chain_n for q in sub_sites):
        raise ValueError(f"subsystem sites {sub_sites} out of range 1..{chain_n}")
    if len(set(sub_sites)) != len(sub_sites):
        raise ValueError("subsystem sites must be distinct")
    if len(sub_sites) < k:
        raise ValueError(f"subsystem of {len(sub_sites)} sites cannot hold k={k} excitations")
    chain = k_states(chain_n, k)
    masks = tuple(_mask(sub_sites[q] - 1 for q in range(len(sub_sites)) if (m >> q) & 1)
                  for m in k_states(len(sub_sites), k).states)
    return EmbeddingMap(chain_ordinals=tuple(chain.index_of(m) for m in masks),
                        chain_masks=masks)

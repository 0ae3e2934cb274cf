"""Independent transfer-block oracle: sector Hamiltonian by hand, V(tau) by expm.

Nothing here imports spinpst.  The coupling matrix is rebuilt from the
config values (dipole law 1/r**3, adjusted nearest-neighbour bonds read as
distances r = D**(-1/3)), the k-excitation block is assembled on bitmasks
with flip-flop amplitude D_ij/2, and V(tau) = scipy.linalg.expm(-i H tau).
Only singular values leave this module, so the basis order is irrelevant.

Run as a script it answers a batch of requests: a JSON list of
``{"n", "nn_overrides", "n_s", "n_er", "k", "tau"}`` objects on stdin, a
JSON list of ascending singular-value lists on stdout.  The benchmark runs
it in a child process so that the oracle's memory stays out of the peak
resident set it reports for the program.
"""

from __future__ import annotations

import itertools
import json
import sys

import numpy as np
import scipy.linalg


def couplings(n: int, nn_overrides: dict[int, float] | None = None) -> np.ndarray:
    """Dipole couplings of a unit-spaced chain; bond i-(i+1) may be overridden."""
    gaps = np.ones(n - 1)
    for i, d in (nn_overrides or {}).items():
        gaps[int(i) - 1] = float(d) ** (-1.0 / 3.0)
    pos = np.concatenate([[0.0], np.cumsum(gaps)])
    r = np.abs(pos[:, None] - pos[None, :])
    np.fill_diagonal(r, np.inf)
    return 1.0 / r ** 3


def sector_masks(sites, k: int) -> list[int]:
    """Bitmasks (site q on bit q-1) with exactly k excitations on ``sites``."""
    return sorted(sum(1 << (q - 1) for q in c) for c in itertools.combinations(sites, k))


def sector_hamiltonian(d: np.ndarray, k: int) -> tuple[np.ndarray, list[int]]:
    """k-sector flip-flop Hamiltonian and its basis masks (ascending)."""
    n = d.shape[0]
    masks = sector_masks(range(1, n + 1), k)
    index = {m: a for a, m in enumerate(masks)}
    h = np.zeros((len(masks), len(masks)))
    for a, m in enumerate(masks):
        for i in range(n):
            if not (m >> i) & 1:
                continue
            for j in range(n):
                if (m >> j) & 1:
                    continue
                h[index[m ^ (1 << i) ^ (1 << j)], a] += d[i, j] / 2.0
    return h, masks


def transfer_block(d: np.ndarray, n_s: int, n_er: int, k: int,
                   tau: float) -> np.ndarray:
    """Sender -> extended-receiver block of expm(-i H_k tau), rows and columns by mask."""
    n = d.shape[0]
    h, masks = sector_hamiltonian(d, k)
    index = {m: a for a, m in enumerate(masks)}
    v = scipy.linalg.expm(-1j * tau * h)
    rows = [index[m] for m in sector_masks(range(n - n_er + 1, n + 1), k)]
    cols = [index[m] for m in sector_masks(range(1, n_s + 1), k)]
    return v[np.ix_(rows, cols)]


def singular_values(request: dict) -> list[float]:
    """Ascending singular values of the transfer block a request describes."""
    d = couplings(request["n"], request.get("nn_overrides"))
    block = transfer_block(d, request["n_s"], request["n_er"], request["k"],
                           request["tau"])
    return sorted(float(s) for s in np.linalg.svd(block, compute_uv=False))


if __name__ == "__main__":
    json.dump([singular_values(r) for r in json.load(sys.stdin)], sys.stdout)

"""Scale-factor analysis: the |lambda| roots and the registration-time scan.

With b_j the columns of the transfer block V_hat, the achievable common
scale factors are the roots of a degree-N^(S)_k polynomial in x = |lambda|^2,
x * det(G' - x I) - det(G - x diag(1,..,1,0)) = 0, where G = V_hat^dag V_hat
is the Gram matrix and G' its leading principal block.  Expanding the
second determinant along its last row shows that the polynomial is
-det(G - x I), so the roots are the eigenvalues of G and |lambda| runs over
the singular values of V_hat.  Both the one-tau roots and the scan take
them from the Gram spectrum.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .chain import CouplingMatrix, Partition
from .dynamics import TransferMap


@dataclass(frozen=True)
class ScanResult:
    """Per-grid-point roots plus the detected registration time.

    ``tau0`` follows the scanning peak detector: the maximum is registered at
    the first grid point where the minimal root starts decreasing from its
    global maximum (one step past ``tau_argmax`` for an interior peak, the
    argmax itself at a range boundary).  ``lambda_min`` is the maximal value.
    """

    taus: np.ndarray
    roots: np.ndarray          # (len(taus), N^(S)_k), ascending per row
    tau0: float
    tau_argmax: float
    lambda_min: float
    n_er: int
    k: int


def _singular_values(grams: np.ndarray) -> np.ndarray:
    """Ascending square roots of Gram spectra, rounding negatives clipped to 0."""
    return np.sqrt(np.clip(np.linalg.eigvalsh(grams), 0.0, None))


def roots_at(couplings: CouplingMatrix, partition: Partition, k: int,
             tau: float) -> np.ndarray:
    """All |lambda| roots at one registration time, ascending."""
    v = TransferMap(couplings, partition, k).v_hat(tau).v_hat
    return _singular_values(v.conj().T @ v)


def _grid(tau_min: float, tau_max: float, step: float) -> np.ndarray:
    if step <= 0:
        raise ValueError("step must be positive")
    if tau_max < tau_min:
        raise ValueError("empty tau range")
    n = int(round((tau_max - tau_min) / step))
    return tau_min + step * np.arange(n + 1)


def scan(couplings: CouplingMatrix, partition: Partition, k: int,
         tau_min: float, tau_max: float, step: float,
         transfer_map: TransferMap | None = None,
         chunk: int = 2048, threads: int = 1) -> ScanResult:
    """Scan the tau grid for the registration time maximizing the minimal root.

    At every grid point the sorted |lambda| roots come from the Gram
    spectrum, as in ``roots_at``.  Exact ties in the maximum are broken
    toward smaller tau.  Grid chunks are independent; ``threads`` > 1
    evaluates them concurrently with order-preserving assembly.
    """
    taus = _grid(tau_min, tau_max, step)
    tm = transfer_map or TransferMap(couplings, partition, k)
    n_roots = tm.n_s_k
    roots = np.empty((len(taus), n_roots))

    def fill(lo: int) -> None:
        gs = tm.gram_batch(taus[lo:lo + chunk])
        roots[lo:lo + len(gs)] = _singular_values(gs)

    starts = range(0, len(taus), chunk)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(fill, starts))
    else:
        for lo in starts:
            fill(lo)
    mins = roots[:, 0]
    i_max = int(np.argmax(mins))
    i_det = min(i_max + 1, len(taus) - 1)
    return ScanResult(taus=taus, roots=roots,
                      tau0=float(taus[i_det]), tau_argmax=float(taus[i_max]),
                      lambda_min=float(mins[i_max]),
                      n_er=partition.n_er, k=k)

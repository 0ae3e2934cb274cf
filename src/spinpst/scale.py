"""Scale-factor analysis: the |lambda| roots and the registration-time scan.

With b_j the columns of the transfer block V_hat, the achievable common
scale factors are the roots of a degree-N^(S)_k polynomial in x = |lambda|^2,
x * det(G' - x I) - det(G - x diag(1,..,1,0)) = 0, where G = V_hat^dag V_hat
is the Gram matrix and G' its leading principal block.  Expanding the
second determinant along its last row shows that the polynomial is
-det(G - x I), so the roots are the eigenvalues of G and |lambda| runs over
the singular values of V_hat.  The scan takes them from the Gram spectrum,
and the one-tau roots are the scan's kernel at the one grid point tau.

The spectra come from one batched cyclic Jacobi kernel, ``jacobi_eigenvalues``:
every Gram entry is an array over the batch, and each rotation updates the
whole batch at once.  A pair (p, q) is rotated only where
|g_pq| > eps sqrt(g_pp g_qq), the Demmel-Veselic test, under which Jacobi on
a positive semidefinite matrix keeps the small eigenvalues at least as
accurate as the QR algorithm does.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .dynamics import SCAN_CHUNK, TransferMap


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


_EPS2 = np.finfo(float).eps ** 2
_TINY = np.finfo(float).tiny
JACOBI_MAX_SWEEPS = 30


def jacobi_eigenvalues(diag, upper) -> np.ndarray:
    """Ascending eigenvalues of B positive semidefinite s x s Grams, given as parts.

    ``diag`` holds s real (B,) arrays, ``upper`` the s(s-1)/2 complex ones above it, row-major,
    and the kernel rotates both in place.  Cyclic Jacobi over the pairs p < q, run on all B
    matrices together.  Each matrix is first scaled by the power of two that brings its
    largest diagonal entry into [1/2, 1), which is exact, so entries near the underflow
    threshold keep their precision.  A pair is rotated where
    |g_pq|^2 > eps^2 |g_pp g_qq| + tiny: the Demmel-Veselic test, with tiny,
    the smallest normal number, as a floor.  Below it |g_pq| < sqrt(tiny) is
    counted as zero, which moves no scaled eigenvalue by more than that, and
    the rotation angles stay finite.  A matrix whose every pair passes is
    left as it is, so a row's result does not depend on the rest of its
    batch, and the sweeps end once no pair of any matrix is rotated; the
    all-zero Gram needs none.  The complex rotation
    J = [[c, s u], [-s conj(u), c]] with u = g_pq / |g_pq| and
    t = s / c = sign(d) 2|g_pq| / (|d| + sqrt(d^2 + 4 |g_pq|^2)),
    d = g_qq - g_pp, zeroes g_pq and moves t |g_pq| from g_pp to g_qq.
    """
    s = len(diag)
    exp = np.clip(np.frexp(np.maximum.reduce(diag))[1], -1021, 1021)
    scale = np.ldexp(1.0, -exp)
    for g in itertools.chain(diag, upper):
        g *= scale
    off = dict(zip(itertools.combinations(range(s), 2), upper))
    for _ in range(JACOBI_MAX_SWEEPS):
        rotated = False
        for p, q in off:
            a, c, g = diag[p], diag[q], off[p, q]
            mag = np.abs(g)
            mag2 = mag * mag
            rotate = mag2 > _EPS2 * np.abs(a * c) + _TINY
            if not rotate.any():
                continue
            rotated = True
            d = c - a
            # t / |g_pq|, zero where the pair is not rotated
            kappa = np.divide(np.copysign(2.0, d), np.abs(d) + np.sqrt(d * d + 4 * mag2),
                              out=np.zeros_like(d), where=rotate)
            t = kappa * mag
            cos = 1 / np.sqrt(1 + t * t)
            su = (cos * kappa) * g            # s u; the column update needs s conj(u)
            shift = t * mag
            a -= shift
            c += shift
            g[rotate] = 0
            # G[r, p] and G[r, q] for every other r; off holds the upper
            # triangle only, so an entry below the diagonal is its conjugate
            for r in range(s):
                if r < p:
                    x, y = off[r, p], off[r, q]
                    x[...], y[...] = cos * x - su.conj() * y, su * x + cos * y
                elif r > q:
                    x, y = off[p, r], off[q, r]
                    x[...], y[...] = cos * x - su * y, su.conj() * x + cos * y
                elif p < r < q:
                    x, y = off[p, r], off[r, q]
                    x[...], y[...] = cos * x - su * y.conj(), su * x.conj() + cos * y
        if not rotated:
            break
    else:
        raise np.linalg.LinAlgError("Jacobi sweeps did not converge")
    return np.ldexp(np.sort(np.stack(diag, axis=-1), axis=-1), exp[:, None])


def _roots(diag, upper) -> np.ndarray:
    """Ascending |lambda| roots, (B, s), of B Grams given as ``gram_batch`` parts."""
    return np.sqrt(np.clip(jacobi_eigenvalues(diag, upper), 0, None))


def roots_at(tm: TransferMap, tau: float) -> np.ndarray:
    """All |lambda| roots at one registration time, ascending: ``scan``'s kernel on the
    one-point grid [tau], whose step table is the exact 1 x 1 identity for any step."""
    tm.check_reach(abs(tau))
    return _roots(*tm.gram_batch(np.array([tau]), 1.0))[0]


def _grid(tau_min: float, tau_max: float, step: float) -> np.ndarray:
    """tau_min + step j up to tau_max; a step of 4 ulps of the window or less repeats points."""
    if step <= 0:
        raise ValueError("step must be positive")
    if tau_max < tau_min:
        raise ValueError("empty tau range")
    # the largest j with tau_min + j step <= tau_max, up to 1e-9 steps of rounding
    n = (tau_max - tau_min) / step + 1e-9
    try:
        taus = tau_min + step * np.arange(int(n) + 1)
    except (OverflowError, MemoryError) as exc:
        raise MemoryError(f"a tau grid of {n + 1:.6g} points is too large to build") from exc
    ulps = 4 * np.spacing(max(abs(tau_min), abs(tau_max)))
    if step <= ulps:
        raise ValueError(f"scan step {step:g} must exceed {ulps:g}, 4 ulps of the tau window")
    return taus


def scan(tm: TransferMap, tau_min: float, tau_max: float, step: float) -> ScanResult:
    """Scan the tau grid for the registration time maximizing the minimal root.

    At every grid point the sorted |lambda| roots come from the Gram spectrum,
    as in ``roots_at``.  One Jacobi batch takes the Grams of two SCAN_CHUNK-point
    ``gram_batch`` calls, which halves its fixed cost per numpy call and moves no
    digit.  Exact ties in the maximum are broken toward smaller tau.  Each tau is
    a rounded double, so a phase lambda tau errs by up to eps max|lambda| max|tau|
    at first order, and so do the roots; a window where that passes
    ``dynamics.MAX_PHASE_ERROR`` raises ValueError (``TransferMap.check_reach``).
    """
    taus = _grid(tau_min, tau_max, step)
    tm.check_reach(max(abs(tau_min), abs(tau_max)))
    roots = np.empty((len(taus), tm.n_s_k))
    for lo in range(0, len(taus), 2 * SCAN_CHUNK):
        parts = [tm.gram_batch(taus[i:i + SCAN_CHUNK], step)
                 for i in range(lo, min(lo + 2 * SCAN_CHUNK, len(taus)), SCAN_CHUNK)]
        diag = np.concatenate([d for d, _ in parts], axis=1)
        upper = [np.concatenate(u) for u in zip(*(u for _, u in parts))]
        del parts           # no array of a batch outlives its Jacobi call
        roots[lo:lo + 2 * SCAN_CHUNK] = _roots(diag, upper)
        del diag, upper
    mins = roots[:, 0]
    i_max = int(np.argmax(mins))
    i_det = min(i_max + 1, len(taus) - 1)
    return ScanResult(taus=taus, roots=roots,
                      tau0=float(taus[i_det]), tau_argmax=float(taus[i_max]),
                      lambda_min=float(mins[i_max]))

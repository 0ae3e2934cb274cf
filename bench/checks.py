"""Checks of one CLI command's output against values made apart from the program.

Three kinds of reference, and no stored copy of earlier output:

* published table values, at the tolerances of ``tests/test_acceptance.py``;
* singular values of V(tau) from the expm oracle (``oracle.py``);
* properties the method must have (constraint residuals, orthonormal rows,
  unitary completions, block structure, |lambda| against sigma_min(V),
  protocol fidelity and success probability).

Every check raises :class:`CheckFailed` with a one-line reason.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Scan rows are sqrt(eigvalsh(V^H V)): where sigma -> 0 their absolute error
# reaches sqrt(eps * |G|) ~ 3e-8.  At tau0 the roots are far from 0.
ORACLE_SCAN_TOL = 1e-7       # scan CSV rows at sample taus vs oracle sigma
ORACLE_SIGMA_TOL = 1e-9      # roots at tau0 and sigma(V) handed to a solver
CSV_DIGITS_TOL = 1e-8        # 9 significant digits in the scan CSV
UNITARY_TOL = 1e-10
BLOCK_TOL = 1e-12
LAMBDA_SIGMA_TOL = 1e-6      # general solves: |lambda| = sigma_min(V)
CIRCUIT_SIGMA_SLACK = 1e-9   # circuit fits: |lambda| <= sigma_min(V) + slack
FIDELITY_FLOOR = 1.0 - 1e-8
PROBABILITY_TOL = 1e-6


class CheckFailed(Exception):
    """A command's output disagrees with a reference or a required property."""


@dataclass(frozen=True)
class Published:
    """One published (tau0, |lambda|) pair and the tolerances it is held to."""

    tau0: float
    lam: float
    tau_tol: float
    lam_tol: float


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _max_dev(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def er_sector_masks(n_er: int, k: int) -> np.ndarray:
    """ER-register k-states in the program's documented lexicographic order."""
    return np.array([sum(1 << q for q in c)
                     for c in itertools.combinations(range(n_er), k)], dtype=np.int64)


def _sigmas_match(v: np.ndarray, sigmas, tol: float, what: str) -> None:
    got = np.sort(np.linalg.svd(v, compute_uv=False))
    _require(got.shape == (len(sigmas),),
             f"{what}: {got.size} singular values, oracle has {len(sigmas)}")
    dev = _max_dev(got, sigmas)
    _require(dev <= tol, f"{what}: singular values off the expm oracle by {dev:.2e}")


def _unitary_dev(w: np.ndarray) -> float:
    return _max_dev(w @ w.conj().T, np.eye(w.shape[0]))


def _constraint_dev(a: np.ndarray, b: np.ndarray) -> tuple[complex, float]:
    """(lambda, max |A b - lambda diag|) for the restoring constraints."""
    e = a @ b
    lam = e[0, 0]
    target = np.zeros_like(e)
    for j in range(min(b.shape[1], a.shape[0])):
        target[j, j] = lam
    return complex(lam), _max_dev(e, target)


def _json_rows(payload: dict) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in payload["rows"]])


def check_scan(summary: dict, csv_path: Path, published: Published,
               samples: dict[float, list[float]]) -> None:
    """Scan summary vs the table; CSV rows vs the oracle at the sample taus."""
    tau0, lam = summary["tau0"], summary["lambda_min"]
    _require(abs(tau0 - published.tau0) <= published.tau_tol,
             f"tau0 {tau0} vs published {published.tau0}")
    _require(abs(lam - published.lam) <= published.lam_tol,
             f"lambda_min {lam} vs published {published.lam}")
    with open(csv_path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    m = len(header) - 2
    _require(header == ["tau"] + [f"root_{i + 1}" for i in range(m)] + ["min_root"],
             f"unexpected CSV header {header}")
    taus, roots = data[:, 0], data[:, 1:-1]
    _require(np.all(np.diff(roots, axis=1) >= 0), "CSV roots not ascending")
    _require(np.all((roots >= 0) & (roots <= 1 + CSV_DIGITS_TOL)),
             "CSV root outside [0, 1]")
    _require(np.array_equal(data[:, -1], roots[:, 0]), "min_root is not root_1")
    _require(abs(roots[:, 0].max() - lam) <= CSV_DIGITS_TOL,
             f"CSV peak {roots[:, 0].max()} vs lambda_min {lam}")
    _require(np.abs(taus - tau0).min() <= 1e-9, "tau0 is not a CSV grid point")
    for tau, sigmas in samples.items():
        i = int(np.argmin(np.abs(taus - tau)))
        _require(abs(taus[i] - tau) <= 1e-9, f"sample tau {tau} missing from CSV")
        dev = _max_dev(roots[i], sigmas)
        _require(dev <= ORACLE_SCAN_TOL,
                 f"CSV roots at tau={tau} off the expm oracle by {dev:.2e}")


def check_roots(payload: dict, published: tuple[float, ...], sigmas) -> None:
    """Root list at tau0 vs the published list and the oracle."""
    roots = payload["roots"]
    _require(len(roots) == len(published), f"{len(roots)} roots, want {len(published)}")
    dev = _max_dev(roots, published)
    _require(dev <= 5e-4, f"roots {roots} vs published {published}")
    dev = _max_dev(roots, sigmas)
    _require(dev <= ORACLE_SIGMA_TOL, f"roots off the expm oracle by {dev:.2e}")


def check_general(payload: dict | None, problem, solution, sigmas) -> None:
    """A general-mode solve: constraints, orthonormality, completion, lambda."""
    v = problem.v_hat.v_hat
    _sigmas_match(v, sigmas, ORACLE_SIGMA_TOL, "V received by the solver")
    a = np.asarray(solution.constrained_rows)
    n_er, k = problem.v_hat.n_er, problem.v_hat.k
    if problem.mode == "preserving-general":
        b = v
    else:
        b = np.zeros((2 ** n_er, v.shape[1]), dtype=complex)
        b[er_sector_masks(n_er, k)] = v
    lam, dev = _constraint_dev(a, b)
    dev = max(dev, _max_dev(a @ a.conj().T, np.eye(a.shape[0])))
    _require(dev <= problem.tol, f"recomputed residual {dev:.2e} > tol {problem.tol}")
    _require(abs(lam - solution.lam) <= 1e-12, "reported lambda is not (A V)_00")
    w = np.asarray(solution.completed_unitary)
    udev = _unitary_dev(w)
    _require(udev <= UNITARY_TOL, f"completion not unitary ({udev:.2e})")
    _require(np.array_equal(w[list(solution.row_positions)], a),
             "completion does not carry the constrained rows")
    _require(abs(abs(lam) - sigmas[0]) <= LAMBDA_SIGMA_TOL,
             f"|lambda| {abs(lam)} vs sigma_min {sigmas[0]}")
    if payload is not None:
        _require(payload["mode"] == problem.mode, "mode differs from the config")
        _require(np.array_equal(_json_rows(payload), a), "printed rows differ")
        _require(abs(payload["lambda"]["abs"] - abs(lam)) <= 1e-12,
                 "printed |lambda| differs from the recomputed one")
        _require(payload["residual"] <= problem.tol, "printed residual above tol")


def check_circuit(payload: dict, problem, solution, sigmas) -> None:
    """A circuit fit: residual from W_ER, unitarity, block structure, lambda bound."""
    v = problem.v_hat.v_hat
    _sigmas_match(v, sigmas, ORACLE_SIGMA_TOL, "V received by the fit")
    w = np.asarray(solution.wer_full)
    udev = _unitary_dev(w)
    _require(udev <= UNITARY_TOL, f"W_ER not unitary ({udev:.2e})")
    n_er, k = problem.v_hat.n_er, problem.v_hat.k
    er = er_sector_masks(n_er, k)
    if problem.mode == "circuit-preserving":
        pop = np.array([bin(i).count("1") for i in range(2 ** n_er)])
        off = np.abs(w[pop[:, None] != pop[None, :]])
        _require(off.max() <= BLOCK_TOL,
                 f"preserving W_ER mixes excitation numbers ({off.max():.2e})")
        positions = er[list(solution.row_positions)]
        cols = er
    else:
        positions = np.asarray(solution.row_positions)
        cols = np.arange(2 ** n_er)
    lam, dev = _constraint_dev(w[np.ix_(positions, er)], v)
    _require(dev <= problem.tol, f"residual from W_ER {dev:.2e} > tol {problem.tol}")
    _require(abs(lam) <= sigmas[0] + CIRCUIT_SIGMA_SLACK,
             f"|lambda| {abs(lam)} above sigma_min {sigmas[0]}")
    _require(np.array_equal(_json_rows(payload), w[np.ix_(positions, cols)]),
             "printed rows are not rows of W_ER")
    _require(abs(payload["lambda"]["abs"] - abs(lam)) <= 1e-9,
             "printed |lambda| differs from the one recomputed from W_ER")
    _require(payload["residual"] <= problem.tol, "printed residual above tol")


def check_protocol(payload: dict, solution) -> None:
    """A protocol run: fidelity, success probability = |lambda|**2."""
    fid, prob = payload["fidelity"], payload["success_probability"]
    lam = abs(solution.lam)
    _require(abs(payload["lambda"]["abs"] - lam) <= 1e-12,
             "report lambda differs from the solution's")
    _require(fid >= FIDELITY_FLOOR, f"fidelity {fid} below 1 - 1e-8")
    _require(abs(prob - lam ** 2) <= PROBABILITY_TOL,
             f"success probability {prob} vs |lambda|^2 {lam ** 2}")

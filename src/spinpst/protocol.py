"""End-to-end state-transfer protocols with ancilla labeling and post-selection.

All four variants run in the chain k-sector, at any chain length, through
one entry point, ``run(variant, partition, s, solution)``.  The flag
ancilla B marks the receiver k-patterns and post-selection keeps only the
branch where all k excitations sit there, so the report needs only the
amplitudes that reach those patterns.  Every variant runs from a restoring
solution, which holds its problem: the transfer block V_hat(tau0) it was
found for, k and the family.  The amplitudes are its W_ER applied to
V_hat(tau0) s in the family's space: the ER k-sector for a preserving W_ER,
the 2**n_er extended-receiver register for a non-preserving one
(``restore.family_space``):

- ``k_excitation``: sender k-sector amplitudes evolve to tau0, and a
  preserving W_ER never maps an ER component with fewer than k excitations
  (the rest outside ER) onto a receiver k-pattern; the output is in
  receiver k-basis order;
- ``nonpreserving``: the marker ancilla D joins at registration time and is
  set on exactly the components with all k excitations in ER before W_ER
  acts, and B needs A ground, a receiver k-pattern and D = 1, so the kept
  branch is W_ER times V_hat s in the register, the rest of the chain
  ground;
- ``arbitrary``: the encode cascade maps S0 value j to sender pattern j
  (and resets S0) and the decode maps receiver pattern j to R0 value j
  (and resets R), so both only relabel; the flag covers the first
  2**n_s0 receiver patterns and the output is over the R0 values;
- ``global``: in the k-sector the flag on the ground S+TL subspace is the
  flag on the receiver patterns, and a preserving W_ER acts as the identity
  outside the extended receiver, so the run is the ``k_excitation`` one.

So the post-selected branch is M x, with M = (W_ER b)[receiver rows] a
function of the solution alone.  The partition adds only the S0 and R0
registers of the encoded variant.  The variants differ only in the
solution family they accept and the flagged patterns.  The gate-level
composition over the 2**N space is kept in the test suite as an oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import binom
from .chain import Partition
from .restore import PRESERVING_MODES, RestoreSolution, family_space

VARIANTS = ("k_excitation", "arbitrary", "nonpreserving", "global")
AMPLIFICATION_EPSILON = 0.01    # all-failure probability the reported M reaches


@dataclass(frozen=True)
class ProtocolReport:
    variant: str
    k: int
    tau0: float
    success_probability: float
    fidelity: float
    output_amplitudes: np.ndarray
    lambda_expected: complex

    def to_dict(self, seed: int | None = None) -> dict:
        amp = None
        if 0.0 < self.success_probability < 1.0:
            amp = amplification_runs(self.success_probability, AMPLIFICATION_EPSILON)
        lam_abs = abs(self.lambda_expected)
        return {
            "variant": self.variant,
            "k": self.k,
            "tau0": self.tau0,
            "lambda": {"abs": lam_abs,
                       "arg": float(np.angle(self.lambda_expected))},
            "success_probability": self.success_probability,
            "fidelity": self.fidelity,
            "runs_expected": math.ceil(1.0 / lam_abs ** 2) if lam_abs > 0 else None,
            "amplification": {"epsilon": AMPLIFICATION_EPSILON, "M": amp},
            "seed": seed,
        }


# ---------------------------------------------------------------------------
# probability amplification
# ---------------------------------------------------------------------------

def amplification_runs(success_probability: float, epsilon: float) -> int:
    """Runs needed so that all-failure probability drops below epsilon."""
    p, eps = success_probability, epsilon
    if not 0.0 < p < 1.0:
        raise ValueError(f"success probability must be in (0, 1), got {p}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"target failure must be in (0, 1), got {eps}")
    # log1p keeps -log(1 - p) at its value p + O(p^2) where 1 - p rounds to 1
    return math.ceil(math.log(eps) / math.log1p(-p))


# ---------------------------------------------------------------------------
# protocol runs
# ---------------------------------------------------------------------------

def input_dimension(variant: str, partition: Partition, k: int, mode: str) -> int:
    """Number of input amplitudes of a variant; checks what a run needs.

    ``mode`` is the restoring solution family, which must be non-preserving
    for the ``nonpreserving`` variant and preserving for the others.  Raises
    ValueError for an unknown variant, a wrong family, or S0/R0 registers
    the encoded variant cannot use.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown protocol variant {variant!r}; "
                         f"expected one of {', '.join(VARIANTS)}")
    if (variant == "nonpreserving") == (mode in PRESERVING_MODES):
        want = "non-preserving" if variant == "nonpreserving" else "preserving"
        raise ValueError(f"the {variant} protocol needs a {want} solution, got {mode}")
    n_s_k = binom(partition.n_s, k)
    if variant != "arbitrary":
        return n_s_k
    s0, r0 = partition.s0_sites, partition.r0_sites
    if not s0 or not r0:
        raise ValueError("partition must define S0 and R0 for the encoded protocol")
    if len(r0) != len(s0):
        raise ValueError("S0 and R0 must have equal size")
    if 2 ** len(s0) > n_s_k:
        raise ValueError(f"2**{len(s0)} input states exceed the {n_s_k} "
                         f"available sender k-patterns")
    return 2 ** len(s0)


def run(variant: str, partition: Partition, s, solution: RestoreSolution) -> ProtocolReport:
    """Post-selected output of one variant for input amplitudes ``s``.

    The transfer block, k and the family come from ``solution.problem``;
    ``partition`` must be the block's (n_sites, n_s, n_er) and gives the
    S0 and R0 registers.  ``s`` holds C(n_s, k) sender k-sector amplitudes,
    or 2**n_s0 S0 amplitudes for ``arbitrary``; it is normalised here.
    """
    if not solution.converged:
        raise ValueError("restoring solution did not converge")
    v, mode = solution.problem.v_hat, solution.problem.mode
    if (partition.n_sites, partition.n_s, partition.n_er) != (v.n_sites, v.n_s, v.n_er):
        raise ValueError(f"the partition (n_sites, n_s, n_er) = ({partition.n_sites}, "
                         f"{partition.n_s}, {partition.n_er}) is not the solution's "
                         f"({v.n_sites}, {v.n_s}, {v.n_er})")
    dim = input_dimension(variant, partition, v.k, mode)
    s = np.asarray(s, dtype=complex)
    if s.shape != (dim,):
        raise ValueError(f"expected {dim} input amplitudes, got shape {s.shape}")
    s = s / np.linalg.norm(s)
    # the encoded input j sits on sender pattern j; the others carry nothing
    x = np.zeros(v.columns, dtype=complex)
    x[:dim] = s
    b, recv, _ = family_space(mode, v)
    branch = (solution.completed_unitary @ (b @ x))[recv[:dim]]
    prob = float(np.vdot(branch, branch).real)
    out = branch / math.sqrt(prob) if prob > 0.0 else np.zeros(dim, dtype=complex)
    # |<s, out>| of two unit vectors, whose rounding can exceed 1; np.minimum
    # keeps a NaN from a NaN input
    return ProtocolReport(variant=variant, k=v.k, tau0=v.tau, success_probability=prob,
                          fidelity=float(np.minimum(abs(np.vdot(s, out)), 1.0)),
                          output_amplitudes=out, lambda_expected=complex(solution.lam))

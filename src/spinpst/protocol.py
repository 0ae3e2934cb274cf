"""End-to-end state-transfer protocols with ancilla labeling and post-selection.

All four variants run in the chain k-sector, at any chain length.  The flag
ancilla B marks the receiver k-patterns and post-selection keeps only the
branch where all k excitations sit there, so the report needs only the
amplitudes that reach those patterns.  For a restoring solution they are
W_ER applied to V_hat(tau0) s placed in the 2**n_er extended-receiver
register:

- ``k_excitation``: a preserving W_ER never maps an ER component with
  fewer than k excitations (the rest outside ER) onto a receiver k-pattern;
- ``nonpreserving``: the marker ancilla D is set on exactly the components
  with all k excitations in ER, and B needs D = 1, so the kept branch is
  W_ER times V_hat s in the register, the rest of the chain ground;
- ``arbitrary``: the encode cascade maps S0 value j to sender pattern j and
  the decode maps receiver pattern j to R0 value j, so both only relabel;
  the flag covers the first 2**n_s0 receiver patterns;
- ``global``: in the k-sector the flag on the ground S+TL subspace is the
  flag on the receiver patterns; a whole-line unitary acts through its
  k-sector block, which must be unitary, since a unitary diagonal block of
  a unitary is exactly the condition that nothing leaks out of the sector.

The variants differ only in the solution family they accept, the flagged
patterns and the cost entry.  The gate-level composition over the 2**N
space is kept in the test suite as an oracle.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .basis import binom, embed_subsystem
from .chain import CouplingMatrix, Partition
from .dynamics import TransferMap
from .restore import (RestoreSolution, _full_er_positions, _register_columns,
                      wer_full_from_solution)

VARIANTS = ("k_excitation", "arbitrary", "nonpreserving", "global")
PRESERVING_MODES = ("preserving-general", "circuit-preserving")
UNITARY_TOL = 1e-10


@dataclass(frozen=True)
class BasisDescriptor:
    kind: str                      # "sector": the chain k-sector
    n: int
    k: int
    ancillas: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind != "sector":
            raise ValueError(f"unknown basis kind {self.kind!r}")

    @property
    def chain_dim(self) -> int:
        return binom(self.n, self.k)


@dataclass(frozen=True)
class PureState:
    """Normalized amplitudes over a chain basis and optional ancilla qubits.

    Shape is (chain_dim, 2, 2, ...) with one trailing axis per ancilla, in
    ``basis.ancillas`` order.
    """

    amplitudes: np.ndarray
    basis: BasisDescriptor

    def __post_init__(self):
        expect = (self.basis.chain_dim,) + (2,) * len(self.basis.ancillas)
        if self.amplitudes.shape != expect:
            raise ValueError(f"amplitude shape {self.amplitudes.shape} does not "
                             f"match basis {expect}")

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True)
class CostEstimate:
    """Symbolic per-component operation counts (unit constants, no wall clock)."""

    encode_depth: int
    label_depth: int
    wer_depth: int
    t0: float
    runs_expected: int | None


@dataclass(frozen=True)
class ProtocolReport:
    variant: str
    success_probability: float
    fidelity: float
    output_amplitudes: np.ndarray
    lambda_expected: complex
    garbage_norm: float
    cost: CostEstimate

    def to_dict(self, chain_id: str = "", k: int | None = None,
                tau0: float | None = None, seed: int | None = None,
                epsilon: float = 0.01) -> dict:
        amp = None
        if 0.0 < self.success_probability < 1.0:
            amp = amplification_runs(self.success_probability, epsilon)
        return {
            "variant": self.variant,
            "chain_id": chain_id,
            "k": k,
            "tau0": tau0,
            "lambda": {"abs": abs(self.lambda_expected),
                       "arg": float(np.angle(self.lambda_expected))},
            "success_probability": self.success_probability,
            "fidelity": self.fidelity,
            "runs_expected": self.cost.runs_expected,
            "amplification": {"epsilon": epsilon, "M": amp},
            "seed": seed,
        }


# ---------------------------------------------------------------------------
# state preparation and measurement
# ---------------------------------------------------------------------------

def prepare_k_state(s, partition: Partition, k: int) -> PureState:
    """Chain k-sector state with sender amplitudes ``s`` and the rest ground."""
    s = np.asarray(s, dtype=complex)
    n_s_k = binom(partition.n_s, k)
    if s.shape != (n_s_k,):
        raise ValueError(f"expected {n_s_k} sender amplitudes, got shape {s.shape}")
    norm = np.linalg.norm(s)
    if abs(norm - 1.0) > 1e-10:
        warnings.warn(f"input norm {norm:.6g} != 1; renormalizing", stacklevel=2)
        s = s / norm
    vec = np.zeros(binom(partition.n_sites, k), dtype=complex)
    sender = embed_subsystem(partition.sender_sites, partition.n_sites, k)
    vec[np.asarray(sender.chain_ordinals)] = s
    return PureState(amplitudes=vec,
                     basis=BasisDescriptor("sector", partition.n_sites, k))


def measure_ancilla(state: PureState, ancilla: str, outcome: int):
    """Post-select one ancilla outcome: (probability, renormalized state)."""
    if ancilla not in state.basis.ancillas:
        raise ValueError(f"unknown ancilla {ancilla!r}")
    if outcome not in (0, 1):
        raise ValueError("outcome must be 0 or 1")
    axis = 1 + state.basis.ancillas.index(ancilla)
    branch = np.take(state.amplitudes, outcome, axis=axis)
    prob = float(np.linalg.norm(branch) ** 2)
    rest = tuple(a for a in state.basis.ancillas if a != ancilla)
    new_basis = BasisDescriptor(state.basis.kind, state.basis.n, state.basis.k, rest)
    if prob == 0.0:
        return 0.0, None
    return prob, PureState(amplitudes=branch / math.sqrt(prob), basis=new_basis)


# ---------------------------------------------------------------------------
# cost model and probability amplification
# ---------------------------------------------------------------------------

def amplification_runs(success_probability: float, epsilon: float) -> int:
    """Runs needed so that all-failure probability drops below epsilon."""
    p, eps = success_probability, epsilon
    if not 0.0 < p < 1.0:
        raise ValueError(f"success probability must be in (0, 1), got {p}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"target failure must be in (0, 1), got {eps}")
    return math.ceil(math.log2(1.0 / eps) / math.log2(1.0 / (1.0 - p)))


def cost_estimate(variant: str, *, n_s: int, k: int, n_er: int | None = None,
                  n_s0: int | None = None, q_layers: int | None = None,
                  t0: float = 0.0, lam_abs: float = 0.0) -> CostEstimate:
    """Symbolic operation counts per protocol variant, unit constants.

    The restoring-unitary depth is counted only for the circuit families
    (Q*n_er preserving, Q*n_er**2 non-preserving); general-form solutions
    contribute zero since no gate realization is prescribed for them.
    """
    n_s_k = binom(n_s, k)
    encode = 0
    wer = 0
    if variant == "k_excitation":
        label = k * n_s_k
        if q_layers and n_er:
            wer = q_layers * n_er
    elif variant == "arbitrary":
        if n_s0 is None:
            raise ValueError("arbitrary variant needs n_s0")
        encode = (2 ** n_s0) * k * n_s0
        label = k * (2 ** n_s0)
        if q_layers and n_er:
            wer = q_layers * n_er
    elif variant == "nonpreserving":
        if n_er is None:
            raise ValueError("nonpreserving variant needs n_er")
        label = n_er * n_s_k + k * binom(n_er, k)
        if q_layers:
            wer = q_layers * n_er ** 2
    elif variant == "global":
        label = 1
    else:
        raise ValueError(f"unknown variant {variant!r}")
    runs = math.ceil(1.0 / lam_abs ** 2) if lam_abs > 0 else None
    return CostEstimate(encode_depth=encode, label_depth=label, wer_depth=wer,
                        t0=t0, runs_expected=runs)


# ---------------------------------------------------------------------------
# protocol runners
# ---------------------------------------------------------------------------

def _q_layers_of(solution: RestoreSolution) -> int | None:
    if solution.circuit_params is None:
        return None
    per = 2 if solution.mode == "circuit-preserving" else 3
    return len(solution.circuit_params) // (per * solution.n_er)


def input_dimension(variant: str, partition: Partition, k: int,
                    mode: str | None = None) -> int:
    """Number of input amplitudes of a variant; checks what a run needs.

    ``mode``, if given, is the restoring solution family, which must be
    non-preserving for the ``nonpreserving`` variant and preserving for the
    others.  Raises ValueError for an unknown variant, a wrong family, or
    S0/R0 registers the encoded variant cannot use.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown protocol variant {variant!r}; "
                         f"expected one of {', '.join(VARIANTS)}")
    if mode is not None and (variant == "nonpreserving") == (mode in PRESERVING_MODES):
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


def _check_solution(solution: RestoreSolution, tau0: float, k: int,
                    partition: Partition, variant: str) -> None:
    if not solution.converged:
        raise ValueError("restoring solution did not converge")
    if abs(solution.tau - tau0) > 1e-9:
        raise ValueError(f"solution was computed at tau={solution.tau}, "
                         f"protocol runs at tau={tau0}")
    if solution.k != k or solution.n_er != partition.n_er:
        raise ValueError("solution provenance does not match the partition")
    input_dimension(variant, partition, k, solution.mode)


def _sector_block(w, n: int, k: int) -> np.ndarray:
    """A whole-line unitary's k-sector block, rejected unless it is unitary."""
    w = np.asarray(w, dtype=complex)
    dim = binom(n, k)
    if w.shape != (dim, dim):
        raise ValueError(f"a whole-line unitary is given as its {dim} x {dim} "
                         f"k-sector block, got shape {w.shape}")
    dev = np.abs(w @ w.conj().T - np.eye(dim)).max()
    if dev > UNITARY_TOL:
        raise ValueError(f"k-sector block is not unitary (deviation {dev:.2e}): "
                         "the whole-line unitary leaks out of the sector")
    return w


def _run(variant: str, couplings: CouplingMatrix, partition: Partition, k: int,
         s, w, tau0: float, transfer_map: TransferMap | None) -> ProtocolReport:
    """Post-selected output of one variant, computed in the chain k-sector."""
    dim = input_dimension(variant, partition, k)
    s = np.asarray(s, dtype=complex)
    if s.shape != (dim,):
        raise ValueError(f"expected {dim} input amplitudes, got shape {s.shape}")
    s = s / np.linalg.norm(s)
    tm = transfer_map or TransferMap(couplings, partition, k)
    built_for = (tm.partition.n_sites, tm.partition.n_s, tm.partition.n_er, tm.k)
    if built_for != (partition.n_sites, partition.n_s, partition.n_er, k):
        raise ValueError("transfer map was built for another partition or k")
    # the encoded input j sits on sender pattern j; the others carry nothing
    x = np.zeros(binom(partition.n_s, k), dtype=complex)
    x[:dim] = s

    if isinstance(w, RestoreSolution) or variant != "global":
        _check_solution(w, tau0, k, partition, variant)
        lam, q_layers = w.lam, _q_layers_of(w)
        register = wer_full_from_solution(w) @ (
            _register_columns(tm.v_hat(tau0), partition.n_er) @ x)
        recv = _full_er_positions(partition.n_er, partition.n_r, k)[0]
        branch = register[recv[:dim]]
    else:
        block = _sector_block(w, partition.n_sites, k)
        lam, q_layers = 1.0, None
        u, evals = tm.eig.eigenvectors, tm.eig.eigenvalues
        chain = prepare_k_state(x, partition, k).amplitudes
        chain = block @ (u @ (np.exp(-1j * evals * tau0) * (u.conj().T @ chain)))
        recv = embed_subsystem(partition.receiver_sites, partition.n_sites, k)
        branch = chain[np.asarray(recv.chain_ordinals)]

    prob = float(np.vdot(branch, branch).real)
    out = branch / math.sqrt(prob) if prob > 0.0 else np.zeros(dim, dtype=complex)
    n_s0 = len(partition.s0_sites) if variant == "arbitrary" else None
    cost = cost_estimate(variant, n_s=partition.n_s, k=k, n_er=partition.n_er,
                         n_s0=n_s0, q_layers=q_layers, t0=tau0, lam_abs=abs(lam))
    return ProtocolReport(variant=variant, success_probability=prob,
                          fidelity=float(abs(np.vdot(s, out))),
                          output_amplitudes=out, lambda_expected=complex(lam),
                          garbage_norm=math.sqrt(max(1.0 - prob, 0.0)), cost=cost)


def run_k_excitation_pst(couplings: CouplingMatrix, partition: Partition, k: int,
                         s, solution: RestoreSolution, tau0: float,
                         transfer_map: TransferMap | None = None) -> ProtocolReport:
    """Fixed-excitation protocol: sender amplitudes ``s`` to the receiver.

    Sector evolution to tau0, a preserving W_ER on the extended receiver,
    the flag on the receiver k-patterns, post-selection of the flagged
    branch.  Output amplitudes are in receiver k-basis order.
    ``transfer_map`` is the chain's TransferMap, built if not given.
    """
    return _run("k_excitation", couplings, partition, k, s, solution, tau0,
                transfer_map)


def run_global_pst(couplings: CouplingMatrix, partition: Partition, k: int, s,
                   w, tau0: float,
                   transfer_map: TransferMap | None = None) -> ProtocolReport:
    """Whole-line reference protocol: the flag on the ground S+TL subspace.

    ``s`` holds sender k-sector amplitudes.  ``w`` is a preserving
    RestoreSolution, whose W_ER acts as the identity outside the extended
    receiver, or the C(N, k)-square k-sector block of a whole-line unitary,
    rejected unless it is unitary to UNITARY_TOL.
    """
    return _run("global", couplings, partition, k, s, w, tau0, transfer_map)


def run_arbitrary_pst(couplings: CouplingMatrix, partition: Partition, k: int,
                      input_state, solution: RestoreSolution, tau0: float,
                      transfer_map: TransferMap | None = None) -> ProtocolReport:
    """Encoded protocol: an arbitrary S0 state through the k-excitation channel.

    Encode S0 value j into sender pattern j (and reset S0), evolve, restore
    at the extended receiver, flag the first 2**n_s0 receiver patterns,
    decode pattern j into R0 value j (and reset R), post-select the flag.
    Output amplitudes are over the R0 values.
    """
    return _run("arbitrary", couplings, partition, k, input_state, solution, tau0,
                transfer_map)


def run_nonpreserving_pst(couplings: CouplingMatrix, partition: Partition, k: int,
                          s, solution: RestoreSolution, tau0: float,
                          transfer_map: TransferMap | None = None) -> ProtocolReport:
    """Protocol variant for a W_ER that mixes excitation sectors.

    A marker ancilla D joins at registration time and is set on the "all
    excitations inside ER" components before W_ER acts; the flag B then
    selects components with A ground, a receiver k-pattern, and D set.
    """
    return _run("nonpreserving", couplings, partition, k, s, solution, tau0,
                transfer_map)

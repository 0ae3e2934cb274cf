"""Fixed gate data for register-local circuits.

Qubits are 1-based; qubit q of an n-qubit register is bit q-1 of the basis
index, so basis index m = sum over excited qubits of 2**(q-1).  Index plans
are cached per register size since registers here stay small.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)


@lru_cache(maxsize=None)
def _bit_split(n: int, qubit: int) -> tuple[np.ndarray, np.ndarray]:
    """Basis indices with ``qubit`` in the ground state, and their partners with it excited."""
    idx = np.arange(2 ** n)
    bit = (idx >> (qubit - 1)) & 1
    return idx[bit == 0], idx[bit == 1]


@lru_cache(maxsize=None)
def _cnot_perm(n: int, control: int, target: int) -> np.ndarray:
    """Row permutation of CNOT (flip ``target`` where ``control`` is excited)."""
    idx = np.arange(2 ** n)
    ctrl = (idx >> (control - 1)) & 1
    return np.where(ctrl == 1, idx ^ (1 << (target - 1)), idx)

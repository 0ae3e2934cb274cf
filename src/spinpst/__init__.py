"""Perfect state transfer on spin-1/2 chains via restoring and post-selection."""

from .basis import SectorBasis, binom, embed_subsystem, k_states
from .chain import (ChainSpec, CouplingMatrix, InvalidSpecError, Partition,
                    build_couplings, hamiltonian_block)
from .dynamics import (SectorEigensystem, TransferBlock, TransferMap,
                       eigendecompose, propagator, sector_eigensystem)
from .protocol import ProtocolReport, amplification_runs, run as run_protocol
from .restore import (ConvergenceError, FeasibilityError, RestoreProblem,
                      RestoreSolution, fit_circuit, solve_general)
from .scale import ScanResult, roots_at, scan

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

"""Perfect state transfer on spin-1/2 chains via restoring and post-selection."""

from .basis import SectorBasis, binom, embed_subsystem, k_states
from .chain import (ChainSpec, CouplingMatrix, InvalidSpecError, Partition,
                    build_couplings, hamiltonian_block)
from .dynamics import (SectorEigensystem, TransferBlock, TransferMap,
                       eigendecompose, propagator, sector_eigensystem)
from .protocol import (ProtocolReport, amplification_runs, run_arbitrary_pst,
                       run_global_pst, run_k_excitation_pst, run_nonpreserving_pst)
from .restore import (ConvergenceError, FeasibilityError, RestoreProblem,
                      RestoreSolution, fit_circuit, solve_general)
from .scale import ScanResult, roots_at, scan

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

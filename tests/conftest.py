import os

# One BLAS thread, set before numpy first loads, as bench/run.py does: the
# suite's many small dense products and expm calls run several times slower
# on more threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np
import pytest

from spinpst import (ChainSpec, Partition, RestoreProblem, TransferMap,
                     build_couplings, solve_general)
from spinpst.paper import PAPER_TABLE_1A

TAU0 = {n_er: tau0 for n_er, (tau0, _) in PAPER_TABLE_1A.items()}


@pytest.fixture(scope="session")
def chain10():
    return build_couplings(ChainSpec(n_sites=10))


@pytest.fixture(scope="session")
def part10():
    def make(n_er):
        return Partition(n_sites=10, n_s=3, n_r=3, n_er=n_er)
    return make


@pytest.fixture(scope="session")
def tmap10(chain10, part10):
    cache = {}

    def make(n_er):
        if n_er not in cache:
            cache[n_er] = TransferMap(chain10, part10(n_er), 2)
        return cache[n_er]
    return make


@pytest.fixture(scope="session")
def vhat_at(tmap10):
    def make(n_er, tau=None):
        return tmap10(n_er).v_hat(TAU0[n_er] if tau is None else tau)
    return make


@pytest.fixture(scope="session")
def solution5(vhat_at):
    problem = RestoreProblem(v_hat=vhat_at(5), mode="preserving-general",
                             seed=42)
    return solve_general(problem)


@pytest.fixture(scope="session")
def solution5_nonpreserving(vhat_at):
    problem = RestoreProblem(v_hat=vhat_at(5), mode="nonpreserving-general",
                             seed=42)
    return solve_general(problem)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240731)

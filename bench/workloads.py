"""The benchmark's three workloads, built from the workload seed.

A plan lists one untimed warm-up command, the commands of one round (each
with the check run on its output) and the oracle values those checks need.
Every round repeats the same commands, so a run attempts whole rounds.  The
seed only makes inputs: oracle sample taus and protocol input states
written to files.  The program sees nothing but the
resulting command lines, configs and files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from checks import Published

BENCH = Path(__file__).resolve().parent
CONFIGS = BENCH / "configs"
OUT = BENCH / "out"

# Published values (Tables 1a and 2, root lists) at the acceptance-test tolerances.
TABLE_1A = {4: Published(12.493, 0.435, 1e-9, 5e-4),
            5: Published(14.391, 0.597, 1e-9, 5e-4),
            6: Published(14.132, 0.714, 1e-9, 5e-4)}
ROOT_LISTS = {4: (0.435, 0.660, 0.828),
              5: (0.597, 0.794, 0.866),
              6: (0.714, 0.888, 0.931)}
TABLE_2 = {"n30": Published(37.393, 0.136, 1e-9, 5e-4),
           "n42_distance": Published(57.267, 0.467, 0.05, 5e-3)}

SCAN_SAMPLES = 2                # oracle sample taus per scanned config
SOLVER_SEEDS = (0, 1, 2)        # fixed solver seeds of restore-protocol
THREADS = ("--threads", "1")    # program thread count

Check = Callable[[dict, list, dict], None]   # (printed JSON, solver calls, oracle)


@dataclass
class Op:
    """One CLI command of a round and the check applied to its output."""

    argv: list[str]
    check: Check


@dataclass
class Plan:
    warmup: list[str] = field(default_factory=list)
    ops: list[Op] = field(default_factory=list)
    oracle_requests: dict[str, dict] = field(default_factory=dict)
    configs: list[str] = field(default_factory=list)   # parsed by the set-up probe


def read_config(name: str) -> dict[str, str]:
    """The benchmark's own reading of a flat ``key = value`` config."""
    out = {}
    for line in (CONFIGS / name).read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            key, value = (s.strip() for s in line.split("=", 1))
            out[key] = value
    return out


def _oracle_request(cfg: dict[str, str], tau: float) -> dict:
    overrides = {}
    for item in filter(None, cfg.get("chain.nn_overrides", "").split(",")):
        bond, value = item.split(":")
        overrides[int(bond.split("-")[0])] = float(value)
    return {"n": int(cfg["chain.n"]), "nn_overrides": overrides,
            "n_s": int(cfg["partition.n_s"]), "n_er": int(cfg["partition.n_er"]),
            "k": int(cfg["excitation.k"]), "tau": tau}


class _Planner:
    def __init__(self, name: str, seed: int):
        self.rng = np.random.default_rng(seed)
        self.out = OUT / name
        self.out.mkdir(parents=True, exist_ok=True)
        self.plan = Plan()

    def config(self, name: str) -> str:
        path = str(CONFIGS / name)
        if path not in self.plan.configs:
            self.plan.configs.append(path)
        return path

    def oracle(self, name: str, tau: float) -> str:
        key = f"{name}@{tau!r}"
        self.plan.oracle_requests[key] = _oracle_request(read_config(name), tau)
        return key

    def add(self, argv: list[str], check: Check) -> None:
        self.plan.ops.append(Op(argv=[*argv, *THREADS], check=check))

    def scan(self, name: str, published: Published) -> None:
        cfg = read_config(name)
        lo, hi, step = (float(cfg[f"scan.{k}"]) for k in ("tau_min", "tau_max", "step"))
        points = int(round((hi - lo) / step)) + 1
        taus = [lo + step * int(i) for i in self.rng.integers(0, points, SCAN_SAMPLES)]
        keys = {tau: self.oracle(name, tau) for tau in taus}
        csv = self.out / f"{Path(name).stem}.csv"

        def check(payload, calls, oracle):
            checks.check_scan(payload, csv, published,
                              {tau: oracle[key] for tau, key in keys.items()})
        self.add(["scan", "--config", self.config(name), "--out", str(csv)], check)

    def state(self, label: str, dim: int) -> str:
        z = self.rng.standard_normal(dim) + 1j * self.rng.standard_normal(dim)
        path = self.out / f"state-{label}.json"
        path.write_text(json.dumps([[x.real, x.imag] for x in z]))
        return str(path)


def _one_call(calls: list) -> tuple:
    if len(calls) != 1:
        raise checks.CheckFailed(f"expected one solver call, saw {len(calls)}")
    return calls[0]


def long_chain_scan(seed: int) -> Plan:
    """Table 2 rows N=30 and N=42 (distance reading) over their full windows."""
    b = _Planner("long-chain-scan", seed)
    b.plan.warmup = ["scan", "--config", str(CONFIGS / "warmup_scan.cfg"),
                     "--out", str(b.out / "warmup.csv"), *THREADS]
    for name, published in TABLE_2.items():
        b.scan(f"{name}.cfg", published)
    return b.plan


def restore_protocol(seed: int) -> Plan:
    """Table 1a pipeline at N=10: scans, root lists, solves and all protocols."""
    b = _Planner("restore-protocol", seed)
    b.plan.warmup = ["simulate", "--config", str(CONFIGS / "np4.cfg"), "--seed", "0",
                     "--state", b.state("warmup", 3), *THREADS]
    sigma_keys = {}
    for n_er in (4, 5, 6):
        name = f"p{n_er}.cfg"
        b.scan(name, TABLE_1A[n_er])
        sigma_keys[n_er] = b.oracle(name, TABLE_1A[n_er].tau0)
    for n_er in (4, 5, 6):
        key, published = sigma_keys[n_er], ROOT_LISTS[n_er]

        def check(payload, calls, oracle, key=key, published=published):
            checks.check_roots(payload, published, oracle[key])
        b.add(["roots", "--config", b.config(f"p{n_er}.cfg")], check)

    def solve_check(key):
        def check(payload, calls, oracle):
            checks.check_general(payload, *_one_call(calls), oracle[key])
        return check

    def simulate_check(key):
        def check(payload, calls, oracle):
            problem, solution = _one_call(calls)
            checks.check_general(None, problem, solution, oracle[key])
            checks.check_protocol(payload, solution)
        return check

    # (config, variant, input dimension, n_er of its transfer block)
    simulations = (("p5.cfg", "k_excitation", 3, 5), ("arbitrary5.cfg", "arbitrary", 2, 5),
                   ("global4.cfg", "global", 3, 4), ("np4.cfg", "nonpreserving", 3, 4))
    for s in SOLVER_SEEDS:
        for name, n_er in (("p4.cfg", 4), ("p5.cfg", 5), ("p6.cfg", 6),
                           ("np4.cfg", 4), ("np5.cfg", 5)):
            b.add(["solve", "--config", b.config(name), "--seed", str(s)],
                  solve_check(sigma_keys[n_er]))
        for name, variant, dim, n_er in simulations:
            b.add(["simulate", "--config", b.config(name), "--seed", str(s),
                   "--state", b.state(f"{variant}-{s}", dim)],
                  simulate_check(sigma_keys[n_er]))
    return b.plan


def circuit_fit(seed: int) -> Plan:
    """Both circuit families at n_er=4, tau=12.493, eight restarts each.

    The fit seeds sit in the configs, like the restart budget: a fit's time
    depends on its starting angles, and eight restarts from other seeds
    took up to 16 % more or less time.  Nothing here depends on ``seed``.
    """
    b = _Planner("circuit-fit", seed)
    b.plan.warmup = ["fit-circuit", "--config", str(CONFIGS / "fit_warmup.cfg"), *THREADS]
    key = b.oracle("fit_pres_q3.cfg", TABLE_1A[4].tau0)

    def check(payload, calls, oracle):
        checks.check_circuit(payload, *_one_call(calls), oracle[key])
    for name in ("fit_pres_q3.cfg", "fit_nonpres_q2.cfg"):
        b.add(["fit-circuit", "--config", b.config(name)], check)
    return b.plan


PLANNERS = {"long-chain-scan": long_chain_scan,
            "restore-protocol": restore_protocol,
            "circuit-fit": circuit_fit}
WORKLOADS = tuple(PLANNERS)


def build(workload: str, seed: int) -> Plan:
    return PLANNERS[workload](seed)

"""Acceptance suite: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one summary line
per criterion.  The stochastic circuit fits (criterion 9) are best-effort
reproductions of published optimization maxima; their assertion messages
carry the best-achieved value and the seed.
"""

import math
import time

import numpy as np
import pytest

from spinpst import (ChainSpec, Partition, RestoreProblem, TransferMap,
                     build_couplings, fit_circuit, protocol, scale, solve_general)
from spinpst.basis import k_states
from spinpst.paper import (LAMBDA_TOL, N42_OVERRIDES, PAPER_ROOTS, PAPER_TABLE_1A,
                           PAPER_TABLE_2, PAPER_TABLE_2_N42, TABLE_2_WINDOWS, TAU0_TOL)

from _oracles import (dipole_couplings, expm_propagator, gram, lambda_polynomial,
                      least_squares_lambda, pauli_xx_hamiltonian, real_roots,
                      restoring_columns, restrict_to_sector, u_pair, wer_full_from_solution)

SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
                dtype=complex)


def _status(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}  {detail}")


def test_criterion_01_table_1a_scan(tmap10):
    t0 = time.time()
    results = {}
    for n_er in (4, 5, 6):
        res = scale.scan(tmap10(n_er), 0.0, 20.0, 0.001)
        results[n_er] = res
    elapsed = time.time() - t0
    ok = True
    for n_er, (tau_ref, lam_ref) in PAPER_TABLE_1A.items():
        res = results[n_er]
        ok &= abs(res.tau0 - tau_ref) < TAU0_TOL
        ok &= abs(res.lambda_min - lam_ref) <= LAMBDA_TOL
    _status("criterion 1: registration-time table",
            ok and elapsed < 120,
            " ".join(f"n_er={n}: tau0={results[n].tau0:.3f} "
                     f"lam={results[n].lambda_min:.4f}" for n in (4, 5, 6))
            + f" ({elapsed:.1f}s)")
    for n_er, (tau_ref, lam_ref) in PAPER_TABLE_1A.items():
        assert results[n_er].tau0 == pytest.approx(tau_ref, abs=TAU0_TOL)
        assert results[n_er].lambda_min == pytest.approx(lam_ref, abs=LAMBDA_TOL)
    assert elapsed < 120


def test_criterion_02_root_lists(tmap10):
    ok = True
    details = []
    for n_er, wants in PAPER_ROOTS.items():
        tau0 = PAPER_TABLE_1A[n_er][0]
        roots = scale.roots_at(tmap10(n_er), tau0)
        good = len(roots) == 3 and all(abs(r - w) <= LAMBDA_TOL
                                       for r, w in zip(roots, wants))
        ok &= good
        details.append(f"n_er={n_er}: {np.round(roots, 4)}")
    _status("criterion 2: polynomial root lists", ok, "; ".join(details))
    assert ok


def test_criterion_03_long_chains():
    t0 = time.time()
    ok = True
    details = []
    chains = [(n, ChainSpec(n_sites=n), published) for n, published in PAPER_TABLE_2.items()]
    # the 42-site chain with adjusted end bonds, read as inter-site distances
    chains.append((42, ChainSpec(n_sites=42, nn_overrides=N42_OVERRIDES), PAPER_TABLE_2_N42))
    for n, spec, (tau_ref, lam_ref) in chains:
        part = Partition(n_sites=n, n_s=3, n_r=3, n_er=5)
        res = scale.scan(TransferMap(build_couplings(spec), part, 2), 0.0,
                         TABLE_2_WINDOWS[n], 0.001)
        good = (abs(res.tau0 - tau_ref) < TAU0_TOL and
                abs(res.lambda_min - lam_ref) <= LAMBDA_TOL)
        ok &= good
        details.append(f"N={n}: {res.tau0:.3f}/{res.lambda_min:.4f}")
        assert good, (n, res.tau0, res.lambda_min)
    elapsed = time.time() - t0
    _status("criterion 3: long-chain table", ok and elapsed < 600,
            "; ".join(details) + f" ({elapsed:.1f}s)")
    assert elapsed < 600


def test_criterion_04_scale_factor_uniqueness(vhat_at):
    # 25 independently seeded least-squares searches over free rows per mode:
    # every one lands on the smallest root, the closed form's sigma_min
    v = vhat_at(5)
    min_root = real_roots(lambda_polynomial(gram(v).g))[0]
    details = []
    for mode in ("preserving-general", "nonpreserving-general"):
        problem = RestoreProblem(v_hat=v, mode=mode, seed=1001)
        closed = solve_general(problem)
        b = restoring_columns(v.v_hat, 5, 2, mode)
        d, n = b.shape
        lams = np.array([least_squares_lambda(b, n, d - n + 1, seed=1001 + 1000 * t)
                         for t in range(1, 26)])
        spread = lams.max() - lams.min()
        dev = abs(lams.mean() - min_root)
        details.append(f"{mode}: spread={spread:.2e} dev={dev:.2e}")
        assert spread < 1e-8, (mode, spread)
        assert np.abs(lams - min_root).max() < 1e-6, (mode, dev)
        assert np.abs(lams - closed.lam_abs).max() < 1e-8, mode
    _status("criterion 4: scale factor set by the transfer block alone", True,
            "; ".join(details))


def test_criterion_05_protocol_fidelity(tmap10, solution5, rng):
    t0 = time.time()
    worst_fid = 1.0
    probs = []
    for _ in range(100):
        s = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        s /= np.linalg.norm(s)
        rep = protocol.run("k_excitation", tmap10(5).partition, s, solution5)
        worst_fid = min(worst_fid, rep.fidelity)
        probs.append(rep.success_probability)
    elapsed = time.time() - t0
    probs = np.array(probs)
    _status("criterion 5: post-selected fidelity", True,
            f"worst fid deficit={1 - worst_fid:.2e} "
            f"prob={probs.mean():.4f} ({elapsed:.1f}s)")
    assert worst_fid >= 1 - 1e-8
    assert np.abs(probs - 0.356).max() <= 1e-3
    assert elapsed < 60


def test_criterion_06_encoded_qubit_transfer(chain10, rng):
    part = Partition(n_sites=10, n_s=3, n_r=3, n_er=5,
                     s0_sites=(4,), r0_sites=(7,))
    tm = TransferMap(chain10, part, 2)
    sol = solve_general(RestoreProblem(v_hat=tm.v_hat(14.391),
                                       mode="preserving-general",
                                       seed=2002))
    psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    psi /= np.linalg.norm(psi)
    rep = protocol.run("arbitrary", tm.partition, psi, sol)
    _status("criterion 6: encoded arbitrary-state transfer", True,
            f"fid deficit={1 - rep.fidelity:.2e} prob={rep.success_probability:.4f}")
    assert rep.fidelity >= 1 - 1e-8
    assert rep.success_probability == pytest.approx(abs(sol.lam) ** 2, abs=1e-6)


def test_criterion_07_oracle_equivalence(rng):
    from spinpst.chain import hamiltonian_block
    from spinpst.dynamics import propagator, sector_eigensystem
    worst = 0.0
    for n in (6, 8):
        gaps = rng.uniform(0.8, 1.3, n - 1)
        pos = tuple(np.concatenate([[0.0], np.cumsum(gaps)]))
        c = dipole_couplings(pos)
        h_full = pauli_xx_hamiltonian(c.d)
        v_full = expm_propagator(h_full, 3.7)
        for k in range(n + 1):
            masks = k_states(n, k).states
            h_sector = restrict_to_sector(h_full, masks)
            worst = max(worst, np.abs(hamiltonian_block(c, k) - h_sector).max())
            v_sector = restrict_to_sector(v_full, masks)
            eig = sector_eigensystem(c, k)
            worst = max(worst, np.abs(propagator(eig, 3.7) - v_sector).max())

    # full fixed-k protocol vs brute-force full-space composition at N=8
    c8 = build_couplings(ChainSpec(n_sites=8))
    part8 = Partition(n_sites=8, n_s=3, n_r=3, n_er=4)
    tm = TransferMap(c8, part8, 2)
    sol = solve_general(RestoreProblem(v_hat=tm.v_hat(9.0),
                                       mode="preserving-general",
                                       seed=3003))
    s = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    s /= np.linalg.norm(s)
    rep = protocol.run("k_excitation", tm.partition, s, sol)
    full = np.zeros(256, dtype=complex)
    for j, mask in enumerate([0b011, 0b101, 0b110]):
        full[mask] = s[j]
    full = expm_propagator(pauli_xx_hamiltonian(c8.d), 9.0) @ full
    full = np.kron(wer_full_from_solution(sol), np.eye(16)) @ full
    recv = [m << 5 for m in k_states(3, 2).states]
    prob = sum(abs(full[m]) ** 2 for m in recv)
    out = np.array([full[m] for m in recv]) / math.sqrt(prob)
    worst = max(worst, abs(prob - rep.success_probability))
    worst = max(worst, np.abs(out - rep.output_amplitudes).max())
    _status("criterion 7: brute-force equivalence", worst < 1e-10,
            f"worst deviation={worst:.2e}")
    assert worst < 1e-10


def test_criterion_08_gate_algebra(rng):
    u0 = u_pair(np.eye(4, dtype=complex), 1, 2, 0.0, 0.0, 2)
    swap_err = np.abs(u0 - SWAP).max()
    num = np.diag([0.0, 1.0, 1.0, 2.0]).astype(complex)
    worst_comm = 0.0
    for _ in range(100):
        a, b = rng.uniform(0, 2 * np.pi, 2)
        u = u_pair(np.eye(4, dtype=complex), 1, 2, a, b, 2)
        worst_comm = max(worst_comm, np.abs(u @ num - num @ u).max())
    _status("criterion 8: gate algebra", swap_err < 1e-12 and worst_comm < 1e-12,
            f"swap err={swap_err:.1e} comm err={worst_comm:.1e}")
    assert swap_err < 1e-12
    assert worst_comm < 1e-12


def test_criterion_09_stochastic_circuit_fits(vhat_at):
    t0 = time.time()
    seed = 20240801
    prob_p = RestoreProblem(v_hat=vhat_at(4, tau=12.493),
                            mode="circuit-preserving", q_layers=3,
                            n_extra_zero_rows=0, seed=seed, restarts=1000)
    sol_p = fit_circuit(prob_p)
    prob_n = RestoreProblem(v_hat=vhat_at(4, tau=12.493),
                            mode="circuit-nonpreserving", q_layers=2,
                            n_extra_zero_rows=0, seed=seed, restarts=1000)
    sol_n = fit_circuit(prob_n)
    elapsed = time.time() - t0
    ok = sol_p.lam_abs >= 0.42 and 0.22 <= sol_n.lam_abs <= 0.27
    _status("criterion 9: stochastic circuit fits", ok,
            f"preserving best={sol_p.lam_abs:.4f} "
            f"nonpreserving best={sol_n.lam_abs:.4f} seed={seed} ({elapsed:.0f}s)")
    assert sol_p.lam_abs >= 0.42, \
        f"best-effort miss: best={sol_p.lam_abs:.6f} seed={seed}"
    assert 0.22 <= sol_n.lam_abs <= 0.27, \
        f"best-effort miss: best={sol_n.lam_abs:.6f} seed={seed}"


def test_criterion_10_amplification():
    assert protocol.amplification_runs(0.5, 0.001) == 10
    ps = np.linspace(0.05, 0.95, 10)
    epss = np.logspace(-4, -0.5, 10)
    grid = np.array([[protocol.amplification_runs(p, e) for e in epss]
                     for p in ps])
    # monotone decreasing in p (rows), increasing in 1/eps (columns reversed)
    assert np.all(np.diff(grid, axis=0) <= 0)
    assert np.all(np.diff(grid, axis=1) <= 0)
    _status("criterion 10: amplification formula", True,
            f"M(0.5,1e-3)={protocol.amplification_runs(0.5, 0.001)}")

"""Tests of the benchmark itself: oracle, checks, runner output and inputs.

Run with ``PYTHONPATH=src python -m pytest bench``.
"""

import contextlib
import dataclasses
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import oracle
import run
import tracing
import workloads
from spinpst import (ChainSpec, Partition, RestoreProblem, TransferMap, build_couplings,
                     fit_circuit)
from spinpst.basis import k_states
from spinpst.chain import hamiltonian_block
from spinpst.dynamics import propagator, sector_eigensystem

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
OVERRIDES = {1: 0.5, 4: 0.8}


def test_oracle_agrees_with_program_on_tiny_chain():
    couplings = build_couplings(ChainSpec(n_sites=6, nn_overrides=OVERRIDES))
    d = oracle.couplings(6, OVERRIDES)
    assert np.abs(d - couplings.d).max() < 1e-14
    part = Partition(n_sites=6, n_s=3, n_r=3, n_er=3)
    tau = 2.7
    for k in range(7):
        h, masks = oracle.sector_hamiltonian(d, k)
        order = [masks.index(m) for m in k_states(6, k).states]
        h = h[np.ix_(order, order)]
        assert np.abs(hamiltonian_block(couplings, k) - h).max() < 1e-14
        v = propagator(sector_eigensystem(couplings, k), tau)
        assert np.abs(v - oracle.scipy.linalg.expm(-1j * tau * h)).max() < 1e-12
        if 1 <= k <= 3:
            got = np.linalg.svd(TransferMap(couplings, part, k).v_hat(tau).v_hat,
                                compute_uv=False)
            want = oracle.singular_values({"n": 6, "nn_overrides": OVERRIDES, "n_s": 3,
                                           "n_er": 3, "k": k, "tau": tau})
            assert np.abs(np.sort(got) - want).max() < 1e-12


# -- every check accepts real output and rejects a perturbed one ------------

@pytest.fixture(scope="module")
def program():
    """The CLI in-process, with solver calls captured; restored afterwards."""
    from spinpst import cli
    capture = run.Capture()
    capture.install()

    def invoke(*argv):
        out = io.StringIO()
        capture.calls.clear()
        with contextlib.redirect_stdout(out):
            assert cli.main([*argv, "--threads", "1"]) == 0
        return json.loads(out.getvalue()), list(capture.calls)
    yield invoke
    capture.uninstall()


def _sigmas(cfg: str, tau: float) -> list[float]:
    return oracle.singular_values(workloads._oracle_request(workloads.read_config(cfg), tau))


def _config(name: str) -> str:
    return str(workloads.CONFIGS / name)


def _rejects(check, *args):
    with pytest.raises(checks.CheckFailed):
        check(*args)


def test_scan_check(program, tmp_path):
    csv = tmp_path / "scan.csv"
    summary, _ = program("scan", "--config", _config("p4.cfg"), "--out", str(csv))
    published = workloads.TABLE_1A[4]
    samples = {12.0: _sigmas("p4.cfg", 12.0), 0.001: _sigmas("p4.cfg", 0.001)}
    checks.check_scan(summary, csv, published, samples)
    _rejects(checks.check_scan, {**summary, "tau0": summary["tau0"] + 0.001},
             csv, published, samples)
    _rejects(checks.check_scan, {**summary, "lambda_min": summary["lambda_min"] * 1.01},
             csv, published, samples)
    lines = csv.read_text().splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith("12,"))
    cells = lines[row].split(",")
    cells[2] = format(float(cells[2]) * 1.001, ".9g")
    lines[row] = ",".join(cells)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    _rejects(checks.check_scan, summary, bad, published, samples)


def test_roots_check(program):
    payload, _ = program("roots", "--config", _config("p5.cfg"))
    sigmas = _sigmas("p5.cfg", 14.391)
    checks.check_roots(payload, workloads.ROOT_LISTS[5], sigmas)
    bad = {**payload, "roots": [payload["roots"][0] * 1.01, *payload["roots"][1:]]}
    _rejects(checks.check_roots, bad, workloads.ROOT_LISTS[5], sigmas)
    nudged = [payload["roots"][0] + 1e-8, *payload["roots"][1:]]
    _rejects(checks.check_roots, {**payload, "roots": nudged}, workloads.ROOT_LISTS[5],
             sigmas)


@pytest.mark.parametrize("cfg, n_er", [("p5.cfg", 5), ("np4.cfg", 4)])
def test_general_check(program, cfg, n_er):
    payload, [(problem, solution)] = program("solve", "--config", _config(cfg),
                                             "--seed", "3")
    sigmas = _sigmas(cfg, workloads.TABLE_1A[n_er].tau0)
    checks.check_general(payload, problem, solution, sigmas)

    v = problem.v_hat.v_hat.copy()
    v[0, 0] += 1e-6
    bad_problem = dataclasses.replace(
        problem, v_hat=dataclasses.replace(problem.v_hat, v_hat=v))
    _rejects(checks.check_general, payload, bad_problem, solution, sigmas)

    bad_payload = json.loads(json.dumps(payload))
    bad_payload["lambda"]["abs"] *= 1.01
    _rejects(checks.check_general, bad_payload, problem, solution, sigmas)

    rows = solution.constrained_rows.copy()
    rows[1, 0] += 1e-6
    _rejects(checks.check_general, None, problem,
             dataclasses.replace(solution, constrained_rows=rows), sigmas)

    w = solution.completed_unitary.copy()
    w[-1, -1] *= 1.01
    _rejects(checks.check_general, None, problem,
             dataclasses.replace(solution, completed_unitary=w), sigmas)

    _rejects(checks.check_general, None, problem, solution,
             [sigmas[0] * 1.01, *sigmas[1:]])


def test_protocol_check(program, tmp_path):
    state = tmp_path / "state.json"
    state.write_text(json.dumps([[0.3, 0.1], [-0.5, 0.2], [0.1, 0.7]]))
    payload, [(_, solution)] = program("simulate", "--config", _config("p5.cfg"),
                                       "--seed", "0", "--state", str(state))
    checks.check_protocol(payload, solution)
    _rejects(checks.check_protocol, {**payload, "fidelity": 1 - 1e-6}, solution)
    _rejects(checks.check_protocol,
             {**payload, "success_probability": payload["success_probability"] * 1.01},
             solution)
    _rejects(checks.check_protocol, payload,
             dataclasses.replace(solution, lam=solution.lam * 1.01))


@pytest.mark.parametrize("mode, q", [("circuit-preserving", 3), ("circuit-nonpreserving", 2)])
def test_circuit_check(mode, q):
    couplings = build_couplings(ChainSpec(n_sites=10))
    v_hat = TransferMap(couplings, Partition(n_sites=10, n_s=3, n_r=3, n_er=4), 2).v_hat(12.493)
    problem = RestoreProblem(v_hat=v_hat, mode=mode, q_layers=q, n_extra_zero_rows=0,
                             restarts=1, seed=5)
    solution = fit_circuit(problem)
    payload = json.loads(json.dumps(solution.to_dict()))
    sigmas = _sigmas("fit_pres_q3.cfg", 12.493)
    checks.check_circuit(payload, problem, solution, sigmas)

    bad_payload = json.loads(json.dumps(payload))
    bad_payload["lambda"]["abs"] += 0.01     # a fit may converge to lambda = 0
    _rejects(checks.check_circuit, bad_payload, problem, solution, sigmas)

    w = solution.wer_full.copy()
    w.flat[np.argmax(np.abs(w))] *= 1.01
    _rejects(checks.check_circuit, payload, problem,
             dataclasses.replace(solution, wer_full=w), sigmas)

    _rejects(checks.check_circuit, payload, problem, solution,
             [abs(solution.lam) - 1e-3, *sigmas[1:]])

    if mode == "circuit-preserving":
        # flipping qubit 1 keeps W_ER unitary but mixes excitation numbers
        flip = np.arange(16) ^ 1
        _rejects(checks.check_circuit, payload, problem,
                 dataclasses.replace(solution, wer_full=solution.wer_full[:, flip]), sigmas)


# -- runner output and workload inputs -------------------------------------

def test_format_metrics_matches_benchmark_json():
    for key in ("end_to_end", "per_layer"):
        declared = SPEC[key]
        values = {m["name"]: 1.5 for m in declared}
        out = run.format_metrics(values, declared)
        assert list(out) == [m["name"] for m in declared]
        assert all(out[m["name"]] == {"value": 1.5, "unit": m["unit"]} for m in declared)
        with pytest.raises(RuntimeError):
            run.format_metrics({**values, "extra": 1.0}, declared)
        with pytest.raises(RuntimeError):
            run.format_metrics(dict(list(values.items())[1:]), declared)


def test_tracer_reports_every_per_layer_metric(program, tmp_path, monkeypatch):
    gone = ("dynamics", "TransferMap.no_such_method", "dynamics.gone")
    monkeypatch.setattr(tracing, "SPANS", tracing.SPANS + (gone,))
    tracer = tracing.Tracer()
    tracer.begin_round()
    tracer.install()
    try:
        program("roots", "--config", _config("p4.cfg"))
        program("solve", "--config", _config("np4.cfg"), "--seed", "1")
        program("fit-circuit", "--config", _config("fit_warmup.cfg"))
    finally:
        tracer.uninstall()
    assert "dynamics.TransferMap.no_such_method" in tracer.absent   # skipped, listed
    metrics = tracer.metrics()
    names = {m["name"] for m in SPEC["per_layer"]}
    assert set(metrics) | {"trace.overhead_pct"} == names
    main_s = sum(s["end"] - s["start"] for s in tracer.spans if s["name"] == "cli.main")
    assert 0 < metrics["cli.self_s"] < main_s
    assert 0 < metrics["restore.fit_circuit_s"] < main_s
    tracer.write(tmp_path / "trace.jsonl")
    first = json.loads((tmp_path / "trace.jsonl").read_text().splitlines()[0])
    assert first == {"absent": tracer.absent}


def test_runner_prints_declared_metrics():
    """One untraced round, end to end, in a fresh process."""
    proc = subprocess.run([sys.executable, str(run.BENCH / "run.py"), "--workload",
                           "restore-protocol", "--seed", "3", "--seconds", "0",
                           "--trace", "0"], capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (33, 0)
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_come_from_the_seed(workload, tmp_path, monkeypatch):
    def build(seed, tag):
        monkeypatch.setattr(workloads, "OUT", tmp_path / tag)
        plan = workloads.build(workload, seed)
        files = {p.name: p.read_bytes() for p in (tmp_path / tag).rglob("*.json")}
        argvs = [[a.replace(str(tmp_path / tag), "OUT") for a in argv]
                 for argv in [plan.warmup, *(op.argv for op in plan.ops)]]
        return argvs, plan.oracle_requests, files

    first, again, other = build(11, "a"), build(11, "b"), build(12, "c")
    assert first == again
    assert (first != other) == (workload != "circuit-fit")   # fits use fixed seeds
    argvs = first[0]
    for argv in argvs:
        assert argv[-2:] == ["--threads", "1"]
        for flag, value in zip(argv, argv[1:]):
            if flag == "--config":
                assert Path(value).parent == workloads.CONFIGS and Path(value).is_file()
            if flag in ("--out", "--state"):
                assert value.startswith("OUT/")
        assert "11" not in argv

import json

import numpy as np
import pytest

from spinpst.cli import CSV_BATCH_ROWS, _scan_csv, main
from spinpst.config import ConfigError, RunConfig, parse_config_text
from spinpst.scale import ScanResult

BASE_CFG = """
chain.n = 6
chain.model = dipole
partition.n_s = 2
partition.n_r = 2
partition.n_er = 3
excitation.k = 1
scan.tau_min = 0
scan.tau_max = 8
scan.step = 0.01
solver.mode = preserving-general
solver.restarts = 8
solver.seed = 7
"""


@pytest.fixture()
def cfg_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(BASE_CFG)
    return p


class TestConfig:
    def test_parse_and_hash(self):
        cfg = RunConfig.from_text(BASE_CFG)
        assert cfg.k() == 1
        assert cfg.scan_range() == (0.0, 8.0, 0.01)
        assert len(cfg.config_hash()) == 16

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("chain.n = 4\nbogus.key = 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("chain.n = 4\nchain.n = 5\n")

    def test_comments_and_blank_lines(self):
        raw = parse_config_text("# heading\n\nchain.n = 4  # trailing\n")
        assert raw == {"chain.n": "4"}

    def test_overrides_parse(self):
        cfg = RunConfig.from_text(
            "chain.n = 42\nchain.nn_overrides = 1-2:0.3005,41-42:0.3005\n")
        spec = cfg.chain_spec()
        assert spec.nn_overrides == {1: 0.3005, 41: 0.3005}

    def test_bad_override_bond(self):
        cfg = RunConfig.from_text("chain.n = 5\nchain.nn_overrides = 1-3:0.5\n")
        with pytest.raises(ConfigError, match="nearest-neighbor"):
            cfg.chain_spec()

    def test_site_ranges(self):
        cfg = RunConfig.from_text(
            BASE_CFG.replace("excitation.k = 1",
                             "excitation.k = 1\npartition.s0 = 3-3\npartition.r0 = 4"))
        part = cfg.partition()
        assert part.s0_sites == (3,)
        assert part.r0_sites == (4,)


def _scan_csv_reference(result: ScanResult) -> str:
    """Per-value formatting of the scan CSV, kept as the byte-level reference."""
    m = result.roots.shape[1]
    lines = ["tau," + ",".join(f"root_{i + 1}" for i in range(m)) + ",min_root"]
    for tau, row in zip(result.taus, result.roots):
        vals = ",".join(format(x, ".9g") for x in row)
        lines.append(f"{format(tau, '.9g')},{vals},{format(row[0], '.9g')}")
    return "\n".join(lines) + "\n"


def test_scan_csv_matches_per_value_format():
    n = CSV_BATCH_ROWS + 3                        # crosses a formatting batch
    taus = 57.267 - 0.001 * np.arange(n)[::-1]    # ends at 57.267
    roots = np.sort(np.random.default_rng(3).random((n, 3)), axis=1)
    special = [[0.0, 1e-16, 0.999999999], [1.2065321e-13, 0.4672960566944291, 1.0]]
    roots[:2] = roots[CSV_BATCH_ROWS - 1:CSV_BATCH_ROWS + 1] = special
    result = ScanResult(taus=taus, roots=roots, tau0=57.267, tau_argmax=taus[-2],
                        lambda_min=float(roots[:, 0].max()), n_er=5, k=2)
    assert _scan_csv(result) == _scan_csv_reference(result)


class TestCommands:
    def test_scan_writes_csv_and_summary(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        rc = main(["scan", "--config", str(cfg_file), "--out", str(out)])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert {"tau0", "lambda_min", "n_er", "k", "chain_id", "config_hash"} <= summary.keys()
        lines = out.read_text().splitlines()
        n_s_k = 2  # C(2,1)
        assert lines[0].split(",") == ["tau", "root_1", "root_2", "min_root"]
        assert len(lines[0].split(",")) == n_s_k + 2
        assert len(lines) == 1 + 801

    def test_scan_empty_range_exits_2(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text(BASE_CFG.replace("scan.tau_max = 8", "scan.tau_max = -1"))
        assert main(["scan", "--config", str(p)]) == 2

    @pytest.mark.parametrize("extra", [
        "chain.positions = 0,1,2,3,4,abc",
        "partition.s0 = 4-x",
        "chain.model = explicit\nchain.matrix_file = {matrix}",
    ], ids=["positions", "s0", "matrix_file"])
    def test_malformed_value_exits_2(self, tmp_path, capsys, extra):
        matrix = tmp_path / "d.csv"
        matrix.write_text("x,y\n")
        p = tmp_path / "bad.cfg"
        p.write_text(BASE_CFG.replace("chain.model = dipole\n", "")
                     + extra.format(matrix=matrix) + "\n")
        assert main(["roots", "--config", str(p), "--tau", "4.0"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_config_file_exits_2(self):
        assert main(["scan", "--config", "/nonexistent.cfg"]) == 2

    def test_solve_deterministic_json(self, cfg_file, tmp_path):
        out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
        assert main(["solve", "--config", str(cfg_file), "--out", str(out1)]) == 0
        assert main(["solve", "--config", str(cfg_file), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        payload = json.loads(out1.read_text())
        assert payload["mode"] == "preserving-general"
        assert payload["seed"] == 7
        assert 0 <= payload["lambda"]["abs"] <= 1

    def test_solve_infeasible_exits_3(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text(BASE_CFG.replace("partition.n_er = 3", "partition.n_er = 2"))
        assert main(["solve", "--config", str(p)]) == 3

    @pytest.mark.parametrize("mode, n_extra, code", [
        ("preserving-general", 1, 3),       # pinned to 3 - (2*2 - 1) = 0
        ("nonpreserving-general", -1, 2),
        ("nonpreserving-general", 20, 3),   # 2**3 - 3 = 5 at most
        ("circuit-preserving", 20, 3),      # 3 - 2 = 1 free k-sector row
        ("circuit-nonpreserving", 2, 3),
    ], ids=["preserving-pinned", "negative", "above-dimension",
            "circuit-above-sector", "circuit-nonpreserving-above-sector"])
    def test_solve_bad_extra_rows(self, tmp_path, capsys, mode, n_extra, code):
        p = tmp_path / "bad.cfg"
        p.write_text(BASE_CFG.replace("solver.mode = preserving-general",
                                      f"solver.mode = {mode}\n"
                                      f"solver.n_extra_zero_rows = {n_extra}"))
        assert main(["solve", "--config", str(p)]) == code
        assert ("config error" if code == 2 else "infeasible") in capsys.readouterr().err

    def test_solve_tolerance_below_rounding_exits_4(self, tmp_path, capsys):
        p = tmp_path / "tight.cfg"
        p.write_text(BASE_CFG + "solver.tol = 1e-30\n")
        assert main(["solve", "--config", str(p)]) == 4
        assert "no convergence" in capsys.readouterr().err

    def test_roots_command(self, cfg_file, capsys):
        rc = main(["roots", "--config", str(cfg_file), "--tau", "4.0"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["roots"]) == 2
        assert all(0 <= r <= 1 for r in payload["roots"])

    def test_simulate_reports_unit_fidelity(self, cfg_file, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["simulate", "--config", str(cfg_file), "--out", str(out),
                   "--seed", "3"])
        assert rc == 0
        rep = json.loads(out.read_text())
        assert rep["fidelity"] >= 1 - 1e-8
        assert abs(rep["success_probability"] - rep["lambda"]["abs"] ** 2) < 1e-8

    def test_simulate_explicit_state(self, cfg_file, tmp_path):
        state = tmp_path / "state.json"
        state.write_text(json.dumps([[1.0, 0.0], [0.0, 0.0]]))
        out = tmp_path / "report.json"
        rc = main(["simulate", "--config", str(cfg_file), "--state", str(state),
                   "--out", str(out)])
        assert rc == 0
        rep = json.loads(out.read_text())
        assert rep["fidelity"] == pytest.approx(1.0, abs=1e-12)

    def test_fit_circuit_requires_circuit_mode(self, cfg_file):
        assert main(["fit-circuit", "--config", str(cfg_file)]) == 2

    def test_fit_circuit_runs(self, tmp_path):
        p = tmp_path / "fit.cfg"
        p.write_text(BASE_CFG.replace("solver.mode = preserving-general",
                                      "solver.mode = circuit-preserving\n"
                                      "solver.q = 2\n"
                                      "solver.n_extra_zero_rows = 0"))
        out = tmp_path / "fit.json"
        assert main(["fit-circuit", "--config", str(p), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert "circuit_params" in payload
        assert len(payload["circuit_params"]) == 2 * 2 * 3

    def test_reproduce_roots(self, capsys):
        assert main(["reproduce", "roots"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3 and "FAIL" not in out

    def test_reproduce_1a(self, capsys):
        assert main(["reproduce", "1a", "--threads", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3 and "FAIL" not in out
        assert "12.493" in out and "14.391" in out and "14.132" in out

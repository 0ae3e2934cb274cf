import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spinpst
from spinpst import TransferMap, binom, dynamics, scale
from spinpst.cli import CSV_BATCH_ROWS, _format_cells, _scan_csv, build_parser, main
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


CONFIGS = Path(__file__).resolve().parents[1] / "configs"
BENCH_CONFIGS = CONFIGS.parent / "bench" / "configs"

# the whole-line protocol with the preserving n_er=4 solution, N=10
GLOBAL_CFG = """
chain.n = 10
partition.n_s = 3
partition.n_r = 3
partition.n_er = 4
excitation.k = 2
solver.tau = 12.493
simulate.variant = global
"""


# standard output of `reproduce 1a`, `reproduce roots` and `reproduce 2`, byte for byte
REPRODUCE_1A = (
    'n_er          tau0          want          lam_min       want          status      \n'
    '4             12.493        12.493        0.4347        0.435         PASS        \n'
    '5             14.391        14.391        0.5966        0.597         PASS        \n'
    '6             14.132        14.132        0.7145        0.714         PASS        \n'
)
REPRODUCE_ROOTS = (
    'n_er          roots         want          status      \n'
    '4             [0.4347 0.6599 0.8276]  (0.435, 0.66, 0.828)  PASS        \n'
    '5             [0.5966 0.7936 0.8663]  (0.597, 0.794, 0.866)  PASS        \n'
    '6             [0.7145 0.8876 0.9312]  (0.714, 0.888, 0.931)  PASS        \n'
)
REPRODUCE_2 = (
    'N             variant       tau0          want          lam           want          status      \n'
    '20            homog         26.506        26.506        0.2652        0.265         PASS        \n'
    '30            homog         37.393        37.393        0.1364        0.136         PASS        \n'
    '40            homog         52.846        52.846        0.0795        0.079         PASS        \n'
    '42            adj-dist      57.267        57.267        0.4673        0.467         PASS        \n'
)


@pytest.fixture()
def cfg_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(BASE_CFG)
    return p


@pytest.fixture()
def no_eigendecomposition(monkeypatch):
    """Fails the test if the command scans or diagonalizes before it exits."""
    def computed(*args, **kwargs):
        raise AssertionError("the command computed before it rejected the config")
    monkeypatch.setattr(dynamics, "eigendecompose", computed)
    monkeypatch.setattr(scale, "scan", computed)


def python(*argv, check=True) -> subprocess.CompletedProcess:
    """A fresh interpreter on this checkout's package, text output captured."""
    src = str(Path(spinpst.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          check=check, timeout=120, env=env)


def test_cli_import_loads_no_scipy():
    probe = ("import sys, spinpst.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert python("-c", probe).stdout.strip() == "[]"


class TestConfig:
    def test_parse_and_hash(self):
        cfg = RunConfig.from_text(BASE_CFG)
        assert cfg["excitation.k"] == 1
        assert (cfg["scan.tau_min"], cfg["scan.tau_max"], cfg["scan.step"]) == (0.0, 8.0, 0.01)
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
        cfg = RunConfig.from_text(BASE_CFG.replace(
            "chain.n = 6", "chain.n = 42\nchain.nn_overrides = 1-2:0.3005,41-42:0.3005"))
        assert cfg["chain.nn_overrides"] == {1: 0.3005, 41: 0.3005}

    def test_bad_override_bond(self):
        with pytest.raises(ConfigError, match="nearest-neighbor"):
            RunConfig.from_text(BASE_CFG + "chain.nn_overrides = 1-3:0.5\n")

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg"))
                             + sorted(BENCH_CONFIGS.glob("*.cfg")),
                             ids=lambda p: str(p.relative_to(CONFIGS.parent)))
    def test_shipped_config_loads(self, path):
        cfg = RunConfig.from_file(path)
        assert cfg.couplings().n_sites == cfg.partition().n_sites == cfg["chain.n"]

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
                        lambda_min=float(roots[:, 0].max()))
    assert "".join(_scan_csv(result)) == _scan_csv_reference(result)


@pytest.mark.parametrize("n", [1, CSV_BATCH_ROWS, CSV_BATCH_ROWS + 1])
def test_scan_csv_streams_whole_batches(n):
    taus = 0.001 * np.arange(n)
    roots = np.sort(np.random.default_rng(n).random((n, 3)), axis=1)
    result = ScanResult(taus=taus, roots=roots, tau0=taus[-1], tau_argmax=taus[-1],
                        lambda_min=float(roots[:, 0].max()))
    pieces = list(_scan_csv(result))
    # the header, then one piece per batch of rows
    assert len(pieces) == 1 + -(-n // CSV_BATCH_ROWS)
    assert "".join(pieces) == _scan_csv_reference(result)


def _cell_texts(values) -> list[str]:
    """The text of each ``_format_cells`` cell, NUL padding deleted."""
    words, _ = _format_cells(np.asarray(values, dtype=float))
    return [bytes(row).replace(b"\0", b"").decode()
            for row in words.astype("<u8").view(np.uint8).reshape(-1, 16)]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
                | st.floats(min_value=1e-15, max_value=2e9), min_size=1, max_size=64))
@example([0.0, -0.0, float("nan"), float("inf"), -float("inf"), 5e-324, -5e-324,
          -2.2250738585072014e-308, 1.7976931348623157e308, -1.23456789e-100])
def test_format_cells_match_percent_g(values):
    assert _cell_texts(values) == [format(x, ".9g") for x in values]


@pytest.mark.parametrize("value, text", [
    (8.001953125, "8.00195312"),                     # an exact tie, rounded to even
    # near ties: x 10^(8-E) rounds onto the wrong side of the half-integer
    (0.008655618035, "0.00865561803"), (0.005532642745, "0.00553264275"),
    (0.007037888894999999, "0.00703788889"),
    # carries into the next decade
    (9.99999999951, "10"), (0.99999999951, "1"), (9.9999999995e-05, "0.0001"),
    (99999999.95, "100000000"), (999999999.6, "1e+09"),
    # the fixed/scientific boundary
    (1e-05, "1e-05"), (0.0001, "0.0001"), (np.nextafter(0.0001, 0), "0.0001"),
    (1.5e-05, "1.5e-05"), (0.000123456789, "0.000123456789"),
    # the lower end of the vector path
    (1e-14, "1e-14"), (np.nextafter(1e-14, 0), "1e-14"),
    (1.23456789e-15, "1.23456789e-15"), (1.23456789e-14, "1.23456789e-14"),
    (-0.0, "-0"), (0.0, "0"), (-3.25, "-3.25"), (-57.267, "-57.267"),
    (12345678.9, "12345678.9"), (123456789.0, "123456789"), (100000000.0, "100000000"),
    (20.0, "20"), (57.267, "57.267"), (0.4672960566944291, "0.467296057"),
])
def test_format_cells_edge_values(value, text):
    assert _cell_texts([value]) == [text] == [format(value, ".9g")]


def test_format_cells_prove_cells_away_from_ties():
    # `%` runs only where the rounding is not proven: random cells in [1e-14, 1e9)
    # more than 1e-3 from a rounding tie and below a carry are all proven
    x = 10.0 ** np.random.default_rng(11).uniform(-14, 9, 20_000)
    y = x * 10.0 ** (8 - np.floor(np.log10(x)))
    x = x[(np.abs(y - np.floor(y) - 0.5) > 1e-3) & (y < 1e9 - 1) & (y > 1e8 + 1)]
    words, proven = _format_cells(x)
    assert len(x) > 19_000 and proven.all()
    assert _cell_texts(x) == [format(v, ".9g") for v in x]


class TestCommands:
    def test_scan_writes_csv_and_summary(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        rc = main(["scan", "--config", str(cfg_file), "--out", str(out)])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary.keys() == {"tau0", "lambda_min", "n_er", "k", "chain_id",
                                  "config_hash", "csv"}
        lines = out.read_text().splitlines()
        n_s_k = 2  # C(2,1)
        assert lines[0].split(",") == ["tau", "root_1", "root_2", "min_root"]
        assert len(lines[0].split(",")) == n_s_k + 2
        assert len(lines) == 1 + 801

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    @pytest.mark.parametrize("command", ["roots", "solve", "fit-circuit", "simulate"])
    def test_json_carries_chain_id_and_config_hash(self, tmp_path, capsys, command, to_file):
        p = tmp_path / "run.cfg"
        p.write_text(BASE_CFG.replace("preserving-general", "circuit-preserving")
                     if command == "fit-circuit" else BASE_CFG)
        out = tmp_path / "out.json"
        argv = [command, "--config", str(p), *(["--tau", "4.0"] if command == "roots" else [])]
        assert main(argv + (["--out", str(out)] if to_file else [])) == 0
        text = out.read_text() if to_file else capsys.readouterr().out
        payload = json.loads(text)
        cfg = RunConfig.from_file(p)
        assert (payload["chain_id"], payload["config_hash"]) == (cfg.chain_id(),
                                                                 cfg.config_hash())

    def test_scan_out_writes_the_streamed_bytes(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        assert main(["scan", "--config", str(cfg_file), "--out", str(out)]) == 0
        cfg = RunConfig.from_file(cfg_file)
        tm = TransferMap(cfg.couplings(), cfg.partition(), cfg["excitation.k"])
        result = scale.scan(tm, cfg["scan.tau_min"], cfg["scan.tau_max"], cfg["scan.step"])
        assert out.read_bytes() == _scan_csv_reference(result).encode()

    def test_scan_json_with_out_exits_2(self, cfg_file, tmp_path, capsys):
        # --out names the CSV, which --format json does not write
        out = tmp_path / "scan.csv"
        assert main(["scan", "--config", str(cfg_file), "--format", "json",
                     "--out", str(out)]) == 2
        assert "--format json does not write" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("grid, points", [
        ("scan.tau_max = 1e300\nscan.step = 1e-300", "inf points"),
        # a 473 TiB request, refused at once
        ("scan.tau_max = 65\nscan.step = 1e-12", "6.5e+13 points"),
    ], ids=["overflow", "memory"])
    @pytest.mark.parametrize("command", ["scan", "solve", "simulate"])
    def test_scan_grid_too_large_exits_2(self, tmp_path, capsys, grid, points, command):
        keys = {line.split("=")[0].strip() for line in grid.splitlines()}
        p = tmp_path / "big.cfg"
        p.write_text("".join(line + "\n" for line in BASE_CFG.splitlines()
                             if line.split("=")[0].strip() not in keys) + grid + "\n")
        out = tmp_path / "out"
        assert main([command, "--config", str(p), "--out", str(out)]) == 2
        assert f"a tau grid of {points} is too large to build" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["scan", "solve", "simulate"])
    def test_scan_step_within_4_ulps_exits_2(self, tmp_path, capsys, command):
        # an ulp near 1e17 is 16: a unit step would repeat grid points
        p = tmp_path / "e17.cfg"
        p.write_text(BASE_CFG.replace("scan.tau_min = 0", "scan.tau_min = 1e17")
                     .replace("scan.tau_max = 8", "scan.tau_max = 1.00000000000001e17")
                     .replace("scan.step = 0.01", "scan.step = 1"))
        out = tmp_path / "out"
        assert main([command, "--config", str(p), "--out", str(out)]) == 2
        assert "scan step 1 must exceed 64, 4 ulps of the tau window" in capsys.readouterr().err
        assert not out.exists()
        if command == "solve":     # a fixed tau runs no scan
            p.write_text(p.read_text() + "solver.tau = 3\n")
            assert main([command, "--config", str(p), "--out", str(out)]) == 0

    def test_scan_window_without_phase_digits_exits_2(self, tmp_path, capsys):
        # the grid is fine, but near tau = 1e17 a phase lambda tau carries no digit
        p = tmp_path / "e17.cfg"
        p.write_text(BASE_CFG.replace("scan.tau_min = 0", "scan.tau_min = 1e17")
                     .replace("scan.tau_max = 8", "scan.tau_max = 100000000000000800")
                     .replace("scan.step = 0.01", "scan.step = 80"))
        out = tmp_path / "out"
        assert main(["scan", "--config", str(p), "--out", str(out)]) == 2
        assert "where a phase lambda tau errs by up to" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["roots", "solve", "fit-circuit", "simulate"])
    def test_tau_without_phase_digits_exits_2(self, tmp_path, capsys, command):
        # at tau = 1e17 a phase lambda tau errs by about 20 rad (eps max|lambda| tau)
        p = tmp_path / "e17.cfg"
        mode = "circuit-preserving" if command == "fit-circuit" else "preserving-general"
        p.write_text(BASE_CFG.replace("preserving-general", mode) + "solver.tau = 1e17\n")
        out = tmp_path / "out"
        argv = ["--tau", "1e17"] if command == "roots" else []
        assert main([command, "--config", str(p), "--out", str(out), *argv]) == 2
        assert ("the tau window reaches 1e+17, where a phase lambda tau errs by up to"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_scan_empty_range_exits_2(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text(BASE_CFG.replace("scan.tau_max = 8", "scan.tau_max = -1"))
        assert main(["scan", "--config", str(p)]) == 2

    @pytest.mark.parametrize("extra, argv, message", [
        # the explicit coupling model is gone: a config that sets its keys exits 2
        ("chain.positions = 0,1,2,3,4,abc", ["roots", "--tau", "4.0"],
         "unknown key 'chain.positions'"),
        ("partition.s0 = 4-x", ["roots", "--tau", "4.0"], "config error"),
        ("chain.model = explicit\nchain.matrix_file = {matrix}", ["roots", "--tau", "4.0"],
         "unknown key 'chain.matrix_file'"),
        # non-finite numbers: NaN roots, a tolerance every residual passes, or
        # a traceback deep in the solve or the scan
        ("roots.tau = inf", ["roots"], "roots.tau must be a finite number"),
        ("", ["roots", "--tau", "nan"], "--tau must be a finite number"),
        ("", ["roots", "--tau", "inf"], "--tau must be a finite number"),
        ("solver.tol = nan", ["solve"], "solver.tol must be a finite number"),
        ("solver.tau = nan", ["solve"], "solver.tau must be a finite number"),
        ("scan.tau_max = nan", ["scan", "--out", "{out}"],
         "scan.tau_max must be a finite number"),
        # the key is named before any of its items is read
        ("chain.positions = 0,1,2,3,4,nan", ["roots", "--tau", "4.0"],
         "unknown key 'chain.positions'"),
        ("chain.positions = 0,1,2,3,4,inf", ["roots", "--tau", "4.0"],
         "unknown key 'chain.positions'"),
        # every item of a list is checked; a NaN coupling would otherwise fail
        # the exact symmetry check (NaN != NaN) with a misleading message
        ("chain.nn_overrides = 1-2:nan", ["roots", "--tau", "4.0"],
         "chain.nn_overrides must be a finite number"),
        ("chain.nn_overrides = 1-2:inf", ["roots", "--tau", "4.0"],
         "chain.nn_overrides must be a finite number"),
        # a bond listed twice would keep its last value
        ("chain.nn_overrides = 1-2:0.3,1-2:0.9", ["roots", "--tau", "4.0"],
         "chain.nn_overrides lists bond 1-2 twice"),
        # overrides are always inter-site distances: beside overrides, beside
        # the model's one value, and on its own
        ("chain.nn_overrides = 1-2:0.3\nchain.nn_override_mode = direct",
         ["roots", "--tau", "4.0"], "chain.nn_override_mode must be one of distance"),
        ("chain.model = dipole\nchain.nn_override_mode = direct", ["roots", "--tau", "4.0"],
         "chain.nn_override_mode must be one of distance"),
        ("chain.nn_override_mode = direct", ["roots", "--tau", "4.0"],
         "chain.nn_override_mode must be one of distance"),
        # every key is checked at load, also where the command does not read it
        ("solver.tol = abc", ["scan", "--format", "json", "--out", "{out}"],
         "solver.tol must be a finite number"),
        ("solver.q = 0", ["scan", "--format", "json", "--out", "{out}"],
         "solver.q must be >= 1"),
        ("simulate.variant = bogus", ["scan", "--format", "json", "--out", "{out}"],
         "unknown protocol variant"),
        ("solver.tol = abc", ["roots", "--tau", "4.0"], "solver.tol must be a finite number"),
        ("solver.q = 0", ["roots", "--tau", "4.0"], "solver.q must be >= 1"),
        ("simulate.variant = bogus", ["roots", "--tau", "4.0"], "unknown protocol variant"),
        # and before the scan that finds the registration time
        ("solver.tol = -1", ["solve"], "solver.tol must be > 0"),
        # the output keys are gone: --format and --out set the same values
        ("output.format = xml", ["scan", "--out", "{out}"], "unknown key 'output.format'"),
        ("output.path = {out}", ["roots", "--tau", "4.0"], "unknown key 'output.path'"),
        # the sector bitmasks are int64
        ("chain.n = 64", ["roots", "--tau", "4.0"], "chain.n must be <= 63"),
        # a coupling file is never opened, so it may not be silently ignored
        ("chain.matrix_file = /nonexistent/d.csv", ["roots", "--tau", "4.0"],
         "unknown key 'chain.matrix_file'"),
    ], ids=["positions", "s0", "matrix_file", "roots-tau-inf", "tau-flag-nan",
            "tau-flag-inf", "tol-nan", "solver-tau-nan", "scan-tau-max-nan",
            "positions-nan", "positions-inf", "overrides-nan", "overrides-inf",
            "overrides-bond-twice", "direct-positions", "direct-explicit",
            "direct-matrix-file",
            "scan-json-tol-abc", "scan-json-q-0", "scan-json-variant-bogus",
            "roots-tol-abc", "roots-q-0", "roots-variant-bogus", "solve-tol-negative",
            "scan-format-xml", "output-path", "chain-n-64", "matrix-file-without-explicit"])
    @pytest.mark.usefixtures("no_eigendecomposition")
    def test_malformed_value_exits_2(self, tmp_path, capsys, extra, argv, message):
        matrix = tmp_path / "d.csv"
        matrix.write_text("x,y\n")
        out = tmp_path / "scan.csv"
        # the keys ``extra`` sets replace those of BASE_CFG
        keys = {line.split("=")[0].strip() for line in extra.splitlines()}
        base = "".join(line for line in BASE_CFG.splitlines(keepends=True)
                       if line.split("=")[0].strip() not in keys)
        p = tmp_path / "bad.cfg"
        p.write_text(base + extra.format(matrix=matrix, out=out) + "\n")
        argv = [arg.format(out=out) for arg in argv]
        assert main([argv[0], "--config", str(p), *argv[1:]]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text, argv, message", [
        (BASE_CFG.replace("solver.mode = preserving-general",
                          "solver.mode = circuit-preserving\nsolver.q = 0"),
         ["fit-circuit"], "solver.q must be >= 1"),
        (BASE_CFG + "solver.tol = 0\n", ["solve"], "solver.tol must be > 0"),
        (GLOBAL_CFG.replace("excitation.k = 2", "excitation.k = 5"),
         ["roots", "--tau", "4.0"], "excitation.k must be in 0..partition.n_s"),
        (GLOBAL_CFG.replace("excitation.k = 2", "excitation.k = -1"),
         ["roots", "--tau", "4.0"], "excitation.k must be in 0..partition.n_s"),
        # np.random.default_rng rejects a negative seed with a traceback
        (BASE_CFG.replace("solver.seed = 7", "solver.seed = -1"), ["solve"],
         "solver.seed must be >= 0"),
        (BASE_CFG, ["simulate", "--seed", "-1"], "--seed must be >= 0"),
    ], ids=["circuit-q-0", "tol-0", "k-above-sender", "k-negative", "solver-seed-negative",
            "seed-flag-negative"])
    @pytest.mark.usefixtures("no_eigendecomposition")
    def test_out_of_range_value_exits_2(self, tmp_path, capsys, text, argv, message):
        p = tmp_path / "bad.cfg"
        p.write_text(text)
        assert main([argv[0], "--config", str(p), *argv[1:]]) == 2
        assert message in capsys.readouterr().err

    def test_missing_config_file_exits_2(self):
        assert main(["scan", "--config", "/nonexistent.cfg"]) == 2

    def test_unknown_output_format_exits_2(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        out = tmp_path / "scan.csv"
        p.write_text(BASE_CFG + f"output.format = xml\noutput.path = {out}\n")
        assert main(["scan", "--config", str(p)]) == 2
        assert "unknown key 'output.format'" in capsys.readouterr().err
        assert not out.exists()

    def test_coupling_matrix_error_exits_2(self, tmp_path, capsys):
        # the dipole model is the only one; a coupling matrix of any other
        # model is a CouplingMatrix built in code, with its checks there
        p = tmp_path / "bad.cfg"
        p.write_text(BASE_CFG.replace("chain.model = dipole", "chain.model = explicit"))
        assert main(["roots", "--config", str(p), "--tau", "4.0"]) == 2
        assert "chain.model must be one of dipole" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, message", [
        ("chain.matrix_file = {matrix}\nchain.positions = 0,1,2,3,4,9",
         "unknown key 'chain.matrix_file'"),
        ("chain.nn_overrides = 1-2:0.3", "chain.model must be one of dipole"),
    ], ids=["positions", "nn-overrides"])
    def test_explicit_matrix_beside_geometry_exits_2(self, tmp_path, capsys, extra, message):
        # an older config of the explicit model exits 2 whatever geometry it gives
        sites = np.arange(6.0)
        gaps = np.abs(sites[:, None] - sites[None, :]) + np.eye(6)
        matrix = tmp_path / "d.csv"
        np.savetxt(matrix, (1.0 - np.eye(6)) / gaps ** 3, delimiter=",")
        p = tmp_path / "bad.cfg"
        p.write_text(BASE_CFG.replace("chain.model = dipole", "chain.model = explicit\n"
                                      + extra.format(matrix=matrix)))
        assert main(["roots", "--config", str(p), "--tau", "4.0"]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["scan", "roots", "solve", "fit-circuit", "simulate"])
    def test_threads_flag_parses_but_is_not_listed(self, capsys, command):
        args = build_parser().parse_args([command, "--config", "run.cfg", "--threads", "1"])
        assert args.config == "run.cfg"
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert "--threads" not in capsys.readouterr().out

    def test_solve_deterministic_json(self, cfg_file, tmp_path):
        out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
        assert main(["solve", "--config", str(cfg_file), "--out", str(out1)]) == 0
        assert main(["solve", "--config", str(cfg_file), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        payload = json.loads(out1.read_text())
        assert payload["mode"] == "preserving-general"
        assert payload["seed"] == 7
        assert 0 <= payload["lambda"]["abs"] <= 1

    def test_solve_unknown_mode_exits_2(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text(BASE_CFG.replace("solver.mode = preserving-general",
                                      "solver.mode = bogus"))
        assert main(["solve", "--config", str(p)]) == 2
        assert "solver.mode must be one of" in capsys.readouterr().err

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

    def test_over_constrained_circuit_exits_4(self, tmp_path):
        # q=1 and all 3 free rows: 34 real constraints on 8 angles; in its own
        # process, as a user runs it, the warning is one line without a source location
        p = tmp_path / "over.cfg"
        p.write_text("chain.n = 10\npartition.n_s = 3\npartition.n_r = 3\n"
                     "partition.n_er = 4\nexcitation.k = 2\n"
                     "solver.mode = circuit-preserving\nsolver.q = 1\n"
                     "solver.n_extra_zero_rows = 3\nsolver.restarts = 4\n"
                     "solver.tau = 12.493\n")
        proc = python("-m", "spinpst.cli", "fit-circuit", "--config", str(p), check=False)
        assert proc.returncode == 4
        warning, failure = proc.stderr.splitlines()
        assert warning == ("warning: 34 real constraints exceed 8 parameters; the fit may "
                           "only reach a least-squares residual (solver.q = 1, "
                           "solver.n_extra_zero_rows = 3)")
        assert failure.startswith("no convergence")
        assert ".py:" not in proc.stderr and "UserWarning" not in proc.stderr

    @pytest.mark.parametrize("restarts", [0, -3])
    def test_fit_circuit_non_positive_restarts_exits_2(self, tmp_path, capsys, restarts):
        p = tmp_path / "fit.cfg"
        p.write_text(BASE_CFG.replace("solver.mode = preserving-general",
                                      "solver.mode = circuit-preserving")
                     .replace("solver.restarts = 8", f"solver.restarts = {restarts}"))
        assert main(["fit-circuit", "--config", str(p)]) == 2
        assert "solver.restarts must be >= 1" in capsys.readouterr().err

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

    def test_roots_out_writes_the_file(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "roots.json"
        assert main(["roots", "--config", str(cfg_file), "--tau", "4.0", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert len(json.loads(out.read_text())["roots"]) == 2

    @pytest.mark.parametrize("argv", [["solve", "--format", "json"], ["roots", "--seed", "3"],
                                      ["scan", "--seed", "5"]],
                             ids=["solve-format", "roots-seed", "scan-seed"])
    def test_flags_a_command_does_not_read_exit_2(self, cfg_file, argv):
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "--config", str(cfg_file), *argv[1:]])
        assert exc.value.code == 2

    def test_simulate_reports_unit_fidelity(self, cfg_file, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["simulate", "--config", str(cfg_file), "--out", str(out),
                   "--seed", "3"])
        assert rc == 0
        rep = json.loads(out.read_text())
        assert rep["fidelity"] >= 1 - 1e-8
        assert abs(rep["success_probability"] - rep["lambda"]["abs"] ** 2) < 1e-8

    def test_simulate_fidelity_never_above_one(self, tmp_path):
        # |<s, out>| of two unit vectors rounds to 1 + 2**-52 on this run
        out = tmp_path / "report.json"
        assert main(["simulate", "--config", str(CONFIGS / "simulate_er5.cfg"),
                     "--seed", "3", "--out", str(out)]) == 0
        assert 1 - 1e-12 <= json.loads(out.read_text())["fidelity"] <= 1.0

    def test_simulate_with_vanishing_lambda(self, tmp_path):
        # |lambda| is about 1e-13 at tau = 0.001, so 1 - |lambda|^2 rounds to 1
        p = tmp_path / "run.cfg"
        p.write_text((CONFIGS / "simulate_er5.cfg").read_text()
                     .replace("solver.tau = 14.391", "solver.tau = 0.001"))
        out = tmp_path / "report.json"
        assert main(["simulate", "--config", str(p), "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["lambda"]["abs"] < 1e-12
        assert rep["amplification"]["M"] > 1e24

    def test_simulate_explicit_state(self, cfg_file, tmp_path):
        state = tmp_path / "state.json"
        state.write_text(json.dumps([[1.0, 0.0], [0.0, 0.0]]))
        out = tmp_path / "report.json"
        rc = main(["simulate", "--config", str(cfg_file), "--state", str(state),
                   "--out", str(out)])
        assert rc == 0
        rep = json.loads(out.read_text())
        assert rep["fidelity"] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("text, state, message", [
        # a fourth amplitude on a 3-pattern sender used to be dropped silently
        (GLOBAL_CFG, [[0.1, 0], [0.1, 0], [0.1, 0], [1, 0]], "takes 3"),
        (BASE_CFG, [[1, 0], [0, 0], [0, 0]], "takes 2"),
        (BASE_CFG + "simulate.variant = nonpreserving\n", None, "non-preserving solution"),
        (BASE_CFG + "simulate.variant = arbitrary\n", None, "S0 and R0"),
        (BASE_CFG + "simulate.variant = bogus\n", None, "unknown protocol variant"),
        (BASE_CFG, [1, 0], "[[re, im], ...] pairs"),
        # the normalised state, and so the fidelity, would be NaN
        (BASE_CFG, [[0, 0], [0, 0]], "finite with a nonzero norm"),
        (BASE_CFG, [[float("nan"), 0], [1, 0]], "finite with a nonzero norm"),
        (BASE_CFG, [[1, 0], [0, float("inf")]], "finite with a nonzero norm"),
    ], ids=["global-long-state", "short-state", "nonpreserving-with-preserving-mode",
            "arbitrary-without-s0-r0", "unknown-variant", "state-not-pairs",
            "state-zero", "state-nan", "state-inf"])
    def test_simulate_misconfiguration_exits_2_before_solving(
            self, tmp_path, capsys, monkeypatch, text, state, message):
        def no_solve(problem):
            raise AssertionError("the restoring solve ran")
        monkeypatch.setattr("spinpst.cli.solve_general", no_solve)
        p = tmp_path / "run.cfg"
        p.write_text(text)
        argv = ["simulate", "--config", str(p)]
        if state is not None:
            (tmp_path / "state.json").write_text(json.dumps(state))
            argv += ["--state", str(tmp_path / "state.json")]
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("variant", ["k_excitation", "arbitrary", "global",
                                         "nonpreserving"])
    def test_simulate_diagonalizes_once(self, tmp_path, monkeypatch, variant):
        # one TransferMap serves the tau scan, the solve and the protocol run;
        # the mirror-symmetric chain diagonalises its sector as two parity blocks
        builds, blocks = [], []
        sector_eigensystem, eigendecompose = dynamics.sector_eigensystem, dynamics.eigendecompose
        monkeypatch.setattr(dynamics, "sector_eigensystem",
                            lambda c, k, ords: builds.append(k) or sector_eigensystem(c, k, ords))
        monkeypatch.setattr(dynamics, "eigendecompose",
                            lambda h: blocks.append(len(h)) or eigendecompose(h))
        mode = "nonpreserving-general" if variant == "nonpreserving" else "preserving-general"
        text = (BASE_CFG.replace("chain.n = 6", "chain.n = 8")
                .replace("solver.mode = preserving-general", f"solver.mode = {mode}")
                + f"simulate.variant = {variant}\npartition.s0 = 3\npartition.r0 = 4\n")
        p = tmp_path / "run.cfg"
        p.write_text(text)
        out = tmp_path / "report.json"
        assert main(["simulate", "--config", str(p), "--out", str(out)]) == 0
        assert builds == [1]
        assert len(blocks) == 2 and sum(blocks) == binom(8, 1)
        assert json.loads(out.read_text())["fidelity"] >= 1 - 1e-8

    def test_simulate_n42(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["simulate", "--config", str(CONFIGS / "simulate_n42_distance.cfg"),
                     "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["fidelity"] >= 1 - 1e-8
        assert rep["success_probability"] == pytest.approx(0.2183656, abs=1e-6)

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

    @pytest.mark.parametrize("n_er", [2, 3])
    @pytest.mark.parametrize("mode", ["circuit-preserving", "circuit-nonpreserving"])
    def test_fit_circuit_without_constraints(self, tmp_path, mode, n_er):
        # k = n_s and no extra rows: one transfer column and no restoring
        # constraint, so every circuit restores it with lambda = e_00
        p = tmp_path / "fit.cfg"
        p.write_text(f"chain.n = 6\npartition.n_s = 2\npartition.n_r = 2\n"
                     f"partition.n_er = {n_er}\nexcitation.k = 2\nsolver.mode = {mode}\n"
                     "solver.q = 2\nsolver.restarts = 4\nsolver.tau = 3\n")
        out = tmp_path / "fit.json"
        assert main(["fit-circuit", "--config", str(p), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["residual"] == 0.0
        cfg = RunConfig.from_file(p)
        v = TransferMap(cfg.couplings(), cfg.partition(), 2).v_hat(3.0)
        sol = spinpst.fit_circuit(spinpst.RestoreProblem(v_hat=v, mode=mode, q_layers=2,
                                                         restarts=4))
        assert sol.converged and sol.residual == 0.0
        w = sol.completed_unitary
        assert np.abs(w @ w.conj().T - np.eye(len(w))).max() < 1e-12
        assert sol.lam_abs <= np.linalg.svd(v.v_hat, compute_uv=False).min() + 1e-12

    def test_reproduce_roots(self, capsys):
        assert main(["reproduce", "roots"]) == 0
        assert capsys.readouterr().out == REPRODUCE_ROOTS

    def test_reproduce_1a(self, capsys):
        assert main(["reproduce", "1a"]) == 0
        assert capsys.readouterr().out == REPRODUCE_1A

    def test_reproduce_2(self, capsys):
        assert main(["reproduce", "2"]) == 0
        assert capsys.readouterr().out == REPRODUCE_2

"""Byte-identity check of the command line against another revision.

    python tools/identity.py --against REV

extracts REV's ``src/`` with ``git archive`` and runs one fixed command list
(``commands()``) under that tree and under this checkout's ``src/``.  Every
command runs in a fresh process with one BLAS thread and in an empty working
directory of its own, with the same arguments under both trees.  The two runs
of a command must agree in standard output, standard error, exit code and the
bytes of every file they write; in stderr, the path of the tree's ``src/``
(which a Python warning prints with its location) reads ``<src>``.  The
script prints each difference and a summary, and exits 1 if any command
differs, 0 otherwise.  A differing stdout or file that parses as JSON or as
a CSV of numbers gets a numeric summary (``numeric_summary``).

The list: ``reproduce 1a|roots|2``, then on every config of ``CONFIGS`` a scan
with its CSV, a scan as JSON, ``roots --tau 12.493``, and ``solve --out``,
``fit-circuit`` and ``simulate`` at each seed of ``SEEDS``.  A command that
exits 2 on a config (a scan without a window, ``fit-circuit`` on a general
mode) is compared like any other.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = (
    "configs/circuit_er4_q3.cfg",
    "configs/simulate_arbitrary.cfg",
    "configs/simulate_er5.cfg",
    "configs/simulate_n42_distance.cfg",
    "configs/table1a_er4.cfg",
    "configs/table1a_er5.cfg",
    "configs/table1a_er6.cfg",
    "configs/table2_n20.cfg",
    "configs/table2_n30.cfg",
    "configs/table2_n40.cfg",
    "configs/table2_n42_distance.cfg",
    "bench/configs/arbitrary5.cfg",
    "bench/configs/fit_nonpres_q2.cfg",
    "bench/configs/fit_pres_q3.cfg",
    "bench/configs/fit_warmup.cfg",
    "bench/configs/global4.cfg",
    "bench/configs/n30.cfg",
    "bench/configs/n42_distance.cfg",
    "bench/configs/np4.cfg",
    "bench/configs/np5.cfg",
    "bench/configs/p4.cfg",
    "bench/configs/p5.cfg",
    "bench/configs/p6.cfg",
    "bench/configs/warmup_scan.cfg",
)
SEEDS = (0, 3)
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def commands() -> list[list[str]]:
    """The fixed command list, as argument lists of ``spinpst``."""
    out = [["reproduce", table] for table in ("1a", "roots", "2")]
    for name in CONFIGS:
        cfg = ["--config", str(ROOT / name)]
        out += [["scan", *cfg, "--out", "scan.csv"], ["scan", *cfg, "--format", "json"],
                ["roots", *cfg, "--tau", "12.493"]]
        for seed in map(str, SEEDS):
            out += [["solve", *cfg, "--seed", seed, "--out", "solve.json"],
                    ["fit-circuit", *cfg, "--seed", seed], ["simulate", *cfg, "--seed", seed]]
    return out


def run(src: Path, argv: list[str], cwd: Path) -> tuple:
    """(stdout, stderr, exit code, {file: bytes}) of one command under ``src``,
    run in the new directory ``cwd``, which is removed afterwards."""
    cwd.mkdir()
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-m", "spinpst.cli", *argv], cwd=cwd, env=env,
                          capture_output=True)
    files = {p.relative_to(cwd).as_posix(): p.read_bytes()
             for p in sorted(cwd.rglob("*")) if p.is_file()}
    shutil.rmtree(cwd)
    return proc.stdout, proc.stderr.replace(bytes(src), b"<src>"), proc.returncode, files


def _leaves(tree, path=()):
    """(path, value) of every scalar in a parsed JSON document."""
    if isinstance(tree, dict | list):
        for key, value in (tree.items() if isinstance(tree, dict) else enumerate(tree)):
            yield from _leaves(value, (*path, key))
    else:
        yield path, tree


def _is_number(value) -> bool:
    return isinstance(value, int | float) and not isinstance(value, bool)


def _csv_rows(text: bytes) -> list[list[float]] | None:
    """The rows of a CSV of numbers below one header line; None for anything else."""
    lines = text.decode(errors="replace").splitlines()
    try:
        return [[float(cell) for cell in line.split(",")] for line in lines[1:]] if lines else None
    except ValueError:
        return None


def numeric_summary(a: bytes, b: bytes) -> str:
    """How two differing outputs differ in their numbers.

    JSON: the largest absolute deviation between numbers at the same place.
    A CSV of numbers below one header line, as a scan writes: the changed
    cells, how many of them reach |value| >= 1e-6 in either output, and the
    largest absolute change.  Anything else, or two documents of different
    shape, gets a line that says so.
    """
    try:
        x, y = (dict(_leaves(json.loads(t))) for t in (a, b))
    except ValueError:
        x = y = None
    if x is not None:
        if x.keys() != y.keys():
            return "JSON of different shape"
        pairs = [(x[k], y[k]) for k in x if x[k] != y[k]]
        numeric = [abs(p - q) for p, q in pairs if _is_number(p) and _is_number(q)]
        return (f"largest numeric deviation {max(numeric, default=0.0):.3g}, "
                f"{len(pairs) - len(numeric)} other values differ")
    rows_a, rows_b = _csv_rows(a), _csv_rows(b)
    if rows_a is None or rows_b is None:
        return "not JSON or a CSV of numbers"
    if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        return "CSV of different shape"
    changed = [(p, q) for ra, rb in zip(rows_a, rows_b) for p, q in zip(ra, rb) if p != q]
    large = sum(max(abs(p), abs(q)) >= 1e-6 for p, q in changed)
    worst = max((abs(p - q) for p, q in changed), default=0.0)
    return (f"{len(changed)} of {sum(map(len, rows_a))} cells changed, {large} with "
            f"|value| >= 1e-6, largest change {worst:.3g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, help="git revision to compare with")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="spinpst-identity-") as tmp:
        work = Path(tmp)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.against, "src"],
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(work)], input=archive, check=True)
        cmds, differ = commands(), 0
        for cmd in cmds:
            # REV first, then this checkout
            a, b = (run(src, cmd, work / "cwd") for src in (work / "src", ROOT / "src"))
            parts = [what for what, x, y in zip(("stdout", "stderr", "exit code"), a, b)
                     if x != y]
            files = [name for name in sorted(a[3].keys() | b[3].keys())
                     if a[3].get(name) != b[3].get(name)]
            parts += [f"file {name}" for name in files]
            if parts:
                differ += 1
                shown = " ".join(x.removeprefix(f"{ROOT}/") for x in cmd)
                print(f"DIFFERS: spinpst {shown}: {', '.join(parts)} "
                      f"(exit {a[2]} at {args.against}, {b[2]} here)")
                outputs = [("stdout", a[0], b[0])] if a[0] != b[0] else []
                outputs += [(f"file {name}", a[3].get(name, b""), b[3].get(name, b""))
                            for name in files]
                for what, x, y in outputs:
                    print(f"  {what}: {numeric_summary(x, y)}")
    print(f"{len(cmds)} commands against {args.against}: {len(cmds) - differ} identical in "
          f"stdout, stderr, exit code and written files, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

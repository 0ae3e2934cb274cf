"""Mutation check: each recorded mutation of ``src/`` must fail the tests named for it.

    python tools/mutants.py

``MUTATIONS`` lists (file under ``src/spinpst``, search text, replacement,
tests that must catch it).  Each search text occurs exactly once in ``src/``
(``tests/test_identity.py`` checks that).  The script copies this checkout's
``src/`` to a temporary directory and runs the named tests of every mutation
against the unmutated copy, which must pass.  Then, for each mutation, it
replaces the search text in a fresh copy and runs that mutation's tests
against it in a new pytest process (``tests/conftest.py`` sets one BLAS
thread); the mutation is caught when pytest reports a failed test.  The
script prints one line per mutation and a summary, and exits 1 if the
unmutated run fails or any mutation is missed, 0 otherwise.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MUTATIONS = (
    ("scale.py", "    tm.check_reach(abs(tau))\n", "",
     ("tests/test_scale.py::TestScan::test_roots_at_checks_reach_before_the_kernel",
      "tests/test_cli.py::TestCommands::test_tau_without_phase_digits_exits_2")),
    ("dynamics.py", "8 * term > np.finfo(float).eps / 2", "8 * term > 1e-9",
     ("tests/test_dynamics.py::TestInterpolatedBlocks::test_gram_batch_matches_single_tau",
      "tests/test_scale.py::TestScan::test_roots_meet_the_precision_contract_against_expm")),
    ("dynamics.py", "cross = summed((p_r == -p_c) & (p_r != 0)",
     "cross = summed((p_r != p_c) & (p_r != 0)",
     ("tests/test_dynamics.py::TestMirrorSplit::test_parity_blocks_are_the_gathered_blocks",)),
    ("dynamics.py", "n_pairs, n_fixed) / np.sqrt(2)", "n_pairs, n_fixed)",
     ("tests/test_dynamics.py::TestMirrorSplit::test_parity_blocks_are_the_gathered_blocks",
      "tests/test_dynamics.py::TestMirrorSplit::test_palindromic_overrides_split_every_sector")),
    ("dynamics.py", "MIRROR_TOL = 64 * np.finfo(float).eps", "MIRROR_TOL = 1",
     ("tests/test_dynamics.py::TestMirrorSplit::test_asymmetric_chains_take_the_trivial_mirror",)),
)
TESTS_FAILED = 1      # pytest's exit code when tests ran and some failed


def pytest_exit(src: Path, tests) -> int:
    """Exit code of pytest running ``tests`` from this checkout against the package in ``src``."""
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
            "-o", f"pythonpath={src}", *tests]
    return subprocess.run(argv, cwd=ROOT, capture_output=True).returncode


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="spinpst-mutants-") as tmp:
        clean = Path(tmp) / "clean"
        shutil.copytree(ROOT / "src", clean, ignore=shutil.ignore_patterns("__pycache__"))
        code = pytest_exit(clean, sorted({t for *_, tests in MUTATIONS for t in tests}))
        if code:
            print(f"the unmutated tests do not pass (pytest exit {code})")
            return 1
        missed = 0
        for i, (name, search, replacement, tests) in enumerate(MUTATIONS):
            src = Path(tmp) / f"mutant{i}"
            shutil.copytree(clean, src)
            path = src / "spinpst" / name
            path.write_text(path.read_text().replace(search, replacement))
            code = pytest_exit(src, tests)
            shutil.rmtree(src)
            missed += code != TESTS_FAILED
            verdict = "caught" if code == TESTS_FAILED else f"MISSED (pytest exit {code})"
            print(f"{verdict}: {name} {search!r} -> {replacement!r}")
    print(f"{len(MUTATIONS)} mutations: {len(MUTATIONS) - missed} caught, {missed} missed")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())

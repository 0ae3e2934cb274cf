"""Command-line front end: scans, solves, protocol simulation, reproduction.

Exit codes: 0 success, 1 reproduction mismatch, 2 configuration error,
3 infeasible dimensions, 4 solver did not converge.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import warnings
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from . import protocol, scale
from .chain import ChainSpec, Partition, build_couplings
from .config import ConfigError, RunConfig
from .dynamics import TransferMap
from .paper import (LAMBDA_TOL, N42_OVERRIDES, PAPER_ROOTS, PAPER_TABLE_1A, PAPER_TABLE_2,
                    PAPER_TABLE_2_N42, TABLE_2_WINDOWS, TAU0_TOL)
from .restore import (CIRCUIT_MODES, ConvergenceError, FeasibilityError,
                      RestoreProblem, RestoreSolution, fit_circuit, solve_general)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_NO_CONVERGENCE = 4

CSV_BATCH_ROWS = 1024


@functools.cache
def _cell_tables() -> tuple[np.ndarray, ...]:
    """Per 4-digit group its text and trailing zeros; per decimal exponent, from the
    slots of its text (d0..d_k, a gap, d_k+1..d8, a suffix), the mask of d0..d_k,
    the gap bits, the constant characters and per trailing zero count the bytes kept."""
    q = np.arange(10_000)
    digits4 = sum((q // 10 ** (3 - i) % 10 + 48) << 8 * i for i in range(4)).astype(np.uint64)
    zeros4 = sum(q % 10 ** i == 0 for i in range(1, 5))
    split, const, keep = [], [], []
    for x in range(-14, 9):
        k, gap, suffix, frac = ((0, ".", f"e{x:+03d}", 8) if x < -4 else     # d.dddddddde-XX
                                (-1, "0." + "0" * (-x - 1), "", 9) if x < 0 else  # 0.00ddddddddd
                                (min(x, 7), "." if x < 8 else "\0", "", 8 - x))  # dd.ddddddd
        slots = [*range(k + 1), *gap, *range(k + 1, 9), *suffix, *[None] * 16][:16]
        split.append((2 ** (8 * k + 8) - 1, 8 * len(gap)))
        const.append(bytes(ord(c) if isinstance(c, str) else 0 for c in slots))
        # s trailing zero digits: %g strips the zeros after the dot, then a dot left last
        for s in (min(z, frac) for z in range(9)):
            gone = {None, *range(9 - s, 9), *["."] * (s == frac)}
            keep.append(bytes(0 if c in gone else 255 for c in slots))
    words = [np.frombuffer(b"".join(t), "<u8").reshape(-1, 2).T.copy() for t in (const, keep)]
    return (digits4, zeros4, 10.0 ** np.arange(22, -1, -1), *np.array(split, np.uint64).T,
            *words[0], *words[1])


def _format_cells(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The %.9g text of each value as (n, 2) '<u8' words, NUL-padded, and the mask of
    the cells proven here: for x in [1e-14, 1e9), y = x 10^(8-E), E = floor(log10 x),
    has one rounding error (<= 6e-8), so rint(y) gives the digits %g prints where y is
    over 1e-6 from a half-integer.  ``%`` formats the rest (ties, carries, <= 0, ...)."""
    digits4, zeros4, pow10, low, gap, const_lo, const_hi, keep_lo, keep_hi = _cell_tables()
    xc = np.fmin(np.fmax(x, 1e-14), 1e9)
    ix = np.clip(np.floor(np.log10(xc)) + 14, 0, 22).astype(np.intp)       # E + 14
    y = xc * pow10[ix]
    d = np.rint(y).astype(np.int64)
    proven = ((xc == x) & (np.abs(y - d) < 0.499999)
              & ((d - 10 ** 8).view(np.uint64) < 9 * 10 ** 8))
    h, d = np.divmod(d, 10 ** 8)
    q1, q2 = np.divmod(d, 10 ** 4)
    j = 9 * ix + zeros4[q2] + (q2 == 0) * zeros4[q1]     # X and the trailing zeros of d
    g2 = digits4[q2]
    # d0..d8 in bytes 0..8 (d8 in the high word), then the gap opened after d_k
    lo = (h.view(np.uint64) + np.uint64(48)) | digits4[q1] << np.uint64(8) | g2 << np.uint64(40)
    head, bits = lo & low[ix], gap[ix]
    words = np.stack([(head | (lo ^ head) << bits | const_lo[ix]) & keep_lo[j],
                      ((g2 >> np.uint64(24)) << bits | (lo ^ head) >> (np.uint64(64) - bits)
                       | const_hi[ix]) & keep_hi[j]], axis=1)
    for i in np.flatnonzero(~proven):
        words[i] = np.frombuffer(("%.9g" % x[i]).encode().ljust(16, b"\0"), "<u8")
    return words, proven


def _emit(cfg: RunConfig, payload: dict, path: str | None) -> None:
    """Write a command's JSON, with the config's chain id and hash, to ``path``
    or, when there is none, to standard output."""
    text = json.dumps({**payload, "chain_id": cfg.chain_id(),
                       "config_hash": cfg.config_hash()}, indent=2, sort_keys=True)
    if path:
        Path(path).write_text(text)
    else:
        print(text)


def _scan_csv(result: scale.ScanResult) -> Iterator[str]:
    """The scan CSV in pieces: the header, then CSV_BATCH_ROWS rows at a time.

    A batch bounds the memory the text takes.  Each cell is 16 bytes of
    ``_format_cells`` text and a separator; deleting the NUL padding leaves the CSV.
    """
    m = result.roots.shape[1]
    yield "tau," + ",".join(f"root_{i + 1}" for i in range(m)) + ",min_root\n"
    for lo in range(0, len(result.taus), CSV_BATCH_ROWS):
        values = np.column_stack([result.taus[lo:lo + CSV_BATCH_ROWS],
                                  result.roots[lo:lo + CSV_BATCH_ROWS]])
        cells = np.empty((len(values), m + 2), [("text", "<u8", 2), ("sep", "S1")])
        cells["text"][:, :-1] = _format_cells(values.ravel())[0].reshape(len(values), m + 1, 2)
        cells["text"][:, -1] = cells["text"][:, 1]      # min_root repeats root_1
        cells["sep"] = [b","] * (m + 1) + [b"\n"]
        yield cells.tobytes().translate(None, b"\0").decode()


def _checked(fn, *args):
    """``fn(*args)``, where a ValueError other than a LinAlgError is a config error:
    a grid the scan rejects, or a tau past ``dynamics.MAX_PHASE_ERROR``."""
    try:
        return fn(*args)
    except np.linalg.LinAlgError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _scan(cfg: RunConfig, tm: TransferMap) -> scale.ScanResult:
    """The scan of the configured tau grid.  The scan keys are required only
    where a scan runs."""
    if cfg["scan.tau_min"] is None or cfg["scan.tau_max"] is None:
        raise ConfigError("scan needs scan.tau_min and scan.tau_max")
    return _checked(scale.scan, tm, cfg["scan.tau_min"], cfg["scan.tau_max"], cfg["scan.step"])


def cmd_scan(args) -> int:
    cfg = RunConfig.from_file(args.config)
    if args.format == "json" and args.out:
        raise ConfigError("--out names the scan CSV, which --format json does not write")
    tm = TransferMap(cfg.couplings(), cfg.partition(), cfg["excitation.k"])
    result = _scan(cfg, tm)
    summary = {
        "tau0": result.tau0,
        "lambda_min": result.lambda_min,
        "n_er": tm.partition.n_er,
        "k": tm.k,
    }
    if args.format == "csv":
        out = args.out or "scan_output.csv"
        with Path(out).open("w") as fh:
            fh.writelines(_scan_csv(result))
        summary["csv"] = out
    _emit(cfg, summary, None)
    return EXIT_OK


def cmd_roots(args) -> int:
    cfg = RunConfig.from_file(args.config)
    tau = args.tau if args.tau is not None else cfg["roots.tau"]
    if tau is None:
        raise ConfigError("roots needs --tau or the roots.tau key")
    if not math.isfinite(tau):
        raise ConfigError(f"--tau must be a finite number, got {tau}")
    tm = TransferMap(cfg.couplings(), cfg.partition(), cfg["excitation.k"])
    roots = _checked(scale.roots_at, tm, tau)
    _emit(cfg, {
        "tau": tau,
        "roots": [float(r) for r in roots],
        "n_er": tm.partition.n_er,
        "k": tm.k,
    }, args.out)
    return EXIT_OK


def _solve_from_config(cfg: RunConfig, args) -> RestoreSolution:
    """Restoring solution at the configured or scanned tau, one eigensystem for both;
    a solver warning prints as one line naming the constraint budget's keys."""
    tau = cfg["solver.tau"]
    tm = TransferMap(cfg.couplings(), cfg.partition(), cfg["excitation.k"])
    if tau is None:
        tau = _scan(cfg, tm).tau0
    problem = RestoreProblem(v_hat=_checked(tm.v_hat, tau), mode=cfg["solver.mode"],
                             n_extra_zero_rows=cfg["solver.n_extra_zero_rows"],
                             q_layers=cfg["solver.q"],
                             restarts=cfg["solver.restarts"],
                             tol=cfg["solver.tol"],
                             seed=args.seed if args.seed is not None else cfg["solver.seed"])
    with warnings.catch_warnings(record=True) as caught:
        try:
            return (fit_circuit if problem.mode in CIRCUIT_MODES else solve_general)(problem)
        finally:
            for w in caught:
                print(f"warning: {w.message} (solver.q = {problem.q_layers}, solver."
                      f"n_extra_zero_rows = {problem.n_extra_zero_rows or 0})", file=sys.stderr)


def cmd_solve(args) -> int:
    """``solve``, and ``fit-circuit``, which takes the circuit modes only."""
    cfg = RunConfig.from_file(args.config)
    if args.command == "fit-circuit" and cfg["solver.mode"] not in CIRCUIT_MODES:
        raise ConfigError("fit-circuit needs solver.mode = circuit-preserving "
                          "or circuit-nonpreserving")
    _emit(cfg, _solve_from_config(cfg, args).to_dict(), args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = RunConfig.from_file(args.config)
    part, k, variant = cfg.partition(), cfg["excitation.k"], cfg["simulate.variant"]
    seed = args.seed if args.seed is not None else cfg["solver.seed"]
    # every input the protocol checks is checked before the solve runs
    try:
        dim = protocol.input_dimension(variant, part, k, cfg["solver.mode"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if args.state:
        try:
            s = np.array([complex(re, im) for re, im in json.loads(Path(args.state).read_text())])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"--state must hold [[re, im], ...] pairs: {exc}") from exc
        if s.shape != (dim,):
            raise ConfigError(f"--state has {len(s)} amplitudes; the {variant} "
                              f"protocol takes {dim}")
        if not (np.isfinite(s).all() and 0 < np.linalg.norm(s) < np.inf):
            raise ConfigError("--state amplitudes must be finite with a nonzero norm")
    else:
        rng = np.random.default_rng(seed)
        s = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    s = s / np.linalg.norm(s)

    solution = _solve_from_config(cfg, args)
    _emit(cfg, protocol.run(variant, part, s, solution).to_dict(seed=seed), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# reproduction tables
# ---------------------------------------------------------------------------

def _table_row(cells) -> str:
    return "  ".join(str(c).ljust(12) for c in cells)


def _scan_row(lines: list[str], label: list, couplings, n_er: int, tau_max: float,
              published: tuple[float, float]) -> bool:
    """Scan one published chain, append its table row, and say whether it matches."""
    part = Partition(n_sites=couplings.n_sites, n_s=3, n_r=3, n_er=n_er)
    res = scale.scan(TransferMap(couplings, part, 2), 0.0, tau_max, 0.001)
    tau_ref, lam_ref = published
    good = abs(res.tau0 - tau_ref) <= TAU0_TOL and abs(res.lambda_min - lam_ref) <= LAMBDA_TOL
    lines.append(_table_row([*label, f"{res.tau0:.3f}", f"{tau_ref:.3f}",
                             f"{res.lambda_min:.4f}", f"{lam_ref:.3f}",
                             "PASS" if good else "FAIL"]))
    return good


def cmd_reproduce(args) -> int:
    lines: list[str] = []
    ok = True
    if args.table == "1a":
        couplings = build_couplings(ChainSpec(n_sites=10))
        lines.append(_table_row(["n_er", "tau0", "want", "lam_min", "want", "status"]))
        for n_er, published in PAPER_TABLE_1A.items():
            ok &= _scan_row(lines, [n_er], couplings, n_er, 20.0, published)
    elif args.table == "roots":
        couplings = build_couplings(ChainSpec(n_sites=10))
        lines.append(_table_row(["n_er", "roots", "want", "status"]))
        for n_er, wants in PAPER_ROOTS.items():
            tm = TransferMap(couplings, Partition(n_sites=10, n_s=3, n_r=3, n_er=n_er), 2)
            roots = scale.roots_at(tm, PAPER_TABLE_1A[n_er][0])
            good = len(roots) == 3 and all(abs(r - w) <= LAMBDA_TOL for r, w in zip(roots, wants))
            ok &= good
            lines.append(_table_row([n_er, np.round(roots, 4), wants,
                                     "PASS" if good else "FAIL"]))
    elif args.table == "2":
        lines.append(_table_row(["N", "variant", "tau0", "want", "lam", "want", "status"]))
        for n, published in PAPER_TABLE_2.items():
            ok &= _scan_row(lines, [n, "homog"], build_couplings(ChainSpec(n_sites=n)),
                            5, TABLE_2_WINDOWS[n], published)
        ok &= _scan_row(lines, [42, "adj-dist"],
                        build_couplings(ChainSpec(n_sites=42, nn_overrides=N42_OVERRIDES)),
                        5, TABLE_2_WINDOWS[42], PAPER_TABLE_2_N42)
    else:
        raise ConfigError(f"unknown table {args.table!r}")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    sys.stdout.write(text)
    return EXIT_OK if ok else EXIT_MISMATCH


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spinpst",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        p.add_argument("--config", required=True, help="flat key=value config file")
        if seed:
            p.add_argument("--seed", type=int, default=None, help="override solver.seed")
        # scans are serial; accepted and ignored so older command lines still parse
        p.add_argument("--threads", type=int, help=argparse.SUPPRESS)
        p.add_argument("--out", default=None, help="output path")

    p = sub.add_parser("scan", help="scan tau for the optimal registration time")
    common(p, seed=False)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("roots", help="|λ| roots (singular values of V̂) at a fixed tau")
    common(p, seed=False)
    p.add_argument("--tau", type=float, default=None)
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("solve", help="solve the restoring system")
    common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("fit-circuit", help="fit a parameterized restoring circuit")
    common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("simulate", help="run a transfer protocol end to end")
    common(p)
    p.add_argument("--state", default=None,
                   help="JSON file with [[re, im], ...] input amplitudes")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reproduce", help="reproduce published tables")
    p.add_argument("table", choices=["1a", "2", "roots"])
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FeasibilityError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ConvergenceError as exc:
        print(f"no convergence: {exc} (best residual {exc.best_residual:.3e})",
              file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (OSError, MemoryError) as exc:     # unreadable paths, or sizes past memory
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the spinpst CLI: three workloads, checked outputs, optional trace.

    python3 bench/run.py --workload long-chain-scan --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  The CLI runs in this process
(``spinpst.cli.main``) with one BLAS/OpenMP thread and ``--threads 1``.
After one untimed warm-up command, whole rounds of the workload's commands
run until ``--seconds`` of command time has passed; every output is checked
outside the timed span.  The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics: ``run_s`` (typical round time),
``setup_s`` (median of five fresh set-up processes) and ``peak_rss_mb``.
``--trace 1`` runs every command twice in a row, plain and traced, and
reports the per-layer metrics of the traced runs and the tracing overhead
on round time.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
if __name__ == "__main__":    # before numpy loads; child processes inherit it
    for _var in THREAD_VARS:
        os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5
MAX_REPORTED_FAILURES = 5


class Capture:
    """Keeps (problem, solution) of every solver call, for the output checks."""

    def __init__(self):
        self.calls: list[tuple] = []
        self._undo: list = []

    def install(self) -> None:
        for name in ("solve_general", "fit_circuit"):
            undo = tracing.patch("restore", name, self._wrap)
            if undo is None:
                raise RuntimeError(f"spinpst.restore.{name} not found")
            self._undo.append(undo)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _wrap(self, fn):
        @functools.wraps(fn)
        def wrapper(problem, *args, **kwargs):
            solution = fn(problem, *args, **kwargs)
            self.calls.append((problem, solution))
            return solution
        return wrapper


class Runner:
    """Runs commands in-process, times them and checks their output."""

    def __init__(self, cli, plan: workloads.Plan, oracle: dict, capture: Capture):
        self.cli, self.plan, self.oracle, self.capture = cli, plan, oracle, capture
        self.attempted = self.failed = self.check_failures = 0

    def invoke(self, argv: list[str]) -> tuple[int, str, str, float]:
        out, err = io.StringIO(), io.StringIO()
        self.capture.calls.clear()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                traceback.print_exc()
                rc = 1
            elapsed = time.perf_counter() - start
        return rc, out.getvalue(), err.getvalue(), elapsed

    def _report(self, argv: list[str], reason: str) -> None:
        if self.failed <= MAX_REPORTED_FAILURES:
            print(f"FAILED {' '.join(argv)}: {reason}", file=sys.stderr)

    def warmup(self) -> None:
        rc, _, err, _ = self.invoke(self.plan.warmup)
        if rc != 0:
            print(f"warm-up exited {rc}: {err.strip()[-500:]}", file=sys.stderr)

    def run_op(self, op: workloads.Op) -> float:
        """Run and check one command; returns its timed seconds."""
        rc, out, err, elapsed = self.invoke(op.argv)
        self.attempted += 1
        if rc != 0:
            self.failed += 1
            self._report(op.argv, f"exit {rc}: {err.strip()[-500:]}")
            return elapsed
        try:
            op.check(json.loads(out), list(self.capture.calls), self.oracle)
        except Exception as exc:   # any malformed or wrong output fails the op
            self.failed += 1
            self.check_failures += 1
            self._report(op.argv, f"check: {type(exc).__name__}: {exc}")
        return elapsed

    def round(self) -> list[float]:
        """One round of the workload; returns each command's timed seconds."""
        return [self.run_op(op) for op in self.plan.ops]

    def paired_round(self, tracer: tracing.Tracer) -> tuple[list[float], list[float]]:
        """Each command plain, then at once traced, so drift hits both alike."""
        tracer.begin_round()
        plain, traced = [], []
        for op in self.plan.ops:
            plain.append(self.run_op(op))
            tracer.install()
            try:
                traced.append(self.run_op(op))
            finally:
                tracer.uninstall()
        return plain, traced


def round_seconds(rounds: list[list[float]]) -> float:
    """Typical round time: each command's median over the rounds, summed.

    Per-command medians drop a stall that hit one command in one round,
    which a median of whole-round sums would keep whenever every round
    caught one.
    """
    return sum(median(times) for times in zip(*rounds))


def run_oracle(requests: dict[str, dict]) -> dict[str, list[float]]:
    """Singular values from the expm oracle, computed in a child process."""
    proc = subprocess.run([sys.executable, str(BENCH / "oracle.py")],
                          input=json.dumps(list(requests.values())),
                          capture_output=True, text=True, check=True)
    return dict(zip(requests, json.loads(proc.stdout)))


def measure_setup(configs: list[str]) -> list[float]:
    """Wall times of fresh processes doing the set-up of this workload."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), *configs],
                       check=True)
        samples.append(time.perf_counter() - start)
    return samples


def format_metrics(values: dict[str, float], declared: list[dict]) -> dict:
    """Metrics in BENCHMARK.json order and units; the names must match exactly."""
    names = [m["name"] for m in declared]
    if set(values) != set(names):
        raise RuntimeError(f"measured {sorted(values)} but BENCHMARK.json names {names}")
    return {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in declared}


def untraced(runner: Runner, seconds: float, plan: workloads.Plan,
             samples: dict) -> dict[str, float]:
    samples["setup_s"] = measure_setup(plan.configs)
    runner.warmup()
    rounds = samples["rounds"] = []
    while not rounds or sum(map(sum, rounds)) < seconds:
        rounds.append(runner.round())
        print(f"round {len(rounds)}: {sum(rounds[-1]):.3f} s", file=sys.stderr)
    return {"run_s": round_seconds(rounds), "setup_s": median(samples["setup_s"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def traced(runner: Runner, seconds: float, trace_path: Path,
           samples: dict) -> dict[str, float]:
    tracer = tracing.Tracer()
    runner.warmup()
    plain, with_trace = samples["plain"], samples["traced"] = [], []
    while not with_trace or sum(map(sum, plain + with_trace)) < seconds:
        times = runner.paired_round(tracer)
        plain.append(times[0])
        with_trace.append(times[1])
        print(f"round {len(plain)}: {sum(plain[-1]):.3f} s plain, "
              f"{sum(with_trace[-1]):.3f} s traced", file=sys.stderr)
    if tracer.absent:
        print(f"trace: not found, not wrapped: {', '.join(tracer.absent)}",
              file=sys.stderr)
    tracer.write(trace_path)
    values = tracer.metrics()
    values["trace.overhead_pct"] = 100.0 * (round_seconds(with_trace) /
                                            round_seconds(plain) - 1.0)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from spinpst import cli   # raises where the program's sources are absent

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    plan = workloads.build(args.workload, args.seed)
    oracle = run_oracle(plan.oracle_requests)
    capture = Capture()
    capture.install()
    runner = Runner(cli, plan, oracle, capture)
    out_dir = workloads.OUT / args.workload
    samples: dict[str, list] = {}
    if args.trace:
        values = traced(runner, args.seconds, out_dir / f"trace-seed{args.seed}.jsonl",
                        samples)
        metrics = format_metrics(values, spec["per_layer"])
    else:
        values = untraced(runner, args.seconds, plan, samples)
        metrics = format_metrics(values, spec["end_to_end"])
    result = {"correct": runner.check_failures == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    line = json.dumps(result)
    # the result file also keeps every timing sample behind the metrics
    (out_dir / f"result-trace{args.trace}-seed{args.seed}.json").write_text(
        json.dumps({**result, "samples": samples}) + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Spans around the program's public functions, installed from outside it.

``patch`` replaces a function everywhere the package binds it, so names
re-imported into ``cli``, ``restore``, ``protocol`` and the package root are
wrapped too; a method is replaced on its class.  A name the program no
longer has is skipped and listed in ``Tracer.absent``, so the benchmark
keeps running after a refactor.

Each span records name, start, end, parent span and round, and counts taken
at the same boundary (tau points, computed flops, solver restarts).  Calls
into ``gates`` happen hundreds of thousands of times per circuit fit, so
they are leaves: per round they add to a call count and a time total, and
to their parent's child time, without a span record.  Self time is a
span's duration minus the time its children cover.  The program is single
threaded here, so one stack of open spans suffices.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import time
from collections import defaultdict
from statistics import median

PACKAGE = "spinpst"

# (module, attribute, span name); several functions may share one span name
SPANS = (
    ("cli", "main", "cli.main"),
    ("config", "RunConfig.from_file", "config.load"),
    ("config", "RunConfig.chain_spec", "config.load"),
    ("config", "RunConfig.partition", "config.load"),
    ("chain", "build_couplings", "chain.build_couplings"),
    ("chain", "hamiltonian_block", "chain.hamiltonian_block"),
    ("dynamics", "eigendecompose", "dynamics.eigendecompose"),
    ("dynamics", "sector_eigensystem", "dynamics.sector_eigensystem"),
    ("dynamics", "propagator", "dynamics.propagator"),
    ("dynamics", "TransferMap.__init__", "dynamics.transfer_map"),
    ("dynamics", "TransferMap.v_hat", "dynamics.v_hat"),
    ("dynamics", "TransferMap.gram_batch", "dynamics.transfer_batch"),
    ("scale", "scan", "scale.scan"),
    ("scale", "roots_at", "scale.roots_at"),
    ("restore", "solve_general", "restore.solve_general"),
    ("restore", "fit_circuit", "restore.fit_circuit"),
    ("restore", "complete_unitary", "restore.complete_unitary"),
    ("protocol", "run_k_excitation_pst", "protocol.k_excitation"),
    ("protocol", "run_arbitrary_pst", "protocol.arbitrary"),
    ("protocol", "run_global_pst", "protocol.global"),
    ("protocol", "run_nonpreserving_pst", "protocol.nonpreserving"),
)
LEAVES = (
    ("gates", "apply_single", "gates.apply"),
    ("gates", "apply_cnot", "gates.apply"),
)


def patch(module: str, attr: str, make_wrapper):
    """Wrap ``PACKAGE.module.attr`` wherever it is bound; return an undo, or None if absent."""
    mod = importlib.import_module(f"{PACKAGE}.{module}")
    owner, _, name = attr.rpartition(".")
    if owner:
        cls = getattr(mod, owner, None)
        raw = vars(cls).get(name) if isinstance(cls, type) else None
        if raw is None:
            return None
        if isinstance(raw, classmethod):
            setattr(cls, name, classmethod(make_wrapper(raw.__func__)))
        else:
            setattr(cls, name, make_wrapper(raw))
        return lambda: setattr(cls, name, raw)
    orig = getattr(mod, name, None)
    if orig is None:
        return None
    new = make_wrapper(orig)
    sites = [(m, key) for mod_name, m in list(sys.modules.items())
             if mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")
             for key, value in list(vars(m).items()) if value is orig]
    for m, key in sites:
        setattr(m, key, new)

    def undo():
        for m, key in sites:
            setattr(m, key, orig)
    return undo


def _counts(name: str, args: tuple, out) -> dict:
    """Counts recorded at a span's boundary; none if the objects lack the fields."""
    try:
        if name == "scale.scan":
            return {"tau_points": len(out.taus)}
        if name == "dynamics.transfer_batch":
            tm, taus = args[0], args[1]
            dim, r, s = tm.eig.dim, tm.n_er_k, tm.n_s_k
            # computed, not counted: one complex GEMM (T x dim)(dim x r*s) for the
            # blocks plus T Gram products (s x r)(r x s), 8 real flops per complex FMA
            return {"flop": 8 * len(taus) * r * s * (dim + s)}
        if name in ("restore.solve_general", "restore.fit_circuit"):
            records = out.restart_records
            counts = {"restarts": len(records),
                      "converged": sum(bool(r.converged) for r in records)}
            if name == "restore.solve_general":
                counts["mode"] = args[0].mode
            return counts
    except (AttributeError, IndexError, TypeError):
        pass    # a refactored program keeps running; the count reads 0
    return {}


class Tracer:
    """In-memory spans and leaf counters, one round at a time."""

    def __init__(self):
        self.spans: list[dict] = []
        self.leaves: dict[tuple[int, str], list] = defaultdict(lambda: [0, 0.0])
        self.absent: list[str] = []
        self.round = 0
        self._ids = itertools.count()
        self._stack: list[list] = []          # open spans: [span, child seconds]
        self._undo: list = []

    def begin_round(self) -> None:
        self.round += 1

    def install(self) -> None:
        """Wrap every listed function that exists."""
        self.absent = []
        for targets, make in ((SPANS, self._span), (LEAVES, self._leaf)):
            for module, attr, span_name in targets:
                undo = patch(module, attr, functools.partial(make, span_name))
                if undo is None:
                    self.absent.append(f"{module}.{attr}")
                else:
                    self._undo.append(undo)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1][0]["id"] if self._stack else None
            span = {"id": next(self._ids), "parent": parent, "name": name,
                    "round": self.round}
            frame = [span, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += end - start
                span.update(start=start, end=end, self_s=end - start - frame[1])
                self.spans.append(span)
            span.update(_counts(name, args, out))
            return out
        return wrapper

    def _leaf(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                acc = self.leaves[(self.round, name)]
                acc[0] += 1
                acc[1] += elapsed
                if self._stack:
                    self._stack[-1][1] += elapsed
        return wrapper

    def round_metrics(self, rnd: int) -> dict[str, float]:
        """Per-layer metrics of one traced round."""
        spans = [s for s in self.spans if s["round"] == rnd]
        by_id = {s["id"]: s for s in spans}
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        count: dict[str, float] = defaultdict(float)
        for s in spans:
            name = s["name"]
            if name == "restore.solve_general":
                name += "." + s.get("mode", "")
            parent = by_id.get(s["parent"])
            if parent is None or parent["name"] != s["name"]:   # outermost only
                total[name] += s["end"] - s["start"]
            own[name] += s["self_s"]
            calls[name] += 1
            for key in ("tau_points", "flop", "restarts", "converged"):
                count[f"{name}:{key}"] += s.get(key, 0)
        general = ("restore.solve_general.preserving-general",
                   "restore.solve_general.nonpreserving-general")
        restarts = sum(count[f"{g}:restarts"] for g in general)
        converged = sum(count[f"{g}:converged"] for g in general)
        fit = "restore.fit_circuit"
        apply_calls, apply_s = self.leaves.get((rnd, "gates.apply"), (0, 0.0))

        def ratio(a, b):
            return a / b if b else 0.0
        return {
            "config.load_s": total["config.load"],
            "chain.hamiltonian_block_s": total["chain.hamiltonian_block"],
            "dynamics.eigendecompose_s": total["dynamics.eigendecompose"],
            "dynamics.eigendecompose_calls": calls["dynamics.eigendecompose"],
            "dynamics.transfer_batch_s": total["dynamics.transfer_batch"],
            "dynamics.transfer_batch_gflops": ratio(
                count["dynamics.transfer_batch:flop"], total["dynamics.transfer_batch"]) / 1e9,
            "scale.scan_self_s": own["scale.scan"],
            "scale.tau_points_per_s": ratio(count["scale.scan:tau_points"],
                                            total["scale.scan"]),
            "scale.roots_at_s": total["scale.roots_at"],
            "restore.general_preserving_s": total[general[0]],
            "restore.general_nonpreserving_s": total[general[1]],
            "restore.general_restarts": restarts,
            "restore.general_converged_ratio": ratio(converged, restarts),
            "restore.complete_unitary_s": total["restore.complete_unitary"],
            "restore.fit_circuit_s": total[fit],
            "restore.fit_restarts_per_s": ratio(count[f"{fit}:restarts"], total[fit]),
            "restore.fit_converged_ratio": ratio(count[f"{fit}:converged"],
                                                 count[f"{fit}:restarts"]),
            "gates.apply_calls": apply_calls,
            "gates.apply_s": apply_s,
            "protocol.k_excitation_s": total["protocol.k_excitation"],
            "protocol.arbitrary_s": total["protocol.arbitrary"],
            "protocol.global_s": total["protocol.global"],
            "protocol.nonpreserving_s": total["protocol.nonpreserving"],
            "cli.self_s": own["cli.main"],
        }

    def metrics(self) -> dict[str, float]:
        """Median over traced rounds of each per-layer metric."""
        rounds = [self.round_metrics(r) for r in range(1, self.round + 1)]
        return {key: median(r[key] for r in rounds) for key in rounds[0]}

    def write(self, path) -> None:
        """Spans as JSON lines, after a header naming the functions not found."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"absent": self.absent}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
            for (rnd, name), (n, secs) in sorted(self.leaves.items()):
                fh.write(json.dumps({"leaf": name, "round": rnd, "calls": n,
                                     "seconds": secs}) + "\n")

"""Flat key-value run configuration shared by all CLI commands.

Files hold ``key = value`` lines (``#`` comments allowed); every key must be
on the whitelist below and is validated before any computation starts.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .chain import (ChainSpec, CouplingMatrix, InvalidSpecError, Partition, build_couplings,
                    direct_override_matrix)
from .restore import CIRCUIT_MODES, GENERAL_MODES


class ConfigError(ValueError):
    """Malformed, unknown, or inconsistent configuration."""


KNOWN_KEYS = {
    "chain.n", "chain.model", "chain.positions", "chain.nn_overrides",
    "chain.nn_override_mode", "chain.matrix_file",
    "partition.n_s", "partition.n_r", "partition.n_er",
    "partition.s0", "partition.r0",
    "excitation.k",
    "scan.tau_min", "scan.tau_max", "scan.step",
    "roots.tau",
    "solver.mode", "solver.restarts", "solver.tol", "solver.seed",
    "solver.q", "solver.n_extra_zero_rows", "solver.tau",
    "simulate.variant",
    "output.format", "output.path",
}


def parse_config_text(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _parse_site_range(text: str) -> tuple[int, ...]:
    text = text.strip()
    try:
        if "-" in text:
            lo, hi = (int(x) for x in text.split("-", 1))
        else:
            lo = hi = int(text)
    except ValueError as exc:
        raise ConfigError(f"bad site range {text!r}") from exc
    if hi < lo:
        raise ConfigError(f"empty site range {text!r}")
    return tuple(range(lo, hi + 1))


def _finite(key: str, text: str) -> float:
    """A finite float parsed from one value of ``key``."""
    try:
        x = float(text)
    except ValueError as exc:
        raise ConfigError(f"{key} must be a number, got {text!r}") from exc
    if not math.isfinite(x):
        raise ConfigError(f"{key} must be a finite number, got {text!r}")
    return x


def _parse_overrides(text: str) -> dict[int, float]:
    out: dict[int, float] = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        try:
            bond, value = item.split(":")
            i, j = (int(x) for x in bond.split("-"))
        except ValueError as exc:
            raise ConfigError(f"bad override item {item!r}") from exc
        if j != i + 1:
            raise ConfigError(f"override {item!r} is not a nearest-neighbor bond")
        out[i] = _finite("chain.nn_overrides", value)
    return out


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration; raw text is kept for hashing."""

    raw: dict[str, str] = field(default_factory=dict)

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        return cls(raw=parse_config_text(text))

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        return cls.from_text(Path(path).read_text())

    # -- typed accessors ---------------------------------------------------

    def _get(self, key: str, default=None):
        return self.raw.get(key, default)

    def _require(self, key: str) -> str:
        if key not in self.raw:
            raise ConfigError(f"missing required key {key!r}")
        return self.raw[key]

    def _int(self, key: str, default=None) -> int | None:
        v = self._get(key)
        if v is None:
            return default
        try:
            return int(v)
        except ValueError as exc:
            raise ConfigError(f"{key} must be an integer, got {v!r}") from exc

    def _float(self, key: str, default=None) -> float | None:
        v = self._get(key)
        return default if v is None else _finite(key, v)

    # -- object builders ---------------------------------------------------

    def chain_spec(self) -> ChainSpec:
        n = self._int("chain.n")
        if n is None:
            raise ConfigError("missing required key 'chain.n'")
        model = self._get("chain.model", "dipole")
        if model not in ("dipole", "explicit"):
            raise ConfigError(f"chain.model must be dipole or explicit, got {model!r}")
        positions = None
        if "chain.positions" in self.raw:
            positions = tuple(_finite("chain.positions", x)
                              for x in self.raw["chain.positions"].split(","))
        overrides = None
        if "chain.nn_overrides" in self.raw:
            overrides = _parse_overrides(self.raw["chain.nn_overrides"])
        matrix = None
        if model == "explicit":
            path = self._require("chain.matrix_file")
            try:
                matrix = np.loadtxt(path, delimiter=",", dtype=float)
            except ValueError as exc:
                raise ConfigError(f"chain.matrix_file {path!r}: {exc}") from exc
        mode = self._get("chain.nn_override_mode", "distance")
        if mode not in ("distance", "direct"):
            raise ConfigError("chain.nn_override_mode must be distance or direct")
        if mode == "direct":
            if not overrides:
                raise ConfigError("direct override mode needs chain.nn_overrides")
            matrix = direct_override_matrix(n, overrides)
            return ChainSpec(n_sites=n, coupling_model="explicit", matrix=matrix)
        try:
            return ChainSpec(n_sites=n, coupling_model=model, positions=positions,
                             nn_overrides=overrides, matrix=matrix)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def couplings(self) -> CouplingMatrix:
        try:
            return build_couplings(self.chain_spec())
        except InvalidSpecError as exc:
            raise ConfigError(str(exc)) from exc

    def partition(self) -> Partition:
        n = self._int("chain.n")
        n_s = self._int("partition.n_s")
        n_er = self._int("partition.n_er")
        if n is None or n_s is None or n_er is None:
            raise ConfigError("partition needs chain.n, partition.n_s, partition.n_er")
        n_r = self._int("partition.n_r", n_s)
        s0 = _parse_site_range(self.raw["partition.s0"]) if "partition.s0" in self.raw else ()
        r0 = _parse_site_range(self.raw["partition.r0"]) if "partition.r0" in self.raw else ()
        try:
            return Partition(n_sites=n, n_s=n_s, n_r=n_r, n_er=n_er,
                             s0_sites=s0, r0_sites=r0)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def k(self) -> int:
        k = self._int("excitation.k")
        if k is None:
            raise ConfigError("missing required key 'excitation.k'")
        n_s = self._int("partition.n_s")
        if k < 0 or (n_s is not None and k > n_s):
            raise ConfigError(f"excitation.k must be in 0..partition.n_s, got {k}")
        return k

    def scan_range(self) -> tuple[float, float, float]:
        lo = self._float("scan.tau_min")
        hi = self._float("scan.tau_max")
        step = self._float("scan.step", 0.001)
        if lo is None or hi is None:
            raise ConfigError("scan needs scan.tau_min and scan.tau_max")
        if step is None or step <= 0:
            raise ConfigError("scan.step must be positive")
        if hi < lo:
            raise ConfigError("empty scan range")
        return lo, hi, step

    def solver_mode(self) -> str:
        mode = self._get("solver.mode", "preserving-general")
        if mode not in GENERAL_MODES + CIRCUIT_MODES:
            raise ConfigError(f"solver.mode must be one of "
                              f"{', '.join(GENERAL_MODES + CIRCUIT_MODES)}, got {mode!r}")
        return mode

    def solver_seed(self) -> int:
        seed = self._int("solver.seed", 0)
        if seed < 0:
            raise ConfigError(f"solver.seed must be >= 0, got {seed}")
        return seed

    def solver_tol(self) -> float:
        tol = self._float("solver.tol", 1e-10)
        if tol <= 0:
            raise ConfigError(f"solver.tol must be > 0, got {tol}")
        return tol

    def solver_restarts(self) -> int | None:
        restarts = self._int("solver.restarts")
        if restarts is not None and restarts < 1:
            raise ConfigError(f"solver.restarts must be >= 1, got {restarts}")
        return restarts

    def solver_q(self) -> int:
        q = self._int("solver.q", 2)
        if q < 1:
            raise ConfigError(f"solver.q must be >= 1, got {q}")
        return q

    def solver_extra_rows(self) -> int | None:
        n_extra = self._int("solver.n_extra_zero_rows")
        if n_extra is not None and n_extra < 0:
            raise ConfigError(f"solver.n_extra_zero_rows must be >= 0, got {n_extra}")
        return n_extra

    def solver_tau(self) -> float | None:
        return self._float("solver.tau")

    def output_format(self) -> str:
        fmt = self._get("output.format", "csv")
        if fmt not in ("csv", "json"):
            raise ConfigError(f"output.format must be csv or json, got {fmt!r}")
        return fmt

    def config_hash(self) -> str:
        canon = "\n".join(f"{k}={self.raw[k]}" for k in sorted(self.raw))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]

    def chain_id(self) -> str:
        n = self._get("chain.n", "?")
        model = self._get("chain.model", "dipole")
        if self._get("chain.nn_overrides"):
            model += "-adj-" + self._get("chain.nn_override_mode", "distance")
        return f"N{n}-{model}"

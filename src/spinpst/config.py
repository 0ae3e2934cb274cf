"""Flat key-value run configuration shared by all CLI commands.

Files hold ``key = value`` lines (``#`` comments allowed).  ``KEYS`` maps each
allowed key to the parser of its value and its default.  ``RunConfig.from_text``
parses every key, checks the rules that tie keys together and builds the chain
and the partition, so a bad value raises ``ConfigError`` before any computation,
whatever the command.  Commands check only what needs the command: the scan
keys where a scan runs, and ``simulate``'s variant against the solution family
and the S0/R0 registers.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

from .basis import MAX_SITES
from .chain import ChainSpec, CouplingMatrix, Partition, build_couplings
from .protocol import VARIANTS
from .restore import CIRCUIT_MODES, DEFAULT_RESTARTS_CIRCUIT, GENERAL_MODES


class ConfigError(ValueError):
    """Malformed, unknown, or inconsistent configuration."""


# Each parser turns the text of one value into the value, or raises
# ValueError saying what the key needs: "must be ..., got '<text>'".

def _finite(text: str) -> float:
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise ValueError(f"must be a finite number, got {text!r}")
    return x


def _positive(text: str) -> float:
    x = _finite(text)
    if x <= 0:
        raise ValueError(f"must be > 0, got {text!r}")
    return x


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"must be an integer, got {text!r}") from None


def _int_range(lo: int, hi: float = math.inf):
    def parse(text: str) -> int:
        x = _integer(text)
        if x < lo:
            raise ValueError(f"must be >= {lo}, got {text!r}")
        if x > hi:
            raise ValueError(f"must be <= {hi}, got {text!r}")
        return x
    return parse


def _one_of(kind: str, *options: str):
    def parse(text: str) -> str:
        if text not in options:
            raise ValueError(f"must be one of {', '.join(options)}, "
                             f"got unknown {kind} {text!r}")
        return text
    return parse


def _site_range(text: str) -> tuple[int, ...]:
    lo, dash, hi = text.partition("-")
    try:
        sites = range(int(lo), int(hi if dash else lo) + 1)
    except ValueError:
        sites = range(0)
    if not sites:
        raise ValueError(f"must be a site i or a nonempty range i-j, got {text!r}")
    return tuple(sites)


def _overrides(text: str) -> dict[int, float]:
    out: dict[int, float] = {}
    for item in filter(None, (part.strip() for part in text.split(","))):
        try:
            bond, value = item.split(":")
            i, j = (int(x) for x in bond.split("-"))
        except ValueError:
            raise ValueError(f"must list i-j:coupling items, got {item!r}") from None
        if j != i + 1:
            raise ValueError(f"must list nearest-neighbor bonds i-(i+1), got {item!r}")
        if i in out:
            raise ValueError(f"lists bond {i}-{j} twice")
        out[i] = _finite(value)
    return out


KEYS = {
    "chain.n": (_int_range(2, MAX_SITES), None),
    # one legal value each; the keys stay so that older configs load
    "chain.model": (_one_of("coupling model", "dipole"), "dipole"),
    "chain.nn_overrides": (_overrides, None),
    "chain.nn_override_mode": (_one_of("override mode", "distance"), "distance"),
    "partition.n_s": (_int_range(1), None),
    "partition.n_r": (_int_range(1), None),          # partition.n_s when absent
    "partition.n_er": (_int_range(1), None),
    "partition.s0": (_site_range, ()),
    "partition.r0": (_site_range, ()),
    "excitation.k": (_integer, None),
    "scan.tau_min": (_finite, None),
    "scan.tau_max": (_finite, None),
    "scan.step": (_positive, 0.001),
    "roots.tau": (_finite, None),
    "solver.mode": (_one_of("mode", *GENERAL_MODES, *CIRCUIT_MODES), "preserving-general"),
    "solver.restarts": (_int_range(1), DEFAULT_RESTARTS_CIRCUIT),
    "solver.tol": (_positive, 1e-10),
    "solver.seed": (_int_range(0), 0),
    "solver.q": (_int_range(1), 2),
    "solver.n_extra_zero_rows": (_int_range(0), None),
    "solver.tau": (_finite, None),
    "simulate.variant": (_one_of("protocol variant", *VARIANTS), "k_excitation"),
}
REQUIRED = ("chain.n", "partition.n_s", "partition.n_er", "excitation.k")


def parse_config_text(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


@dataclass(frozen=True)
class RunConfig:
    """A checked configuration and its chain: ``cfg[key]`` is the parsed value
    of a key in ``KEYS`` or its default, ``raw`` the given text, kept for hashing."""

    raw: dict[str, str]
    values: dict[str, object]
    _couplings: CouplingMatrix
    _partition: Partition

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        raw = parse_config_text(text)
        values = {}
        for key, (parse, default) in KEYS.items():
            try:
                values[key] = parse(raw[key]) if key in raw else default
            except ValueError as exc:
                raise ConfigError(f"{key} {exc}") from exc
        for key in REQUIRED:
            if values[key] is None:
                raise ConfigError(f"missing required key {key!r}")
        n_s, k = values["partition.n_s"], values["excitation.k"]
        if not 0 <= k <= n_s:
            raise ConfigError(f"excitation.k must be in 0..partition.n_s, got {k}")
        lo, hi = values["scan.tau_min"], values["scan.tau_max"]
        if lo is not None and hi is not None and hi < lo:
            raise ConfigError(f"scan.tau_max must be >= scan.tau_min, got {hi} < {lo}")
        if values["partition.n_r"] is None:
            values["partition.n_r"] = n_s
        try:
            couplings = build_couplings(ChainSpec(n_sites=values["chain.n"],
                                                  nn_overrides=values["chain.nn_overrides"]))
            partition = Partition(n_sites=values["chain.n"], n_s=n_s,
                                  n_r=values["partition.n_r"], n_er=values["partition.n_er"],
                                  s0_sites=values["partition.s0"],
                                  r0_sites=values["partition.r0"])
        except ValueError as exc:   # a chain, coupling or partition check
            raise ConfigError(str(exc)) from exc
        return cls(raw, values, couplings, partition)

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        return cls.from_text(Path(path).read_text())

    def __getitem__(self, key: str):
        return self.values[key]

    def couplings(self) -> CouplingMatrix:
        """The coupling matrix, built and checked at load."""
        return self._couplings

    def partition(self) -> Partition:
        """The partition, built and checked at load."""
        return self._partition

    def config_hash(self) -> str:
        canon = "\n".join(f"{k}={self.raw[k]}" for k in sorted(self.raw))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]

    def chain_id(self) -> str:
        model = self["chain.model"]
        if self["chain.nn_overrides"]:
            model += "-adj-" + self["chain.nn_override_mode"]
        return f"N{self['chain.n']}-{model}"

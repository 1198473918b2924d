"""Experiment registry and command line runner.

Subcommands:

    rmps run <config.json> [--override k=v ...] [--workers n]
                           [--seed u64] [--out dir]
    rmps list
    rmps validate <config.json>

A config file is a JSON object with an "experiment" id and optional
"params", "r", "seed", "format" ("csv" or "jsonl") and "out" keys.
Flag overrides win over the file; override keys named r, seed, format
or out target those fields and any other key lands in params.

Every run writes its data tables plus a manifest.json carrying the
resolved config, per-file sha256 checksums and wall time; the manifest
is written even when the run fails.  Sampling is derived per sample
index from the master seed, so table bytes are reproducible and
independent of the --workers value.

Exit codes: 0 success, 2 invalid config or parameters, 3 a size cap
would be exceeded, 4 output I/O failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__, dense, ensembles
from .dense import DENSE_AMPLITUDE_CAP, DENSITY_DIM_CAP
from .ensembles import CueSource, EnsembleSpec, RmpsSource
from .errors import CapExceededError, DimensionError
from .haar import Seed, subseed
from .mps import LocalObservable

_MASK64 = (1 << 64) - 1

PAULI = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128),
}


@dataclass
class RunConfig:
    """Resolved run request."""

    experiment: str
    params: dict
    r: int
    seed: Seed
    out: Path
    format: str  # "csv" | "jsonl"


@dataclass
class Table:
    """One output table: a name, column names, and value rows."""

    name: str
    columns: tuple[str, ...]
    rows: list[tuple]


@dataclass
class Experiment:
    name: str
    summary: str
    defaults: dict
    runner: Callable[[RunConfig], list[Table]]
    default_r: int = 500


class ConfigError(ValueError):
    """Invalid configuration or parameters (exit code 2)."""


# -- experiment implementations ---------------------------------------------


def _source_from_params(p: dict, n: int, chi: int) -> RmpsSource | CueSource:
    if p.get("source", "rmps") == "cue":
        return CueSource((2,) * n)
    return RmpsSource(n, 2, chi, bool(p.get("homogeneous", False)),
                      p.get("boundary", "obc"))


def _run_avg_state_convergence(cfg: RunConfig) -> list[Table]:
    """Trace distance of the running average state to maximal mixedness,
    one row per sample-count prefix."""
    p = cfg.params
    n, chi = int(p["n"]), int(p["chi"])
    src = _source_from_params(p, n, chi)
    spec = EnsembleSpec(src, cfg.r, cfg.seed)
    d = ensembles.total_dim(src)
    dense.check_density_cap(d)
    target = np.eye(d, dtype=np.complex128) / d
    acc = np.zeros((d, d), dtype=np.complex128)
    rows = []
    for i in range(cfg.r):
        psi = ensembles.draw_dense(spec, i).amplitudes
        acc += np.outer(psi, psi.conj())
        rows.append((i + 1, dense.trace_distance(acc / (i + 1), target)))
    return [Table("distance_vs_r", ("r_prefix", "trace_distance"), rows)]


def _run_subsystem_convergence(cfg: RunConfig) -> list[Table]:
    """Mean trace distance of leading blocks from maximal mixedness as
    the block grows, with the typicality bound alongside."""
    p = cfg.params
    n, chi = int(p["n"]), int(p["chi"])
    src = _source_from_params(p, n, chi)
    rows = []
    for length in range(1, int(p["max_length"]) + 1):
        spec = EnsembleSpec(src, cfg.r, subseed(cfg.seed, length))
        rep = ensembles.subsystem_distance_stats(spec, length, "trace", "exact")
        d_s = 2**length
        d_b = 2 ** (n - length)
        rows.append((length, d_s, rep.value, rep.stderr,
                     dense.typicality_bound(d_s, d_b)))
    return [Table("subsystem_distance",
                  ("block_sites", "block_dim", "mean_trace_distance", "stderr",
                   "typicality_bound"), rows)]


def _run_bound_comparison(cfg: RunConfig) -> list[Table]:
    """Mean subsystem trace distance against the sqrt(d_s/d_b)
    typicality bound as the bath grows."""
    p = cfg.params
    rows = []
    for idx, n_bath in enumerate(p["bath_sizes"]):
        n_bath = int(n_bath)
        n = 1 + n_bath
        src = _source_from_params(p, n, int(p["chi"]))
        spec = EnsembleSpec(src, cfg.r, subseed(cfg.seed, idx))
        rep = ensembles.subsystem_distance_stats(spec, 1, "trace", "exact")
        rows.append((n_bath, 2**n_bath, rep.value, rep.stderr,
                     dense.typicality_bound(2, 2**n_bath)))
    return [Table("bound_comparison",
                  ("bath_sites", "bath_dim", "mean_trace_distance", "stderr",
                   "typicality_bound"), rows)]


def _run_chi_independence(cfg: RunConfig) -> list[Table]:
    """Average-state distance for small bond dimensions next to the
    full Haar ensemble at the same sample count."""
    p = cfg.params
    n = int(p["n"])
    rows = []
    for idx, chi in enumerate(p["chis"]):
        spec = EnsembleSpec(RmpsSource(n, 2, int(chi)), cfg.r, subseed(cfg.seed, idx))
        rep = ensembles.average_state_distance(spec, p.get("norm", "trace"))
        rows.append((f"rmps-chi{chi}", int(chi), rep.value, rep.stderr))
    spec = EnsembleSpec(CueSource((2,) * n), cfg.r, subseed(cfg.seed, len(p["chis"])))
    rep = ensembles.average_state_distance(spec, p.get("norm", "trace"))
    rows.append(("cue", 0, rep.value, rep.stderr))
    return [Table("chi_independence", ("label", "chi", "distance", "stderr"), rows)]


def _run_distance_vs_chi(cfg: RunConfig) -> list[Table]:
    """Average-state distance as a function of bond dimension."""
    p = cfg.params
    n = int(p["n"])
    rows = []
    for idx, chi in enumerate(p["chis"]):
        spec = EnsembleSpec(RmpsSource(n, 2, int(chi)), cfg.r, subseed(cfg.seed, idx))
        rep = ensembles.average_state_distance(spec, p.get("norm", "trace"))
        rows.append((int(chi), rep.value, rep.stderr))
    return [Table("distance_vs_chi", ("chi", "distance", "stderr"), rows)]


def _run_linear_chi_scan(cfg: RunConfig) -> list[Table]:
    """Average-state distance across chain lengths with the bond
    dimension growing linearly, chi = ratio * n."""
    p = cfg.params
    ratio = int(p["ratio"])
    rows = []
    for idx, n in enumerate(p["ns"]):
        n = int(n)
        chi = max(1, ratio * n)
        spec = EnsembleSpec(RmpsSource(n, 2, chi), cfg.r, subseed(cfg.seed, idx))
        rep = ensembles.average_state_distance(spec, p.get("norm", "trace"))
        rows.append((n, chi, rep.value, rep.stderr))
    return [Table("linear_chi_scan", ("n", "chi", "distance", "stderr"), rows)]


def _run_purity_scaling(cfg: RunConfig) -> list[Table]:
    """Purity of the average state versus sample count, split into the
    1/r term and the overlap cross term."""
    p = cfg.params
    n, chi = int(p["n"]), int(p["chi"])
    src = _source_from_params(p, n, chi)
    d = ensembles.total_dim(src)
    rows = []
    for r in p["r_values"]:
        r = int(r)
        spec = EnsembleSpec(src, r, cfg.seed)  # shared seed: ensembles nest
        rep = ensembles.purity_of_average_via_overlaps(spec)
        rows.append((r, rep.value, rep.value + 1.0 / r, rep.stderr,
                     1.0 / r + 1.0 / d))
    return [Table("purity_vs_r",
                  ("r", "cross_term", "purity", "stderr_cross", "mixed_floor"),
                  rows)]


def _run_purity_error(cfg: RunConfig) -> list[Table]:
    """Relative error of the cross term against the maximally mixed
    purity across chain lengths."""
    p = cfg.params
    chi = int(p["chi"])
    rows = []
    for idx, n in enumerate(p["ns"]):
        n = int(n)
        src = RmpsSource(n, 2, chi, bool(p.get("homogeneous", False)),
                         p.get("boundary", "obc"))
        spec = EnsembleSpec(src, cfg.r, subseed(cfg.seed, idx))
        rep = ensembles.purity_of_average_via_overlaps(spec)
        rel = ensembles.purity_relative_error(spec, rep)
        rows.append((n, chi, rel, rep.stderr * 2**n))
    return [Table("purity_relative_error",
                  ("n", "chi", "relative_error", "stderr"), rows)]


def _run_q_histogram(cfg: RunConfig) -> list[Table]:
    """Histogram and summary statistics of the entanglement measure Q."""
    p = cfg.params
    n, chi = int(p["n"]), int(p["chi"])
    src = _source_from_params(p, n, chi)
    spec = EnsembleSpec(src, cfg.r, cfg.seed)
    hist, mean_rep, std_rep = ensembles.q_statistics(spec, int(p["bins"]))
    hist_rows = [
        (float(hist.bin_edges[i]), float(hist.bin_edges[i + 1]), int(hist.counts[i]))
        for i in range(hist.counts.size)
    ]
    stats_rows = [(mean_rep.value, mean_rep.stderr, std_rep.value, std_rep.stderr,
                   dense.cue_global_entanglement(n))]
    return [
        Table("q_histogram", ("bin_left", "bin_right", "count"), hist_rows),
        Table("q_stats",
              ("mean", "stderr_mean", "stddev", "stderr_stddev", "haar_mean"),
              stats_rows),
    ]


def _run_q_vs_chi(cfg: RunConfig) -> list[Table]:
    """Mean of Q versus bond dimension with the exact Haar mean."""
    p = cfg.params
    n = int(p["n"])
    exact = dense.cue_global_entanglement(n)
    rows = []
    for idx, chi in enumerate(p["chis"]):
        spec = EnsembleSpec(RmpsSource(n, 2, int(chi)), cfg.r, subseed(cfg.seed, idx))
        _, mean_rep, _ = ensembles.q_statistics(spec)
        rows.append((int(chi), mean_rep.value, mean_rep.stderr, exact,
                     abs(mean_rep.value - exact)))
    return [Table("q_vs_chi",
                  ("chi", "q_mean", "stderr", "haar_mean", "abs_deviation"), rows)]


def _run_q_stddev(cfg: RunConfig) -> list[Table]:
    """Standard deviation of Q versus bond dimension."""
    p = cfg.params
    n = int(p["n"])
    rows = []
    for idx, chi in enumerate(p["chis"]):
        spec = EnsembleSpec(RmpsSource(n, 2, int(chi)), cfg.r, subseed(cfg.seed, idx))
        _, _, std_rep = ensembles.q_statistics(spec)
        rows.append((int(chi), std_rep.value, std_rep.stderr))
    return [Table("q_stddev_vs_chi", ("chi", "q_stddev", "stderr"), rows)]


def _qubit_split(p: dict) -> tuple[int, int, int]:
    """(n, d_a, d_b) of the d_a-by-2^n/d_a split of an n-qubit chain."""
    n, d_a = int(p["n"]), int(p["d_a"])
    if d_a < 1:
        raise DimensionError(f"d_a must be positive, got {d_a}")
    return n, d_a, 2**n // d_a


def _run_moments_vs_chi(cfg: RunConfig) -> list[Table]:
    """Deviation of subsystem moments from the exact Haar values versus
    bond dimension."""
    p = cfg.params
    n, d_a, d_b = _qubit_split(p)
    ms = [int(m) for m in p["ms"]]
    rows = []
    for idx, chi in enumerate(p["chis"]):
        spec = EnsembleSpec(RmpsSource(n, 2, int(chi)), cfg.r, subseed(cfg.seed, idx))
        for m, rep in zip(ms, ensembles.moment_comparisons(spec, d_a, ms)):
            rows.append((int(chi), m, rep.value, rep.stderr,
                         dense.cue_purity_moment(m, d_a, d_b)))
    return [Table("moments_vs_chi",
                  ("chi", "m", "abs_deviation", "stderr", "haar_value"), rows)]


def _run_min_eig_vs_chi(cfg: RunConfig) -> list[Table]:
    """Mean smallest subsystem eigenvalue versus bond dimension, next
    to the exact Haar mean for the d_a-by-2^n/d_a split.  That reference
    is computed before any sample is drawn, so a split beyond its cap
    fails at once with exit code 3."""
    p = cfg.params
    n, d_a, d_b = _qubit_split(p)
    ref = dense.cue_min_eigenvalue(d_a, d_b)
    rows = []
    for idx, chi in enumerate(p["chis"]):
        spec = EnsembleSpec(RmpsSource(n, 2, int(chi)), cfg.r, subseed(cfg.seed, idx))
        rep = ensembles.min_eig_comparison(spec, d_a)
        mean = float(rep.per_sample.mean())
        rows.append((int(chi), mean, rep.stderr, ref, rep.value))
    return [Table("min_eig_vs_chi",
                  ("chi", "mean_min_eig", "stderr", "reference", "abs_deviation"),
                  rows)]


def _parse_chi_rule(rule: str) -> Callable[[int], int]:
    kind, _, arg = str(rule).partition(":")
    try:
        a = int(arg)
    except ValueError:
        raise ConfigError(f"chi_rule argument must be an integer, got {rule!r}")
    if kind == "const" and a >= 1:
        return lambda n: a
    if kind == "linear" and a >= 1:
        return lambda n: a * n
    raise ConfigError(f"chi_rule must look like 'const:4' or 'linear:1', got {rule!r}")


def _run_concentration_scan(cfg: RunConfig) -> list[Table]:
    """Sample standard deviation of a one-site expectation value across
    chain lengths under a bond dimension rule."""
    p = cfg.params
    op = PAULI.get(str(p["op"]).lower())
    if op is None:
        raise ConfigError(f"op must be one of {sorted(PAULI)}, got {p['op']!r}")
    obs = LocalObservable((op,), int(p["site"]))
    rule = _parse_chi_rule(p["chi_rule"])
    reports = ensembles.concentration_scan(
        obs, rule, [int(n) for n in p["ns"]], cfg.r, cfg.seed,
        homogeneous=bool(p.get("homogeneous", False)),
        boundary=p.get("boundary", "obc"))
    rows = []
    for rep in reports:
        src = rep.spec.source
        rows.append((src.n_sites, src.bond_dim, rep.value, rep.stderr,
                     float(rep.per_sample.mean())))
    return [Table("concentration",
                  ("n", "chi", "stddev_f", "stderr_stddev", "mean_f"), rows)]


def _run_twirl_compare(cfg: RunConfig) -> list[Table]:
    """Largest entrywise gap between the Monte Carlo unitary twirl and
    the sum of vectorized-permutation projectors."""
    p = cfg.params
    n_copies, dim = int(p["n_copies"]), int(p["dim"])
    perm = dense.permutation_twirl(n_copies, dim)
    rows = []
    for r in p["r_values"]:
        r = int(r)
        mc = dense.haar_twirl_monte_carlo(n_copies, dim, r, cfg.seed)
        dev = float(np.abs(mc - perm).max())
        rows.append((n_copies, dim, r, dev, 5.0 / np.sqrt(r)))
    return [Table("twirl_compare",
                  ("n_copies", "dim", "r", "max_abs_deviation", "mc_noise_scale"),
                  rows)]


REGISTRY: dict[str, Experiment] = {}


def _register(name, summary, defaults, runner, default_r=500):
    REGISTRY[name] = Experiment(name, summary, defaults, runner, default_r)


_register("avg-state-convergence",
          "running trace distance of the average state to maximal mixedness vs r",
          {"n": 3, "chi": 2, "source": "rmps", "homogeneous": False,
           "boundary": "obc"},
          _run_avg_state_convergence)
_register("subsystem-convergence",
          "mean block distance from maximal mixedness vs block size, with bound",
          {"n": 6, "chi": 4, "max_length": 3, "source": "rmps",
           "homogeneous": False, "boundary": "obc"},
          _run_subsystem_convergence, default_r=300)
_register("bound-comparison",
          "one-site distance from maximal mixedness vs bath size, with bound",
          {"chi": 8, "bath_sizes": [3, 4, 5, 6, 7], "source": "cue"},
          _run_bound_comparison, default_r=200)
_register("chi-independence",
          "average-state distance for several chi next to the full Haar ensemble",
          {"n": 3, "chis": [2, 4], "norm": "trace"},
          _run_chi_independence)
_register("distance-vs-chi",
          "average-state distance as a function of bond dimension",
          {"n": 4, "chis": [1, 2, 3, 4, 6, 8], "norm": "trace"},
          _run_distance_vs_chi, default_r=300)
_register("linear-chi-scan",
          "average-state distance across lengths with chi growing as ratio * n",
          {"ns": [2, 3, 4, 5, 6, 7], "ratio": 1, "norm": "trace"},
          _run_linear_chi_scan, default_r=300)
_register("purity-scaling",
          "purity of the average state vs sample count, cross term split out",
          {"n": 6, "chi": 2, "source": "rmps", "homogeneous": False,
           "boundary": "obc", "r_values": [20, 50, 100, 200, 500]},
          _run_purity_scaling)
_register("purity-error",
          "relative error of the purity cross term across chain lengths",
          {"chi": 2, "ns": [6, 10, 14, 18], "homogeneous": False,
           "boundary": "obc"},
          _run_purity_error)
_register("q-histogram",
          "histogram and summary of the entanglement measure Q",
          {"n": 8, "chi": 4, "bins": 100, "source": "rmps",
           "homogeneous": False, "boundary": "obc"},
          _run_q_histogram, default_r=1000)
_register("q-vs-chi",
          "mean Q vs bond dimension with the exact Haar mean",
          {"n": 6, "chis": [2, 4, 8, 16, 32]},
          _run_q_vs_chi)
_register("q-stddev",
          "standard deviation of Q vs bond dimension",
          {"n": 6, "chis": [2, 4, 8, 16, 32, 64]},
          _run_q_stddev)
_register("moments-vs-chi",
          "subsystem moment deviations from exact Haar values vs bond dimension",
          {"n": 6, "d_a": 8, "ms": [2, 3, 4], "chis": [2, 4, 8, 16]},
          _run_moments_vs_chi)
_register("min-eig-vs-chi",
          "mean smallest subsystem eigenvalue vs bond dimension, with reference",
          {"n": 6, "d_a": 8, "chis": [2, 4, 8, 16]},
          _run_min_eig_vs_chi)
_register("concentration-scan",
          "spread of a one-site expectation value across chain lengths",
          {"op": "z", "site": 0, "ns": [4, 6, 8, 10], "chi_rule": "linear:1",
           "homogeneous": False, "boundary": "obc"},
          _run_concentration_scan)
_register("twirl-compare",
          "Monte Carlo unitary twirl vs vectorized-permutation expression",
          {"n_copies": 2, "dim": 2, "r_values": [200, 800, 3200]},
          _run_twirl_compare, default_r=1)


# -- config handling ---------------------------------------------------------


_TOP_LEVEL_KEYS = {"experiment", "params", "r", "seed", "format", "out"}


def _parse_override(text: str) -> tuple[str, object]:
    key, sep, raw = text.partition("=")
    if not sep or not key:
        raise ConfigError(f"override must look like key=value, got {text!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def load_config(path, overrides=(), seed_flag=None, out_flag=None) -> RunConfig:
    """Read a config file and fold in flag overrides."""
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(raw, dict) or "experiment" not in raw:
        raise ConfigError("config must be a JSON object with an 'experiment' key")
    unknown = set(raw) - _TOP_LEVEL_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}; "
                          f"allowed: {sorted(_TOP_LEVEL_KEYS)}")
    name = raw["experiment"]
    if name not in REGISTRY:
        raise ConfigError(f"unknown experiment {name!r}; "
                          f"known: {', '.join(sorted(REGISTRY))}")
    exp = REGISTRY[name]
    params = dict(exp.defaults)
    file_params = raw.get("params", {})
    if not isinstance(file_params, dict):
        raise ConfigError("'params' must be a JSON object")
    top = {"r": raw.get("r", exp.default_r), "seed": raw.get("seed", 0),
           "format": raw.get("format", "csv"),
           "out": raw.get("out", f"runs/{name}")}
    merged = [(k, v) for k, v in file_params.items()]
    merged += [_parse_override(o) for o in overrides]
    for key, value in merged:
        if key in ("r", "seed", "format", "out"):
            top[key] = value
        elif key in exp.defaults:
            params[key] = value
        else:
            raise ConfigError(f"unknown parameter {key!r} for {name}; "
                              f"allowed: {sorted(exp.defaults)}")
    if seed_flag is not None:
        top["seed"] = seed_flag
    if out_flag is not None:
        top["out"] = out_flag
    if top["format"] not in ("csv", "jsonl"):
        raise ConfigError(f"format must be 'csv' or 'jsonl', got {top['format']!r}")
    try:
        r = int(top["r"])
        seed = Seed(int(top["seed"]))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad r or seed: {exc}")
    if r < 1:
        raise ConfigError(f"r must be positive, got {r}")
    return RunConfig(name, params, r, seed, Path(top["out"]), top["format"])


def validate_config(cfg: RunConfig) -> list[str]:
    """Dry-run dimension and cap checks; returns diagnostics (empty = ok)."""
    problems: list[str] = []
    p = cfg.params
    dense_dims = []
    if "n" in p:
        n = int(p["n"])
        if n < 1:
            problems.append(f"n must be positive, got {n}")
        if cfg.experiment in ("avg-state-convergence", "chi-independence",
                              "distance-vs-chi", "q-histogram"):
            dense_dims.append(2**n)
    if "ns" in p:
        bad = [n for n in p["ns"] if int(n) < 1]
        if bad:
            problems.append(f"ns entries must be positive, got {bad}")
        if cfg.experiment == "linear-chi-scan":
            dense_dims.extend(2 ** int(n) for n in p["ns"])
    if "bath_sizes" in p:
        dense_dims.extend(2 ** (1 + int(b)) for b in p["bath_sizes"])
    if "chi" in p and int(p["chi"]) < 1:
        problems.append(f"chi must be positive, got {p['chi']}")
    if "chis" in p and any(int(c) < 1 for c in p["chis"]):
        problems.append(f"chis entries must be positive, got {p['chis']}")
    if "d_a" in p:
        n, d_a = int(p.get("n", 0)), int(p["d_a"])
        if d_a < 1 or (d_a & (d_a - 1)) != 0 or d_a >= 2**n:
            problems.append(f"d_a must be a power of two below 2^n, got {d_a}")
    if "chi_rule" in p:
        try:
            _parse_chi_rule(p["chi_rule"])
        except ConfigError as exc:
            problems.append(str(exc))
    if cfg.experiment == "min-eig-vs-chi" and int(p["d_a"]) >= 1:
        try:
            dense.check_min_eig_cap(int(p["d_a"]), 2 ** int(p["n"]) // int(p["d_a"]))
        except CapExceededError as exc:
            problems.append(str(exc))
    if cfg.experiment == "twirl-compare":
        op_dim = int(p["dim"]) ** (2 * int(p["n_copies"]))
        if op_dim > DENSITY_DIM_CAP:
            problems.append(f"twirl operator dimension {op_dim} exceeds cap "
                            f"{DENSITY_DIM_CAP}")
    for d in dense_dims:
        if d > DENSE_AMPLITUDE_CAP:
            problems.append(f"dense state dimension {d} exceeds cap "
                            f"{DENSE_AMPLITUDE_CAP}")
        elif d > DENSITY_DIM_CAP:
            problems.append(f"density matrix dimension {d} exceeds cap "
                            f"{DENSITY_DIM_CAP}")
    return problems


# Nominal contraction throughput used to turn work units into a rough time
# figure; the unit is one complex multiply-add of the sweep cost model.
_NOMINAL_UNITS_PER_S = 2e8


def cost_estimate(cfg: RunConfig) -> str:
    """One-line work and memory estimate, no computation performed.

    Work: r * N * D * chi^3 units per sampled sweep, summed over the
    parameter grid, plus r(r-1)/2 pairwise sweeps for the overlap-based
    purity experiments.  Memory: the largest dense array the run holds.
    """
    p = cfg.params
    ns = [int(x) for x in p.get("ns", [])] or [int(p.get("n", 1))]
    chis = [int(x) for x in p.get("chis", [])] or [int(p.get("chi", 1))]
    if "ratio" in p:
        chis = [max(1, int(p["ratio"]) * n) for n in ns]
    if "chi_rule" in p:
        rule = _parse_chi_rule(p["chi_rule"])
        chis = [rule(n) for n in ns]
    r_values = [int(x) for x in p.get("r_values", [])] or [cfg.r]
    sweep_r = max(r_values)
    units = sum(sweep_r * n * 2 * chi**3 for n in ns for chi in chis)
    if cfg.experiment in ("purity-scaling", "purity-error"):
        pairs = sweep_r * (sweep_r - 1) // 2
        units += sum(pairs * n * 2 * max(chis) ** 2 for n in ns)
    dense_dim = 2 ** max(ns) if _touches_dense(cfg.experiment) else 0
    mem_mb = 16 * dense_dim * dense_dim / 2**20 if dense_dim else \
        16 * max(chis) ** 2 * max(ns) * sweep_r / 2**20
    return (f"estimate: ~{units:.2e} contraction units "
            f"(~{units / _NOMINAL_UNITS_PER_S:.2g} s nominal), "
            f"~{mem_mb:.2f} MB peak arrays")


def _touches_dense(experiment: str) -> bool:
    return experiment in ("avg-state-convergence", "chi-independence",
                          "distance-vs-chi", "linear-chi-scan",
                          "subsystem-convergence", "bound-comparison",
                          "moments-vs-chi", "min-eig-vs-chi", "twirl-compare")


# -- output writing ----------------------------------------------------------


def _fmt_cell(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def _json_cell(v):
    if isinstance(v, (float, np.floating)):
        return float(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    return str(v)


def write_table(table: Table, out_dir: Path, fmt: str) -> Path:
    if fmt == "csv":
        path = out_dir / f"{table.name}.csv"
        lines = [",".join(table.columns)]
        lines += [",".join(_fmt_cell(v) for v in row) for row in table.rows]
        path.write_text("\n".join(lines) + "\n")
    else:
        path = out_dir / f"{table.name}.jsonl"
        lines = [json.dumps({c: _json_cell(v) for c, v in zip(table.columns, row)},
                            sort_keys=True)
                 for row in table.rows]
        path.write_text("\n".join(lines) + "\n")
    return path


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(cfg: RunConfig) -> list[Path]:
    """Execute a run and write tables plus the manifest.

    The manifest is written even if the runner raises; the exception is
    re-raised afterwards for exit-code mapping.
    """
    out_dir = cfg.out
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "artifact": "rmps",
        "version": __version__,
        "experiment": cfg.experiment,
        "config": {"experiment": cfg.experiment, "params": cfg.params,
                   "r": cfg.r, "seed": cfg.seed.value, "format": cfg.format,
                   "out": str(out_dir)},
        "status": "ok",
        "error": None,
        "wall_time_s": 0.0,
        "outputs": [],
    }
    written: list[Path] = []
    t0 = time.perf_counter()
    try:
        tables = REGISTRY[cfg.experiment].runner(cfg)
        for table in tables:
            path = write_table(table, out_dir, cfg.format)
            written.append(path)
            manifest["outputs"].append({"file": path.name, "sha256": _sha256(path),
                                        "rows": len(table.rows)})
    except BaseException as exc:
        manifest["status"] = "error"
        manifest["error"] = f"{type(exc).__name__}: {exc}"
        raise
    finally:
        manifest["wall_time_s"] = time.perf_counter() - t0
        (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2,
                                                          sort_keys=True) + "\n")
    return written


# -- entry point -------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rmps",
                                     description="random matrix product state experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("config", help="JSON config file")
    p_run.add_argument("--override", action="append", default=[], metavar="K=V",
                       help="override a config field or parameter (repeatable)")
    p_run.add_argument("--workers", type=int, default=1,
                       help="reserved; outputs never depend on the worker count")
    p_run.add_argument("--seed", type=int, default=None, help="master seed override")
    p_run.add_argument("--out", default=None, help="output directory override")

    sub.add_parser("list", help="list registered experiments")

    p_val = sub.add_parser("validate", help="check a config without running it")
    p_val.add_argument("config", help="JSON config file")
    p_val.add_argument("--override", action="append", default=[], metavar="K=V")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        width = max(len(name) for name in REGISTRY)
        for name, exp in REGISTRY.items():
            print(f"{name:<{width}}  {exp.summary}")
        return 0

    try:
        if args.command == "validate":
            cfg = load_config(args.config, args.override)
            problems = validate_config(cfg)
            for msg in problems:
                print(f"problem: {msg}")
            if problems:
                return 2
            print(f"ok: {cfg.experiment} r={cfg.r} seed={cfg.seed.value} "
                  f"out={cfg.out} format={cfg.format}")
            print(cost_estimate(cfg))
            return 0

        if getattr(args, "workers", 1) < 1:
            raise ConfigError(f"--workers must be positive, got {args.workers}")
        cfg = load_config(args.config, args.override, args.seed, args.out)
        written = run(cfg)
        for path in written:
            print(f"wrote {path}")
        print(f"wrote {cfg.out / 'manifest.json'}")
        return 0
    except (ConfigError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

"""Experiment registry and command line runner.

Subcommands:

    rmps run <config.json> [--override k=v ...] [--workers n]
                           [--seed u64] [--out dir]
    rmps list
    rmps validate <config.json>

A config file is a JSON object with an "experiment" id and optional
"params", "r", "seed", "format" ("csv" or "jsonl") and "out" keys.
Flag overrides win over the file; override keys named r, seed, format
or out target those fields and any other key lands in params.  An entry
that takes its sample counts from an r_values param takes no r.

run makes the same checks as validate before it draws any sample: each
param must have its registry default's JSON type, and a list param (a
grid axis) must not be empty; then the experiment's plan checks its
own params and builds every ensemble of its grid, each of r >= 2
samples (r >= 3 under a jackknife), and the cap checks run.  validate
reports the one problem the plan stops on.  Plans share their parts:
every chain comes from _source_from_params, and a plan with one table
is a _table_plan.

Every run writes its data tables plus a manifest.json carrying the
resolved config, per-file sha256 checksums and wall time; the manifest
is written even when the run fails.  Sampling is derived per sample
index from the master seed, so table bytes are reproducible.  A run is
one process: --workers is checked and otherwise ignored, and the
estimators draw the samples of both sources in chunks sized by fixed
constants (ensembles._per_sample), never derived from it.

Exit codes: 0 success, 2 invalid config or parameters, 3 a size cap
would be exceeded, 4 output I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__, dense, ensembles
from .ensembles import CueSource, EnsembleSpec, RmpsSource
from .errors import CapExceededError, DimensionError
from .haar import Seed, subseed
from .mps import LocalObservable, _end_elements, _end_sites, _pair_elements

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
    r: int | None  # None for an entry that takes its sample counts from r_values
    seed: Seed
    out: Path
    format: str  # "csv" | "jsonl"
    given: frozenset[str] = frozenset()  # the params the file or an override set


@dataclass
class Table:
    """One output table: a name, column names, and value rows."""

    name: str
    columns: tuple[str, ...]
    rows: list[tuple]


@dataclass
class Plan:
    """A run worked out and checked before its first draw: every
    ensemble it draws, the linear dimension of the largest dense matrix
    it holds (0 for none), whether its estimator sweeps all r(r-1)/2
    sample pairs, whether its error bars are leave-one-out jackknifes,
    the work units it spends outside its ensembles, the table rows it
    writes where they grow with a param, and ``execute``, which draws and
    returns the tables."""

    specs: list[EnsembleSpec]
    execute: Callable[[], list[Table]]
    dense_dim: int = 0
    pairwise: bool = False
    jackknife: bool = False
    extra_units: int = 0
    table_rows: int = 0


@dataclass
class Experiment:
    name: str
    summary: str
    defaults: dict
    plan: Callable[[RunConfig], Plan]
    default_r: int | None = 500


class ConfigError(ValueError):
    """Invalid configuration or parameters (exit code 2)."""


# -- experiment plans ----------------------------------------------------------


REGISTRY: dict[str, Experiment] = {}


def _register(name, summary, defaults, default_r=500):
    """Register the decorated plan function as experiment ``name``."""
    def add(plan):
        REGISTRY[name] = Experiment(name, summary, defaults, plan, default_r)
        return plan
    return add


def _source_from_params(p: dict, n: int, chi: int,
                        mixed_reference: str | None = None) -> RmpsSource | CueSource:
    """The source the params name.  A plan that compares against the
    maximally mixed state on two or more sites names that reference in
    ``mixed_reference``: only non-homogeneous chains average to it.  A cue
    source draws no chain, so it refuses the chain settings it would ignore."""
    kind = p.get("source", "rmps")
    homogeneous, boundary = p.get("homogeneous", False), p.get("boundary", "obc")
    if kind == "cue":
        if homogeneous or boundary != "obc":
            raise ConfigError("a cue source takes only homogeneous: false and boundary 'obc'")
        return CueSource((2,) * n)
    if kind != "rmps":
        raise ConfigError(f"source must be 'rmps' or 'cue', got {kind!r}")
    if homogeneous and mixed_reference:
        raise ConfigError(f"homogeneous chains do not average to the maximally mixed "
                          f"state: the reference {mixed_reference} needs homogeneous: false")
    return RmpsSource(n, 2, chi, homogeneous, boundary)


def _chi_sources(p: dict) -> list[RmpsSource]:
    return [_source_from_params(p, p["n"], chi) for chi in p["chis"]]


def _grid(cfg: RunConfig, sources: list, keys=None) -> list[EnsembleSpec]:
    """One ensemble of cfg.r samples per source.  The ensemble at grid
    point k has master seed subseed(cfg.seed, k), where k counts from 0
    unless ``keys`` gives the seed keys."""
    keys = range(len(sources)) if keys is None else keys
    return [EnsembleSpec(src, cfg.r, subseed(cfg.seed, k))
            for k, src in zip(keys, sources)]


def _table_plan(name: str, columns: tuple[str, ...], specs: list[EnsembleSpec],
                rows: Callable[[EnsembleSpec], list[tuple]], **kw) -> Plan:
    """A plan with one table: the rows(spec) of each ensemble in turn."""
    return Plan(specs, lambda: [Table(name, columns, [row for spec in specs
                                                      for row in rows(spec)])], **kw)


@_register("avg-state-convergence",
           "running trace distance of the average state to maximal mixedness vs r",
           {"n": 3, "chi": 2, "source": "rmps", "homogeneous": False,
            "boundary": "obc"})
def _plan_avg_state_convergence(cfg: RunConfig) -> Plan:
    """Trace distance of the running average state to maximal mixedness,
    one row per sample-count prefix."""
    p = cfg.params
    spec = EnsembleSpec(_source_from_params(p, p["n"], p["chi"], "I/d"), cfg.r, cfg.seed)
    return _table_plan("distance_vs_r", ("r_prefix", "trace_distance"), [spec],
                       lambda spec: enumerate(ensembles.average_state_convergence(spec), 1),
                       dense_dim=ensembles.total_dim(spec.source), table_rows=cfg.r)


@_register("subsystem-convergence",
           "mean block distance from maximal mixedness vs block size, with bound",
           {"n": 6, "chi": 4, "max_length": 3, "source": "rmps",
            "homogeneous": False, "boundary": "obc"}, default_r=300)
def _plan_subsystem_convergence(cfg: RunConfig) -> Plan:
    """Mean trace distance of leading blocks from maximal mixedness as
    the block grows, with the typicality bound alongside."""
    p = cfg.params
    n, max_length = p["n"], p["max_length"]
    # one-site blocks of homogeneous chains do average to I/2
    src = _source_from_params(p, n, p["chi"], "I/d" if max_length >= 2 else None)
    if max_length < 1:
        raise ConfigError(f"max_length must be at least 1, got {max_length}")
    if max_length > n:
        raise DimensionError(f"max_length {max_length} exceeds the {n} sites of the chain")
    lengths = range(1, max_length + 1)
    specs = _grid(cfg, [src] * len(lengths), keys=lengths)

    def execute():
        rows = []
        for length, spec in zip(lengths, specs):
            rep = ensembles.subsystem_distance_stats(spec, length)
            rows.append((length, 2**length, rep.value, rep.stderr,
                         dense.typicality_bound(2**length, 2 ** (n - length))))
        return [Table("subsystem_distance",
                      ("block_sites", "block_dim", "mean_trace_distance", "stderr",
                       "typicality_bound"), rows)]
    return Plan(specs, execute, dense_dim=2**max_length)


@_register("bound-comparison",
           "one-site distance from maximal mixedness vs bath size, with bound",
           {"chi": 8, "bath_sizes": [3, 4, 5, 6, 7], "source": "cue"}, default_r=200)
def _plan_bound_comparison(cfg: RunConfig) -> Plan:
    """Mean subsystem trace distance against the sqrt(d_s/d_b)
    typicality bound as the bath grows."""
    p = cfg.params
    if min(p["bath_sizes"]) < 1:
        raise ConfigError(f"bath_sizes must be at least 1 site, got {p['bath_sizes']}")
    specs = _grid(cfg, [_source_from_params(p, 1 + b, p["chi"]) for b in p["bath_sizes"]])

    def rows(spec):
        n_bath = len(ensembles.source_dims(spec.source)) - 1
        rep = ensembles.subsystem_distance_stats(spec, 1)
        return [(n_bath, 2**n_bath, rep.value, rep.stderr,
                 dense.typicality_bound(2, 2**n_bath))]
    return _table_plan("bound_comparison",
                       ("bath_sites", "bath_dim", "mean_trace_distance", "stderr",
                        "typicality_bound"), specs, rows, dense_dim=2)


def _distance_plan(cfg: RunConfig, sources: list, name: str,
                   columns: tuple[str, ...], label: Callable) -> Plan:
    """Average-state distance of each source's ensemble under the norm
    param, one row each: label(source), then distance and stderr."""
    norm = cfg.params["norm"]
    if norm not in ensembles.NORMS:
        raise ConfigError(f"norm must be 'trace' or 'hs', got {norm!r}")

    def rows(spec):
        rep = ensembles.average_state_distance(spec, norm)
        return [label(spec.source) + (rep.value, rep.stderr)]
    return _table_plan(name, columns, _grid(cfg, sources), rows, jackknife=True,
                       dense_dim=max(map(ensembles.total_dim, sources), default=0))


@_register("chi-independence",
           "average-state distance for several chi next to the full Haar ensemble",
           {"n": 3, "chis": [2, 4], "norm": "trace"})
def _plan_chi_independence(cfg: RunConfig) -> Plan:
    """Average-state distance for small bond dimensions next to the
    full Haar ensemble at the same sample count."""
    sources = _chi_sources(cfg.params) + [CueSource((2,) * cfg.params["n"])]
    return _distance_plan(cfg, sources, "chi_independence",
                          ("label", "chi", "distance", "stderr"),
                          lambda src: (f"rmps-chi{src.bond_dim}", src.bond_dim)
                          if isinstance(src, RmpsSource) else ("cue", 0))


@_register("distance-vs-chi",
           "average-state distance as a function of bond dimension",
           {"n": 4, "chis": [1, 2, 3, 4, 6, 8], "norm": "trace"}, default_r=300)
def _plan_distance_vs_chi(cfg: RunConfig) -> Plan:
    return _distance_plan(cfg, _chi_sources(cfg.params), "distance_vs_chi",
                          ("chi", "distance", "stderr"), lambda src: (src.bond_dim,))


@_register("linear-chi-scan",
           "average-state distance across lengths with chi growing as ratio * n",
           {"ns": [2, 3, 4, 5, 6, 7], "ratio": 1, "norm": "trace"}, default_r=300)
def _plan_linear_chi_scan(cfg: RunConfig) -> Plan:
    """Average-state distance across chain lengths with the bond
    dimension growing linearly, chi = ratio * n for a ratio of at least 1."""
    p = cfg.params
    if p["ratio"] < 1:
        raise ConfigError(f"ratio must be at least 1, got {p['ratio']}")
    sources = [_source_from_params(p, n, p["ratio"] * n) for n in p["ns"]]
    return _distance_plan(cfg, sources, "linear_chi_scan",
                          ("n", "chi", "distance", "stderr"),
                          lambda src: (src.n_sites, src.bond_dim))


@_register("purity-scaling",
           "purity of the average state vs sample count, cross term split out",
           {"n": 6, "chi": 2, "source": "rmps", "homogeneous": False,
            "boundary": "obc", "r_values": [20, 50, 100, 200, 500]}, default_r=None)
def _plan_purity_scaling(cfg: RunConfig) -> Plan:
    """Purity of the average state versus sample count, split into the
    1/r term and the overlap cross term."""
    p = cfg.params
    src = _source_from_params(p, p["n"], p["chi"], "1/d")
    d = ensembles.total_dim(src)
    specs = [EnsembleSpec(src, r, cfg.seed) for r in p["r_values"]]  # ensembles nest

    def rows(spec):
        r = spec.r
        rep = ensembles.purity_of_average_via_overlaps(spec)
        return [(r, rep.value, rep.value + 1.0 / r, rep.stderr, 1.0 / r + 1.0 / d)]
    return _table_plan("purity_vs_r",
                       ("r", "cross_term", "purity", "stderr_cross", "mixed_floor"),
                       specs, rows, pairwise=True, jackknife=True)


@_register("purity-error",
           "relative error of the purity cross term across chain lengths",
           {"chi": 2, "ns": [6, 10, 14, 18], "homogeneous": False,
            "boundary": "obc"})
def _plan_purity_error(cfg: RunConfig) -> Plan:
    """Relative error of the cross term against the maximally mixed
    purity across chain lengths."""
    p = cfg.params
    chi = p["chi"]

    def rows(spec):
        n = spec.source.n_sites
        rep = ensembles.purity_of_average_via_overlaps(spec)
        return [(n, chi, ensembles.purity_relative_error(spec, rep), rep.stderr * 2**n)]
    return _table_plan("purity_relative_error", ("n", "chi", "relative_error", "stderr"),
                       _grid(cfg, [_source_from_params(p, n, chi, "1/d")
                                   for n in p["ns"]]),
                       rows, pairwise=True, jackknife=True)


@_register("q-histogram",
           "histogram and summary of the entanglement measure Q",
           {"n": 8, "chi": 4, "bins": 100, "source": "rmps",
            "homogeneous": False, "boundary": "obc"}, default_r=1000)
def _plan_q_histogram(cfg: RunConfig) -> Plan:
    p = cfg.params
    n, bins = p["n"], p["bins"]
    spec = EnsembleSpec(_source_from_params(p, n, p["chi"]), cfg.r, cfg.seed)
    if bins < 1:
        raise ConfigError(f"Q statistics need bins >= 1, got {bins}")
    dense.check_bin_cap(bins)

    def execute():
        hist, mean_rep, std_rep = ensembles.q_statistics(spec, bins)
        hist_rows = list(zip(hist.bin_edges[:-1], hist.bin_edges[1:], hist.counts))
        stats_rows = [(mean_rep.value, mean_rep.stderr, std_rep.value, std_rep.stderr,
                       dense.cue_global_entanglement(n))]
        return [
            Table("q_histogram", ("bin_left", "bin_right", "count"), hist_rows),
            Table("q_stats",
                  ("mean", "stderr_mean", "stddev", "stderr_stddev", "haar_mean"),
                  stats_rows),
        ]
    return Plan([spec], execute, table_rows=bins + 1)


def _q_plan(cfg: RunConfig, name: str, columns: tuple[str, ...],
            row: Callable[..., tuple]) -> Plan:
    """Q statistics of each chi's ensemble, one row(chi, mean report,
    stddev report) each."""
    def rows(spec):
        _, mean_rep, std_rep = ensembles.q_statistics(spec)
        return [row(spec.source.bond_dim, mean_rep, std_rep)]
    return _table_plan(name, columns, _grid(cfg, _chi_sources(cfg.params)), rows)


@_register("q-vs-chi",
           "mean Q vs bond dimension with the exact Haar mean",
           {"n": 6, "chis": [2, 4, 8, 16, 32]})
def _plan_q_vs_chi(cfg: RunConfig) -> Plan:
    exact = dense.cue_global_entanglement(cfg.params["n"])
    return _q_plan(cfg, "q_vs_chi", ("chi", "q_mean", "stderr", "haar_mean", "abs_deviation"),
                   lambda chi, mean, _: (chi, mean.value, mean.stderr, exact,
                                         abs(mean.value - exact)))


@_register("q-stddev",
           "standard deviation of Q vs bond dimension",
           {"n": 6, "chis": [2, 4, 8, 16, 32, 64]})
def _plan_q_stddev(cfg: RunConfig) -> Plan:
    return _q_plan(cfg, "q_stddev_vs_chi", ("chi", "q_stddev", "stderr"),
                   lambda chi, _, std: (chi, std.value, std.stderr))


def _qubit_split(p: dict) -> tuple[int, int, int]:
    """(n, d_a, d_b) of an n-qubit chain cut after its leading block of dimension d_a."""
    n, d_a = p["n"], p["d_a"]
    ensembles._split_length((2,) * n, d_a)  # raises unless d_a names a leading block
    return n, d_a, 2**n // d_a


@_register("moments-vs-chi",
           "subsystem moment deviations from exact Haar values vs bond dimension",
           {"n": 6, "d_a": 8, "ms": [2, 3, 4], "chis": [2, 4, 8, 16]})
def _plan_moments_vs_chi(cfg: RunConfig) -> Plan:
    """Deviation of subsystem moments from the exact Haar values versus
    bond dimension."""
    p = cfg.params
    n, d_a, d_b = _qubit_split(p)
    ms = p["ms"]
    exact = [dense.cue_purity_moment(m, d_a, d_b) for m in ms]

    def rows(spec):
        reports = ensembles.moment_comparisons(spec, d_a, ms)
        return [(spec.source.bond_dim, m, rep.value, rep.stderr, ref)
                for m, ref, rep in zip(ms, exact, reports)]
    return _table_plan("moments_vs_chi", ("chi", "m", "abs_deviation", "stderr", "haar_value"),
                       _grid(cfg, _chi_sources(p)), rows, dense_dim=d_a)


@_register("min-eig-vs-chi",
           "mean smallest subsystem eigenvalue vs bond dimension, with reference",
           {"n": 6, "d_a": 8, "chis": [2, 4, 8, 16]})
def _plan_min_eig_vs_chi(cfg: RunConfig) -> Plan:
    """Mean smallest subsystem eigenvalue versus bond dimension, next
    to the exact Haar mean for the d_a-by-2^n/d_a split.  The plan checks
    that reference's cap; the run computes it once, in its first row
    before that row's first draw, and compares every ensemble with it."""
    p = cfg.params
    n, d_a, d_b = _qubit_split(p)
    dense.check_min_eig_cap(d_a, d_b)
    reference = functools.cache(lambda: dense.cue_min_eigenvalue(d_a, d_b))

    def rows(spec):
        ref = reference()
        rep = ensembles.min_eig_comparison(spec, d_a, ref)
        return [(spec.source.bond_dim, rep.per_sample.mean(), rep.stderr, ref, rep.value)]
    return _table_plan("min_eig_vs_chi",
                       ("chi", "mean_min_eig", "stderr", "reference", "abs_deviation"),
                       _grid(cfg, _chi_sources(p)), rows, dense_dim=d_a)


def _parse_chi_rule(rule: str) -> Callable[[int], int]:
    kind, _, arg = rule.partition(":")
    try:
        a = int(arg)
    except ValueError:
        raise ConfigError(f"chi_rule argument must be an integer, got {rule!r}")
    if kind == "const" and a >= 1:
        return lambda n: a
    if kind == "linear" and a >= 1:
        return lambda n: a * n
    raise ConfigError(f"chi_rule must look like 'const:4' or 'linear:1', got {rule!r}")


@_register("concentration-scan",
           "spread of a one-site expectation value across chain lengths",
           {"op": "z", "site": 0, "ns": [4, 6, 8, 10], "chi_rule": "linear:1",
            "homogeneous": False, "boundary": "obc"})
def _plan_concentration_scan(cfg: RunConfig) -> Plan:
    """Sample standard deviation of a one-site expectation value across
    chain lengths under a bond dimension rule."""
    p = cfg.params
    op = PAULI.get(p["op"].lower())
    if op is None:
        raise ConfigError(f"op must be one of {sorted(PAULI)}, got {p['op']!r}")
    obs = LocalObservable((op,), p["site"])
    rule = _parse_chi_rule(p["chi_rule"])
    ns = p["ns"]
    for n in ns:
        obs.check_fits(n, 2)
    # seeded as ensembles.concentration_scan seeds them: length n by subseed(seed, n)
    specs = _grid(cfg, [_source_from_params(p, n, rule(n)) for n in ns], keys=ns)

    def rows(spec):
        rep = ensembles.concentration(spec, obs)
        return [(spec.source.n_sites, spec.source.bond_dim, rep.value, rep.stderr,
                 rep.per_sample.mean())]
    return _table_plan("concentration", ("n", "chi", "stddev_f", "stderr_stddev", "mean_f"),
                       specs, rows)


@_register("twirl-compare",
           "Monte Carlo unitary twirl vs vectorized-permutation expression",
           {"n_copies": 2, "dim": 2, "r_values": [200, 800, 3200]}, default_r=None)
def _plan_twirl_compare(cfg: RunConfig) -> Plan:
    """Largest entrywise gap between the Monte Carlo unitary twirl and
    the sum of vectorized-permutation projectors."""
    p = cfg.params
    n_copies, dim = p["n_copies"], p["dim"]
    r_values = p["r_values"]
    if n_copies < 1 or dim < 1 or min(r_values) < 1:
        raise DimensionError(f"n_copies, dim and r_values must be positive, got "
                             f"{n_copies}, {dim}, {r_values}")

    def execute():
        perm = dense.permutation_twirl(n_copies, dim)
        rows = []
        for r in r_values:
            mc = dense.haar_twirl_monte_carlo(n_copies, dim, r, cfg.seed)
            rows.append((n_copies, dim, r, np.abs(mc - perm).max(), 5.0 / np.sqrt(r)))
        return [Table("twirl_compare",
                      ("n_copies", "dim", "r", "max_abs_deviation", "mc_noise_scale"),
                      rows)]
    # each sample accumulates one dim^(2 n_copies)-square Kronecker power
    return Plan([], execute, dense_dim=dim ** (2 * n_copies),
                extra_units=sum(r * dim ** (4 * n_copies) for r in r_values))


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
    if not isinstance(raw, dict) or not isinstance(raw.get("experiment"), str):
        raise ConfigError("config must be a JSON object with a string 'experiment' key")
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
    r, seed, out = top["r"], top["seed"], top["out"]
    if type(r) not in (int, type(exp.default_r)) or type(seed) is not int \
            or not isinstance(out, str):
        raise ConfigError(f"r and seed must be integers and out a string, "
                          f"got {r!r}, {seed!r} and {out!r}")
    if r is not None and r < 1:
        raise ConfigError(f"r must be positive, got {r}")
    given = frozenset(key for key, _ in merged if key in exp.defaults)
    return RunConfig(name, params, r, Seed(seed), Path(out), top["format"], given)


def plan(cfg: RunConfig) -> Plan:
    """Check cfg's params and build every ensemble of the run, drawing
    nothing; raise ConfigError or DimensionError (exit 2) or
    CapExceededError (exit 3).  The rules all entries share hold here:
    a cue source set in the config takes no chi set beside it, an entry
    with no default r takes none, a param has its default's JSON type, a
    list param (a grid axis) is not empty, and every planned ensemble
    has r >= 2 samples (r >= 3 under a jackknife, so that each
    leave-one-out set keeps two)."""
    exp = REGISTRY[cfg.experiment]
    if cfg.params.get("source") == "cue" and {"source", "chi"} <= cfg.given:
        raise ConfigError("a cue source draws no chain, so it takes no chi")
    if exp.default_r is None and cfg.r is not None:
        raise ConfigError(f"{cfg.experiment} takes its sample counts from r_values "
                          f"and no top-level r, got r = {cfg.r}")
    for key, value in cfg.params.items():
        want = exp.defaults[key]
        if isinstance(want, list):
            ok = isinstance(value, list) and all(type(v) is type(want[0]) for v in value)
        else:
            ok = type(value) is type(want)  # exact: neither 4.5 nor true is an int
        if not ok:
            raise ConfigError(f"parameter {key} of {cfg.experiment} has the wrong type: "
                              f"{value!r}, where the default is {want!r}")
        if value == []:  # no run writes a table without rows
            raise ConfigError(f"{key} must not be empty")
    planned = exp.plan(cfg)
    least = min((spec.r for spec in planned.specs), default=2)
    if least < 2:
        raise ConfigError(f"an ensemble needs r >= 2 samples, got {least}")
    if planned.jackknife and least < 3:
        raise ConfigError(f"a jackknife error bar needs r >= 3 samples, got {least}")
    for spec in planned.specs:
        if isinstance(spec.source, CueSource):
            dense.check_amplitude_cap(ensembles.total_dim(spec.source))
    dense.check_density_cap(planned.dense_dim)
    return planned


def validate_config(cfg: RunConfig) -> list[str]:
    """The problem that stops the run's plan, if any (empty = ok): the
    checks ``run`` makes before its first draw.  Nothing is sampled."""
    try:
        plan(cfg)
    except (ValueError, CapExceededError) as exc:
        return [str(exc)]
    return []


# Nominal contraction throughput used to turn work units into a rough time
# figure; the unit is one complex multiply-add of the sweep cost model.
_NOMINAL_UNITS_PER_S = 2e8
# Bytes per table row held while a table is built and written (a tuple of
# numpy scalars and its CSV text): q-histogram at r = 3 peaks 520-530 B
# per bin above its 100-bin run at 2^16 and 2^18 bins.
_TABLE_ROW_BYTES = 530


def cost_estimate(cfg: RunConfig) -> str:
    """One-line work and memory estimate of the planned run, nothing drawn.

    Work, summed over the planned ensembles: r * N * D * chi^3 units on
    open chains and r * N * D * chi^5 on rings (r * d for Haar states of
    dimension d), plus, for pairwise estimators, the same units again
    for each of the r(r-1)/2 pairs of the Gram sweep, plus the plan's
    work outside its ensembles.  Memory: the largest dense matrix or the
    r samples of the largest ensemble, with four arrays of one square
    Gram tile on top for pairwise estimators (a step's input
    environment, its two products and the boundary pair), and on tensor
    ensembles the partial states of the two chain ends the Gram tiles
    multiply out, D^K chi s numbers per sample and end (s = 1 on open
    chains, chi on rings); plus _TABLE_ROW_BYTES per planned table row.
    """
    planned = plan(cfg)
    units, mem_bytes = planned.extra_units, 16 * planned.dense_dim**2
    for spec in planned.specs:
        src = spec.source
        ends = 0
        if isinstance(src, RmpsSource):
            d, chi = src.phys_dim, src.bond_dim
            pair = _pair_elements(d, chi, src.boundary)
            held = src.n_sites * d * chi**2
            sweep = src.n_sites * pair * chi
            ends = _end_elements(d, chi, src.boundary,
                                 _end_sites(src.n_sites, d, chi, src.boundary))
        else:
            held = sweep = ensembles.total_dim(src)
            pair = 1
        pairs = spec.r * (spec.r - 1) // 2 if planned.pairwise else 0
        units += (spec.r + pairs) * sweep
        mem = 16 * spec.r * held
        if planned.pairwise:
            mem += 16 * spec.r * ends
            mem += 4 * 16 * pair * min(spec.r, ensembles._tile_side(pair))**2
        mem_bytes = max(mem_bytes, mem)
    mem_bytes += _TABLE_ROW_BYTES * planned.table_rows
    return (f"estimate: ~{units:.2e} contraction units "
            f"(~{units / _NOMINAL_UNITS_PER_S:.2g} s nominal), "
            f"~{mem_bytes / 2**20:.2f} MB peak arrays")


# -- output writing ----------------------------------------------------------


def _json_cell(v):
    if isinstance(v, (float, np.floating)):
        return float(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    return str(v)


def write_table(table: Table, out_dir: Path, fmt: str) -> Path:
    """Write table as <name>.<fmt>, each cell made a Python int, float or
    str once; a CSV cell is its str, for a float the round-trip repr."""
    rows = [[_json_cell(v) for v in row] for row in table.rows]
    if fmt == "csv":
        lines = [",".join(table.columns)] + [",".join(map(str, row)) for row in rows]
    else:
        lines = [json.dumps(dict(zip(table.columns, row)), sort_keys=True) for row in rows]
    path = out_dir / f"{table.name}.{fmt}"
    path.write_text("\n".join(lines) + "\n")
    return path


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(cfg: RunConfig) -> list[Path]:
    """Execute a run and write tables plus the manifest.

    The run is planned first, so a bad parameter or a cap fails before
    any sample is drawn.  The manifest is written even if planning or
    execution raises; the exception is re-raised afterwards for
    exit-code mapping.
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
        tables = plan(cfg).execute()
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

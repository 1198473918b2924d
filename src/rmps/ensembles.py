"""Ensemble statistics over random states.

Samples are drawn from either of two sources: sequentially generated
random matrix product states, or Haar-random pure states on the full
chain Hilbert space (the large-dimension reference the tensor ensemble
is compared against).  Sample i of an ensemble is always derived from
subseed(master_seed, i), so results are independent of batching or
evaluation order and any subset of samples can be reproduced in
isolation.

Estimators report a value, an uncertainty and, where the statistic is a
plain per-sample average, the per-sample values.  Uncertainties are
sample-stddev / sqrt(r) for per-sample averages, leave-one-out
jackknife for statistics that are nonlinear functions of the whole
sample (state-average distances, the pairwise purity estimator), and
the fourth-moment delta formula for reported standard deviations.

Every sample is drawn by `_draw_stack`, a range of samples at once: a
stack of matrix product states (mps._sample_stack) or a CueSource's rows
of normalized amplitudes; `draw_mps` and `draw_dense` are its chunks of
one.  Every per-sample estimator is one `_per_sample` call, which draws
the samples in index order in chunks of a fixed size rule, reduces each
chunk by source in one expression and writes the results by sample
index into one array: amplitudes (`_dense_states`), leading-block
spectra, each solved once (`_block_spectra`), Q from one-site states,
both closed by mps._block_states, or expectation values
(`concentration`).  The pairwise purity draws all r samples at once.
A report of per-sample values is built once, and frozen, by one of two
builders: `_mean_report` (the mean, or its distance from an exact
reference) and `_spread_report` (the sample standard deviation).  A source checks its chain through
mps._check_chain and its CUE site dimensions through
dense._validated_dims; `_split_length` owns the leading-block split.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Callable, Mapping, Sequence

import numpy as np

from . import dense
from .dense import DenseState, DensityMatrix
from .errors import DimensionError
from .haar import Seed, as_seed, generator, haar_state, rekey, subseed, subseed_keys
from .mps import LocalObservable, Mps, _block_states, _check_chain, _expectations, \
    _pair_block, _pair_elements, _sample_stack, _Stack


@dataclass(frozen=True)
class RmpsSource:
    """Random matrix product state ensemble parameters."""

    n_sites: int
    phys_dim: int = 2
    bond_dim: int = 2
    homogeneous: bool = False
    boundary: str = "obc"

    def __post_init__(self) -> None:
        _check_chain(self.n_sites, self.phys_dim, self.bond_dim, self.boundary)


@dataclass(frozen=True)
class CueSource:
    """Haar-random pure states on a chain of the given site dimensions."""

    site_dims: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "site_dims", dense._validated_dims(self.site_dims))


Source = RmpsSource | CueSource


def source_dims(source: Source) -> tuple[int, ...]:
    if isinstance(source, RmpsSource):
        return (source.phys_dim,) * source.n_sites
    return source.site_dims


def total_dim(source: Source) -> int:
    """The product of the site dimensions as one power per distinct
    dimension: O(N), where a running product is quadratic in N."""
    if isinstance(source, RmpsSource):
        return source.phys_dim ** source.n_sites
    return math.prod(d ** count for d, count in Counter(source.site_dims).items())


@dataclass(frozen=True)
class EnsembleSpec:
    """An ensemble: a source, a sample count and a master seed."""

    source: Source
    r: int
    master_seed: Seed

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ValueError(f"sample count must be positive, got {self.r}")
        object.__setattr__(self, "master_seed", as_seed(self.master_seed))


@dataclass(frozen=True)
class EnsembleReport:
    """Result of one ensemble estimator."""

    spec: EnsembleSpec
    estimator: str
    value: float
    stderr: float
    per_sample: np.ndarray | None = None


@dataclass(frozen=True)
class Histogram:
    """Fixed-range histogram with its bin edges and total count."""

    bin_edges: np.ndarray
    counts: np.ndarray
    total: int

    def __post_init__(self) -> None:
        edges = np.asarray(self.bin_edges, dtype=float)
        counts = np.asarray(self.counts, dtype=np.int64)
        if edges.ndim != 1 or counts.ndim != 1 or edges.size != counts.size + 1:
            raise DimensionError("histogram needs len(bin_edges) == len(counts) + 1")
        if int(counts.sum()) != self.total:
            raise ValueError(f"histogram counts sum to {counts.sum()}, expected {self.total}")
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "counts", counts)


# -- sampling ---------------------------------------------------------------


def _draw_stack(spec: EnsembleSpec, part: slice, amplitudes: bool = False) -> _Stack | np.ndarray:
    """Samples ``part`` of an ensemble, sample i from subseed(master_seed, i),
    the part's seeds one subseed_keys array: a stack of matrix product
    states, or with ``amplitudes`` (always for a CueSource) the rows of
    their normalized amplitudes."""
    if not 0 <= part.start < part.stop <= spec.r:
        raise ValueError(f"samples [{part.start}, {part.stop}) outside [0, {spec.r})")
    src = spec.source
    seeds = subseed_keys([spec.master_seed], range(part.start, part.stop))[0]
    if isinstance(src, CueSource):
        d, rng = total_dim(src), generator(0)
        dense.check_amplitude_cap(d)
        return np.stack([haar_state(d, rekey(rng, seed)) for seed in seeds])
    stack = _sample_stack(src.n_sites, src.phys_dim, src.bond_dim, seeds,
                          src.homogeneous, src.boundary)
    return dense._normalized_rows(stack.amplitudes()) if amplitudes else stack


def draw_mps(spec: EnsembleSpec, index: int) -> Mps:
    """Sample ``index`` of a matrix product state ensemble: its stack of one."""
    if not isinstance(spec.source, RmpsSource):
        raise TypeError("draw_mps needs a matrix product state source")
    return _draw_stack(spec, slice(index, index + 1)).state(spec.source.homogeneous)


def draw_dense(spec: EnsembleSpec, index: int) -> DenseState:
    """Sample ``index`` as a normalized dense state (either source): its chunk of one."""
    return DenseState(source_dims(spec.source), _draw_stack(spec, slice(index, index + 1), True)[0])


# -- uncertainty helpers ----------------------------------------------------


def _mean_report(spec, name, values, reference=None) -> EnsembleReport:
    """The mean of the per-sample values, or its distance from
    ``reference`` when one is given, with the stderr of the mean."""
    se = float(values.std(ddof=1) / math.sqrt(values.size)) if values.size > 1 else 0.0
    mean = float(values.mean())
    return EnsembleReport(spec, name, mean if reference is None else abs(mean - reference),
                          se, values)


def _spread_report(spec, name, values) -> EnsembleReport:
    """The sample standard deviation of the per-sample values, with its
    delta-method stderr."""
    return EnsembleReport(spec, name, float(values.std(ddof=1)), _stddev_se(values), values)


def _jackknife_se(values: np.ndarray) -> float:
    r = values.size
    return float(math.sqrt((r - 1) / r * np.sum((values - values.mean()) ** 2)))


def _stddev_se(values: np.ndarray) -> float:
    """Delta-method standard error of the sample standard deviation."""
    r = values.size
    s = float(values.std(ddof=1))
    if s == 0.0:
        return 0.0
    centered = values - values.mean()
    m2 = float(np.mean(centered**2))
    m4 = float(np.mean(centered**4))
    var_s2 = max(m4 - m2 * m2, 0.0) / r
    return math.sqrt(var_s2) / (2.0 * s)


# -- estimators -------------------------------------------------------------


def _dense_states(spec: EnsembleSpec) -> np.ndarray:
    """The r samples' normalized amplitudes as an r x d array, d within the density cap."""
    dense.check_density_cap(total_dim(spec.source))
    return _per_sample(spec, lambda rows: rows, amplitudes=True)


def empirical_average_state(spec: EnsembleSpec) -> DensityMatrix:
    """Mean projector (1/r) sum_i |psi_i><psi_i| over the ensemble."""
    states = _dense_states(spec)
    avg = states.T @ states.conj() / spec.r
    return DensityMatrix(source_dims(spec.source), (avg + avg.conj().T) / 2.0)


def average_state_convergence(spec: EnsembleSpec) -> np.ndarray:
    """Trace distances to I/d of the average state of the first k samples,
    k = 1 .. r: sum_i |lambda_i - 1/d|, as I/d commutes with the average."""
    states = _dense_states(spec)
    d = states.shape[1]
    acc = np.zeros((d, d), dtype=np.complex128)
    dists = np.empty(spec.r)
    for k, psi in enumerate(states, 1):
        acc += np.outer(psi, psi.conj())
        dists[k - 1] = np.abs(np.linalg.eigvalsh(acc) / k - 1.0 / d).sum()
    return dists


NORMS = ("trace", "hs")  # average_state_distance's norms: trace (no 1/2), Hilbert-Schmidt


def average_state_distance(spec: EnsembleSpec, norm: str = "trace") -> EnsembleReport:
    """Distance of the empirical average state from maximal mixedness.

    One eigensolve of avg gives the value, the norm of its eigenvalues less
    1/d (I/d commutes with avg), and the leave-one-out jackknife over the r
    states.  Leaving sample i out gives B - psi_i psi_i^dag / (r - 1), with
    B = r/(r - 1) avg - I/d, whose eigenvalues lam and eigenvectors V come
    from that solve.  In that basis, with the phases of V^dag psi_i
    absorbed into it, the leave-one-out difference is
    the real symmetric diag(lam) - a a^T / (r - 1), a = |V^dag psi_i|,
    which has the same spectrum and so the same trace and HS norms.  The
    squared HS norm is closed, sum lam^2 - 2 sum lam a^2 / (r - 1) + |a|^4 / (r - 1)^2,
    and its trace norm is one contour integral (dense._trace_norm_kernel)
    whose nodes are built once from lam and 1 / (r - 1), so no sample costs
    an eigensolve.  Each sample's a, and its sums against those nodes, are
    its own 1 x d products, batched in chunks of _CHUNK_SAMPLES, so no
    value depends on that size.
    """
    if norm not in NORMS:
        raise ValueError(f"norm must be 'trace' or 'hs', got {norm!r}")
    r, d = spec.r, total_dim(spec.source)
    states = _dense_states(spec)
    lam, v = np.linalg.eigh(states.T @ states.conj() / r)
    x = lam - 1.0 / d
    value = np.abs(x).sum() if norm == "trace" else np.sqrt(x @ x)
    se = 0.0
    if r > 1:
        lam, rho, v = r / (r - 1) * lam - 1.0 / d, 1.0 / (r - 1), v.conj()
        if norm == "trace":
            norms = dense._trace_norm_kernel(lam, rho)
        else:
            def norms(a):
                a *= a
                return np.sqrt(lam @ lam - 2.0 * rho * (a * lam).sum(axis=1)
                               + (rho * a.sum(axis=1)) ** 2)
        size = min(r, _CHUNK_SAMPLES)
        loo, buf = np.empty(r), np.empty((size, 1, d), dtype=np.complex128)
        for start in range(0, r, size):
            part = slice(start, min(r, start + size))
            loo[part] = norms(np.abs(np.matmul(states[part, np.newaxis], v,
                                               out=buf[:part.stop - start])[:, 0]))
        se = _jackknife_se(loo)
    return EnsembleReport(spec, f"average_state_distance[{norm}]", float(value), se)


# Samples per chunk of every estimator's loop, fixed so that no table
# depends on it: at most _CHUNK_SAMPLES, and at most as many as keep
# each batched array of the chunk within _CHUNK_ELEMENTS (256 KiB).  On
# q-sweep (1 BLAS thread, tracemalloc) chunks of 1, 4 and 16 samples peak
# at 0.37, 0.64 and 2.5 MiB, and 16 take about 10% less q_statistics time
# than 4.
_CHUNK_SAMPLES = 16
_CHUNK_ELEMENTS = 2**14


def _per_sample(spec: EnsembleSpec, reduce: Callable, amplitudes: bool = False,
                d_a: int = 1) -> np.ndarray:
    """reduce(chunk) of each _draw_stack chunk, drawn in index order and
    written by index into one (r, ...) array typed by the first result.
    A sample counts its d amplitudes (CueSource) or its sweep arrays,
    with ``amplitudes`` the D^N chi (D^N chi^2 on rings) of their build, and
    the d_a^2 entries of the block state a block estimator builds from it."""
    src, per_sample = spec.source, total_dim(spec.source)
    if isinstance(src, RmpsSource):
        chi = src.bond_dim
        per_sample = max(src.n_sites * _pair_elements(src.phys_dim, chi, src.boundary),
                         per_sample * chi ** (1 + (src.boundary == "pbc")) if amplitudes else 0)
    size = max(1, min(_CHUNK_SAMPLES, _CHUNK_ELEMENTS // max(per_sample, d_a**2)))
    out = None
    for start in range(0, spec.r, size):
        part = slice(start, min(spec.r, start + size))
        values = reduce(_draw_stack(spec, part, amplitudes))
        if out is None:
            out = np.empty((spec.r, *values.shape[1:]), values.dtype)
        out[part] = values
    return out


def _block_spectra(spec: EnsembleSpec, length: int) -> np.ndarray:
    """The r x d_A ascending spectra of the samples' reduced states on
    the first ``length`` sites: the eigenvalues that validated each."""
    dims = source_dims(spec.source)
    d_a = math.prod(dims[:length])
    dense.check_density_cap(d_a)
    return _per_sample(spec, lambda chunk: dense._validated_spectra(
        _block_states(chunk, [0], length)[:, 0] if isinstance(chunk, _Stack)
        else dense._pure_reductions(dense._normalized_rows(chunk), dims, range(length))), d_a=d_a)


def subsystem_distance_stats(spec: EnsembleSpec, length: int) -> EnsembleReport:
    """Mean trace distance from I/d of the reduced states of the first
    ``length`` sites: sum_i |lambda_i - 1/d| each, as I/d commutes with them."""
    dims = source_dims(spec.source)
    if not 1 <= length <= len(dims):
        raise DimensionError(f"block length {length} outside [1, {len(dims)}]")
    spectra = _block_spectra(spec, length)
    dists = np.abs(spectra - 1.0 / spectra.shape[1]).sum(axis=1)
    return _mean_report(spec, "subsystem_distance[trace,exact]", dists)


def purity_of_average_via_overlaps(spec: EnsembleSpec) -> EnsembleReport:
    """Cross term of Tr[(average state)^2] from pairwise overlaps.

    The purity of the empirical average splits exactly into
    1/r + (1/r^2) sum_{i != j} |<psi_i|psi_j>|^2 / (n_i n_j); the
    report value is the second (cross) term, and adding 1/r recovers
    the full purity.  The cross term is what carries the scaling with
    the Hilbert space dimension once r is large enough.

    Never materializes dense states for tensor ensembles, and never the
    r x r overlap matrix: the upper triangle is swept in square tiles of
    _tile_side samples a side, each one Gram block G[i, j] =
    <psi_i|psi_j> of its rows against its columns.  For tensor states
    that is _Stack.gram: a sweep over the middle of the chain between
    the pair products of its two ends, each end multiplied out once for
    all tiles.  For dense ones it is one mps._pair_block product, the
    chain with no middle and a single end of all d amplitudes.  The row
    tiles run last to first, each from its diagonal tile, so the norms
    n_i come from the diagonals before the tiles right of them read
    them.  The uncertainty is a leave-one-state-out jackknife.
    """
    r = spec.r
    states = _draw_stack(spec, slice(0, r))
    if isinstance(states, _Stack):
        gram, pair_elements = states.gram, states.pair_elements
    else:
        gram, pair_elements = partial(_pair_block, states), 1
    side = _tile_side(pair_elements)
    norms, row_sums = np.empty(r), np.zeros(r)
    for start in reversed(range(0, r, side)):
        rows = slice(start, start + side)
        for col in range(start, r, side):
            cols = slice(col, col + side)
            g = gram(rows, cols)
            if col == start:
                norms[rows] = g.diagonal().real
            # pairs i < j only: strictly upper on the diagonal tile, all right of it
            w = np.triu(np.abs(g) ** 2 / np.outer(norms[rows], norms[cols]), start - col + 1)
            row_sums[rows] += w.sum(axis=1)
            row_sums[cols] += w.sum(axis=0)
    cross = float(row_sums.sum()) / r**2
    if r > 2:
        loo = (row_sums.sum() - 2.0 * row_sums) / (r - 1) ** 2
        se = _jackknife_se(loo)
    else:
        se = 0.0
    return EnsembleReport(spec, "purity_of_average_cross_term", cross, se)


# Element budget of one Gram tile's largest array, 512 KiB of complex
# numbers; it bounds the estimator's extra memory whatever r is.  Tile
# sides 45, 64 and 90 on open chi = 2 chains for 2^14, 2^15 and 2^16 (1
# BLAS thread, 2-vCPU Xeon with 4 MiB of L2, cli.run at three checkout
# paths): on pair-overlaps 2^15 took 0.37-0.51 s, 42.8-43.0 MiB and 1.6k
# minor faults, 2^14 0.42-0.65 s, 2^16 0.61-0.69 s, 44.5-44.9 MiB and 172k
# faults; on a ring (n=10, chi=2, r=400) 2^15 took 0.21-0.28 s with 63k
# faults, 2^16 0.21-0.24 s, and 2^14 0.14-0.16 s at two paths but
# 0.22-0.24 s with 61k faults at the third.
_GRAM_BLOCK_ELEMENTS = 2**15


def _tile_side(pair_elements: int) -> int:
    """Samples a side of the square Gram tiles: the most whose side^2 *
    pair_elements fits _GRAM_BLOCK_ELEMENTS, and at least one."""
    return max(1, math.isqrt(_GRAM_BLOCK_ELEMENTS // pair_elements))


def purity_relative_error(spec: EnsembleSpec, report: EnsembleReport) -> float:
    """Relative deviation of the cross term from the maximally mixed purity.

    ((cross term) - 1/dim) * dim for the report produced by
    purity_of_average_via_overlaps.  Zero means that this realization's
    average state has purity exactly 1/r + 1/dim, but zero is not the
    ensemble mean when E[rho] = I/dim: each of the r(r - 1) cross pairs
    then has E|<psi_i|psi_j>|^2 = 1/dim, so E[cross term] =
    (r - 1)/(r dim) and the error's mean is exactly -1/r.
    """
    d = total_dim(spec.source)
    return (report.value - 1.0 / d) * d


def q_statistics(spec: EnsembleSpec, bins: int = 100
                 ) -> tuple[Histogram, EnsembleReport, EnsembleReport]:
    """Distribution of the average-purity entanglement measure Q.

    Per sample, Q = 2 - (2/N) sum_k Tr(rho_k^2) over the one-site
    reduced states; sites must be qubits.  Returns the histogram of the
    r values on [0, 1], the mean report, and the standard deviation
    report (its stderr from the fourth-moment delta formula).
    """
    dims = source_dims(spec.source)
    if any(d != 2 for d in dims):
        raise DimensionError(f"Q is defined for qubit chains, got site dims {dims}")
    if spec.r < 2:
        raise ValueError("Q statistics need at least two samples")
    if bins < 1:
        raise ValueError(f"bin count must be positive, got {bins}")
    dense.check_bin_cap(bins)
    qs = _per_sample(spec, lambda chunk: dense.global_entanglement_from_sites(
        _block_states(chunk, range(len(dims)), 1) if isinstance(chunk, _Stack)
        else dense._pure_site_states(chunk, dims)))
    # Q lies in [0, 1] exactly; clip the ~1e-16 roundoff excursions once,
    # so every sample lands in a bin and no statistic leaves [0, 1].
    np.clip(qs, 0.0, 1.0, out=qs)
    counts, edges = np.histogram(qs, bins=bins, range=(0.0, 1.0))
    hist = Histogram(edges, counts, int(counts.sum()))
    return hist, _mean_report(spec, "q_mean", qs), _spread_report(spec, "q_stddev", qs)


def _split_length(dims: tuple[int, ...], d_a: int) -> int:
    """Number of leading sites whose dimensions multiply to d_a."""
    if d_a < 1:
        raise DimensionError(f"d_a must be positive, got {d_a}")
    prod = 1
    for k, d in enumerate(dims):
        prod *= d
        if prod == d_a:
            return k + 1
        if prod > d_a:
            break
    raise DimensionError(f"d_a = {d_a} is not a leading-block dimension of {dims}")


def moment_comparison(spec: EnsembleSpec, d_a: int, m: int) -> EnsembleReport:
    """Deviation of the mean subsystem moment Tr(rho_A^m) from the
    exact Haar value for the same bipartition.

    rho_A is the leading block of dimension d_a.  The report value is
    |ensemble mean - exact|; the per-sample moments are attached, so
    the raw mean is recoverable.
    """
    return moment_comparisons(spec, d_a, [m])[0]


def moment_comparisons(spec: EnsembleSpec, d_a: int,
                       ms: Sequence[int]) -> list[EnsembleReport]:
    """moment_comparison for each order in ``ms``, from one pass over
    the samples.

    An empty ``ms``, or an order without an exact Haar value (any m
    outside {2, 3, 4}, m < 1 included), raises ValueError before any
    sample is drawn.  Each sample is then drawn and reduced once, and
    the spectrum its validation computed serves every order:
    Tr(rho_A^m) is the sum of the m-th powers of those eigenvalues,
    bitwise what dense.purity_moment gives.
    """
    dims = source_dims(spec.source)
    length = _split_length(dims, d_a)
    d_b = total_dim(spec.source) // d_a
    ms = [int(m) for m in ms]
    if not ms:
        raise ValueError("moment_comparisons needs at least one moment order")
    exact = [dense.cue_purity_moment(m, d_a, d_b) for m in ms]
    spectra = _block_spectra(spec, length)
    return [_mean_report(spec, f"moment_deviation[m={m},d_a={d_a}]",
                         np.sum(spectra**m, axis=1), ref)
            for m, ref in zip(ms, exact)]


def min_eig_comparison(spec: EnsembleSpec, d_a: int,
                       exact: float | None = None) -> EnsembleReport:
    """Deviation of the mean smallest subsystem eigenvalue from the
    exact Haar value for the same bipartition (dense.cue_min_eigenvalue
    at d_a and d_b = total dimension / d_a).

    Same conventions as moment_comparison.  A caller that compares
    several ensembles on one split passes that value as ``exact``;
    otherwise it is computed before any sample is drawn, so a split
    beyond the exact reference's cap raises CapExceededError at once.
    """
    dims = source_dims(spec.source)
    length = _split_length(dims, d_a)
    if exact is None:
        exact = dense.cue_min_eigenvalue(d_a, total_dim(spec.source) // d_a)
    vals = dense.clamp_roundoff(_block_spectra(spec, length)[:, 0])
    return _mean_report(spec, f"min_eig_deviation[d_a={d_a}]", vals, exact)


def concentration(spec: EnsembleSpec, observable: LocalObservable) -> EnsembleReport:
    """Sample standard deviation of <observable> over a matrix product
    state ensemble, with a delta-method stderr and the per-sample values
    attached."""
    src = spec.source
    if not isinstance(src, RmpsSource):
        raise TypeError("concentration needs a matrix product state source")
    observable.check_fits(src.n_sites, src.phys_dim)
    if spec.r < 2:
        raise ValueError("a standard deviation needs at least two samples")
    vals = _per_sample(spec, partial(_expectations, obs=observable))
    return _spread_report(spec, f"concentration[n={src.n_sites},chi={src.bond_dim}]", vals)


def concentration_scan(observable: LocalObservable,
                       chi_rule: Callable[[int], int] | Mapping[int, int],
                       n_values: Sequence[int], r: int, seed: Seed | int
                       ) -> list[EnsembleReport]:
    """Spread of a local expectation value across chain lengths.

    For each n in ``n_values`` an ensemble of r states with bond
    dimension chi_rule(n) is drawn (master seed subseed(seed, n)) and
    its concentration report is computed.
    """
    rule = chi_rule if callable(chi_rule) else chi_rule.__getitem__
    return [concentration(EnsembleSpec(RmpsSource(n, observable.phys_dim, int(rule(n))),
                                       r, subseed(seed, n)), observable)
            for n in n_values]

"""Tests for the ensemble statistics layer."""

import dataclasses
import math

import numpy as np
import pytest

from rmps import dense, ensembles, mps
from rmps.dense import cue_min_eigenvalue, purity_moment, trace_distance
from rmps.ensembles import (
    CueSource,
    EnsembleReport,
    EnsembleSpec,
    Histogram,
    RmpsSource,
    average_state_distance,
    concentration_scan,
    draw_dense,
    draw_mps,
    empirical_average_state,
    min_eig_comparison,
    moment_comparison,
    moment_comparisons,
    purity_of_average_via_overlaps,
    purity_relative_error,
    q_statistics,
    source_dims,
    subsystem_distance_stats,
    total_dim,
)
from rmps.errors import CapExceededError, DimensionError
from rmps.haar import Seed, as_seed, subseed
from rmps.mps import LocalObservable, overlap, sample_rmps

SZ = np.array([[1.0, 0.0], [0.0, -1.0]])


def test_source_validation():
    with pytest.raises(DimensionError):
        RmpsSource(0, 2, 2)
    with pytest.raises(ValueError):
        RmpsSource(3, 2, 2, boundary="open")
    with pytest.raises(DimensionError):
        CueSource(())
    with pytest.raises(DimensionError):
        CueSource((2, 0))
    with pytest.raises(ValueError):
        EnsembleSpec(RmpsSource(3), 0, Seed(0))


def test_source_dims_and_total_dim():
    assert source_dims(RmpsSource(3, 2, 4)) == (2, 2, 2)
    assert source_dims(CueSource((2, 3))) == (2, 3)
    assert total_dim(RmpsSource(4)) == 16
    assert total_dim(CueSource((2, 3))) == 6


@pytest.mark.parametrize("source", [
    RmpsSource(1, 3, 2), RmpsSource(7, 2, 2), CueSource((5,)), CueSource((2, 3, 2, 4, 3, 2)),
    CueSource((1, 7, 1, 2, 7))], ids=str)
def test_total_dim_is_the_product_of_the_site_dimensions(source):
    assert total_dim(source) == math.prod(source_dims(source))


def test_total_dim_of_a_long_chain_is_exact():
    """A 200,000-site chain's dimension is formed as powers, one per
    distinct site dimension, and is exact."""
    n = 200_000
    assert total_dim(RmpsSource(n, 2, 2)) == 2**n
    assert total_dim(CueSource((2, 3) * (n // 2))) == 6 ** (n // 2)


def test_spec_coerces_integer_seed():
    spec = EnsembleSpec(RmpsSource(3), 5, 17)
    assert spec.master_seed == Seed(17)


def test_draw_indexing_matches_direct_sampling():
    """Sample i is a pure function of (master seed, i) for both sources."""
    spec = EnsembleSpec(RmpsSource(4, 2, 3, boundary="pbc"), 10, Seed(5))
    m = draw_mps(spec, 7)
    direct = sample_rmps(4, 2, 3, subseed(5, 7), boundary="pbc")
    for k in range(4):
        assert np.array_equal(m.tensors[k], direct.tensors[k])
    cue = EnsembleSpec(CueSource((2, 2)), 10, Seed(5))
    s = draw_dense(cue, 3)
    assert np.array_equal(s.amplitudes,
                          dense.haar_dense_state((2, 2), subseed(5, 3)).amplitudes)
    with pytest.raises(ValueError):
        draw_mps(spec, 10)
    with pytest.raises(ValueError):
        draw_dense(cue, -1)
    with pytest.raises(TypeError):
        draw_mps(cue, 0)


def test_draw_dense_normalizes_mps_samples():
    spec = EnsembleSpec(RmpsSource(4, 2, 2), 4, Seed(9))
    assert np.isclose(draw_dense(spec, 0).norm(), 1.0)


def test_merge_invariance_of_sample_order():
    """Evaluating sample indices in any order or split gives identical values."""
    spec = EnsembleSpec(RmpsSource(4, 2, 2), 24, Seed(31))
    obs = LocalObservable((SZ,), 0)
    sequential = np.array([draw_mps(spec, i).expectation(obs) for i in range(24)])
    shuffled = np.empty(24)
    order = np.random.default_rng(0).permutation(24)
    for i in order:  # a second "worker schedule"
        shuffled[i] = draw_mps(spec, int(i)).expectation(obs)
    assert np.array_equal(sequential, shuffled)


def test_empirical_average_state_single_sample_is_projector():
    spec = EnsembleSpec(CueSource((2, 2)), 1, Seed(3))
    rho = empirical_average_state(spec)
    assert np.isclose(purity_moment(rho, 2), 1.0)
    assert np.isclose(np.trace(rho.matrix).real, 1.0)


def test_empirical_average_state_converges_like_sqrt_r():
    """Trace distance to I/8 shrinks roughly as 1/sqrt(r) from r=100 to 500."""
    tgt = np.eye(8) / 8
    dists = {}
    for r in (100, 500):
        spec = EnsembleSpec(CueSource((2, 2, 2)), r, Seed(1))
        dists[r] = trace_distance(empirical_average_state(spec).matrix, tgt)
    assert dists[500] < dists[100]
    ratio = dists[100] / dists[500]  # ideal sqrt(5) ~ 2.24
    assert 1.4 < ratio < 3.6


def test_average_state_distance_single_pure_state():
    """One projector against I/d: its eigenvalues 1, 0, ..., 0 give trace
    distance 2(1 - 1/d) and HS distance sqrt(1 - 1/d), with no error bar."""
    spec = EnsembleSpec(CueSource((2, 2, 2)), 1, Seed(7))
    for norm, want in [("trace", 2 * (1 - 1 / 8)), ("hs", math.sqrt(1 - 1 / 8))]:
        rep = average_state_distance(spec, norm)
        assert abs(rep.value - want) < 1e-10
        assert rep.stderr == 0.0


def test_average_state_distance_chi_independent():
    """Two-site chains at bond dimensions 2 and 4 land on the same distance
    within mutual 3 sigma at r=500."""
    reps = {}
    for chi in (2, 4):
        spec = EnsembleSpec(RmpsSource(2, 2, chi), 500, Seed(1))
        reps[chi] = average_state_distance(spec)
    gap = abs(reps[2].value - reps[4].value)
    assert gap <= 3 * np.hypot(reps[2].stderr, reps[4].stderr)


def test_average_state_distance_r_scaling():
    """Quadrupling r roughly halves the distance (30% tolerance)."""
    d = {}
    for r in (200, 800):
        spec = EnsembleSpec(CueSource((2, 2)), r, Seed(1))
        d[r] = average_state_distance(spec).value
    assert 0.35 <= d[800] / d[200] <= 0.65


def test_average_state_distance_norms():
    spec = EnsembleSpec(CueSource((2, 2)), 50, Seed(2))
    assert average_state_distance(spec, "hs").value <= \
        average_state_distance(spec, "trace").value + 1e-12
    with pytest.raises(ValueError):
        average_state_distance(spec, "operator")


def _loop_average_state_distance(spec, norm):
    """The jackknife as a loop of full eigensolves: every leave-one-out
    average state against I/d through the dense distance functions."""
    metric = {"trace": dense.trace_distance, "hs": dense.hs_distance}[norm]
    r, d = spec.r, total_dim(spec.source)
    states = np.array([draw_dense(spec, i).amplitudes for i in range(r)])
    avg = states.T @ states.conj() / r
    target = np.eye(d, dtype=np.complex128) / d
    loo = [metric((r * avg - np.outer(psi, psi.conj())) / (r - 1), target) for psi in states]
    return metric(avg, target), ensembles._jackknife_se(np.array(loo))


@pytest.mark.parametrize("norm", ["trace", "hs"])
@pytest.mark.parametrize("n,r", [(4, 40), (7, 50), (4, 2)])
@pytest.mark.parametrize("kind", ["obc", "pbc", "cue"])
def test_average_state_jackknife_matches_full_eigensolves(kind, n, r, norm):
    """The value read from the average state's spectrum, and the stderr
    from the leave-one-out spectra solved in its eigenbasis, give the
    loop's within 1e-12 relative, for r > d, r < d and r = 2.  At r = 2
    each leave-one-out average is one pure state, all at the same
    distance, so the exact stderr is 0 and both sides are roundoff."""
    source = CueSource((2,) * n) if kind == "cue" else RmpsSource(n, 2, 3, boundary=kind)
    spec = EnsembleSpec(source, r, Seed(41))
    rep = average_state_distance(spec, norm)
    value, se = _loop_average_state_distance(spec, norm)
    assert abs(rep.value - value) <= 1e-12 * value
    if r == 2:
        assert rep.stderr < 1e-14 and se < 1e-14
    else:
        assert abs(rep.stderr - se) <= 1e-12 * se


@pytest.mark.parametrize("source", [RmpsSource(5, 2, 2), CueSource((2,) * 5)],
                         ids=["rmps", "cue"])
def test_average_state_jackknife_solves_no_eigenproblem(monkeypatch, source):
    """The value and, at r > d, the r leave-one-out norms all come from one
    eigh of the average state, in either norm and at r = 1: the jackknife
    adds no eigensolve, and no eigvalsh and no dense distance runs."""
    calls = []

    def count(owner, name):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a: calls.append(name) or real(*a))
    for owner, name in [(np.linalg, "eigh"), (np.linalg, "eigvalsh"),
                        (dense, "trace_distance"), (dense, "hs_distance")]:
        count(owner, name)
    for r in [80, 1]:
        for norm in ["trace", "hs"]:
            calls.clear()
            average_state_distance(EnsembleSpec(source, r, Seed(47)), norm)
            assert calls == ["eigh"], (r, norm)


@pytest.mark.parametrize("norm", ["trace", "hs"])
@pytest.mark.parametrize("source,r", [(RmpsSource(5, 2, 3), 60), (CueSource((2,) * 5), 20)],
                         ids=["rmps-r>d", "cue-r<d"])
def test_average_state_jackknife_is_independent_of_the_chunk_size(monkeypatch, source, r,
                                                                  norm):
    """The stderr is bitwise the same when the jackknife takes one
    sample per chunk as at its default."""
    spec = EnsembleSpec(source, r, Seed(43))
    default = average_state_distance(spec, norm)
    monkeypatch.setattr(ensembles, "_CHUNK_SAMPLES", 1)
    assert average_state_distance(spec, norm).stderr == default.stderr


@pytest.mark.parametrize("norm", ["trace", "hs"])
@pytest.mark.parametrize("boundary", ["obc", "pbc"])
@pytest.mark.parametrize("r", [40, 12])
def test_homogeneous_jackknife_matches_full_eigensolves(boundary, r, norm):
    """Homogeneous chains, whose states span a subspace, deflate the
    jackknife's null weights, and at r < d so does every ensemble; the
    stderr still matches the loop of full eigensolves within 1e-12.  On
    rings at r = 40 every leave-one-out distance is the same, so the exact
    stderr is 0 and both sides are roundoff."""
    spec = EnsembleSpec(RmpsSource(5, 2, 2, homogeneous=True, boundary=boundary), r, Seed(53))
    value, se = _loop_average_state_distance(spec, norm)
    rep = average_state_distance(spec, norm)
    if se < 1e-14:
        assert rep.stderr < 1e-14
    else:
        assert abs(rep.stderr - se) <= 1e-12 * se


def test_exact_subsystem_distance_reuses_the_validation_spectrum(monkeypatch):
    """Against I/d each block state is eigensolved once, by its
    validation, and the distances are those of dense.trace_distance."""
    spec = EnsembleSpec(RmpsSource(6, 2, 4), 50, Seed(17))
    want = [trace_distance(draw_mps(spec, i).reduced_density_matrix(0, 2), np.eye(4) / 4)
            for i in range(spec.r)]
    solved = []  # matrices solved: a stacked call solves each of its len(a)
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a: solved.append(len(a) if a.ndim == 3 else 1) or real(a))
    rep = subsystem_distance_stats(spec, 2)
    assert sum(solved) == spec.r
    assert np.allclose(rep.per_sample, want, rtol=0.0, atol=1e-12)


def test_subsystem_distance_of_pure_samples():
    """Bond dimension 1 gives product states: every one-site reduction is
    pure, at trace distance exactly 1 from the maximally mixed state."""
    spec = EnsembleSpec(RmpsSource(4, 2, 1), 50, Seed(11))
    rep = subsystem_distance_stats(spec, 1)
    assert abs(rep.value - 1.0) < 1e-10
    assert rep.per_sample.min() >= 0.0
    assert rep.per_sample.max() <= 2.0


def test_subsystem_distance_references_and_errors():
    spec = EnsembleSpec(RmpsSource(4, 2, 2), 30, Seed(13))
    with pytest.raises(DimensionError):
        subsystem_distance_stats(spec, 5)


def test_average_state_convergence_prefixes_nest():
    """Entry k - 1 of the running distances is the distance to I/d of
    the average state of the first k samples, an ensemble of size k on
    the same seed."""
    for source in (RmpsSource(3, 2, 2), CueSource((2, 2, 2))):
        spec = EnsembleSpec(source, 6, Seed(8))
        dists = ensembles.average_state_convergence(spec)
        assert dists.shape == (spec.r,)
        for k in range(1, spec.r + 1):
            avg = empirical_average_state(EnsembleSpec(source, k, Seed(8)))
            assert abs(dists[k - 1] - trace_distance(avg, np.eye(8) / 8)) < 1e-12


def test_subsystem_distance_saturates_with_bath():
    """At fixed bond dimension the one-site distance stops changing as the
    chain grows: monotone non-increase within 2 sigma across three sizes."""
    rows = []
    for idx, n in enumerate((9, 17, 33)):
        spec = EnsembleSpec(RmpsSource(n, 2, 8), 400, subseed(6, idx))
        rep = subsystem_distance_stats(spec, 1)
        rows.append(rep)
    for a, b in zip(rows, rows[1:]):
        assert b.value <= a.value + 2 * np.hypot(a.stderr, b.stderr)


def test_purity_estimator_matches_dense_average_state():
    """Cross term + 1/r equals Tr[(average state)^2] computed densely, for
    every source type on the same seeds."""
    sources = [
        RmpsSource(5, 2, 3),
        RmpsSource(5, 2, 3, homogeneous=True),
        RmpsSource(4, 2, 2, boundary="pbc"),
        CueSource((2, 2, 2, 2)),
        RmpsSource(4, 2, 2, homogeneous=True, boundary="pbc"),
    ]
    for idx, src in enumerate(sources):
        spec = EnsembleSpec(src, 30, subseed(21, idx))
        rep = purity_of_average_via_overlaps(spec)
        rho = empirical_average_state(spec).matrix
        want = np.einsum("ij,ji->", rho, rho).real
        assert abs((rep.value + 1 / 30) - want) < 1e-8


def test_purity_estimator_batched_block_matches_pairwise_overlaps():
    """The one-against-many overlap block equals the sum over pairs of
    single mps.overlap calls, on open chains and rings."""
    sources = [
        RmpsSource(5, 2, 3),
        RmpsSource(4, 2, 2, boundary="pbc"),
        RmpsSource(4, 2, 3, homogeneous=True, boundary="pbc"),
    ]
    r = 12
    for idx, src in enumerate(sources):
        spec = EnsembleSpec(src, r, subseed(23, idx))
        states = [draw_mps(spec, i) for i in range(r)]
        norms = [m.norm_squared() for m in states]
        want = sum(2 * abs(overlap(states[i], states[j])) ** 2 / (norms[i] * norms[j])
                   for i in range(r) for j in range(i + 1, r)) / r**2
        assert abs(purity_of_average_via_overlaps(spec).value - want) < 1e-12


def _pairwise_purity_reference(spec):
    """Cross term and jackknife stderr from one overlap call per pair."""
    r = spec.r
    if isinstance(spec.source, CueSource):
        states = [draw_dense(spec, i).amplitudes for i in range(r)]

        def weight(i, j):
            return abs(np.vdot(states[i], states[j])) ** 2
    else:
        states = [draw_mps(spec, i) for i in range(r)]
        norms = [m.norm_squared() for m in states]

        def weight(i, j):
            return abs(overlap(states[i], states[j])) ** 2 / (norms[i] * norms[j])
    w = np.zeros((r, r))
    for i in range(r):
        for j in range(i + 1, r):
            w[i, j] = w[j, i] = weight(i, j)
    row_sums = w.sum(axis=1)
    if r <= 2:
        return row_sums.sum() / r**2, 0.0
    loo = (row_sums.sum() - 2 * row_sums) / (r - 1) ** 2
    return row_sums.sum() / r**2, np.sqrt((r - 1) / r * np.sum((loo - loo.mean()) ** 2))


# (source, elements per pair of its Gram step: D chi^2, times chi^2 on rings)
# with odd and even site counts, and middles between the multiplied-out
# chain ends (mps._end_sites) of 0, 1, 3 and 4 sites, as the layout of the
# middle sweep alternates
GRAM_SOURCES = [
    (RmpsSource(5, 2, 3), 18),
    (RmpsSource(4, 2, 2), 8),
    (RmpsSource(5, 2, 2, boundary="pbc"), 32),
    (RmpsSource(4, 2, 3, homogeneous=True, boundary="pbc"), 162),
    (CueSource((2, 2, 2, 2)), 1),
    (RmpsSource(13, 2, 2), 8),
    (RmpsSource(9, 2, 2, boundary="pbc"), 32),
]


@pytest.mark.parametrize("blocking", ["rows of one", "one block", "uneven blocks"])
@pytest.mark.parametrize("idx", range(len(GRAM_SOURCES)))
def test_purity_estimator_gram_blocks_match_pairwise_reference(monkeypatch, idx, blocking):
    """Whatever the Gram tile budget (tiles of one sample a side, one tile
    of all r, or tiles of 7 that leave a 5-sample edge), the cross term
    and its stderr equal the sum over pairs of single overlaps, to 1e-12
    relative."""
    src, pair_elements = GRAM_SOURCES[idx]
    r = 12
    budget = {"rows of one": 1, "one block": 2**40,
              "uneven blocks": 5 * r * pair_elements}[blocking]
    monkeypatch.setattr(ensembles, "_GRAM_BLOCK_ELEMENTS", budget)
    seen = []
    tile_side = ensembles._tile_side

    def spy(per_pair):
        seen.append((per_pair, tile_side(per_pair)))
        return seen[-1][1]

    monkeypatch.setattr(ensembles, "_tile_side", spy)
    spec = EnsembleSpec(src, r, subseed(29, idx))
    rep = purity_of_average_via_overlaps(spec)
    assert len(seen) == 1 and seen[0][0] == pair_elements
    side = seen[0][1]
    assert {"rows of one": side == 1, "one block": side >= r,
            "uneven blocks": side == 7}[blocking]
    cross, se = _pairwise_purity_reference(spec)
    assert rep.value == pytest.approx(cross, rel=1e-12, abs=0)
    assert rep.stderr == pytest.approx(se, rel=1e-12, abs=0)


@pytest.mark.parametrize("src", [RmpsSource(5, 2, 3, boundary="pbc"), RmpsSource(9, 2, 2),
                                 CueSource((2, 2, 2, 2))], ids=["ring", "open", "cue"])
def test_gram_tiles_stay_within_budget_at_any_r(monkeypatch, src):
    """Every Gram call holds rows * cols * pair_elements within the budget,
    also where r * pair_elements is many times the budget."""
    pair_elements = mps._pair_elements(src.phys_dim, src.bond_dim, src.boundary) \
        if isinstance(src, RmpsSource) else 1
    budget, r = 10 * pair_elements, 40
    monkeypatch.setattr(ensembles, "_GRAM_BLOCK_ELEMENTS", budget)
    calls = []
    gram, pair_block = mps._Stack.gram, ensembles._pair_block

    def gram_spy(self, rows, cols):
        calls.append((rows, cols))
        return gram(self, rows, cols)

    def pair_block_spy(v, rows, cols):
        calls.append((rows, cols))
        return pair_block(v, rows, cols)

    monkeypatch.setattr(mps._Stack, "gram", gram_spy)
    monkeypatch.setattr(ensembles, "_pair_block", pair_block_spy)
    purity_of_average_via_overlaps(EnsembleSpec(src, r, subseed(41, 0)))
    sizes = [len(range(r)[rows]) * len(range(r)[cols]) for rows, cols in calls]
    assert max(sizes) * pair_elements <= budget
    # each pair i < j, and each norm i = j, lies in exactly one tile
    covered = np.zeros((r, r), dtype=int)
    for rows, cols in calls:
        covered[rows, cols] += 1
    assert (np.triu(covered) == np.triu(np.ones((r, r), dtype=int))).all()


def test_gram_sources_reach_empty_odd_and_even_middles():
    """The estimator-level Gram tests above sweep middles of every parity."""
    middles = {src.n_sites - sum(mps._end_sites(src.n_sites, src.phys_dim, src.bond_dim,
                                                src.boundary))
               for src, _ in GRAM_SOURCES if isinstance(src, RmpsSource)}
    assert 0 in middles and any(k % 2 for k in middles) and any(k and k % 2 == 0 for k in middles)


def test_purity_estimator_builds_each_chain_end_once(monkeypatch):
    """With Gram tiles of one sample a side, one estimate still multiplies
    out each chain end's partial states exactly once, not once per tile."""
    src, r = RmpsSource(13, 2, 2), 12
    monkeypatch.setattr(ensembles, "_GRAM_BLOCK_ELEMENTS", 1)
    assert ensembles._tile_side(8) == 1
    built = []
    end_states = mps._end_states

    def spy(edge, tensors):
        built.append(len(tensors))
        return end_states(edge, tensors)

    monkeypatch.setattr(mps, "_end_states", spy)
    rep = purity_of_average_via_overlaps(EnsembleSpec(src, r, subseed(37, 0)))
    assert built == list(mps._end_sites(13, 2, 2, "obc")) == [5, 4]
    assert rep.value > 0


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("idx", range(len(GRAM_SOURCES)))
def test_purity_estimator_one_and_two_samples(idx, r):
    """One sample has no pair; two have one pair.  Neither has a
    jackknife stderr."""
    spec = EnsembleSpec(GRAM_SOURCES[idx][0], r, subseed(31, idx))
    rep = purity_of_average_via_overlaps(spec)
    cross, _ = _pairwise_purity_reference(spec)
    assert rep.value == pytest.approx(cross, rel=1e-12, abs=0)
    assert rep.stderr == 0.0


def test_purity_estimator_degenerate_ensembles(monkeypatch):
    """Orthogonal samples leave only the 1/r term; identical samples give
    purity exactly 1."""
    spec = EnsembleSpec(CueSource((2,)), 2, Seed(0))
    basis = np.eye(2, dtype=np.complex128)
    monkeypatch.setattr(ensembles, "_draw_stack", lambda s, part: basis[part])
    rep = purity_of_average_via_overlaps(spec)
    assert abs(rep.value) < 1e-14  # cross term vanishes: purity = 1/2
    monkeypatch.setattr(ensembles, "_draw_stack", lambda s, part: basis[[0, 0]][part])
    rep = purity_of_average_via_overlaps(spec)
    assert abs(rep.value + 1 / 2 - 1.0) < 1e-14


def test_purity_tracks_maximally_mixed_at_n20():
    """Cross term within 30% of 1/2^20 for 20 sites at bond dimension 2."""
    spec = EnsembleSpec(RmpsSource(20, 2, 2), 500, Seed(1))
    rep = purity_of_average_via_overlaps(spec)
    rel = purity_relative_error(spec, rep)
    assert abs(rel) <= 0.3


def test_purity_relative_error_at_n30():
    spec = EnsembleSpec(RmpsSource(30, 2, 4), 500, Seed(1))
    rep = purity_of_average_via_overlaps(spec)
    assert abs(purity_relative_error(spec, rep)) <= 0.5


def test_purity_relative_error_algebra():
    spec = EnsembleSpec(RmpsSource(2, 2, 2), 10, Seed(0))
    mk = lambda v: EnsembleReport(spec, "x", v, 0.0)
    assert abs(purity_relative_error(spec, mk(1 / 4))) < 1e-12
    assert abs(purity_relative_error(spec, mk(1.1 / 4)) - 0.1) < 1e-12


def test_q_statistics_product_states():
    """Bond dimension 1 chains are product states: Q identically zero."""
    spec = EnsembleSpec(RmpsSource(5, 2, 1), 40, Seed(19))
    hist, mean_rep, std_rep = q_statistics(spec)
    assert np.abs(mean_rep.per_sample).max() < 1e-10
    # roundoff is clipped before any statistic, so none reads below zero
    assert mean_rep.value >= 0.0
    assert mean_rep.per_sample.min() >= 0.0
    assert hist.total == 40
    assert std_rep.value < 1e-10


def test_q_statistics_haar_reference():
    """Full Haar samples on three qubits match the exact mean at 3 sigma."""
    spec = EnsembleSpec(CueSource((2, 2, 2)), 400, Seed(4))
    hist, mean_rep, std_rep = q_statistics(spec)
    exact = dense.cue_global_entanglement(3)
    assert abs(mean_rep.value - exact) <= 3 * mean_rep.stderr
    assert hist.total == 400
    assert mean_rep.per_sample.min() >= -1e-10
    assert mean_rep.per_sample.max() <= 1 + 1e-10
    assert std_rep.stderr > 0.0


def test_q_statistics_large_chi_tracks_haar_mean():
    """Bond dimension 64 on four sites: the ensemble mean of Q sits within
    0.02 of the Haar value (the residual gap stays finite)."""
    spec = EnsembleSpec(RmpsSource(4, 2, 64), 10**4, Seed(14))
    _, mean_rep, _ = q_statistics(spec)
    assert abs(mean_rep.value - 14 / 17) <= 0.02


def test_q_statistics_validation():
    with pytest.raises(DimensionError):
        q_statistics(EnsembleSpec(CueSource((2, 3)), 10, Seed(0)))
    with pytest.raises(ValueError):
        q_statistics(EnsembleSpec(RmpsSource(3), 1, Seed(0)))
    hist, _, _ = q_statistics(EnsembleSpec(RmpsSource(3), 20, Seed(0)), bins=10)
    assert hist.counts.size == 10


def test_q_statistics_rejects_bin_count_before_drawing(monkeypatch):
    spec = EnsembleSpec(RmpsSource(4, 2, 2), 7, Seed(3))
    calls = counting_draws(monkeypatch)
    with pytest.raises(ValueError):
        q_statistics(spec, bins=0)
    assert calls == []


def test_q_statistics_caps_bin_count_before_drawing(monkeypatch):
    """A histogram of more than HISTOGRAM_BIN_CAP bins is refused before
    the first draw; one of exactly the cap is drawn."""
    spec = EnsembleSpec(RmpsSource(4, 2, 2), 7, Seed(3))
    calls = counting_draws(monkeypatch)
    with pytest.raises(CapExceededError):
        q_statistics(spec, bins=dense.HISTOGRAM_BIN_CAP + 1)
    assert calls == []
    hist, _, _ = q_statistics(spec, bins=dense.HISTOGRAM_BIN_CAP)
    assert hist.counts.size == dense.HISTOGRAM_BIN_CAP and calls == list(range(7))


def test_moment_comparison_product_states():
    """Bond dimension 1: subsystem moments are exactly 1, so the deviation
    is 1 minus the exact Haar moment."""
    spec = EnsembleSpec(RmpsSource(6, 2, 1), 40, Seed(23))
    rep = moment_comparison(spec, 4, 2)
    assert abs(rep.value - (1 - 20 / 65)) < 1e-10
    assert rep.stderr < 1e-12


def test_moment_comparison_cue_consistency():
    """Haar samples on six qubits reproduce the exact two-norm moment of a
    4x16 split within 3 sigma at r=2000."""
    spec = EnsembleSpec(CueSource((2,) * 6), 2000, Seed(40))
    rep = moment_comparison(spec, 4, 2)
    assert rep.value <= 3 * rep.stderr


def test_moment_deviation_decreases_with_chi():
    """m=2 deviation shrinks from chi=2 through 8 to 32 at N=6."""
    rows = []
    for idx, chi in enumerate((2, 8, 32)):
        spec = EnsembleSpec(RmpsSource(6, 2, chi), 500, subseed(1, idx))
        rows.append(moment_comparison(spec, 4, 2))
    for a, b in zip(rows, rows[1:]):
        assert b.value <= a.value + 2 * np.hypot(a.stderr, b.stderr)


def test_moment_comparison_errors():
    spec = EnsembleSpec(RmpsSource(4, 2, 2), 5, Seed(0))
    with pytest.raises(DimensionError):
        moment_comparison(spec, 3, 2)  # 3 is not a leading-block dimension
    with pytest.raises(ValueError):
        moment_comparison(spec, 4, 7)


def test_moment_comparisons_match_per_order_reports():
    """One pass over the samples gives bitwise the per-order reports."""
    for source in (RmpsSource(4, 2, 3), CueSource((2,) * 4)):
        spec = EnsembleSpec(source, 30, Seed(12))
        reps = moment_comparisons(spec, 4, [2, 3, 4])
        assert len(reps) == 3
        for m, rep in zip((2, 3, 4), reps):
            want = moment_comparison(spec, 4, m)
            assert rep.estimator == want.estimator
            assert rep.value == want.value
            assert rep.stderr == want.stderr
            assert np.array_equal(rep.per_sample, want.per_sample)


def counting_draws(monkeypatch):
    """Route every draw through a wrapper of the one draw function,
    ensembles._draw_stack; returns the list of sample indices drawn, in
    draw order."""
    calls = []
    draw = ensembles._draw_stack

    def counting_draw(spec, part, *amplitudes):
        calls.extend(range(part.start, part.stop))
        return draw(spec, part, *amplitudes)

    monkeypatch.setattr(ensembles, "_draw_stack", counting_draw)
    return calls


# (estimator, whether it draws) of every estimator, and of the argument
# errors it raises before its first draw; the last two need an RMPS source
DRAW_CASES = [
    pytest.param(lambda spec: subsystem_distance_stats(spec, 2), True, id="subsystem_distance"),
    pytest.param(lambda spec: moment_comparisons(spec, 4, [2, 3, 4]), True, id="moments"),
    pytest.param(lambda spec: min_eig_comparison(spec, 4), True, id="min_eig"),
    pytest.param(ensembles.average_state_convergence, True, id="average_state_convergence"),
    pytest.param(empirical_average_state, True, id="empirical_average_state"),
    pytest.param(q_statistics, True, id="q_statistics"),
    pytest.param(purity_of_average_via_overlaps, True, id="purity_of_average"),
    pytest.param(average_state_distance, True, id="average_state_distance"),
    pytest.param(lambda spec: moment_comparisons(spec, 4, []), False, id="no_orders"),
    pytest.param(lambda spec: moment_comparisons(spec, 4, [2, 0]), False, id="order_0"),
    pytest.param(lambda spec: ensembles.concentration(spec, LocalObservable((SZ,), 1)), True,
                 id="concentration"),
    pytest.param(lambda spec: ensembles.concentration(spec, LocalObservable((np.eye(3),), 0)),
                 False, id="observable_dim"),
]


@pytest.mark.parametrize("estimator, draws", DRAW_CASES)
def test_estimators_draw_each_sample_at_most_once(monkeypatch, estimator, draws):
    """Each estimator draws samples 0 .. r-1 once each, in index order,
    and one with an invalid argument raises before its first draw."""
    check_draws_each_sample_once(monkeypatch, EnsembleSpec(RmpsSource(4, 2, 2), 7, Seed(3)),
                                 estimator, draws)


@pytest.mark.parametrize("estimator, draws", DRAW_CASES[:-2])
def test_estimators_draw_each_cue_sample_at_most_once(monkeypatch, estimator, draws):
    """The same on a CueSource, for every estimator that accepts one."""
    check_draws_each_sample_once(monkeypatch, EnsembleSpec(CueSource((2,) * 4), 7, Seed(3)),
                                 estimator, draws)


def check_draws_each_sample_once(monkeypatch, spec, estimator, draws):
    calls = counting_draws(monkeypatch)
    if draws:
        estimator(spec)
        assert calls == list(range(spec.r))
    else:
        with pytest.raises(ValueError):
            estimator(spec)
        assert calls == []


@pytest.mark.parametrize("source", [RmpsSource(12, 2, 2), CueSource((2,) * 12)],
                         ids=["rmps", "cue"])
@pytest.mark.parametrize("estimator", [
    lambda spec: subsystem_distance_stats(spec, 11),
    lambda spec: moment_comparisons(spec, 2**11, [2]),
    lambda spec: min_eig_comparison(spec, 2**11, 0.0),
], ids=["subsystem_distance", "moments", "min_eig"])
def test_block_estimators_check_the_cap_before_drawing(monkeypatch, source, estimator):
    """A leading block beyond the density-matrix cap raises
    CapExceededError before the first sample is drawn."""
    calls = []
    monkeypatch.setattr(ensembles, "_draw_stack", lambda *a: calls.append(a))
    with pytest.raises(CapExceededError):
        estimator(EnsembleSpec(source, 3, Seed(0)))
    assert calls == []


@pytest.mark.parametrize("d_a", [0, -2])
@pytest.mark.parametrize("estimator", [
    lambda spec, d_a: moment_comparisons(spec, d_a, [2]),
    lambda spec, d_a: min_eig_comparison(spec, d_a),
], ids=["moments", "min_eig"])
def test_block_split_rejects_nonpositive_d_a(monkeypatch, estimator, d_a):
    """A leading block of dimension below 1 is named as such before the
    first draw."""
    calls = []
    monkeypatch.setattr(ensembles, "_draw_stack", lambda *a: calls.append(a))
    with pytest.raises(DimensionError, match="d_a must be positive"):
        estimator(EnsembleSpec(RmpsSource(4, 2, 2), 3, Seed(0)), d_a)
    assert calls == []


def test_reports_are_frozen():
    """An estimator builds its report once; no field can be edited after."""
    rep = moment_comparison(EnsembleSpec(RmpsSource(4, 2, 2), 5, Seed(0)), 4, 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.value = 0.0


def test_reduced_state_spectra_are_solved_once(monkeypatch):
    """The moment and smallest-eigenvalue estimators reuse the spectrum
    that validated each reduced state: r eigensolves per ensemble, not
    2r, and per-sample values bitwise those of solving each state again."""
    real = np.linalg.eigvalsh
    for source in (RmpsSource(4, 2, 2), CueSource((2, 2, 2, 2))):
        spec = EnsembleSpec(source, 7, Seed(3))
        solved = []  # matrices solved: a stacked call solves each of its len(a)
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigvalsh",
                          lambda a: solved.append(len(a) if a.ndim == 3 else 1) or real(a))
            moments = moment_comparisons(spec, 4, [2, 3])
            assert sum(solved) == spec.r
            min_eig = min_eig_comparison(spec, 4)
            assert sum(solved) == 2 * spec.r
        rhos = [draw_mps(spec, i).reduced_density_matrix(0, 2).matrix
                if isinstance(source, RmpsSource)
                else dense.partial_trace(draw_dense(spec, i), range(2)).matrix
                for i in range(spec.r)]
        for m, rep in zip([2, 3], moments):
            assert np.array_equal(rep.per_sample, [purity_moment(rho, m) for rho in rhos])
        assert np.array_equal(min_eig.per_sample,
                              [dense.min_eigenvalue(rho) for rho in rhos])


def test_min_eig_comparison_product_states():
    """Bond dimension 1: reduced states are pure, the smallest eigenvalue is
    0 and the deviation equals the full reference of the 4-by-16 split."""
    spec = EnsembleSpec(RmpsSource(6, 2, 1), 40, Seed(29))
    rep = min_eig_comparison(spec, 4)
    assert abs(rep.per_sample).max() < 1e-10
    assert abs(rep.value - cue_min_eigenvalue(4, 16)) < 1e-10


def test_min_eig_reference_exact_on_square_splits():
    """The 1/d_a^3 constant is exact when both factors have equal dimension:
    checked at 5 sigma for 2x2 and 4x4 splits."""
    for dims, d_a, exact in (((2, 2), 2, 1 / 8), ((2, 2, 2, 2), 4, 1 / 64)):
        spec = EnsembleSpec(CueSource(dims), 3000, Seed(8))
        rep = min_eig_comparison(spec, d_a)
        assert abs(rep.per_sample.mean() - exact) <= 5 * rep.stderr


def test_min_eig_reference_exact_on_unbalanced_split():
    """The exact reference also holds off the square case: a 2-dimensional
    block of 4 qubits against 9949/32768 at 5 sigma."""
    spec = EnsembleSpec(CueSource((2, 2, 2, 2)), 3000, Seed(8))
    rep = min_eig_comparison(spec, 2)
    assert abs(rep.per_sample.mean() - 9949 / 32768) <= 5 * rep.stderr


def test_concentration_identity_observable():
    """A constant observable has zero spread at every size."""
    obs = LocalObservable((np.eye(2),), 0)
    reports = concentration_scan(obs, lambda n: 2, [3, 5], 30, Seed(0))
    for rep in reports:
        assert rep.value < 1e-12


def test_concentration_needs_two_samples():
    """A standard deviation of one sample is undefined: ValueError, not NaN."""
    spec = EnsembleSpec(RmpsSource(4, 2, 2), 1, Seed(0))
    with pytest.raises(ValueError):
        ensembles.concentration(spec, LocalObservable((SZ,), 0))


def test_concentration_needs_a_matrix_product_state_source():
    spec = EnsembleSpec(CueSource((2, 2, 2)), 5, Seed(0))
    with pytest.raises(TypeError):
        ensembles.concentration(spec, LocalObservable((SZ,), 0))


def test_concentration_scan_structure():
    """Chi rules accept callables and mappings; reports carry per-sample
    values that reproduce the summary statistics."""
    obs = LocalObservable((SZ,), 0)
    by_map = concentration_scan(obs, {4: 4, 6: 6}, [4, 6], 100, Seed(60))
    by_rule = concentration_scan(obs, lambda n: n, [4, 6], 100, Seed(60))
    for a, b in zip(by_map, by_rule):
        assert np.array_equal(a.per_sample, b.per_sample)
        assert a.spec.source.bond_dim == a.spec.source.n_sites
        assert np.isclose(a.value, a.per_sample.std(ddof=1))
    with pytest.raises(DimensionError):
        concentration_scan(LocalObservable((SZ,), 3), lambda n: 2, [3], 5, Seed(0))


def test_concentration_plateau_is_recorded_not_asserted():
    """At fixed bond dimension the spread levels off as the chain grows; the
    gap between the two largest sizes is reported for inspection only."""
    obs = LocalObservable((SZ,), 0)
    reports = concentration_scan(obs, lambda n: 4, [16, 32], 200, Seed(77))
    gap = abs(reports[0].value - reports[1].value)
    slack = 2 * np.hypot(reports[0].stderr, reports[1].stderr)
    print(f"fixed-chi plateau: |delta stddev| = {gap:.4f}, 2 sigma = {slack:.4f}")


def test_histogram_validation():
    Histogram(np.array([0.0, 0.5, 1.0]), np.array([3, 4]), 7)
    with pytest.raises(DimensionError):
        Histogram(np.array([0.0, 1.0]), np.array([1, 2]), 3)
    with pytest.raises(ValueError):
        Histogram(np.array([0.0, 0.5, 1.0]), np.array([3, 4]), 8)


def test_report_invariants():
    """Reports expose finite values, nonnegative uncertainties, and mean
    reports are exactly reproducible from their per-sample values."""
    spec = EnsembleSpec(RmpsSource(4, 2, 2), 60, Seed(37))
    rep = subsystem_distance_stats(spec, 1)
    assert np.isfinite(rep.value) and rep.stderr >= 0.0
    assert np.isclose(rep.value, rep.per_sample.mean())
    assert np.isclose(rep.stderr, rep.per_sample.std(ddof=1) / np.sqrt(60))


def test_chunks_draw_in_index_order_within_their_budget(monkeypatch):
    """_per_sample draws samples 0 .. r-1 in order: _CHUNK_SAMPLES at a
    time on a small open chain, fewer at chi = 16, and one at a time on a
    ring whose one sample already fills the element budget.  An amplitude
    chunk also counts the D^N chi (D^N chi^2 on rings) numbers of its
    build, and a CUE chunk its d amplitudes per sample.  A block
    estimator's chunk also counts the d_A^2 entries of each block state,
    one sample at a time at d_A = 256.  Each chunk's values land at its
    own sample indices."""
    parts, draw = [], ensembles._draw_stack
    monkeypatch.setattr(ensembles, "_draw_stack",
                        lambda spec, part, *a: parts.append(part) or draw(spec, part, *a))

    def chunk_numbers(chunk):  # every sample of chunk k reads k
        size = len(chunk) if isinstance(chunk, np.ndarray) else len(chunk.tensors[0])
        return np.full(size, len(parts))

    for source, amplitudes, d_a, want in (
            (RmpsSource(4, 2, 2), False, 1, [16, 4]), (RmpsSource(8, 2, 16), False, 1, [4, 4, 1]),
            (RmpsSource(4, 2, 8, boundary="pbc"), False, 1, [1, 1]),
            (RmpsSource(10, 2, 4), False, 1, [16, 1]), (RmpsSource(10, 2, 4), True, 1, [4, 4, 1]),
            (RmpsSource(9, 2, 2, boundary="pbc"), True, 1, [8, 1]),
            (CueSource((2,) * 4), False, 1, [16, 16, 2]), (CueSource((2,) * 12), True, 1, [4, 1]),
            (CueSource((2,) * 15), False, 1, [1, 1]),
            (RmpsSource(8, 2, 2), False, 8, [16, 1]), (RmpsSource(8, 2, 2), False, 64, [4, 1]),
            (RmpsSource(8, 2, 2), False, 256, [1, 1]), (CueSource((2,) * 8), False, 256, [1, 1])):
        spec = EnsembleSpec(source, sum(want), Seed(0))
        parts.clear()
        out = ensembles._per_sample(spec, chunk_numbers, amplitudes, d_a)
        assert [part.stop - part.start for part in parts] == want, (source, amplitudes, d_a)
        assert [i for part in parts for i in range(part.start, part.stop)] == \
            list(range(spec.r))
        assert out.tolist() == [k for k, size in enumerate(want, 1) for _ in range(size)]
    parts.clear()
    subsystem_distance_stats(EnsembleSpec(RmpsSource(8, 2, 2), 2, Seed(0)), 8)
    assert parts == [slice(0, 1), slice(1, 2)]

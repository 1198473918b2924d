"""Tests for the matrix product state engine."""

import tracemalloc
from collections import Counter

import numpy as np
import pytest

from rmps import haar, mps
from rmps.dense import DensityMatrix
from rmps.errors import CapExceededError, DimensionError
from rmps.haar import Seed, haar_state, haar_unitary, subseed
from rmps.mps import (
    LocalObservable,
    Mps,
    a_matrices_from_unitary,
    load_mps,
    overlap,
    sample_rmps,
    save_mps,
    transfer_identity,
    transfer_observable,
)

SZ = np.array([[1.0, 0.0], [0.0, -1.0]])


def random_hermitian(d, rng):
    h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return h + h.conj().T


def test_local_observable_validation():
    obs = LocalObservable((SZ, np.eye(2)), 1)
    assert obs.phys_dim == 2
    assert obs.n_sites == 2
    with pytest.raises(ValueError):  # not Hermitian
        LocalObservable((np.array([[0.0, 1.0], [0.0, 0.0]]),), 0)
    with pytest.raises(DimensionError):  # mixed dimensions
        LocalObservable((SZ, np.eye(3)), 0)
    with pytest.raises(DimensionError):
        LocalObservable((), 0)
    with pytest.raises(DimensionError):
        LocalObservable((SZ,), -1)


def test_a_matrices_identity_unitary():
    """U = identity picks out A^0 = identity and A^1 = 0."""
    a = a_matrices_from_unitary(np.eye(4), 2, 2)
    assert a.shape == (2, 2, 2)
    assert np.array_equal(a[0], np.eye(2))
    assert np.array_equal(a[1], np.zeros((2, 2)))


def test_a_matrices_isometry():
    """Any unitary cut gives sum_i A^i{}^dag A^i = identity to 1e-14."""
    for i in range(10):
        a = a_matrices_from_unitary(haar_unitary(6, subseed(1, i)), 2, 3)
        s = np.einsum("iab,iac->bc", a.conj(), a)
        assert np.abs(s - np.eye(3)).max() < 1e-14


def test_a_matrices_errors():
    with pytest.raises(DimensionError):
        a_matrices_from_unitary(np.eye(4), 2, 3)
    with pytest.raises(ValueError):
        a_matrices_from_unitary(np.eye(4) * 2, 2, 2)
    with pytest.raises(DimensionError):
        a_matrices_from_unitary(np.eye(4), 0, 4)


def test_a_matrices_reject_nan_unitary():
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="not unitary"):
        a_matrices_from_unitary(np.full((4, 4), np.nan), 2, 2)


def test_mps_constructor_validation():
    a = a_matrices_from_unitary(haar_unitary(4, 0), 2, 2)
    e0 = np.array([1.0, 0.0])
    with pytest.raises(DimensionError):
        Mps([], "obc", e0, e0)
    with pytest.raises(DimensionError):
        Mps([np.zeros((2, 2))], "obc", e0, e0)
    with pytest.raises(DimensionError):
        Mps([np.zeros((2, 2, 3))], "obc", e0, e0)
    with pytest.raises(DimensionError):  # inconsistent site shapes
        Mps([a, np.zeros((2, 3, 3))], "obc", e0, e0)
    with pytest.raises(ValueError):
        Mps([a], "obc", None, e0)
    with pytest.raises(ValueError):  # boundary vectors must be unit norm
        Mps([a], "obc", 2.0 * e0, e0)
    with pytest.raises(DimensionError):
        Mps([a], "obc", np.array([1.0, 0, 0]), e0)
    with pytest.raises(ValueError):  # rings take no boundary vectors
        Mps([a], "pbc", e0, e0)
    with pytest.raises(ValueError):
        Mps([a], "ring")
    with pytest.raises(ValueError):  # homogeneous must alias one tensor set
        Mps([a, a.copy()], "obc", e0, e0, homogeneous=True)


def test_sample_rmps_deterministic_and_seeded_per_site():
    m = sample_rmps(4, 2, 3, 11)
    m2 = sample_rmps(4, 2, 3, 11)
    for k in range(4):
        assert np.array_equal(m.tensors[k], m2.tensors[k])
        want = a_matrices_from_unitary(haar_unitary(6, subseed(11, k)), 2, 3)
        assert np.array_equal(m.tensors[k], want)
    assert np.array_equal(m.right_vec, haar_state(3, subseed(11, 4)))
    assert np.array_equal(m.left_vec, np.array([1.0, 0, 0]))
    assert not np.array_equal(m.tensors[0], m.tensors[1])


@pytest.mark.parametrize("phys_dim", [1, 2, 3])
@pytest.mark.parametrize("bond_dim", [1, 2, 3, 4, 8, 16])
def test_sample_rmps_matches_full_unitary_path(phys_dim, bond_dim):
    """The thin sampler is bitwise the cut of the full Haar unitary of
    every site, on open chains, rings and homogeneous chains."""
    n = 4
    for seed, homogeneous, boundary in ((5, False, "obc"), (6, False, "pbc"),
                                         (7, True, "obc"), (8, True, "pbc")):
        m = sample_rmps(n, phys_dim, bond_dim, seed, homogeneous=homogeneous,
                        boundary=boundary)
        for k in range(n):
            site = 0 if homogeneous else k
            want = a_matrices_from_unitary(
                haar_unitary(phys_dim * bond_dim, subseed(seed, site)), phys_dim, bond_dim)
            assert np.array_equal(m.tensors[k], want)


def test_sample_rmps_rejects_non_isometric_draw(monkeypatch):
    """A singular Ginibre draw has no phase fix; the isometry check of
    the thin factor rejects its NaN columns."""
    monkeypatch.setattr(mps, "normals", lambda out, seed: out.fill(0.0))
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="not isometric"):
        sample_rmps(3, 2, 2, 0)


def test_sample_rmps_builds_one_philox_per_call(monkeypatch):
    """One bit generator per sample, re-keyed before each draw, on open,
    ring and homogeneous chains."""
    built = []
    philox = np.random.Philox

    def counting(*args, **kwargs):
        built.append(1)
        return philox(*args, **kwargs)
    monkeypatch.setattr(np.random, "Philox", counting)
    for homogeneous, boundary in ((False, "obc"), (False, "pbc"), (True, "obc"),
                                  (True, "pbc")):
        built.clear()
        sample_rmps(6, 2, 3, 17, homogeneous=homogeneous, boundary=boundary)
        assert len(built) == 1, (homogeneous, boundary)


@pytest.mark.parametrize("boundary, homogeneous", [("obc", False), ("pbc", False),
                                                   ("obc", True), ("pbc", True)],
                         ids=["obc", "pbc", "homogeneous-obc", "homogeneous-pbc"])
def test_sampler_derives_every_key_of_a_stack_at_once(monkeypatch, boundary, homogeneous):
    """_sample_stack calls subseed 0 times and re-keys its generator once
    per draw: samples x (sets + 1 on open chains), sets being 1 on a
    homogeneous chain and the site count otherwise."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper
    monkeypatch.setattr(haar, "subseed", counted("subseed", haar.subseed))
    monkeypatch.setattr(mps, "subseed", counted("subseed", haar.subseed), raising=False)
    monkeypatch.setattr(mps, "rekey", counted("rekey", mps.rekey))
    mps._sample_stack(5, 2, 3, [Seed(4), 5, 2**64 - 1], homogeneous, boundary)
    sets = 1 if homogeneous else 5
    assert calls == Counter({"rekey": 3 * (sets + (boundary == "obc"))})


def test_sample_rmps_homogeneous_aliases_one_tensor():
    m = sample_rmps(5, 2, 2, 3, homogeneous=True)
    assert m.homogeneous
    assert all(t is m.tensors[0] for t in m.tensors)
    want = a_matrices_from_unitary(haar_unitary(4, subseed(3, 0)), 2, 2)
    assert np.array_equal(m.tensors[0], want)


def test_sample_rmps_pbc():
    m = sample_rmps(4, 2, 3, 7, boundary="pbc")
    assert m.boundary == "pbc"
    assert m.left_vec is None and m.right_vec is None
    assert m.norm_squared() > 0.0


def test_sample_rmps_rejects_an_unknown_boundary():
    """Only the names in BOUNDARIES close a chain; any other is not a ring."""
    with pytest.raises(ValueError, match="boundary must be"):
        sample_rmps(3, 2, 2, 0, boundary="open")


def test_sampled_states_are_isometric():
    for i in range(8):
        m = sample_rmps(3 + i % 4, 2, 1 + i % 5, subseed(9, i),
                        homogeneous=(i % 3 == 0), boundary="obc" if i % 2 else "pbc")
        assert m.max_isometry_defect() < 1e-12


def test_isometry_defect_detects_bad_tensors():
    rng = np.random.default_rng(0)
    bad = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
    m = Mps([bad], "pbc")
    assert m.max_isometry_defect() > 0.1
    nan = Mps([np.eye(3)[np.newaxis], np.full((1, 3, 3), np.nan)], "pbc")
    assert not nan.max_isometry_defect() <= 1e-12


def test_norm_squared_matches_self_overlap():
    for boundary in ("obc", "pbc"):
        m = sample_rmps(5, 2, 3, 13, boundary=boundary)
        n2 = m.norm_squared()
        assert n2 > 0.0
        assert np.isclose(overlap(m, m).real, n2)
        assert abs(overlap(m, m).imag) < 1e-12


def test_left_fixed_point_of_transfer_matrix():
    """vec(identity) is a left fixed point of the identity transfer matrix,
    which is the isometry property in transfer form."""
    for i in range(10):
        m = sample_rmps(3, 2, 4, subseed(23, i))
        e = transfer_identity(m, i % 3)
        v = np.eye(4).reshape(-1)
        assert np.abs(v @ e - v).max() < 1e-10


def test_transfer_observable_formula():
    """Entrywise match to sum_ij op_ij A^i (x) A^j{}^* on a random state."""
    m = sample_rmps(3, 2, 3, 31)
    op = random_hermitian(2, np.random.default_rng(5))
    a = m.tensors[1]
    want = np.einsum("ij,iab,jcd->acbd", op, a, a.conj()).reshape(9, 9)
    assert np.abs(transfer_observable(m, 1, op) - want).max() < 1e-14
    assert np.allclose(transfer_observable(m, 1, np.eye(2)), transfer_identity(m, 1))
    with pytest.raises(DimensionError):
        transfer_observable(m, 0, np.eye(3))


def test_transfer_chain_reproduces_sweeps():
    """Folding the chain of one-site transfer matrices gives the same norm
    and unnormalized expectation as the O(chi^3) sweeps.  The chain pairs
    op[i, j] with c_i conj(c_j), so the transposed operator goes in."""
    for boundary in ("obc", "pbc"):
        m = sample_rmps(4, 2, 2, 37, boundary=boundary)
        op = random_hermitian(2, np.random.default_rng(8))
        for insert in (None, 2):
            chain = np.eye(m.bond_dim**2, dtype=complex)
            for k in range(4):
                e = transfer_observable(m, k, op.T) if k == insert else transfer_identity(m, k)
                chain = chain @ e
            if boundary == "obc":
                w_left = np.outer(m.left_vec.conj(), m.left_vec).reshape(-1)
                w_right = np.outer(m.right_vec, m.right_vec.conj()).reshape(-1)
                val = (w_left @ chain @ w_right).real
            else:
                val = np.trace(chain).real
            if insert is None:
                assert np.isclose(val, m.norm_squared())
            else:
                obs = LocalObservable((op,), insert)
                assert np.isclose(val / m.norm_squared(), m.expectation(obs))


def test_expectation_of_identity_is_one():
    for boundary in ("obc", "pbc"):
        m = sample_rmps(5, 2, 3, 41, boundary=boundary)
        obs = LocalObservable((np.eye(2), np.eye(2)), 2)
        assert np.isclose(m.expectation(obs), 1.0)


def test_expectation_errors():
    m = sample_rmps(3, 2, 2, 43)
    with pytest.raises(DimensionError):
        m.expectation(LocalObservable((np.eye(3),), 0))
    with pytest.raises(DimensionError):
        m.expectation(LocalObservable((SZ, SZ), 2))


def test_reduced_density_matrix_is_valid_and_unit_trace():
    """The block reduction passes the density matrix invariants even though
    the raw sampled state is unnormalized."""
    for boundary in ("obc", "pbc"):
        m = sample_rmps(5, 2, 3, 47, boundary=boundary)
        assert not np.isclose(m.norm_squared(), 1.0)
        rho = m.reduced_density_matrix(1, 2)
        assert isinstance(rho, DensityMatrix)
        assert rho.dims == (2, 2)
        assert np.isclose(np.trace(rho.matrix).real, 1.0)


def test_reduced_density_matrix_errors():
    m = sample_rmps(4, 2, 2, 53)
    with pytest.raises(DimensionError):
        m.reduced_density_matrix(3, 2)
    with pytest.raises(DimensionError):
        m.reduced_density_matrix(0, 0)
    with pytest.raises(CapExceededError):
        sample_rmps(11, 2, 2, 53).reduced_density_matrix(0, 11)


def test_zero_norm_state_is_rejected():
    """A state with all-zero tensors has no reduced states or expectation
    values; every normalized contraction raises ValueError."""
    zeros = np.zeros((2, 2, 2), dtype=complex)
    unit = np.array([1.0, 0.0])
    for m in (Mps([zeros] * 3, "obc", unit, unit), Mps([zeros] * 3, "pbc")):
        assert m.norm_squared() == 0.0
        with pytest.raises(ValueError):
            m.expectation(LocalObservable((SZ,), 1))
        with pytest.raises(ValueError):
            m.reduced_density_matrix(0, 2)
        with pytest.raises(ValueError):
            m.site_density_matrices()


def test_site_density_matrices_match_blocks():
    """Each one-site state is bitwise the one-site block at its start, and
    exactly Hermitian: one closer builds both."""
    for boundary in ("obc", "pbc"):
        m = sample_rmps(5, 2, 3, 59, boundary=boundary)
        rhos = m.site_density_matrices()
        assert rhos.shape == (5, 2, 2)
        for k in range(5):
            assert np.isclose(np.trace(rhos[k]).real, 1.0)
            assert np.array_equal(rhos[k], rhos[k].conj().T)
            assert np.array_equal(rhos[k], m.reduced_density_matrix(k, 1).matrix)


@pytest.mark.parametrize("n_sites, phys_dim, bond_dim", [
    (1, 2, 2), (1, 3, 1), (4, 2, 1), (4, 3, 1), (3, 3, 2), (3, 1, 3), (5, 3, 4)])
def test_site_density_matrices_edge_shapes(n_sites, phys_dim, bond_dim):
    """The batched closure of every site is bitwise the one-site blocks on
    single sites, product states (chi = 1), qutrits and D = 1, on open
    chains, rings and homogeneous chains."""
    for seed, (homogeneous, boundary) in enumerate(((False, "obc"), (False, "pbc"),
                                                    (True, "obc"), (True, "pbc"))):
        m = sample_rmps(n_sites, phys_dim, bond_dim, 60 + seed, homogeneous=homogeneous,
                        boundary=boundary)
        rhos = m.site_density_matrices()
        assert rhos.shape == (n_sites, phys_dim, phys_dim)
        for k in range(n_sites):
            assert np.array_equal(rhos[k], m.reduced_density_matrix(k, 1).matrix)


def test_to_dense_cap():
    m = sample_rmps(21, 2, 2, 61)
    with pytest.raises(CapExceededError):
        m.to_dense()


def test_overlap_conjugate_symmetry_and_errors():
    for boundary in ("obc", "pbc"):
        a = sample_rmps(4, 2, 2, 67, boundary=boundary)
        b = sample_rmps(4, 2, 2, 71, boundary=boundary)
        assert np.isclose(overlap(a, b), np.conj(overlap(b, a)))
    a = sample_rmps(4, 2, 2, 67)
    with pytest.raises(DimensionError):
        overlap(a, sample_rmps(5, 2, 2, 71))
    with pytest.raises(DimensionError):
        overlap(a, sample_rmps(4, 2, 2, 71, boundary="pbc"))


def test_save_load_round_trip(tmp_path):
    cases = [
        sample_rmps(4, 2, 3, 73),
        sample_rmps(4, 2, 3, 79, homogeneous=True),
        sample_rmps(3, 2, 2, 83, boundary="pbc"),
    ]
    for idx, m in enumerate(cases):
        path = tmp_path / f"state{idx}.npz"
        save_mps(m, path)
        back = load_mps(path)
        assert back.n_sites == m.n_sites
        assert back.phys_dim == m.phys_dim
        assert back.bond_dim == m.bond_dim
        assert back.boundary == m.boundary
        assert back.homogeneous == m.homogeneous
        for k in range(m.n_sites):
            assert np.array_equal(back.tensors[k], m.tensors[k])
        if m.boundary == "obc":
            assert np.array_equal(back.left_vec, m.left_vec)
            assert np.array_equal(back.right_vec, m.right_vec)
        assert np.allclose(back.to_dense().amplitudes, m.to_dense().amplitudes)


def test_save_load_restores_homogeneous_aliasing(tmp_path):
    m = sample_rmps(6, 2, 2, 89, homogeneous=True)
    path = tmp_path / "homog.npz"
    save_mps(m, path)
    back = load_mps(path)
    assert back.homogeneous
    assert all(t is back.tensors[0] for t in back.tensors)
    # container stores the shared tensor set once
    with np.load(path) as data:
        assert data["tensors"].shape == (1, 2, 2, 2)


def test_container_layout(tmp_path):
    m = sample_rmps(3, 2, 2, 97)
    path = tmp_path / "state.npz"
    save_mps(m, path)
    with np.load(path) as data:
        assert set(data.files) == {"header", "tensors", "left_vec", "right_vec"}
        assert data["tensors"].shape == (3, 2, 2, 2)
    import json
    with np.load(path) as data:
        header = json.loads(str(data["header"][()]))
    assert header == {"n_sites": 3, "phys_dim": 2, "bond_dim": 2,
                      "boundary": "obc", "homogeneous": False}


def test_load_rejects_header_that_disagrees_with_tensors(tmp_path):
    """A header whose site count, dimensions or homogeneity do not match
    the stored tensor sets raises DimensionError instead of loading."""
    import json
    m = sample_rmps(4, 2, 2, 101)
    path = tmp_path / "state.npz"
    save_mps(m, path)
    with np.load(path) as data:
        arrays = dict(data)
    header = json.loads(str(arrays["header"][()]))
    for edit in ({"bond_dim": 7}, {"phys_dim": 3}, {"n_sites": 5},
                 {"homogeneous": True}, {"homogeneous": True, "bond_dim": 7}):
        bad = tmp_path / "bad.npz"
        np.savez(bad, **{**arrays, "header": np.array(json.dumps({**header, **edit}))})
        with pytest.raises(DimensionError):
            load_mps(bad)


@pytest.mark.parametrize("boundary, chi_ket, chi_bra", [
    ("obc", 3, 3), ("pbc", 3, 3), ("obc", 3, 2), ("pbc", 2, 3)],
    ids=["obc", "pbc", "obc-unequal", "pbc-unequal"])
def test_pair_step_is_bitwise_the_one_by_one_gram_step(boundary, chi_ket, chi_bra):
    """The transfer step on a paired environment gives, for each sample,
    bitwise the step of that sample's ket against its own bra alone, with
    the environment handed over as the sweeps hand it (a transposed view),
    also when the ket and bra bond dimensions differ, as in an overlap."""
    kets = mps._sample_stack(4, 2, chi_ket, [70 + k for k in range(5)], False, boundary)
    bras = mps._sample_stack(4, 2, chi_bra, [60 + k for k in range(5)], False, boundary)
    if chi_ket == chi_bra:
        bras = kets
    rng = np.random.default_rng(7)
    s = chi_ket * chi_bra if boundary == "pbc" else 1
    shape = (5, chi_ket, s, chi_bra)
    env = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for t, b in zip(kets.tensors, bras.tensors):
        got = mps._gram_step(b.conj(), env.transpose(0, 3, 2, 1), t)
        assert got.shape == shape
        for p in range(5):
            want = mps._gram_step(b[p:p + 1].conj(),
                                  env[p][np.newaxis, np.newaxis].transpose(1, 0, 4, 3, 2),
                                  t[p:p + 1])
            assert np.array_equal(got[p], want[0, 0])
        env = got


@pytest.mark.parametrize("boundary, homogeneous", [
    ("obc", False), ("pbc", False), ("obc", True), ("pbc", True)],
    ids=["obc", "pbc", "homogeneous-obc", "homogeneous-pbc"])
def test_overlaps_of_two_stacks_are_bitwise_the_per_pair_overlaps(boundary, homogeneous):
    """The paired sweep of a stack of kets against a stack of other bras,
    of a smaller bond dimension, gives bitwise overlap(bra p, ket p) of
    each pair drawn alone."""
    ket_seeds, bra_seeds = [30 + k for k in range(4)], [50 + k for k in range(4)]
    got = mps._overlaps(mps._sample_stack(5, 2, 3, ket_seeds, homogeneous, boundary),
                        mps._sample_stack(5, 2, 2, bra_seeds, homogeneous, boundary))
    want = [overlap(sample_rmps(5, 2, 2, b, homogeneous=homogeneous, boundary=boundary),
                    sample_rmps(5, 2, 3, k, homogeneous=homogeneous, boundary=boundary))
            for k, b in zip(ket_seeds, bra_seeds)]
    assert got.shape == (4,)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("boundary, homogeneous, phys_dim, bond_dim", [
    ("obc", False, 2, 2), ("pbc", False, 2, 2), ("obc", True, 2, 2), ("pbc", True, 2, 2),
    ("obc", False, 2, 1), ("obc", False, 3, 2)],
    ids=["obc", "pbc", "homogeneous-obc", "homogeneous-pbc", "chi1", "qutrit"])
def test_gram_end_blocks_match_the_sweep(boundary, homogeneous, phys_dim, bond_dim):
    """A stack's Gram block of rows against other columns, its chain ends
    multiplied out and only the middle swept, equals the full sweep over
    every site of each pair alone to 1e-12 of the block's largest entry: at one
    site, with the ends meeting, and with odd and even middles."""
    middles = set()
    for n in (1, 4, 7, 8, 9, 10):
        stack = mps._sample_stack(n, phys_dim, bond_dim, [90 + k for k in range(6)],
                                  homogeneous, boundary)
        middles.add(len(stack._ends[0]))
        rows, cols = slice(1, 3), slice(2, 6)
        got = stack.gram(rows, cols)
        want = np.array([[mps._overlaps(stack[j:j + 1], stack[m:m + 1])[0]
                          for j in range(cols.start, cols.stop)]
                         for m in range(rows.start, rows.stop)])
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert 0 in middles and any(k % 2 for k in middles) and any(k and k % 2 == 0 for k in middles)


@pytest.mark.parametrize("boundary, homogeneous, phys_dim, bond_dim", [
    ("obc", False, 2, 3), ("pbc", False, 2, 3), ("obc", True, 2, 2), ("pbc", True, 2, 2),
    ("obc", False, 2, 1), ("pbc", False, 2, 1), ("obc", False, 3, 2)],
    ids=["obc", "pbc", "homogeneous-obc", "homogeneous-pbc", "chi1-obc", "chi1-pbc", "qutrit"])
def test_stacked_reduced_states_are_bitwise_the_per_state_ones(boundary, homogeneous,
                                                               phys_dim, bond_dim):
    """The one-site and block states, the amplitudes and the expectation
    values of a stack of five states are bitwise those each state gives
    alone: blocks and observables at the left end, in the bulk and at the
    right end.  Several starts in one call are bitwise the per-start calls.
    The stack's norms are bitwise each state's norm_squared."""
    seeds = [80 + k for k in range(5)]
    states = [sample_rmps(5, phys_dim, bond_dim, seed, homogeneous=homogeneous,
                          boundary=boundary) for seed in seeds]
    stack = mps._sample_stack(5, phys_dim, bond_dim, seeds, homogeneous, boundary)
    sites = mps._block_states(stack, range(5), 1)
    assert sites.shape == (5, 5, phys_dim, phys_dim)
    for start, length in ((0, 2), (1, 3), (2, 1), (3, 2)):
        blocks = mps._block_states(stack, [start], length)[:, 0]
        for m, block in zip(states, blocks):
            assert np.array_equal(block, m.reduced_density_matrix(start, length).matrix)
    for starts, length in (([3, 0, 2], 2), ([1, 2], 3)):
        blocks = mps._block_states(stack, starts, length)
        assert blocks.shape == (5, len(starts), phys_dim**length, phys_dim**length)
        for j, start in enumerate(starts):
            assert np.array_equal(blocks[:, j], mps._block_states(stack, [start], length)[:, 0])
    for m, rhos in zip(states, sites):
        assert np.array_equal(rhos, m.site_density_matrices())
    for m, psi in zip(states, stack.amplitudes()):
        assert np.array_equal(psi, m.to_dense().amplitudes)
    rng = np.random.default_rng(11)
    h, g = random_hermitian(phys_dim, rng), random_hermitian(phys_dim, rng)
    for obs in (LocalObservable((h,), 0), LocalObservable((h, g), 1), LocalObservable((g, h), 3)):
        for m, value in zip(states, mps._expectations(stack, obs)):
            assert value == m.expectation(obs)
    assert np.array_equal(mps._overlaps(stack, stack).real,
                          [m.norm_squared() for m in states])


@pytest.mark.parametrize("boundary, n_sites, bond_dim", [("obc", 8, 16), ("pbc", 6, 4)])
def test_closer_holds_one_start_at_a_time(boundary, n_sites, bond_dim):
    """Closing every start of a stack allocates at most what closing its
    middle start does plus the bytes of all its environments: no start's
    environments or tensors are copied into a stack over the starts."""
    stack = mps._sample_stack(n_sites, 2, bond_dim, range(4), False, boundary)
    lefts, rights = mps._environments(stack, n_sites - 1, n_sites - 1)
    envs = sum(env.nbytes for env in lefts + rights)

    def peak(starts):
        tracemalloc.start()
        try:
            mps._block_states(stack, starts, 1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak(range(n_sites)) <= peak([n_sites // 2]) + envs


CHAINS = [("obc", False, 2, 3), ("pbc", False, 2, 3), ("obc", True, 2, 2),
          ("pbc", True, 2, 2), ("obc", False, 2, 1), ("obc", False, 3, 2)]
CHAIN_IDS = ["obc", "pbc", "homogeneous-obc", "homogeneous-pbc", "chi1", "qutrit"]


@pytest.mark.parametrize("count", [1, 3, 16])
@pytest.mark.parametrize("boundary, homogeneous, phys_dim, bond_dim", CHAINS, ids=CHAIN_IDS)
def test_sample_stack_rows_are_bitwise_sample_rmps(count, boundary, homogeneous,
                                                   phys_dim, bond_dim):
    """Row i of a stack drawn from ``seeds`` is bitwise sample_rmps(seeds[i]):
    every site tensor set and both boundary vectors.  Each site is one
    C-contiguous (samples, D, chi, chi) array, and a homogeneous stack's
    sites are one array."""
    seeds = [subseed(90, i) for i in range(count)]
    stack = mps._sample_stack(4, phys_dim, bond_dim, seeds, homogeneous, boundary)
    assert len(stack.tensors) == 4 and stack.boundary == boundary
    for site in stack.tensors:
        assert site.shape == (count, phys_dim, bond_dim, bond_dim) and site.flags.c_contiguous
        assert not homogeneous or site is stack.tensors[0]
    for i, seed in enumerate(seeds):
        m = sample_rmps(4, phys_dim, bond_dim, seed, homogeneous=homogeneous,
                        boundary=boundary)
        assert m.homogeneous == homogeneous
        for site, t in zip(stack.tensors, m.tensors):
            assert np.array_equal(site[i], t)
        for name in ("left_vec", "right_vec"):
            vecs = getattr(stack, name)
            if boundary == "obc":
                assert np.array_equal(vecs[i], getattr(m, name))
            else:
                assert vecs is None and getattr(m, name) is None


@pytest.mark.parametrize("args, kwargs, error", [
    ((3, 2, 2.5, 0), {"boundary": "pbc"}, TypeError),
    ((3, 2.7, 2, 0), {}, TypeError),
    ((3.0, 2, 2, 0), {}, TypeError),
    ((3, 2, 0, 0), {}, DimensionError),
    ((3, 2, 2, 0), {"boundary": "open"}, ValueError),
], ids=["float_chi", "float_d", "float_n", "chi_0", "unknown_boundary"])
def test_sampler_checks_its_inputs_before_the_first_draw(monkeypatch, args, kwargs, error):
    """A non-integer or nonpositive dimension and an unknown boundary
    raise before any Ginibre draw; numpy integers are accepted."""
    draws = []
    normals = mps.normals
    monkeypatch.setattr(mps, "normals", lambda *a: draws.append(a) or normals(*a))
    with pytest.raises(error):
        sample_rmps(*args, **kwargs)
    assert draws == []
    m = sample_rmps(np.int64(3), np.int32(2), np.int64(2), 0, boundary="pbc")
    assert (m.n_sites, m.phys_dim, m.bond_dim) == (3, 2, 2) and len(draws) == 3

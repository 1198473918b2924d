"""Tests for the dense reference implementations."""

import numpy as np
import pytest

from rmps import dense
from rmps.dense import (
    CUE_MIN_EIG_DIM_CAP,
    DENSITY_DIM_CAP,
    DenseState,
    DensityMatrix,
    check_amplitude_cap,
    check_density_cap,
    cue_global_entanglement,
    cue_min_eigenvalue,
    cue_purity_moment,
    global_entanglement,
    haar_dense_state,
    haar_twirl_monte_carlo,
    hs_distance,
    maximally_mixed,
    min_eigenvalue,
    partial_trace,
    permutation_twirl,
    projector,
    purity_moment,
    trace_distance,
    typicality_bound,
)
from rmps.ensembles import CueSource
from rmps.errors import CapExceededError, DimensionError
from rmps.haar import haar_state, haar_unitary, subseed

KET0 = np.array([1.0, 0.0])
PLUS = np.array([1.0, 1.0]) / np.sqrt(2)
BELL = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
GHZ3 = np.zeros(8)
GHZ3[0] = GHZ3[7] = 1 / np.sqrt(2)
W3 = np.zeros(8)
W3[1] = W3[2] = W3[4] = 1 / np.sqrt(3)


def random_density(dim, seed):
    """Random full-rank density matrix from a Ginibre square."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def test_dense_state_validation():
    s = DenseState((2, 2), BELL)
    assert s.total_dim == 4
    assert np.isclose(s.norm(), 1.0)
    with pytest.raises(DimensionError):
        DenseState((2, 3), BELL)
    with pytest.raises(DimensionError):
        DenseState((), np.array([1.0]))
    with pytest.raises(DimensionError):
        DenseState((0, 2), np.zeros(0))
    unnorm = DenseState((2,), np.array([3.0, 4.0]))
    assert np.isclose(unnorm.normalized().norm(), 1.0)
    with pytest.raises(ValueError):
        DenseState((2,), np.zeros(2)).normalized()


def test_density_matrix_validation():
    rho = DensityMatrix((2, 2), np.eye(4) / 4)
    assert rho.total_dim == 4
    with pytest.raises(DimensionError):
        DensityMatrix((2,), np.eye(4) / 4)
    with pytest.raises(ValueError):  # not Hermitian
        m = np.eye(2) / 2
        m[0, 1] = 0.5
        DensityMatrix((2,), m)
    with pytest.raises(ValueError):  # trace off
        DensityMatrix((2,), np.eye(2))
    with pytest.raises(ValueError):  # negative eigenvalue
        DensityMatrix((2,), np.diag([1.5, -0.5]))


def test_maximally_mixed():
    rho = maximally_mixed((2, 3))
    assert np.allclose(rho.matrix, np.eye(6) / 6)
    assert np.isclose(purity_moment(rho, 2), 1 / 6)


@pytest.mark.parametrize("build", [
    lambda dims: CueSource(dims).site_dims,
    lambda dims: DenseState(dims, np.ones(4)).dims,
    lambda dims: maximally_mixed(dims).dims,
    lambda dims: haar_dense_state(dims, 0).dims,
], ids=["CueSource", "DenseState", "maximally_mixed", "haar_dense_state"])
def test_site_dimensions_must_be_integers(build):
    """A non-integer site dimension raises TypeError instead of being
    truncated, a float of integer value included; numpy integers are
    accepted and stored as Python integers."""
    for dims in ((2.5, 2.9), (2.7,), (2.0, 2), (np.float64(2.0), 2)):
        with pytest.raises(TypeError):
            build(dims)
    dims = build((np.int64(2), np.int32(2)))
    assert dims == (2, 2) and all(type(d) is int for d in dims)


def test_haar_dense_state_and_cap():
    s = haar_dense_state((2, 2, 2), 3)
    assert s.dims == (2, 2, 2)
    assert np.isclose(s.norm(), 1.0)
    assert np.array_equal(s.amplitudes, haar_dense_state((2, 2, 2), 3).amplitudes)
    with pytest.raises(CapExceededError):
        haar_dense_state((2,) * 21, 0)


def test_caps_raise():
    check_amplitude_cap(2**20)
    check_density_cap(2**10)
    with pytest.raises(CapExceededError):
        check_amplitude_cap(2**20 + 1)
    with pytest.raises(CapExceededError):
        check_density_cap(2**10 + 1)


def test_cap_messages_state_any_dimension():
    """A dimension past 2^64 is stated as the power of two it reaches,
    since CPython formats no int of more than 4300 digits; a smaller one
    in decimal."""
    with pytest.raises(CapExceededError, match="dimension 2049 exceeds cap"):
        check_density_cap(2049)
    with pytest.raises(CapExceededError, match=r"dimension >= 2\^64 exceeds cap"):
        check_density_cap(2**64)
    with pytest.raises(CapExceededError, match=r"dimension >= 2\^14400 exceeds cap"):
        check_amplitude_cap(2**14400 + 1)
    with pytest.raises(CapExceededError, match=r"d_a \* d_b = >= 2\^20000 exceeds cap"):
        dense.check_min_eig_cap(2**10000, 2**10000)


def test_projector():
    p = projector(DenseState((2,), np.array([3.0, 4.0])))  # normalizes internally
    assert np.allclose(p @ p, p)
    assert np.isclose(np.trace(p), 1.0)
    assert np.linalg.matrix_rank(p) == 1
    with pytest.raises(ValueError):
        projector(DenseState((2,), np.zeros(2)))


def test_partial_trace_examples():
    """Product state keeps its factor; a Bell half is maximally mixed."""
    prod = DenseState((2, 2), np.kron(KET0, PLUS))
    rho = partial_trace(prod, [1])
    assert np.allclose(rho.matrix, np.outer(PLUS, PLUS), atol=1e-12)
    bell = DenseState((2, 2), BELL)
    for keep in ([0], [1]):
        rho = partial_trace(bell, keep)
        assert np.allclose(rho.matrix, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_routes_agree():
    """Pure-state reduction matches reducing the projector as a matrix."""
    for i in range(20):
        rng = np.random.default_rng(i)
        dims = tuple(rng.integers(2, 4, size=rng.integers(2, 5)))
        state = haar_dense_state(dims, subseed(31, i))
        n = len(dims)
        size = int(rng.integers(1, n))
        keep = sorted(rng.choice(n, size=size, replace=False).tolist())
        a = partial_trace(state, keep)
        b = partial_trace(DensityMatrix(dims, projector(state)), keep)
        assert np.abs(a.matrix - b.matrix).max() < 1e-12
        assert np.isclose(np.trace(a.matrix), 1.0)  # trace preserved


def test_partial_trace_keep_all_and_unnormalized():
    state = DenseState((2, 2), 2.0 * BELL)  # norm 2: reduction must renormalize
    rho = partial_trace(state, [0, 1])
    assert np.allclose(rho.matrix, projector(state), atol=1e-12)


def test_partial_trace_errors():
    state = haar_dense_state((2, 2), 0)
    with pytest.raises(DimensionError):
        partial_trace(state, [])
    with pytest.raises(DimensionError):
        partial_trace(state, [2])
    with pytest.raises(CapExceededError):
        partial_trace(haar_dense_state((2,) * 11, 0), range(11))


def test_trace_distance_examples():
    """No 1/2 prefactor: orthogonal pure states sit at distance 2."""
    p0 = np.outer(KET0, KET0)
    p1 = np.diag([0.0, 1.0])
    assert np.isclose(trace_distance(p0, p1), 2.0)
    assert np.isclose(trace_distance(p0, np.eye(2) / 2), 1.0)
    assert trace_distance(p0, p0) == 0.0


def test_hs_distance_examples():
    p0 = np.outer(KET0, KET0)
    assert np.isclose(hs_distance(p0, np.eye(2) / 2), 1 / np.sqrt(2))


def test_metric_properties():
    """Symmetry is exact; triangle inequality holds to 1e-10; hs <= trace."""
    for i in range(40):
        dim = int(np.random.default_rng(i).integers(2, 7))
        a = random_density(dim, 3 * i)
        b = random_density(dim, 3 * i + 1)
        c = random_density(dim, 3 * i + 2)
        for metric in (trace_distance, hs_distance):
            assert metric(a, b) == metric(b, a)
            assert metric(a, b) >= 0.0
            assert metric(a, c) <= metric(a, b) + metric(b, c) + 1e-10
        assert hs_distance(a, b) <= trace_distance(a, b) + 1e-10


def _unit_rows(rng, count, d, zero=()):
    a = np.abs(rng.normal(size=(count, d)))
    a[:, list(zero)] = 0.0
    return a / np.linalg.norm(a, axis=1, keepdims=True)


def _kernel_case(name):
    """(lam, a, rho) of one kernel case: ascending lam, rows a >= 0 of unit length."""
    rng = np.random.default_rng(7)
    lam = np.sort(rng.normal(size=16)) / 16
    if name.startswith("r = "):
        # the leave-one-out differences of r Haar states in dimension 8:
        # rank r, so 8 - r weights vanish on poles repeated at -1/8
        r = int(name[-1])
        psi = np.array([haar_state(8, subseed(29, i)) for i in range(r)])
        avg_lam, v = np.linalg.eigh(psi.T @ psi.conj() / r)
        return r / (r - 1) * avg_lam - 1 / 8, np.abs(psi @ v.conj()), 1 / (r - 1)
    if name == "d = 1":
        return np.array([-0.2]), np.ones((1, 1)), 0.3
    if name.startswith("pole at 0"):
        lam -= lam[7]
    elif name.startswith("repeated poles"):
        lam[4], lam[9], lam[10] = lam[3], lam[8], lam[8]
    elif name == "poles 1e-15 apart":
        lam[4], lam[9] = lam[3] + 1e-15, lam[8] + 1e-15
    elif name == "all negative":
        lam = np.sort(-np.abs(lam))
    elif name in ("all positive", "zero eigenvalue"):
        lam = np.sort(np.abs(lam))
    elif name == "d = 2":
        lam = np.array([-0.3, 0.4])
    zero = (4, 9, 10) if name == "repeated poles, zero weights" else \
        (2, 5, 11) if name == "zero weights" else \
        [k for k in range(16) if k != 5] if name == "one nonzero weight" else ()
    a, rho = _unit_rows(rng, 5, lam.size, zero), 0.3
    if name == "pole at 0, heavy weight":
        a = _unit_rows(rng, 5, lam.size) + np.eye(lam.size)[7]
        a /= np.linalg.norm(a, axis=1, keepdims=True)
    elif name.startswith("scaled by"):
        scale = float(name.split()[-1])
        lam, rho = lam * scale, rho * scale
    elif name == "rho far above max|lam|":
        rho = 1e6
    elif name == "rho far below the pole gaps":
        rho = 1e-9 * np.diff(lam).min()
    elif name == "zero eigenvalue":
        # rho sum a^2 / lam = 1 makes the update singular: 1 - h(y) -> 0 as y -> 0
        a = a[:1]
        rho = 1.0 / np.sum(a[0] ** 2 / lam)
    return lam, a, rho


@pytest.mark.parametrize("name,fallbacks", [(name, 0) for name in (
    "generic", "zero weights", "repeated poles", "repeated poles, zero weights",
    "poles 1e-15 apart", "pole at 0", "pole at 0, heavy weight", "all negative", "all positive",
    "d = 1", "d = 2", "one nonzero weight", "scaled by 1e-8", "scaled by 1e8",
    "rho far above max|lam|", "rho far below the pole gaps", "zero eigenvalue", "r = 2",
    "r = 3")])
def test_trace_norms_match_eigensolves(monkeypatch, name, fallbacks):
    """The contour-integral trace norms of diag(lam) - rho a a^T match
    eigvalsh's within 1e-12 relative, and no case falls back to eigvalsh.
    The nodes scale with lam and rho; clustered or repeated poles, zero
    weights, a pole at 0, d = 1, a rank-one part far above or below the
    poles and a singular update need no special path."""
    lam, a, rho = _kernel_case(name)
    want = [np.abs(np.linalg.eigvalsh(np.diag(lam) - rho * np.outer(x, x))).sum() for x in a]
    calls = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(1) or real(m))
    got = dense._trace_norm_kernel(lam, rho)(a)
    assert len(calls) == fallbacks
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


@pytest.mark.parametrize("name", ["generic", "repeated poles, zero weights", "r = 3"])
def test_trace_norms_rows_are_independent(name):
    """Each row is its own product with the nodes: the kernel's trace
    norms are bitwise the same given the rows one at a time as all at once."""
    lam, a, rho = _kernel_case(name)
    norms = dense._trace_norm_kernel(lam, rho)
    one_by_one = np.concatenate([norms(a[i:i + 1]) for i in range(len(a))])
    assert np.array_equal(one_by_one, norms(a))


def test_purity_moment_examples():
    rho = np.diag([0.75, 0.25])
    assert np.isclose(purity_moment(rho, 3), 7 / 16)
    assert np.isclose(purity_moment(rho, 1), 1.0)
    with pytest.raises(ValueError):
        purity_moment(rho, 0)


def test_purity_moment_bounds():
    """dim^(1-m) <= Tr rho^m <= 1 for all density matrices."""
    for i in range(30):
        dim = int(np.random.default_rng(i).integers(2, 9))
        rho = random_density(dim, 100 + i)
        for m in (2, 3, 4):
            v = purity_moment(rho, m)
            assert dim ** (1 - m) - 1e-10 <= v <= 1 + 1e-10


def test_min_eigenvalue():
    assert np.isclose(min_eigenvalue(np.diag([0.75, 0.25])), 0.25)
    assert np.isclose(min_eigenvalue(maximally_mixed((2, 2)).matrix), 0.25)
    # pure projectors have roundoff-negative bottom eigenvalues: clamp to 0
    p = projector(haar_dense_state((2, 2, 2), 7))
    assert min_eigenvalue(p) == 0.0
    assert min_eigenvalue(np.diag([1.5, -0.5])) == -0.5  # genuine negatives survive


def test_global_entanglement_examples():
    assert np.isclose(global_entanglement(DenseState((2, 2, 2), GHZ3)), 1.0)
    assert np.isclose(global_entanglement(DenseState((2, 2), BELL)), 1.0)
    assert np.isclose(global_entanglement(DenseState((2, 2, 2), W3)), 8 / 9)
    prod = DenseState((2, 2), np.kron(PLUS, KET0))
    assert abs(global_entanglement(prod)) < 1e-12


def test_global_entanglement_range_and_errors():
    for i in range(25):
        n = int(np.random.default_rng(i).integers(1, 6))
        q = global_entanglement(haar_dense_state((2,) * n, subseed(77, i)))
        assert -1e-10 <= q <= 1 + 1e-10
    with pytest.raises(DimensionError):
        global_entanglement(DenseState((3,), np.array([1.0, 0, 0])))
    with pytest.raises(ValueError):
        global_entanglement(DenseState((2,), np.array([2.0, 0])))


def test_cue_purity_moment_values():
    assert np.isclose(cue_purity_moment(2, 4, 16), 20 / 65)
    assert np.isclose(cue_purity_moment(3, 2, 2), 21 / 30)
    assert np.isclose(cue_purity_moment(2, 1, 7), 1.0)
    with pytest.raises(ValueError):
        cue_purity_moment(5, 2, 2)
    with pytest.raises(DimensionError):
        cue_purity_moment(2, 0, 2)


def test_cue_purity_moment_symmetry():
    """The closed forms are symmetric under swapping the two factors."""
    for d_a, d_b in ((2, 8), (3, 5), (4, 16)):
        for m in (2, 3, 4):
            assert np.isclose(cue_purity_moment(m, d_a, d_b),
                              cue_purity_moment(m, d_b, d_a))


def test_cue_purity_moment_monte_carlo_consistency():
    """m=4 closed form agrees with a direct Monte Carlo mean at 4 sigma."""
    r = 1500
    vals = np.empty(r)
    for i in range(r):
        rho = partial_trace(haar_dense_state((4, 4), subseed(55, i)), [0])
        vals[i] = purity_moment(rho, 4)
    se = vals.std(ddof=1) / np.sqrt(r)
    assert abs(vals.mean() - cue_purity_moment(4, 4, 4)) < 4 * se


def test_cue_global_entanglement_values():
    assert np.isclose(cue_global_entanglement(4), 14 / 17)
    assert cue_global_entanglement(1) == 0.0
    vals = [cue_global_entanglement(n) for n in range(1, 8)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_cue_min_eigenvalue_values():
    assert np.isclose(cue_min_eigenvalue(4), 1 / 64)
    assert np.isclose(cue_min_eigenvalue(2), 1 / 8)
    vals = [cue_min_eigenvalue(d) for d in range(2, 8)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_cue_min_eigenvalue_exact_unbalanced():
    """Exact rationals of the fixed-trace Laguerre ensemble: 9949/32768 at
    (2, 8) is a dyadic rational, so it is exact in binary floating point."""
    assert cue_min_eigenvalue(2, 8) == 9949 / 32768
    assert abs(cue_min_eigenvalue(4, 16) / 0.10960560361354076 - 1.0) <= 1e-15
    assert cue_min_eigenvalue(4, 2) == 0.0  # rank of rho_A is at most d_b


def test_cue_min_eigenvalue_balanced_bitwise():
    """The balanced split reproduces 1/d^3 to the last bit, with or
    without d_b, so balanced-split tables keep their bytes."""
    for d in range(1, 9):
        assert cue_min_eigenvalue(d, d) == 1 / d**3
        assert cue_min_eigenvalue(d) == 1 / d**3


def test_cue_min_eigenvalue_cap():
    """Splits beyond the documented cap raise rather than run for minutes;
    every split the experiments use lies within it."""
    for d_a, d_b in ((2, 2), (4, 4), (8, 8), (2, 8), (4, 16)):
        assert d_a * d_b <= CUE_MIN_EIG_DIM_CAP
    with pytest.raises(CapExceededError):
        cue_min_eigenvalue(4, 2 * CUE_MIN_EIG_DIM_CAP // 4)
    assert cue_min_eigenvalue(2 * CUE_MIN_EIG_DIM_CAP, 2) == 0.0
    with pytest.raises(DimensionError):
        cue_min_eigenvalue(2, 0)


def test_typicality_bound_values():
    assert np.isclose(typicality_bound(2, 512), 1 / 16)
    assert typicality_bound(5, 5) == 1.0
    # bound^2 = d_s/d_b, so halving the bath dimension doubles the square
    assert np.isclose(typicality_bound(2, 16) ** 2, 2 * typicality_bound(2, 32) ** 2)


def test_haar_twirl_monte_carlo():
    """One copy at dim 1 is the scalar 1 (phases cancel, up to roundoff
    in the accumulation); dim 2 converges to the maximally entangled
    projector; output is deterministic in the seed."""
    assert np.abs(haar_twirl_monte_carlo(1, 1, 50, 0) - np.eye(1)).max() < 1e-12
    r = 2000
    mc = haar_twirl_monte_carlo(1, 2, r, 42)
    v = np.eye(2).reshape(-1) / np.sqrt(2)
    pi2 = np.outer(v, v)
    assert np.abs(mc - pi2).max() < 5 / np.sqrt(r)
    assert np.array_equal(mc, haar_twirl_monte_carlo(1, 2, r, 42))
    with pytest.raises(ValueError):
        haar_twirl_monte_carlo(1, 2, 0, 0)
    with pytest.raises(CapExceededError):
        haar_twirl_monte_carlo(6, 4, 1, 0)


def test_haar_twirl_monte_carlo_is_the_mean_of_per_sample_unitaries():
    """The twirl's unitaries, drawn from one re-keyed generator, are
    bitwise haar_unitary(dim, subseed(seed, i)) of each sample drawn
    alone, summed in sample order."""
    acc = np.zeros((16, 16), dtype=np.complex128)
    for i in range(30):
        u = haar_unitary(2, subseed(9, i))
        w = np.kron(u, u.conj())
        acc += np.kron(w, w)
    assert np.array_equal(haar_twirl_monte_carlo(2, 2, 30, 9), acc / 30)


def test_permutation_twirl_single_copy():
    """With one copy the only permutation is the identity, so the result
    is exactly the maximally entangled projector."""
    for n in (2, 3):
        v = np.eye(n).reshape(-1) / np.sqrt(n)
        assert np.allclose(permutation_twirl(1, n), np.outer(v, v), atol=1e-14)


def test_permutation_twirl_two_copies_by_hand():
    """Two copies: identity plus swap, each vectorized, normalized, projected."""
    n = 2
    out = permutation_twirl(2, n)
    ident = np.eye(n * n).reshape(n, n, n, n)
    swap = ident.transpose(0, 1, 3, 2)
    expected = np.zeros((n**4, n**4), dtype=complex)
    for p in (ident, swap):
        # grouped (a1,a2,b1,b2) -> interleaved (a1,b1,a2,b2), then vectorize
        v = p.transpose(0, 2, 1, 3).reshape(-1).astype(complex)
        v /= np.linalg.norm(v)
        expected += np.outer(v, v.conj())
    assert np.abs(out - expected).max() < 1e-14
    assert np.abs(out - out.conj().T).max() < 1e-14
    with pytest.raises(CapExceededError):
        permutation_twirl(6, 4)

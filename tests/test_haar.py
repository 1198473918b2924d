"""Tests for the seedable Haar-random sources."""

import warnings

import numpy as np
import pytest

from rmps.errors import DimensionError
from rmps.haar import (
    Seed,
    as_seed,
    generator,
    ginibre,
    haar_state,
    haar_unitary,
    normals,
    rekey,
    require_unitary,
    subseed,
    subseed_keys,
)


def test_seed_validation():
    """Seeds are unsigned 64-bit integers; anything else is rejected."""
    assert Seed(0).value == 0
    assert Seed(2**64 - 1).value == 2**64 - 1
    with pytest.raises(ValueError):
        Seed(-1)
    with pytest.raises(ValueError):
        Seed(2**64)
    with pytest.raises(TypeError):
        Seed(True)
    with pytest.raises(TypeError):
        Seed(1.0)


def test_as_seed_coercion():
    """Integers coerce to Seed; Seed instances pass through unchanged."""
    s = Seed(7)
    assert as_seed(s) is s
    assert as_seed(7) == s


def test_subseed_children_are_distinct():
    """Distinct sample indices of one parent never collide."""
    parent = Seed(123456789)
    children = [subseed(parent, i).value for i in range(5000)]
    assert len(set(children)) == len(children)
    # and distinct parents give distinct child streams
    other = [subseed(Seed(987654321), i).value for i in range(5000)]
    assert not set(children) & set(other)


def test_subseed_determinism_and_chaining():
    """subseed is a pure function and chains to arbitrary depth."""
    assert subseed(42, 3) == subseed(Seed(42), 3)
    grandchild = subseed(subseed(42, 3), 5)
    assert grandchild == subseed(subseed(42, 3), 5)
    assert grandchild != subseed(subseed(42, 5), 3)
    with pytest.raises(ValueError):
        subseed(42, -1)


def test_subseed_keys_are_the_subseed_values():
    """The vectorised keys equal subseed(s, k).value for the extreme seeds,
    random ones and indices up to 2^64 - 1, and never warn: the splitmix64
    arithmetic wraps on arrays, not on numpy scalars."""
    seeds = [0, 1, 2**63, 2**64 - 1]
    seeds += [int(s) for s in np.random.default_rng(3).integers(0, 2**64, 20, dtype=np.uint64)]
    indices = [0, 1, 2, 7, 1000, 2**32, 2**63, 2**64 - 2, 2**64 - 1]
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        keys = subseed_keys([Seed(s) for s in seeds], indices)
        assert np.array_equal(subseed_keys(np.array(seeds, dtype=np.uint64), indices), keys)
        assert np.array_equal(subseed_keys(seeds, indices), keys)
    assert keys.dtype == np.uint64 and keys.shape == (len(seeds), len(indices))
    for i, s in enumerate(seeds):
        for j, k in enumerate(indices):
            assert int(keys[i, j]) == subseed(s, k).value, (s, k)


@pytest.mark.parametrize("n", [1, 2, 4, 32])
def test_one_draw_per_matrix_is_the_two_draw_formula(n):
    """ginibre and haar_state draw their normals in one call, bitwise the
    real-then-imaginary formula of two draws on a fresh generator."""
    for s in range(100):
        g = generator(s)
        z = g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))
        g = generator(s)
        v = g.standard_normal(n) + 1j * g.standard_normal(n)
        assert ginibre(n, s).tobytes() == z.tobytes()
        assert haar_state(n, s).tobytes() == (v / np.linalg.norm(v)).tobytes()


@pytest.mark.parametrize("n", [1, 4, 32])
def test_normals_fill_the_buffer_of_one_draw(n):
    """normals fills a caller's (2, *shape) buffer bitwise as
    generator(seed).standard_normal((2, *shape)), from a fresh generator
    and from a re-keyed one, and returns that buffer."""
    rng = generator(0)
    for shape in ((n, n), (n,)):
        out = np.empty((2, *shape))
        for s in range(20):
            want = generator(s).standard_normal((2, *shape)).tobytes()
            assert normals(out, s) is out and out.tobytes() == want
            rng.integers(0, 10, size=s % 3 + 1, dtype=np.uint32)
            assert normals(out, rekey(rng, s)) is out and out.tobytes() == want


def test_generator_deterministic():
    """Same seed, same stream; different seed, different stream."""
    a = generator(11).standard_normal(100)
    b = generator(11).standard_normal(100)
    c = generator(12).standard_normal(100)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_rekey_gives_the_stream_of_a_fresh_generator():
    """A re-keyed generator draws bitwise what generator(seed) draws, for
    Ginibre matrices and Haar states, whatever it drew before: here a
    uint32 draw leaves half of a 64-bit output in its buffer."""
    rng = generator(0)
    for i in range(300):
        s = subseed(31, i)
        rng.integers(0, 10, size=i % 3 + 1, dtype=np.uint32)
        assert np.array_equal(ginibre(4, rekey(rng, s)), ginibre(4, s))
        assert np.array_equal(ginibre(32, rekey(rng, s)), ginibre(32, s))
        assert np.array_equal(haar_state(5, rekey(rng, s)), haar_state(5, s))
    assert rekey(rng, 7) is rng
    assert generator(rng) is rng


def test_ginibre_shape_and_determinism():
    for n in (1, 2, 5):
        z = ginibre(n, 4)
        assert z.shape == (n, n)
        assert z.dtype == np.complex128
    assert np.array_equal(ginibre(4, 9), ginibre(4, 9))
    with pytest.raises(DimensionError):
        ginibre(0, 1)


def test_ginibre_entry_moments():
    """1e5 entries: mean within 3 sigma of 0, real-part variance within 5% of 1."""
    entries = np.concatenate([ginibre(100, subseed(3, i)).ravel() for i in range(10)])
    n = entries.size
    assert n == 10**5
    sigma_mean = 1.0 / np.sqrt(n)  # each real/imag component has unit variance
    assert abs(entries.real.mean()) < 3 * sigma_mean
    assert abs(entries.imag.mean()) < 3 * sigma_mean
    assert abs(entries.real.var() - 1.0) < 0.05
    assert abs(entries.imag.var() - 1.0) < 0.05


def test_haar_unitary_is_unitary():
    """Unitarity defect stays at roundoff for a spread of sizes and seeds."""
    for i in range(25):
        n = int(np.random.default_rng(i).integers(1, 9))
        u = haar_unitary(n, subseed(17, i))
        assert np.abs(u.conj().T @ u - np.eye(n)).max() < 1e-12


def test_haar_unitary_deterministic():
    assert np.array_equal(haar_unitary(5, 21), haar_unitary(5, 21))
    assert not np.array_equal(haar_unitary(5, 21), haar_unitary(5, 22))


def test_haar_unitary_first_entry_moment():
    """E|U_00|^2 = 1/n for n=2, checked over 1e5 samples at 3 sigma."""
    r = 10**5
    vals = np.empty(r)
    for i in range(r):
        vals[i] = abs(haar_unitary(2, subseed(13, i))[0, 0]) ** 2
    se = vals.std(ddof=1) / np.sqrt(r)
    assert abs(vals.mean() - 0.5) < 3 * se


def test_eigenvalue_angles_need_the_phase_fix():
    """Phase-fixed QR gives flat eigenvalue angles; plain QR visibly does not.

    1e4 two-by-two samples, 20 angle bins: every bin of the fixed sampler
    stays within 4 binomial sigma of uniform, while plain QR overshoots by
    more than 10 sigma somewhere.
    """
    bins = 20
    z_max = {}
    for variant in ("fixed", "plain"):
        angles = np.empty((10**4, 2))
        for i in range(10**4):
            z = ginibre(2, subseed(2026, i))
            q, r = np.linalg.qr(z)
            if variant == "fixed":
                d = np.diagonal(r)
                q = q * (d / np.abs(d))[np.newaxis, :]
            angles[i] = np.angle(np.linalg.eigvals(q))
        counts, _ = np.histogram(angles, bins=bins, range=(-np.pi, np.pi))
        total = angles.size
        p = 1.0 / bins
        sigma = np.sqrt(total * p * (1 - p))
        z_max[variant] = np.abs(counts - total * p).max() / sigma
    assert z_max["fixed"] < 4.0
    assert z_max["plain"] > 10.0


def test_haar_state_normalized_and_deterministic():
    for n in (1, 2, 7):
        v = haar_state(n, 5)
        assert v.shape == (n,)
        assert np.isclose(np.linalg.norm(v), 1.0)
    assert np.array_equal(haar_state(6, 2), haar_state(6, 2))
    with pytest.raises(DimensionError):
        haar_state(0, 1)


def test_haar_state_first_component_moment():
    """E|psi_0|^2 = 1/dim for dim=4, checked over 1e4 samples at 3 sigma."""
    r = 10**4
    vals = np.array([abs(haar_state(4, subseed(5, i))[0]) ** 2 for i in range(r)])
    se = vals.std(ddof=1) / np.sqrt(r)
    assert abs(vals.mean() - 0.25) < 3 * se


def test_require_unitary():
    require_unitary(np.eye(3))
    require_unitary(haar_unitary(4, 1))
    with pytest.raises(ValueError):
        require_unitary(np.eye(3) * 1.5)
    with pytest.raises(DimensionError):
        require_unitary(np.ones((2, 3)))


def test_nan_matrix_is_not_unitary():
    """A NaN defect fails the check: NaN compares false with any tolerance."""
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="not unitary"):
        require_unitary(np.full((4, 4), np.nan))

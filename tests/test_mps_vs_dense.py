"""Cross-checks of the tensor network contractions against dense linear algebra.

Every sweep in the engine is compared against the same quantity computed
from explicit amplitude vectors, over randomized chains covering both
boundaries, homogeneous and independent tensors, and rectangular bond
dimensions for overlaps.
"""

import itertools

import numpy as np

from rmps.dense import global_entanglement, partial_trace
from rmps.haar import subseed
from rmps.mps import LocalObservable, sample_rmps


def random_cases(master, count, n_max=6, chi_max=4):
    """Reproducible stream of sampled states of varied shape."""
    rng = np.random.default_rng(master)
    for i in range(count):
        n = int(rng.integers(2, n_max + 1))
        chi = int(rng.integers(1, chi_max + 1))
        boundary = "obc" if rng.integers(0, 2) else "pbc"
        homogeneous = bool(rng.integers(0, 2))
        yield rng, sample_rmps(n, 2, chi, subseed(master, i),
                               homogeneous=homogeneous, boundary=boundary)


def explicit_amplitude(m, config):
    """One amplitude from bare per-site matrix products."""
    prod = np.eye(m.bond_dim, dtype=complex)
    for k, i in enumerate(config):
        prod = prod @ m.tensors[k][i]
    if m.boundary == "obc":
        return m.left_vec.conj() @ prod @ m.right_vec
    return np.trace(prod)


def test_amplitudes_match_explicit_matrix_products():
    for _, m in random_cases(101, 25, n_max=5):
        psi = m.to_dense().amplitudes
        for idx, config in enumerate(itertools.product(range(2), repeat=m.n_sites)):
            assert abs(psi[idx] - explicit_amplitude(m, config)) < 1e-12


def test_norm_squared_matches_dense():
    for _, m in random_cases(103, 30):
        psi = m.to_dense().amplitudes
        assert abs(m.norm_squared() - np.vdot(psi, psi).real) < 1e-10


def test_overlap_matches_dense():
    """<a|b> from the mixed sweep equals the dense inner product, including
    for unequal bond dimensions on open chains."""
    from rmps.mps import overlap
    rng = np.random.default_rng(107)
    for i in range(30):
        n = int(rng.integers(2, 7))
        boundary = "obc" if rng.integers(0, 2) else "pbc"
        chi_a = int(rng.integers(1, 5))
        chi_b = int(rng.integers(1, 5)) if boundary == "obc" else chi_a
        a = sample_rmps(n, 2, chi_a, subseed(107, 2 * i), boundary=boundary)
        b = sample_rmps(n, 2, chi_b, subseed(107, 2 * i + 1), boundary=boundary)
        want = np.vdot(a.to_dense().amplitudes, b.to_dense().amplitudes)
        assert abs(overlap(a, b) - want) < 1e-10


def test_ring_overlap_with_unequal_bond_dimensions_matches_dense():
    """Rings of unequal bond dimensions, both orders: the sweep's boundary
    pair is the identity on chi_a * chi_b bond pairs."""
    from rmps.mps import overlap
    for i, (chi_a, chi_b) in enumerate(itertools.permutations(range(1, 5), 2)):
        n = 2 + i % 5
        a = sample_rmps(n, 2, chi_a, subseed(127, 2 * i), homogeneous=bool(i % 2),
                        boundary="pbc")
        b = sample_rmps(n, 2, chi_b, subseed(127, 2 * i + 1), boundary="pbc")
        want = np.vdot(a.to_dense().amplitudes, b.to_dense().amplitudes)
        assert abs(overlap(a, b) - want) < 1e-10
        assert abs(overlap(b, a) - want.conjugate()) < 1e-10


def test_expectation_matches_dense():
    """Product observables on 1 to 3 contiguous sites, both boundaries."""
    for rng, m in random_cases(109, 30):
        n = m.n_sites
        length = int(rng.integers(1, min(3, n) + 1))
        start = int(rng.integers(0, n - length + 1))
        ops = []
        for _ in range(length):
            h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            ops.append(h + h.conj().T)
        obs = LocalObservable(tuple(ops), start)
        full = np.eye(1)
        for k in range(n):
            full = np.kron(full, ops[k - start] if start <= k < start + length else np.eye(2))
        psi = m.to_dense().amplitudes
        want = (np.vdot(psi, full @ psi) / np.vdot(psi, psi)).real
        assert abs(m.expectation(obs) - want) < 1e-10


def test_reduced_density_matrix_matches_dense():
    """Contiguous one- and two-site blocks at every position."""
    for rng, m in random_cases(113, 25, n_max=5):
        n = m.n_sites
        state = m.to_dense().normalized()
        for length in (1, 2):
            for start in range(n - length + 1):
                got = m.reduced_density_matrix(start, length).matrix
                want = partial_trace(state, range(start, start + length)).matrix
                assert np.abs(got - want).max() < 1e-10


def test_site_density_matrices_match_dense():
    for _, m in random_cases(127, 25):
        state = m.to_dense().normalized()
        rhos = m.site_density_matrices()
        for k in range(m.n_sites):
            want = partial_trace(state, [k]).matrix
            assert np.abs(rhos[k] - want).max() < 1e-10


def test_entanglement_measure_routes_agree():
    """Q from the engine's one-site reductions equals the dense definition."""
    for _, m in random_cases(131, 20):
        rhos = m.site_density_matrices()
        purities = np.einsum("kij,kji->k", rhos, rhos).real
        q_mps = 2.0 - 2.0 * purities.mean()
        q_dense = global_entanglement(m.to_dense().normalized())
        assert abs(q_mps - q_dense) < 1e-10

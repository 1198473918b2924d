"""End-to-end acceptance checks at desk scale.

Each test covers one headline property of the package: oracle
equivalence of the tensor-network contractions, mixedness of the
ensemble average, purity scaling, closed-form Haar constants,
convergence toward the Haar ensemble with bond dimension, concentration
of local observables, the typicality bound, the randomized invariant
battery, and the twirl projector.  Every test prints a single PASS/FAIL
summary line that stays visible under pytest's capture, and asserts its
own wall-time budget.

Seeds and tolerances are frozen; the statistical checks were sized so
that a correct implementation passes with large margins.  Every
reference constant is exact, including the smallest-eigenvalue mean at
unbalanced splits (dense.cue_min_eigenvalue).
"""

import time

import numpy as np

from rmps import dense, ensembles
from rmps.dense import (
    DensityMatrix,
    cue_global_entanglement,
    haar_twirl_monte_carlo,
    hs_distance,
    partial_trace,
    permutation_twirl,
    trace_distance,
    typicality_bound,
)
from rmps.ensembles import CueSource, EnsembleSpec, RmpsSource, draw_mps
from rmps.haar import Seed, as_seed, haar_state, subseed
from rmps.mps import LocalObservable, overlap, sample_rmps, transfer_identity

SZ = np.array([[1.0, 0.0], [0.0, -1.0]])


def _verdict(capsys, label, failures, detail, wall, limit):
    """Print the always-visible one-line summary, then assert."""
    ok = not failures and wall <= limit
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {label}: {detail} "
              f"[{wall:.1f}s / limit {limit:.0f}s]")
    assert wall <= limit, f"{label} exceeded the {limit:.0f}s budget: {wall:.1f}s"
    assert not failures, f"{label}: " + "; ".join(failures)


def random_density(dim, seed):
    """Random full-rank density matrix from a Ginibre square."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def test_oracle_equivalence_randomized(capsys):
    """100 random configurations (N <= 10, qubits, chi <= 8, both
    boundaries): norm, overlap, expectation (up to 3 sites) and reduced
    density matrices (up to 2 sites) match the dense oracle to 1e-8."""
    start = time.perf_counter()
    tol = 1e-8
    rng = np.random.default_rng(2718)
    failures = []
    worst = {"norm": 0.0, "overlap": 0.0, "expect": 0.0, "rdm": 0.0}
    for case in range(100):
        nn = int(rng.integers(2, 11))
        chi = int(rng.integers(1, 9))
        boundary = "obc" if case % 2 == 0 else "pbc"
        homog = bool(rng.integers(0, 2))
        m = sample_rmps(nn, 2, chi, Seed(int(rng.integers(0, 2**63))),
                        homogeneous=homog, boundary=boundary)
        psi = m.to_dense().amplitudes
        worst["norm"] = max(worst["norm"], abs(m.norm_squared() - np.vdot(psi, psi).real))
        # second, independently sized state for the overlap (same chi on
        # rings, where the trace closure fixes the bond dimension pair)
        chi2 = int(rng.integers(1, 9)) if boundary == "obc" else chi
        m2 = sample_rmps(nn, 2, chi2, Seed(int(rng.integers(0, 2**63))),
                         boundary=boundary)
        psi2 = m2.to_dense().amplitudes
        worst["overlap"] = max(worst["overlap"], abs(overlap(m, m2) - np.vdot(psi, psi2)))
        ll = int(rng.integers(1, 4))
        if ll <= nn:
            sites = []
            for _ in range(ll):
                h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                sites.append(h + h.conj().T)
            st = int(rng.integers(0, nn - ll + 1))
            obs = LocalObservable(tuple(sites), st)
            op = sites[0]
            for s in sites[1:]:
                op = np.kron(op, s)
            full = np.kron(np.kron(np.eye(2**st), op), np.eye(2 ** (nn - st - ll)))
            want = (np.vdot(psi, full @ psi) / np.vdot(psi, psi)).real
            worst["expect"] = max(worst["expect"], abs(m.expectation(obs) - want))
        lr = min(int(rng.integers(1, 3)), nn)
        st = int(rng.integers(0, nn - lr + 1))
        got = m.reduced_density_matrix(st, lr).matrix
        psin = psi / np.linalg.norm(psi)
        t = psin.reshape((2,) * nn)
        keep = tuple(range(st, st + lr))
        rest = tuple(i for i in range(nn) if i not in keep)
        a = t.transpose(keep + rest).reshape(2**lr, -1)
        want = a @ a.conj().T
        worst["rdm"] = max(worst["rdm"], np.abs(got - want).max())
    for name, err in worst.items():
        if err > tol:
            failures.append(f"{name} error {err:.2e} > {tol:.0e}")
    detail = " ".join(f"{k}={v:.1e}" for k, v in worst.items())
    _verdict(capsys, "oracle-equivalence", failures, detail,
             time.perf_counter() - start, 120.0)


def test_average_state_mixed_for_any_bond_dimension(capsys):
    """N=3 qubits, r=2000: the trace distance of the empirical average
    to I/8 agrees between chi=2, chi=4 and the Haar ensemble within
    mutual 3*stderr; the average is mixed at any bond dimension."""
    start = time.perf_counter()
    failures = []
    reps = {}
    for label, src in (("chi2", RmpsSource(3, 2, 2)), ("chi4", RmpsSource(3, 2, 4)),
                       ("cue", CueSource((2, 2, 2)))):
        reps[label] = ensembles.average_state_distance(
            EnsembleSpec(src, 2000, as_seed(20)))
    zs = {}
    for a, b in (("chi2", "chi4"), ("chi2", "cue"), ("chi4", "cue")):
        z = abs(reps[a].value - reps[b].value) / np.hypot(reps[a].stderr, reps[b].stderr)
        zs[f"{a}/{b}"] = z
        if z > 3.0:
            failures.append(f"{a} vs {b}: |dv|={abs(reps[a].value - reps[b].value):.4f} "
                            f"is z={z:.1f} > 3")
    detail = " ".join(f"{k}: z={v:.2f}" for k, v in zs.items())
    _verdict(capsys, "average-state-mixedness", failures, detail,
             time.perf_counter() - start, 300.0)


def test_purity_tracks_inverse_dimension(capsys):
    """chi=2, r=500, N in {10,15,20,25,30}: the cross-term purity tracks
    2^-N with relative error at most 0.5 at every N and no systematic
    growth between the smallest and largest chain."""
    start = time.perf_counter()
    failures = []
    rels = {}
    for nn in (10, 15, 20, 25, 30):
        spec = EnsembleSpec(RmpsSource(nn, 2, 2), 500, subseed(30, nn))
        rep = ensembles.purity_of_average_via_overlaps(spec)
        rels[nn] = ensembles.purity_relative_error(spec, rep)
        if abs(rels[nn]) > 0.5:
            failures.append(f"N={nn}: |rel|={abs(rels[nn]):.3f} > 0.5")
    if abs(rels[30]) > abs(rels[10]) + 0.3:
        failures.append(f"relative error grows: |rel(30)|={abs(rels[30]):.3f} "
                        f"vs |rel(10)|={abs(rels[10]):.3f}")
    detail = " ".join(f"N{n}={r:+.3f}" for n, r in rels.items())
    _verdict(capsys, "purity-scaling", failures, detail,
             time.perf_counter() - start, 900.0)


def test_haar_closed_form_constants(capsys):
    """r=5000 Haar samples against the closed forms: Tr rho_A^2 at
    (4, 16) vs 20/65 within 3*stderr, mean Q at n=4 vs 14/17 within
    3*stderr, and the mean smallest eigenvalue at d_a=4 in six qubits
    vs the exact 4-by-16 split value cue_min_eigenvalue(4, 16) within
    5*stderr."""
    start = time.perf_counter()
    failures = []
    spec6 = EnsembleSpec(CueSource((2,) * 6), 5000, as_seed(40))
    m2 = ensembles.moment_comparison(spec6, 4, 2)
    z_m2 = m2.value / m2.stderr
    if m2.value > 3 * m2.stderr:
        failures.append(f"m2 dev {m2.value:.5f} > 3*stderr ({z_m2:.1f} sigma)")
    spec4 = EnsembleSpec(CueSource((2,) * 4), 5000, as_seed(41))
    _, q_rep, _ = ensembles.q_statistics(spec4)
    z_q = abs(q_rep.value - cue_global_entanglement(4)) / q_rep.stderr
    if z_q > 3.0:
        failures.append(f"qbar {q_rep.value:.5f} vs {14 / 17:.5f} is {z_q:.1f} sigma")
    lmin = ensembles.min_eig_comparison(spec6, 4)
    z_l = lmin.value / lmin.stderr
    if lmin.value > 5 * lmin.stderr:
        failures.append(f"min-eig mean {lmin.per_sample.mean():.6f} vs reference "
                        f"{dense.cue_min_eigenvalue(4, 16):.6f} is {z_l:.0f} sigma")
    detail = f"m2 z={z_m2:.2f} qbar z={z_q:.2f} min-eig z={z_l:.0f}"
    _verdict(capsys, "haar-constants", failures, detail,
             time.perf_counter() - start, 600.0)


def test_deviations_shrink_with_bond_dimension(capsys):
    """N=6, r=2000, chi from 2 to 32: |mean Q - Haar|, the m=2 moment
    deviation, and the smallest-eigenvalue deviation are non-increasing
    in chi within 2*stderr.  The eigenvalue deviation is measured
    against the exact Haar mean of this 4-by-16 split."""
    start = time.perf_counter()
    failures = []
    q_exact = cue_global_entanglement(6)
    rows = []
    for idx, chi in enumerate((2, 4, 8, 16, 32)):
        spec = EnsembleSpec(RmpsSource(6, 2, chi), 2000, subseed(50, idx))
        _, q_rep, _ = ensembles.q_statistics(spec)
        m = ensembles.moment_comparison(spec, 4, 2)
        e = ensembles.min_eig_comparison(spec, 4)
        rows.append((chi, abs(q_rep.value - q_exact), q_rep.stderr,
                     m.value, m.stderr, e.value, e.stderr))
    for (c1, q1, qs1, m1, ms1, e1, es1), (c2, q2, qs2, m2, ms2, e2, es2) in zip(rows, rows[1:]):
        if q2 > q1 + 2 * np.hypot(qs1, qs2):
            failures.append(f"Q dev rises chi{c1}->chi{c2}: {q1:.4f}->{q2:.4f}")
        if m2 > m1 + 2 * np.hypot(ms1, ms2):
            failures.append(f"moment dev rises chi{c1}->chi{c2}: {m1:.4f}->{m2:.4f}")
        if e2 > e1 + 2 * np.hypot(es1, es2):
            failures.append(f"min-eig dev rises chi{c1}->chi{c2}: {e1:.4f}->{e2:.4f}")
    detail = ("Qdev " + "->".join(f"{r[1]:.3f}" for r in rows)
              + " m2dev " + "->".join(f"{r[3]:.3f}" for r in rows)
              + " ldev " + "->".join(f"{r[5]:.3f}" for r in rows))
    _verdict(capsys, "bond-dimension-convergence", failures, detail,
             time.perf_counter() - start, 900.0)


def test_local_observable_concentration(capsys):
    """sigma_z on one site, chi=N, N in {4,8,16}, r=2000: the sample
    spread falls with N, each drop significant at 2 sigma; and the
    spread of Q at N=6 sits below N=4 at 3 sigma (chi=16)."""
    start = time.perf_counter()
    failures = []
    obs = LocalObservable((SZ,), 0)
    reports = ensembles.concentration_scan(obs, lambda n: n, [4, 8, 16],
                                           2000, as_seed(60))
    drops = []
    for a, b in zip(reports, reports[1:]):
        z = (a.value - b.value) / np.hypot(a.stderr, b.stderr)
        drops.append(z)
        if z < 2.0:
            failures.append(f"spread drop {a.estimator}->{b.estimator} "
                            f"only {z:.1f} sigma")
    stds = {}
    for nn in (4, 6):
        spec = EnsembleSpec(RmpsSource(nn, 2, 16), 2000, as_seed(61))
        _, _, std_rep = ensembles.q_statistics(spec)
        stds[nn] = std_rep
    z_q = (stds[4].value - stds[6].value) / np.hypot(stds[4].stderr, stds[6].stderr)
    if z_q < 3.0:
        failures.append(f"stddev(Q) N=6 not below N=4 at 3 sigma (z={z_q:.1f})")
    detail = (" ".join(f"drop z={z:.1f}" for z in drops)
              + f" qstd z={z_q:.1f}")
    _verdict(capsys, "concentration", failures, detail,
             time.perf_counter() - start, 900.0)


def test_subsystem_distance_within_typicality_bound(capsys):
    """Haar states, one-qubit block, bath sizes 5..9 qubits, r=500: the
    mean trace distance to I/2 stays below sqrt(d_S/d_B) + 3*stderr."""
    start = time.perf_counter()
    failures = []
    margins = []
    for idx, bath in enumerate((5, 6, 7, 8, 9)):
        spec = EnsembleSpec(CueSource((2,) * (1 + bath)), 500, subseed(70, idx))
        rep = ensembles.subsystem_distance_stats(spec, 1)
        bound = typicality_bound(2, 2**bath)
        margins.append(bound + 3 * rep.stderr - rep.value)
        if rep.value > bound + 3 * rep.stderr:
            failures.append(f"bath={bath}: mean {rep.value:.4f} above "
                            f"bound {bound:.4f} + 3*stderr")
    detail = " ".join(f"bath{b}:margin={m:+.4f}"
                      for b, m in zip((5, 6, 7, 8, 9), margins))
    _verdict(capsys, "typicality-bound", failures, detail,
             time.perf_counter() - start, 300.0)


def test_invariant_battery(capsys):
    """Over 1000 randomized cases across five invariant families:
    sampled tensors are isometries, vec(I) is a left fixed point of the
    identity transfer matrix, reduced states are valid density matrices,
    ensembles are deterministic and draw-order invariant, and both
    distances behave as metrics."""
    start = time.perf_counter()
    failures = []
    cases = 0

    # isometry + left fixed point, 250 random states each
    for i in range(250):
        rng = np.random.default_rng(8000 + i)
        nn = int(rng.integers(2, 7))
        chi = int(rng.integers(1, 9))
        m = sample_rmps(nn, 2, chi, subseed(80, i),
                        homogeneous=bool(rng.integers(0, 2)),
                        boundary="obc" if i % 2 == 0 else "pbc")
        if m.max_isometry_defect() > 1e-12:
            failures.append(f"isometry defect {m.max_isometry_defect():.2e} (case {i})")
        cases += 1
        v = np.eye(chi).reshape(-1)
        site = int(rng.integers(0, nn))
        if np.abs(v @ transfer_identity(m, site) - v).max() > 1e-10:
            failures.append(f"left fixed point violated (case {i})")
        cases += 1

    # density-matrix validity: reduced states of random MPS and dense
    # partial traces (the constructors validate hermiticity, unit trace
    # and positivity)
    for i in range(200):
        rng = np.random.default_rng(9000 + i)
        nn = int(rng.integers(2, 6))
        if i % 2 == 0:
            m = sample_rmps(nn, 2, int(rng.integers(1, 7)), subseed(81, i))
            ll = int(rng.integers(1, min(nn, 2) + 1))
            st = int(rng.integers(0, nn - ll + 1))
            rho = m.reduced_density_matrix(st, ll)
        else:
            state = dense.haar_dense_state((2,) * nn, subseed(82, i))
            keep = sorted(rng.choice(nn, size=int(rng.integers(1, nn)), replace=False))
            rho = partial_trace(state, keep)
        try:
            DensityMatrix(rho.dims, rho.matrix)
        except Exception as exc:  # validation must accept every reduced state
            failures.append(f"invalid reduced state (case {i}): {exc}")
        cases += 1

    # determinism and draw-order invariance, 75 ensembles each
    for i in range(75):
        spec = EnsembleSpec(RmpsSource(3, 2, 4), 8, subseed(83, i))
        first = [draw_mps(spec, k).tensors for k in range(8)]
        again = [draw_mps(spec, k).tensors for k in range(8)]
        if not all(all(np.array_equal(a, b) for a, b in zip(ta, tb))
                   for ta, tb in zip(first, again)):
            failures.append(f"redraw not deterministic (case {i})")
        cases += 1
        order = np.random.default_rng(i).permutation(8)
        shuffled = {int(k): draw_mps(spec, int(k)).tensors for k in order}
        if not all(all(np.array_equal(a, b) for a, b in zip(first[k], shuffled[k]))
                   for k in range(8)):
            failures.append(f"draw order changes samples (case {i})")
        cases += 1

    # metric properties on 200 random triples
    for i in range(200):
        dim = int(np.random.default_rng(i).integers(2, 7))
        a = random_density(dim, 3 * i)
        b = random_density(dim, 3 * i + 1)
        c = random_density(dim, 3 * i + 2)
        for metric in (trace_distance, hs_distance):
            if metric(a, b) != metric(b, a):
                failures.append(f"asymmetric {metric.__name__} (case {i})")
            if metric(a, c) > metric(a, b) + metric(b, c) + 1e-10:
                failures.append(f"triangle violated for {metric.__name__} (case {i})")
        cases += 1

    if cases < 1000:
        failures.append(f"only {cases} randomized cases")
    detail = f"{cases} cases, {len(failures)} violations"
    _verdict(capsys, "invariant-suite", failures, detail,
             time.perf_counter() - start, 300.0)


def test_twirl_matches_permutation_projector(capsys):
    """Single-copy Monte-Carlo twirl at dims 2, 3, 4 with r=1e5 stays
    within 5/sqrt(r) of the maximally entangled projector in every
    entry; the two-copy comparison against the unit-normalized
    permutation expression is recorded without assertion."""
    start = time.perf_counter()
    failures = []
    r = 10**5
    devs = {}
    for n in (2, 3, 4):
        mc = haar_twirl_monte_carlo(1, n, r, as_seed(90 + n))
        devs[n] = np.abs(mc - permutation_twirl(1, n)).max()
        if devs[n] > 5 / np.sqrt(r):
            failures.append(f"dim {n}: max dev {devs[n]:.5f} > {5 / np.sqrt(r):.5f}")
    # two copies: the permutation expression is not the exact twirl at
    # finite dimension, so the deviation is recorded, not asserted
    table = []
    for n in (2, 3, 4):
        mc2 = haar_twirl_monte_carlo(2, n, 10**4, as_seed(96 + n))
        table.append(f"dim{n}={np.abs(mc2 - permutation_twirl(2, n)).max():.4f}")
    detail = (" ".join(f"dim{n}:dev={d:.4f}" for n, d in devs.items())
              + " | two-copy recorded: " + " ".join(table))
    _verdict(capsys, "twirl-projector", failures, detail,
             time.perf_counter() - start, 300.0)

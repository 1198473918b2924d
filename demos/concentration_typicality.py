"""
Concentration of local observables and the typicality bound
===========================================================

"""

import numpy as np

from rmps.dense import typicality_bound
from rmps.ensembles import (
    CueSource,
    EnsembleSpec,
    RmpsSource,
    concentration_scan,
    subsystem_distance_stats,
)
from rmps.mps import LocalObservable

# A single-site observable on a random MPS has mean zero (by symmetry)
# and a spread that shrinks as the chain grows, provided the bond
# dimension grows with it: individual states look alike.
sz = np.array([[1.0, 0.0], [0.0, -1.0]])
obs = LocalObservable((sz,), 0)
for rep in concentration_scan(obs, lambda n: n, [4, 8, 16], 800, 9):
    print(f"{rep.estimator}: spread of <sigma_z> = {rep.value:.4f} "
          f"+- {rep.stderr:.4f}")

# At fixed bond dimension the spread plateaus instead: chi caps how
# much the chain can self-average.
for rep in concentration_scan(obs, lambda n: 4, [8, 16, 32], 800, 10):
    print(f"fixed chi=4, {rep.estimator}: spread = {rep.value:.4f}")

# Typicality: a small block of a random state on a large total space
# is close to maximally mixed, with mean trace distance bounded by
# sqrt(d_S/d_B).  Watch the bound and the measured distance fall
# together as the bath grows.
for bath in (5, 7, 9):
    spec = EnsembleSpec(CueSource((2,) * (1 + bath)), 300, 11)
    rep = subsystem_distance_stats(spec, 1)
    bound = typicality_bound(2, 2**bath)
    print(f"bath={bath} qubits: mean distance {rep.value:.4f} "
          f"<= bound {bound:.4f}")

# For MPS the same saturation happens in the chain length at fixed
# block and bond dimension.
for n in (9, 17, 33):
    spec = EnsembleSpec(RmpsSource(n, 2, 8), 300, 12)
    rep = subsystem_distance_stats(spec, 1)
    print(f"N={n:2d}, chi=8: mean one-site distance = {rep.value:.4f}")

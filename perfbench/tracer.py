"""Per-layer spans for a traced benchmark run, recorded from outside rmps.

The package imports by name (``from .haar import haar_unitary``), so a
wrapper only sees the calls made through the name it replaces.  Each
layer below lists the names its callers resolve: ``rmps.mps.haar_unitary``
rather than ``rmps.haar.haar_unitary``, ``rmps.ensembles.sample_rmps``,
and methods on their class.  Spans are aggregated in memory per layer:
calls, total time, self time (total minus the time of child spans) and
a count per parent layer.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter

# layer name -> install points "module:attribute[.attribute]"
LAYERS = {
    "haar.haar_unitary": ["rmps.mps:haar_unitary", "rmps.dense:haar_unitary"],
    "haar.haar_state": ["rmps.mps:haar_state", "rmps.dense:haar_state"],
    "mps.sample_rmps": ["rmps.ensembles:sample_rmps"],
    "mps.a_matrices_from_unitary": ["rmps.mps:a_matrices_from_unitary"],
    "mps.site_density_matrices": ["rmps.mps:Mps.site_density_matrices"],
    "mps.reduced_density_matrix": ["rmps.mps:Mps.reduced_density_matrix"],
    "mps.norm_squared": ["rmps.mps:Mps.norm_squared"],
    "mps.to_dense": ["rmps.mps:Mps.to_dense"],
    # construction time is the validation in __post_init__, eigensolve included
    "dense.DensityMatrix": ["rmps.dense:DensityMatrix.__post_init__"],
    "dense.purity_moment": ["rmps.dense:purity_moment"],
    "dense.min_eigenvalue": ["rmps.dense:min_eigenvalue"],
    "dense.trace_distance": ["rmps.dense:trace_distance"],
    "ensembles.draw_mps": ["rmps.ensembles:draw_mps"],
    "ensembles.draw_dense": ["rmps.ensembles:draw_dense"],
    "ensembles.q_statistics": ["rmps.ensembles:q_statistics"],
    "ensembles.moment_comparison": ["rmps.ensembles:moment_comparison"],
    "ensembles.purity_of_average_via_overlaps":
        ["rmps.ensembles:purity_of_average_via_overlaps"],
    "ensembles.average_state_distance": ["rmps.ensembles:average_state_distance"],
    "cli.write_table": ["rmps.cli:write_table"],
    "cli.run": ["rmps.cli:run"],
}

# layers whose wrappers also record the (spec, index) sample they draw
_SAMPLERS = ("ensembles.draw_mps", "ensembles.draw_dense")

# one eigensolve per call: DensityMatrix validation and each estimator
_EIGENSOLVERS = ("dense.DensityMatrix", "dense.purity_moment",
                 "dense.min_eigenvalue", "dense.trace_distance")


class Tracer:
    """Wraps every install point of LAYERS and aggregates its spans."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.parents: dict[str, Counter] = {name: Counter() for name in LAYERS}
        self.samples: dict[str, set] = {name: set() for name in _SAMPLERS}
        self.missing: list[str] = []
        self._stack: list[list] = []  # open spans: [layer, child time]

    def install(self) -> None:
        """Replace each install point by a wrapper; a point a refactor
        removed is listed in ``missing`` and its layer reads zero."""
        for layer, points in LAYERS.items():
            for point in points:
                module_name, _, path = point.partition(":")
                owner = importlib.import_module(module_name)
                *owners, attr = path.split(".")
                for name in owners:
                    owner = getattr(owner, name, None)
                fn = getattr(owner, attr, None)
                if fn is None:
                    self.missing.append(point)
                    continue
                setattr(owner, attr, self._wrap(layer, fn))

    def _wrap(self, layer: str, fn):
        stack, clock = self._stack, time.perf_counter
        samples = self.samples.get(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if samples is not None:
                samples.add(args[:2])  # (spec, index)
            parent = stack[-1][0] if stack else None
            span = [layer, 0.0]
            stack.append(span)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self.calls[layer] += 1
                self.total[layer] += dt
                self.self_time[layer] += dt - span[1]
                self.parents[layer][parent] += 1
                if stack:
                    stack[-1][1] += dt

        return wrapper

    def summary(self) -> dict:
        """Per-layer aggregates plus the exact waste counters."""
        mps_samples = len(self.samples["ensembles.draw_mps"])
        all_samples = len(self.samples["ensembles.draw_mps"]
                          | self.samples["ensembles.draw_dense"])
        eigensolves = sum(self.calls[name] for name in _EIGENSOLVERS)
        return {
            "layers": {name: {"calls": self.calls[name], "s": self.total[name],
                              "self_s": self.self_time[name],
                              "parents": {str(p): c for p, c in self.parents[name].items()}}
                       for name in LAYERS},
            "counters": {
                "samples": all_samples,
                "mps_samples": mps_samples,
                "eigensolves": eigensolves,
            },
            "missing": self.missing,
        }

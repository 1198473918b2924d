"""The benchmark tracer's install points still name the package's layers."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# listed by the tracer, gone from the package since rmps.mps samples
# through Ginibre normals and a thin QR, and since rmps.ensembles draws every
# matrix product state through mps._sample_stack
STALE = {"rmps.mps:haar_unitary", "rmps.ensembles:sample_rmps"}


def test_tracer_install_points_resolve():
    """Every install point of the tracer's LAYERS resolves to a callable,
    checked without installing a wrapper: a refactor that renames a
    traced function would otherwise leave its layer reading zero."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for points in tracer.LAYERS.values():
        for point in points:
            module_name, _, path = point.partition(":")
            owner = importlib.import_module(module_name)
            for name in path.split("."):
                owner = getattr(owner, name, None)
            if not callable(owner):
                missing.append(point)
    assert set(missing) <= STALE, missing

"""Seedable Haar-random sources.

All randomness in this package flows through this module so that every
ensemble is reproducible from a single 64-bit master seed.  Generators
are counter-based (Philox), and per-sample seeds are derived with a
splitmix64 chain, so a batch of samples gives identical results no
matter how it is split across workers or evaluation order.

A Philox stream depends only on its key, so one generator serves a
whole sample: ``rekey`` resets it to the start of the stream a fresh
``generator(seed)`` would give, and a sampler passes it in place of the
seed of each draw.  Re-keying costs a fifth of building a generator,
whose construction also draws OS entropy that the key then overrides.
A sampler derives all its keys in one ``subseed_keys`` pass over uint64
arrays, and ``rekey`` takes such a key as it is.  Each Ginibre matrix or
Haar state is one ``normals`` draw into a reusable buffer, real parts first.
A Haar isometry is the Q of a QR decomposition with its columns' phases
fixed against R's diagonal (``fix_phases``, which owns the phase rule and
the isometry check): per call in ``haar_isometry``, and once over a
sampler's whole stack of thin Q factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionError

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # splitmix64 increment


def _mix64(x):
    """splitmix64 finalizer; a bijection on 64-bit integers, applied to
    a Python int or elementwise to a uint64 array."""
    x = x & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


@dataclass(frozen=True)
class Seed:
    """A 64-bit unsigned seed value."""

    value: int

    def __post_init__(self) -> None:
        if not isinstance(self.value, int) or isinstance(self.value, bool):
            raise TypeError(f"seed value must be an integer, got {type(self.value).__name__}")
        if not 0 <= self.value <= _MASK64:
            raise ValueError(f"seed value must fit in 64 unsigned bits, got {self.value}")


def as_seed(seed: Seed | int) -> Seed:
    """Coerce an integer to a Seed; Seed instances pass through."""
    return seed if isinstance(seed, Seed) else Seed(seed)


def subseed(seed: Seed | int, index: int) -> Seed:
    """Derive the index-th child of a seed.

    Chains one splitmix64 step with its finalizer.  The finalizer is a
    bijection and the step increment is odd, so for a fixed parent the
    map index -> child seed is injective: distinct sample indices can
    never collide.
    """
    if index < 0:
        raise ValueError(f"subseed index must be nonnegative, got {index}")
    parent = as_seed(seed)
    return Seed(_mix64((parent.value + (index + 1) * _GAMMA) & _MASK64))


def subseed_keys(seeds: Sequence[Seed | int] | np.ndarray, indices: Sequence[int]) -> np.ndarray:
    """The (len(seeds), len(indices)) uint64 array of subseed(s, k).value
    for each seed s and index k: one splitmix64 pass over arrays, never
    over numpy scalars, whose overflow warns."""
    if not isinstance(seeds, np.ndarray):
        seeds = [as_seed(s).value for s in seeds]
    steps = (np.asarray(indices, dtype=np.uint64) + 1) * _GAMMA
    return _mix64(np.asarray(seeds, dtype=np.uint64).reshape(-1, 1) + steps)


def generator(seed: Seed | int | np.random.Generator) -> np.random.Generator:
    """Counter-based random generator keyed by the seed; a Generator
    passes through unchanged."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.Philox(key=as_seed(seed).value))


_ZEROS4 = np.zeros(4, dtype=np.uint64)


def rekey(rng: np.random.Generator, seed: Seed | int | np.uint64) -> np.random.Generator:
    """Reset a Philox generator to key [seed, 0], counter 0 and an empty
    buffer, and return it: bitwise the stream generator(seed) starts,
    whatever the generator drew before.  A uint64 key of subseed_keys
    is used as it is."""
    key = seed if isinstance(seed, np.uint64) else as_seed(seed).value
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS4, "key": (key, 0)},
        "buffer": _ZEROS4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return rng


def ginibre(n: int, seed: Seed | int | np.random.Generator) -> np.ndarray:
    """n x n matrix of i.i.d. standard complex Gaussian entries x + iy, x
    and y independent N(0, 1): one ``normals`` draw, all real parts before
    the imaginary ones, which pins the exact output for a given seed."""
    if n < 1:
        raise DimensionError(f"matrix dimension must be positive, got {n}")
    x, y = normals(np.empty((2, n, n)), seed)
    return x + 1j * y


def haar_unitary(n: int, seed: Seed | int | np.random.Generator) -> np.ndarray:
    """Haar-distributed n x n unitary matrix: haar_isometry of a Ginibre matrix."""
    return haar_isometry(ginibre(n, seed))


def isometry_defect(q: np.ndarray) -> float:
    """max |Q^dag Q - 1| over a matrix or a stack of matrices; NaN when
    Q holds a NaN.  The identity is subtracted in place from Q^dag Q,
    formed in floating point for integer or boolean Q."""
    gram = np.matmul(q.conj().swapaxes(-1, -2), q, dtype=np.result_type(q, 1.0))
    gram -= np.eye(q.shape[-1])
    return float(np.abs(gram).max())


# Entries of Q per slice of fix_phases (64 KiB of complex128), so that a
# sampler's whole stack makes one slice's temporaries, below glibc's
# default mmap threshold: checked whole, or in 256 KiB slices, q-sweep's
# stacks of 16 samples made a benchmark child fault 29.4k pages, not 5.5k.
_SLICE_ELEMENTS = 2**12


def fix_phases(q: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """Multiply each column of the Q factor ``q``, one matrix or a stack
    that reshapes to (matrices, rows, columns) in place, by the phase of
    its R diagonal entry in ``diag``, slice by slice of _SLICE_ELEMENTS
    entries, and return q once max |Q^dag Q - 1| <= 1e-12 over all of it.
    The phase fix makes R's diagonal real positive; without it a unitary's
    eigenvalue angles bunch up."""
    rows, cols = q.shape[-2:]
    stack, diags = q.reshape(-1, rows, cols), diag.reshape(-1, cols)
    if not np.may_share_memory(stack, q):  # fixing a copy would leave q as it is
        raise ValueError(f"a stack of shape {q.shape} does not reshape in place")
    size = max(1, _SLICE_ELEMENTS // (rows * cols))
    defect = 0.0
    for start in range(0, len(stack), size):
        part, d = stack[start:start + size], diags[start:start + size]
        part *= (d / np.abs(d))[:, np.newaxis, :]
        defect = np.maximum(defect, isometry_defect(part))  # keeps a NaN
    if not defect <= 1e-12:  # also catches the NaN phases of a singular draw
        raise ValueError(f"columns are not isometric: defect {defect:.3e} exceeds 1e-12")
    return q


def haar_isometry(z: np.ndarray) -> np.ndarray:
    """Haar-distributed orthonormal columns from Ginibre columns ``z``
    (one matrix or a stack): Q of their QR decomposition, phase-fixed
    and checked by fix_phases against R's diagonal."""
    q, r = np.linalg.qr(z)
    return fix_phases(q, np.diagonal(r, axis1=-2, axis2=-1))


def haar_state(n: int, seed: Seed | int | np.random.Generator) -> np.ndarray:
    """Haar-random unit vector in C^n.

    A normalized vector of i.i.d. complex Gaussians; by unitary
    invariance this has the same distribution as the first column of a
    Haar unitary, at a fraction of the cost.
    """
    if n < 1:
        raise DimensionError(f"state dimension must be positive, got {n}")
    x, y = normals(np.empty((2, n)), seed)
    v = x + 1j * y
    return v / np.linalg.norm(v)


def normals(out: np.ndarray, seed: Seed | int | np.random.Generator) -> np.ndarray:
    """Fill a contiguous (2, *shape) float64 buffer from generator(seed),
    fresh or re-keyed, and return it: bitwise the array of
    generator(seed).standard_normal((2, *shape)), real parts first."""
    return generator(seed).standard_normal(out=out)


def require_unitary(u: np.ndarray) -> None:
    """Raise unless ``u`` is unitary: max |U^dag U - I| <= 1e-12."""
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {u.shape}")
    defect = isometry_defect(u)
    if not defect <= 1e-12:  # NaN entries give a NaN defect
        raise ValueError(f"matrix is not unitary: defect {defect:.3e} exceeds 1e-12")

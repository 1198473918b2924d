"""Dense reference implementations.

Everything here materializes full state vectors or density matrices, so
it only works for small systems.  It serves two purposes: it is the
ground truth the tensor-network code is tested against, and it hosts
the exact ensemble references (moments of reduced Haar-random states,
typicality bounds, twirl expressions) that the experiments compare to.

Size caps guard against accidentally allocating astronomically large
objects; each is a fixed module constant, checked before allocation.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import CapExceededError, DimensionError
from .haar import Seed, generator, haar_state, haar_unitary, rekey, subseed_keys

# Ceilings: 2^20 amplitudes for a dense pure state and 2^10 for
# the linear dimension of anything stored as a full matrix.
DENSE_AMPLITUDE_CAP = 2**20
DENSITY_DIM_CAP = 2**10
# Largest d_a * d_b (with d_a <= d_b) at which cue_min_eigenvalue computes
# its exact rational.  The cost climbs steeply with the total dimension:
# under CPython 3.11 on a 2-core x86 box the slowest split at 2^8, (8, 32),
# took 0.7-0.9 s, while at 2^9 the split (16, 32) took 14 s and at 2^10 the
# split (4, 256) took 35 s.
CUE_MIN_EIG_DIM_CAP = 2**8
# Bins of a Q histogram, each one table row.  `rmps run` of q-histogram at
# r = 3 and 1 BLAS thread on a 2-core x86 box took 0.23 s, 71 MiB of peak
# RSS and a 2.5 MB table at 2^16 bins (38 MiB at 100 bins); at 2^20 bins it
# took 3.9 s, 568 MiB and a 42 MB table.
HISTOGRAM_BIN_CAP = 2**16


def check_amplitude_cap(total_dim: int) -> None:
    if total_dim > DENSE_AMPLITUDE_CAP:
        raise CapExceededError(f"dense state of dimension {_size(total_dim)} exceeds cap "
                               f"{DENSE_AMPLITUDE_CAP}")


def check_density_cap(dim: int) -> None:
    if dim > DENSITY_DIM_CAP:
        raise CapExceededError(f"density matrix of dimension {_size(dim)} exceeds cap "
                               f"{DENSITY_DIM_CAP}")


def check_min_eig_cap(d_a: int, d_b: int) -> None:
    if d_a <= d_b and d_a * d_b > CUE_MIN_EIG_DIM_CAP:
        raise CapExceededError(f"exact min-eigenvalue reference at d_a * d_b = "
                               f"{_size(d_a * d_b)} exceeds cap {CUE_MIN_EIG_DIM_CAP}")


def check_bin_cap(bins: int) -> None:
    if bins > HISTOGRAM_BIN_CAP:
        raise CapExceededError(f"histogram of {_size(bins)} bins exceeds cap {HISTOGRAM_BIN_CAP}")


def _size(dim: int) -> str:
    """A dimension in decimal, or past 2^64 as the power of two it reaches:
    CPython formats no int of more than 4300 digits."""
    bits = int(dim).bit_length()
    return str(dim) if bits <= 64 else f">= 2^{bits - 1}"


def _validated_dims(dims: Iterable[int]) -> tuple[int, ...]:
    out = tuple(operator.index(d) for d in dims)
    if len(out) == 0 or any(d < 1 for d in out):
        raise DimensionError(f"site dimensions must be positive integers, got {out}")
    return out


@dataclass(frozen=True)
class DenseState:
    """Dense pure state of a chain of sites.

    ``dims`` lists the physical dimension of each site and
    ``amplitudes`` holds the coefficients in row-major site order (the
    first site is the slowest-varying index).
    """

    dims: tuple[int, ...]
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        dims = _validated_dims(self.dims)
        amps = np.asarray(self.amplitudes, dtype=np.complex128).ravel()
        if amps.size != math.prod(dims):
            raise DimensionError(
                f"amplitude count {amps.size} does not match site dims {dims}"
            )
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def total_dim(self) -> int:
        return self.amplitudes.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "DenseState":
        return DenseState(self.dims, _normalized_rows(self.amplitudes[np.newaxis])[0])


def _normalized_rows(rows: np.ndarray) -> np.ndarray:
    """The states in the rows of ``rows``, each divided by its own norm."""
    norms = np.array([np.linalg.norm(row) for row in rows])
    if not norms.all():
        raise ValueError("cannot normalize the zero state")
    return rows / norms[:, np.newaxis]


@dataclass(frozen=True)
class DensityMatrix:
    """Validated density matrix with per-site dimension metadata.

    ``spectrum`` holds the eigenvalues in ascending order, from the
    eigensolve that checks positivity; estimators reuse it.
    """

    dims: tuple[int, ...]
    matrix: np.ndarray
    spectrum: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        dims = _validated_dims(self.dims)
        mat = np.asarray(self.matrix, dtype=np.complex128)
        d = math.prod(dims)
        if mat.shape != (d, d):
            raise DimensionError(f"matrix shape {mat.shape} does not match dims {dims}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "spectrum", _validated_spectra(mat[np.newaxis])[0])

    @property
    def total_dim(self) -> int:
        return self.matrix.shape[0]


def _validated_spectra(mats: np.ndarray) -> np.ndarray:
    """Ascending spectra of a stack (k, d, d) of density matrices, each
    checked to be Hermitian within 1e-10, of trace 1 within 1e-10 and
    free of eigenvalues below -1e-10."""
    if np.abs(mats - mats.conj().swapaxes(-1, -2)).max() > 1e-10:
        raise ValueError("density matrix is not Hermitian within 1e-10")
    tr = np.trace(mats, axis1=-2, axis2=-1)
    bad = np.abs(tr - 1.0) > 1e-10
    if bad.any():
        raise ValueError(f"density matrix trace {tr[bad][0]} deviates from 1 beyond 1e-10")
    spectra = np.linalg.eigvalsh(mats)
    if np.any(spectra[:, 0] < -1e-10):
        raise ValueError("density matrix has an eigenvalue below -1e-10")
    return spectra


def maximally_mixed(dims: Sequence[int]) -> DensityMatrix:
    """Identity / total dimension on the given sites."""
    dims = _validated_dims(dims)
    d = math.prod(dims)
    check_density_cap(d)
    return DensityMatrix(dims, np.eye(d, dtype=np.complex128) / d)


def haar_dense_state(dims: Sequence[int], seed: Seed | int) -> DenseState:
    """Haar-random pure state on a chain with the given site dims."""
    dims = _validated_dims(dims)
    d = math.prod(dims)
    check_amplitude_cap(d)
    return DenseState(dims, haar_state(d, seed))


def projector(state: DenseState) -> np.ndarray:
    """|psi><psi| / <psi|psi> as a bare matrix."""
    v = state.amplitudes
    n2 = np.vdot(v, v).real
    if n2 == 0.0:
        raise ValueError("cannot project the zero state")
    return np.outer(v, v.conj()) / n2


def _as_matrix(rho: DensityMatrix | np.ndarray) -> np.ndarray:
    if isinstance(rho, DensityMatrix):
        return rho.matrix
    m = np.asarray(rho, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    return m


def partial_trace(obj: DenseState | DensityMatrix, keep: Sequence[int]) -> DensityMatrix:
    """Reduced density matrix on the ``keep`` sites (ascending order).

    Accepts either a pure state or a density matrix.  Pure states are
    normalized before reduction, so the result always has unit trace.
    """
    keep = tuple(sorted(set(int(k) for k in keep)))
    dims = obj.dims
    n = len(dims)
    if len(keep) == 0:
        raise DimensionError("keep must name at least one site")
    if keep[0] < 0 or keep[-1] >= n:
        raise DimensionError(f"keep sites {keep} out of range for {n} sites")
    traced = tuple(i for i in range(n) if i not in keep)
    kept_dim = math.prod(dims[i] for i in keep)
    check_density_cap(kept_dim)

    if isinstance(obj, DenseState):
        rho = _pure_reductions(_normalized_rows(obj.amplitudes[np.newaxis]), dims, keep)[0]
    else:
        t = obj.matrix.reshape(dims + dims)
        order = keep + traced
        t = t.transpose(order + tuple(n + i for i in order))
        traced_dim = math.prod(dims[i] for i in traced) if traced else 1
        t = t.reshape(kept_dim, traced_dim, kept_dim, traced_dim)
        rho = np.einsum("itjt->ij", t)
    return DensityMatrix(tuple(dims[i] for i in keep), rho)


def _pure_reductions(rows: np.ndarray, dims: tuple[int, ...], keep: Sequence[int]) -> np.ndarray:
    """Reduced states, shape (rows, d_keep, d_keep), on the ascending
    ``keep`` sites of the pure states in the rows, as they stand."""
    traced = tuple(i for i in range(len(dims)) if i not in keep)
    psi = rows.reshape(-1, *dims).transpose(0, *(1 + i for i in (*keep, *traced)))
    a = psi.reshape(len(rows), math.prod(dims[i] for i in keep), -1)
    return a @ a.conj().swapaxes(-1, -2)


def _pure_site_states(rows: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    """All one-site reduced states, shape (rows, N, D, D), of the pure states in the rows."""
    return np.stack([_pure_reductions(rows, dims, (k,)) for k in range(len(dims))], axis=1)


def trace_distance(a: DensityMatrix | np.ndarray, b: DensityMatrix | np.ndarray) -> float:
    """Trace norm ||a - b||_1 = sum of singular values of the difference.

    Note the convention: no factor 1/2, so the distance between
    orthogonal pure states is 2.  The difference is sign-canonicalized
    before the eigensolve so that both argument orders hand the solver
    bitwise-identical input and the result is exactly symmetric.
    """
    diff = _as_matrix(a) - _as_matrix(b)
    diff = (diff + diff.conj().T) / 2.0  # difference of Hermitian inputs
    flat = diff.ravel()
    lead = flat[np.argmax(np.abs(flat.real) + np.abs(flat.imag))]
    if lead.real < 0.0 or (lead.real == 0.0 and lead.imag < 0.0):
        diff = -diff
    return float(np.abs(np.linalg.eigvalsh(diff)).sum())


def hs_distance(a: DensityMatrix | np.ndarray, b: DensityMatrix | np.ndarray) -> float:
    """Hilbert-Schmidt (Frobenius) norm ||a - b||_2."""
    return float(np.linalg.norm(_as_matrix(a) - _as_matrix(b)))


# The trapezoid rule of _trace_norm_kernel in t, y = s e^t: its step, and
# its nodes on each side of t = 0, so t runs over [-40, 40].
_NODE_STEP = 0.25
_NODE_HALF = 160


def _trace_norm_kernel(lam: np.ndarray, rho: float) -> Callable[[np.ndarray], np.ndarray]:
    """The function from rows a_i >= 0 of at most unit length to the trace
    norms of diag(lam) - rho a_i a_i^T, for real lam and rho > 0.

    As int_0^inf log((mu^2 + y^2) / (l^2 + y^2)) dy = pi (|mu| - |l|),
    summing over the eigenvalues mu of the update and l of diag(lam) gives
    ||diag(lam) - rho a a^T||_1 = sum |lam| + (1/pi) int_0^inf log|1 - h(y)|^2 dy,
    h(y) = rho sum_k a_k^2 / (lam_k + i y).  The integrand is analytic in
    y = s e^t for |Im t| < pi/2, so the trapezoid rule in t with step
    _NODE_STEP errs by about e^(-pi^2 / step) (Trefethen & Weideman, SIAM
    Rev. 56, 385 (2014)).  With s = max|lam| + rho, which bounds the
    spectrum, the tails beyond t = +-40 are below e^-40 s.  The nodes,
    -rho [Re | Im] of 1 / (lam_k + i y_n), are built once; each row's sums
    are then its own 1 x d product with them, so no row depends on the
    others.  The integrand is log1p(u (2 + u) + v^2), u + iv = -h, which
    keeps the far nodes' small h; where |1 - h|^2 < 1/2, as near a zero
    eigenvalue, that form loses the small |1 - h|, so there it is
    log((1 + u)^2 + v^2).
    """
    y = (np.abs(lam).max() + rho) * np.exp(_NODE_STEP * np.arange(-_NODE_HALF, _NODE_HALF + 1))
    nodes = np.empty((lam.size, 2 * y.size))
    re, im = np.split(nodes, 2, axis=1)
    np.add.outer(lam * lam, y * y, out=im)
    np.divide(-rho * lam[:, np.newaxis], im, out=re)
    np.divide(rho * y, im, out=im)
    weights, base = y * (_NODE_STEP / np.pi), np.abs(lam).sum()

    def norms(a: np.ndarray) -> np.ndarray:
        u, v = np.split(np.matmul((a * a)[:, np.newaxis], nodes)[:, 0], 2, axis=1)
        f = u * (2.0 + u) + v * v
        low = f < -0.5
        np.log1p(f, out=f, where=~low)
        f[low] = np.log(np.square(1.0 + u[low]) + np.square(v[low]))
        return base + np.matmul(f[:, np.newaxis], weights)[:, 0]

    return norms


def _spectrum(rho: DensityMatrix | np.ndarray) -> np.ndarray:
    """Ascending eigenvalues; a DensityMatrix gives its stored spectrum."""
    if isinstance(rho, DensityMatrix):
        return rho.spectrum
    return np.linalg.eigvalsh(_as_matrix(rho))


def purity_moment(rho: DensityMatrix | np.ndarray, m: int) -> float:
    """Tr(rho^m) for integer m >= 1, via the eigenvalues."""
    if m < 1:
        raise ValueError(f"moment order must be a positive integer, got {m}")
    return float(np.sum(_spectrum(rho)**m))


def clamp_roundoff(lam: np.ndarray) -> np.ndarray:
    """Eigenvalues with the roundoff negatives above -1e-10 set to 0."""
    return np.where((-1e-10 <= lam) & (lam < 0.0), 0.0, lam)


def min_eigenvalue(rho: DensityMatrix | np.ndarray) -> float:
    """Smallest eigenvalue; roundoff negatives above -1e-10 clamp to 0."""
    return float(clamp_roundoff(_spectrum(rho)[0]))


def global_entanglement(state: DenseState) -> float:
    """Average-purity entanglement measure of a qubit chain.

    Q = 2 - (2/N) sum_k Tr(rho_k^2) with rho_k the one-site reduced
    states.  Zero exactly on product states, 1 on e.g. the GHZ state.
    """
    if any(d != 2 for d in state.dims):
        raise DimensionError(f"global entanglement requires qubit sites, got dims {state.dims}")
    if abs(state.norm() - 1.0) > 1e-10:
        raise ValueError("state must be normalized")
    rhos = _pure_site_states(state.amplitudes[np.newaxis], state.dims)
    return float(global_entanglement_from_sites(rhos)[0])


def global_entanglement_from_sites(rhos: np.ndarray) -> np.ndarray:
    """Q = 2 - (2/N) sum_k Tr(rho_k^2) of the stack (..., N, 2, 2) of
    chains' one-site reduced states rho_k, one value per chain."""
    return 2.0 - 2.0 * np.einsum("...kij,...kji->...k", rhos, rhos).real.mean(axis=-1)


# ---------------------------------------------------------------------------
# Exact references for states drawn uniformly (Haar measure) on the full
# bipartite space, reduced to a d_a-dimensional subsystem.


def cue_purity_moment(m: int, d_a: int, d_b: int) -> float:
    """Exact ensemble mean of Tr(rho_A^m), m in {2, 3, 4}.

    rho_A is the d_a-dimensional reduction of a Haar-random pure state
    on a d_a * d_b dimensional space.
    """
    if d_a < 1 or d_b < 1:
        raise DimensionError(f"subsystem dims must be positive, got {d_a}, {d_b}")
    n = d_a * d_b
    if m == 2:
        return (d_a + d_b) / (n + 1)
    if m == 3:
        return (d_a**2 + 3 * d_a * d_b + d_b**2 + 1) / ((n + 1) * (n + 2))
    if m == 4:
        num = d_a**3 + 6 * d_a**2 * d_b + 6 * d_a * d_b**2 + d_b**3 + 5 * d_a + 5 * d_b
        return num / ((n + 1) * (n + 2) * (n + 3))
    raise ValueError(f"closed forms implemented for m in {{2, 3, 4}}, got {m}")


def cue_global_entanglement(n_qubits: int) -> float:
    """Exact ensemble mean of Q for Haar-random n-qubit pure states."""
    if n_qubits < 1:
        raise DimensionError(f"qubit count must be positive, got {n_qubits}")
    d = 2**n_qubits
    return (d - 2) / (d + 1)


def cue_min_eigenvalue(d_a: int, d_b: int | None = None) -> float:
    """Exact ensemble mean of the smallest eigenvalue of rho_A.

    rho_A is the d_a-dimensional reduction of a Haar-random pure state
    on a d_a * d_b dimensional space; omitting d_b means the balanced
    split d_b = d_a, where the mean is 1 / d_a^3.  In general rho_A is
    W / Tr W with W = G G^dagger and G a d_a x d_b complex Ginibre
    matrix; the spectrum of W is the Laguerre unitary ensemble with
    nu = d_b - d_a, and W / Tr W is independent of Tr W, whose mean is
    d_a d_b.  So E[lambda_min] = E[w_min] / (d_a d_b), with

        P(w_min > x) = det[Gamma(nu+i+j+1, x)] / det[Gamma(nu+i+j+1)],

    i, j = 0 .. d_a-1 (Forrester, Nucl. Phys. B 402, 709 (1993);
    Majumdar, Bohigas & Lakshminarayan, J. Stat. Phys. 131, 33 (2008)).
    For integer nu the numerator is e^{-d_a x} times an integer
    polynomial, so the mean is a rational number; it is computed exactly
    and rounded once to the nearest float.  For d_a > d_b, rho_A has
    rank at most d_b and the result is 0.

    Raises CapExceededError when d_a <= d_b and d_a * d_b exceeds
    CUE_MIN_EIG_DIM_CAP, since the exact rational grows with nu.
    """
    d_b = d_a if d_b is None else d_b
    if d_a < 1 or d_b < 1:
        raise DimensionError(f"subsystem dims must be positive, got {d_a}, {d_b}")
    if d_a > d_b:
        return 0.0
    check_min_eig_cap(d_a, d_b)
    nu = d_b - d_a
    # e^x Gamma(k+1, x) = sum_{m<=k} (k!/m!) x^m: integer coefficients,
    # lowest degree first.
    gamma = {k: [math.factorial(k) // math.factorial(m) for m in range(k + 1)]
             for k in range(nu, nu + 2 * d_a - 1)}
    p = _poly_det([[gamma[nu + i + j] for j in range(d_a)] for i in range(d_a)])
    # P(w_min > x) = e^{-d_a x} p(x) / p(0), and int_0^inf x^k e^{-d_a x} dx
    # = k! / d_a^{k+1}.
    top = len(p) - 1
    num = sum(c * math.factorial(k) * d_a ** (top - k) for k, c in enumerate(p))
    return float(Fraction(num, p[0] * d_a ** (top + 1) * d_a * d_b))


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_sub(a: list[int], b: list[int]) -> list[int]:
    n = max(len(a), len(b))
    out = [x - y for x, y in zip(a + [0] * (n - len(a)), b + [0] * (n - len(b)))]
    while out and out[-1] == 0:
        out.pop()
    return out


def _poly_div_exact(a: list[int], b: list[int]) -> list[int]:
    a = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    for k in reversed(range(len(q))):
        q[k] = a[k + len(b) - 1] // b[-1]
        for j, y in enumerate(b):
            a[k + j] -= q[k] * y
    return q


def _poly_det(m: list[list[list[int]]]) -> list[int]:
    """Determinant of a square matrix over Z[x] by fraction-free
    (Bareiss) elimination; every division is exact.

    No pivoting: used only on the Gram matrix of cue_min_eigenvalue,
    whose leading principal minors are Gram determinants of 1, w, w^2, ...
    on (x, inf) and never vanish.
    """
    m = [row[:] for row in m]
    n = len(m)
    prev = [1]
    for k in range(n - 1):
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                cross = _poly_sub(_poly_mul(m[i][j], m[k][k]),
                                  _poly_mul(m[i][k], m[k][j]))
                m[i][j] = _poly_div_exact(cross, prev)
        prev = m[k][k]
    return m[n - 1][n - 1]


def typicality_bound(d_s: int, d_b: int) -> float:
    """Bound sqrt(d_s / d_b) on the mean trace distance of a subsystem
    of a Haar-random pure state from its ensemble average."""
    if d_s < 1 or d_b < 1:
        raise DimensionError(f"dims must be positive, got {d_s}, {d_b}")
    return math.sqrt(d_s / d_b)


# ---------------------------------------------------------------------------
# Twirl expressions.  Both return operators on n_copies interleaved
# (ket, bra-conjugate) index pairs, i.e. the index order matches
# kron(U, U.conj()) tensored n_copies times.


def haar_twirl_monte_carlo(n_copies: int, dim: int, r: int, seed: Seed | int) -> np.ndarray:
    """Monte Carlo estimate of the mean of (U (x) U*)^{(x) n_copies}.

    Averages r independent Haar unitaries, sample i drawn from
    subseed(seed, i): one Philox generator re-keyed to each key of one
    subseed_keys pass.
    """
    if n_copies < 1:
        raise DimensionError(f"n_copies must be positive, got {n_copies}")
    if r < 1:
        raise ValueError(f"sample count must be positive, got {r}")
    op_dim = dim ** (2 * n_copies)
    check_density_cap(op_dim)
    acc = np.zeros((op_dim, op_dim), dtype=np.complex128)
    rng = generator(0)
    for key in subseed_keys([seed], range(r))[0]:
        u = haar_unitary(dim, rekey(rng, key))
        w = np.kron(u, u.conj())
        t = w
        for _ in range(n_copies - 1):
            t = np.kron(t, w)
        acc += t
    return acc / r


def permutation_twirl(n_copies: int, dim: int) -> np.ndarray:
    """Sum of projectors onto unit-normalized vectorized permutations.

    For each permutation sigma of the n_copies tensor factors, the
    permutation operator P_sigma on (C^dim)^{(x) n_copies} is
    vectorized row-major, normalized to a unit vector, and the
    projectors are summed.  The permutation operators are not mutually
    orthogonal under the Hilbert-Schmidt inner product, so this is not
    a projector and only approximates the exact twirl; it matches it
    exactly at n_copies = 1.

    Indices are reordered to the interleaved convention of
    haar_twirl_monte_carlo so the two can be compared entrywise.
    """
    if n_copies < 1:
        raise DimensionError(f"n_copies must be positive, got {n_copies}")
    op_dim = dim ** (2 * n_copies)
    check_density_cap(op_dim)
    n = n_copies
    ident = np.eye(dim**n, dtype=np.complex128).reshape((dim,) * (2 * n))
    # grouped (a_1..a_n, b_1..b_n) -> interleaved (a_1, b_1, ..., a_n, b_n)
    interleave = tuple(itertools.chain.from_iterable((k, n + k) for k in range(n)))
    out = np.zeros((op_dim, op_dim), dtype=np.complex128)
    for perm in itertools.permutations(range(n)):
        p = ident.transpose(tuple(range(n)) + tuple(n + k for k in perm))
        v = p.transpose(interleave).reshape(-1)
        v = v / np.linalg.norm(v)
        out += np.outer(v, v.conj())
    return out

"""Matrix product states with sequential Haar-random sampling.

A state is stored as one tensor set per site, ``tensors[k][i]`` being
the bond_dim x bond_dim matrix A^i of site k.  Amplitudes follow the
left-to-right convention

    open chain:  <left| A^{i_1}[1] A^{i_2}[2] ... A^{i_N}[N] |right>
    ring:        Tr( A^{i_1}[1] A^{i_2}[2] ... A^{i_N}[N] )

Sampling cuts the site matrices out of Haar-random unitaries acting on
the physical site plus a bond-space ancilla, which makes every sampled
tensor set an exact isometry sum_i A^i{}^dag A^i = 1.  Only the chi
columns a site keeps are ever formed: a sample is one thin QR over the
stacked Ginibre columns of all its sites, and a stack is one phase fix
and isometry check over all its samples (haar.fix_phases), which gives
bitwise the cut of the full unitaries.  One sampler,
_sample_stack, draws a list of seeds straight into the stack the sweeps
read, re-keying one Philox generator (haar.rekey) to each draw's key, all
of them derived in one array pass (haar.subseed_keys), and filling one
normals buffer per stack (haar.normals); sample_rmps is its stack of one.

Every contraction of ket chains against bra chains (norm, overlap,
expectation value, block and site reduced states, the Gram block of a
stack of states) is one transfer step, _gram_step, swept over the sites.
Both sides carry a sample axis.  A full sweep pairs each ket p with its
own bra p, started and closed by one boundary pair (L, R): a norm or an
overlap is the sweep of a stack of one.  On a ring L and R are the
identity on the chi_ket * chi_bra bond pairs; an open chain is the same
ring closed by the rank-one pair built from its boundary vectors.  Each
step is two batched matrix products, one batched over the bras and one
over the kets, and the ring's boundary axis folds into the products'
rows and columns, so open chains and rings run the same kernel.
Contractions never build the full chi^2 x chi^2 transfer matrices
except in the two functions that expose them; a sweep costs
O(N D chi^3) per pair on open chains and O(N D chi^5) on rings.  One
closer, _block_states, gives every reduced state, one-site or block, at
any set of starts, each start in three products batched over the samples.
A state's reduced states, expectations and amplitudes are its stack of one.
The Gram block of a stack, the overlaps of bra rows m against ket
columns j, is the one contraction that pairs every row with every
column, and it sweeps only the middle of the chain: each end's partial
states are multiplied out once per stack (_end_states), and the pair of
an end against any block is one matrix product over its physical
strings (_pair_block), which starts or closes the sweep in place of a
boundary pair.
BOUNDARIES and LocalObservable.check_fits own the closure and fit rules.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .dense import DenseState, DensityMatrix, check_amplitude_cap, check_density_cap
from .errors import DimensionError
from .haar import Seed, fix_phases, generator, haar_state, isometry_defect, normals, \
    rekey, require_unitary, subseed_keys

BOUNDARIES = ("obc", "pbc")


@dataclass(frozen=True)
class LocalObservable:
    """A product observable on a contiguous block of sites.

    ``site_ops[j]`` acts on site ``start_site + j``; each operator must
    be Hermitian and share one physical dimension.
    """

    site_ops: tuple[np.ndarray, ...]
    start_site: int

    def __post_init__(self) -> None:
        if self.start_site < 0:
            raise DimensionError(f"start_site must be nonnegative, got {self.start_site}")
        ops = tuple(np.asarray(op, dtype=np.complex128) for op in self.site_ops)
        if len(ops) == 0:
            raise DimensionError("observable needs at least one site operator")
        d = ops[0].shape[0] if ops[0].ndim == 2 else 0
        for op in ops:
            if op.ndim != 2 or op.shape != (d, d):
                raise DimensionError(f"site operators must all be {d} x {d} matrices")
            if np.abs(op - op.conj().T).max() > 1e-12:
                raise ValueError("site operators must be Hermitian within 1e-12")
        object.__setattr__(self, "site_ops", ops)

    @property
    def phys_dim(self) -> int:
        return self.site_ops[0].shape[0]

    @property
    def n_sites(self) -> int:
        return len(self.site_ops)

    def check_fits(self, n_sites: int, phys_dim: int) -> None:
        """Raise DimensionError unless the block fits n_sites sites of dimension phys_dim."""
        stop = self.start_site + self.n_sites
        if self.phys_dim != phys_dim or stop > n_sites:
            raise DimensionError(f"observable of dimension {self.phys_dim} on sites "
                                 f"[{self.start_site}, {stop}) does not fit in {n_sites} "
                                 f"sites of dimension {phys_dim}")


class Mps:
    """Uniform-bond matrix product state on an open chain or a ring."""

    def __init__(self, tensors, boundary: str = "obc",
                 left_vec: np.ndarray | None = None,
                 right_vec: np.ndarray | None = None,
                 homogeneous: bool = False):
        tensors = list(tensors)
        if len(tensors) == 0:
            raise DimensionError("an MPS needs at least one site")
        shape = np.asarray(tensors[0]).shape
        if len(shape) != 3 or shape[1] != shape[2]:
            raise DimensionError(f"site tensors must have shape (D, chi, chi), got {shape}")
        for k, t in enumerate(tensors):
            t = np.asarray(t)
            if t.shape != shape:
                raise DimensionError(f"site {k} tensor shape {t.shape} differs from {shape}")
        if homogeneous and any(t is not tensors[0] for t in tensors):
            raise ValueError("homogeneous states must alias a single tensor set")
        _check_chain(len(tensors), shape[0], shape[1], boundary)

        chi = shape[1]
        if boundary == "obc":
            if left_vec is None or right_vec is None:
                raise ValueError("open chains need both boundary vectors")
            left_vec = np.asarray(left_vec, dtype=np.complex128).ravel()
            right_vec = np.asarray(right_vec, dtype=np.complex128).ravel()
            for name, v in (("left", left_vec), ("right", right_vec)):
                if v.size != chi:
                    raise DimensionError(f"{name} boundary vector length {v.size} != chi {chi}")
                if abs(np.linalg.norm(v) - 1.0) > 1e-10:
                    raise ValueError(f"{name} boundary vector must have unit norm")
        else:
            if left_vec is not None or right_vec is not None:
                raise ValueError("ring states take no boundary vectors")

        self.tensors = [np.asarray(t, dtype=np.complex128) for t in tensors] \
            if not homogeneous else [np.asarray(tensors[0], dtype=np.complex128)] * len(tensors)
        self.boundary = boundary
        self.left_vec = left_vec
        self.right_vec = right_vec
        self.homogeneous = homogeneous

    @property
    def n_sites(self) -> int:
        return len(self.tensors)

    @property
    def phys_dim(self) -> int:
        return self.tensors[0].shape[0]

    @property
    def bond_dim(self) -> int:
        return self.tensors[0].shape[1]

    # -- contraction sweeps -------------------------------------------------

    def norm_squared(self) -> float:
        """<psi|psi> of the raw, unnormalized state."""
        one = _Stack.one(self)
        return float(_overlaps(one, one)[0].real)

    def expectation(self, obs: LocalObservable) -> float:
        """Normalized expectation value of a product observable (_expectations' stack of one)."""
        obs.check_fits(self.n_sites, self.phys_dim)
        return float(_expectations(_Stack.one(self), obs)[0])

    def reduced_density_matrix(self, start: int, length: int) -> DensityMatrix:
        """Reduced state of ``length`` contiguous sites from ``start``: the
        stack of one of _block_states at one start, whose trace it divides out."""
        return DensityMatrix((self.phys_dim,) * length,
                             _block_states(_Stack.one(self), [start], length)[0, 0])

    def site_density_matrices(self) -> np.ndarray:
        """All one-site reduced density matrices, shape (N, D, D), bitwise
        each reduced_density_matrix(k, 1): _block_states at every start."""
        return _block_states(_Stack.one(self), range(self.n_sites), 1)[0]

    def to_dense(self) -> DenseState:
        """Raw (unnormalized) amplitudes: the stack of one of _Stack.amplitudes."""
        return DenseState((self.phys_dim,) * self.n_sites, _Stack.one(self).amplitudes()[0])

    def max_isometry_defect(self) -> float:
        """Largest deviation of any site from sum_i A^i{}^dag A^i = 1:
        the isometry defect of each site's tensors as a D*chi x chi matrix."""
        return isometry_defect(np.stack(self.tensors).reshape(self.n_sites, -1, self.bond_dim))


def a_matrices_from_unitary(u: np.ndarray, phys_dim: int, bond_dim: int) -> np.ndarray:
    """Site tensor set cut out of a unitary on site (x) bond space.

    The composite basis is physical-major: index (i, alpha) maps to
    i * bond_dim + alpha.  The returned array has shape (D, chi, chi)
    with A^i_{alpha, beta} = <i, alpha| U |0, beta>, and unitarity of U
    makes sum_i A^i{}^dag A^i the identity exactly.
    """
    u = np.asarray(u, dtype=np.complex128)
    d, chi = int(phys_dim), int(bond_dim)
    if d < 1 or chi < 1:
        raise DimensionError(f"dimensions must be positive, got D={d}, chi={chi}")
    if u.shape != (d * chi, d * chi):
        raise DimensionError(f"unitary shape {u.shape} != ({d * chi}, {d * chi})")
    require_unitary(u)
    return u.reshape(d, chi, d * chi)[:, :, :chi].copy()


def _check_chain(n_sites: int, phys_dim: int, bond_dim: int, boundary: str) -> None:
    """Raise unless the dimensions are positive integers, numpy ones
    included, and the boundary is one of BOUNDARIES."""
    if min(operator.index(v) for v in (n_sites, phys_dim, bond_dim)) < 1:
        raise DimensionError(f"dimensions must be positive, got N={n_sites}, "
                             f"D={phys_dim}, chi={bond_dim}")
    if boundary not in BOUNDARIES:
        raise ValueError(f"boundary must be one of {BOUNDARIES}, got {boundary!r}")


def sample_rmps(n_sites: int, phys_dim: int, bond_dim: int, seed: Seed | int,
                homogeneous: bool = False, boundary: str = "obc") -> Mps:
    """Draw a random matrix product state from Haar-random unitaries.

    Site k gets the tensor set a_matrices_from_unitary would cut out of
    haar_unitary(D * chi, subseed(seed, k)); homogeneous states reuse
    the site-0 set everywhere.  Open chains fix the left boundary to the
    first bond basis vector and draw the right boundary Haar-randomly
    from subseed(seed, n_sites).  The raw state is not normalized; all
    statistics downstream divide by norm_squared().  It is the state of
    _sample_stack's stack of one.
    """
    return _sample_stack(n_sites, phys_dim, bond_dim, [seed], homogeneous,
                         boundary).state(homogeneous)


def _sample_stack(n: int, d: int, chi: int, seeds: Sequence[Seed | int] | np.ndarray,
                  homogeneous: bool, boundary: str) -> "_Stack":
    """The states sample_rmps draws from ``seeds``, with n sites of
    dimension d and bond dimension chi, stacked in seed order.

    One subseed_keys pass gives subseed(seed, k) of every seed at each
    site k and at k = n for the right boundary.  Each site's full Ginibre
    normals fill one buffer per stack from a generator re-keyed to its key
    (the stream of haar_unitary); real and imaginary views copy its first
    chi columns into the QR input.  Householder QR of those columns gives
    exactly the first chi columns of the full Q and the leading chi x chi
    block of R.  So one thin QR per state over all its sites, its Q
    written into the stack and its R diagonal kept, and after the last
    sample one fix_phases call over the whole stack (the elementwise
    phase fix of haar_isometry, in place, and one isometry check) give
    bitwise the cut of the full unitaries.  Dimensions and boundary are
    checked before the first draw.
    """
    _check_chain(n, d, chi, boundary)
    sets = 1 if homogeneous else n
    # One block holds every site: with an array per site, pair-overlaps'
    # Gram temporaries took 5x the page faults and 20% more wall time.
    block = np.empty((sets, len(seeds), d, chi, chi), dtype=np.complex128)
    left = right = None
    if boundary == "obc":
        left = np.zeros((len(seeds), chi), dtype=np.complex128)
        left[:, 0] = 1.0
        right = np.empty((len(seeds), chi), dtype=np.complex128)
    keys = subseed_keys(seeds, range(sets) if right is None else [*range(sets), n])
    z = np.empty((sets, d * chi, chi), dtype=np.complex128)
    diag = np.empty((sets, len(seeds), chi), dtype=np.complex128)
    draw = np.empty((2, d * chi, d * chi))
    real, imag, (kept_real, kept_imag) = z.real, z.imag, draw[:, :, :chi]
    rng = generator(0)
    for i, sample in enumerate(keys):
        for k in range(sets):
            normals(draw, rekey(rng, sample[k]))
            real[k], imag[k] = kept_real, kept_imag
        q, r = np.linalg.qr(z)
        block[:, i] = q.reshape(sets, d, chi, chi)
        diag[:, i] = np.diagonal(r, axis1=-2, axis2=-1)
        if right is not None:
            right[i] = haar_state(chi, rekey(rng, sample[sets]))
    fix_phases(block.reshape(sets, len(seeds), d * chi, chi), diag)
    return _Stack((block[0],) * n if homogeneous else tuple(block), boundary, left, right)


def overlap(a: Mps, b: Mps) -> complex:
    """Raw overlap <a|b> of two states with matching site structure.

    Bond dimensions may differ; b is the ket of the sweep and a the bra.
    """
    if a.n_sites != b.n_sites or a.phys_dim != b.phys_dim:
        raise DimensionError("states must share site count and physical dimension")
    if a.boundary != b.boundary:
        raise DimensionError("states must share the boundary type")
    return complex(_overlaps(_Stack.one(b), _Stack.one(a))[0])


# -- the transfer step ------------------------------------------------------
#
# A full sweep pairs ket p with bra p.  Its environment env[p, b, s, d]
# leads with the sample axis and keeps between the two bonds a boundary
# index s: size 1 on open chains, chi_ket * chi_bra on rings, where it
# holds the bond pair at the far end of the sweep until the closing
# contraction ties it to the other end.  A step swaps the sides: with
# (x, y) = (ket, conj(bra)) it reads the layout [p, ket bond, s, bra bond]
# and writes [p, bra bond, s, ket bond], and the other way round with
# (conj(bra), ket).  The conjugate rides on the bra's site tensors, never
# on the environment.  The Gram block's middle sweep gives the bra a row
# axis m and the ket a column axis j, [m, j, ket bond, s, bra bond] in
# and [j, m, bra bond, s, ket bond] out; the same step reads both layouts.
# _sweep lets the sides swap roles at every site, so each step reads the
# environment without a copy and its one transpose of a block-sized array
# sits between the two products; _environments transposes each
# environment back instead.


@dataclass(frozen=True)
class _Stack:
    """States of one shape stacked on a leading sample axis.

    Holds the fields the sweeps read from an Mps: ``tensors[k]`` has
    shape (m, D, chi, chi) and the boundary vectors (m, chi).  The sites
    of a homogeneous stack alias one array.
    """

    tensors: tuple
    boundary: str
    left_vec: np.ndarray | None
    right_vec: np.ndarray | None

    @classmethod
    def one(cls, mps: Mps) -> "_Stack":
        """A single state as a stack of one, viewing its arrays."""
        vecs = (None if v is None else v[np.newaxis] for v in (mps.left_vec, mps.right_vec))
        return cls(tuple(t[np.newaxis] for t in mps.tensors), mps.boundary, *vecs)

    def state(self, homogeneous: bool) -> Mps:
        """The state of a stack of one, viewing its arrays; a homogeneous
        state aliases its site-0 tensor set."""
        tensors = [self.tensors[0][0]] * len(self.tensors) if homogeneous \
            else [t[0] for t in self.tensors]
        vecs = (None if v is None else v[0] for v in (self.left_vec, self.right_vec))
        return Mps(tensors, self.boundary, *vecs, homogeneous=homogeneous)

    def __getitem__(self, samples: slice) -> "_Stack":
        vecs = (None if v is None else v[samples] for v in (self.left_vec, self.right_vec))
        return _Stack(tuple(t[samples] for t in self.tensors), self.boundary, *vecs)

    @property
    def bond_dim(self) -> int:
        return self.tensors[0].shape[-1]

    @property
    def pair_elements(self) -> int:
        return _pair_elements(self.tensors[0].shape[1], self.bond_dim, self.boundary)

    @cached_property
    def _ends(self) -> tuple[tuple, np.ndarray, np.ndarray]:
        """The middle sites and the _end_states of the first K_l and last
        K_r sites (_end_sites) of every sample, built once per stack."""
        n = len(self.tensors)
        n_left, n_right = _end_sites(n, self.tensors[0].shape[1], self.bond_dim, self.boundary)
        left = None if self.left_vec is None else self.left_vec.conj()
        return (self.tensors[n_left:n - n_right],
                _end_states(self._edge(left), self.tensors[:n_left]),
                _end_states(self._edge(self.right_vec),
                            [t.swapaxes(-1, -2) for t in self.tensors[::-1][:n_right]]))

    def gram(self, rows: slice, cols: slice) -> np.ndarray:
        """Raw overlaps G[m, j] = <state rows[m] | state cols[j]>: the right
        end's _pair_block starts a sweep over the middle sites (if any) and
        the left end's closes it, D^K chi^2 s^2 units per pair for an end of
        K sites against 2 D chi^3 s^2 per swept site (s = 1 on open chains,
        chi on rings)."""
        middle, left, right = self._ends
        env = _sweep(_pair_env(_pair_block(right, rows, cols)),
                     [t[cols] for t in middle], [t[rows] for t in middle])
        return (env * _pair_env(_pair_block(left, rows, cols))).sum(axis=(-3, -2, -1))

    def _edge(self, vec: np.ndarray | None) -> np.ndarray:
        """What a chain end starts from, m[p, 1, s, a]: a boundary vector
        on open chains (s of size 1), the identity on the bond on rings."""
        if vec is not None:
            return vec[:, np.newaxis, np.newaxis]
        chi = self.bond_dim
        return np.broadcast_to(np.eye(chi, dtype=np.complex128),
                               (len(self.tensors[0]), 1, chi, chi))

    def amplitudes(self) -> np.ndarray:
        """Raw amplitudes of every state, shape (samples, D^N): assembly holds
        D^N x chi numbers per state on open chains and D^N x chi^2 on rings."""
        check_amplitude_cap(self.tensors[0].shape[1] ** len(self.tensors))
        left = None if self.left_vec is None else self.left_vec.conj()
        return (_multiply(self._edge(left), self.tensors)
                * self._edge(self.right_vec)).sum(axis=(2, 3))


def _pair_elements(phys_dim: int, bond_dim: int, boundary: str) -> int:
    """Elements per (row, column) pair of the largest array of a sweep:
    D * chi^2 times the boundary axis, chi^2 on rings."""
    return phys_dim * bond_dim**2 * (bond_dim**2 if boundary == "pbc" else 1)


def _boundary(ket: _Stack, bra: _Stack) -> tuple[np.ndarray, np.ndarray]:
    """Boundary pair (L, R) of a sweep of each ket p against its own bra
    p, in the [p, ket bond, s, bra bond] layout.

    Open chains: L = left* (x) left and R = right (x) right*, with a
    boundary axis of size 1.  Rings: both are the identity on
    chi_ket * chi_bra, the boundary axis holding the bond pair.
    """
    if ket.boundary == "obc":
        def pair(k, b):
            return k[:, :, np.newaxis, np.newaxis] * b[:, np.newaxis, np.newaxis, :]
        return (pair(ket.left_vec.conj(), bra.left_vec),
                pair(ket.right_vec, bra.right_vec.conj()))
    chi_k, chi_b = ket.bond_dim, bra.bond_dim
    eye = np.eye(chi_k * chi_b, dtype=np.complex128).reshape(chi_k, chi_b, chi_k * chi_b)
    eye = np.broadcast_to(eye.transpose(0, 2, 1),
                          (len(ket.tensors[0]), chi_k, chi_k * chi_b, chi_b))
    return eye, eye


def _gram_step(x: np.ndarray, env: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Absorb one site into an environment:
    env'[q, p, c, s, a] = sum x[q, i, a, b] env[p, q, b, s, d] y[p, i, c, d],
    or env'[p, c, s, a] = sum x[p, i, a, b] env[p, b, s, d] y[p, i, c, d]
    for a paired environment, which has no column axis q.

    y goes first, as one product batched over p with (q, b, s) folded
    into its columns; x second, batched over its own samples (q, or p
    when paired) with (p, c, s), or (c, s), folded into its rows.  Per
    sample the paired step is the same two products as the step at one
    row and one column, so bitwise its 1 x 1 case.
    """
    *samples, chi_b, s, chi_d = env.shape
    d, chi_a, chi_c = x.shape[-3], x.shape[-2], y.shape[-2]
    p = samples[0]
    t = np.matmul(y.reshape(p, d * chi_c, chi_d),
                  env.reshape(p, -1, chi_d).swapaxes(-1, -2))
    t = t.reshape(p, d, chi_c, -1, chi_b, s).transpose(3, 0, 2, 5, 1, 4)
    t = np.matmul(t.reshape(len(x), -1, d * chi_b),
                  x.swapaxes(-1, -2).reshape(len(x), d * chi_b, chi_a))
    return t.reshape(*samples[::-1], chi_c, s, chi_a)


def _overlaps(ket: _Stack, bra: _Stack) -> np.ndarray:
    """Raw overlaps <bra p | ket p> of each ket against its own bra: one
    sweep from R over every site, closed by L."""
    left, env = _boundary(ket, bra)
    return (_sweep(env, ket.tensors, bra.tensors) * left).sum(axis=(-3, -2, -1))


def _sweep(env: np.ndarray, kets, bras) -> np.ndarray:
    """Absorb the sites of kets and bras into env from the right, in the
    [m, j, ket bond, s, bra bond] layout in and out, or [p, ket bond, s,
    bra bond] for a paired env.  The sides swap roles at every site,
    (x, y) = (ket, conj(bra)) and then (conj(bra), ket), so each step
    reads the last one's output as is."""
    for k, (x, y) in enumerate(zip(reversed(kets), reversed(bras))):
        env = _gram_step(x, env, y.conj()) if k % 2 == 0 else _gram_step(y.conj(), env, x)
    flip = (0, 3, 2, 1) if env.ndim == 4 else (1, 0, 4, 3, 2)
    return env.transpose(*flip) if len(kets) % 2 else env


# -- the chain ends of a Gram block -----------------------------------------
#
# An end of K sites holds per sample its partial state for each of its
# D^K physical strings x, v[s, a, x]: open at the cut bond a, and on the
# far side the boundary vector absorbed (s of size 1) on open chains or the
# ring's bond open (s of size chi).  A right end is multiplied out on
# transposed matrices, so both ends share the layout.  sum_x conj(v_m) v_j
# is the environment a sweep over the end would build, with the bond pair
# (s_ket, s_bra) as its boundary axis.


def _end_sites(n: int, d: int, chi: int, boundary: str) -> tuple[int, int]:
    """Sites (K_l, K_r) a Gram block multiplies out at each end of a chain.

    An end's _pair_block costs D^k chi^2 s^2 units per pair and replaces k
    steps of 2 D chi^3 s^2, so K is the largest k with D^(k-1) <= 2 k chi
    (5 for qubits at chi = 2).  The larger end, the right one on a tie,
    then gives up sites until K_l + K_r <= N and the two ends hold no more
    numbers (_end_elements) than the N D chi^2 of the site tensors.
    """
    k = 1
    while k < n and d**k <= 2 * (k + 1) * chi:
        k += 1
    ends = [k, k]
    while max(ends) > 0 and (sum(ends) > n or
                             _end_elements(d, chi, boundary, ends) > n * d * chi**2):
        ends[ends[0] <= ends[1]] -= 1
    return ends[0], ends[1]


def _end_elements(d: int, chi: int, boundary: str, ends: Sequence[int]) -> int:
    """Numbers per sample of the _end_states of two chain ends of ends[0]
    and ends[1] sites: D^K chi s each, s = 1 on open chains, chi on rings."""
    return (d**ends[0] + d**ends[1]) * chi * (chi if boundary == "pbc" else 1)


def _end_states(edge: np.ndarray, tensors) -> np.ndarray:
    """v[p, s, a, x] of one chain end: the site tensors multiplied onto
    its edge m[p, 1, s, a], strings last so a range of samples is a range
    of rows of the matrix _pair_block reads."""
    return np.ascontiguousarray(_multiply(edge, tensors).transpose(0, 2, 3, 1))


def _pair_block(v: np.ndarray, rows: slice, cols: slice) -> np.ndarray:
    """sum_x conj(v[m, ..., x]) v[j, ..., x] of row samples m against column
    samples j, shape (rows, ..., cols, ...): one matrix product whose right
    operand is a view of v; only the rows are conjugated."""
    m, j, x = v[rows], v[cols], v.shape[-1]
    return (m.reshape(-1, x).conj() @ j.reshape(-1, x).T).reshape(m.shape[:-1] + j.shape[:-1])


def _pair_env(pairs: np.ndarray) -> np.ndarray:
    """An end's _pair_block, [m, s_bra, bra bond, j, s_ket, ket bond], as a
    sweep environment [m, j, ket bond, (s_ket, s_bra), bra bond]."""
    m, s, chi, j = pairs.shape[:4]
    return pairs.transpose(0, 3, 5, 4, 1, 2).reshape(m, j, chi, s * s, chi)


def _expectations(stack: _Stack, obs: LocalObservable) -> np.ndarray:
    """<psi_p|O|psi_p> / <psi_p|psi_p> of every state p of a stack by two
    paired sweeps, discarding the roundoff-level imaginary parts."""
    kets = list(stack.tensors)
    for k, op in enumerate(obs.site_ops, obs.start_site):
        kets[k] = (op @ kets[k].reshape(*kets[k].shape[:2], -1)).reshape(kets[k].shape)
    norms = _overlaps(stack, stack).real
    if np.any(norms <= 0.0):
        raise ValueError("state has zero norm")
    return _overlaps(replace(stack, tensors=tuple(kets)), stack).real / norms


def _environments(stack: _Stack, n_left: int, n_right: int
                  ) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Left environments of each <psi_p|psi_p> of a stack over its first
    n_left sites and right ones over its last n_right, boundary first,
    each in the [p, ket bond, s, bra bond] layout that _block_states
    hands _open_sites.

    Every sample sweeps against itself alone, by the paired _gram_step.
    A left environment is the same sweep on transposed site matrices.  Every
    step absorbs the ket first, whatever the site's parity: one
    transpose of each environment hands the step its [p, bra bond, s,
    ket bond] layout.  The rounding of a reduced state, which decides
    the near-zero eigenvalues of a rank-deficient block, then follows
    one operand order on every site and every sample.
    """
    def sweep(env, sites):
        envs = [env]
        for t in sites:
            envs.append(_gram_step(t.conj(), envs[-1].transpose(0, 3, 2, 1), t))
        return envs
    left, right = _boundary(stack, stack)
    return (sweep(left, [t.swapaxes(-1, -2) for t in stack.tensors[:n_left]]),
            sweep(right, stack.tensors[::-1][:n_right]))


def _block_states(stack: _Stack, starts: Sequence[int], length: int) -> np.ndarray:
    """Reduced states of the ``length`` sites from each of ``starts`` of
    every sample of a stack, each divided by its trace and hermitized,
    shape (samples, len(starts), D^length, D^length): one sweep each way,
    O(N D chi^3) per sample on open chains and O(N D chi^5) on rings, then
    one _open_sites call per start on its blocks, each multiplied out from
    its own first tensor (a one-site block is no product).  D^length is capped.
    """
    n, d = len(stack.tensors), stack.tensors[0].shape[1]
    for start in starts:
        if not (0 <= start and length >= 1 and start + length <= n):
            raise DimensionError(
                f"block [{start}, {start + length}) does not fit in {n} sites")
    check_density_cap(d**length)
    lefts, rights = _environments(stack, max(starts), n - min(starts) - length)
    rho = np.empty((len(lefts[0]), len(starts)) + (d**length,) * 2, dtype=np.complex128)
    for i, k in enumerate(starts):
        blocks = _multiply(stack.tensors[k], stack.tensors[k + 1:k + length])
        rho[:, i] = _open_sites(lefts[k], blocks, rights[n - k - length])
    trace = np.trace(rho, axis1=-2, axis2=-1).real
    if np.any(trace <= 0.0):
        raise ValueError("state has zero norm")
    rho /= trace[..., np.newaxis, np.newaxis]
    return (rho + rho.conj().swapaxes(-1, -2)) / 2.0


def _open_sites(lefts: np.ndarray, kets: np.ndarray, rights: np.ndarray) -> np.ndarray:
    """Close the blocks of samples n between their environments, which may
    broadcast over n, with the physical indices open (a one-site block is
    its site tensor): rho[n, I, J] = sum lefts[n, a, s, c] kets[n, I, a, b]
    rights[n, b, s, d] conj(kets[n, J, c, d]), in three products batched over n.
    """
    n, d, chi, _ = kets.shape
    s = rights.shape[-2]
    t = np.matmul(kets, rights.swapaxes(-1, -2).reshape(n, 1, chi, chi * s))
    t = t.reshape(n, d, chi, chi, s).transpose(0, 1, 3, 2, 4).reshape(n, d * chi, chi * s)
    t = np.matmul(t, lefts.reshape(n, chi * s, chi))
    t = t.reshape(n, d, chi, chi).transpose(0, 1, 3, 2).reshape(n, d, chi * chi)
    return np.matmul(t, kets.conj().reshape(n, d, chi * chi).swapaxes(-1, -2))


def _multiply(m: np.ndarray, tensors) -> np.ndarray:
    """Multiply the site tensors of each sample p onto m[p, I, s, a] from
    the right, appending each physical index to I:
    m'[p, (I, i), s, b] = sum_a m[p, I, s, a] A^i[p, a, b].
    """
    for a in tensors:
        m = np.matmul(m[:, :, np.newaxis], a[:, np.newaxis]).reshape(
            len(m), -1, m.shape[2], a.shape[3])
    return m


def transfer_identity(mps: Mps, site: int) -> np.ndarray:
    """Transfer matrix sum_i A^i (x) A^i{}^* of one site, chi^2 x chi^2."""
    return transfer_observable(mps, site, np.eye(mps.phys_dim))


def transfer_observable(mps: Mps, site: int, op: np.ndarray) -> np.ndarray:
    """Transfer matrix sum_ij <i|op|j> A^i (x) A^j{}^* of one site.

    Rows of op index the ket copy (left factor), columns the conjugated
    copy.  With op = identity this reduces to transfer_identity.  Note
    that folding a chain of these against the boundary weights contracts
    op[i, j] with c_i conj(c_j), the expectation of the transposed
    operator; pass op.T to recover Mps.expectation(op).
    """
    a = mps.tensors[site]
    op = np.asarray(op, dtype=np.complex128)
    d, chi = mps.phys_dim, mps.bond_dim
    if op.shape != (d, d):
        raise DimensionError(f"operator shape {op.shape} != ({d}, {d})")
    return np.einsum("ij,iab,jcd->acbd", op, a, a.conj(),
                     optimize=True).reshape(chi * chi, chi * chi)


# -- serialization ----------------------------------------------------------
#
# Container layout (NumPy .npz archive, no pickling):
#   header   0-d string array with a JSON object:
#            {"n_sites", "phys_dim", "bond_dim", "boundary", "homogeneous"}
#   tensors  complex array, shape (1, D, chi, chi) for homogeneous states
#            and (n_sites, D, chi, chi) otherwise, row-major
#   left_vec / right_vec   complex (chi,) arrays, open chains only


def save_mps(mps: Mps, path) -> None:
    """Write an MPS to ``path`` in the documented .npz container."""
    header = json.dumps({
        "n_sites": mps.n_sites,
        "phys_dim": mps.phys_dim,
        "bond_dim": mps.bond_dim,
        "boundary": mps.boundary,
        "homogeneous": mps.homogeneous,
    }, sort_keys=True)
    arrays = {"header": np.array(header)}
    if mps.homogeneous:
        arrays["tensors"] = mps.tensors[0][np.newaxis]
    else:
        arrays["tensors"] = np.stack(mps.tensors)
    if mps.boundary == "obc":
        arrays["left_vec"] = mps.left_vec
        arrays["right_vec"] = mps.right_vec
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_mps(path) -> Mps:
    """Read an MPS written by save_mps; homogeneous aliasing is restored."""
    with np.load(path, allow_pickle=False) as data:
        header = json.loads(str(data["header"][()]))
        stored = np.ascontiguousarray(data["tensors"])
        left = data["left_vec"] if "left_vec" in data.files else None
        right = data["right_vec"] if "right_vec" in data.files else None
    n, homogeneous = int(header["n_sites"]), bool(header["homogeneous"])
    d, chi = int(header["phys_dim"]), int(header["bond_dim"])
    want = (1 if homogeneous else n, d, chi, chi)
    if stored.shape != want:
        raise DimensionError(f"container holds tensors of shape {stored.shape}, "
                             f"its header gives {want}")
    tensors = [stored[0]] * n if homogeneous else list(stored)
    return Mps(tensors, header["boundary"], left, right, homogeneous=homogeneous)

"""CPU speed probe: scales timings to a fixed reference speed.

The box this benchmark was written on (2 vCPUs under KVM) switches
between speed states on a scale of seconds: a fixed kernel of small
numpy calls takes 1.3 ms in the fast state and up to twice that in the
slow one, and the workloads slow with it (correlation 0.90 to 0.99
between kernel and workload times over windows of 1 to 3 s).  Raw wall
times of one config spread by 40% between back-to-back runs, more than
any bound a benchmark can hold.

So every experiment process times this kernel while it works: every
PROBE_INTERVAL_S, from a SIGALRM handler, and in a burst right after
set-up.  A timing T measured while the kernel took t on average
is reported as T * REFERENCE_S / t, the time it would have taken at the
reference speed.  The kernel mixes the work the package does: small
QRs, a Hermitian eigensolve, einsum sweeps and interpreted Python.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# mean warm kernel time in the fast state of the 2-vCPU box, 1 BLAS thread
REFERENCE_S = 1.3e-3
PROBE_INTERVAL_S = 0.15
BURST = 20

_rng = np.random.default_rng(0)
_QR_IN = _rng.standard_normal((32, 32)) + 1j * _rng.standard_normal((32, 32))
_EIG_IN = _rng.standard_normal((64, 64))
_EIG_IN = _EIG_IN + _EIG_IN.T
_SITE = _rng.standard_normal((2, 16, 16)) + 1j * _rng.standard_normal((2, 16, 16))


def kernel() -> float:
    """Run the fixed probe kernel once; returns its wall time."""
    t0 = time.perf_counter()
    for _ in range(4):
        np.linalg.qr(_QR_IN)
    np.linalg.eigvalsh(_EIG_IN)
    v = np.eye(16, dtype=np.complex128)
    for _ in range(8):
        v = np.einsum("iab,bc,idc->ad", _SITE, v, _SITE.conj(), optimize=True)
    s = 0
    for i in range(3000):
        s += i
    return time.perf_counter() - t0


def burst() -> list[float]:
    """BURST back-to-back kernel times, after one untimed warm-up call."""
    kernel()
    return [kernel() for _ in range(BURST)]


class Sampler:
    """Times the kernel every PROBE_INTERVAL_S while the block runs.

    Each tick runs the kernel twice and keeps the second time: the first
    call refills the caches the program evicted, so the kept time
    follows the speed of the host and not the program's memory use.
    ``spent`` is the time of all ticks, which is not the program's.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        self.samples.append(kernel())
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def factor(samples: list[float]) -> float:
    """Multiplier that turns a timing into one at the reference speed,
    given the kernel times seen while it was taken."""
    return REFERENCE_S / (sum(samples) / len(samples))

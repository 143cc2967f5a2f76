"""Reference computations that measure how fast the host is running right now.

The benchmark shares a few cores of a host with other tenants, whose load
changes the speed of the same code by tens of percent for minutes at a time.
Process CPU time moves with wall time, so it is the hardware that slows, not
the scheduler that withholds it, and a longer run does not average it away.
Each workload therefore runs one of these fixed computations, a probe,
beside and inside its operations, and the gated times are scaled by nominal
÷ measured probe time (averaged as a rate): the figure the operation would
read on a host running the probe at its nominal speed.

The references run no cupgeo code, so a change to the program cannot move
them; they imitate the kind of work the program does, so that the host's
load slows them as much as it slows the program:

- ``interp``: interpreter-bound work on tiny arrays (small matrices, einsum,
  inverses, dicts, tuples and method calls), as in the suite and pointwise
  queries.
- ``array``: score moments of a 250k-row Gaussian sample, as in
  ``estimate_fisher_tensors``.
"""

import gc
import signal
import time

import numpy as np

# Seconds per rep on a quiet 2-core x86-64 host (the scale is arbitrary:
# it cancels from every comparison between two commits).
NOMINAL_S = {"interp": 0.00045, "array": 0.060}


class _Jet:
    """Value and gradient of a scalar, just enough to run a metric's chain rule."""

    __slots__ = ("v", "d")

    def __init__(self, v, d):
        self.v = v
        self.d = d

    def __mul__(self, other):
        return _Jet(self.v * other.v, self.v * other.d + other.v * self.d)

    def __add__(self, other):
        return _Jet(self.v + other.v, self.d + other.d)


def _interp_once(point):
    n = len(point)
    eye = np.eye(n)
    coords = [_Jet(x, eye[i]) for i, x in enumerate(point)]
    terms = {}
    for i in range(n):
        for j in range(i, n):
            e = coords[i] * coords[j] + coords[j]
            terms[(i, j)] = terms[(j, i)] = e
    g = np.array([[terms[(i, j)].v for j in range(n)] for i in range(n)]) + 3.0 * eye
    dg = np.array([[terms[(i, j)].d for j in range(n)] for i in range(n)])
    ginv = np.linalg.inv(g)
    gamma = 0.5 * (np.einsum("kij->ijk", dg) + np.einsum("jik->ijk", dg) - dg)
    christoffel = np.einsum("kl,ijl->kij", ginv, gamma)
    return float(christoffel.sum()) + sum(t.v for t in terms.values())


def interp(reps):
    """``reps`` units of interpreter-bound work; returns a checksum."""
    total = 0.0
    for r in range(reps):
        for k in range(6):
            x = 0.1 + 0.01 * ((r + k) % 7)
            total += _interp_once((x, 0.5 - x) if k % 2 else (x, 0.3, 0.6 - x))
    return total


def array(reps):
    """``reps`` rounds of 250k-row score moments; returns a checksum."""
    total = 0.0
    for _ in range(reps):
        rng = np.random.default_rng(12345)
        x = rng.normal(0.5, 1.5, size=250_000)
        z = (x - 0.5) / 1.5
        score = np.stack([z / 1.5, (z * z - 1.0) / 1.5], axis=1)
        sq = score * score
        total += float(np.einsum("si,sj->ij", score, score).sum())
        total += float(np.einsum("si,sj,sk->ijk", sq, sq, sq).sum())
    return total


KINDS = {"interp": interp, "array": array}


def timed(kind, reps):
    """Seconds per rep of one call of the ``kind`` reference.

    The garbage collector is off meanwhile: a collection started by the
    probe's allocations would walk the program's heap and time that instead.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        KINDS[kind](reps)
        return (time.perf_counter() - t0) / reps
    finally:
        if enabled:
            gc.enable()


class Ticker:
    """Runs a probe every ``interval`` seconds from SIGALRM, inside long operations.

    The handler runs between bytecodes of the main thread, so it never splits
    a numpy call.  ``samples`` holds (start, seconds per rep) of each probe,
    and ``clock`` is ``time.perf_counter`` less the time spent in probes, so
    an operation timed with it leaves them out.
    """

    def __init__(self, kind, reps, interval):
        self.kind, self.reps, self.interval = kind, reps, interval
        self.samples = []
        self.busy = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append((t0, timed(self.kind, self.reps)))
        self.busy += time.perf_counter() - t0

    def clock(self):
        while True:
            busy = self.busy
            now = time.perf_counter()
            if busy == self.busy:
                return now - busy

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

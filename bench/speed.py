"""The host's current speed, from a fixed pure-Python probe.

The benchmark shares a few cores of a busy host, whose speed drifts by a
fifth or more within seconds.  A short probe, a fixed workload that never
calls the program, is timed between operations and, from a timer signal,
every ``INTERVAL_S`` while one runs.  Dividing an operation's time by the
median probe time around and during it, and multiplying by
``NOMINAL_S``, gives its time at a fixed nominal host speed.  A change to
the program never moves the probe.
"""

from __future__ import annotations

import gc
import signal
from time import perf_counter

# The probe's usual time on a 2-core x86 host: the nominal speed times are
# scaled to.  A constant, so scaled times compare across commits; its
# value only sets the scale.
NOMINAL_S = 0.0002
# Probes timed between two operations, and the period of the probes
# taken while one runs (each costs about 1 % of the period).
BETWEEN = 9
INTERVAL_S = 0.025


class _UnionFind:
    """A union-find with an undo log, written the way the program's search
    is: lists, attribute lookups, method calls and small tuples.  Of the
    probes tried it tracked the program's own slowdowns closest."""

    def __init__(self, n):
        self.parent = list(range(n))
        self.count = [[0] * 4 for _ in range(n)]

    def find(self, x):
        parent = self.parent
        while parent[x] != x:
            x = parent[x]
        return x

    def union(self, a, b, log):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra
            ca, cb = self.count[ra], self.count[rb]
            for g in range(1, 4):
                ca[g] += cb[g]
            log.append((ra, rb))


_PAIRS = [((37 * k) % 64, (11 * k * k + 5) % 64) for k in range(150)]


def _work():
    uf = _UnionFind(64)
    log = []
    for a, b in _PAIRS:
        uf.union(a, b, log)
    while log:
        _ra, rb = log.pop()
        uf.parent[rb] = rb
    return len(uf.parent)


def probe():
    """Seconds one run of the probe takes now.  The garbage collector is
    held off, so that the probe never pays for the program's garbage."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _work()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def probes():
    return [probe() for _ in range(BETWEEN)]


class Sampler:
    """Probes from a SIGALRM handler every ``INTERVAL_S`` while active.

    ``samples`` holds the probe times and ``spent`` the seconds the handler
    took, which the caller subtracts from the operation's time.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._previous = None

    def _handler(self, _signum, _frame):
        start = perf_counter()
        self.samples.append(probe())
        self.spent += perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

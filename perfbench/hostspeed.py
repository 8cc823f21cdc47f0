"""A fixed reference kernel that measures how fast the host runs Python just now.

A small VM on a shared host runs the same pure-Python work up to twice as
slowly from one second to the next, and drifts over minutes, because its
neighbours share the physical cores.  CPU time slows down as much as wall
time, so no clock of this process avoids it.  What does hold steady is the
ratio of two pieces of work timed side by side on the same core.

The benchmark therefore times this kernel right before and right after every
operation, and scales each operation's time by ``NOMINAL_MS`` over the
kernel's mean time around it: the result is the time the operation would
have taken on a host where the kernel takes ``NOMINAL_MS``.  The kernel does
the kind of work the library does (big-int bitset tests over lists, set and
dict building, sorting) and uses nothing from the library, so a change to the
program moves the operation's time and never the kernel's.
"""

from __future__ import annotations

import gc
import random
import time

# The kernel's time on the VM the benchmark was written on (2 vCPUs of a
# shared x86-64 host, Python 3.11), rounded.
NOMINAL_MS = 2.5

_rng = random.Random(20050617)
_ROWS = [_rng.getrandbits(96) & _rng.getrandbits(96) & _rng.getrandbits(96) for _ in range(160)]
_MASKS = [_rng.getrandbits(96) & _rng.getrandbits(96) & _rng.getrandbits(96) & _rng.getrandbits(96)
          for _ in range(200)]
_FULL = (1 << 96) - 1


def _kernel() -> int:
    closed = {}
    for m in _MASKS:
        out, hit = _FULL, False
        for r in _ROWS:
            if r & m == m:
                out &= r
                hit = True
        key = out if hit else _FULL
        closed[key] = closed.get(key, 0) + 1
    below = {a for a in closed for b in closed if a != b and a | b == a}
    return len(sorted(closed, key=lambda x: (bin(x).count("1"), x))) + len(below)


def sample_ms() -> float:
    """Time one run of the kernel after an untimed one, so that what the
    program left in the caches does not change the kernel's cost.  The
    collector is off for the same reason: the heap is the program's."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        _kernel()
        t0 = time.perf_counter()
        _kernel()
        return (time.perf_counter() - t0) * 1e3
    finally:
        if was_enabled:
            gc.enable()

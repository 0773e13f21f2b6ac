"""A fixed calibration task that measures how fast the host runs right now.

A shared host runs the same code 20-70 % slower for seconds or minutes at a
time, and the slowdown is not stolen time (process CPU time grows with it),
so no statistic over one run's repeats removes it.  It hits most code that
runs at that moment alike (bench/README.md names an exception), so the
benchmark runs a chunk of fixed work, made apart from the program, before
every measured call and reports the calls of a round (a few seconds)
scaled by REF_S / (the round's mean chunk time): seconds at the speed at
which the reference host runs the chunk in REF_S.  A change to the program moves the scaled time exactly as
it moves the raw time on a quiet host.

Two kinds of chunk, matched to where a workload spends its time:
"python" (interpreted integer arithmetic, calls, a dict and a list) and
"numpy" (modular arithmetic and table lookups over int32 arrays of 2^18
entries, as in the enumeration oracle).
"""

from __future__ import annotations

import functools
import time

import numpy as np

# Fastest chunk times seen on the reference host (bench/README.md); they
# set the unit of the scaled times, not their ratios.
REF_S = {"python": 0.0074, "numpy": 0.0137}

_PY_STEPS = 20_000
_NP_SIZE = 1 << 18
_NP_MOD = 1_000_003


def _step(x: int, i: int) -> int:
    return (x * 48271 + i) % 2_147_483_647


def _python_chunk() -> int:
    x, acc, seen, tail = 1, 0, {}, []
    for i in range(_PY_STEPS):
        x = _step(x, i)
        seen[x & 1023] = i
        acc += (x * x) % 97
        if x & 7 == 0:
            tail.append((x, acc))
    return acc + len(tail) + len(seen)


@functools.cache
def _np_table() -> np.ndarray:
    return (np.arange(_NP_MOD, dtype=np.int64) * 7919 % _NP_MOD).astype(np.int32)


def _numpy_chunk() -> int:
    table = _np_table()
    x = np.arange(1, _NP_SIZE + 1, dtype=np.int32)
    for _ in range(2):
        y = (x.astype(np.int64) * 40503 + 17) % _NP_MOD
        x = table[y]
        x = np.where(x & 1 == 0, x, table[(x.astype(np.int64) * 3) % _NP_MOD])
    return int(x[::4096].sum())


_CHUNKS = {"python": _python_chunk, "numpy": _numpy_chunk}


def chunk(kind: str) -> float:
    """Runs one chunk of the given kind; returns its wall time in seconds."""
    fn = _CHUNKS[kind]
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def scale(seconds: float, chunk_s: float, kind: str) -> float:
    """`seconds` measured next to a chunk that took `chunk_s`, in reference seconds."""
    return seconds * REF_S[kind] / chunk_s


def calibrated(seconds: float, kind: str, chunks: int) -> float:
    """`seconds` just measured, scaled by the mean of `chunks` chunks run now."""
    return scale(seconds, sum(chunk(kind) for _ in range(chunks)) / chunks, kind)

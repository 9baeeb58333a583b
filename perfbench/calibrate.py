"""Host-speed reference: a fixed piece of work timed next to the ops.

The benchmark shares a small host with other tenants, which slow it by
up to 1.8x for seconds to minutes at a time, CPU time included (they
share caches and cores, not only the scheduler).  A run cannot avoid
those stretches, so it measures them: between ops (in-process) or
between one-second blocks (served) it times :func:`reference_work`, a
fixed mix of interpreter, small-array numpy and sparse-LU work like the
engine's own, which uses no code of the program.  Each op's times are
then scaled by ``REFERENCE_S / reference time``, the reference measured
right before and right after it: the figures read as at a host that
runs the reference in ``REFERENCE_S``, which is about its time on this
2-vCPU host when it is quiet.  A change to the program moves the op
times and leaves the reference alone, so the scaled figures follow the
program; a slower or busier host moves both and cancels.
"""

from __future__ import annotations

import random
import time
from typing import List, Tuple

import numpy as np
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

#: Time [s] the reference takes on the quiet host the figures refer to.
REFERENCE_S = 0.005

_rng = random.Random("perfbench-reference")
_LINES = [
    f"R{i} n{_rng.randrange(900)} n{_rng.randrange(900)} {_rng.uniform(1.0, 1e4):.6g}"
    for i in range(3000)
]
_N = 800
_rows: List[int] = []
_cols: List[int] = []
_vals: List[float] = []
for _i in range(_N):
    for _j, _v in ((_i, 4.0), (_i - 1, -1.0), (_i + 1, -1.0), (_i + 40, -1.0)):
        if 0 <= _j < _N:
            _rows.append(_i)
            _cols.append(_j)
            _vals.append(_v)
_MATRIX = csc_matrix((_vals, (_rows, _cols)), shape=(_N, _N))
_RHS = np.linspace(0.0, 1.0, _N)
_X0 = np.linspace(-1.0, 1.0, 64)


def reference_work() -> float:
    """Tokenise a netlist-like text, iterate a small-array update and
    factor a banded sparse system; the same work on every call."""
    table = {}
    for line in _LINES:
        name, a, b, value = line.split()
        table[name.lower()] = (a, b, float(value))
    x = _X0.copy()
    for _ in range(600):
        x = np.exp(-np.abs(x)) * 0.5 + x * 0.25
    solution = splu(_MATRIX, permc_spec="COLAMD").solve(_RHS)
    return float(solution[0]) + float(x[0]) + len(table)


def measure() -> Tuple[float, float]:
    """``(wall_s, cpu_s)`` of one run of the reference in this thread."""
    wall, cpu = time.perf_counter(), time.thread_time()
    reference_work()
    return time.perf_counter() - wall, time.thread_time() - cpu


def scales(samples: List[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """``(wall, cpu)`` scale factors for the intervals between
    consecutive ``samples``: ``REFERENCE_S`` over the mean of the two
    references that bracket the interval."""
    return [
        (2.0 * REFERENCE_S / (w0 + w1), 2.0 * REFERENCE_S / (c0 + c1))
        for (w0, c0), (w1, c1) in zip(samples, samples[1:])
    ]

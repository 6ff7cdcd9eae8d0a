"""The scheduling domain's batch kernel: the permutahedron oracle fused
with the completion-time cost.

Each row theta of a batch runs the jobs in decreasing theta order, job j
before job i iff theta_j > theta_i, or theta_j == theta_i and j < i (the
order of a stable ``argsort(-theta)``; 0.0 and -0.0 tie).  The schedule's
total completion time comes from one recursion over the run order,
``clock = max(clock, r[j]) + p[j]``, summed over the jobs.

A batch with at least d! rows, d! <= ``polytopes.ENUMERATION_CAP`` (so
d <= 7), has more rows than run orders.  It costs every run order once,
in the ``itertools.permutations`` order of ``Permutahedron(d).vertices()``,
and each row reads its entry of that table at the row's lexicographic
rank sum_i c_i * (d-1-i)!, where c_i = #{j > i : theta_i >= theta_j}
counts the later jobs that run after job i (the Lehmer code of the row's
argmax vertex).  Ranking takes d-1 vectorised comparisons, column i
against all later columns at once into a (d-1, k) bool buffer, each
counted by one int16 sum over its rows, where sorting takes a per-row
argsort.  The comparisons read theta by columns,
``np.ascontiguousarray(theta.T)``: free for the transpose of a C-ordered
(d, k) buffer, which is how the Monte Carlo risk pass hands its
directions over, and one copy for a C-ordered batch.  The counts are
integers, so every rank is exact; it is summed in int16 buffers, in
place, and gathered with ``table.take``: at d <= 7 each c_i * (d-1-i)!
is at most 4320 and each rank at most 5039.  A smaller batch, or d >= 8,
sorts each row.  Both paths run the one recursion on the same run order,
so a row gets bit-identical costs in a batch of either size, and in any
memory layout of theta.  theta must hold no NaN: a NaN compares false either
way, which the two paths read differently.

The benchmark in ``perfbench/`` times it as ``kernels.sched_us_per_dir``
and records ``backend()``.  ``backend()`` stays ``"numpy"``: the
manifest's artifact version embeds it, so renaming it would move every
manifest digest.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .polytopes import ENUMERATION_CAP


def scheduling_total_completion(
    theta: np.ndarray, release: np.ndarray, processing: np.ndarray
) -> np.ndarray:
    """Total completion time of the schedule induced by theta, per row.

    Jobs run in decreasing theta order (score = priority; ties by index).
    Completion recursion: C = max(C_prev, r_j) + p_j; returns sum of C.
    A batch of at least d! rows, d! within the enumeration cap, reads a
    table of every run order's cost at each row's rank; a smaller one
    sorts each row (the module docstring gives the rank and the tie rule).
    """
    theta = np.asarray(theta, dtype=np.float64)
    release = np.asarray(release, dtype=np.float64)
    processing = np.asarray(processing, dtype=np.float64)
    k, d = theta.shape
    n_orders = math.factorial(d)
    if n_orders > k or n_orders > ENUMERATION_CAP:
        order = np.argsort(-theta, axis=1, kind="stable")
        return _recursion(order, release, processing)
    table = _recursion(_run_orders(d), release, processing)
    cols = np.ascontiguousarray(theta.T)
    rank = np.zeros(k, dtype=np.int16)
    count = np.empty(k, dtype=np.int16)
    later = np.empty((d - 1, k), dtype=bool)
    for i in range(d - 1):
        after = later[: d - 1 - i]
        np.greater_equal(cols[i], cols[i + 1:], out=after)
        np.add.reduce(after, axis=0, dtype=np.int16, out=count)
        count *= math.factorial(d - 1 - i)
        rank += count
    return table.take(rank)


def _recursion(order: np.ndarray, release: np.ndarray, processing: np.ndarray) -> np.ndarray:
    """Total completion time of each row's run order (job indices)."""
    k, d = order.shape
    clock = np.zeros(k)
    total = np.zeros(k)
    for pos in range(d):
        j = order[:, pos]
        clock = np.maximum(clock, release[j]) + processing[j]
        total = total + clock
    return total


@functools.cache
def _run_orders(d: int) -> np.ndarray:
    """Run order of each vertex of Permutahedron(d), in its vertex order:
    row r lists the jobs by decreasing coordinate of the r-th permutation."""
    perms = np.array(list(itertools.permutations(range(d))), dtype=np.intp).reshape(-1, d)
    order = np.argsort(-perms, axis=1)
    order.flags.writeable = False
    return order


def backend() -> str:
    return "numpy"

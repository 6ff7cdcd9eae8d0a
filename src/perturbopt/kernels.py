"""The scheduling domain's batch kernel: the permutahedron oracle fused
with the completion-time cost.

The benchmark in ``perfbench/`` times it as ``kernels.sched_us_per_dir``
and records ``backend()``, which the manifest's artifact version embeds.
"""

from __future__ import annotations

import numpy as np


def scheduling_total_completion(
    theta: np.ndarray, release: np.ndarray, processing: np.ndarray
) -> np.ndarray:
    """Total completion time of the schedule induced by theta, per row.

    Jobs run in decreasing theta order (score = priority; ties by index).
    Completion recursion: C = max(C_prev, r_j) + p_j; returns sum of C.
    """
    theta = np.ascontiguousarray(theta, dtype=np.float64)
    release = np.asarray(release, dtype=np.float64)
    processing = np.asarray(processing, dtype=np.float64)
    k, d = theta.shape
    order = np.argsort(-theta, axis=1, kind="stable")
    clock = np.zeros(k)
    total = np.zeros(k)
    for pos in range(d):
        j = order[:, pos]
        clock = np.maximum(clock, release[j]) + processing[j]
        total = total + clock
    return total


def backend() -> str:
    return "numpy"

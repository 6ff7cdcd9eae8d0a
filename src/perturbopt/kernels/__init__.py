"""Batch hot-loop kernels: compiled extension with pure numpy fallback.

The backend is selected once at import.  Both backends implement the same
functions with bit-identical results:

- ``perm_ranks(theta)``: permutahedron oracle vertices for a batch of
  directions.
- ``scheduling_total_completion(theta, release, processing)``: fused
  oracle + completion-time cost for the scheduling domain.
- ``dag_longest_path(theta, tails, heads, source, sink, n_nodes)``:
  longest-path values and arc indicators for a batch of directions.

``BACKEND`` is "cython" or "numpy"; the benchmark in ``perfbench/``
records it and times the scheduling kernel as ``kernels.sched_us_per_dir``.
"""

from . import _ref

try:  # compiled extension is optional
    from . import _fast as _impl

    BACKEND = "cython"
except ImportError:  # pragma: no cover - depends on the build
    _impl = _ref
    BACKEND = "numpy"

perm_ranks = _impl.perm_ranks
scheduling_total_completion = _impl.scheduling_total_completion
dag_longest_path = _impl.dag_longest_path


def backend() -> str:
    return BACKEND

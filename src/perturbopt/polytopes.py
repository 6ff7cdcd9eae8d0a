"""Solution polytopes, linear maximization oracles and normal-fan geometry.

Two polytope kinds are supported:

- ``Permutahedron(n)``: vertices are the n! permutations of (1, ..., n);
  the oracle sorts the direction vector.
- ``VspFlow``: vertices are arc subsets with in/out degree at most one per
  task (partitions of the tasks into vehicle paths); the oracle is a
  max-weight bipartite matching from out-copies to in-copies of the
  tasks, solved as a rectangular assignment.

A single direction goes to the kind's own oracle, ``argmax``, which also
flags ties exactly: ``linear_oracle``, and the risk's lam = 0 rows on a
polytope past the enumeration cap.  A batch of directions may instead be
scored against the vertex table: ``_vertex_argmax`` takes the row-wise
argmax of ``directions @ vertices.T`` in row blocks of bounded size, and
flags a row whose runner-up scores within TIE_TOL of the top, which is
the tie each kind's ``argmax`` flags.  Off a tie the maximizer is
unique, so both give the same vertex.

A tie is split by ``p0`` alone, from theta and the vertex table.  The
unperturbed policy is the lam -> 0 limit of the perturbed one, so a
vertex of the tied set W (the vertices within TIE_TOL of the top score)
gets P(it maximizes <y', Z> over W), Z Gaussian.  Symmetry fixes that law
in two cases: two tied vertices get exact halves, since Z and -Z are
equally likely; on a permutahedron W is every order of theta's groups of
equal coordinates, Z is exchangeable within each group, and so W is
split uniformly.  Only a tie of three or more vertices of another
polytope is estimated, from Gaussian draws scored against W.

All geometric quantities (internal cone radius, tie-splitting measure)
are computed from vertex enumeration.  Enumeration is capped at
ENUMERATION_CAP vertices; beyond the cap only the oracle is available,
and a polytope remembers that its enumeration failed.

scipy is imported only on the assignment path, inside
``VspFlow._min_cost_flow``: building instances, enumerating vertices,
splitting a tie and every vertex-table scan need numpy alone, so
``generate`` starts without scipy.  The assignment, and with it
scipy.optimize, still loads wherever a single direction meets
``VspFlow.argmax`` (``linear_oracle``) and wherever a VspFlow past the
enumeration cap scores a batch or a lam = 0 row; the risk's perturbed
and lam = 0 batches on an enumerable VspFlow read the vertex table
instead.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

ENUMERATION_CAP = 10_000
# Absolute tolerance on <y, theta> gaps when declaring a tie.  Exact ties
# from integer feature data dominate in practice; perturbed directions hit
# ties with probability zero.
TIE_TOL = 1e-12
# Element budget of one block of direction-by-vertex scores (160 MB of
# float64), shared by every vertex-table scan.
_BLOCK_ELEMENTS = int(2e7)


class EnumerationUnavailable(RuntimeError):
    """Raised when an operation needs vertex enumeration above the cap."""


class DimensionMismatch(ValueError):
    pass


@dataclass(frozen=True)
class OracleResult:
    y: np.ndarray
    value: float
    tie: bool


@dataclass(frozen=True)
class SurrogateMeasure:
    """Tie-splitting measure over solutions: atoms (vertex, probability),
    a single atom of mass 1 off the cone boundaries."""

    atoms: list[tuple[np.ndarray, float]]


def _check_theta(polytope: "SolutionPolytope", theta: np.ndarray) -> np.ndarray:
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (polytope.dim,):
        raise DimensionMismatch(
            f"direction has shape {theta.shape}, polytope dimension is {polytope.dim}"
        )
    if not np.all(np.isfinite(theta)):
        raise ValueError("direction has non-finite entries")
    return theta


class SolutionPolytope:
    """Base class; concrete kinds implement argmax and vertex iteration."""

    dim: int

    def argmax(self, theta: np.ndarray) -> OracleResult:
        raise NotImplementedError

    def _iter_vertices(self):
        raise NotImplementedError

    def vertex_count(self) -> int:
        return len(self.vertices())

    def vertices(self) -> np.ndarray:
        """All vertices, shape (N, dim), from one pass that stops one vertex
        past the cap.  The outcome is cached after the first call: the
        vertex array, or the fact that the polytope is past the cap, which
        later calls raise again without a second pass."""
        cached = getattr(self, "_vertices_cache", None)
        if cached is not None:
            return cached
        if not getattr(self, "_past_cap", False):
            verts = list(itertools.islice(self._iter_vertices(), ENUMERATION_CAP + 1))
            if len(verts) <= ENUMERATION_CAP:
                verts = np.array(verts, dtype=np.float64)
                verts.setflags(write=False)
                setattr(self, "_vertices_cache", verts)
                return verts
            setattr(self, "_past_cap", True)
        raise EnumerationUnavailable(f"{self!r} has more than {ENUMERATION_CAP} vertices")

    def _pairwise_distances(self) -> np.ndarray:
        cached = getattr(self, "_dist_cache", None)
        if cached is not None:
            return cached
        verts = self.vertices()
        diff = verts[:, None, :] - verts[None, :, :]
        dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        setattr(self, "_dist_cache", dist)
        return dist


class Permutahedron(SolutionPolytope):
    """Convex hull of the permutations of (1, ..., n)."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = n
        self.dim = n

    def __repr__(self):
        return f"Permutahedron({self.n})"

    def vertex_count(self) -> int:
        return math.factorial(self.n)

    def _iter_vertices(self):
        for perm in itertools.permutations(range(1, self.n + 1)):
            yield perm

    def argmax(self, theta: np.ndarray) -> OracleResult:
        theta = _check_theta(self, theta)
        order = np.argsort(theta, kind="stable")
        y = np.empty(self.n, dtype=np.float64)
        y[order] = np.arange(1, self.n + 1, dtype=np.float64)
        value = float(y @ theta)
        sorted_theta = theta[order]
        tie = bool(np.any(np.diff(sorted_theta) <= TIE_TOL)) if self.n > 1 else False
        return OracleResult(y, value, tie)


class VspFlow(SolutionPolytope):
    """Partitions of tasks into vehicle paths, as arc-subset indicators.

    ``arcs`` is a list of (i, j) task pairs with i operated before j; a
    feasible solution is any arc subset with in-degree and out-degree at
    most one per task (in a DAG such subsets are exactly the partitions of
    the tasks into paths).  Such a subset is a matching from out-copies to
    in-copies of the tasks, which is how the oracle solves it.
    """

    def __init__(self, n_tasks: int, arcs):
        if n_tasks < 1:
            raise ValueError("need at least one task")
        self.n_tasks = n_tasks
        self.arcs = [(int(i), int(j)) for i, j in arcs]
        for i, j in self.arcs:
            if not (0 <= i < n_tasks and 0 <= j < n_tasks) or i == j:
                raise ValueError(f"bad arc ({i}, {j})")
        if len(set(self.arcs)) != len(self.arcs):
            # parallel arcs would share one cell of the assignment matrix
            raise ValueError("duplicate arcs")
        self.dim = len(self.arcs)
        if self.dim == 0:
            raise ValueError("need at least one arc")
        self._tails = np.array([i for i, _ in self.arcs])
        self._heads = np.array([j for _, j in self.arcs])
        self._arc_at = np.full((n_tasks, n_tasks), -1)
        self._arc_at[self._tails, self._heads] = np.arange(self.dim)

    def __repr__(self):
        return f"VspFlow({self.n_tasks} tasks, {len(self.arcs)} arcs)"

    def _iter_vertices(self):
        m = len(self.arcs)
        out_used = [False] * self.n_tasks
        in_used = [False] * self.n_tasks
        chosen = []

        def rec(k):
            if k == m:
                y = np.zeros(m)
                y[chosen] = 1.0
                yield y
                return
            yield from rec(k + 1)
            i, j = self.arcs[k]
            if not out_used[i] and not in_used[j]:
                out_used[i] = True
                in_used[j] = True
                chosen.append(k)
                yield from rec(k + 1)
                chosen.pop()
                out_used[i] = False
                in_used[j] = False

        yield from rec(0)

    def n_paths(self, y: np.ndarray) -> int:
        """Number of vehicle paths used by solution y."""
        return self.n_tasks - int(round(float(np.sum(y))))

    def paths(self, y: np.ndarray) -> list[list[int]]:
        """Decompose solution y into its vehicle paths (task sequences)."""
        nxt = {}
        has_pred = set()
        for idx, (i, j) in enumerate(self.arcs):
            if y[idx] > 0.5:
                nxt[i] = j
                has_pred.add(j)
        out = []
        for start in range(self.n_tasks):
            if start in has_pred:
                continue
            path = [start]
            while path[-1] in nxt:
                path.append(nxt[path[-1]])
            out.append(path)
        return out

    def _min_cost_flow(self, theta: np.ndarray, banned: int = -1, forced: int = -1):
        """Max-weight degree-constrained arc subset.  Returns (y, value).

        One rectangular assignment: row i is task i's out-copy, column j <
        n its in-copy, and column n + i its own zero-cost "unmatched" slot.
        Arc (i, j) costs -theta; every other cell is infeasible.  ``banned``
        removes one arc; ``forced`` makes one arc's cost dominate so every
        optimal assignment includes it.
        """
        n = self.n_tasks
        cost = np.full((n, 2 * n), np.inf)
        cost[self._tails, self._heads] = -theta
        cost[np.arange(n), n + np.arange(n)] = 0.0
        if banned >= 0:
            cost[self._tails[banned], self._heads[banned]] = np.inf
        if forced >= 0:
            big = 10.0 * (float(np.sum(np.abs(theta))) + 1.0)
            cost[self._tails[forced], self._heads[forced]] = -big
        from scipy.optimize import linear_sum_assignment

        rows, cols = linear_sum_assignment(cost)
        matched = cols < n
        used = np.sort(self._arc_at[rows[matched], cols[matched]])
        y = np.zeros(self.dim)
        y[used] = 1.0
        value = 0.0
        for idx in used:
            value += float(theta[idx])
        return y, value

    def argmax(self, theta: np.ndarray) -> OracleResult:
        theta = _check_theta(self, theta)
        y, value = self._min_cost_flow(theta)
        used = [i for i in range(self.dim) if y[i] > 0.5]
        unused = [i for i in range(self.dim) if y[i] < 0.5]
        # Exact tie check: any alternative optimum differs from y on some
        # arc, so it survives banning one used arc or forcing one unused.
        tie = False
        for idx in used:
            _, v2 = self._min_cost_flow(theta, banned=idx)
            if v2 >= value - TIE_TOL:
                tie = True
                break
        if not tie:
            for idx in unused:
                _, v2 = self._min_cost_flow(theta, forced=idx)
                if v2 >= value - TIE_TOL:
                    tie = True
                    break
        return OracleResult(y, float(value), tie)


# ---------------------------------------------------------------------------
# Module-level operations


def linear_oracle(polytope: SolutionPolytope, theta) -> OracleResult:
    """Return a vertex maximizing <y, theta>, with a tie flag."""
    return polytope.argmax(np.asarray(theta, dtype=np.float64))


def internal_radius(polytope: SolutionPolytope, theta) -> float:
    """Distance from theta to the boundary of its normal cone.

    Computed as min over vertices y' != y* of <y* - y', theta> / |y* - y'|,
    which equals the distance to the nearest valid constraint hyperplane of
    the winning cone. Zero exactly on cone boundaries (oracle ties).
    """
    theta = _check_theta(polytope, theta)
    return float(internal_radius_batch(polytope, theta[None, :])[0])


def _row_blocks(n_rows: int, n_verts: int):
    """Slices of at most _BLOCK_ELEMENTS // n_verts rows (at least one)."""
    step = max(1, _BLOCK_ELEMENTS // max(n_verts, 1))
    for lo in range(0, n_rows, step):
        yield slice(lo, min(lo + step, n_rows))


def _vertex_argmax(directions: np.ndarray, verts: np.ndarray):
    """(winners, ties) per direction: the row index into verts of the
    top-scoring vertex, the first on a tie, and whether another vertex
    scores within TIE_TOL of the top, which is the tie each kind's argmax
    flags.  Scores are built one row block at a time, so memory stays
    within _BLOCK_ELEMENTS scores whatever the batch size; each row's
    scores, and so its winner and tie flag, do not depend on the
    blocking."""
    winners = np.empty(len(directions), dtype=np.intp)
    ties = np.empty(len(directions), dtype=bool)
    for rows in _row_blocks(len(directions), len(verts)):
        scores = directions[rows] @ verts.T
        winners[rows] = np.argmax(scores, axis=1)
        top = np.take_along_axis(scores, winners[rows, None], axis=1)
        ties[rows] = np.count_nonzero(scores >= top - TIE_TOL, axis=1) > 1
    return winners, ties


def internal_radius_batch(polytope: SolutionPolytope, thetas: np.ndarray) -> np.ndarray:
    """Vectorized internal radius for a batch of directions, shape (B, d),
    or for a stack of S such batches, shape (S, B, d), which returns shape
    (S, B).

    Each stack entry is scored by its own product, as numpy's matmul runs
    one per entry, so entry s equals the call on thetas[s] bit for bit,
    and a stack of single directions, (S, 1, d), gives internal_radius's
    bits at each: a product of one row and one of many round differently.
    A batch is worked in row blocks, a stack in blocks of whole entries,
    each in two block-sized buffers: the scores, which become the gaps to
    the top score and then the ratios in place, and the distances from
    each row's winner.  Memory so stays within twice _BLOCK_ELEMENTS
    floats whatever the batch size, or the size of one entry if larger."""
    verts = polytope.vertices()  # (N, d)
    dist = polytope._pairwise_distances()  # (N, N)
    thetas = np.asarray(thetas, dtype=np.float64)
    per_unit = thetas.shape[1] if thetas.ndim == 3 else 1  # rows per block unit
    out = np.empty(thetas.shape[:-1])
    flat = out.reshape(-1)
    buffers = None
    for block in _row_blocks(len(thetas), per_unit * len(verts)):
        units = thetas[block]
        n = per_unit * len(units)
        if buffers is None:  # the first block is the largest
            buffers = np.empty((2, n, len(verts)))
        ratio, denom = buffers[0, :n], buffers[1, :n]
        np.matmul(units, verts.T, out=ratio.reshape(*units.shape[:-1], -1))  # the scores
        rows = np.arange(n)
        winner = np.argmax(ratio, axis=1)
        np.subtract(ratio[rows, winner][:, None], ratio, out=ratio)  # the gaps
        # every index is valid, and mode "raise" would buffer a block-sized copy
        np.take(dist, winner, axis=0, out=denom, mode="clip")
        with np.errstate(invalid="ignore", divide="ignore"):
            np.divide(ratio, denom, out=ratio)
        ratio[rows, winner] = np.inf
        flat[block.start * per_unit : block.stop * per_unit] = np.maximum(np.min(ratio, axis=1), 0.0)
    return out


# Gaussian draws behind a tie split that symmetry does not fix.
P0_SAMPLES = 100_000


def p0(polytope: SolutionPolytope, theta, rng: np.random.Generator | None) -> SurrogateMeasure:
    """The unperturbed policy measure at theta; the one place a tie is split.

    It reads the vertex table, never the oracle, so a polytope past the
    enumeration cap raises EnumerationUnavailable, tie or not.  W is the
    set of vertices that score within TIE_TOL of the top.  One vertex in W
    is a Dirac.  Two share the mass in exact halves on any polytope, and a
    permutahedron splits it uniformly over W: both are exact (see the
    module docstring).  Any other tie, three or more vertices of a
    VspFlow, takes the proportions of P0_SAMPLES Gaussian draws Z that
    each vertex of W wins by <y, Z>; only this case reads rng, which must
    then be given (the risk draws it from the instance's "p0/<index>"
    substream).
    """
    theta = _check_theta(polytope, theta)
    verts = polytope.vertices()
    scores = verts @ theta
    tied = np.flatnonzero(scores >= np.max(scores) - TIE_TOL)
    if len(tied) <= 2 or isinstance(polytope, Permutahedron):
        return SurrogateMeasure(atoms=[(verts[i], 1.0 / len(tied)) for i in tied])
    if rng is None:
        raise ValueError("p0 needs an rng to split a tie of three or more vertices")
    winners, _ = _vertex_argmax(rng.standard_normal((P0_SAMPLES, polytope.dim)), verts[tied])
    counts = np.bincount(winners, minlength=len(tied))
    return SurrogateMeasure(
        atoms=[(verts[i], float(c / P0_SAMPLES)) for i, c in zip(tied, counts) if c > 0]
    )

"""Solution polytopes, linear maximization oracles and normal-fan geometry.

Two polytope kinds are supported, each with one exact oracle:

- ``Permutahedron(n)``: vertices are the n! permutations of (1, ..., n);
  the oracle sorts the direction vector.
- ``VspFlow``: vertices are arc subsets with in/out degree at most one per
  task (partitions of the tasks into vehicle paths); the oracle is a
  max-weight bipartite matching from out-copies to in-copies of the
  tasks, solved as a rectangular assignment.

All geometric quantities (internal cone radius, tie-splitting measure)
are computed exactly from vertex enumeration.  Enumeration is capped at
ENUMERATION_CAP vertices; beyond the cap only the oracle is available.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

ENUMERATION_CAP = 10_000
# Absolute tolerance on <y, theta> gaps when declaring a tie.  Exact ties
# from integer feature data dominate in practice; perturbed directions hit
# ties with probability zero.
TIE_TOL = 1e-12


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
    """Tie-splitting measure over solutions: atoms (vertex, probability).

    ``std_errors`` is None in exact mode and carries the Monte Carlo
    standard error per atom in sampled mode.
    """

    atoms: list[tuple[np.ndarray, float]]
    is_dirac: bool
    std_errors: np.ndarray | None = None

    def probabilities(self) -> np.ndarray:
        return np.array([p for _, p in self.atoms])


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
        raise NotImplementedError

    @property
    def enumerable(self) -> bool:
        return self.vertex_count() <= ENUMERATION_CAP

    def vertices(self) -> np.ndarray:
        """All vertices, shape (N, dim).  Cached after first call."""
        cached = getattr(self, "_vertices_cache", None)
        if cached is not None:
            return cached
        if not self.enumerable:
            raise EnumerationUnavailable(
                f"{self!r} has more than {ENUMERATION_CAP} vertices"
            )
        verts = np.array(list(self._iter_vertices()), dtype=np.float64)
        verts.setflags(write=False)
        setattr(self, "_vertices_cache", verts)
        return verts

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

    def vertex_count(self) -> int:
        cached = getattr(self, "_count_cache", None)
        if cached is None:
            cached = sum(1 for _ in self._iter_subsets(cap=None))
            setattr(self, "_count_cache", cached)
        return cached

    @property
    def enumerable(self) -> bool:
        # Stop counting past the cap: a DAG with a few dozen arcs has far
        # too many subsets to count in full.
        cached = getattr(self, "_enumerable_cache", None)
        if cached is None:
            try:
                for _ in self._iter_subsets():
                    pass
                cached = True
            except EnumerationUnavailable:
                cached = False
            setattr(self, "_enumerable_cache", cached)
        return cached

    def _iter_subsets(self, cap=ENUMERATION_CAP):
        m = len(self.arcs)
        out_used = [False] * self.n_tasks
        in_used = [False] * self.n_tasks
        chosen = []
        emitted = 0

        def rec(k):
            nonlocal emitted
            if k == m:
                y = np.zeros(m)
                y[chosen] = 1.0
                emitted += 1
                if cap is not None and emitted > cap:
                    raise EnumerationUnavailable("vertex cap exceeded")
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

    def _iter_vertices(self):
        yield from self._iter_subsets(cap=None)

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


def internal_radius_batch(polytope: SolutionPolytope, thetas: np.ndarray) -> np.ndarray:
    """Vectorized internal radius for a batch of directions, shape (B, d)."""
    verts = polytope.vertices()  # (N, d)
    dist = polytope._pairwise_distances()  # (N, N)
    thetas = np.asarray(thetas, dtype=np.float64)
    out = np.empty(len(thetas))
    block = max(1, int(2e7) // max(len(verts), 1))
    for lo in range(0, len(thetas), block):
        hi = min(lo + block, len(thetas))
        scores = thetas[lo:hi] @ verts.T  # (B, N)
        rows = np.arange(hi - lo)
        winner = np.argmax(scores, axis=1)
        gaps = scores[rows, winner][:, None] - scores
        denom = dist[winner]
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = gaps / denom
        ratio[rows, winner] = np.inf
        out[lo:hi] = np.maximum(np.min(ratio, axis=1), 0.0)
    return out


def _uniform_ball(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    g = rng.standard_normal((n, d))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    radii = rng.random(n) ** (1.0 / d)
    return g * radii[:, None]


# Tie-splitting Monte Carlo: ball radius relative to the direction scale and
# the number of ball samples.
P0_RADIUS_REL = 1e-9
P0_SAMPLES = 100_000


def p0(
    polytope: SolutionPolytope,
    theta,
    rng: np.random.Generator | None = None,
    n_samples: int = P0_SAMPLES,
) -> SurrogateMeasure:
    """The unperturbed policy measure at theta.

    Generic directions give a Dirac at the oracle output.  On cone
    boundaries the cone proportions are estimated by Monte Carlo over a
    uniform ball of infinitesimal radius around theta.
    """
    theta = _check_theta(polytope, theta)
    result = polytope.argmax(theta)
    if not result.tie:
        return SurrogateMeasure(atoms=[(result.y, 1.0)], is_dirac=True)
    verts = polytope.vertices()
    if rng is None:
        rng = np.random.default_rng(0)
    radius = P0_RADIUS_REL * (1.0 + float(np.linalg.norm(theta)))
    probes = theta[None, :] + radius * _uniform_ball(rng, n_samples, polytope.dim)
    winners = np.argmax(probes @ verts.T, axis=1)
    counts = np.bincount(winners, minlength=len(verts)).astype(np.float64)
    probs = counts / n_samples
    keep = np.flatnonzero(probs > 0)
    atoms = [(verts[i], float(probs[i])) for i in keep]
    ses = np.sqrt(probs[keep] * (1.0 - probs[keep]) / n_samples)
    return SurrogateMeasure(atoms=atoms, is_dirac=False, std_errors=ses)


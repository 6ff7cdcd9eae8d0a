"""Problem domains: instances, feature maps, and black-box cost oracles.

Three domains are provided:

- ``scheduling``: single-machine scheduling with release and processing
  times; solutions are permutations (Permutahedron), cost is the total
  completion time.
- ``stovsp``: stochastic vehicle scheduling on a task DAG; solutions are
  path partitions (VspFlow), cost is expected propagated delay plus a
  per-vehicle charge over a frozen scenario set.
- ``contextual``: contextual two-way decision; the instance carries a
  context vector and a pair of scenario costs, the polytope is the
  two-vertex VspFlow chain (Y = {0, 1} in R).

Instances within a partition cell share the polytope and dimensions; the
cost oracles are deterministic functions of (y, x) — stochastic costs use
a scenario table frozen by the instance's scenario seed.

A cost oracle scores batches only: ``eval_theta_batch(x, thetas)`` costs
the oracle solution of each direction row, ``eval_vertices(x, vertices)``
costs each solution row, and ``bounds(x)`` gives the declared cost range.
One solution is costed as a batch of one, ``eval_vertices(x, y[None])[0]``.
``eval_theta_batch`` takes thetas in any memory layout, with the same
bits in each, and keeps no view of them: the Monte Carlo risk pass hands
it the transpose of a column buffer that it refills for the next
instance.
Neither checks feasibility: every solution it is given comes from a
polytope's oracle or vertex table, and the polytope tests check those.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .polytopes import (
    EnumerationUnavailable,
    Permutahedron,
    SolutionPolytope,
    VspFlow,
    _vertex_argmax,
)
from .rngs import spawn_seed, substream

FORMAT_NAME = "perturbopt-instances"
FORMAT_VERSION = 1


@dataclass(frozen=True)
class Instance:
    domain: str
    partition_id: str
    index: int
    features: dict
    polytope: SolutionPolytope
    scenario_seed: int
    declared: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.polytope.dim


# ---------------------------------------------------------------------------
# Cost oracles


class SchedulingCompletionTime:
    """Sum of job completion times; jobs run in decreasing priority-rank
    order, C = max(C_prev, r_j) + p_j.

    Both batch methods call ``kernels.scheduling_total_completion``, whose
    docstring gives the tie rule and when a batch reads the run-order table
    in place of sorting each row."""

    def eval_theta_batch(self, x: Instance, thetas: np.ndarray) -> np.ndarray:
        """Cost of the oracle solution at each direction row (fused path)."""
        return kernels.scheduling_total_completion(
            thetas, x.features["release"], x.features["processing"]
        )

    def eval_vertices(self, x: Instance, vertices: np.ndarray) -> np.ndarray:
        return kernels.scheduling_total_completion(
            np.asarray(vertices, dtype=np.float64),
            x.features["release"],
            x.features["processing"],
        )

    def bounds(self, x: Instance) -> tuple[float, float]:
        n = x.dim
        r_max = x.declared.get("r_max", float(np.max(x.features["release"])))
        p_max = x.declared.get("p_max", float(np.max(x.features["processing"])))
        p_min = x.declared.get("p_min", 0.0)
        return n * p_min, n * (r_max + n * p_max)


class StoVspDelayCost:
    """Expected propagated delay plus a per-vehicle charge.

    Per scenario, each path propagates delay along its tasks:
    carry = max(0, delay_prev - slack), delay = carry + intrinsic.
    The scenario table is frozen by the instance's scenario seed, making
    the cost a deterministic function of (y, x).

    Every cost, whatever path found its solution, is ``_cost_of`` on a 0/1
    arc vector: ``eval_vertices`` costs the given solutions, and
    ``eval_theta_batch`` costs the oracle solution of each direction (see
    there for its two oracle paths).
    """

    def __init__(self, c_delay: float = 1.0, c_vehicle: float = 1.0, n_scenarios: int = 100):
        self.c_delay = float(c_delay)
        self.c_vehicle = float(c_vehicle)
        self.n_scenarios = int(n_scenarios)
        self._scenario_cache: dict[tuple, np.ndarray] = {}

    def scenario_delays(self, x: Instance) -> np.ndarray:
        """Intrinsic delays, shape (n_scenarios, n_tasks)."""
        key = (x.scenario_seed, x.polytope.n_tasks, self.n_scenarios)
        table = self._scenario_cache.get(key)
        if table is None:
            rng = substream(x.scenario_seed, "scenario")
            delay_max = x.declared.get("delay_max", 1.0)
            table = rng.random((self.n_scenarios, x.polytope.n_tasks)) * delay_max
            self._scenario_cache[key] = table
        return table

    def _cost_of(self, y: np.ndarray, x: Instance) -> float:
        poly: VspFlow = x.polytope
        intrinsic = self.scenario_delays(x)  # (S, n)
        slack = x.features["slack"]
        total = np.zeros(intrinsic.shape[0])
        for path in poly.paths(y):
            delay = intrinsic[:, path[0]].copy()
            total += delay
            for prev, cur in zip(path[:-1], path[1:]):
                s = slack[poly._arc_at[prev, cur]]
                delay = np.maximum(0.0, delay - s) + intrinsic[:, cur]
                total += delay
        mean_delay = float(np.mean(total))
        return self.c_delay * mean_delay + self.c_vehicle * poly.n_paths(y)

    def eval_theta_batch(self, x: Instance, thetas: np.ndarray) -> np.ndarray:
        """Cost of the oracle solution at each direction row.

        The rows are perturbed directions, which tie with probability zero,
        so each has one maximizing vertex.  Where the polytope's vertices
        enumerate, the winners are the row-wise argmax of ``thetas @ V.T``
        over the vertex table V, scored in blocks of bounded memory, and
        each distinct winner is costed once.  Past the enumeration cap
        each row is solved by its own assignment (``_min_cost_flow``), and
        each distinct solution is costed once.  The two paths pick the
        same vertex, and the vertex table holds the same 0/1 vectors the
        assignment returns, so ``_cost_of`` gives both the same bits.
        """
        poly: VspFlow = x.polytope
        thetas = np.ascontiguousarray(thetas)  # the matmul's bits depend on the layout it reads
        try:
            verts = poly.vertices()
        except EnumerationUnavailable:
            solutions = [poly._min_cost_flow(theta)[0] for theta in thetas]
            verts, picks = np.unique(solutions, axis=0, return_inverse=True)
        else:
            picks, _ = _vertex_argmax(thetas, verts)
        distinct, index = np.unique(picks, return_inverse=True)
        return np.array([self._cost_of(verts[k], x) for k in distinct])[index.reshape(-1)]

    def eval_vertices(self, x: Instance, vertices: np.ndarray) -> np.ndarray:
        return np.array([self._cost_of(np.asarray(v), x) for v in vertices])

    def bounds(self, x: Instance) -> tuple[float, float]:
        poly: VspFlow = x.polytope
        n, m = poly.n_tasks, poly.dim
        delay_max = x.declared.get("delay_max", 1.0)
        lo = self.c_vehicle * max(1, n - m)
        hi = self.c_delay * n * n * delay_max + self.c_vehicle * n
        return lo, hi


class ContextualWrapper:
    """Contextual stochastic cost: the instance bundles context and noise,
    f(y, x) returns the realized scenario cost of decision y."""

    def eval_theta_batch(self, x: Instance, thetas: np.ndarray) -> np.ndarray:
        c0, c1 = x.features["costs"]
        pick1 = thetas[:, 0] > 0.0
        return np.where(pick1, c1, c0)

    def eval_vertices(self, x: Instance, vertices: np.ndarray) -> np.ndarray:
        c0, c1 = x.features["costs"]
        return np.where(np.asarray(vertices)[:, 0] > 0.5, c1, c0)

    def bounds(self, x: Instance) -> tuple[float, float]:
        return 0.0, 1.0


# ---------------------------------------------------------------------------
# Instance generation


def _two_task_chain() -> VspFlow:
    return VspFlow(2, [(0, 1)])


def _stovsp_shapes(n_tasks: int, seed: int, n_shapes: int = 2, arc_cap: int = 12):
    """A finite family of task-DAG shapes per size (the partition cells)."""
    shapes = []
    for s in range(n_shapes):
        rng = substream(seed, f"shapes/{n_tasks}/{s}")
        arcs = [(i, i + 1) for i in range(n_tasks - 1)]  # chain backbone
        extra = [
            (i, j)
            for i in range(n_tasks)
            for j in range(i + 2, min(i + 4, n_tasks))
        ]
        extra = [extra[k] for k in rng.permutation(len(extra))]
        for arc in extra:
            if len(arcs) >= arc_cap:
                break
            if rng.random() < 0.6:
                arcs.append(arc)
        arcs = sorted(arcs)
        shapes.append(VspFlow(n_tasks, arcs))
    return shapes


def generate_instances(domain: str, count: int, seed: int, **params) -> list[Instance]:
    """Draw i.i.d. instances from the documented synthetic distribution.

    Fully reproducible from seed; instance i only touches the substream
    labeled "instances/i", so generation parallelizes per index.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if domain == "scheduling":
        return _generate_scheduling(count, seed, **params)
    if domain == "stovsp":
        return _generate_stovsp(count, seed, **params)
    if domain == "contextual":
        return _generate_contextual(count, seed, **params)
    raise ValueError(f"unknown domain {domain!r}")


def _generate_scheduling(
    count, seed, jobs=(4,), r_max=1.0, p_min=0.2, p_max=1.0
) -> list[Instance]:
    jobs = tuple(int(j) for j in jobs)
    if any(j < 1 for j in jobs):
        raise ValueError("job counts must be >= 1")
    polytopes = {n: Permutahedron(n) for n in jobs}
    declared = {"r_max": float(r_max), "p_min": float(p_min), "p_max": float(p_max)}
    out = []
    for i in range(count):
        rng = substream(seed, f"instances/{i}")
        n = jobs[rng.integers(len(jobs))]
        release = rng.random(n) * r_max
        processing = p_min + rng.random(n) * (p_max - p_min)
        out.append(
            Instance(
                domain="scheduling",
                partition_id=f"jobs{n}",
                index=i,
                features={"release": release, "processing": processing},
                polytope=polytopes[n],
                scenario_seed=spawn_seed(seed, f"scenario/{i}"),
                declared=declared,
            )
        )
    return out


def _generate_stovsp(
    count, seed, tasks=(5,), slack_max=1.0, delay_max=1.0, n_shapes=2
) -> list[Instance]:
    tasks = tuple(int(t) for t in tasks)
    if any(t < 2 for t in tasks):
        raise ValueError("task counts must be >= 2")
    shapes = {t: _stovsp_shapes(t, seed, n_shapes=n_shapes) for t in tasks}
    declared = {"slack_max": float(slack_max), "delay_max": float(delay_max)}
    out = []
    for i in range(count):
        rng = substream(seed, f"instances/{i}")
        t = tasks[rng.integers(len(tasks))]
        shape_id = int(rng.integers(len(shapes[t])))
        poly = shapes[t][shape_id]
        m = poly.dim
        slack = rng.random(m) * slack_max
        order = np.argsort(np.argsort(slack))
        slack_pct = (order + 0.5) / m
        outdeg = np.zeros(poly.n_tasks)
        for (a, _b) in poly.arcs:
            outdeg[a] += 1
        tail_outdeg = np.array([outdeg[a] for (a, _b) in poly.arcs])
        tail_outdeg = tail_outdeg / max(1.0, float(np.max(outdeg)))
        out.append(
            Instance(
                domain="stovsp",
                partition_id=f"tasks{t}-shape{shape_id}",
                index=i,
                features={
                    "slack": slack,
                    "slack_pct": slack_pct,
                    "tail_outdeg": tail_outdeg,
                },
                polytope=poly,
                scenario_seed=spawn_seed(seed, f"scenario/{i}"),
                declared=declared,
            )
        )
    return out


def _generate_contextual(count, seed, d_context=2, signal=0.0) -> list[Instance]:
    """Context u ~ U[-1,1]^d; decision costs (c0, c1) in [0,1].

    With signal > 0 the cost gap correlates with the first context
    coordinate, so the optimal decision is learnable from the context.
    """
    if d_context < 1:
        raise ValueError("d_context must be >= 1")
    poly = _two_task_chain()
    declared = {"d_context": int(d_context), "signal": float(signal)}
    out = []
    for i in range(count):
        rng = substream(seed, f"instances/{i}")
        u = rng.random(d_context) * 2.0 - 1.0
        c0 = rng.random()
        c1 = rng.random()
        if signal > 0.0:
            # push c1 below c0 when u[0] > 0
            shift = signal * u[0]
            c1 = float(np.clip(0.5 - 0.5 * shift + 0.35 * (c1 - 0.5), 0.0, 1.0))
            c0 = float(np.clip(0.5 + 0.5 * shift + 0.35 * (c0 - 0.5), 0.0, 1.0))
        out.append(
            Instance(
                domain="contextual",
                partition_id=f"ctx{d_context}",
                index=i,
                features={"context": u, "costs": np.array([c0, c1])},
                polytope=poly,
                scenario_seed=spawn_seed(seed, f"scenario/{i}"),
                declared=declared,
            )
        )
    return out


def generator_params(domain: str) -> list[str]:
    """The keyword arguments of the domain's instance generator, which are
    the keys a config's ``domain.params`` may set."""
    generator = {
        "scheduling": _generate_scheduling,
        "stovsp": _generate_stovsp,
        "contextual": _generate_contextual,
    }[domain]
    return list(inspect.signature(generator).parameters)[2:]  # after count, seed


def default_cost_oracle(domain: str):
    if domain == "scheduling":
        return SchedulingCompletionTime()
    if domain == "stovsp":
        return StoVspDelayCost()
    if domain == "contextual":
        return ContextualWrapper()
    raise ValueError(f"unknown domain {domain!r}")


# ---------------------------------------------------------------------------
# Feature matrices (generalized linear model inputs)


def feature_matrix(x: Instance, d_model: int | None = None) -> np.ndarray:
    """Per-component model features, shape (d(G), d_model).

    Columns are normalized to max-norm <= 1 so the model Lipschitz constant
    is controlled by construction.
    """
    if x.domain == "scheduling":
        r_max = x.declared.get("r_max", 1.0) or 1.0
        p_max = x.declared.get("p_max", 1.0) or 1.0
        cols = [x.features["release"] / r_max, x.features["processing"] / p_max]
        if d_model == 3:
            n = x.dim
            p_rank = np.argsort(np.argsort(x.features["processing"]))
            cols.append((p_rank + 1.0) / n)
        return np.column_stack(cols[: (d_model or 2)])
    if x.domain == "stovsp":
        slack_max = x.declared.get("slack_max", 1.0)
        cols = [
            x.features["slack"] / slack_max,
            x.features["slack_pct"],
            x.features["tail_outdeg"],
        ]
        return np.column_stack(cols[: (d_model or 3)])
    if x.domain == "contextual":
        return np.asarray(x.features["context"], dtype=np.float64)[None, :]
    raise ValueError(f"no feature map for domain {x.domain!r}")


# ---------------------------------------------------------------------------
# Oscillation


def osc_bound(oracle, instances) -> float:
    """Exact oscillation of the cost over the given instances: enumerate
    every (vertex, instance) pair."""
    lo, hi = np.inf, -np.inf
    for x in instances:
        vals = oracle.eval_vertices(x, x.polytope.vertices())
        lo = min(lo, float(np.min(vals)))
        hi = max(hi, float(np.max(vals)))
    return hi - lo


def declared_osc(oracle, instances) -> float:
    """Certified analytic oscillation bound from the declared boxes."""
    lo, hi = np.inf, -np.inf
    for x in instances:
        a, b = oracle.bounds(x)
        lo = min(lo, a)
        hi = max(hi, b)
    return hi - lo


# ---------------------------------------------------------------------------
# Serialization: one self-describing JSON document per instance


def _polytope_to_doc(poly: SolutionPolytope) -> dict:
    if isinstance(poly, Permutahedron):
        return {"kind": "permutahedron", "n": poly.n}
    if isinstance(poly, VspFlow):
        return {"kind": "vspflow", "n_tasks": poly.n_tasks, "arcs": [list(a) for a in poly.arcs]}
    raise TypeError(f"cannot serialize {poly!r}")


def _polytope_from_doc(doc: dict) -> SolutionPolytope:
    kind = doc["kind"]
    if kind == "permutahedron":
        return Permutahedron(doc["n"])
    if kind == "vspflow":
        return VspFlow(doc["n_tasks"], [tuple(a) for a in doc["arcs"]])
    raise ValueError(f"unknown polytope kind {kind!r}")


def instance_to_doc(x: Instance) -> dict:
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "domain": x.domain,
        "partition_id": x.partition_id,
        "index": x.index,
        "dim": x.dim,
        "features": {k: np.asarray(v).tolist() for k, v in x.features.items()},
        "polytope": _polytope_to_doc(x.polytope),
        "scenario_seed": x.scenario_seed,
        "declared": x.declared,
    }


def instance_from_doc(doc: dict) -> Instance:
    return _instance_from_doc(doc, {})


def _instance_from_doc(doc: dict, polytopes: dict[str, SolutionPolytope]) -> Instance:
    """The instance a document describes.  Its polytope is looked up in
    ``polytopes`` by the polytope document and added there when new, so
    instances read through one dict share one polytope object per cell."""
    if doc.get("format") != FORMAT_NAME:
        raise ValueError("not a perturbopt instance document")
    if doc.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported instance format version {doc.get('version')}")
    key = json.dumps(doc["polytope"], sort_keys=True)
    if key not in polytopes:
        polytopes[key] = _polytope_from_doc(doc["polytope"])
    return Instance(
        domain=doc["domain"],
        partition_id=doc["partition_id"],
        index=doc["index"],
        features={k: np.array(v, dtype=np.float64) for k, v in doc["features"].items()},
        polytope=polytopes[key],
        scenario_seed=doc["scenario_seed"],
        declared=doc.get("declared", {}),
    )


def save_instances(path, instances) -> None:
    with open(path, "w") as fh:
        for x in instances:
            fh.write(json.dumps(instance_to_doc(x), sort_keys=True) + "\n")


def load_instances(path) -> list[Instance]:
    """The instances of a file, one per line.  Instances with equal
    polytope documents share one polytope object, as generated instances
    of one partition cell do, so each cell enumerates its vertices and
    fills its caches once."""
    out = []
    polytopes: dict[str, SolutionPolytope] = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(_instance_from_doc(json.loads(line), polytopes))
    return out

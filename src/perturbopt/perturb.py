"""Gaussian perturbation, smoothed policy probabilities and risks.

The perturbation Z lives in R^{d(G)} with sqrt(d) Z standard normal, so
|Z| sqrt(d) follows a chi distribution with d degrees of freedom.

One rule picks the risk estimator, per instance, from its polytope alone:
at lam = 0 the unperturbed policy; for lam > 0 the closed form where
p_lambda has one (a one-dimensional two-vertex polytope, Permutahedron(2)),
and otherwise the Monte Carlo mean over common random numbers: the noise
block of instance i depends only on (master_seed, i), never on the
parameter w, so the map w -> empirical regularized risk is a fixed
deterministic surface either way.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincc, ndtr

from .model import GeneralizedLinearModel, ParamSpace
from .polytopes import (
    Permutahedron,
    SolutionPolytope,
    _split_tie,
    _vertex_argmax,
    internal_radius,
    linear_oracle,
)
from .problems import Instance
from .rngs import substream


@dataclass(frozen=True)
class PerturbationSpec:
    lam: float
    epsilon0: float = 1e-3
    mc_samples: int = 512
    master_seed: int = 0

    def __post_init__(self):
        if not (self.lam >= self.epsilon0 >= 0.0):
            raise ValueError("need lambda >= epsilon0 >= 0")
        if self.mc_samples < 1:
            raise ValueError("need at least one Monte Carlo sample")

    def with_lambda(self, lam: float, epsilon0: float | None = None) -> "PerturbationSpec":
        eps = self.epsilon0 if epsilon0 is None else epsilon0
        return dataclasses.replace(self, lam=lam, epsilon0=min(eps, lam))


@dataclass(frozen=True)
class RiskReport:
    value: float
    mc_std_error: float
    n_instances: int
    mc_samples: int
    lam: float
    epsilon0: float
    seed_trace: dict
    mode: str
    ties_encountered: bool = False

    def to_doc(self) -> dict:
        return {
            "value": self.value,
            "mc_std_error": self.mc_std_error,
            "n_instances": self.n_instances,
            "mc_samples": self.mc_samples,
            "lambda": self.lam,
            "epsilon0": self.epsilon0,
            "seed_trace": self.seed_trace,
            "mode": self.mode,
            "ties_encountered": self.ties_encountered,
        }


def sample_perturbation(d: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw size rows Z with sqrt(d) Z ~ N(0, Id): i.i.d. N(0, 1/d) entries."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return rng.standard_normal((size, d)) / np.sqrt(d)


def perturbation_block(spec: PerturbationSpec, instance_index: int, d: int) -> np.ndarray:
    """The frozen (K, d) noise block of an instance; row k is sample k.

    Depends only on (master_seed, instance index, k) - not on w - which is
    what makes the risk surface a fixed function under common random
    numbers.
    """
    rng = substream(spec.master_seed, f"perturb/{instance_index}")
    return sample_perturbation(d, rng, size=spec.mc_samples)


def chi_tail(threshold: float | np.ndarray, d: int) -> float | np.ndarray:
    """P(|Z| > threshold) for the d-dimensional perturbation law: the
    regularized upper incomplete gamma Q(d/2, d t^2 / 2), which is 1 for
    t <= 0.  A float for a scalar threshold, elementwise for an array.

    The square is a product: on a numpy scalar ``** 2`` goes through pow,
    which can differ from the array square in the last bit."""
    x = np.sqrt(d) * np.maximum(threshold, 0.0)
    tail = gammaincc(0.5 * d, 0.5 * (x * x))
    return float(tail) if np.ndim(tail) == 0 else tail


# ---------------------------------------------------------------------------
# Smoothed policy probabilities


def exact_policy_distribution(
    polytope: SolutionPolytope, thetas: np.ndarray, lam: float
) -> np.ndarray | None:
    """Closed-form p_lambda over the enumerated vertices for lam > 0 at each
    row of thetas (B, d): shape (B, N), row b the law at thetas[b].  The
    closed forms are Permutahedron(2) and any other polytope in R^1 with
    two vertices (Phi(theta/lam) up to vertex order).  Returns None when no
    closed form applies, which the polytope's kind and dimension decide
    without enumerating its vertices.  The lam = 0 measure, ties included,
    is polytopes.p0.
    """
    thetas = np.asarray(thetas, dtype=np.float64)
    if isinstance(polytope, Permutahedron):
        if polytope.n != 2:
            return None
        # winner (2,1) iff theta_1 > theta_2; Z_1 - Z_2 ~ N(0, 1)
        p_21 = ndtr((thetas[:, 0] - thetas[:, 1]) / lam)[:, None]
        return np.where(polytope.vertices()[:, 0] == 2.0, p_21, 1.0 - p_21)
    if polytope.dim != 1 or len(verts := polytope.vertices()) != 2:
        return None
    gap = float(verts[1, 0] - verts[0, 0])
    p_hi = ndtr(np.sign(gap) * thetas[:, 0] / lam)
    return np.column_stack([1.0 - p_hi, p_hi])


def sampled_policy_distribution(
    polytope: SolutionPolytope,
    theta: np.ndarray,
    lam: float,
    n_samples: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo p_lambda over the enumerated vertices: perturbed
    directions are generic, so the tie-free oracle applies."""
    verts = polytope.vertices()
    z = sample_perturbation(polytope.dim, rng, size=n_samples)
    winners = _vertex_argmax(theta[None, :] + lam * z, verts)
    counts = np.bincount(winners, minlength=len(verts)).astype(np.float64)
    probs = counts / n_samples
    ses = np.sqrt(probs * (1.0 - probs) / n_samples)
    return probs, ses


# ---------------------------------------------------------------------------
# Risks


def _policy_cost_unperturbed(
    oracle, x: Instance, theta: np.ndarray, master_seed: int
) -> tuple[float, bool]:
    """Cost of the unperturbed policy with the measure-valued tie
    convention: off a tie, the cost of the oracle solution; on a tie, the
    mean cost under polytopes.p0's tie-split measure, whose Monte Carlo
    draws (where no exact split applies) come from the instance's
    "p0/<index>" substream.  The split starts from this call's oracle
    result, so the oracle is solved once per theta."""
    res = linear_oracle(x.polytope, theta)
    if not res.tie:
        return float(oracle.eval(res.y, x)), False
    measure = _split_tie(x.polytope, theta, res, substream(master_seed, f"p0/{x.index}"))
    return float(sum(p * float(oracle.eval(v, x)) for v, p in measure.atoms)), True


def _param_rows(W, model, space) -> np.ndarray:
    """W as a C-contiguous (M, d) float64 array; a single w is one row.
    Every row passes model.check_param, so a bad row raises what
    model.predict raises."""
    W = np.asarray(W, dtype=np.float64)
    for w in W if W.ndim == 2 else [W]:
        model.check_param(w, space)
    return np.ascontiguousarray(W.reshape(-1, model.d))


def _risk_terms(W, instances, oracle, model, space, spec, blocks=None):
    """The one risk estimator, for a batch W of M parameters (a single w is
    M = 1).  Yields (values, costs, ties) per instance: the risk term of
    each w, the (M, K) Monte Carlo cost samples behind them (None for
    terms that drew no noise) and whether each row's lam = 0 policy hit a
    tie.

    Every row of W is checked once, before any oracle call.  Per instance,
    the feature matrix is built once and the thetas of all rows come from
    one stacked matmul, one gemv per row as in model.predict(w, x), bit for
    bit.  At lam = 0 each row takes the unperturbed policy.  Otherwise,
    where exact_policy_distribution has a closed form, each row's term is
    its probabilities dotted with the vertex costs (one dot per row, as
    ``p @ costs``); elsewhere the instance's CRN noise block (blocks[i], or
    drawn here once for all rows) perturbs every theta in one
    eval_theta_batch call, and the mean over the K samples of each row
    equals np.mean of that row's costs bit for bit."""
    W = _param_rows(W, model, space)
    lam = spec.lam
    no_ties = np.zeros(len(W), dtype=bool)
    for i, x in enumerate(instances):
        thetas = np.matmul(model.feature_matrix(x), W[:, :, None])[:, :, 0]
        if lam == 0.0:
            terms = [_policy_cost_unperturbed(oracle, x, t, spec.master_seed) for t in thetas]
            yield np.array([v for v, _ in terms]), None, np.array([t for _, t in terms])
            continue
        probs = exact_policy_distribution(x.polytope, thetas, lam)
        if probs is not None:
            yield np.vecdot(probs, oracle.eval_vertices(x, x.polytope.vertices())), None, no_ties
            continue
        z = perturbation_block(spec, x.index, x.dim) if blocks is None else blocks[i]
        dirs = (thetas[:, None, :] + lam * z).reshape(-1, x.dim)
        costs = oracle.eval_theta_batch(x, dirs).reshape(len(W), -1)
        yield np.mean(costs, axis=1), costs, no_ties


def regularized_risk(
    w,
    instances,
    oracle,
    model: GeneralizedLinearModel,
    space: ParamSpace,
    spec: PerturbationSpec,
) -> RiskReport | list[RiskReport]:
    """Empirical regularized risk of the policy at parameter w, each
    instance scored by the module's rule: the unperturbed policy at
    lam = 0, the closed-form p_lambda times the vertex costs where one
    exists (std error 0), and elsewhere the common-random-number average of
    the oracle-solution cost over spec.mc_samples perturbed directions.
    The report's mode is "exactenum" when no instance drew noise and
    "montecarlo" otherwise.

    w may be one parameter of shape (d,), which returns one report, or a
    batch of shape (M, d), which returns a list of M reports from one pass
    over the instances: each noise block is drawn once for all rows, and
    report m equals the single call at W[m] bit for bit (value, std error,
    mode and ties).
    """
    n = len(instances)
    if n == 0:
        raise ValueError("empty instance list")
    values, variances, ties = [], [], []
    sampled = False
    for value, costs, tie in _risk_terms(w, instances, oracle, model, space, spec):
        values.append(value)
        ties.append(tie)
        sampled = sampled or costs is not None
        k = 0 if costs is None else costs.shape[1]
        variances.append(np.var(costs, axis=1, ddof=1) / k if k > 1 else np.zeros(len(value)))
    # one contiguous row of n per-instance terms per w, folded as np.mean folds it
    values, variances, ties = (
        np.ascontiguousarray(np.transpose(c)) for c in (values, variances, ties)
    )
    reports = [
        RiskReport(
            value=float(np.mean(v)),
            mc_std_error=float(np.sqrt(np.sum(s)) / n),
            n_instances=n,
            mc_samples=spec.mc_samples,
            lam=spec.lam,
            epsilon0=spec.epsilon0,
            seed_trace={"master_seed": spec.master_seed, "labels": "perturb/<instance>"},
            mode="montecarlo" if sampled else "exactenum",
            ties_encountered=bool(np.any(t)),
        )
        for v, s, t in zip(values, variances, ties)
    ]
    return reports if np.ndim(w) == 2 else reports[0]


def crn_risk_surface(instances, oracle, model, space, spec: PerturbationSpec):
    """The fixed deterministic map w -> empirical regularized risk, each
    instance scored by the module's rule (closed form where p_lambda has
    one, the CRN Monte Carlo mean elsewhere); the name keeps the CRN of
    its Monte Carlo terms.  The values are those of regularized_risk,
    summed left to right over the instances.

    Noise blocks are drawn once and reused for every w, so repeated calls
    are bit-identical; suitable as the kernel-SoS objective.

    The returned function carries ``values(W)``: W of shape (M, d) in, the
    M surface values out, from one pass over the instances (each noise
    block perturbs every row in one oracle batch).  Entry m equals the
    single call at W[m] bit for bit, because both fold the same per-row
    terms left to right; the single call is ``values(w[None])[0]``.
    ``values`` is a function attribute rather than a method of a class, so
    that a ``functools.wraps`` wrapper of the surface, which copies
    ``__dict__``, still carries it.
    """
    if len(instances) == 0:
        raise ValueError("empty instance list")
    blocks = None
    if spec.lam > 0.0:
        blocks = [perturbation_block(spec, x.index, x.dim) for x in instances]

    def values(W) -> np.ndarray:
        if np.ndim(W) != 2:
            raise ValueError(f"values takes W of shape (M, d), got shape {np.shape(W)}")
        total = np.zeros(len(W))
        for vals, _, _ in _risk_terms(W, instances, oracle, model, space, spec, blocks):
            total += vals
        return total / len(instances)

    def surface(w) -> float:
        return float(values(np.asarray(w)[None])[0])

    surface.values = values
    return surface


def tail_mass_V(
    w,
    instances,
    model: GeneralizedLinearModel,
    space: ParamSpace,
    lam: float | np.ndarray,
) -> float | np.ndarray:
    """V_w(lam): average probability that the perturbation norm exceeds
    rho(psi_w(X)) / lam, from the exact chi tail.

    lam may be a scalar (returns a float) or a 1-D grid (returns a float64
    array with V_w(lam_j) at j).  The grid form predicts theta and computes
    rho once per instance and evaluates the tail for the whole grid at
    once; each entry is the scalar call's value bit for bit, because both
    fold the instances left to right per lambda.
    """
    lams = np.asarray(lam, dtype=np.float64)
    if np.any(lams <= 0.0):
        raise ValueError("lam must be positive")
    total = np.zeros_like(lams)
    for x in instances:
        theta = model.predict(w, x, space=space)
        rho = internal_radius(x.polytope, theta)
        total += chi_tail(rho / lams, x.dim)
    v = total / len(instances)
    return float(v) if v.ndim == 0 else v

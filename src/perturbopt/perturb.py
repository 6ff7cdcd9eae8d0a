"""Gaussian perturbation, smoothed policy probabilities and risks.

The perturbation Z lives in R^{d(G)} with sqrt(d) Z standard normal, so
|Z| sqrt(d) follows a chi distribution with d degrees of freedom.  Risks
are estimated with common random numbers: the noise block of instance i
depends only on (master_seed, i), never on the parameter w, so the map
w -> empirical regularized risk is a fixed deterministic surface.
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
    internal_radius,
    linear_oracle,
    p0,
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


def sample_perturbation(d: int, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Draw Z with sqrt(d) Z ~ N(0, Id), i.e. i.i.d. N(0, 1/d) coordinates."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    shape = (d,) if size is None else (size, d)
    return rng.standard_normal(shape) / np.sqrt(d)


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
    polytope: SolutionPolytope, theta: np.ndarray, lam: float
) -> np.ndarray | None:
    """Closed-form p_lambda over the enumerated vertices, where available.

    Covered: any two-vertex polytope in R^1 (Phi(theta/lam) up to vertex
    order) and Permutahedron(2); lam = 0 falls back to the winner/tie
    split.  Returns None when no closed form applies.
    """
    verts = polytope.vertices()
    theta = np.asarray(theta, dtype=np.float64)
    if lam == 0.0:
        scores = verts @ theta
        top = np.max(scores)
        winners = np.flatnonzero(scores >= top - 1e-12)
        if len(winners) == 1:
            probs = np.zeros(len(verts))
            probs[winners[0]] = 1.0
            return probs
        if len(winners) == 2 and (polytope.dim == 1 or isinstance(polytope, Permutahedron)):
            # two cones split the boundary hyperplane evenly
            probs = np.zeros(len(verts))
            probs[winners] = 0.5
            return probs
        return None
    if polytope.dim == 1 and len(verts) == 2:
        gap = float(verts[1, 0] - verts[0, 0])
        p_hi = float(ndtr(np.sign(gap) * theta[0] / lam))
        return np.array([1.0 - p_hi, p_hi])
    if isinstance(polytope, Permutahedron) and polytope.n == 2:
        # winner (2,1) iff theta_1 > theta_2; Z_1 - Z_2 ~ N(0, 1)
        p_21 = float(ndtr((theta[0] - theta[1]) / lam))
        probs = np.empty(2)
        for i, v in enumerate(verts):
            probs[i] = p_21 if v[0] == 2.0 else 1.0 - p_21
        return probs
    return None


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
    winners = np.argmax((theta[None, :] + lam * z) @ verts.T, axis=1)
    counts = np.bincount(winners, minlength=len(verts)).astype(np.float64)
    probs = counts / n_samples
    ses = np.sqrt(probs * (1.0 - probs) / n_samples)
    return probs, ses


def p_lambda(
    polytope: SolutionPolytope,
    theta,
    y,
    spec: PerturbationSpec,
    rng: np.random.Generator | None = None,
) -> tuple[float, float]:
    """Smoothed probability that the oracle picks y at direction theta.

    Exact (std error 0) where a closed form exists, Monte Carlo with
    spec.mc_samples draws otherwise.  lam must be positive; use p0 for the
    unperturbed measure.
    """
    if spec.lam <= 0.0:
        raise ValueError("p_lambda needs lam > 0; use p0 at lam = 0")
    theta = np.asarray(theta, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    verts = polytope.vertices()
    matches = np.flatnonzero(np.all(np.isclose(verts, y[None, :], atol=1e-9), axis=1))
    if len(matches) != 1:
        raise ValueError("y is not an enumerated vertex")
    idx = int(matches[0])
    probs = exact_policy_distribution(polytope, theta, spec.lam)
    if probs is not None:
        return float(probs[idx]), 0.0
    if rng is None:
        rng = substream(spec.master_seed, "p_lambda")
    probs, ses = sampled_policy_distribution(polytope, theta, spec.lam, spec.mc_samples, rng)
    return float(probs[idx]), float(ses[idx])


# ---------------------------------------------------------------------------
# Risks


def _policy_cost_unperturbed(
    oracle, x: Instance, theta: np.ndarray, master_seed: int
) -> tuple[float, bool]:
    """Cost of the unperturbed policy with the measure-valued tie
    convention: on ties, average the cost under the tie-split measure,
    estimated from the instance's "p0/<index>" substream where no closed
    form applies."""
    res = linear_oracle(x.polytope, theta)
    if not res.tie:
        return float(oracle.eval(res.y, x)), False
    probs = exact_policy_distribution(x.polytope, theta, 0.0)
    verts = x.polytope.vertices()
    if probs is None:
        measure = p0(x.polytope, theta, rng=substream(master_seed, f"p0/{x.index}"))
        value = sum(p * float(oracle.eval(v, x)) for v, p in measure.atoms)
        return float(value), True
    costs = oracle.eval_vertices(x, verts)
    return float(probs @ costs), True


def _validated_mode(instances, mode: str) -> str:
    if len(instances) == 0:
        raise ValueError("empty instance list")
    mode = mode.lower()
    if mode not in ("montecarlo", "exactenum"):
        raise ValueError(f"unknown mode {mode!r}")
    return mode


def _risk_terms(w, instances, oracle, model, space, spec, mode, blocks=None):
    """The one risk estimator: (value, cost samples or None, tie) per
    instance at w.  The unperturbed policy at lam = 0, the exact vertex sum
    for exactenum with a closed-form p_lambda, else the mean cost over the
    instance's CRN noise block (blocks[i], or drawn here)."""
    lam = spec.lam
    for i, x in enumerate(instances):
        theta = model.predict(w, x, space=space)
        if lam == 0.0:
            value, tie = _policy_cost_unperturbed(oracle, x, theta, spec.master_seed)
            yield value, None, tie
            continue
        if mode == "exactenum":
            probs = exact_policy_distribution(x.polytope, theta, lam)
            if probs is not None:
                costs = oracle.eval_vertices(x, x.polytope.vertices())
                yield float(probs @ costs), None, False
                continue
        z = perturbation_block(spec, x.index, x.dim) if blocks is None else blocks[i]
        costs = oracle.eval_theta_batch(x, theta[None, :] + lam * z)
        yield np.mean(costs), costs, False


def regularized_risk(
    w,
    instances,
    oracle,
    model: GeneralizedLinearModel,
    space: ParamSpace,
    spec: PerturbationSpec,
    mode: str = "montecarlo",
) -> RiskReport:
    """Empirical regularized risk of the policy at parameter w.

    montecarlo: common-random-number average of the oracle-solution cost
    over spec.mc_samples perturbed directions per instance.
    exactenum: sum over enumerated vertices of the closed-form p_lambda
    times cost where one exists (std error 0); elsewhere the montecarlo
    estimate, bit for bit.  At lam = 0 both give the unperturbed policy.
    """
    mode = _validated_mode(instances, mode)
    n = len(instances)
    values = np.empty(n)
    variances = np.zeros(n)
    ties = False
    terms = _risk_terms(w, instances, oracle, model, space, spec, mode)
    for i, (value, costs, tie) in enumerate(terms):
        values[i] = value
        if costs is not None and len(costs) > 1:
            variances[i] = np.var(costs, ddof=1) / len(costs)
        ties |= tie
    value = float(np.mean(values))
    se = float(np.sqrt(np.sum(variances)) / n)
    return RiskReport(
        value=value,
        mc_std_error=se,
        n_instances=n,
        mc_samples=spec.mc_samples,
        lam=spec.lam,
        epsilon0=spec.epsilon0,
        seed_trace={"master_seed": spec.master_seed, "labels": "perturb/<instance>"},
        mode=mode,
        ties_encountered=ties,
    )


def crn_risk_surface(instances, oracle, model, space, spec: PerturbationSpec, mode="montecarlo"):
    """The fixed deterministic map w -> empirical regularized risk.

    Noise blocks are drawn once and reused for every w, so repeated calls
    are bit-identical; suitable as the kernel-SoS objective.  The values
    are those of regularized_risk, summed left to right over the instances.
    """
    mode = _validated_mode(instances, mode)
    blocks = None
    if spec.lam > 0.0:
        blocks = [perturbation_block(spec, x.index, x.dim) for x in instances]

    def surface(w) -> float:
        total = 0.0
        for value, _, _ in _risk_terms(w, instances, oracle, model, space, spec, mode, blocks):
            total += float(value)
        return total / len(instances)

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

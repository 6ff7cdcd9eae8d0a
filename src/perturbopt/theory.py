"""Empirical verification of the theory: moment property, perturbation
bias, empirical process, Lipschitz constants, Gaussian tail.

Every check is a BoundCheck: a measured left-hand side against a bound,
passing when lhs <= rhs (1 + 1e-9) + 3 * (std error of lhs).  The checks
are theorems: on the shipped configurations a failure is an
implementation bug.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import GeneralizedLinearModel, ParamSpace
from .perturb import (
    PerturbationSpec,
    RiskReport,
    _polytope_cells,
    chi_tail,
    exact_policy_distribution,
    regularized_risk,
    sample_perturbation,
    tail_mass_V,
)
from .polytopes import internal_radius_batch
from .problems import generate_instances, osc_bound
from .rngs import spawn_seed, substream

NUMERICAL_SLACK = 1e-9
# Slack on the Lipschitz constants: a secant slope never exceeds the true
# constant, so it only absorbs the rounding of p_b - p_a over tiny steps.
LIPSCHITZ_SLACK = 1.05


@dataclass(frozen=True)
class BoundCheck:
    name: str
    lhs: float
    rhs: float
    se_lhs: float = 0.0
    metadata: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.lhs <= self.rhs * (1.0 + NUMERICAL_SLACK) + 3.0 * self.se_lhs


@dataclass(frozen=True)
class ScalingFit:
    fitted_slope: float
    slope_ci: tuple[float, float]


def fit_loglog(x, y) -> float:
    """Least-squares slope of log y against log x (zeros dropped)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    keep = (x > 0) & (y > 0)
    if keep.sum() < 2:
        return float("nan")
    lx, ly = np.log(x[keep]), np.log(y[keep])
    slope = np.polyfit(lx, ly, 1)[0]
    return float(slope)


def _scaling_fit(x_grid, per_seed_values) -> ScalingFit:
    per_seed_values = np.asarray(per_seed_values, dtype=np.float64)  # (S, n)
    med = np.median(per_seed_values, axis=0)
    slopes = np.array([fit_loglog(x_grid, row) for row in per_seed_values])
    slopes = slopes[np.isfinite(slopes)]
    if len(slopes) >= 2:
        ci = (float(np.quantile(slopes, 0.025)), float(np.quantile(slopes, 0.975)))
    else:
        ci = (float("nan"), float("nan"))
    return ScalingFit(fitted_slope=fit_loglog(x_grid, med), slope_ci=ci)


# ---------------------------------------------------------------------------
# Uniform weak moment


def gaussian_inverse_moment(tau: float) -> float:
    """E |N(0,1)|^{-tau} for tau in (0, 1)."""
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must be in (0, 1)")
    return 2.0 ** (-tau / 2.0) * math.gamma((1.0 - tau) / 2.0) / math.sqrt(math.pi)


def uw_analytic_bound(instances, tau: float, epsilon0: float) -> float:
    """The convolution bound on the moment constant for positive base
    smoothing: Gaussian inverse moment times eps0^-tau times the
    partition-weighted sum of |Y(G)|^2 d(G)^tau.  Raises
    EnumerationUnavailable when a polytope has too many vertices to count."""
    if epsilon0 <= 0.0:
        raise ValueError("analytic bound needs epsilon0 > 0")
    cells: dict[str, tuple[int, float, int]] = {}
    for x in instances:
        cnt, _, _ = cells.get(x.partition_id, (0, 0.0, 0))
        cells[x.partition_id] = (cnt + 1, float(x.polytope.vertex_count()), x.dim)
    total = 0.0
    n = len(instances)
    for cnt, n_verts, d in cells.values():
        total += (cnt / n) * n_verts**2 * d**tau
    return gaussian_inverse_moment(tau) * epsilon0 ** (-tau) * total


@dataclass(frozen=True)
class UwMomentResult:
    value: float
    std_error: float
    analytic_bound: float | None
    tau: float
    epsilon0: float


def uw_moment(
    w,
    instances,
    tau: float,
    epsilon0: float,
    model: GeneralizedLinearModel,
    space: ParamSpace,
    spec: PerturbationSpec,
) -> UwMomentResult:
    """Monte Carlo estimate of E[(rho(psi_w(X) + eps0 Z) / sqrt(d))^-tau]
    with exact internal radii; reports the analytic bound when eps0 > 0.

    Per polytope cell (perturb._polytope_cells) the thetas come from one
    stacked matmul and the radii from one internal_radius_batch call: over
    the cell's single directions at eps0 = 0, and at eps0 > 0 over the
    stack of each instance's spec.mc_samples directions perturbed by its
    own "uw/<index>" draw, each instance's radii the bits of its own
    call."""
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must be in (0, 1)")
    per_instance_mean = np.empty(len(instances))
    per_instance_var = np.zeros(len(instances))
    k = spec.mc_samples
    W = np.ascontiguousarray(model.check_param(w, space)[None])
    for rows, cell, thetas in _polytope_cells(instances, model, W):  # thetas (n_c, 1, dim)
        dim = cell[0].dim
        if epsilon0 > 0.0:
            z = np.stack([
                sample_perturbation(dim, substream(spec.master_seed, f"uw/{x.index}"), size=k) for x in cell
            ])
            thetas = thetas + epsilon0 * z
        rho = internal_radius_batch(cell[0].polytope, thetas)  # (n_c, 1) or (n_c, k)
        with np.errstate(divide="ignore"):
            vals = (rho / math.sqrt(dim)) ** (-tau)
        per_instance_mean[rows] = np.mean(vals, axis=1)
        if vals.shape[1] > 1:
            per_instance_var[rows] = np.var(vals, axis=1, ddof=1) / vals.shape[1]
    n = len(instances)
    value = float(np.mean(per_instance_mean))
    # across-instance spread plus within-instance Monte Carlo error
    var_between = float(np.var(per_instance_mean, ddof=1)) / n if n > 1 else 0.0
    var_within = float(np.mean(per_instance_var)) / n
    se = math.sqrt(var_between + var_within)
    bound = uw_analytic_bound(instances, tau, epsilon0) if epsilon0 > 0.0 else None
    return UwMomentResult(value, se, bound, tau, epsilon0)


# ---------------------------------------------------------------------------
# Perturbation bias


def check_bias_bound(
    w,
    instances,
    oracle,
    lambda_grid,
    epsilon0: float,
    model: GeneralizedLinearModel,
    space: ParamSpace,
    spec: PerturbationSpec,
    osc: float | None = None,
    v_grid: np.ndarray | None = None,
    risks: list[RiskReport] | None = None,
) -> tuple[list[BoundCheck], ScalingFit]:
    """Both risk-perturbation inequalities on a lambda grid, plus the
    log-log scaling of |R_lambda - R_eps0| against lambda, for the cost
    ``oracle`` of the instances.  Each risk follows regularized_risk's
    rule: exact where p_lambda has a closed form, CRN Monte Carlo
    elsewhere, and the unperturbed policy at lambda = 0; spec supplies
    the Monte Carlo samples and seed, and each risk its own lambda.

    The 2 + len(grid) risks at w (lambda = 0, epsilon0 and the sorted
    grid) come from one regularized_risk call, one pass over the
    instances: each row carries its own lambda, and each report equals
    the single call at that lambda bit for bit.

    ``osc`` is the cost oscillation over the instances, osc_bound's value;
    a caller that checks many w on the same instances passes it once
    computed, and without it the check computes it.  ``v_grid`` is the
    same for the tail masses V_w at the sorted grid: a caller that checks
    many w passes row i of one tail_mass_V call over its stack of w,
    which equals the single call at w bit for bit; without it the check
    makes that single call.  ``risks`` is the same for the 2 + len(grid)
    risk reports, in that lambda order: a caller that checks many w
    passes block i of one regularized_risk call over its stack of w, each
    repeated once per lambda, which equals the check's own call bit for
    bit; without it the check makes that call.  A v_grid or a risks of
    the wrong length, or risks at other lambdas, raises ValueError.

    The checks come three per grid value, in sorted grid order:
    bias_vs_unperturbed, bias_vs_base_smoothed, tail_mass_monotone.  The
    scaling fit is fit_loglog of the gaps, with no interval: one slope
    gives none."""
    lambda_grid = sorted(float(v) for v in lambda_grid)
    if any(lam < epsilon0 for lam in lambda_grid):
        raise ValueError("lambda grid must stay above epsilon0")
    if v_grid is not None and np.shape(v_grid) != (len(lambda_grid),):
        raise ValueError(f"v_grid needs one tail mass per grid value, got shape {np.shape(v_grid)}")
    lams = [0.0, epsilon0, *lambda_grid]
    if risks is not None and [r.lam for r in risks] != lams:
        raise ValueError(f"risks needs one report at each lambda of {lams}, got {[r.lam for r in risks]}")

    if osc is None:
        osc = osc_bound(oracle, instances)
    if risks is None:
        risks = regularized_risk(
            np.tile(np.asarray(w, dtype=np.float64), (len(lams), 1)),
            instances, oracle, model, space, spec, lams=lams,
        )
    base, r_eps, *r_grid = risks
    if v_grid is None:
        v_grid = tail_mass_V(w, instances, model, space, lambda_grid)
    checks: list[BoundCheck] = []
    gaps = []
    v_prev = -np.inf
    for lam, v, r_lam in zip(lambda_grid, v_grid, r_grid):
        v_lam = float(v)
        se = r_lam.mc_std_error + base.mc_std_error
        checks.append(
            BoundCheck(
                name="bias_vs_unperturbed",
                lhs=abs(r_lam.value - base.value),
                rhs=2.0 * osc * v_lam,
                se_lhs=se,
                metadata={"lambda": lam, "epsilon0": epsilon0, "V": v_lam},
            )
        )
        checks.append(
            BoundCheck(
                name="bias_vs_base_smoothed",
                lhs=abs(r_lam.value - r_eps.value),
                rhs=4.0 * osc * v_lam,
                se_lhs=r_lam.mc_std_error + r_eps.mc_std_error,
                metadata={"lambda": lam, "epsilon0": epsilon0, "V": v_lam},
            )
        )
        checks.append(
            BoundCheck(
                name="tail_mass_monotone",
                lhs=v_prev,
                rhs=v_lam,
                metadata={"lambda": lam},
            )
        )
        v_prev = v_lam
        gaps.append(abs(r_lam.value - r_eps.value))
    fit = ScalingFit(fitted_slope=fit_loglog(lambda_grid, gaps), slope_ci=(float("nan"), float("nan")))
    return checks, fit


# ---------------------------------------------------------------------------
# Empirical process


def contextual_risk_matrix(instances, w_grid: np.ndarray, lam: float) -> np.ndarray:
    """Exact per-instance smoothed risk on the contextual domain for every
    parameter in the grid, shape (n, G).  The two-decision closed form:
    c0 + (c1 - c0) Phi(<u, w> / lam).

    Phi is scipy.special.ndtr, not perturb's _ndtr, which agrees with it
    to about 6e-14 relative but makes one libm erfc call per element:
    sweep nprocess runs this on 100k x 128 elements, in 10k-instance
    chunks, which took 0.26-0.29 s with scipy's ufunc and 1.2 s with
    _ndtr in its place (2-core x86-64 VM).  So check_empirical_process
    stays here rather than on the production risk pass: on 10k contextual
    instances x 128 parameters that pass (crn_risk_surface(...).values)
    took 0.20-0.25 s against this function's 0.02-0.03 s on the same VM,
    as its one _ndtr call over the 1.28M elements takes about 0.10 s
    against 0.017 s for scipy's."""
    from scipy.special import ndtr

    contexts = np.array([x.features["context"] for x in instances])
    costs = np.array([x.features["costs"] for x in instances])
    theta = contexts @ w_grid.T  # (n, G)
    p1 = ndtr(theta / lam)
    return costs[:, [0]] + (costs[:, [1]] - costs[:, [0]]) * p1


def empirical_process_rhs(
    n: int, lam: float, osc: float, lipschitz: float, d_sol: int,
    space: ParamSpace, delta: float, dudley_constant: float,
) -> float:
    """The explicit high-probability deviation bound: osc / (lam sqrt(n))
    times ((ln 2)^(-3/4) L I_W sqrt(d) + 4 sqrt(ln(8/delta))), with the
    entropy integral bounded by C d log(R + 1/R)."""
    radius = space.radius()
    i_w = dudley_constant * space.d * math.log(radius + 1.0 / radius)
    lead = math.log(2.0) ** (-0.75) * lipschitz * i_w * math.sqrt(d_sol)
    return osc / (lam * math.sqrt(n)) * (lead + 4.0 * math.sqrt(math.log(8.0 / delta)))


@dataclass
class EmpiricalProcessResult:
    fit: ScalingFit
    checks: list[BoundCheck]
    deviations: np.ndarray  # (seeds, n_grid)
    fraction_bounded: float


def check_empirical_process(
    n_grid,
    lam: float,
    n_seeds: int,
    master_seed: int,
    space: ParamSpace,
    d_context: int = 2,
    w_grid_size: int = 128,
    pool_size: int = 100_000,
    delta: float = 0.1,
    dudley_constant: float = 24.0,
) -> EmpiricalProcessResult:
    """Deviation of the empirical smoothed risk from a held-out-pool proxy
    of the population risk, over a parameter grid (a documented
    approximation of the sup over the box), on the contextual domain where
    per-instance risks are exact."""
    n_grid = sorted(int(n) for n in n_grid)
    if pool_size < 10 * max(n_grid):
        raise ValueError("reference pool must be at least 10x the largest n")
    w_grid = space.sample(substream(master_seed, "nprocess/wgrid"), w_grid_size)
    pool_seed = spawn_seed(master_seed, "nprocess/pool")

    ref_sum = np.zeros(w_grid_size)
    ref_sq = np.zeros(w_grid_size)
    chunk = 10_000
    for lo in range(0, pool_size, chunk):
        cnt = min(chunk, pool_size - lo)
        pool = generate_instances(
            "contextual", cnt, pool_seed + lo, d_context=d_context
        )
        risks = contextual_risk_matrix(pool, w_grid, lam)
        ref_sum += risks.sum(axis=0)
        ref_sq += (risks**2).sum(axis=0)
    ref = ref_sum / pool_size
    pool_se = np.sqrt(np.maximum(ref_sq / pool_size - ref**2, 0.0) / pool_size)
    se = float(np.max(pool_se))

    osc = 1.0  # contextual costs live in [0, 1] by construction
    lipschitz = math.sqrt(d_context)  # |context|_2 <= sqrt(d) on the box
    deviations = np.empty((n_seeds, len(n_grid)))
    checks: list[BoundCheck] = []
    for s in range(n_seeds):
        for j, n in enumerate(n_grid):
            seed = spawn_seed(master_seed, f"nprocess/{s}/{n}")
            sample = generate_instances("contextual", n, seed, d_context=d_context)
            emp = contextual_risk_matrix(sample, w_grid, lam).mean(axis=0)
            dev = float(np.max(np.abs(emp - ref)))
            deviations[s, j] = dev
            rhs = empirical_process_rhs(
                n, lam, osc, lipschitz, 1, space, delta, dudley_constant
            )
            checks.append(
                BoundCheck(
                    name="empirical_process_bound",
                    lhs=dev,
                    rhs=rhs,
                    se_lhs=se,
                    metadata={
                        "n": n, "seed": s, "lambda": lam, "delta": delta,
                        "dudley_constant": dudley_constant,
                    },
                )
            )
    fit = _scaling_fit(np.asarray(n_grid, dtype=float), deviations)
    frac = float(np.mean([c.passed for c in checks]))
    return EmpiricalProcessResult(fit, checks, deviations, frac)


# ---------------------------------------------------------------------------
# Lipschitz lemmas


def _plambda_exact(polytope, theta, lam):
    probs = exact_policy_distribution(polytope, theta[None], lam)
    if probs is None:
        raise ValueError("lipschitz probes need a closed-form policy distribution")
    return probs[0]


def _max_theta_slope(instances, lam, trials, master_seed) -> float:
    """Max finite-difference slope of the summed per-solution smoothed
    probabilities along random direction probes (boundary probes
    included: the sharp point is theta on a cone boundary)."""
    rng = substream(master_seed, "lipschitz/theta")
    worst = 0.0
    for t in range(trials):
        x = instances[t % len(instances)]
        d = x.dim
        theta = rng.standard_normal(d)
        if t % 4 == 0:
            theta[:] = 0.0  # boundary probe
        step = 10.0 ** rng.uniform(-6, -2)
        direction = rng.standard_normal(d)
        direction /= np.linalg.norm(direction)
        p_a = _plambda_exact(x.polytope, theta, lam)
        p_b = _plambda_exact(x.polytope, theta + step * direction, lam)
        slope = float(np.sum(np.abs(p_b - p_a))) / step
        worst = max(worst, slope)
    return worst


def check_lipschitz_lemmas(
    instances,
    lam: float,
    trials: int,
    model: GeneralizedLinearModel,
    space: ParamSpace,
    master_seed: int = 0,
) -> list[BoundCheck]:
    """Finite-difference slopes of the smoothed policy probabilities in
    theta and in w against LIPSCHITZ_SLACK times the stated constants
    sqrt(d)/lam and L sqrt(d)/lam, plus the lambda-halving envelope."""
    checks: list[BoundCheck] = []
    d_max = max(x.dim for x in instances)
    worst_theta = _max_theta_slope(instances, lam, trials, master_seed)
    checks.append(
        BoundCheck(
            name="lipschitz_theta",
            lhs=worst_theta,
            rhs=LIPSCHITZ_SLACK * math.sqrt(d_max) / lam,
            metadata={"lambda": lam, "trials": trials},
        )
    )
    rng = substream(master_seed, "lipschitz/w")
    worst_w = 0.0
    for t in range(trials):
        x = instances[t % len(instances)]
        w_a = space.sample(rng, 1)[0]
        if t % 4 == 0:
            w_a = np.zeros(space.d)  # boundary probe: theta = 0
        step = 10.0 ** rng.uniform(-6, -2)
        direction = rng.standard_normal(space.d)
        direction /= np.linalg.norm(direction)
        w_b = space.project(w_a + step * direction)
        dw = float(np.linalg.norm(w_b - w_a))
        if dw == 0.0:
            continue
        p_a = _plambda_exact(x.polytope, model.predict(w_a, x), lam)
        p_b = _plambda_exact(x.polytope, model.predict(w_b, x), lam)
        worst_w = max(worst_w, float(np.sum(np.abs(p_b - p_a))) / dw)
    checks.append(
        BoundCheck(
            name="lipschitz_w",
            lhs=worst_w,
            rhs=LIPSCHITZ_SLACK * model.lipschitz_bound * math.sqrt(d_max) / lam,
            metadata={"lambda": lam, "trials": trials},
        )
    )
    # halving the scale at most doubles the measured slope (within 10%)
    half = _max_theta_slope(instances, lam / 2.0, trials, master_seed)
    checks.append(
        BoundCheck(
            name="lipschitz_halving",
            lhs=half,
            rhs=2.0 * 1.10 * worst_theta,
            metadata={"lambda": lam},
        )
    )
    checks.append(
        BoundCheck(
            name="lipschitz_halving_lower",
            lhs=2.0 * (1.0 - 0.10) * worst_theta,
            rhs=half,
            metadata={"lambda": lam},
        )
    )
    return checks


# ---------------------------------------------------------------------------
# Gaussian tail bound on V


def check_gauss_tail(lambda_grid, rho: float, d: int, q: float) -> list[BoundCheck]:
    """Pointwise check of the chi-tail bound on the tail mass: V(lam) <=
    P(rho/sqrt(d) < lam^q) + exp(-1 / (10 lam^{2(1-q)}))."""
    if not 0.0 < q < 1.0:
        raise ValueError("q must be in (0, 1)")
    if rho < 0.0:
        raise ValueError("rho must be nonnegative")
    checks = []
    for lam in lambda_grid:
        lam = float(lam)
        if not 0.0 < lam < 1.0:
            raise ValueError("lambda grid must lie in (0, 1)")
        v = chi_tail(rho / lam, d)
        indicator = 1.0 if rho / math.sqrt(d) < lam**q else 0.0
        rhs = indicator + math.exp(-1.0 / (10.0 * lam ** (2.0 * (1.0 - q))))
        checks.append(
            BoundCheck(
                name="gauss_tail",
                lhs=v,
                rhs=rhs,
                metadata={"lambda": lam, "rho": rho, "d": d, "q": q},
            )
        )
    return checks

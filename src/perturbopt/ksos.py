"""Kernel sum-of-squares global minimization with optimality certificate.

The program: given samples w_1..w_M in the parameter box and their
objective values R_m, solve

    min_{c, B >= 0}  -c + lambda_phi tr(B K)
    s.t.             R_m - c = (K B K)_mm   for all m,

where K is the Gram matrix of the Sobolev (Matern) kernel at the samples
and A = sum_ij B_ij phi(w_i) x phi(w_j) is the sampled-span restriction of
the SoS operator.  We solve it by path-following on the log-det barrier of
B: for each barrier weight mu, the inner problem reduces to the concave
dual

    min_alpha  alpha.R - mu log det W(alpha),   sum(alpha) = 1,
    W(alpha) = lambda_phi I + Phi diag(alpha) Phi^T,   K = Phi^T Phi,

solved by damped Newton (the dual Hessian is mu T*T with T = Phi^T W^-1
Phi, elementwise square).  At the optimum B = mu Phi^-1 W^-1 Phi^-T, the
equality constraints hold exactly and alpha are their multipliers; the
candidate minimizer is the argmin of the fitted SoS surrogate.  mu runs
from MU0 down to mu_min by factors SHRINK in at most MAX_OUTER steps; an
inner solve stops at half-decrement INNER_TOL, when its line search
finds no step above LINE_SEARCH_MIN, or after MAX_INNER steps.

The floor mu_min = max(MU_REL ptp(R), MU_MIN) follows the resolution of
R / mu.  Since sum(alpha) = 1, c absorbs any constant, so the inner
solve takes R minus its minimum and depends on R through its oscillation
alone.  Its terms lie in [0, ptp(R) / mu] and are rounded by up to
u ptp(R) / mu, u = eps / 2 the unit roundoff; the Newton stop test and
the Armijo test resolve objective changes of INNER_TOL = 1e-9 only while
that rounding stays below it, which takes mu above u ptp(R) / INNER_TOL
= 1.1e-7 ptp(R); below that the line searches start to fail and the
iterates follow rounding noise, which the BLAS thread count changes.
MU_REL = 3e-7 keeps the rounding at INNER_TOL / 2.7; a higher floor
costs accuracy, since each constraint's c_m = R_m - mu T_mm lies below
R_m by the barrier term mu T_mm.  c_hat is the mean of the M values c_m,
not a lower bound on the surface: the value at the surrogate argmin
w_hat can lie below it, so aposteriori_gap can be negative.  The shift
also keeps the multiplier of sum(alpha) = 1 small (c sits near min R),
so the rounding of sum(step) does not leak into the decrement.  A
constant surface (ptp = 0) still runs down to MU_MIN.

The solver runs on numpy alone and factors by Cholesky alone: Phi = L_K^T
for K = L_K L_K^T.  Any Phi with Phi^T Phi = K is U K^{1/2} for an
orthogonal U, which maps W to U W U^T and leaves log det W, T, B and
tr(B K) = mu tr(W^-1) as they are, so the choice moves only rounding.  A
K that is not finite, or not positive definite after jitter, raises
GramSingular.  The factor L_W of W gives log det W and T = Y^T Y with
Y = L_W^-1 Phi, and at the end tr(B K) = mu |L_W^-1|_F^2 and B = F F^T
with F = sqrt(mu) Phi^-1 L_W^-T, so B is never formed.  The tail needs
numpy alone too: the surrogate argmin is a batched compass refine on
h(w) = |k_w F|^2 from the best sample point, and the Hermite norms of the
smoothness estimates are in closed form.  So the module imports no
scipy; scipy.special loads only where a kernel smoothness outside the
closed forms (nu = 0.5, 1.5, 2.5) calls the Bessel form.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .model import ParamSpace
from .rngs import substream


class GramSingular(RuntimeError):
    """Gram matrix not finite, or not positive definite after jitter; try
    a larger length-scale or fewer sample points."""


MU0 = 1.0
SHRINK = 0.2
MAX_OUTER = 50
MU_MIN = 1e-16
MU_REL = 3e-7
INNER_TOL = 1e-9
MAX_INNER = 60
LINE_SEARCH_MIN = 1e-6
SOBOLEV_NODES = 48
REFINE_XTOL = 1e-10
REFINE_WINDOW = 4


@dataclass
class KsosConfig:
    M: int
    s: float
    lambda_phi: float
    length_scale: float | None = None  # default diam(W) / 4
    seed: int = 0

    def validate(self, d: int) -> None:
        if not self.s > 1 + d / 2:
            raise ValueError(f"need smoothness s > 1 + d/2 = {1 + d / 2}, got {self.s}")
        if self.M < d + 1:
            raise ValueError("need M >= d + 1 sample points")
        if self.lambda_phi < 0:
            raise ValueError("lambda_phi must be nonnegative")


@dataclass
class KsosResult:
    w_hat: np.ndarray
    c_hat: float
    alpha: np.ndarray
    aposteriori_gap: float
    trace_term: float
    sampled_points: np.ndarray
    sampled_values: np.ndarray
    converged: bool
    max_constraint_residual: float
    negative_mass: float
    mu_final: float
    trace_BK: float
    newton_trace: list = field(default_factory=list)

    def to_doc(self) -> dict:
        return {
            "w_hat": self.w_hat.tolist(),
            "c_hat": self.c_hat,
            "alpha": self.alpha.tolist(),
            "aposteriori_gap": self.aposteriori_gap,
            "trace_term": self.trace_term,
            "trace_BK": self.trace_BK,
            "sampled_points": self.sampled_points.tolist(),
            "sampled_values": self.sampled_values.tolist(),
            "converged": self.converged,
            "max_constraint_residual": self.max_constraint_residual,
            "negative_mass": self.negative_mass,
            "mu_final": self.mu_final,
        }


# ---------------------------------------------------------------------------
# Sobolev (Matern) kernel


def _matern(r: np.ndarray, nu: float, ell: float) -> np.ndarray:
    """The Matern correlation at distances r.  The closed forms (nu = 0.5,
    1.5, 2.5) run on the whole array: at r = 0 each gives exactly 1.  The
    Bessel form is masked near 0, where kv(nu, 0) is infinite."""
    r = np.asarray(r, dtype=np.float64)
    scaled = np.sqrt(2.0 * nu) * r / ell
    if abs(nu - 0.5) < 1e-12:
        return np.exp(-scaled)
    if abs(nu - 1.5) < 1e-12:
        return (1.0 + scaled) * np.exp(-scaled)
    if abs(nu - 2.5) < 1e-12:
        return (1.0 + scaled + scaled * scaled / 3.0) * np.exp(-scaled)
    from scipy.special import gamma as gamma_fn
    from scipy.special import kv

    out = np.ones_like(scaled)
    far = scaled >= 1e-14
    x = scaled[far]
    with np.errstate(over="ignore"):
        val = (2.0 ** (1.0 - nu) / gamma_fn(nu)) * (x**nu) * kv(nu, x)
    out[far] = np.clip(np.nan_to_num(val, nan=0.0, posinf=1.0), 0.0, 1.0)
    return out


def _sq_dists(wpts: np.ndarray, points: np.ndarray) -> np.ndarray:
    """(n, M) squared distances from each row of wpts to each sample point."""
    diff = wpts[:, None, :] - points[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def gram_matrix(points: np.ndarray, s: float, length_scale: float) -> np.ndarray:
    """Gram matrix of the reproducing kernel of H^s over R^d restricted to
    the box: a Matern kernel with smoothness nu = s - d/2, normalized to
    k(w, w) = 1."""
    d = points.shape[1]
    return _matern(np.sqrt(_sq_dists(points, points)), s - d / 2, length_scale)


# ---------------------------------------------------------------------------
# Newton path-following solver


def _factor_w(Phi, lam_phi, a):
    """(L, log det W) for W = lam_phi I + Phi diag(a) Phi^T = L L^T, or None."""
    W = lam_phi * np.eye(len(a)) + Phi @ (a[:, None] * Phi.T)
    try:
        L = np.linalg.cholesky(W)
    except np.linalg.LinAlgError:
        return None
    return L, 2.0 * float(np.sum(np.log(np.diag(L))))


def _newton_inner(R_scaled, Phi, lam_phi, alpha):
    """Minimize alpha.R_scaled - logdet(lam_phi I + Phi diag(alpha) Phi^T)
    over sum(alpha) = 1, damped Newton.  Returns (alpha, T, ok, counts)
    with T = Phi^T W^-1 Phi at the returned alpha, and counts the Newton
    iterations, the Cholesky factorizations past the first, the builds of
    T (one at the start and one per accepted step) and why it stopped
    (``stop_reason``): the half-decrement fell to INNER_TOL and one last
    full step was taken (``decrement``), no step above LINE_SEARCH_MIN
    decreased the objective (``line_search_exhausted``, ok when the
    half-decrement is within sqrt(INNER_TOL)), the KKT system was
    singular (``kkt_singular``) or MAX_INNER steps ran out
    (``max_inner``)."""
    M = len(alpha)
    counts = {"newton_iters": 0, "factorizations": 0, "t_builds": 0, "stop_reason": "max_inner"}

    def build_T(L):
        counts["t_builds"] += 1
        Y = np.linalg.solve(L, Phi)
        return Y.T @ Y  # Phi^T W^-1 Phi, symmetric by construction

    state = _factor_w(Phi, lam_phi, alpha)
    if state is None:
        raise GramSingular("initial barrier point not positive definite")
    L, logdet = state
    T = build_T(L)
    fval = float(alpha @ R_scaled) - logdet
    ok = False
    for _ in range(MAX_INNER):
        counts["newton_iters"] += 1
        grad = R_scaled - np.diag(T)
        # The Hessian T*T is positive definite with T (Schur product
        # theorem), so the KKT system needs no ridge; one would damp the
        # least curved directions and leave Newton linear in them.
        KKT = np.zeros((M + 1, M + 1))
        KKT[:M, :M] = T * T
        KKT[:M, M] = 1.0
        KKT[M, :M] = 1.0
        rhs = np.concatenate([-grad, [0.0]])
        try:
            sol = np.linalg.solve(KKT, rhs)
        except np.linalg.LinAlgError:
            counts["stop_reason"] = "kkt_singular"
            break
        step = sol[:M]
        decrement = float(-grad @ step)
        if decrement / 2.0 <= INNER_TOL:
            # One last full step.  The objective is self-concordant, so
            # with the decrement this small the full Newton step stays
            # feasible and squares the decrement: it takes the constraint
            # residual from the stop test's bound down to rounding.  It is
            # kept whenever W factors; an objective test would be decided
            # by rounding at this scale.
            cand = alpha + step
            counts["factorizations"] += 1
            state = _factor_w(Phi, lam_phi, cand)
            if state is not None:
                alpha, T = cand, build_T(state[0])
            ok = True
            counts["stop_reason"] = "decrement"
            break
        t = 1.0
        accepted = False
        while t > LINE_SEARCH_MIN:
            cand = alpha + t * step
            counts["factorizations"] += 1
            state = _factor_w(Phi, lam_phi, cand)
            if state is not None:
                L, logdet_new = state
                f_new = float(cand @ R_scaled) - logdet_new
                if f_new <= fval - 1e-4 * t * decrement:
                    alpha, fval = cand, f_new
                    T = build_T(L)
                    accepted = True
                    break
            t *= 0.5
        if not accepted:
            ok = decrement / 2.0 <= math.sqrt(INNER_TOL)
            counts["stop_reason"] = "line_search_exhausted"
            break
    return alpha, T, ok, counts


def _surrogate(points, F, nu: float, ell: float):
    """The fitted SoS surrogate h(w) = k_w^T B k_w = |k_w F|^2, B = F F^T, as
    a function of the (n, M) squared distances of n points to the samples:
    one gemm ``kw @ F`` and a row-wise dot with itself.  The direct form
    ``kw @ B`` dotted with kw cancels terms of size |k_w|^T |B| |k_w| down
    to h: on a 1-D solve at M = 128 that is 1e7 down to 6e-5, so its
    rounding noise (1e-9) is as large as h's rise within 5e-5 of the
    minimum, and the refine would stop in a noise dip."""

    def h(sq: np.ndarray) -> np.ndarray:
        kf = _matern(np.sqrt(sq), nu, ell) @ F
        return np.einsum("ij,ij->i", kf, kf)

    return h


def _compass_refine(h, points, start, step, space: ParamSpace) -> np.ndarray:
    """Compass search from start with a line along the recent path.  Each
    round scores, in one h call, best and best +- step along every axis,
    and best + m u for m = 2^-3 .. 2^5, where u is best's displacement
    over its last REFINE_WINDOW moves at the current step; all projected
    to the box.  It moves to the lowest of them, or halves the step and
    forgets the path when best is lowest (the first of equal values
    wins).  Axis moves alone follow a narrow curved valley only at steps
    of the valley's width, so they crawl along it; the net displacement
    of their zigzag points along the valley floor, and the line travels
    it in a few rounds.  Every move lowers h, so it stops, at a step of
    at most REFINE_XTOL on every axis."""
    d = space.d
    offsets = np.vstack([np.zeros(d), np.eye(d), -np.eye(d)])
    multiples = 2.0 ** np.arange(-3, 6)[:, None]
    best, step = np.asarray(start, dtype=np.float64), np.asarray(step, dtype=np.float64)
    path = deque([best], maxlen=REFINE_WINDOW + 1)
    while np.max(step) > REFINE_XTOL:
        cand = best + offsets * step
        if len(path) > 1:
            cand = np.vstack([cand, best + multiples * (best - path[0])])
        cand = space.project(cand)
        k = int(np.argmin(h(_sq_dists(cand, points))))
        if k == 0:
            step = step / 2.0
            path = deque([best], maxlen=REFINE_WINDOW + 1)
        else:
            best = cand[k]
            path.append(best)
    return best


def _sos_model_argmin(points, F, s, d, ell, space: ParamSpace) -> np.ndarray:
    """Minimizer of the fitted SoS surrogate h(w) = |k_w F|^2:
    _compass_refine from the sample point with the lowest h, with a first
    step of 1/40 of each box side.  Costs no surface evaluations.  ``kw @
    F`` runs on threaded BLAS, so the BLAS thread count can move the last
    bits of h, and with them the refine's path."""
    h = _surrogate(points, F, s - d / 2, ell)
    start = points[int(np.argmin(h(_sq_dists(points, points))))]
    return _compass_refine(h, points, start, (space.upper - space.lower) / 40, space)


def _surface_values(risk_surface, points: np.ndarray) -> np.ndarray:
    """The surface at every row of points: one ``risk_surface.values``
    call where the surface has it (see perturb.crn_risk_surface), else one
    call per row, in order."""
    batch = getattr(risk_surface, "values", None)
    if batch is not None:
        return batch(points)
    return np.array([risk_surface(p) for p in points])


def ksos_minimize(
    risk_surface,
    space: ParamSpace,
    cfg: KsosConfig,
) -> KsosResult:
    """Globally minimize a deterministic surface over the box.

    ``risk_surface`` must be a fixed function of w (common random numbers
    for Monte Carlo surfaces).  The M sampled points are scored in one
    ``risk_surface.values(points)`` call where the surface has it, else
    one call per point, in order; the surrogate argmin is then scored by
    one more single call.

    The candidate minimizer is the argmin of the fitted SoS surrogate.
    """
    d = space.d
    cfg.validate(d)
    ell = cfg.length_scale if cfg.length_scale is not None else space.diameter() / 4.0
    rng = substream(cfg.seed, "ksos/sample")
    points = space.sample(rng, cfg.M)
    values = _surface_values(risk_surface, points)

    K = gram_matrix(points, cfg.s, ell)
    jitter = 1e-9 * float(np.trace(K)) / cfg.M
    K = K + jitter * np.eye(cfg.M)
    if not np.isfinite(K).all():
        raise GramSingular(f"Gram matrix not finite at length_scale {ell:.3e}; increase length_scale")
    try:
        Phi = np.linalg.cholesky(K).T
    except np.linalg.LinAlgError:
        raise GramSingular("Gram matrix singular after jitter; increase length_scale or reduce M") from None

    alpha = np.full(cfg.M, 1.0 / cfg.M)
    mu_min = max(MU_REL * float(np.ptp(values)), MU_MIN)
    shifted = values - float(np.min(values))
    mu = MU0
    trace_log = []
    # Path-follow mu down to mu_min, keeping the last state whose inner
    # Newton converged; a failed inner solve ends the path short of the
    # floor, and the result then reports converged = False.
    good = None
    for _ in range(MAX_OUTER):
        alpha_new, T_new, ok, counts = _newton_inner(shifted / mu, Phi, cfg.lambda_phi, alpha)
        trace_log.append({"mu": mu, "inner_converged": ok, **counts})
        if not ok and good is not None:
            break
        alpha = alpha_new
        good = (alpha_new, T_new, mu, ok)
        if mu <= mu_min:
            break
        mu = max(mu * SHRINK, mu_min)
    alpha, T, mu, converged = good
    converged = converged and mu <= mu_min

    c_per_constraint = values - mu * np.diag(T)
    c_hat = float(np.mean(c_per_constraint))
    residuals = c_per_constraint - c_hat
    # the kept alpha factored inside its inner solve, so it factors here
    L_W, _ = _factor_w(Phi, cfg.lambda_phi, alpha)
    L_W_inv = np.linalg.solve(L_W, np.eye(cfg.M))
    trace_BK = mu * float(np.sum(L_W_inv * L_W_inv))
    F = math.sqrt(mu) * np.linalg.solve(Phi, L_W_inv.T)

    negative_mass = float(np.sum(np.clip(-alpha, 0.0, None)))
    w_hat = _sos_model_argmin(points, F, cfg.s, d, ell, space)
    risk_at_hat = float(risk_surface(w_hat))

    return KsosResult(
        w_hat=w_hat,
        c_hat=c_hat,
        alpha=alpha,
        aposteriori_gap=risk_at_hat - c_hat,
        trace_term=cfg.lambda_phi * trace_BK,
        sampled_points=points,
        sampled_values=values,
        converged=converged,
        max_constraint_residual=float(np.max(np.abs(residuals))),
        negative_mass=negative_mass,
        mu_final=mu,
        trace_BK=trace_BK,
        newton_trace=trace_log,
    )


def lambda_phi_schedule(M: int, s: float, d: int, delta: float = 0.1, cbar: float = 1.0) -> float:
    """Lower bound of the admissible trace penalty for M samples."""
    s_tilde = s - d / 2
    return cbar * M ** (-s_tilde / d) * math.log(M / delta) ** (s_tilde / d)


# ---------------------------------------------------------------------------
# Certificate


def certificate(
    aposteriori_gap: float,
    trace_of_A_bound: float,
    sobolev_norm_bound: float,
    lambda_phi: float,
) -> float:
    """Upper bound on the optimization error: gap + lambda_phi (trace
    bound + Sobolev norm bound)."""
    if trace_of_A_bound < 0 or sobolev_norm_bound < 0 or lambda_phi < 0:
        raise ValueError("certificate inputs must be nonnegative")
    return aposteriori_gap + lambda_phi * (trace_of_A_bound + sobolev_norm_bound)


# ---------------------------------------------------------------------------
# Closed-form smoothness estimates for generalized linear embeddings


@functools.cache
def _abs_hermite_l1(order: int) -> float:
    """integral of |He_k(t)| phi(t) dt (probabilists' Hermite), in closed
    form: since d/dt (He_{k-1} phi) = -He_k phi, the integral of He_k phi
    between consecutive roots r of He_k is a difference of He_{k-1}(r) phi(r),
    whose signs alternate (the roots interlace), so the value is
    2 sum_r |He_{k-1}(r)| phi(r).  Cached, since it depends on the order
    alone."""
    if order == 0:
        return 1.0
    herm_e = np.polynomial.hermite_e
    roots = herm_e.hermeroots(np.eye(order + 1)[order])
    prev = herm_e.hermeval(roots, np.eye(order)[order - 1])
    phi = np.exp(-0.5 * (roots * roots)) / math.sqrt(2.0 * math.pi)
    return 2.0 * float(np.sum(np.abs(prev) * phi))


def _gaussian_derivative_l1(sigmas: np.ndarray, order: int) -> float:
    """max over multi-indices |a| = order of the L1 norm of D^a applied to
    the centered Gaussian density with (diagonalized) stddevs sigmas."""
    d = len(sigmas)

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for rest in compositions(total - head, parts - 1):
                yield (head,) + rest

    best = 0.0
    for alpha in compositions(order, d):
        val = 1.0
        for a_j, sig in zip(alpha, sigmas):
            val *= sig ** (-a_j) * _abs_hermite_l1(a_j)
        best = max(best, val)
    return best


@functools.cache
def _sobolev_nodes() -> tuple[np.ndarray, np.ndarray]:
    """The SOBOLEV_NODES-point Gauss-Hermite nodes and weights, read-only.
    Cached, since every instance's estimate takes the same ones."""
    nodes, weights = np.polynomial.hermite.hermgauss(SOBOLEV_NODES)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@functools.cache
def _sobolev_weights(d: int) -> np.ndarray:
    """The product of the Gauss-Hermite weights over d axes, shape
    (SOBOLEV_NODES,) * d, read-only: entry (i_1, ..., i_d) is
    w_{i_1} w_{i_2} ... w_{i_d}, multiplied left to right.  Cached per d,
    since every instance's estimate takes the same one."""
    _, weights = _sobolev_nodes()
    wprod = weights
    for _ in range(d - 1):
        wprod = wprod[..., None] * weights
    wprod.flags.writeable = False
    return wprod


def _sqrt_density_sobolev_sq(sigmas: np.ndarray, s: float) -> float:
    """integral over xi of (1 + |xi|^2)^s |M_hat(xi)|^2 for M = sqrt of the
    Gaussian density with stddevs sigmas (Fourier characterization of the
    squared Sobolev norm), by SOBOLEV_NODES-point Gauss-Hermite quadrature per axis.

    |xi|^2 on the product grid is the sum of the axes' squares, broadcast
    one axis at a time and added left to right, and the weights are the
    cached product _sobolev_weights(d); no grid is materialized per axis."""
    d = len(sigmas)
    det_sigma = float(np.prod(sigmas**2))
    c_sq = (2.0 * math.pi) ** (-d / 2.0) * (4.0 * math.pi) ** d * math.sqrt(det_sigma)
    nodes, _ = _sobolev_nodes()
    # weight exp(-x^2) with x_j = sqrt(2) sigma_j xi_j
    scale = float(np.prod([1.0 / (math.sqrt(2.0) * sig) for sig in sigmas]))
    norm_sq = 0.0
    for j, sig in enumerate(sigmas):
        g = nodes / (math.sqrt(2.0) * sig)
        norm_sq = norm_sq + (g * g).reshape((-1,) + (1,) * (d - 1 - j))
    integral = float(np.sum(_sobolev_weights(d) * (1.0 + norm_sq) ** s)) * scale
    return c_sq * integral


def glm_smoothness_estimates(
    model,
    instances,
    lam: float,
    s: float,
    d: int,
    f0_inf: float,
    space: ParamSpace,
) -> tuple[float, float]:
    """(Sobolev-norm bound, trace bound) for the risk surface of a
    generalized linear embedding, as pure lam^{-s_tilde} power laws with
    constants computed at unit scale from the Gaussian factor of the
    smoothing; requires full-column-rank feature matrices.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    s_tilde = s - d / 2.0
    order = math.ceil(s_tilde)
    if f0_inf == 0.0:
        return 0.0, 0.0
    norm_const = 0.0
    trace_const = 0.0
    for x in instances:
        phi = model.feature_matrix(x)
        gramian = phi.T @ phi
        rank = np.linalg.matrix_rank(gramian)
        if rank < d:
            raise ValueError(
                f"feature matrix of instance {x.index} is rank deficient "
                f"(rank {rank} < {d}); the closed-form bounds need full column rank"
            )
        # Z = Phi Z' + Z'' with cov(Z') = (Phi^T Phi)^{-1} / d(x)
        eigvals = 1.0 / (x.dim * np.linalg.eigvalsh(gramian))
        sigmas = np.sqrt(np.clip(eigvals, 1e-18, None))
        norm_const = max(norm_const, _gaussian_derivative_l1(sigmas, order))
        trace_const = max(trace_const, _sqrt_density_sobolev_sq(sigmas, s))
    scale = lam**(-s_tilde)
    return f0_inf * norm_const * scale, f0_inf * space.volume() * trace_const * scale


# ---------------------------------------------------------------------------
# Baselines


def baseline_minimize(
    risk_surface,
    space: ParamSpace,
    budget: int,
    seed: int = 0,
) -> tuple[np.ndarray, float]:
    """Random search: the best of budget uniform points in the box.  It
    scores its whole sample the way kSoS does, one ``risk_surface.values``
    call where the surface has it, else one call per point."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    points = space.sample(substream(seed, "baseline/randomsearch"), budget)
    values = _surface_values(risk_surface, points)
    best = int(np.argmin(values))
    return points[best].copy(), float(values[best])

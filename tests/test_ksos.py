import json
import math
import re
from unittest import mock

import numpy as np
import pytest

from perturbopt import ksos
from perturbopt.ksos import (
    KsosConfig,
    baseline_minimize,
    certificate,
    glm_smoothness_estimates,
    gram_matrix,
    ksos_minimize,
    lambda_phi_schedule,
    _abs_hermite_l1,
    _sobolev_nodes,
)
from perturbopt.model import GeneralizedLinearModel, ParamSpace, model_for_instances
from perturbopt.perturb import PerturbationSpec, crn_risk_surface
from perturbopt.problems import default_cost_oracle, generate_instances
from perturbopt.rngs import substream

QUAD_1D = KsosConfig(M=64, s=2.0, lambda_phi=1e-6, seed=0)


def quad1(w):
    return float((np.asarray(w)[0] - 0.3) ** 2)


# ---------------------------------------------------------------------------
# kernel


def test_kernel_is_one_at_zero_lag():
    rng = np.random.default_rng(4)
    for s, d in ((1.0, 1), (2.0, 1), (2.5, 2), (3.0, 3), (3.2, 2)):
        K = gram_matrix(rng.uniform(-1.0, 1.0, (6, d)), s, 0.7)
        assert np.diag(K).tolist() == [1.0] * 6


def test_kernel_half_integer_closed_form():
    # nu = 1/2 is the exponential kernel
    K = gram_matrix(np.array([[0.0], [1.0]]), s=1.0, length_scale=1.0)
    assert K[0, 1] == pytest.approx(np.exp(-1.0))
    assert K[1, 0] == K[0, 1]
    K = gram_matrix(np.array([[0.0, 0.0], [0.6, 0.8]]), s=1.5, length_scale=2.0)
    assert K[0, 1] == pytest.approx(np.exp(-0.5))


def test_kernel_requires_smoothness_above_half_dim():
    # s = 0.5 in d = 1 would be a Matern kernel with nu = 0; ksos_minimize
    # refuses it before evaluating the surface once
    calls = []
    with pytest.raises(ValueError):
        ksos_minimize(calls.append, ParamSpace.symmetric(1), KsosConfig(M=8, s=0.5, lambda_phi=0.1))
    assert calls == []


def test_gram_matrix_psd():
    rng = substream(0, "gram")
    pts = rng.uniform(-1, 1, (20, 2))
    K = gram_matrix(pts, 2.5, 0.5)
    assert np.allclose(K, K.T)
    assert np.linalg.eigvalsh(K).min() >= -1e-10


# ---------------------------------------------------------------------------
# solver


def test_config_validation():
    with pytest.raises(ValueError):
        KsosConfig(M=64, s=1.4, lambda_phi=1e-6).validate(d=1)  # s <= 1 + d/2
    with pytest.raises(ValueError):
        KsosConfig(M=1, s=2.0, lambda_phi=1e-6).validate(d=1)
    with pytest.raises(ValueError):
        KsosConfig(M=64, s=2.0, lambda_phi=-1.0).validate(d=1)
    KsosConfig(M=64, s=2.0, lambda_phi=0.0).validate(d=1)  # degenerate allowed


def test_quadratic_1d_recovery():
    space = ParamSpace.symmetric(1)
    res = ksos_minimize(quad1, space, QUAD_1D)
    assert abs(res.w_hat[0] - 0.3) <= 1e-2
    assert abs(res.c_hat) <= 1e-3
    assert res.converged
    assert res.max_constraint_residual <= 1e-6
    # the infimum estimate lower-bounds the sampled values up to the
    # solver's constraint residual
    assert res.c_hat <= float(np.min(res.sampled_values)) + res.max_constraint_residual
    # c_hat can exceed the true infimum only by the certificate's penalty
    # term, so the gap is nonnegative up to that term
    from perturbopt.harness.sweeps import quadratic_certificate_bounds

    trace_bound, norm_bound = quadratic_certificate_bounds(
        ParamSpace.symmetric(1), np.array([0.3]), 2.0, 0.5
    )
    assert res.aposteriori_gap >= -QUAD_1D.lambda_phi * (trace_bound + norm_bound)


def test_mu_path_ends_at_the_value_resolution():
    res = ksos_minimize(quad1, ParamSpace.symmetric(1), QUAD_1D)
    assert res.converged
    assert res.mu_final == ksos.MU_REL * float(np.ptp(res.sampled_values))
    assert [e["mu"] for e in res.newton_trace][-1] == res.mu_final
    assert [e["stop_reason"] for e in res.newton_trace] == ["decrement"] * len(res.newton_trace)


def test_failed_inner_solve_ends_the_path_unconverged(monkeypatch):
    # two Newton steps cannot solve the first barrier problem: the path
    # stops at the next failure and reports the mu it kept
    monkeypatch.setattr(ksos, "MAX_INNER", 2)
    res = ksos_minimize(quad1, ParamSpace.symmetric(1), QUAD_1D)
    assert not res.converged
    assert [e["stop_reason"] for e in res.newton_trace] == ["max_inner", "max_inner"]
    assert [e["inner_converged"] for e in res.newton_trace] == [False, False]
    assert res.mu_final == ksos.MU0


def test_constant_function_trace_vanishes():
    space = ParamSpace.symmetric(1)
    res = ksos_minimize(lambda w: 7.0, space, KsosConfig(M=64, s=2.0, lambda_phi=1e-6, seed=1))
    assert res.c_hat == pytest.approx(7.0, abs=1e-8)
    assert res.trace_BK <= 1e-8
    assert res.converged


def test_quadratic_2d_recovery_with_scheduled_penalty():
    space = ParamSpace.symmetric(2)
    target = np.array([0.2, -0.5])
    f = lambda w: float(np.sum((np.asarray(w) - target) ** 2))
    lam_phi = lambda_phi_schedule(256, 2.5, 2, delta=0.1, cbar=1.0)
    res = ksos_minimize(
        f, space, KsosConfig(M=256, s=2.5, lambda_phi=lam_phi, length_scale=0.35, seed=2)
    )
    assert np.linalg.norm(res.w_hat - target) <= 3e-2
    assert abs(f(res.w_hat) - 0.0) <= 1e-3


@pytest.mark.parametrize("case", ["quad_1d", "2d_m96_planted"])
def test_surrogate_factor_reproduces_the_eigen_route_B(monkeypatch, case):
    # B = mu K^-1/2 W^-1 K^-1/2, built here from the returned alpha with the
    # symmetric square root G = K^1/2, W = lambda_phi I + G diag(alpha) G:
    # the surrogate on the factor F that ksos_minimize hands to the argmin
    # is k_w^T B k_w up to rounding.  Each case runs its whole mu path.
    f, d, cfg, _ = NEWTON_CASES[case]
    seen = []
    original = ksos._sos_model_argmin

    def recording_argmin(points, F, *args):
        seen.append(F)
        return original(points, F, *args)

    monkeypatch.setattr(ksos, "_sos_model_argmin", recording_argmin)
    space = ParamSpace.symmetric(d)
    res = ksos_minimize(f, space, cfg)
    (F,) = seen
    ell = cfg.length_scale if cfg.length_scale is not None else space.diameter() / 4.0
    points, nu = res.sampled_points, cfg.s - d / 2
    K = gram_matrix(points, cfg.s, ell)
    K = K + 1e-9 * float(np.trace(K)) / cfg.M * np.eye(cfg.M)
    evals, evecs = np.linalg.eigh(K)
    G = (evecs * np.sqrt(evals)) @ evecs.T
    G_inv = (evecs / np.sqrt(evals)) @ evecs.T
    W = cfg.lambda_phi * np.eye(cfg.M) + G @ (res.alpha[:, None] * G)
    B = res.mu_final * G_inv @ np.linalg.solve(W, np.eye(cfg.M)) @ G_inv
    sq = ksos._sq_dists(space.sample(substream(0, "surrogate-check"), 200), points)
    kw = ksos._matern(np.sqrt(sq), nu, ell)
    direct = np.einsum("ij,ij->i", kw @ B, kw)
    scale = np.einsum("ij,ij->i", np.abs(kw) @ np.abs(B), np.abs(kw))
    assert np.all(np.abs(ksos._surrogate(points, F, nu, ell)(sq) - direct) <= 1e-8 * scale)


def test_ksos_minimize_makes_no_eigh_call(monkeypatch):
    calls = []
    real = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        calls.append(a.shape)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    ksos_minimize(quad1, ParamSpace.symmetric(1), QUAD_1D)
    assert calls == []


def test_non_finite_gram_matrix_is_a_solver_failure():
    # at a length-scale of 1e-320 the Matern closed form meets inf * 0 off
    # the diagonal; the solve stops before its first Newton step
    cfg = KsosConfig(M=16, s=2.5, lambda_phi=1e-3, length_scale=1e-320)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ksos.GramSingular, match="not finite"):
            ksos_minimize(_quad2, ParamSpace.symmetric(2), cfg)


def _boundary_surrogate(monkeypatch, d):
    """The surrogate of a solve whose minimum lies on the box boundary in
    some coordinates, on a box with unequal sides (so unequal steps):
    (space, points, h, result)."""
    space = ParamSpace(-np.ones(d), np.array([1.0, 0.5, 2.0, 1.0])[:d])
    target = np.array([1.3, -0.4, 0.5, -1.2])[:d]
    f = lambda w: float(np.sum((np.asarray(w) - target) ** 2) + 0.3 * np.sin(3.0 * np.sum(w)))
    s = 1.5 + d / 2
    seen = []
    original = ksos._sos_model_argmin

    def recording_argmin(points, F, *args):
        seen.append((points, F))
        return original(points, F, *args)

    monkeypatch.setattr(ksos, "_sos_model_argmin", recording_argmin)
    res = ksos_minimize(f, space, KsosConfig(M=32, s=s, lambda_phi=lambda_phi_schedule(32, s, d), seed=d))
    ((points, F),) = seen
    h = ksos._surrogate(points, F, s - d / 2, space.diameter() / 4.0)
    return space, points, h, res


@pytest.mark.parametrize("d", (1, 2, 3, 4))
def test_compass_refine_stays_in_the_box_and_matches_nelder_mead(monkeypatch, d):
    from scipy.optimize import minimize

    space, points, h, res = _boundary_surrogate(monkeypatch, d)
    h_at = lambda w: float(h(ksos._sq_dists(space.project(w)[None, :], points))[0])
    start = points[int(np.argmin(h(ksos._sq_dists(points, points))))]
    got = ksos._compass_refine(h, points, start, (space.upper - space.lower) / 40, space)
    assert got.tobytes() == res.w_hat.tobytes()
    assert space.contains(got)
    nm = minimize(
        h_at, start, method="Nelder-Mead", options={"xatol": 1e-10, "fatol": 1e-14, "maxfev": 200 * d}
    )
    scale = float(np.max(np.abs(h(ksos._sq_dists(points, points)))))
    assert h_at(got) <= h_at(nm.x) + 1e-12 * scale


def _reference_grid_start(h, points, space):
    """The surrogate argmin's start as first written: the argmin of h over
    a product grid of 2001, 101 or 41 points per axis for d = 1, 2 or 3,
    scored 4096 rows at a time, and the grid spacing."""
    d = space.d
    n_axis = {1: 2001, 2: 101, 3: 41}[d]
    step = (space.upper - space.lower) / (n_axis - 1)
    axes = [np.linspace(lo, hi, n_axis) for lo, hi in zip(space.lower, space.upper)]
    sq_axes = [(a[:, None] - points[None, :, k]) ** 2 for k, a in enumerate(axes)]
    n = n_axis**d
    vals = np.empty(n)
    for lo in range(0, n, 4096):
        idx = np.unravel_index(np.arange(lo, min(lo + 4096, n)), (n_axis,) * d)
        vals[lo : lo + 4096] = h(sum(t[i] for t, i in zip(sq_axes, idx)))
    best = np.unravel_index(int(np.argmin(vals)), (n_axis,) * d)
    return np.array([a[i] for a, i in zip(axes, best)]), step


@pytest.mark.parametrize("d", (1, 2, 3))
def test_best_sample_start_finds_the_grid_start_minimum(monkeypatch, d):
    # the refine from the best sample point lands where the refine from the
    # argmin of a fine product grid does
    space, points, h, res = _boundary_surrogate(monkeypatch, d)
    ref = ksos._compass_refine(h, points, *_reference_grid_start(h, points, space), space)
    h_at = lambda w: float(h(ksos._sq_dists(w[None, :], points))[0])
    scale = float(np.max(np.abs(h(ksos._sq_dists(points, points)))))
    assert h_at(res.w_hat) <= h_at(ref) + 1e-12 * scale
    np.testing.assert_allclose(res.w_hat, ref, rtol=0.0, atol=1e-6)


@pytest.mark.parametrize("d", (1, 2, 3))
def test_surrogate_argmin_scores_the_samples_then_compass_rounds(monkeypatch, d):
    # the start scores the M samples and nothing else: no grid block
    rows = []
    original = ksos._surrogate

    def recording_surrogate(*args):
        h = original(*args)

        def counted(sq):
            rows.append(sq.shape[0])
            return h(sq)

        return counted

    monkeypatch.setattr(ksos, "_surrogate", recording_surrogate)
    f = lambda w: float(np.sum((np.asarray(w) - 0.3) ** 2))
    s = 1.5 + d / 2
    ksos_minimize(f, ParamSpace.symmetric(d), KsosConfig(M=24, s=s, lambda_phi=1e-4, seed=d))
    assert rows[0] == 24
    assert len(rows) > 1 and max(rows[1:]) <= 2 * d + 10


def test_degenerate_zero_penalty_matches_min_sample():
    space = ParamSpace.symmetric(1)
    cfg = KsosConfig(M=32, s=2.0, lambda_phi=0.0, seed=3)
    res = ksos_minimize(quad1, space, cfg)
    assert res.c_hat == pytest.approx(float(np.min(res.sampled_values)), abs=1e-6)


def test_error_decreases_with_more_samples():
    space = ParamSpace.symmetric(1)
    medians = []
    for m in (32, 256):
        errs = []
        for seed in range(6):
            lam_phi = lambda_phi_schedule(m, 2.0, 1)
            res = ksos_minimize(
                quad1, space, KsosConfig(M=m, s=2.0, lambda_phi=lam_phi, seed=100 + seed)
            )
            errs.append(abs(res.w_hat[0] - 0.3))
        medians.append(np.median(errs))
    assert medians[1] < medians[0]


# ---------------------------------------------------------------------------
# Newton solver arithmetic


def _reference_newton_inner(R_scaled, G, lam_phi, alpha):
    """The Newton inner solve as first written: T built at every
    line-search point, on the same numpy primitives.  Counts accepted
    steps instead of T builds."""
    M = len(alpha)
    counts = {"newton_iters": 0, "factorizations": 0, "accepted": 0, "stop_reason": "max_inner"}

    def assemble(a):
        W = lam_phi * np.eye(M) + G @ (a[:, None] * G.T)
        try:
            L = np.linalg.cholesky(W)
        except np.linalg.LinAlgError:
            return None
        Y = np.linalg.solve(L, G)
        logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
        return W, Y.T @ Y, logdet

    state = assemble(alpha)
    _, T, logdet = state
    fval = float(alpha @ R_scaled) - logdet
    ok = False
    for _ in range(ksos.MAX_INNER):
        counts["newton_iters"] += 1
        grad = R_scaled - np.diag(T)
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
        if decrement / 2.0 <= ksos.INNER_TOL:
            counts["factorizations"] += 1
            state = assemble(alpha + step)
            if state is not None:
                alpha, T = alpha + step, state[1]
                counts["accepted"] += 1
            ok = True
            counts["stop_reason"] = "decrement"
            break
        t = 1.0
        accepted = False
        while t > ksos.LINE_SEARCH_MIN:
            cand = alpha + t * step
            counts["factorizations"] += 1
            state = assemble(cand)
            if state is not None:
                _, T_new, logdet_new = state
                f_new = float(cand @ R_scaled) - logdet_new
                if f_new <= fval - 1e-4 * t * decrement:
                    alpha, T, logdet, fval = cand, T_new, logdet_new, f_new
                    counts["accepted"] += 1
                    accepted = True
                    break
            t *= 0.5
        if not accepted:
            ok = decrement / 2.0 <= math.sqrt(ksos.INNER_TOL)
            counts["stop_reason"] = "line_search_exhausted"
            break
    return alpha, T, ok, counts


def _quad2(w):
    return float(np.sum((np.asarray(w) - np.array([0.2, -0.5])) ** 2))


NEWTON_CASES = {
    # name: (surface, d, config, outer steps or None for ksos.MAX_OUTER)
    # lambda_phi = 0: W = G diag(alpha) G, which leaves PD as soon as an alpha_i < 0
    "1d_m32_zero_penalty": (quad1, 1, KsosConfig(M=32, s=2.0, lambda_phi=0.0, seed=3), None),
    "quad_1d": (quad1, 1, QUAD_1D, None),
    # M=96 runs OpenBLAS's threaded dgemm; a short path keeps the reference fast
    "2d_m96_planted": (
        _quad2,
        2,
        KsosConfig(
            M=96, s=2.5, lambda_phi=lambda_phi_schedule(96, 2.5, 2), length_scale=0.35, seed=2
        ),
        4,
    ),
}


def _solve_both(monkeypatch, case):
    f, d, cfg, max_outer = NEWTON_CASES[case]
    if max_outer is not None:
        monkeypatch.setattr(ksos, "MAX_OUTER", max_outer)
    space = ParamSpace.symmetric(d)
    fast = ksos_minimize(f, space, cfg)
    with monkeypatch.context() as m:
        m.setattr(ksos, "_newton_inner", _reference_newton_inner)
        ref = ksos_minimize(f, space, cfg)
    return fast, ref


@pytest.mark.parametrize("case", sorted(NEWTON_CASES))
def test_newton_inner_bit_identical_to_reference(monkeypatch, case):
    fast, ref = _solve_both(monkeypatch, case)
    assert fast.alpha.tobytes() == ref.alpha.tobytes()
    assert fast.w_hat.tobytes() == ref.w_hat.tobytes()
    for name in ("c_hat", "max_constraint_residual", "mu_final"):
        assert getattr(fast, name) == getattr(ref, name), name
    keys = ("mu", "inner_converged", "newton_iters", "factorizations", "stop_reason")
    assert [[e[k] for k in keys] for e in fast.newton_trace] == [
        [e[k] for k in keys] for e in ref.newton_trace
    ]


def test_t_builds_are_accepted_steps_plus_one(monkeypatch):
    fast, ref = _solve_both(monkeypatch, "quad_1d")
    assert [e["t_builds"] for e in fast.newton_trace] == [
        e["accepted"] + 1 for e in ref.newton_trace
    ]


# ---------------------------------------------------------------------------
# certificate


def test_certificate_arithmetic():
    assert certificate(1e-3, 50.0, 10.0, 1e-5) == pytest.approx(1.6e-3)
    assert certificate(0.42, 50.0, 10.0, 0.0) == 0.42
    with pytest.raises(ValueError):
        certificate(0.0, -1.0, 0.0, 1e-5)


def test_certificate_covers_true_error_on_quadratic():
    space = ParamSpace.symmetric(1)
    lam_phi = lambda_phi_schedule(64, 2.0, 1)
    cfg = KsosConfig(M=64, s=2.0, lambda_phi=lam_phi, seed=4)
    res = ksos_minimize(quad1, space, cfg)
    grid = np.linspace(-1, 1, 10_000)
    oracle_min = float(np.min((grid - 0.3) ** 2))
    true_err = abs(quad1(res.w_hat) - oracle_min)
    from perturbopt.harness.sweeps import quadratic_certificate_bounds

    trace_bound, norm_bound = quadratic_certificate_bounds(
        space, np.array([0.3]), 2.0, space.diameter() / 4.0
    )
    certified = certificate(res.aposteriori_gap, trace_bound, norm_bound, lam_phi)
    assert certified >= true_err


def test_lambda_phi_schedule_monotone():
    vals = [lambda_phi_schedule(m, 2.5, 2) for m in (32, 64, 128, 256)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# generalized linear smoothness estimates


def test_glm_estimates_pure_power_law():
    instances = generate_instances("contextual", 5, seed=1, d_context=1)
    from perturbopt.model import model_for_instances

    model = model_for_instances(instances, d=1)
    space = ParamSpace.symmetric(1)
    n1, t1 = glm_smoothness_estimates(model, instances, 1.0, 2.0, 1, 1.0, space)
    n2, t2 = glm_smoothness_estimates(model, instances, 2.0, 2.0, 1, 1.0, space)
    s_tilde = 2.0 - 0.5
    assert n1 / n2 == pytest.approx(2.0**s_tilde)
    assert t1 / t2 == pytest.approx(2.0**s_tilde)


def test_glm_estimate_matches_hermite_quadrature():
    # unit feature matrix makes the smoothing factor a standard normal:
    # the derivative constant is E|He_2| = 4 phi(1)
    x = generate_instances("contextual", 1, seed=0, d_context=1)[0]
    model = GeneralizedLinearModel(d=1, lipschitz_bound=1.0, builder=lambda _: np.eye(1))
    space = ParamSpace.symmetric(1)
    norm_bound, _ = glm_smoothness_estimates(model, [x], 1.0, 2.0, 1, 1.0, space)
    expected = 4.0 * np.exp(-0.5) / np.sqrt(2.0 * np.pi)
    assert norm_bound == pytest.approx(expected, abs=1e-6)
    assert _abs_hermite_l1(2) == pytest.approx(expected, abs=1e-9)


def test_glm_estimates_zero_cost():
    instances = generate_instances("contextual", 3, seed=1, d_context=2)
    from perturbopt.model import model_for_instances

    model = model_for_instances(instances, d=2)
    space = ParamSpace.symmetric(2)
    assert glm_smoothness_estimates(model, instances, 1.0, 2.5, 2, 0.0, space) == (0.0, 0.0)


def test_glm_estimates_rank_deficient_fallback():
    x = generate_instances("contextual", 1, seed=0, d_context=2)[0]
    model = GeneralizedLinearModel(
        d=2, lipschitz_bound=1.0, builder=lambda _: np.array([[1.0, 0.0]]) * 0.0
    )
    space = ParamSpace.symmetric(2)
    with pytest.raises(ValueError):
        glm_smoothness_estimates(model, [x], 1.0, 2.5, 2, 1.0, space)


def test_abs_hermite_l1_is_cached_per_order(monkeypatch):
    # the norm depends on the order alone, so the smoothness estimate over
    # many instances computes each order once, to the uncached bits
    instances = generate_instances("scheduling", 24, seed=3, jobs=[5])
    from perturbopt.model import model_for_instances

    model = model_for_instances(instances, d=2)
    space = ParamSpace.symmetric(2)
    uncached = _abs_hermite_l1.__wrapped__
    want_l1 = [uncached(k).hex() for k in range(6)]
    monkeypatch.setattr(ksos, "_abs_hermite_l1", uncached)
    want = glm_smoothness_estimates(model, instances, 0.1, 3.5, 2, 1.0, space)
    monkeypatch.undo()

    _abs_hermite_l1.cache_clear()
    got = glm_smoothness_estimates(model, instances, 0.1, 3.5, 2, 1.0, space)
    assert got == want
    info = _abs_hermite_l1.cache_info()
    assert info.misses == 4 and info.hits > 0  # orders 0 to 3, each computed once
    assert [_abs_hermite_l1(k).hex() for k in range(6)] == want_l1


def test_sobolev_nodes_are_computed_once(monkeypatch):
    # every instance's trace estimate takes the same quadrature nodes: one
    # hermgauss call over repeated estimates, to the bits of a fresh call
    instances = generate_instances("scheduling", 24, seed=3, jobs=[5])
    model = model_for_instances(instances, d=2)
    space = ParamSpace.symmetric(2)
    monkeypatch.setattr(ksos, "_sobolev_nodes", _sobolev_nodes.__wrapped__)
    want = glm_smoothness_estimates(model, instances, 0.1, 3.5, 2, 1.0, space)
    monkeypatch.undo()

    _sobolev_nodes.cache_clear()
    real = np.polynomial.hermite.hermgauss
    with mock.patch.object(np.polynomial.hermite, "hermgauss", wraps=real) as hermgauss:
        got = [glm_smoothness_estimates(model, instances, 0.1, 3.5, 2, 1.0, space) for _ in range(3)]
    assert hermgauss.call_count == 1
    assert [tuple(v.hex() for v in g) for g in got] == [tuple(v.hex() for v in want)] * 3
    nodes, weights = _sobolev_nodes()
    assert not nodes.flags.writeable and not weights.flags.writeable


def _sqrt_density_sobolev_sq_on_meshgrids(sigmas, s):
    """The quadrature on d materialized meshgrids of nodes and of weights,
    each summed or multiplied into a running grid axis by axis."""
    d = len(sigmas)
    det_sigma = float(np.prod(sigmas**2))
    c_sq = (2.0 * math.pi) ** (-d / 2.0) * (4.0 * math.pi) ** d * math.sqrt(det_sigma)
    nodes, weights = _sobolev_nodes()
    axes = [nodes / (math.sqrt(2.0) * sig) for sig in sigmas]
    scale = float(np.prod([1.0 / (math.sqrt(2.0) * sig) for sig in sigmas]))
    grids = np.meshgrid(*axes, indexing="ij")
    wgrids = np.meshgrid(*([weights] * d), indexing="ij")
    norm_sq = np.zeros_like(grids[0])
    wprod = np.ones_like(grids[0])
    for g, wg in zip(grids, wgrids):
        norm_sq = norm_sq + g * g
        wprod = wprod * wg
    integral = float(np.sum(wprod * (1.0 + norm_sq) ** s)) * scale
    return c_sq * integral


@pytest.mark.parametrize("d", [1, 2, 3])
def test_sqrt_density_sobolev_sq_is_the_meshgrid_quadrature_bitwise(d):
    rng = substream(5, f"sobolev/{d}")
    for s in (0.5, 1.0, 1.75, 2.0, 2.5, 3.5):
        for sigmas in (np.full(d, 1.0), rng.uniform(0.05, 3.0, d), rng.uniform(1e-3, 0.1, d)):
            want = _sqrt_density_sobolev_sq_on_meshgrids(sigmas, s)
            assert ksos._sqrt_density_sobolev_sq(sigmas, s).hex() == want.hex()
    weights = ksos._sobolev_weights(d)
    assert weights is ksos._sobolev_weights(d) and not weights.flags.writeable
    assert weights.shape == (ksos.SOBOLEV_NODES,) * d


@pytest.mark.parametrize("order", range(8))
def test_abs_hermite_l1_closed_form_matches_quadrature(order):
    from scipy.integrate import quad

    herm = np.polynomial.hermite_e.HermiteE(np.eye(order + 1)[order])
    phi = lambda t: math.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi)
    # |He_k| has a kink at each root, so the reference integrates between
    # them; over [-12, 12] in one piece quad is itself off by 1e-8 at order 7
    ref, _ = quad(
        lambda t: abs(herm(t)) * phi(t), -12.0, 12.0,
        points=herm.roots() if order else None, limit=400, epsabs=0.0, epsrel=1e-13,
    )
    assert _abs_hermite_l1(order) == pytest.approx(ref, rel=1e-8, abs=0.0)


def test_abs_hermite_l1_order_two_is_four_phi_one():
    want = 4.0 * math.exp(-0.5) / math.sqrt(2.0 * math.pi)
    assert abs(_abs_hermite_l1(2) - want) <= math.ulp(want)


def test_glm_estimates_rank_deficient_message_names_the_rank():
    from perturbopt.model import model_for_instances

    instances = generate_instances("contextual", 2, seed=0, d_context=2)
    model = model_for_instances(instances, d=2)  # each feature matrix is 1 x 2
    with pytest.raises(ValueError, match=re.escape("(rank 1 < 2)")):
        glm_smoothness_estimates(model, instances, 1.0, 2.5, 2, 1.0, ParamSpace.symmetric(2))


# ---------------------------------------------------------------------------
# baselines


def test_random_search_quadratic():
    space = ParamSpace.symmetric(1)
    w, v = baseline_minimize(quad1, space, 10_000, seed=5)
    assert v <= 1e-3


def test_baseline_edge_cases():
    space = ParamSpace.symmetric(1)
    w, v = baseline_minimize(lambda _: 3.3, space, 1, seed=6)
    assert v == 3.3
    with pytest.raises(ValueError):
        baseline_minimize(quad1, space, 0, seed=6)


class CountingSurface:
    """A surface that records its batch sizes and counts its single calls."""

    def __init__(self, surface):
        self.surface = surface
        self.batches = []
        self.singles = 0

    def __call__(self, w):
        self.singles += 1
        return self.surface(w)

    def values(self, W):
        self.batches.append(len(W))
        return self.surface.values(W)


def test_samples_are_scored_in_one_batch_equal_to_point_calls():
    instances = generate_instances("scheduling", 6, seed=23, jobs=[4])
    space = ParamSpace.symmetric(2)
    spec = PerturbationSpec(lam=0.1, mc_samples=16, master_seed=4)
    surface = crn_risk_surface(
        instances, default_cost_oracle("scheduling"), model_for_instances(instances, d=2), space, spec
    )
    cfg = KsosConfig(M=12, s=2.5, lambda_phi=lambda_phi_schedule(12, 2.5, 2), seed=3)
    counted = CountingSurface(surface)
    batched = ksos_minimize(counted, space, cfg)
    assert counted.batches == [12] and counted.singles == 1  # the surrogate argmin
    counted = CountingSurface(surface)
    batched_rs = baseline_minimize(counted, space, 10, seed=5)
    assert counted.batches == [10] and counted.singles == 0

    # a plain callable takes the point-by-point path, with the same bits
    plain = lambda w: surface(w)
    single = ksos_minimize(plain, space, cfg)
    assert single.sampled_values.tobytes() == batched.sampled_values.tobytes()
    assert single.w_hat.tobytes() == batched.w_hat.tobytes()
    assert json.dumps(single.to_doc()) == json.dumps(batched.to_doc())
    assert single.newton_trace == batched.newton_trace
    single_w, single_v = baseline_minimize(plain, space, 10, seed=5)
    assert single_w.tobytes() == batched_rs[0].tobytes()
    assert single_v.hex() == batched_rs[1].hex()

from unittest import mock

import numpy as np
import pytest
from scipy.stats import norm

from perturbopt import theory
from perturbopt.model import ParamSpace, model_for_instances
from perturbopt.perturb import PerturbationSpec, _risk_terms, chi_tail, regularized_risk, sample_perturbation
from perturbopt.polytopes import internal_radius_batch
from perturbopt.problems import ContextualWrapper, StoVspDelayCost, generate_instances, osc_bound
from perturbopt.rngs import substream
from perturbopt.theory import (
    BoundCheck,
    check_bias_bound,
    check_empirical_process,
    check_gauss_tail,
    check_lipschitz_lemmas,
    contextual_risk_matrix,
    empirical_process_rhs,
    fit_loglog,
    gaussian_inverse_moment,
    uw_analytic_bound,
    uw_moment,
)


def contextual_pack(n, seed, d_context=2):
    instances = generate_instances("contextual", n, seed=seed, d_context=d_context)
    model = model_for_instances(instances, d=d_context)
    space = ParamSpace.symmetric(d_context)
    return instances, model, space


# ---------------------------------------------------------------------------
# BoundCheck plumbing


def test_boundcheck_pass_logic():
    assert BoundCheck("a", lhs=1.0, rhs=1.0).passed
    assert BoundCheck("b", lhs=1.1, rhs=1.0, se_lhs=0.05).passed  # within 3 se
    assert not BoundCheck("c", lhs=1.2, rhs=1.0, se_lhs=0.05).passed


def test_fit_loglog_recovers_slope():
    x = np.array([1.0, 2.0, 4.0, 8.0])
    assert fit_loglog(x, 3.0 * x**-0.5) == pytest.approx(-0.5)
    assert np.isnan(fit_loglog(x, np.zeros(4)))


# ---------------------------------------------------------------------------
# UW moment


def test_uw_single_hyperplane_closed_form():
    # theta uniform on [-1, 1], tau = 1/2: E |theta|^{-1/2} = 2
    instances, _, space = contextual_pack(40_000, seed=23, d_context=1)
    model = model_for_instances(instances, d=1)
    spec = PerturbationSpec(lam=1.0, mc_samples=1, master_seed=1)
    res = uw_moment(np.array([1.0]), instances, 0.5, 0.0, model, space, spec)
    assert abs(res.value - 2.0) <= 3.0 * res.std_error
    assert res.analytic_bound is None


def test_uw_tends_to_one_as_tau_vanishes():
    instances, _, space = contextual_pack(2_000, seed=29, d_context=1)
    model = model_for_instances(instances, d=1)
    spec = PerturbationSpec(lam=1.0, mc_samples=1, master_seed=1)
    res = uw_moment(np.array([1.0]), instances, 1e-3, 0.0, model, space, spec)
    assert abs(res.value - 1.0) <= 0.02


def test_uw_estimate_below_analytic_bound():
    instances, model, space = contextual_pack(200, seed=31)
    spec = PerturbationSpec(lam=1.0, mc_samples=64, master_seed=2)
    w = np.array([0.3, -0.4])
    res = uw_moment(w, instances, 0.5, 0.1, model, space, spec)
    assert res.analytic_bound is not None
    assert res.value <= res.analytic_bound + 3.0 * res.std_error


def test_uw_bound_monotone_in_epsilon0():
    instances, _, _ = contextual_pack(50, seed=37)
    bounds = [uw_analytic_bound(instances, 0.5, e) for e in (0.05, 0.1, 0.2, 0.4)]
    assert all(a >= b for a, b in zip(bounds, bounds[1:]))


def test_uw_margin_case():
    # features bounded away from the boundary by margin m: estimate <= (sqrt(d)/m)^tau
    instances, _, space = contextual_pack(100, seed=41, d_context=1)
    for x in instances:
        u = x.features["context"]
        u[:] = np.sign(u) * np.maximum(np.abs(u), 0.5)
    model = model_for_instances(instances, d=1)
    spec = PerturbationSpec(lam=1.0, mc_samples=1, master_seed=3)
    res = uw_moment(np.array([1.0]), instances, 0.5, 0.0, model, space, spec)
    assert res.value <= (np.sqrt(1.0) / 0.5) ** 0.5 + 1e-12


def _uw_per_instance(w, instances, tau, epsilon0, model, space, spec):
    """uw_moment's value and std error as a loop over the instances: one
    predict and one internal-radius call per instance."""
    means, variances = [], []
    for x in instances:
        theta = model.predict(w, x, space=space)[None, :]
        if epsilon0 > 0.0:
            z = sample_perturbation(x.dim, substream(spec.master_seed, f"uw/{x.index}"), spec.mc_samples)
            theta = theta + epsilon0 * z
        with np.errstate(divide="ignore"):
            vals = (internal_radius_batch(x.polytope, theta) / np.sqrt(x.dim)) ** (-tau)
        means.append(float(np.mean(vals)))
        variances.append(float(np.var(vals, ddof=1)) / len(vals) if len(vals) > 1 else 0.0)
    n = len(instances)
    se = np.sqrt(float(np.var(means, ddof=1)) / n + float(np.mean(variances)) / n)
    return float(np.mean(means)), float(se)


@pytest.mark.parametrize("epsilon0", [0.0, 0.1])
@pytest.mark.parametrize(
    "domain, params, d, n_cells",
    [
        ("contextual", {"d_context": 2}, 2, 1),
        ("scheduling", {"jobs": [3, 4]}, 2, 2),
        ("stovsp", {"tasks": [5]}, 3, 2),
    ],
)
def test_uw_moment_is_the_per_instance_loop_bitwise_from_one_radius_call_per_cell(
    monkeypatch, domain, params, d, n_cells, epsilon0
):
    instances = generate_instances(domain, 14, seed=43, **params)
    model = model_for_instances(instances, d=d)
    space = ParamSpace.symmetric(d)
    spec = PerturbationSpec(lam=1.0, mc_samples=24, master_seed=6)
    w = np.linspace(-0.7, 0.9, d)
    want = _uw_per_instance(w, instances, 0.5, epsilon0, model, space, spec)
    with mock.patch.object(theory, "internal_radius_batch", wraps=internal_radius_batch) as radius:
        res = uw_moment(w, instances, 0.5, epsilon0, model, space, spec)
    assert radius.call_count == n_cells
    assert (res.value.hex(), res.std_error.hex()) == tuple(v.hex() for v in want)


def test_gaussian_inverse_moment_value():
    # E|N|^{-1/2} = 2^{-1/4} Gamma(1/4) / sqrt(pi)
    from scipy.special import gamma

    assert gaussian_inverse_moment(0.5) == pytest.approx(
        2.0 ** (-0.25) * gamma(0.25) / np.sqrt(np.pi)
    )
    with pytest.raises(ValueError):
        gaussian_inverse_moment(1.0)


# ---------------------------------------------------------------------------
# bias bounds


def test_bias_bounds_hold_on_grid():
    instances, model, space = contextual_pack(50, seed=43)
    spec = PerturbationSpec(lam=1.0, mc_samples=256, master_seed=4)
    rng = substream(5, "w")
    for _ in range(5):
        w = space.sample(rng, 1)[0]
        checks, fit = check_bias_bound(
            w, instances, ContextualWrapper(), [0.01, 0.05, 0.2, 1.0], 1e-3, model, space, spec
        )
        assert all(c.passed for c in checks)
    assert fit.fitted_slope >= 0.3  # far above the tau - 0.2 floor


def test_bias_gap_vanishes_at_epsilon0():
    instances, model, space = contextual_pack(20, seed=47)
    spec = PerturbationSpec(lam=1.0, mc_samples=128, master_seed=5)
    checks, _ = check_bias_bound(
        np.array([0.2, 0.2]), instances, ContextualWrapper(), [0.05, 0.5], 0.05, model, space, spec
    )
    at_eps = [c for c in checks if c.name == "bias_vs_base_smoothed" and c.metadata["lambda"] == 0.05]
    assert at_eps[0].lhs == 0.0


def test_bias_closed_form_two_solution_example():
    # hand-checkable case: f(0)=5, f(1)=2, theta=0.3
    instances, model, space = contextual_pack(1, seed=3)
    instances[0].features["costs"][:] = [5.0, 2.0]
    instances[0].features["context"][:] = [0.3, 0.0]
    model = model_for_instances(instances, d=2)
    w = np.array([1.0, 0.0])
    spec = PerturbationSpec(lam=1.0, mc_samples=64, master_seed=6)
    checks, _ = check_bias_bound(
        w, instances, ContextualWrapper(), [0.1, 0.3, 1.0], 0.0, model, space, spec
    )
    for c in checks:
        if c.name == "bias_vs_unperturbed":
            lam = c.metadata["lambda"]
            # R_lam - R_0 = 3 (1 - Phi(0.3 / lam)); V = chi1 tail at 0.3/lam
            assert c.lhs == pytest.approx(3.0 * (1.0 - norm.cdf(0.3 / lam)), abs=1e-12)
            assert c.rhs == pytest.approx(2.0 * 3.0 * chi_tail(0.3 / lam, 1), abs=1e-12)
            assert c.passed


# check_bias_bound on 30 contextual instances (seed 61) at two w: per lambda
# of BIAS_GRID, (V, lhs and rhs of bias_vs_unperturbed, lhs and rhs of
# bias_vs_base_smoothed), as float.hex.
BIAS_GRID = [0.02, 0.1, 0.5, 2.0]
BIAS_PINS = {
    (0.4, -0.7): [
        ("0x1.ee57880730a66p-6", "0x1.940ef3a3614c0p-8", "0x1.d5fbdaf297877p-5",
         "0x1.8c693791382c0p-8", "0x1.d5fbdaf297877p-4"),
        ("0x1.1cdaf244df752p-4", "0x1.f8cbaa55387c0p-8", "0x1.0ed1c145a2da5p-3",
         "0x1.f125ee430f5c0p-8", "0x1.0ed1c145a2da5p-2"),
        ("0x1.d97a4d067e98bp-2", "0x1.02e47c98b4400p-10", "0x1.c225cebc3f6acp-1",
         "0x1.c89b18a01f800p-11", "0x1.c225cebc3f6acp+0"),
        ("0x1.b073695c2a325p-1", "0x1.82d38e516eb00p-9", "0x1.9b246f845e5eep+0",
         "0x1.7388162d1c700p-9", "0x1.9b246f845e5eep+1"),
    ],
    (-0.9, 0.25): [
        ("0x1.cbdf443052acdp-6", "0x1.b2b14d2af9f00p-9", "0x1.b536653a69b2ep-5",
         "0x1.b2ab6c4f7b000p-9", "0x1.b536653a69b2ep-4"),
        ("0x1.bbd052275f931p-4", "0x1.670af66c86400p-8", "0x1.a5f2030d0e363p-3",
         "0x1.670de6da45b80p-8", "0x1.a5f2030d0e363p-2"),
        ("0x1.c594b25403fb2p-2", "0x1.65ae74a80ebc0p-8", "0x1.af3b2f3f88f82p-1",
         "0x1.65ab843a4f440p-8", "0x1.af3b2f3f88f82p+0"),
        ("0x1.a7efbd1e230b9p-1", "0x1.b6bdcc73a6d20p-7", "0x1.930c29e02235bp+0",
         "0x1.b6bc543cc7160p-7", "0x1.930c29e02235bp+1"),
    ],
}


@pytest.mark.parametrize("w", list(BIAS_PINS), ids=["w0", "w1"])
def test_bias_bound_pinned(w):
    instances, model, space = contextual_pack(30, seed=61)
    spec = PerturbationSpec(lam=1.0, mc_samples=256, master_seed=9)
    checks, _ = check_bias_bound(
        np.array(w), instances, ContextualWrapper(), BIAS_GRID, 1e-3, model, space, spec
    )
    got = []
    v_prev = -np.inf
    for lam, (unperturbed, smoothed, monotone) in zip(BIAS_GRID, zip(*[iter(checks)] * 3)):
        assert unperturbed.metadata["lambda"] == smoothed.metadata["lambda"] == lam
        v = unperturbed.metadata["V"]
        assert type(v) is float and smoothed.metadata["V"] == v
        assert (monotone.lhs, monotone.rhs) == (v_prev, v)
        v_prev = v
        got.append(tuple(
            f.hex() for f in (v, unperturbed.lhs, unperturbed.rhs, smoothed.lhs, smoothed.rhs)
        ))
    assert got == BIAS_PINS[w]


def test_bias_bound_scores_its_risks_in_one_call(monkeypatch):
    # lambda = 0, epsilon0 and the grid are rows of one batch: one pass
    # over the instances for all 2 + len(grid) risks
    instances, model, space = contextual_pack(5, seed=51)
    spec = PerturbationSpec(lam=1.0, mc_samples=16, master_seed=7)
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("lams"))
        return regularized_risk(*args, **kwargs)

    monkeypatch.setattr(theory, "regularized_risk", counted)
    check_bias_bound(
        np.array([0.2, -0.4]), instances, ContextualWrapper(), BIAS_GRID, 1e-3, model, space, spec
    )
    assert calls == [[0.0, 1e-3, *BIAS_GRID]]


def test_bias_bound_costs_each_instances_vertices_once_per_w(monkeypatch):
    # the lambda = 0 rows and the closed-form rows read one vertex-cost
    # table per pass: one eval_vertices call per instance
    instances, model, space = contextual_pack(12, seed=51)
    oracle = ContextualWrapper()
    spec = PerturbationSpec(lam=1.0, mc_samples=16, master_seed=7)
    osc = osc_bound(oracle, instances)
    calls = []
    real = ContextualWrapper.eval_vertices

    def counted(self, x, vertices):
        calls.append(x.index)
        return real(self, x, vertices)

    monkeypatch.setattr(ContextualWrapper, "eval_vertices", counted)
    for w in ([0.2, -0.4], [-0.9, 0.6]):
        calls.clear()
        checks, _ = check_bias_bound(
            np.array(w), instances, oracle, BIAS_GRID, 1e-3, model, space, spec, osc=osc
        )
        assert sorted(calls) == [x.index for x in instances]
        assert all(c.passed for c in checks)


def test_bias_bound_with_precomputed_tail_masses_is_the_same_check(monkeypatch):
    # v_grid, row i of one tail_mass_V call over a stack of w, gives the
    # check without it field by field, and no tail_mass_V call is made
    instances, model, space = contextual_pack(16, seed=57)
    oracle = ContextualWrapper()
    spec = PerturbationSpec(lam=1.0, mc_samples=32, master_seed=7)
    grid = [2.0, 0.02, 0.5, 0.1]  # check_bias_bound sorts it
    W = space.sample(substream(11, "w"), 3)
    V = theory.tail_mass_V(W, instances, model, space, sorted(grid))
    want = [check_bias_bound(w, instances, oracle, grid, 1e-3, model, space, spec) for w in W]

    def no_tail_mass(*args, **kwargs):
        raise AssertionError("check_bias_bound computed the tail masses it was given")

    monkeypatch.setattr(theory, "tail_mass_V", no_tail_mass)
    for w, v, (want_checks, want_fit) in zip(W, V, want):
        checks, fit = check_bias_bound(w, instances, oracle, grid, 1e-3, model, space, spec, v_grid=v)
        assert len(checks) == len(want_checks) == 3 * len(grid)
        for got, ref in zip(checks, want_checks):
            assert (got.name, got.metadata) == (ref.name, ref.metadata)
            assert [f.hex() for f in (got.lhs, got.rhs, got.se_lhs)] == [
                f.hex() for f in (ref.lhs, ref.rhs, ref.se_lhs)
            ]
        assert fit.fitted_slope.hex() == want_fit.fitted_slope.hex()
        assert np.isnan(fit.slope_ci).all() and np.isnan(want_fit.slope_ci).all()


def test_bias_bound_with_precomputed_risks_is_the_same_check(monkeypatch):
    # risks, block i of one regularized_risk call over a stack of w each
    # repeated at lambda = 0, epsilon0 and the sorted grid, gives the check
    # without it field by field, and no regularized_risk call is made
    instances, model, space = contextual_pack(16, seed=57)
    oracle = ContextualWrapper()
    spec = PerturbationSpec(lam=1.0, mc_samples=32, master_seed=7)
    grid = [2.0, 0.02, 0.5, 0.1]  # check_bias_bound sorts it
    lams = [0.0, 1e-3, *sorted(grid)]
    W = space.sample(substream(11, "w"), 3)
    R = regularized_risk(
        np.repeat(W, len(lams), axis=0), instances, oracle, model, space, spec, lams=lams * len(W)
    )
    want = [check_bias_bound(w, instances, oracle, grid, 1e-3, model, space, spec) for w in W]

    def no_risk(*args, **kwargs):
        raise AssertionError("check_bias_bound scored the risks it was given")

    monkeypatch.setattr(theory, "regularized_risk", no_risk)
    for i, (w, (want_checks, want_fit)) in enumerate(zip(W, want)):
        risks = R[i * len(lams):(i + 1) * len(lams)]
        checks, fit = check_bias_bound(w, instances, oracle, grid, 1e-3, model, space, spec, risks=risks)
        assert len(checks) == len(want_checks) == 3 * len(grid)
        for got, ref in zip(checks, want_checks):
            assert (got.name, got.metadata) == (ref.name, ref.metadata)
            assert [f.hex() for f in (got.lhs, got.rhs, got.se_lhs)] == [
                f.hex() for f in (ref.lhs, ref.rhs, ref.se_lhs)
            ]
        assert fit.fitted_slope.hex() == want_fit.fitted_slope.hex()


@pytest.mark.parametrize("pick", ["short", "long", "unsorted"])
def test_bias_bound_rejects_risks_at_other_lambdas(pick):
    instances, model, space = contextual_pack(5, seed=51)
    oracle = ContextualWrapper()
    spec = PerturbationSpec(lam=1.0, mc_samples=16, master_seed=7)
    lams = {
        "short": [0.0, 1e-3, *BIAS_GRID[:-1]],
        "long": [0.0, 1e-3, *BIAS_GRID, BIAS_GRID[-1]],
        "unsorted": [1e-3, 0.0, *BIAS_GRID],
    }[pick]
    risks = regularized_risk(
        np.zeros((len(lams), 2)), instances, oracle, model, space, spec, lams=lams
    )
    with pytest.raises(ValueError, match="risks"):
        check_bias_bound(np.zeros(2), instances, oracle, BIAS_GRID, 1e-3, model, space, spec, risks=risks)


def test_bias_bound_fit_is_the_one_row_scaling_fit():
    # one row of gaps: its median is the row, and one slope gives no interval
    instances, model, space = contextual_pack(16, seed=57)
    spec = PerturbationSpec(lam=1.0, mc_samples=32, master_seed=7)
    checks, fit = check_bias_bound(
        np.array([0.3, -0.5]), instances, ContextualWrapper(), BIAS_GRID, 1e-3, model, space, spec
    )
    gaps = [c.lhs for c in checks if c.name == "bias_vs_base_smoothed"]
    want = theory._scaling_fit(np.asarray(BIAS_GRID), np.asarray(gaps)[None, :])
    assert fit.fitted_slope.hex() == want.fitted_slope.hex()
    assert np.isnan(fit.slope_ci).all() and np.isnan(want.slope_ci).all()


@pytest.mark.parametrize("v_grid", [[0.1, 0.2, 0.3], [0.1] * 5, [[0.1, 0.2, 0.3, 0.4]]])
def test_bias_bound_rejects_a_v_grid_of_the_wrong_shape(v_grid):
    instances, model, space = contextual_pack(5, seed=51)
    spec = PerturbationSpec(lam=1.0, mc_samples=16, master_seed=7)
    with pytest.raises(ValueError, match="v_grid"):
        check_bias_bound(
            np.zeros(2), instances, ContextualWrapper(), BIAS_GRID, 1e-3, model, space, spec,
            v_grid=np.asarray(v_grid),
        )


def test_bias_rejects_grid_below_epsilon0():
    instances, model, space = contextual_pack(5, seed=51)
    spec = PerturbationSpec(lam=1.0, mc_samples=64, master_seed=7)
    with pytest.raises(ValueError):
        check_bias_bound(
            np.zeros(2), instances, ContextualWrapper(), [0.01], 0.1, model, space, spec
        )


def test_bias_bound_uses_the_callers_oracle():
    # stovsp with a 5x vehicle charge: the bound scales with this oracle's
    # oscillation, not with the default oracle's
    instances = generate_instances("stovsp", 6, seed=53, tasks=[4])
    model = model_for_instances(instances, d=3)
    space = ParamSpace.symmetric(3)
    oracle = StoVspDelayCost(c_vehicle=5.0)
    spec = PerturbationSpec(lam=1.0, mc_samples=32, master_seed=8)
    w = np.array([0.3, -0.2, 0.5])
    osc = osc_bound(oracle, instances)
    assert osc != osc_bound(StoVspDelayCost(), instances)
    checks, _ = check_bias_bound(w, instances, oracle, [0.1, 1.0], 0.0, model, space, spec)
    unperturbed = [c for c in checks if c.name == "bias_vs_unperturbed"]
    assert len(unperturbed) == 2
    for c in unperturbed:
        assert c.rhs == 2.0 * osc * c.metadata["V"]


# ---------------------------------------------------------------------------
# empirical process


def test_contextual_risk_matrix_closed_form():
    instances, _, space = contextual_pack(10, seed=53)
    w_grid = space.sample(substream(8, "wg"), 7)
    mat = contextual_risk_matrix(instances, w_grid, lam=0.5)
    for i, x in enumerate(instances):
        c0, c1 = x.features["costs"]
        for j, w in enumerate(w_grid):
            theta = float(x.features["context"] @ w)
            assert mat[i, j] == pytest.approx(c0 + (c1 - c0) * norm.cdf(theta / 0.5))


def test_contextual_risk_matrix_is_norm_cdf_formula_bitwise():
    instances, _, space = contextual_pack(25, seed=57)
    w_grid = np.vstack([space.sample(substream(9, "wg"), 11), np.zeros((1, 2))])
    contexts = np.array([x.features["context"] for x in instances])
    costs = np.array([x.features["costs"] for x in instances])
    for lam in (0.05, 0.5, 3.0):
        p1 = norm.cdf(contexts @ w_grid.T / lam)
        want = costs[:, [0]] + (costs[:, [1]] - costs[:, [0]]) * p1
        got = contextual_risk_matrix(instances, w_grid, lam)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("signal", [0.0, 1.0])
def test_contextual_risk_matrix_matches_the_risk_pipeline(signal):
    # two exact paths to the contextual risk: the closed form in _risk_terms
    # (one gemv per row, vertex costs dotted with p_lambda) and the gemm and
    # formula of contextual_risk_matrix; they agree to rounding
    instances = generate_instances("contextual", 40, seed=61, d_context=2, signal=signal)
    model = model_for_instances(instances, d=2)
    space = ParamSpace.symmetric(2)
    w_grid = np.vstack([np.zeros(2), space.sample(substream(10, "wg"), 31), [[1.0, -1.0]]])
    for lam in (1e-3, 0.05, 0.5, 3.0):
        spec = PerturbationSpec(lam=lam, mc_samples=4, master_seed=1)
        terms, variances, _ = _risk_terms(w_grid, instances, ContextualWrapper(), model, spec)
        assert variances is None and terms.shape == (len(instances), len(w_grid))
        gap = np.max(np.abs(terms - contextual_risk_matrix(instances, w_grid, lam)))
        assert gap <= 4.5e-16


def test_zero_variance_domain_has_zero_deviation():
    instances, _, space = contextual_pack(1, seed=59)
    repeated = instances * 64
    w_grid = space.sample(substream(9, "wg"), 16)
    emp = contextual_risk_matrix(repeated, w_grid, 0.5).mean(axis=0)
    ref = contextual_risk_matrix(instances, w_grid, 0.5).mean(axis=0)
    assert np.max(np.abs(emp - ref)) < 1e-14  # numerical noise only


def test_empirical_process_small_run():
    result = check_empirical_process(
        n_grid=[64, 256, 1024],
        lam=0.5,
        n_seeds=6,
        master_seed=11,
        space=ParamSpace.symmetric(2),
        w_grid_size=64,
        pool_size=20_000,
    )
    assert result.fraction_bounded == 1.0
    assert -0.9 <= result.fit.fitted_slope <= -0.2
    assert result.deviations.shape == (6, 3)


def test_empirical_process_rhs_scales():
    space = ParamSpace.symmetric(2)
    a = empirical_process_rhs(64, 0.5, 1.0, np.sqrt(2), 1, space, 0.1, 24.0)
    b = empirical_process_rhs(256, 0.5, 1.0, np.sqrt(2), 1, space, 0.1, 24.0)
    assert a / b == pytest.approx(2.0)  # 1/sqrt(n) scaling
    c = empirical_process_rhs(64, 0.25, 1.0, np.sqrt(2), 1, space, 0.1, 24.0)
    assert c / a == pytest.approx(2.0)  # 1/lambda scaling


def test_empirical_process_pool_size_guard():
    with pytest.raises(ValueError):
        check_empirical_process(
            n_grid=[4096], lam=0.5, n_seeds=1, master_seed=1,
            space=ParamSpace.symmetric(2), pool_size=10_000,
        )


# ---------------------------------------------------------------------------
# Lipschitz lemmas


def test_lipschitz_checks_hold():
    instances, model, space = contextual_pack(6, seed=61)
    checks = check_lipschitz_lemmas(
        instances, lam=0.5, trials=300, model=model, space=space, master_seed=12
    )
    assert {c.name for c in checks} == {
        "lipschitz_theta", "lipschitz_w", "lipschitz_halving", "lipschitz_halving_lower",
    }
    assert all(c.passed for c in checks)


def test_lipschitz_theta_slope_value_1d():
    # d = 1: max slope of Phi(theta/lam) is 1/(lam sqrt(2 pi)); summed over
    # both solutions it doubles, still below sqrt(d)/lam
    instances, model, space = contextual_pack(4, seed=67, d_context=1)
    lam = 0.7
    checks = check_lipschitz_lemmas(
        instances, lam=lam, trials=400, model=model, space=space, master_seed=13
    )
    theta_check = [c for c in checks if c.name == "lipschitz_theta"][0]
    expected_max = 2.0 * norm.pdf(0.0) / lam
    assert theta_check.lhs == pytest.approx(expected_max, rel=1e-3)
    assert theta_check.lhs <= np.sqrt(1.0) / lam


def test_lipschitz_perm2_included():
    from perturbopt.problems import Instance
    from perturbopt.polytopes import Permutahedron

    x = Instance(
        domain="scheduling", partition_id="jobs2", index=0,
        features={"release": np.zeros(2), "processing": np.array([0.5, 1.0])},
        polytope=Permutahedron(2), scenario_seed=0,
        declared={"r_max": 1.0, "p_min": 0.0, "p_max": 1.0},
    )
    from perturbopt.model import model_for_instances as mfi

    model = mfi([x], d=2)
    checks = check_lipschitz_lemmas(
        [x], lam=0.5, trials=200, model=model, space=ParamSpace.symmetric(2),
        master_seed=14,
    )
    assert all(c.passed for c in checks)


# ---------------------------------------------------------------------------
# Gaussian tail


def test_gauss_tail_examples():
    checks = check_gauss_tail([0.2], rho=0.774, d=3, q=0.5)
    c = checks[0]
    # rho / sqrt(3) = 0.4468 >= 0.2^0.5 = 0.4472? No: just below -> indicator 1
    assert c.passed
    strict = check_gauss_tail([0.2], rho=0.8, d=3, q=0.5)[0]
    assert strict.rhs == pytest.approx(np.exp(-1.0 / (10.0 * 0.2)), abs=1e-12)
    assert strict.lhs <= strict.rhs


def test_gauss_tail_boundary_rho():
    c = check_gauss_tail([0.5], rho=0.0, d=2, q=0.3)[0]
    assert c.lhs == 1.0  # V = 1 at rho = 0
    assert c.rhs >= 1.0
    assert c.passed


def test_gauss_tail_small_lambda_both_sides_vanish():
    c = check_gauss_tail([0.01], rho=0.5, d=1, q=0.5)[0]
    assert c.lhs < 1e-12
    assert c.rhs < 1e-4
    assert c.passed


def test_gauss_tail_rejects_bad_grid():
    with pytest.raises(ValueError):
        check_gauss_tail([1.5], rho=0.5, d=1, q=0.5)
    with pytest.raises(ValueError):
        check_gauss_tail([0.5], rho=0.5, d=1, q=1.5)

import dataclasses
import functools
import math
import os
import re
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from perturbopt import perturb
from perturbopt.model import GeneralizedLinearModel, ParamOutsideBox, ParamSpace, model_for_instances
from perturbopt.perturb import (
    PerturbationSpec,
    chi_tail,
    crn_risk_surface,
    exact_policy_distribution,
    perturbation_block,
    regularized_risk,
    sample_perturbation,
    tail_mass_V,
)
from perturbopt.polytopes import (
    EnumerationUnavailable,
    Permutahedron,
    VspFlow,
    internal_radius,
    internal_radius_batch,
    linear_oracle,
    p0,
)
from perturbopt.problems import (
    ContextualWrapper,
    default_cost_oracle,
    feature_matrix,
    generate_instances,
)
from perturbopt.rngs import spawn_seed, substream


def contextual_setup(n=1, seed=3, d_context=2, costs=None, context=None):
    instances = generate_instances("contextual", n, seed=seed, d_context=d_context)
    if costs is not None:
        instances[0].features["costs"][:] = costs
    if context is not None:
        instances[0].features["context"][:] = context
    model = model_for_instances(instances, d=d_context)
    space = ParamSpace.symmetric(d_context)
    return instances, model, space


# ---------------------------------------------------------------------------
# perturbation law


def test_spec_validation():
    for bad in ({"lam": -0.1}, {"lam": float("nan")}, {"lam": 1.0, "mc_samples": 0}):
        with pytest.raises(ValueError):
            PerturbationSpec(**bad)


def test_sample_perturbation_unit_variance_1d():
    rng = substream(0, "test")
    z = sample_perturbation(1, rng, size=100_000)
    assert abs(np.var(z) - 1.0) < 0.02


def test_sample_perturbation_norm_identity():
    # E |Z|^2 = 1 for every dimension since sqrt(d) Z is standard normal
    rng = substream(1, "test")
    z = sample_perturbation(4, rng, size=100_000)
    assert abs(np.mean(np.sum(z**2, axis=1)) - 1.0) < 0.02


def test_sample_perturbation_centered():
    rng = substream(2, "test")
    for d in (1, 3, 6):
        z = sample_perturbation(d, rng, size=50_000)
        se = 1.0 / np.sqrt(d * 50_000)
        assert np.all(np.abs(z.mean(axis=0)) < 3.5 * se)


def test_perturbation_block_is_crn():
    spec = PerturbationSpec(lam=0.5, mc_samples=64, master_seed=9)
    a = perturbation_block(spec, 3, 4)
    b = perturbation_block(spec, 3, 4)
    assert np.array_equal(a, b)
    c = perturbation_block(spec, 4, 4)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# p_lambda


def test_p_lambda_gaussian_cdf_closed_form():
    instances, _, _ = contextual_setup()
    x = instances[0]
    probs = exact_policy_distribution(x.polytope, np.array([[0.3]]), 1.0)[0]
    p = probs[x.polytope.vertices()[:, 0].tolist().index(1.0)]
    assert p == pytest.approx(norm.cdf(0.3))
    assert p == pytest.approx(0.61791, abs=1e-5)


def test_p_lambda_normalization_and_symmetry():
    instances, _, _ = contextual_setup()
    x = instances[0]
    for lam in (0.3, 1.0, 2.5):
        probs = exact_policy_distribution(x.polytope, np.array([[0.4], [-2.0]]), lam)
        assert probs.shape == (2, 2)
        assert probs.sum(axis=1) == pytest.approx(1.0, abs=1e-12)
    probs0 = exact_policy_distribution(x.polytope, np.array([[0.0]]), 1.0)
    assert probs0.tolist() == [[0.5, 0.5]]


def test_p_lambda_permutahedron2_closed_form():
    from perturbopt.polytopes import Permutahedron

    perm2 = Permutahedron(2)
    theta = np.array([0.9, 0.2])
    for lam in (0.5, 1.0):
        probs = exact_policy_distribution(perm2, theta[None], lam)[0]
        verts = perm2.vertices()
        expected_21 = norm.cdf((theta[0] - theta[1]) / lam)
        for v, p in zip(verts, probs):
            want = expected_21 if v[0] == 2.0 else 1.0 - expected_21
            assert p == pytest.approx(want)


def test_p_lambda_monte_carlo_agrees_with_exact():
    from perturbopt.polytopes import Permutahedron
    from perturbopt.perturb import sampled_policy_distribution

    perm2 = Permutahedron(2)
    theta = np.array([0.4, -0.1])
    probs, ses = sampled_policy_distribution(
        perm2, theta, 0.8, 20_000, substream(5, "mc")
    )
    exact = exact_policy_distribution(perm2, theta[None], 0.8)[0]
    assert np.all(np.abs(probs - exact) <= 3.0 * ses + 1e-9)


def test_exact_policy_distribution_is_ndtr_bitwise():
    # row b of a batch is [1 - p, p] with p the single _ndtr call at
    # t[b] / lam, and p is norm.cdf's value to 1e-12 relative
    one_d = VspFlow(2, [(0, 1)])
    perm2 = Permutahedron(2)
    rng = substream(6, "ndtr")
    ts = [0.0, -0.0, 1e-300, -3.7, 0.3, 40.0, np.inf, -np.inf]
    ts += list(rng.standard_normal(40) * 3.0)

    def phi(a):
        p = float(perturb._ndtr(np.array([a]))[0])
        assert p == pytest.approx(norm.cdf(a), rel=1e-12, abs=1e-300)
        return p

    for lam in (1e-3, 0.37, 1.0, 5.0):
        probs = exact_policy_distribution(one_d, np.array(ts)[:, None], lam)
        assert probs.shape == (len(ts), 2)
        thetas = np.column_stack([ts, np.full(len(ts), 0.25)])
        perm_probs = exact_policy_distribution(perm2, thetas, lam)
        assert perm_probs.shape == (len(ts), 2)
        for t, row, theta, perm_row in zip(ts, probs, thetas, perm_probs):
            p_hi = phi(t / lam)
            assert row.tolist() == [1.0 - p_hi, p_hi]
            p_21 = phi((theta[0] - theta[1]) / lam)
            want = [p_21 if v[0] == 2.0 else 1.0 - p_21 for v in perm2.vertices()]
            assert perm_row.tolist() == want


def _ndtr_edges():
    # +-0, subnormals, +-inf, NaN, both sides of cephes's branch edges
    # |a| = 1, sqrt(2) and 8 sqrt(2) (|x| = sqrt(1/2), 1 and 8 for
    # x = a / sqrt(2)) and of its underflow edge sqrt(2 ln DBL_MAX) = 37.68
    points = [0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e-300, np.inf, np.nan, 1.0,
              np.sqrt(2.0), 8.0 * np.sqrt(2.0), 37.67712072049519, 1e308]
    out = []
    for p in points:
        for a in (p, -p):
            out.append(a)
            for toward in (np.inf, -np.inf):
                b = a
                for _ in range(4):
                    b = np.nextafter(b, toward)
                    out.append(b)
    return np.array(out + list(np.linspace(37.6, 37.8, 401)) + list(np.linspace(-37.8, -37.6, 401)))


def _assert_close_to_scipy_ndtr(a):
    """_ndtr(a) against scipy.special.ndtr: NaN where it is NaN, rtol 1e-12
    where it is 1e-300 or more, and atol 1e-300 below, where libm's erfc
    goes on into the subnormals that cephes's ndtr cuts to 0.  A batch
    gives each element the bits of a single call."""
    from scipy.special import ndtr

    got, want = perturb._ndtr(a), ndtr(a)
    assert got.dtype == np.float64 and got.shape == a.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    big = want >= 1e-300
    np.testing.assert_allclose(got[big], want[big], rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(got[~nan & ~big], want[~nan & ~big], rtol=0.0, atol=1e-300)
    singles = np.array([perturb._ndtr(a[i : i + 1])[0] for i in range(a.size)])
    assert np.array_equal(singles.view(np.uint64), got.view(np.uint64))


def _assert_symmetric_and_monotone(a):
    """Phi(a) + Phi(-a) is within 4 ulp of 1, and Phi does not decrease
    over the sorted non-NaN values of a."""
    a = np.sort(a[~np.isnan(a)])
    got = perturb._ndtr(a)
    assert np.all(np.abs(got + perturb._ndtr(-a) - 1.0) <= 4.0 * np.spacing(1.0))
    assert np.all(np.diff(got) >= 0.0)


def test_ndtr_is_scipy_ndtr_to_1e_12_at_the_edges():
    edges = _ndtr_edges()
    _assert_close_to_scipy_ndtr(edges)
    _assert_close_to_scipy_ndtr(edges[:0])
    _assert_symmetric_and_monotone(np.concatenate([edges, np.linspace(-40.0, 40.0, 80_001)]))
    # exact at +-0, +-inf and NaN, and past +-38: libm's erfc rounds to 2
    # from a = 8.3 and reaches 0 at a = -38.48
    exact = np.array([0.0, -0.0, np.inf, -np.inf, 38.0, 40.0, 1e308, -38.5, -40.0, -1e308])
    assert perturb._ndtr(exact).tolist() == [0.5, 0.5, 1.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0]
    assert np.isnan(perturb._ndtr(np.array([np.nan]))[0])


@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), max_size=64))
@settings(max_examples=300, deadline=None)
def test_ndtr_is_scipy_ndtr_to_1e_12(values):
    a = np.array(values, dtype=np.float64)
    # and on a wide spread of scales, from the core to both tails
    scaled = np.concatenate([a * 1e-3, a / 40.0, a[np.abs(a) < 1e300] * 1e-300])
    for b in (a, scaled):
        _assert_close_to_scipy_ndtr(b)
        _assert_symmetric_and_monotone(b)


@pytest.mark.parametrize("polytope", [Permutahedron(1), Permutahedron(3), VspFlow(3, [(0, 1), (1, 2)])])
def test_no_closed_form_is_decided_without_enumerating(polytope):
    assert exact_policy_distribution(polytope, np.zeros((2, polytope.dim)), 0.5) is None
    assert not hasattr(polytope, "_vertices_cache") and not hasattr(polytope, "_past_cap")


# ---------------------------------------------------------------------------
# regularized risk


def test_risk_closed_form_example(monkeypatch):
    # f(0) = 5, f(1) = 2, theta = 0.3, lam = 1 -> 5 - 3 Phi(0.3)
    instances, model, space = contextual_setup(costs=[5.0, 2.0], context=[0.3, 0.0])
    # widen the cost box: this hand example leaves [0, 1]
    oracle = ContextualWrapper()
    spec = PerturbationSpec(lam=1.0, mc_samples=8192, master_seed=1)
    w = np.array([1.0, 0.0])
    report = regularized_risk(w, instances, oracle, model, space, spec)
    assert report.value == pytest.approx(5.0 - 3.0 * norm.cdf(0.3), abs=1e-12)
    assert report.mc_std_error == 0.0
    assert report.mode == "exactenum"
    # without its closed form the instance takes the CRN Monte Carlo estimate
    monkeypatch.setattr(perturb, "exact_policy_distribution", lambda *args: None)
    mc = regularized_risk(w, instances, oracle, model, space, spec)
    assert mc.mode == "montecarlo" and mc.mc_std_error > 0.0
    assert abs(mc.value - report.value) <= 4.0 * mc.mc_std_error + 1e-9


def test_risk_small_lambda_limit():
    instances, model, space = contextual_setup(costs=[5.0, 2.0], context=[0.3, 0.0])
    oracle = ContextualWrapper()
    spec = PerturbationSpec(lam=1e-6, mc_samples=512, master_seed=1)
    w = np.array([1.0, 0.0])
    report = regularized_risk(w, instances, oracle, model, space, spec)
    assert report.value == pytest.approx(2.0, abs=1e-9)  # interior cone: f(y_hat)


def test_risk_constant_cost_exact():
    instances, model, space = contextual_setup(costs=[0.4, 0.4])
    oracle = ContextualWrapper()
    for lam in (0.0, 0.1, 1.0):
        for w in (np.zeros(2), np.array([0.3, -0.9])):
            spec = PerturbationSpec(lam=lam, mc_samples=128, master_seed=2)
            rep = regularized_risk(w, instances, oracle, model, space, spec)
            assert rep.value == pytest.approx(0.4, abs=1e-12)


def test_risk_zero_lambda_tie_uses_p0_measure():
    instances, model, space = contextual_setup(costs=[1.0, 0.0])
    oracle = ContextualWrapper()
    spec = PerturbationSpec(lam=0.0, mc_samples=128, master_seed=3)
    report = regularized_risk(np.zeros(2), instances, oracle, model, space, spec)
    assert report.ties_encountered
    assert report.value == pytest.approx(0.5, abs=1e-12)


def test_zero_lambda_tie_without_closed_form_uses_labeled_substream():
    # theta = 0 ties every vertex of a 5-task VspFlow, a tie no symmetry
    # splits: p0 estimates it from Gaussian draws from the instance's
    # "p0/<index>" substream
    instances = generate_instances("stovsp", 4, seed=5, tasks=[5])
    model = model_for_instances(instances, d=2)
    space = ParamSpace.symmetric(2)
    oracle = default_cost_oracle("stovsp")
    w = np.zeros(2)

    def risk(seed):
        spec = PerturbationSpec(lam=0.0, master_seed=seed)
        return regularized_risk(w, instances, oracle, model, space, spec)

    first, again, other = risk(1), risk(1), risk(2)
    assert first.ties_encountered
    assert first.value.hex() == again.value.hex()
    assert first.value != other.value
    values = []
    for x in instances:
        theta = model.predict(w, x, space=space)
        measure = p0(x.polytope, theta, rng=substream(1, f"p0/{x.index}"))
        assert len(measure.atoms) > 2
        costs = (float(oracle.eval_vertices(x, v[None])[0]) for v, _ in measure.atoms)
        values.append(float(sum(p * c for (_, p), c in zip(measure.atoms, costs))))
    assert first.value.hex() == float(np.mean(values)).hex()


@pytest.mark.parametrize("domain, params", [("scheduling", {"jobs": [4]}), ("stovsp", {"tasks": [5]})])
def test_zero_lambda_tie_solves_the_oracle_once(monkeypatch, domain, params):
    # w = 0 ties every vertex: an enumerable polytope, permutahedron or
    # VspFlow, finds and splits the tie from its vertex table without
    # solving its oracle
    instances = generate_instances(domain, 3, seed=5, **params)
    model = model_for_instances(instances, d=2)
    kind = type(instances[0].polytope)
    calls = []
    real = kind.argmax

    def counting(self, theta):
        calls.append(1)
        return real(self, theta)

    monkeypatch.setattr(kind, "argmax", counting)
    spec = PerturbationSpec(lam=0.0, master_seed=1)
    W = np.zeros((2, 2))
    reports = regularized_risk(
        W, instances, default_cost_oracle(domain), model, ParamSpace.symmetric(2), spec
    )
    assert all(r.ties_encountered for r in reports)
    assert calls == []


def _unperturbed_cases():
    stovsp = generate_instances("stovsp", 12, seed=5, tasks=[5])
    ctx = generate_instances("contextual", 12, seed=5, d_context=2)
    ctx[2].features["context"][:] = 0.0  # theta = 0 at every w: a tie row
    cases = [("stovsp", stovsp, 3), ("contextual", ctx, 2)]
    for jobs in (4, 5, 2):
        sched = generate_instances("scheduling", 6, seed=5, jobs=[jobs])
        for feature in sched[2].features.values():
            feature[1] = feature[0]  # theta_0 = theta_1 at every w: a tie row
        cases.append(("scheduling", sched, 2))
    return cases


@pytest.mark.parametrize(
    "name, instances, d", _unperturbed_cases(), ids=["stovsp", "contextual", "jobs4", "jobs5", "jobs2"]
)
def test_zero_lambda_vertex_table_equals_per_row_oracle_bitwise(monkeypatch, name, instances, d):
    # each lam = 0 term of a cell-wide scan, and of a risk pass whose other
    # rows are closed-form or Monte Carlo, is the per-row oracle's
    model = model_for_instances(instances, d=d)
    oracle = default_cost_oracle(name)
    W = np.random.default_rng(8).uniform(-1.0, 1.0, (40, d))
    W[0] = 0.0  # a zero feature map ties every vertex
    W[1, 1:] = 0.0
    want_values, want_ties = [], []
    for x in instances:
        thetas = np.matmul(model.feature_matrix(x), W[:, :, None])[:, :, 0]  # one gemv per row
        terms = [perturb._policy_cost_unperturbed(oracle, x, t, 9) for t in thetas]
        want_values.append([v for v, _ in terms])
        want_ties.append([t for _, t in terms])
    want_values, want_ties = np.array(want_values), np.array(want_ties)

    def no_oracle(*args, **kwargs):
        raise AssertionError("the vertex-table path solved an oracle")

    monkeypatch.setattr(VspFlow, "argmax", no_oracle)
    monkeypatch.setattr(Permutahedron, "argmax", no_oracle)
    for rows, cell, thetas in perturb._polytope_cells(instances, model, W):
        values, ties = perturb._unperturbed_terms(oracle, cell, thetas, 9)
        assert values.tobytes() == want_values[rows].tobytes()
        assert np.array_equal(ties, want_ties[rows])
    lams = np.where(np.arange(len(W)) % 3 == 0, 0.2, 0.0)  # closed-form or Monte Carlo rows too
    spec = PerturbationSpec(lam=0.0, mc_samples=4, master_seed=9)
    for row_lams in (None, lams):
        terms, _, ties = perturb._risk_terms(W, instances, oracle, model, spec, row_lams)
        zero = slice(None) if row_lams is None else row_lams == 0.0
        assert terms[:, zero].tobytes() == want_values[:, zero].tobytes()
        assert np.array_equal(ties[:, zero], want_ties[:, zero])
    assert want_ties[:, 0].all() and not want_ties.all()
    if name != "stovsp":
        assert want_ties[2].all()


def test_zero_lambda_past_the_cap_solves_the_oracle_per_row():
    # Permutahedron(8) has 8! vertices, past ENUMERATION_CAP: each lam = 0 row
    # costs its linear_oracle solution, and a tie, whose split needs the
    # vertex table, raises
    instances = generate_instances("scheduling", 3, seed=1, jobs=[8])
    model = model_for_instances(instances, d=2)
    oracle = default_cost_oracle("scheduling")
    W = np.random.default_rng(4).uniform(-1.0, 1.0, (5, 2))
    [(rows, cell, thetas)] = perturb._polytope_cells(instances, model, W)
    values, ties = perturb._unperturbed_terms(oracle, cell, thetas, 9)
    want = [
        [oracle.eval_vertices(x, linear_oracle(x.polytope, t).y[None])[0] for t in th]
        for x, th in zip(cell, thetas)
    ]
    assert values.tobytes() == np.array(want).tobytes()
    assert values.shape == ties.shape == (3, 5) and not ties.any()
    with pytest.raises(EnumerationUnavailable):
        perturb._unperturbed_terms(oracle, cell[:1], np.zeros((1, 1, 8)), 9)
    spec = PerturbationSpec(lam=0.0, master_seed=1)
    with pytest.raises(EnumerationUnavailable):
        regularized_risk(np.zeros(2), instances, oracle, model, ParamSpace.symmetric(2), spec)


@pytest.mark.parametrize("lams", [None, [0.0, 0.3, 0.0, 0.05]])
@pytest.mark.parametrize(
    "domain, params, n_cells",
    [
        ("contextual", {"d_context": 2}, 1),
        ("scheduling", {"jobs": [2, 3, 4]}, 3),
        ("stovsp", {"tasks": [5]}, 2),
    ],
)
def test_a_risk_pass_scans_each_cells_zero_lambda_rows_once(domain, params, n_cells, lams):
    instances = generate_instances(domain, 15, seed=3, **params)
    assert len({id(x.polytope) for x in instances}) == n_cells
    model = model_for_instances(instances, d=2)
    W = np.random.default_rng(2).uniform(-1.0, 1.0, (4, 2))
    spec = PerturbationSpec(lam=0.0, mc_samples=8, master_seed=4)
    lams = None if lams is None else np.array(lams)
    with mock.patch.object(perturb, "_vertex_argmax", wraps=perturb._vertex_argmax) as scan:
        perturb._risk_terms(W, instances, default_cost_oracle(domain), model, spec, lams)
    assert scan.call_count == n_cells


def _tie_first_two_coordinates(x):
    phi = feature_matrix(x, d_model=2)
    phi[0] = phi[1]  # theta_0 = theta_1 at every w
    return phi


@pytest.mark.parametrize("jobs, want", [(3, "0x1.885e9dc56e2fcp+2"), (2, "0x1.68a6d9ec73597p+1")])
def test_zero_lambda_tie_is_split_in_exact_halves_through_the_risk(jobs, want):
    # two tied orders: p0 splits the cost half and half, whatever the seed
    instances = generate_instances("scheduling", 6, seed=4, jobs=[jobs])
    model = model_for_instances(instances, d=2, builder=_tie_first_two_coordinates)
    oracle = default_cost_oracle("scheduling")
    for seed in (0, 1):
        spec = PerturbationSpec(lam=0.0, master_seed=seed)
        report = regularized_risk(
            np.array([0.2, 0.7]), instances, oracle, model, ParamSpace.symmetric(2), spec
        )
        assert report.ties_encountered
        assert report.value.hex() == want


def test_risk_errors():
    instances, model, space = contextual_setup()
    oracle = ContextualWrapper()
    spec = PerturbationSpec(lam=0.5)
    with pytest.raises(ValueError, match="empty instance list"):
        regularized_risk(np.zeros(2), [], oracle, model, space, spec)
    with pytest.raises(ValueError, match="empty instance list"):
        crn_risk_surface([], oracle, model, space, spec)


def test_risk_within_cost_bounds():
    instances = generate_instances("contextual", 30, seed=11, d_context=2)
    model = model_for_instances(instances, d=2)
    space = ParamSpace.symmetric(2)
    oracle = default_cost_oracle("contextual")
    rng = substream(4, "w")
    for lam in (0.05, 0.5, 2.0):
        spec = PerturbationSpec(lam=lam, mc_samples=256, master_seed=5)
        w = space.sample(rng, 1)[0]
        rep = regularized_risk(w, instances, oracle, model, space, spec)
        assert 0.0 <= rep.value <= 1.0


def test_crn_reproducibility_bitwise():
    instances = generate_instances("scheduling", 8, seed=13, jobs=[4])
    model = model_for_instances(instances, d=2)
    space = ParamSpace.symmetric(2)
    oracle = default_cost_oracle("scheduling")
    spec = PerturbationSpec(lam=0.2, mc_samples=256, master_seed=21)
    surface = crn_risk_surface(instances, oracle, model, space, spec)
    w = np.array([0.3, -0.7])
    v1, v2 = surface(w), surface(w)
    assert v1 == v2
    rep1 = regularized_risk(w, instances, oracle, model, space, spec)
    rep2 = regularized_risk(w, instances, oracle, model, space, spec)
    assert rep1.value == rep2.value
    assert rep1.value == pytest.approx(v1, abs=1e-12)


def test_past_the_cap_the_risk_is_the_crn_estimate_without_enumerating():
    # Permutahedron(8) has 8! vertices, past ENUMERATION_CAP: no closed form,
    # decided from the kind alone, so the risk never reads the vertex table
    instances = generate_instances("scheduling", 3, seed=1, jobs=[8])
    model = model_for_instances(instances, d=2)
    spec = PerturbationSpec(lam=0.1, mc_samples=16, master_seed=1)
    report = regularized_risk(
        np.array([0.3, -0.2]), instances, default_cost_oracle("scheduling"), model,
        ParamSpace.symmetric(2), spec,
    )
    assert report.value == 23.283741625108508
    assert report.mode == "montecarlo"
    polytope = instances[0].polytope
    assert not hasattr(polytope, "_vertices_cache") and not hasattr(polytope, "_past_cap")


# The CRN surface of the benchmark's sched, vsp and ctx train configs (data
# seed 7) on a fixed w grid, as float.hex.  A change to the oracle, cost or risk
# code that moves any bit of these values changes every trained artifact.
SURFACE_GRID = [
    [0.0, 0.0, 0.0],
    [0.5, -0.25, 0.75],
    [-1.0, 1.0, 0.5],
    [0.3, 0.3, -0.9],
    [-0.6, -0.2, 0.1],
]
SURFACE_PINS = {
    ("scheduling", 48, (("jobs", (5,)),), 2, 512): [
        "0x1.6e64c2c83ab18p+3",
        "0x1.8fbff6fbd4b2bp+3",
        "0x1.598e6065eed3cp+3",
        "0x1.aaed53fdccbabp+3",
        "0x1.2e0c8d42072dfp+3",
    ],
    ("stovsp", 8, (("tasks", (5,)),), 3, 32): [
        "0x1.73ffcf3ec54c8p+2",
        "0x1.36957d8d03233p+2",
        "0x1.50a0103ff2b38p+2",
        "0x1.bcfcd58c31fabp+2",
        "0x1.cdc7a0ff038e9p+2",
    ],
    # the closed form on every instance: contextual_risk_matrix's mean to 1 ulp
    ("contextual", 256, (("d_context", 2), ("signal", 1.0)), 2, 256): [
        "0x1.f3f0c43ab2df5p-2",
        "0x1.12ffee7e156bep-2",
        "0x1.51c7d5ff7c6e7p-1",
        "0x1.5095b8b6e498dp-2",
        "0x1.72e7af5db64ecp-1",
    ],
}


@pytest.mark.parametrize("case", list(SURFACE_PINS), ids=["sched", "vsp", "ctx"])
def test_crn_surface_pinned_on_w_grid(case):
    domain, n_train, params, d, samples = case
    train = generate_instances(domain, n_train, spawn_seed(7, "dataset/train"), **dict(params))
    model = model_for_instances(train, d=d)
    space = ParamSpace.symmetric(d)
    spec = PerturbationSpec(lam=0.1, mc_samples=samples, master_seed=7)
    surface = crn_risk_surface(train, default_cost_oracle(domain), model, space, spec)
    got = [surface(np.array(w[:d])).hex() for w in SURFACE_GRID]
    assert got == SURFACE_PINS[case]
    batch = surface.values(np.array(SURFACE_GRID)[:, :d])
    assert [float(v).hex() for v in batch] == SURFACE_PINS[case]


# regularized_risk (value, mc_std_error) on the benchmark's test sets (data
# seed 7) at two points of SURFACE_GRID, as float.hex; the values are the
# surface's left-to-right fold over the test instances.
RISK_PINS = {
    ("scheduling", 256, (("jobs", (5,)),), 2, 512): [
        ("0x1.8dded185e57f0p+3", "0x1.4f0e7c2f0ff6ap-10"),
        ("0x1.589832a519ecap+3", "0x1.fadefdd40e1eep-11"),
    ],
    ("stovsp", 16, (("tasks", (5,)),), 3, 32): [
        ("0x1.12662bf4fd5e8p+2", "0x1.0969a2846c9dep-8"),
        ("0x1.347f2b48a00ffp+2", "0x1.698d9a4b5f44fp-7"),
    ],
    ("contextual", 1024, (("d_context", 2), ("signal", 1.0)), 2, 256): [
        ("0x1.24bc8dc6a6cc2p-2", "0x0.0p+0"),
        ("0x1.4f92c1638de61p-1", "0x0.0p+0"),
    ],
}


# The same at four points of SURFACE_GRID in one pass, row m at its own
# lambda PER_ROW_LAMS[m]: the pass whose rows share no lambda.
PER_ROW_LAMS = [0.05, 0.1, 0.3, 1.0]
PER_ROW_LAM_PINS = {
    ("scheduling", 256, (("jobs", (5,)),), 2, 512): [
        ("0x1.8e960874649f5p+3", "0x1.b82ab6118ab5bp-11"),
        ("0x1.589832a519ecap+3", "0x1.fadefdd40e1eep-11"),
        ("0x1.976ddc53d7c3fp+3", "0x1.6923f57279d8dp-9"),
        ("0x1.55859e81cc226p+3", "0x1.c5c760e1ab8e9p-9"),
    ],
    ("stovsp", 16, (("tasks", (5,)),), 3, 32): [
        ("0x1.12f04a37d7298p+2", "0x1.3e320d564a6e8p-9"),
        ("0x1.347f2b48a00ffp+2", "0x1.698d9a4b5f44fp-7"),
        ("0x1.ab213848da71ap+2", "0x1.27019e4ede427p-6"),
        ("0x1.aa8af5edab8ebp+2", "0x1.80896f27e03cdp-6"),
    ],
}


def pinned_test_set(case):
    """(test instances, oracle, model, space, spec) of a pinned case."""
    domain, n_test, params, d, samples = case
    test = generate_instances(domain, n_test, spawn_seed(7, "dataset/test"), **dict(params))
    spec = PerturbationSpec(lam=0.1, mc_samples=samples, master_seed=7)
    return test, default_cost_oracle(domain), model_for_instances(test, d=d), ParamSpace.symmetric(d), spec


@pytest.mark.parametrize("case", list(RISK_PINS), ids=["sched", "vsp", "ctx"])
def test_regularized_risk_pinned_on_test_sets(case):
    test, oracle, model, space, spec = pinned_test_set(case)
    got = []
    for w in SURFACE_GRID[1:3]:
        rep = regularized_risk(np.array(w[: model.d]), test, oracle, model, space, spec)
        got.append((rep.value.hex(), rep.mc_std_error.hex()))
    assert got == RISK_PINS[case]


@pytest.mark.parametrize("case", list(PER_ROW_LAM_PINS), ids=["sched", "vsp"])
def test_regularized_risk_pinned_at_per_row_lambdas(case):
    test, oracle, model, space, spec = pinned_test_set(case)
    W = np.array(SURFACE_GRID[1:5])[:, : model.d]
    reports = regularized_risk(W, test, oracle, model, space, spec, lams=PER_ROW_LAMS)
    assert [(r.value.hex(), r.mc_std_error.hex()) for r in reports] == PER_ROW_LAM_PINS[case]


# ---------------------------------------------------------------------------
# batched risk: regularized_risk(W) for W of shape (M, d)

BATCH_DOMAINS = {
    "ctx": ("contextual", {"d_context": 2}, 2),
    "sched": ("scheduling", {"jobs": [4]}, 2),
    "vsp": ("stovsp", {"tasks": [5]}, 3),
}


@functools.cache
def batch_setup(name, n=4):
    domain, params, d = BATCH_DOMAINS[name]
    instances = generate_instances(domain, n, seed=23, **params)
    model = model_for_instances(instances, d=d)
    return instances, model, ParamSpace.symmetric(d), default_cost_oracle(domain)


def report_bits(rep):
    return rep.value.hex(), rep.mc_std_error.hex(), rep.ties_encountered


@st.composite
def batches(draw):
    name = draw(st.sampled_from(sorted(BATCH_DOMAINS)))
    d = BATCH_DOMAINS[name][2]
    m = draw(st.integers(1, 5))
    row = st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)
    rows = draw(st.lists(row, min_size=m, max_size=m))
    if draw(st.booleans()):  # theta = 0 ties every vertex at lam = 0
        rows[draw(st.integers(0, m - 1))] = [0.0] * d
    return name, np.array(rows)


@given(
    batch=batches(),
    lam=st.sampled_from([0.0, 0.3]),
    # one lambda per row: lam = 0, a tiny and larger smoothing (the closed
    # form on ctx, Monte Carlo on sched and vsp)
    row_lams=st.none() | st.lists(st.sampled_from([0.0, 1e-3, 0.3, 1.0]), min_size=5, max_size=5),
)
@settings(max_examples=80, deadline=None)
def test_batch_reports_equal_single_calls_bitwise(batch, lam, row_lams):
    name, W = batch
    instances, model, space, oracle = batch_setup(name)
    spec = PerturbationSpec(lam=lam, mc_samples=16, master_seed=4)
    lams = None
    if row_lams is not None:
        lams = row_lams[: len(W)]
        for m in np.flatnonzero(~W.any(axis=1)):  # the theta = 0 tie row at lam = 0
            lams[m] = 0.0
    reports = regularized_risk(W, instances, oracle, model, space, spec, lams=lams)
    assert len(reports) == len(W)
    for m, (w, rep) in enumerate(zip(W, reports)):
        row_spec = spec if lams is None else dataclasses.replace(spec, lam=lams[m])
        single = regularized_risk(w, instances, oracle, model, space, row_spec)
        assert report_bits(rep) == report_bits(single)
        assert (rep.mode, rep.lam) == (single.mode, single.lam)
        assert rep.to_doc() == single.to_doc()


def test_row_lambdas_need_one_nonnegative_value_per_row():
    instances, model, space, oracle = batch_setup("ctx")
    spec = PerturbationSpec(lam=0.3, mc_samples=4, master_seed=4)
    W = np.zeros((2, 2))
    for lams in ([0.1], [0.1, -0.1], [0.1, float("nan")]):
        with pytest.raises(ValueError, match="one lambda >= 0 per row"):
            regularized_risk(W, instances, oracle, model, space, spec, lams=lams)


def _scaled_fortran_features(x):
    # a builder feature map, column-major, so each gemv reads strided rows
    return np.asfortranarray(1.5 * feature_matrix(x, d_model=2) - 0.25)


@given(
    name=st.sampled_from([*sorted(BATCH_DOMAINS), "builder"]),
    W=st.integers(1, 9).flatmap(
        lambda m: st.lists(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3), min_size=m, max_size=m)
    ),
)
@settings(max_examples=40, deadline=None)
def test_stacked_thetas_are_model_predict_bitwise(name, W):
    # every row's theta in _risk_terms, as its cell's closed-form decision
    # sees it: one call per cell, instance-major, n_c * M rows
    instances, model, space, oracle = batch_setup("sched" if name == "builder" else name)
    if name == "builder":
        model = model_for_instances(instances, d=2, builder=_scaled_fortran_features)
    W = np.array(W)[:, : model.d]
    seen = []

    def record(polytope, thetas, lam):
        seen.append((polytope, thetas.copy()))
        return None  # then the Monte Carlo path runs on the same thetas

    spec = PerturbationSpec(lam=0.3, mc_samples=2, master_seed=4)
    with mock.patch.object(perturb, "exact_policy_distribution", record):
        regularized_risk(W, instances, oracle, model, space, spec)
    cells = {id(x.polytope): x.polytope for x in instances}
    assert [id(polytope) for polytope, _ in seen] == list(cells)
    for polytope, thetas in seen:
        cell = [x for x in instances if x.polytope is polytope]
        assert thetas.shape == (len(cell) * len(W), polytope.dim)
        want = [model.predict(w, x, space=space) for x in cell for w in W]
        assert [t.tobytes() for t in thetas] == [t.tobytes() for t in want]


@given(
    n_verts=st.sampled_from([1, 2, 3, 6, 24]),
    m=st.integers(1, 64),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_vecdot_is_the_per_row_dot_bitwise(n_verts, m, seed):
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(n_verts), size=m)
    costs = rng.uniform(-3.0, 40.0, n_verts)
    got = np.vecdot(probs, costs)
    assert got.shape == (m,) and got.dtype == np.float64
    assert [float(v).hex() for v in got] == [float(p @ costs).hex() for p in probs]


@pytest.mark.parametrize(
    "costs",
    [
        np.random.default_rng(3).uniform(-3.0, 40.0, (7, 512)),  # random rows
        np.random.default_rng(4).standard_normal((5, 33)) * 1e3 + 1e6,
        np.full((4, 64), 17.3),  # constant rows
        np.random.default_rng(5).uniform(0.0, 9.0, (6, 2)),  # K = 2
        np.array([[0.1, 0.1], [1e-300, -1e-300], [3.0, 3.0 + 2**-51]]),
    ],
)
def test_fused_mean_and_variance_are_np_mean_and_var_bitwise(costs):
    mean, var = perturb._mean_var(costs)
    assert [v.hex() for v in mean.tolist()] == [v.hex() for v in np.mean(costs, axis=1).tolist()]
    assert [v.hex() for v in var.tolist()] == [v.hex() for v in np.var(costs, axis=1, ddof=1).tolist()]


def test_fused_mean_of_one_sample_has_no_variance():
    costs = np.array([[2.5], [-1.0]])
    mean, var = perturb._mean_var(costs)
    assert var is None and mean.tolist() == [2.5, -1.0]


@pytest.mark.parametrize("name", ["ctx", "perm2"])
def test_exact_terms_are_each_rows_law_dotted_with_the_vertex_costs(name):
    if name == "ctx":
        instances, model, space, oracle = batch_setup("ctx")
    else:  # scheduling with two jobs: Permutahedron(2)
        instances = generate_instances("scheduling", 5, seed=29, jobs=[2])
        model = model_for_instances(instances, d=2)
        space, oracle = ParamSpace.symmetric(2), default_cost_oracle("scheduling")
    W = np.vstack([np.zeros(2), space.sample(substream(3, "exact-w"), 16)])
    spec = PerturbationSpec(lam=0.2, mc_samples=16, master_seed=4)
    terms, variances, ties = perturb._risk_terms(W, instances, oracle, model, spec)
    assert terms.shape == (len(instances), len(W))
    assert variances is None and not ties.any()
    for x, values in zip(instances, terms):
        vertex_costs = oracle.eval_vertices(x, x.polytope.vertices())
        for w, v in zip(W, values):
            p = exact_policy_distribution(x.polytope, model.predict(w, x)[None], spec.lam)[0]
            assert v.hex() == float(p @ vertex_costs).hex()


@pytest.mark.parametrize("lams", [None, [0.2, 0.0, 1e-3]])
def test_a_risk_pass_makes_one_ndtr_call_over_contextual_instances(lams):
    instances, model, space = contextual_setup(n=12)
    W = np.array([[0.3, -0.7], [1.0, 0.25], [-0.5, 0.5]])
    spec = PerturbationSpec(lam=0.2, mc_samples=8, master_seed=4)
    with mock.patch.object(perturb, "_ndtr", wraps=perturb._ndtr) as ndtr:
        reports = regularized_risk(W, instances, ContextualWrapper(), model, space, spec, lams=lams)
    assert ndtr.call_count == 1
    assert all(r.mode == "exactenum" for r in reports)


@pytest.mark.parametrize("lams", [None, [0.3, 0.0, 0.05]])
def test_one_closed_form_call_per_cell_on_interleaved_cells(lams):
    # scheduling with two and three jobs: Permutahedron(2) has a closed
    # form, Permutahedron(3) draws noise, and the instances interleave the
    # two cells; the pass makes one _ndtr call for the closed-form cell,
    # every table row is the bits of a pass over its instance alone, and
    # the risk folds the rows in instance order, not in cell order
    instances = generate_instances("scheduling", 9, seed=31, jobs=[2, 3])
    assert [x.polytope.n for x in instances] == [2, 2, 2, 2, 3, 3, 2, 3, 2]
    model = model_for_instances(instances, d=2)
    space, oracle = ParamSpace.symmetric(2), default_cost_oracle("scheduling")
    W = np.array([[0.3, -0.7], [1.0, 0.25], [-0.5, 0.5]])
    lams = None if lams is None else np.array(lams)
    spec = PerturbationSpec(lam=0.3, mc_samples=16, master_seed=4)
    with mock.patch.object(perturb, "_ndtr", wraps=perturb._ndtr) as ndtr:
        terms, variances, ties = perturb._risk_terms(W, instances, oracle, model, spec, lams=lams)
    assert ndtr.call_count == 1
    for i, x in enumerate(instances):
        one_terms, one_variances, one_ties = perturb._risk_terms(W, [x], oracle, model, spec, lams=lams)
        assert terms[i].tobytes() == one_terms[0].tobytes()
        assert (one_variances is None) == (x.dim == 2)
        assert variances[i].tobytes() == (np.zeros(len(W)) if one_variances is None else one_variances[0]).tobytes()
        assert np.array_equal(ties[i], one_ties[0])
    total = np.zeros(len(W))
    for row in terms:  # left to right over the instances
        total += row
    reports = regularized_risk(W, instances, oracle, model, space, spec, lams=lams)
    assert [r.value.hex() for r in reports] == [float(v).hex() for v in total / len(instances)]


@given(batch=batches(), lam=st.sampled_from([0.0, 0.1]))
@settings(max_examples=40, deadline=None)
def test_surface_values_rows_equal_single_rows_bitwise(batch, lam):
    name, W = batch
    instances, model, space, oracle = batch_setup(name)
    spec = PerturbationSpec(lam=lam, mc_samples=16, master_seed=4)
    surface = crn_risk_surface(instances, oracle, model, space, spec)
    got = surface.values(W)
    assert got.shape == (len(W),) and got.dtype == np.float64
    for m, w in enumerate(W):
        assert got[m].hex() == surface.values(W[m : m + 1])[0].hex() == surface(w).hex()


@given(batch=batches(), lam=st.sampled_from([0.0, 0.1]))
@settings(max_examples=30, deadline=None)
def test_surface_values_are_the_reported_risks_bitwise(batch, lam):
    # kSoS minimizes the surface and train reports regularized_risk: one
    # fold of the same terms.  With 16 instances np.mean's pairwise sum
    # differs from the left-to-right sum in the last bits.
    name, W = batch
    instances, model, space, oracle = batch_setup(name, n=16)
    spec = PerturbationSpec(lam=lam, mc_samples=16, master_seed=4)
    surface = crn_risk_surface(instances, oracle, model, space, spec)
    reports = regularized_risk(W, instances, oracle, model, space, spec)
    assert [float(v).hex() for v in surface.values(W)] == [r.value.hex() for r in reports]


def test_surface_values_takes_a_matrix_only():
    instances, model, space, oracle = batch_setup("ctx")
    spec = PerturbationSpec(lam=0.1, mc_samples=16, master_seed=4)
    surface = crn_risk_surface(instances, oracle, model, space, spec)
    with pytest.raises(ValueError, match=re.escape("values takes W of shape (M, d), got shape (2,)")):
        surface.values(np.zeros(2))
    # functools.wraps copies __dict__, so a wrapped surface keeps its batch
    assert functools.wraps(surface)(lambda w: surface(w)).values is surface.values


class CountingOracle:
    """A cost oracle that counts every call made to it."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def __getattr__(self, name):
        method = getattr(self.inner, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)

        return counted


@pytest.mark.parametrize("lam", [0.0, 0.3])
@pytest.mark.parametrize("mode", ["montecarlo", "exactenum"])
def test_batch_rejects_a_bad_row_before_any_oracle_call(mode, lam):
    # the scheduling instances take the Monte Carlo estimate, the contextual
    # ones the closed form
    instances, model, space, inner = batch_setup({"montecarlo": "sched", "exactenum": "ctx"}[mode])
    oracle = CountingOracle(inner)
    spec = PerturbationSpec(lam=lam, mc_samples=16, master_seed=4)
    good = np.array([[0.2, -0.4], [0.5, 0.5]])
    outside = np.vstack([good, [[0.3, 1.5]]])
    with pytest.raises(ParamOutsideBox) as got:
        regularized_risk(outside, instances, oracle, model, space, spec)
    with pytest.raises(ParamOutsideBox) as want:
        model.predict(outside[-1], instances[0], space=space)
    assert str(got.value) == str(want.value)
    wide = np.hstack([good, np.zeros((2, 1))])
    with pytest.raises(ValueError, match=re.escape("parameter has shape (3,), want (2,)")) as got:
        regularized_risk(wide, instances, oracle, model, space, spec)
    assert got.type is ValueError
    surface = crn_risk_surface(instances, oracle, model, space, spec)
    with pytest.raises(ParamOutsideBox):
        surface(outside[-1])
    assert oracle.calls == 0
    report = regularized_risk(good, instances, oracle, model, space, spec)[0]
    assert oracle.calls > 0
    assert report.mode == ("exactenum" if lam == 0.0 else mode)


def test_report_serializes():
    instances, model, space = contextual_setup()
    spec = PerturbationSpec(lam=0.5, mc_samples=64, master_seed=1)
    rep = regularized_risk(np.zeros(2), instances, ContextualWrapper(), model, space, spec)
    doc = rep.to_doc()
    assert doc["lambda"] == 0.5
    assert "epsilon0" not in doc  # the risk never reads the base smoothing
    assert doc["mode"] == "exactenum"  # the contextual p_lambda has a closed form
    instances, model, space, oracle = batch_setup("sched")
    rep = regularized_risk(np.zeros(2), instances, oracle, model, space, spec)
    assert rep.to_doc()["mode"] == "montecarlo"


# ---------------------------------------------------------------------------
# tail mass V


def _chi_tail_thresholds(d):
    """Thresholds t whose x = d t^2 / 2 cover x = 0, cephes igamc's
    series range (x <= 1.1), x near a = d/2, its continued-fraction range
    and underflow, on both sides of each of its switches."""
    a = 0.5 * d
    x = np.concatenate([
        np.geomspace(1e-320, 1e4, 400),
        np.linspace(0.01, 3.0 * a + 3.0, 300),
        a * substream(d, "igamc").uniform(0.55, 1.45, 200),
        [0.5, 1.1, a, a / 1.1, np.exp(-0.4 / a), 750.0, 2000.0],
    ])
    x = np.concatenate([x, np.nextafter(x, 0.0), np.nextafter(x, np.inf)])
    return np.concatenate([np.sqrt(2.0 * x / d), [0.0]])


def _assert_close_to_gammaincc(t, d):
    """chi_tail(t, d) against gammaincc: rtol 1e-12 where the reference
    is at least 1e-290, atol 1e-290 below it and NaN where it is NaN."""
    from scipy.special import gammaincc

    with np.errstate(over="ignore"):  # a square past DBL_MAX is inf on both sides
        x = np.sqrt(d) * np.maximum(t, 0.0)
        got, want = chi_tail(t, d), gammaincc(0.5 * d, 0.5 * (x * x))
    assert got.shape == t.shape and not (got > 1.0).any()
    normal = want >= 1e-290
    np.testing.assert_allclose(got[normal], want[normal], rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(got[~normal], want[~normal], rtol=0.0, atol=1e-290)
    return got


@pytest.mark.parametrize("d", [*range(1, 41), 64, 100])
def test_chi_tail_matches_gammaincc(d):
    t = _chi_tail_thresholds(d)
    got = _assert_close_to_gammaincc(t, d)
    # a batch gives each threshold the bits of a single call
    singles = [chi_tail(v, d) for v in t[::37]]
    assert all(type(v) is float for v in singles)
    assert [v.hex() for v in singles] == [v.hex() for v in got[::37].tolist()]
    edges = [-1.0, -0.0, 0.0, 5e-324, np.inf, np.nan]
    np.testing.assert_array_equal(chi_tail(np.array(edges), d), [1.0, 1.0, 1.0, 1.0, 0.0, np.nan])
    assert [chi_tail(v, d) for v in edges[:5]] == [1.0, 1.0, 1.0, 1.0, 0.0]
    assert math.isnan(chi_tail(np.nan, d))


@given(st.integers(1, 100), st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), max_size=32))
@settings(max_examples=200, deadline=None)
def test_chi_tail_matches_gammaincc_property(d, values):
    t = np.array(values, dtype=np.float64)
    _assert_close_to_gammaincc(np.concatenate([t, t * 1e-3, t[np.abs(t) < 1e300] * 1e-160]), d)


def test_chi_tail_loads_no_scipy():
    import perturbopt

    code = (
        "import sys\n"
        "from perturbopt.perturb import chi_tail\n"
        "print(*[chi_tail(0.5, d).hex() for d in (1, 41, 100)], any(m.split('.')[0] == 'scipy' for m in sys.modules))\n"
    )
    src = os.path.dirname(os.path.dirname(perturbopt.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == [*(chi_tail(0.5, d).hex() for d in (1, 41, 100)), "False"]


def test_tail_mass_chi1_example():
    assert chi_tail(2.0, 1) == pytest.approx(2.0 * (1.0 - norm.cdf(2.0)))
    assert chi_tail(2.0, 1) == pytest.approx(0.04550, abs=1e-5)


def test_tail_mass_limits():
    instances, model, space = contextual_setup(context=[0.7, 0.0])
    w = np.array([1.0, 0.0])  # rho = 0.7
    assert tail_mass_V(w, instances, model, space, 0.35) == pytest.approx(
        0.04550, abs=1e-5
    )
    assert tail_mass_V(w, instances, model, space, 1e6) > 0.999
    assert tail_mass_V(w, instances, model, space, 1e-6) < 1e-12
    for lam in (0.0, [0.1, 0.0, 1.0], [0.5, -0.1]):
        with pytest.raises(ValueError):
            tail_mass_V(w, instances, model, space, lam)


def test_tail_mass_is_one_on_boundary():
    instances, model, space = contextual_setup(context=[0.0, 0.0])
    w = np.array([1.0, 0.0])  # theta = 0: rho = 0
    for lam in (0.01, 0.5, 3.0):
        assert tail_mass_V(w, instances, model, space, lam) == 1.0


def test_tail_mass_monotone_in_lambda():
    instances = generate_instances("contextual", 20, seed=17, d_context=2)
    model = model_for_instances(instances, d=2)
    space = ParamSpace.symmetric(2)
    w = np.array([0.4, 0.6])
    grid = [0.01, 0.05, 0.2, 0.5, 1.0, 3.0]
    vals = [tail_mass_V(w, instances, model, space, lam) for lam in grid]
    assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))


def test_tail_mass_grid_equals_scalar_calls_bitwise():
    for domain, params, d in (
        ("contextual", {"d_context": 2}, 2),
        ("scheduling", {"jobs": [4]}, 2),
        ("stovsp", {"tasks": [5]}, 3),
    ):
        instances = generate_instances(domain, 12, seed=19, **params)
        model = model_for_instances(instances, d=d)
        space = ParamSpace.symmetric(d)
        w = np.linspace(-0.6, 0.8, d)
        grid = [1e-3, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0]
        v = tail_mass_V(w, instances, model, space, grid)
        assert v.dtype == np.float64 and v.shape == (len(grid),)
        scalar = [tail_mass_V(w, instances, model, space, lam) for lam in grid]
        assert all(type(s) is float for s in scalar)
        assert [float(a).hex() for a in v] == [s.hex() for s in scalar]


@pytest.mark.parametrize(
    "domain, params, d, n_cells",
    [
        ("contextual", {"d_context": 2}, 2, 1),
        ("scheduling", {"jobs": [3]}, 2, 1),
        ("scheduling", {"jobs": [3, 4]}, 2, 2),
        ("stovsp", {"tasks": [5]}, 3, 2),
    ],
)
def test_tail_mass_stack_equals_single_calls_bitwise(domain, params, d, n_cells):
    # a stack of n_w parameters: one internal_radius_batch call per cell over
    # (n_c * n_w, 1, dim) single directions and one chi_tail call per cell,
    # and row i is the single call at W[i] bit for bit
    instances = generate_instances(domain, 14, seed=23, **params)
    model = model_for_instances(instances, d=d)
    space = ParamSpace.symmetric(d)
    W = np.random.default_rng(8).uniform(-1.0, 1.0, (5, d))
    W[2] = 0.0  # theta = 0: radius 0 and a tail of 1
    grid = [1e-3, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0]
    want_grid = [tail_mass_V(w, instances, model, space, grid) for w in W]
    want_scalar = [tail_mass_V(w, instances, model, space, 0.2) for w in W]
    radius_shapes = []

    def radius(polytope, thetas):
        radius_shapes.append(thetas.shape)
        return internal_radius_batch(polytope, thetas)

    with mock.patch.object(perturb, "internal_radius_batch", radius), mock.patch.object(
        perturb, "chi_tail", wraps=perturb.chi_tail
    ) as tail:
        got_grid = tail_mass_V(W, instances, model, space, grid)
        assert tail.call_count == n_cells
        got_scalar = tail_mass_V(W, instances, model, space, 0.2)
    assert tail.call_count == 2 * n_cells
    cells = [(len(cell), cell[0].dim) for _, cell, _ in perturb._polytope_cells(instances, model, W[:1])]
    assert len(cells) == n_cells
    assert radius_shapes == [(n_c * len(W), 1, dim) for n_c, dim in cells] * 2
    assert got_grid.dtype == np.float64 and got_grid.shape == (len(W), len(grid))
    assert got_grid.tobytes() == np.stack(want_grid).tobytes()
    assert got_scalar.shape == (len(W),)
    assert [float(v).hex() for v in got_scalar] == [v.hex() for v in want_scalar]
    np.testing.assert_array_equal(got_grid[2], 1.0)


def test_tail_mass_stack_checks_every_row():
    instances, model, space = contextual_setup(context=[0.7, 0.0])
    with pytest.raises(ParamOutsideBox):
        tail_mass_V(np.array([[0.5, 0.5], [2.0, 0.0]]), instances, model, space, [0.1, 1.0])
    with pytest.raises(ValueError):
        tail_mass_V(np.zeros((2, 3)), instances, model, space, 0.1)


def _tail_mass_per_instance(w, instances, model, space, lam):
    """tail_mass_V as a loop over the instances: one predict, one
    internal_radius and one chi_tail per instance, folded left to right."""
    lams = np.asarray(lam, dtype=np.float64)
    total = np.zeros_like(lams)
    for x in instances:
        rho = internal_radius(x.polytope, model.predict(w, x, space=space))
        total += chi_tail(rho / lams, x.dim)
    v = total / len(instances)
    return float(v) if v.ndim == 0 else v


@pytest.mark.parametrize(
    "domain, params, d, n_cells",
    [
        ("contextual", {"d_context": 2}, 2, 1),
        ("scheduling", {"jobs": [3, 4]}, 2, 2),
        ("stovsp", {"tasks": [5]}, 3, 2),
    ],
)
def test_tail_mass_is_the_per_instance_loop_bitwise_from_one_chi_tail_per_cell(
    monkeypatch, domain, params, d, n_cells
):
    instances = generate_instances(domain, 16, seed=21, **params)
    model = model_for_instances(instances, d=d)
    space = ParamSpace.symmetric(d)
    W = np.random.default_rng(6).uniform(-1.0, 1.0, (4, d))
    W[0] = 0.0  # theta = 0: radius 0 and a tail of 1
    grid = [1e-3, 0.01, 0.1, 0.3, 1.0, 3.0]
    reference = functools.partial(_tail_mass_per_instance, instances=instances, model=model, space=space)
    want = [(reference(w, lam=grid), reference(w, lam=0.2)) for w in W]

    def no_predict(*args, **kwargs):
        raise AssertionError("tail_mass_V called model.predict")

    monkeypatch.setattr(GeneralizedLinearModel, "predict", no_predict)
    for w, (want_grid, want_scalar) in zip(W, want):
        with mock.patch.object(perturb, "chi_tail", wraps=perturb.chi_tail) as tail:
            got_grid = tail_mass_V(w, instances, model, space, grid)
            got_scalar = tail_mass_V(w, instances, model, space, 0.2)
        assert tail.call_count == 2 * n_cells
        assert got_grid.tobytes() == want_grid.tobytes()
        assert type(got_scalar) is float and got_scalar.hex() == want_scalar.hex()

import functools
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi, norm

from perturbopt import perturb
from perturbopt.model import ParamOutsideBox, ParamSpace, model_for_instances
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
from perturbopt.polytopes import Permutahedron, VspFlow, p0
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
    with pytest.raises(ValueError):
        PerturbationSpec(lam=0.1, epsilon0=0.2)
    with pytest.raises(ValueError):
        PerturbationSpec(lam=1.0, epsilon0=-0.1)
    with pytest.raises(ValueError):
        PerturbationSpec(lam=1.0, mc_samples=0)
    spec = PerturbationSpec(lam=1.0, epsilon0=1e-3)
    assert spec.with_lambda(0.5).lam == 0.5
    assert spec.with_lambda(0.0).epsilon0 == 0.0


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


def test_exact_policy_distribution_is_norm_cdf_bitwise():
    # the closed forms call scipy.special.ndtr, which is what norm.cdf
    # evaluates; row b of a batch is the scalar formula at thetas[b]
    one_d = VspFlow(2, [(0, 1)])
    perm2 = Permutahedron(2)
    rng = substream(6, "ndtr")
    ts = [0.0, -0.0, 1e-300, -3.7, 0.3, 40.0, np.inf, -np.inf]
    ts += list(rng.standard_normal(40) * 3.0)
    for lam in (1e-3, 0.37, 1.0, 5.0):
        probs = exact_policy_distribution(one_d, np.array(ts)[:, None], lam)
        assert probs.shape == (len(ts), 2)
        thetas = np.column_stack([ts, np.full(len(ts), 0.25)])
        perm_probs = exact_policy_distribution(perm2, thetas, lam)
        assert perm_probs.shape == (len(ts), 2)
        for t, row, theta, perm_row in zip(ts, probs, thetas, perm_probs):
            p_hi = float(norm.cdf(t / lam))
            assert row.tolist() == [1.0 - p_hi, p_hi]
            p_21 = float(norm.cdf((theta[0] - theta[1]) / lam))
            want = [p_21 if v[0] == 2.0 else 1.0 - p_21 for v in perm2.vertices()]
            assert perm_row.tolist() == want


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
    spec = PerturbationSpec(lam=1.0, epsilon0=0.0, mc_samples=8192, master_seed=1)
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
    spec = PerturbationSpec(lam=1e-6, epsilon0=0.0, mc_samples=512, master_seed=1)
    w = np.array([1.0, 0.0])
    report = regularized_risk(w, instances, oracle, model, space, spec)
    assert report.value == pytest.approx(2.0, abs=1e-9)  # interior cone: f(y_hat)


def test_risk_constant_cost_exact():
    instances, model, space = contextual_setup(costs=[0.4, 0.4])
    oracle = ContextualWrapper()
    for lam in (0.0, 0.1, 1.0):
        for w in (np.zeros(2), np.array([0.3, -0.9])):
            spec = PerturbationSpec(lam=lam, epsilon0=0.0, mc_samples=128, master_seed=2)
            rep = regularized_risk(w, instances, oracle, model, space, spec)
            assert rep.value == pytest.approx(0.4, abs=1e-12)


def test_risk_zero_lambda_tie_uses_p0_measure():
    instances, model, space = contextual_setup(costs=[1.0, 0.0])
    oracle = ContextualWrapper()
    spec = PerturbationSpec(lam=0.0, epsilon0=0.0, mc_samples=128, master_seed=3)
    report = regularized_risk(np.zeros(2), instances, oracle, model, space, spec)
    assert report.ties_encountered
    assert report.value == pytest.approx(0.5, abs=1e-12)


def test_zero_lambda_tie_without_closed_form_uses_labeled_substream():
    # theta = 0 ties all 24 orders of Permutahedron(4): p0 splits the tie by
    # Monte Carlo from the instance's "p0/<index>" substream
    instances = generate_instances("scheduling", 4, seed=5, jobs=[4])
    model = model_for_instances(instances, d=2)
    space = ParamSpace.symmetric(2)
    oracle = default_cost_oracle("scheduling")
    w = np.zeros(2)

    def risk(seed):
        spec = PerturbationSpec(lam=0.0, epsilon0=0.0, master_seed=seed)
        return regularized_risk(w, instances, oracle, model, space, spec)

    first, again, other = risk(1), risk(1), risk(2)
    assert first.ties_encountered
    assert first.value.hex() == again.value.hex()
    assert first.value != other.value
    values = []
    for x in instances:
        theta = model.predict(w, x, space=space)
        measure = p0(x.polytope, theta, rng=substream(1, f"p0/{x.index}"))
        values.append(float(sum(p * float(oracle.eval(v, x)) for v, p in measure.atoms)))
    assert first.value.hex() == float(np.mean(values)).hex()


@pytest.mark.parametrize("domain, params", [("scheduling", {"jobs": [4]}), ("stovsp", {"tasks": [5]})])
def test_zero_lambda_tie_solves_the_oracle_once(monkeypatch, domain, params):
    # w = 0 ties every vertex: the tie split reuses the flagged oracle result
    instances = generate_instances(domain, 3, seed=5, **params)
    model = model_for_instances(instances, d=2)
    kind = type(instances[0].polytope)
    calls = []
    real = kind.argmax

    def counting(self, theta):
        calls.append(1)
        return real(self, theta)

    monkeypatch.setattr(kind, "argmax", counting)
    spec = PerturbationSpec(lam=0.0, epsilon0=0.0, master_seed=1)
    W = np.zeros((2, 2))
    reports = regularized_risk(
        W, instances, default_cost_oracle(domain), model, ParamSpace.symmetric(2), spec
    )
    assert all(r.ties_encountered for r in reports)
    assert len(calls) == len(W) * len(instances)


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
        spec = PerturbationSpec(lam=0.0, epsilon0=0.0, master_seed=seed)
        report = regularized_risk(
            np.array([0.2, 0.7]), instances, oracle, model, ParamSpace.symmetric(2), spec
        )
        assert report.ties_encountered
        assert report.value.hex() == want


def test_risk_errors():
    instances, model, space = contextual_setup()
    oracle = ContextualWrapper()
    spec = PerturbationSpec(lam=0.5, epsilon0=0.0)
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
        spec = PerturbationSpec(lam=lam, epsilon0=0.0, mc_samples=256, master_seed=5)
        w = space.sample(rng, 1)[0]
        rep = regularized_risk(w, instances, oracle, model, space, spec)
        assert 0.0 <= rep.value <= 1.0


def test_crn_reproducibility_bitwise():
    instances = generate_instances("scheduling", 8, seed=13, jobs=[4])
    model = model_for_instances(instances, d=2)
    space = ParamSpace.symmetric(2)
    oracle = default_cost_oracle("scheduling")
    spec = PerturbationSpec(lam=0.2, epsilon0=0.0, mc_samples=256, master_seed=21)
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
    spec = PerturbationSpec(lam=0.1, epsilon0=0.0, mc_samples=16, master_seed=1)
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
    spec = PerturbationSpec(lam=0.1, epsilon0=0.001, mc_samples=samples, master_seed=7)
    surface = crn_risk_surface(train, default_cost_oracle(domain), model, space, spec)
    got = [surface(np.array(w[:d])).hex() for w in SURFACE_GRID]
    assert got == SURFACE_PINS[case]
    batch = surface.values(np.array(SURFACE_GRID)[:, :d])
    assert [float(v).hex() for v in batch] == SURFACE_PINS[case]


# regularized_risk (value, mc_std_error) on the benchmark's test sets (data
# seed 7) at two points of SURFACE_GRID, as float.hex.
RISK_PINS = {
    ("scheduling", 256, (("jobs", (5,)),), 2, 512): [
        ("0x1.8dded185e57f5p+3", "0x1.4f0e7c2f0ff6ap-10"),
        ("0x1.589832a519ec6p+3", "0x1.fadefdd40e1eep-11"),
    ],
    ("stovsp", 16, (("tasks", (5,)),), 3, 32): [
        ("0x1.12662bf4fd5e7p+2", "0x1.0969a2846c9dep-8"),
        ("0x1.347f2b48a00fep+2", "0x1.698d9a4b5f44fp-7"),
    ],
    ("contextual", 1024, (("d_context", 2), ("signal", 1.0)), 2, 256): [
        ("0x1.24bc8dc6a6cbep-2", "0x0.0p+0"),
        ("0x1.4f92c1638de70p-1", "0x0.0p+0"),
    ],
}


@pytest.mark.parametrize("case", list(RISK_PINS), ids=["sched", "vsp", "ctx"])
def test_regularized_risk_pinned_on_test_sets(case):
    domain, n_test, params, d, samples = case
    test = generate_instances(domain, n_test, spawn_seed(7, "dataset/test"), **dict(params))
    model = model_for_instances(test, d=d)
    space = ParamSpace.symmetric(d)
    spec = PerturbationSpec(lam=0.1, epsilon0=0.001, mc_samples=samples, master_seed=7)
    oracle = default_cost_oracle(domain)
    got = []
    for w in SURFACE_GRID[1:3]:
        rep = regularized_risk(np.array(w[:d]), test, oracle, model, space, spec)
        got.append((rep.value.hex(), rep.mc_std_error.hex()))
    assert got == RISK_PINS[case]


# ---------------------------------------------------------------------------
# batched risk: regularized_risk(W) for W of shape (M, d)

BATCH_DOMAINS = {
    "ctx": ("contextual", {"d_context": 2}, 2),
    "sched": ("scheduling", {"jobs": [4]}, 2),
    "vsp": ("stovsp", {"tasks": [5]}, 3),
}


@functools.cache
def batch_setup(name):
    domain, params, d = BATCH_DOMAINS[name]
    instances = generate_instances(domain, 4, seed=23, **params)
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


@given(batch=batches(), lam=st.sampled_from([0.0, 0.3]))
@settings(max_examples=50, deadline=None)
def test_batch_reports_equal_single_calls_bitwise(batch, lam):
    name, W = batch
    instances, model, space, oracle = batch_setup(name)
    spec = PerturbationSpec(lam=lam, epsilon0=0.0, mc_samples=16, master_seed=4)
    reports = regularized_risk(W, instances, oracle, model, space, spec)
    assert len(reports) == len(W)
    for w, rep in zip(W, reports):
        single = regularized_risk(w, instances, oracle, model, space, spec)
        assert report_bits(rep) == report_bits(single)
        assert rep.to_doc() == single.to_doc()


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
    # every row's theta in _risk_terms, as exact_policy_distribution sees it
    instances, model, space, oracle = batch_setup("sched" if name == "builder" else name)
    if name == "builder":
        model = model_for_instances(instances, d=2, builder=_scaled_fortran_features)
    W = np.array(W)[:, : model.d]
    seen = []

    def record(polytope, thetas, lam):
        seen.append(thetas.copy())
        return None  # then the Monte Carlo path runs on the same thetas

    spec = PerturbationSpec(lam=0.3, epsilon0=0.0, mc_samples=2, master_seed=4)
    with mock.patch.object(perturb, "exact_policy_distribution", record):
        regularized_risk(W, instances, oracle, model, space, spec)
    assert len(seen) == len(instances)
    for x, thetas in zip(instances, seen):
        assert thetas.shape == (len(W), x.dim)
        for w, theta in zip(W, thetas):
            assert theta.tobytes() == model.predict(w, x, space=space).tobytes()


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


@pytest.mark.parametrize("name", ["ctx", "perm2"])
def test_exact_terms_are_each_rows_law_dotted_with_the_vertex_costs(name):
    if name == "ctx":
        instances, model, space, oracle = batch_setup("ctx")
    else:  # scheduling with two jobs: Permutahedron(2)
        instances = generate_instances("scheduling", 5, seed=29, jobs=[2])
        model = model_for_instances(instances, d=2)
        space, oracle = ParamSpace.symmetric(2), default_cost_oracle("scheduling")
    W = np.vstack([np.zeros(2), space.sample(substream(3, "exact-w"), 16)])
    spec = PerturbationSpec(lam=0.2, epsilon0=0.0, mc_samples=16, master_seed=4)
    terms = list(perturb._risk_terms(W, instances, oracle, model, space, spec))
    for x, (values, costs, ties) in zip(instances, terms):
        assert costs is None and not ties.any()
        vertex_costs = oracle.eval_vertices(x, x.polytope.vertices())
        for w, v in zip(W, values):
            p = exact_policy_distribution(x.polytope, model.predict(w, x)[None], spec.lam)[0]
            assert v.hex() == float(p @ vertex_costs).hex()


@given(batch=batches(), lam=st.sampled_from([0.0, 0.1]))
@settings(max_examples=40, deadline=None)
def test_surface_values_rows_equal_single_rows_bitwise(batch, lam):
    name, W = batch
    instances, model, space, oracle = batch_setup(name)
    spec = PerturbationSpec(lam=lam, epsilon0=0.0, mc_samples=16, master_seed=4)
    surface = crn_risk_surface(instances, oracle, model, space, spec)
    got = surface.values(W)
    assert got.shape == (len(W),) and got.dtype == np.float64
    for m, w in enumerate(W):
        assert got[m].hex() == surface.values(W[m : m + 1])[0].hex() == surface(w).hex()


def test_surface_values_takes_a_matrix_only():
    instances, model, space, oracle = batch_setup("ctx")
    spec = PerturbationSpec(lam=0.1, epsilon0=0.0, mc_samples=16, master_seed=4)
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
    spec = PerturbationSpec(lam=lam, epsilon0=0.0, mc_samples=16, master_seed=4)
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
    spec = PerturbationSpec(lam=0.5, epsilon0=1e-3, mc_samples=64, master_seed=1)
    rep = regularized_risk(np.zeros(2), instances, ContextualWrapper(), model, space, spec)
    doc = rep.to_doc()
    assert doc["lambda"] == 0.5
    assert doc["epsilon0"] == 1e-3
    assert doc["mode"] == "exactenum"  # the contextual p_lambda has a closed form
    instances, model, space, oracle = batch_setup("sched")
    rep = regularized_risk(np.zeros(2), instances, oracle, model, space, spec)
    assert rep.to_doc()["mode"] == "montecarlo"


# ---------------------------------------------------------------------------
# tail mass V


def test_chi_tail_is_scipy_chi_sf_bitwise():
    thresholds = [-1.0, -1e-300, 0.0, 1e-300, 1e-8, 0.01, 0.3, 0.7, 1.0, 2.0, 3.5, 7.0, 40.0, np.inf]
    # thresholds where a numpy-scalar ``** 2`` (pow) misses chi.sf's array square
    thresholds += [2.703289804057066, 2.105408500611607, 7.7784749683541, 1.5971601070494996]
    thresholds += list(substream(7, "chi").uniform(0.0, 6.0, 200))
    grid = np.array(thresholds)
    for d in (1, 2, 3, 5, 10):
        want = [float(chi.sf(np.sqrt(d) * t, df=d)) for t in thresholds]
        got = [chi_tail(t, d) for t in thresholds]
        assert all(type(v) is float for v in got)
        assert [v.hex() for v in got] == [v.hex() for v in want]
        assert [float(v).hex() for v in chi_tail(grid, d)] == [v.hex() for v in want]


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

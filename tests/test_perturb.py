import numpy as np
import pytest
from scipy.stats import norm

from perturbopt.model import ParamSpace, model_for_instances
from perturbopt.perturb import (
    PerturbationSpec,
    chi_tail,
    crn_risk_surface,
    exact_policy_distribution,
    p_lambda,
    perturbation_block,
    regularized_risk,
    sample_perturbation,
    tail_mass_V,
)
from perturbopt.problems import ContextualWrapper, default_cost_oracle, generate_instances
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
    spec = PerturbationSpec(lam=1.0, epsilon0=0.0, mc_samples=8192, master_seed=0)
    p, se = p_lambda(x.polytope, np.array([0.3]), np.array([1.0]), spec)
    assert se == 0.0  # closed form
    assert p == pytest.approx(norm.cdf(0.3))
    assert p == pytest.approx(0.61791, abs=1e-5)


def test_p_lambda_normalization_and_symmetry():
    instances, _, _ = contextual_setup()
    x = instances[0]
    for lam in (0.3, 1.0, 2.5):
        probs = exact_policy_distribution(x.polytope, np.array([0.4]), lam)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    probs0 = exact_policy_distribution(x.polytope, np.array([0.0]), 1.0)
    assert probs0.tolist() == [0.5, 0.5]


def test_p_lambda_permutahedron2_closed_form():
    from perturbopt.polytopes import Permutahedron

    perm2 = Permutahedron(2)
    theta = np.array([0.9, 0.2])
    for lam in (0.5, 1.0):
        probs = exact_policy_distribution(perm2, theta, lam)
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
    exact = exact_policy_distribution(perm2, theta, 0.8)
    assert np.all(np.abs(probs - exact) <= 3.0 * ses + 1e-9)


def test_p_lambda_requires_positive_lambda():
    instances, _, _ = contextual_setup()
    spec = PerturbationSpec(lam=0.0, epsilon0=0.0)
    with pytest.raises(ValueError):
        p_lambda(instances[0].polytope, np.array([0.3]), np.array([1.0]), spec)


# ---------------------------------------------------------------------------
# regularized risk


def test_risk_closed_form_example():
    # f(0) = 5, f(1) = 2, theta = 0.3, lam = 1 -> 5 - 3 Phi(0.3)
    instances, model, space = contextual_setup(costs=[5.0, 2.0], context=[0.3, 0.0])
    # widen the cost box: this hand example leaves [0, 1]
    oracle = ContextualWrapper()
    spec = PerturbationSpec(lam=1.0, epsilon0=0.0, mc_samples=8192, master_seed=1)
    w = np.array([1.0, 0.0])
    report = regularized_risk(w, instances, oracle, model, space, spec, mode="exactenum")
    assert report.value == pytest.approx(5.0 - 3.0 * norm.cdf(0.3), abs=1e-12)
    assert report.mc_std_error == 0.0
    mc = regularized_risk(w, instances, oracle, model, space, spec, mode="montecarlo")
    assert abs(mc.value - report.value) <= 4.0 * mc.mc_std_error + 1e-9


def test_risk_small_lambda_limit():
    instances, model, space = contextual_setup(costs=[5.0, 2.0], context=[0.3, 0.0])
    oracle = ContextualWrapper()
    spec = PerturbationSpec(lam=1e-6, epsilon0=0.0, mc_samples=512, master_seed=1)
    w = np.array([1.0, 0.0])
    report = regularized_risk(w, instances, oracle, model, space, spec, mode="exactenum")
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


def test_risk_errors():
    instances, model, space = contextual_setup()
    oracle = ContextualWrapper()
    spec = PerturbationSpec(lam=0.5, epsilon0=0.0)
    with pytest.raises(ValueError):
        regularized_risk(np.zeros(2), [], oracle, model, space, spec)
    with pytest.raises(ValueError):
        regularized_risk(np.zeros(2), instances, oracle, model, space, spec, mode="bogus")


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


# The CRN surface of the benchmark's vsp and ctx train configs (data seed 7)
# on a fixed w grid, as float.hex.  A change to the oracle, cost or risk
# code that moves any bit of these values changes every trained artifact.
SURFACE_GRID = [
    [0.0, 0.0, 0.0],
    [0.5, -0.25, 0.75],
    [-1.0, 1.0, 0.5],
    [0.3, 0.3, -0.9],
    [-0.6, -0.2, 0.1],
]
SURFACE_PINS = {
    ("stovsp", 8, (("tasks", (5,)),), 3, 32): [
        "0x1.73ffcf3ec54c8p+2",
        "0x1.36957d8d03233p+2",
        "0x1.50a0103ff2b38p+2",
        "0x1.bcfcd58c31fabp+2",
        "0x1.cdc7a0ff038e9p+2",
    ],
    ("contextual", 256, (("d_context", 2), ("signal", 1.0)), 2, 256): [
        "0x1.f31959aa7a996p-2",
        "0x1.12e071271a93cp-2",
        "0x1.51c557980b135p-1",
        "0x1.4ff771fe1da93p-2",
        "0x1.72ec38805c073p-1",
    ],
}


@pytest.mark.parametrize("case", list(SURFACE_PINS), ids=["vsp", "ctx"])
def test_crn_surface_pinned_on_w_grid(case):
    domain, n_train, params, d, samples = case
    train = generate_instances(domain, n_train, spawn_seed(7, "dataset/train"), **dict(params))
    model = model_for_instances(train, d=d)
    space = ParamSpace.symmetric(d)
    spec = PerturbationSpec(lam=0.1, epsilon0=0.001, mc_samples=samples, master_seed=7)
    surface = crn_risk_surface(train, default_cost_oracle(domain), model, space, spec)
    got = [surface(np.array(w[:d])).hex() for w in SURFACE_GRID]
    assert got == SURFACE_PINS[case]


def test_report_serializes():
    instances, model, space = contextual_setup()
    spec = PerturbationSpec(lam=0.5, epsilon0=1e-3, mc_samples=64, master_seed=1)
    rep = regularized_risk(np.zeros(2), instances, ContextualWrapper(), model, space, spec)
    doc = rep.to_doc()
    assert doc["lambda"] == 0.5
    assert doc["epsilon0"] == 1e-3
    assert doc["mode"] == "montecarlo"


# ---------------------------------------------------------------------------
# tail mass V


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
    with pytest.raises(ValueError):
        tail_mass_V(w, instances, model, space, 0.0)


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

import numpy as np
import pytest

from perturbopt.model import (
    GeneralizedLinearModel,
    ParamOutsideBox,
    ParamSpace,
    model_for_instances,
)
from perturbopt.problems import generate_instances


def test_param_space_validation():
    with pytest.raises(ValueError):
        ParamSpace(np.array([0.0, 0.0]), np.array([0.0, 1.0]))  # empty interior
    with pytest.raises(ValueError):
        ParamSpace(np.array([0.0]), np.array([np.inf]))
    space = ParamSpace.symmetric(3)
    assert space.d == 3
    assert space.contains(np.zeros(3))
    assert not space.contains(np.array([1.5, 0.0, 0.0]))
    assert space.project(np.array([2.0, -3.0, 0.1])).tolist() == [1.0, -1.0, 0.1]
    assert space.diameter() == pytest.approx(2.0 * np.sqrt(3.0))
    assert space.radius() == pytest.approx(np.sqrt(3.0))
    assert space.volume() == pytest.approx(8.0)


def test_predict_identity_and_zero():
    x = generate_instances("contextual", 1, seed=0, d_context=2)[0]
    model = GeneralizedLinearModel(d=2, lipschitz_bound=np.sqrt(2.0))
    space = ParamSpace.symmetric(2)
    w = np.array([0.4, -0.2])
    theta = model.predict(w, x, space=space)
    assert theta == pytest.approx(x.features["context"] @ w)
    assert model.predict(np.zeros(2), x, space=space).tolist() == [0.0]


def test_predict_rejects_outside_box():
    x = generate_instances("contextual", 1, seed=0, d_context=2)[0]
    model = GeneralizedLinearModel(d=2, lipschitz_bound=2.0)
    with pytest.raises(ParamOutsideBox):
        model.predict(np.array([2.0, 0.0]), x, space=ParamSpace.symmetric(2))


def test_predict_is_affine_in_w():
    instances = generate_instances("scheduling", 3, seed=1, jobs=[4])
    model = model_for_instances(instances, d=2)
    rng = np.random.default_rng(0)
    for x in instances:
        w1, w2 = rng.uniform(-0.5, 0.5, (2, 2))
        lhs = model.predict(w1 + w2, x)
        rhs = model.predict(w1, x) + model.predict(w2, x) - model.predict(np.zeros(2), x)
        assert np.allclose(lhs, rhs, atol=1e-14)


def test_spt_rule_via_weights():
    # w = (0, -1) scores by negative processing time: the induced
    # permutation runs shortest processing time first
    from perturbopt.polytopes import linear_oracle
    from perturbopt.problems import SchedulingCompletionTime

    instances = generate_instances("scheduling", 5, seed=3, jobs=[4], r_max=0.0)
    model = model_for_instances(instances, d=2)
    space = ParamSpace.symmetric(2)
    oracle = SchedulingCompletionTime()
    for x in instances:
        theta = model.predict(np.array([0.0, -1.0]), x, space=space)
        y = linear_oracle(x.polytope, theta).y
        cost = oracle.eval_vertices(x, y[None])[0]
        best = float(np.min(oracle.eval_vertices(x, x.polytope.vertices())))
        # SPT is optimal for zero release times
        assert cost == pytest.approx(best)


def test_measured_lipschitz_below_declared():
    rng = np.random.default_rng(5)
    for domain, kw, d in (
        ("scheduling", {"jobs": [4]}, 2),
        ("contextual", {"d_context": 3}, 3),
    ):
        instances = generate_instances(domain, 10, seed=2, **kw)
        model = model_for_instances(instances, d=d)
        space = ParamSpace.symmetric(d)
        for x in instances:
            for w1, w2 in space.sample(rng, 60).reshape(30, 2, d):
                lhs = np.linalg.norm(model.feature_matrix(x) @ (w1 - w2))
                assert lhs <= model.lipschitz_bound * np.linalg.norm(w1 - w2) + 1e-12


def test_model_for_instances_lipschitz_bound_is_exact():
    # 1x1 feature matrices: the bound is the largest |Phi|, exactly
    instances = generate_instances("contextual", 3, seed=0, d_context=2)
    assert model_for_instances(instances, d=1, builder=lambda _: np.eye(1)).lipschitz_bound == 1.0
    scaled = model_for_instances(instances, d=1, builder=lambda _: 3.0 * np.eye(1))
    assert scaled.lipschitz_bound == 3.0
    zero = model_for_instances(instances, d=1, builder=lambda _: np.zeros((1, 1)))
    assert zero.lipschitz_bound == 0.0


@pytest.mark.parametrize(
    "domain, params, d",
    [
        ("contextual", {"d_context": 3}, 3),
        ("scheduling", {"jobs": [2, 3, 5]}, 2),
        ("stovsp", {"tasks": [3, 5]}, 3),
    ],
    ids=["contextual", "scheduling", "stovsp"],
)
def test_lipschitz_bound_is_the_per_instance_norm_loop_bitwise(domain, params, d):
    # one batched SVD per feature-matrix shape, mixed shapes included
    instances = generate_instances(domain, 60, seed=11, **params)
    model = model_for_instances(instances, d=d)
    loop = max(np.linalg.norm(model.feature_matrix(x), ord=2) for x in instances)
    assert model.lipschitz_bound.hex() == float(loop).hex()
    assert type(model.lipschitz_bound) is float

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perturbopt import problems
from perturbopt.model import ParamSpace, model_for_instances
from perturbopt.perturb import PerturbationSpec, perturbation_block
from perturbopt.polytopes import VspFlow, _vertex_argmax
from perturbopt.problems import (
    ContextualWrapper,
    Instance,
    SchedulingCompletionTime,
    StoVspDelayCost,
    declared_osc,
    feature_matrix,
    generate_instances,
    instance_from_doc,
    instance_to_doc,
    load_instances,
    osc_bound,
    save_instances,
)


def scheduling_instance(release, processing, index=0):
    from perturbopt.polytopes import Permutahedron

    n = len(release)
    return Instance(
        domain="scheduling",
        partition_id=f"jobs{n}",
        index=index,
        features={
            "release": np.asarray(release, float),
            "processing": np.asarray(processing, float),
        },
        polytope=Permutahedron(n),
        scenario_seed=0,
        declared={"r_max": 1.0, "p_min": 0.0, "p_max": max(processing)},
    )


def vsp_instance(arcs, n_tasks, slack, scenario_table, index=0, n_scenarios=None):
    x = Instance(
        domain="stovsp",
        partition_id="test",
        index=index,
        features={
            "slack": np.asarray(slack, float),
            "slack_pct": np.zeros(len(arcs)),
            "tail_outdeg": np.zeros(len(arcs)),
        },
        polytope=VspFlow(n_tasks, arcs),
        scenario_seed=123,
        declared={"slack_max": 10.0, "delay_max": 10.0},
    )
    oracle = StoVspDelayCost(
        c_delay=1.0, c_vehicle=0.0,
        n_scenarios=n_scenarios or len(scenario_table),
    )
    key = (x.scenario_seed, n_tasks, oracle.n_scenarios)
    oracle._scenario_cache[key] = np.asarray(scenario_table, float)
    return x, oracle


# ---------------------------------------------------------------------------
# cost oracles


def test_scheduling_cost_both_orders():
    x = scheduling_instance([0.0, 0.0], [1.0, 2.0])
    oracle = SchedulingCompletionTime()
    assert oracle.eval_vertices(x, np.array([2.0, 1.0])[None])[0] == pytest.approx(4.0)
    assert oracle.eval_vertices(x, np.array([1.0, 2.0])[None])[0] == pytest.approx(5.0)


def test_stovsp_no_delay_charges_vehicles():
    x, oracle = vsp_instance(
        [(0, 1), (1, 2)], 3, slack=[1.0, 1.0], scenario_table=np.zeros((4, 3))
    )
    oracle.c_vehicle = 10.0
    # empty arc set: three singleton paths
    assert oracle.eval_vertices(x, np.zeros(2)[None])[0] == pytest.approx(30.0)


def test_stovsp_one_step_propagation():
    # chain of 2 tasks, slack 1, intrinsic delays (2, 0), one scenario:
    # delay at task 2 = max(0, 2 - 1) + 0 = 1; total 2 + 1 = 3
    x, oracle = vsp_instance(
        [(0, 1)], 2, slack=[1.0], scenario_table=np.array([[2.0, 0.0]])
    )
    assert oracle.eval_vertices(x, np.ones(1)[None])[0] == pytest.approx(3.0)
    # separate vehicles: no propagation, total = 2
    assert oracle.eval_vertices(x, np.zeros(1)[None])[0] == pytest.approx(2.0)


@given(st.floats(0.0, 5.0), st.floats(0.0, 5.0), st.floats(0.0, 5.0))
@settings(max_examples=60, deadline=None)
def test_stovsp_cost_monotone_in_intrinsic_delays(d0, d1, bump):
    x, oracle = vsp_instance(
        [(0, 1)], 2, slack=[0.7], scenario_table=np.array([[d0, d1]])
    )
    base = oracle.eval_vertices(x, np.ones(1)[None])[0]
    x2, oracle2 = vsp_instance(
        [(0, 1)], 2, slack=[0.7], scenario_table=np.array([[d0 + bump, d1]])
    )
    assert oracle2.eval_vertices(x2, np.ones(1)[None])[0] >= base - 1e-12


def test_contextual_cost():
    x = generate_instances("contextual", 1, seed=0)[0]
    oracle = ContextualWrapper()
    c0, c1 = x.features["costs"]
    assert oracle.eval_vertices(x, np.array([0.0])[None])[0] == pytest.approx(c0)
    assert oracle.eval_vertices(x, np.array([1.0])[None])[0] == pytest.approx(c1)


def test_scheduling_relabel_invariance():
    # permuting job labels with identical (r, p) leaves the cost set intact
    x1 = scheduling_instance([0.3, 0.3, 0.8], [1.0, 1.0, 2.0])
    x2 = scheduling_instance([0.3, 0.3, 0.8], [1.0, 1.0, 2.0])
    oracle = SchedulingCompletionTime()
    costs1 = sorted(oracle.eval_vertices(x1, x1.polytope.vertices()).tolist())
    costs2 = sorted(oracle.eval_vertices(x2, x2.polytope.vertices()).tolist())
    assert costs1 == costs2


def stovsp_crn_directions(n=16, k=64):
    """Generated stovsp instances with K CRN directions at three scales."""
    instances = generate_instances("stovsp", n, seed=11, tasks=[4, 5, 6])
    model = model_for_instances(instances, d=3)
    space = ParamSpace.symmetric(3)
    w = np.array([0.6, -0.4, 0.2])
    for x in instances:
        theta = model.predict(w, x, space=space)
        for lam in (0.01, 0.1, 1.0):
            spec = PerturbationSpec(lam=lam, mc_samples=k, master_seed=5)
            yield x, theta[None, :] + lam * perturbation_block(spec, x.index, x.dim)


def assignment_reference(oracle, x, thetas):
    """One assignment solve per direction, costed by _cost_of: the
    reference both batch paths must match bit for bit."""
    return np.array([oracle._cost_of(x.polytope._min_cost_flow(t)[0], x) for t in thetas])


def count_flow_solves(monkeypatch):
    calls = []
    real = VspFlow._min_cost_flow

    def counting(self, *args, **kwargs):
        calls.append(1)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(VspFlow, "_min_cost_flow", counting)
    return calls


def test_stovsp_batch_matches_vertex_table(monkeypatch):
    oracle = StoVspDelayCost()
    for x, thetas in stovsp_crn_directions():
        verts = x.polytope.vertices()
        table = oracle.eval_vertices(x, verts)[np.argmax(thetas @ verts.T, axis=1)]
        reference = assignment_reference(oracle, x, thetas)
        calls = count_flow_solves(monkeypatch)
        batch = oracle.eval_theta_batch(x, thetas)
        monkeypatch.undo()
        assert calls == []  # enumerable: the vertex table, no assignment
        assert np.array_equal(batch, table)  # bitwise
        assert np.array_equal(batch, reference)  # bitwise


def test_stovsp_batch_past_the_cap_solves_assignments(monkeypatch):
    # the complete 14-task DAG has Bell(14) vertices, far past the cap
    n = 14
    poly = VspFlow(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    rng = np.random.default_rng(29)
    x = Instance("stovsp", "dense", 0, {"slack": rng.random(poly.dim)}, poly, scenario_seed=3)
    thetas = rng.standard_normal((6, poly.dim))
    thetas = np.concatenate([thetas, thetas[:2]])  # repeated solutions are costed once
    oracle = StoVspDelayCost()
    reference = assignment_reference(oracle, x, thetas)
    calls = count_flow_solves(monkeypatch)
    batch = oracle.eval_theta_batch(x, thetas)
    assert len(calls) == len(thetas)
    assert np.array_equal(batch, reference)  # bitwise


def layout_cases(domain):
    """(oracle, instance, thetas) batches of one domain: scheduling for
    2 <= d <= 7 on both kernel paths (d! - 1 rows sort, d! + 3 read the
    run-order table), with ties; stovsp at enumerable sizes; contextual
    with signed zeros."""
    if domain == "scheduling":
        for d in range(2, 8):
            (x,) = generate_instances("scheduling", 1, seed=d, jobs=[d])
            rng = np.random.default_rng(d)
            for k in (math.factorial(d) - 1, math.factorial(d) + 3):
                yield SchedulingCompletionTime(), x, np.round(rng.standard_normal((k, d)), 1)
    elif domain == "stovsp":
        for x, thetas in itertools.islice(stovsp_crn_directions(n=4), 0, None, 2):
            yield StoVspDelayCost(), x, thetas
    else:
        rng = np.random.default_rng(5)
        for x in generate_instances("contextual", 3, seed=5):
            thetas = np.round(rng.standard_normal((64, 1)), 1)
            thetas[:2, 0] = 0.0, -0.0
            yield ContextualWrapper(), x, thetas


@pytest.mark.parametrize("domain", ["scheduling", "stovsp", "contextual"])
def test_theta_batch_is_the_same_bits_in_any_layout(domain, monkeypatch):
    # the risk pass hands each batch over as the transpose of a C-ordered
    # (dim, rows) column buffer, an F-ordered view.  A matmul's bits can
    # depend on the layout it reads, so stovsp scores C-ordered rows.
    def c_ordered_argmax(directions, verts):
        assert directions.flags.c_contiguous
        return _vertex_argmax(directions, verts)

    monkeypatch.setattr(problems, "_vertex_argmax", c_ordered_argmax)
    for oracle, x, thetas in layout_cases(domain):
        view = np.ascontiguousarray(thetas.T).T
        assert view.flags.f_contiguous
        assert np.array_equal(
            oracle.eval_theta_batch(x, view).view(np.int64),
            oracle.eval_theta_batch(x, np.ascontiguousarray(view)).view(np.int64),
        )


def test_stovsp_banned_and_forced_solves_match_brute_force():
    # the tie flag rests on these two optima
    for x, thetas in stovsp_crn_directions():
        poly = x.polytope
        verts = poly.vertices()
        for theta in thetas:
            scores = verts @ theta
            for e in range(poly.dim):
                for kw, has_e in (({"banned": e}, 0.0), ({"forced": e}, 1.0)):
                    y, value = poly._min_cost_flow(theta, **kw)
                    best = float(np.max(scores[verts[:, e] == has_e]))
                    assert y[e] == has_e
                    assert value == pytest.approx(best, abs=1e-12)
                    assert float(y @ theta) == pytest.approx(value, abs=1e-12)


# ---------------------------------------------------------------------------
# generation


def test_generation_deterministic():
    a = generate_instances("scheduling", 5, seed=7, jobs=[4])
    b = generate_instances("scheduling", 5, seed=7, jobs=[4])
    assert [instance_to_doc(x) for x in a] == [instance_to_doc(x) for x in b]


def test_generation_rejects_bad_sizes():
    with pytest.raises(ValueError):
        generate_instances("scheduling", 0, seed=1)
    with pytest.raises(ValueError):
        generate_instances("contextual", 3, seed=1, d_context=0)
    with pytest.raises(ValueError):
        generate_instances("unknown", 3, seed=1)


def test_partition_cells_share_polytope():
    instances = generate_instances("stovsp", 30, seed=5, tasks=[5])
    by_cell = {}
    for x in instances:
        by_cell.setdefault(x.partition_id, set()).add(
            (x.polytope.n_tasks, tuple(x.polytope.arcs))
        )
    for cell, shapes in by_cell.items():
        assert len(shapes) == 1, cell


def test_partition_frequencies_balanced():
    instances = generate_instances("scheduling", 4000, seed=3, jobs=[3, 4])
    frac3 = np.mean([x.partition_id == "jobs3" for x in instances])
    # binomial 3 sigma at n = 4000 is ~0.024
    assert abs(frac3 - 0.5) < 0.03


def test_features_within_declared_boxes():
    instances = generate_instances(
        "scheduling", 50, seed=9, jobs=[4], r_max=1.0, p_min=0.2, p_max=1.0
    )
    for x in instances:
        assert np.all(x.features["release"] >= 0.0)
        assert np.all(x.features["release"] <= 1.0)
        assert np.all(x.features["processing"] >= 0.2)
        assert np.all(x.features["processing"] <= 1.0)


def test_costs_within_declared_bounds():
    instances = generate_instances("scheduling", 20, seed=2, jobs=[4])
    oracle = SchedulingCompletionTime()
    for x in instances:
        lo, hi = oracle.bounds(x)
        vals = oracle.eval_vertices(x, x.polytope.vertices())
        assert np.all(vals >= lo - 1e-12)
        assert np.all(vals <= hi + 1e-12)


# ---------------------------------------------------------------------------
# oscillation


def test_osc_scheduling_two_jobs():
    x = scheduling_instance([0.0, 0.0], [1.0, 2.0])
    assert osc_bound(SchedulingCompletionTime(), [x]) == pytest.approx(1.0)


def test_osc_constant_cost_is_zero():
    x = generate_instances("contextual", 1, seed=0)[0]
    x.features["costs"][:] = [0.4, 0.4]
    assert osc_bound(ContextualWrapper(), [x]) == pytest.approx(0.0)


def test_osc_stovsp_vehicle_count():
    # zero delays, vehicle charge 10, 3-task chain: 1 vs 3 paths -> osc 20
    x, oracle = vsp_instance(
        [(0, 1), (1, 2)], 3, slack=[1.0, 1.0], scenario_table=np.zeros((2, 3))
    )
    oracle.c_vehicle = 10.0
    assert osc_bound(oracle, [x]) == pytest.approx(20.0)


def test_declared_osc_dominates_exact():
    instances = generate_instances("scheduling", 10, seed=4, jobs=[3])
    oracle = SchedulingCompletionTime()
    assert declared_osc(oracle, instances) >= osc_bound(oracle, instances)


# ---------------------------------------------------------------------------
# feature matrices


def test_feature_matrix_shapes_and_norms():
    for domain, kw in (
        ("scheduling", {"jobs": [4]}),
        ("stovsp", {"tasks": [5]}),
        ("contextual", {"d_context": 3}),
    ):
        for x in generate_instances(domain, 5, seed=1, **kw):
            phi = feature_matrix(x, d_model=3 if domain != "scheduling" else 2)
            assert phi.shape[0] == x.dim
            assert np.max(np.abs(phi)) <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# serialization


def test_instance_roundtrip(tmp_path):
    for domain, kw in (
        ("scheduling", {"jobs": [3, 4]}),
        ("stovsp", {"tasks": [4]}),
        ("contextual", {}),
    ):
        instances = generate_instances(domain, 6, seed=8, **kw)
        path = tmp_path / f"{domain}.jsonl"
        save_instances(path, instances)
        loaded = load_instances(path)
        assert [instance_to_doc(x) for x in loaded] == [
            instance_to_doc(x) for x in instances
        ]
        # byte-stable on re-save
        path2 = tmp_path / f"{domain}2.jsonl"
        save_instances(path2, loaded)
        assert path.read_bytes() == path2.read_bytes()


def test_load_shares_one_polytope_per_partition_cell(tmp_path):
    instances = generate_instances("stovsp", 24, seed=7, tasks=[4, 5, 6])
    path = tmp_path / "stovsp.jsonl"
    save_instances(path, instances)
    loaded = load_instances(path)
    cells = {}
    for x in loaded:
        cells.setdefault(x.partition_id, set()).add(id(x.polytope))
    assert len(cells) > 1
    assert all(len(ids) == 1 for ids in cells.values())
    assert len({id(x.polytope) for x in loaded}) == len(cells)
    assert [instance_to_doc(x) for x in loaded] == [instance_to_doc(x) for x in instances]
    # a second load builds its own polytopes, and so does a single document
    assert load_instances(path)[0].polytope is not loaded[0].polytope
    assert instance_from_doc(instance_to_doc(loaded[0])).polytope is not loaded[0].polytope


def test_format_versioning():
    x = generate_instances("contextual", 1, seed=0)[0]
    doc = instance_to_doc(x)
    assert doc["format"] == "perturbopt-instances"
    bad = dict(doc, version=99)
    with pytest.raises(ValueError):
        instance_from_doc(bad)
    with pytest.raises(ValueError):
        instance_from_doc({"format": "something-else"})
    assert json.dumps(doc)  # json-serializable

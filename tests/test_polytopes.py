import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from perturbopt.polytopes import (
    EnumerationUnavailable,
    Permutahedron,
    SolutionPolytope,
    VspFlow,
    internal_radius,
    internal_radius_batch,
    linear_oracle,
    p0,
)


def sample_polytopes():
    return [
        Permutahedron(2),
        Permutahedron(3),
        Permutahedron(4),
        VspFlow(2, [(0, 1)]),
        VspFlow(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2), (1, 3), (2, 4)]),
    ]


# ---------------------------------------------------------------------------
# linear_oracle


def test_permutahedron_oracle_spec_example():
    res = linear_oracle(Permutahedron(3), [0.5, -1.2, 3.0])
    assert res.y.tolist() == [2.0, 1.0, 3.0]
    assert not res.tie


def test_degenerate_direction_ties():
    res = linear_oracle(Permutahedron(3), [0.0, 0.0, 0.0])
    assert res.tie


def test_dag_oracle_spec_example():
    # task DAG 0->1->2 with shortcut 0->2: the chain beats the shortcut
    dag = VspFlow(3, [(0, 1), (1, 2), (0, 2)])
    res = linear_oracle(dag, [1.0, 1.0, 1.5])
    assert res.y.tolist() == [1.0, 1.0, 0.0]
    assert res.value == 2.0
    assert not res.tie
    # negative arcs are left out: every task gets its own vehicle
    res = linear_oracle(dag, [-1.0, -1.0, -1.5])
    assert res.y.tolist() == [0.0, 0.0, 0.0]
    assert res.value == 0.0
    assert not res.tie


def test_oracle_matches_brute_force_everywhere():
    rng = np.random.default_rng(42)
    for poly in sample_polytopes():
        verts = poly.vertices()
        for _ in range(200):
            theta = rng.standard_normal(poly.dim)
            res = linear_oracle(poly, theta)
            scores = verts @ theta
            assert res.value == pytest.approx(float(np.max(scores)), abs=1e-9)
            assert float(res.y @ theta) == pytest.approx(res.value)


def test_tie_flag_matches_enumeration():
    rng = np.random.default_rng(7)
    for poly in sample_polytopes():
        verts = poly.vertices()
        thetas = [rng.standard_normal(poly.dim) for _ in range(40)]
        # engineered exact ties: integer-valued directions
        thetas += [rng.integers(-1, 2, poly.dim).astype(float) for _ in range(40)]
        for theta in thetas:
            res = linear_oracle(poly, theta)
            scores = verts @ theta
            n_opt = int(np.sum(scores >= np.max(scores) - 1e-12))
            assert res.tie == (n_opt >= 2), (poly, theta, n_opt)


def test_oracle_input_validation():
    with pytest.raises(ValueError):
        linear_oracle(Permutahedron(3), [1.0, 2.0])
    with pytest.raises(ValueError):
        linear_oracle(Permutahedron(3), [1.0, np.nan, 0.0])


def test_vsp_rejects_duplicate_arcs():
    # parallel arcs would share one cell of the assignment matrix
    with pytest.raises(ValueError, match="duplicate"):
        VspFlow(3, [(0, 1), (1, 2), (0, 1)])


@given(st.lists(st.floats(-100, 100), min_size=2, max_size=6))
@settings(max_examples=200, deadline=None)
def test_permutahedron_oracle_is_rank_vector(theta):
    n = len(theta)
    res = linear_oracle(Permutahedron(n), np.array(theta))
    assert sorted(res.y.tolist()) == list(range(1, n + 1))
    best = max(
        sum(p[i] * theta[i] for i in range(n))
        for p in itertools.permutations(range(1, n + 1))
    )
    assert res.value == pytest.approx(best, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# internal_radius


def test_internal_radius_examples():
    one_d = VspFlow(2, [(0, 1)])  # Y = {0, 1} in R
    assert internal_radius(one_d, np.array([0.7])) == pytest.approx(0.7)
    perm3 = Permutahedron(3)
    assert internal_radius(perm3, np.array([1.0, 2.0, 4.0])) == pytest.approx(
        1.0 / np.sqrt(2.0)
    )
    assert internal_radius(perm3, np.array([1.0, 1.0, 4.0])) == 0.0


def test_internal_radius_positive_homogeneity():
    rng = np.random.default_rng(3)
    for poly in sample_polytopes():
        for _ in range(20):
            theta = rng.standard_normal(poly.dim)
            rho = internal_radius(poly, theta)
            # powers of two scale floats exactly
            assert internal_radius(poly, 2.0 * theta) == 2.0 * rho
            assert internal_radius(poly, 0.5 * theta) == 0.5 * rho
            assert internal_radius(poly, 3.0 * theta) == pytest.approx(
                3.0 * rho, rel=1e-12
            )


def test_oracle_invariant_inside_internal_radius():
    rng = np.random.default_rng(11)
    for poly in sample_polytopes():
        for _ in range(10):
            theta = rng.standard_normal(poly.dim)
            rho = internal_radius(poly, theta)
            if rho == 0.0:
                continue
            base = linear_oracle(poly, theta).y
            for _ in range(100):
                u = rng.standard_normal(poly.dim)
                u /= np.linalg.norm(u)
                probe = linear_oracle(poly, theta + 0.99 * rho * u).y
                assert np.array_equal(probe, base)


def test_internal_radius_equals_halfspace_distance():
    # rho is the min distance to the winning cone's constraint hyperplanes
    rng = np.random.default_rng(5)
    poly = Permutahedron(3)
    verts = poly.vertices()
    for _ in range(50):
        theta = rng.standard_normal(3)
        res = linear_oracle(poly, theta)
        i = int(np.argmax(verts @ theta))
        dists = []
        for j in range(len(verts)):
            if j == i:
                continue
            normal = verts[i] - verts[j]
            dists.append(float(normal @ theta) / np.linalg.norm(normal))
        assert internal_radius(poly, theta) == pytest.approx(min(dists), abs=1e-12)


def test_internal_radius_batch_matches_scalar():
    rng = np.random.default_rng(9)
    poly = Permutahedron(4)
    thetas = rng.standard_normal((50, 4))
    batch = internal_radius_batch(poly, thetas)
    for k in range(50):
        assert batch[k] == pytest.approx(internal_radius(poly, thetas[k]), abs=1e-14)


# ---------------------------------------------------------------------------
# p0


def test_p0_dirac_on_interior_point():
    one_d = VspFlow(2, [(0, 1)])
    measure = p0(one_d, np.array([0.7]))
    assert measure.is_dirac
    assert measure.atoms[0][0].tolist() == [1.0]
    assert measure.atoms[0][1] == 1.0


def test_p0_symmetric_boundary_split():
    one_d = VspFlow(2, [(0, 1)])
    measure = p0(one_d, np.array([0.0]), rng=np.random.default_rng(0))
    probs = {tuple(a.tolist()): p for a, p in measure.atoms}
    assert abs(probs[(0.0,)] - 0.5) < 0.01
    assert abs(probs[(1.0,)] - 0.5) < 0.01


def test_p0_permutahedron_facet_split():
    measure = p0(Permutahedron(3), np.array([1.0, 1.0, 4.0]), rng=np.random.default_rng(1))
    probs = {tuple(a.tolist()): p for a, p in measure.atoms}
    assert set(probs) == {(1.0, 2.0, 3.0), (2.0, 1.0, 3.0)}
    for p in probs.values():
        assert abs(p - 0.5) < 0.01


def test_p0_probabilities_sum_to_one():
    rng = np.random.default_rng(13)
    for poly in sample_polytopes()[:4]:
        for _ in range(5):
            theta = rng.integers(-1, 2, poly.dim).astype(float)
            measure = p0(poly, theta, rng=rng)
            total = sum(p for _, p in measure.atoms)
            if measure.is_dirac:
                assert total == 1.0
            else:
                assert total == pytest.approx(1.0, abs=1e-12)


def test_rho_consistent_with_fan_distances():
    # on a VSP polytope too, rho is the min distance to the winning cone's
    # halfspaces {theta : <y* - y', theta> >= 0}
    poly = sample_polytopes()[4]
    verts = poly.vertices()
    rng = np.random.default_rng(17)
    for _ in range(30):
        theta = rng.standard_normal(poly.dim)
        i = int(np.argmax(verts @ theta))
        diffs = verts[i] - np.delete(verts, i, axis=0)
        normals = diffs / np.linalg.norm(diffs, axis=1, keepdims=True)
        dist = float(np.min(normals @ theta))
        assert internal_radius(poly, theta) == pytest.approx(dist, abs=1e-12)


# ---------------------------------------------------------------------------
# vertex sets


def test_permutahedron_vertices_are_permutations():
    verts = Permutahedron(3).vertices()
    assert len(verts) == 6
    assert {tuple(v) for v in verts} == {
        tuple(map(float, p)) for p in itertools.permutations((1, 2, 3))
    }


def test_vertices_are_extreme_points():
    # no vertex is a convex combination of the others (LP infeasibility)
    for poly in [Permutahedron(3), sample_polytopes()[4]]:
        verts = poly.vertices()
        n = len(verts)
        idx = np.linspace(0, n - 1, min(n, 8)).astype(int)
        for i in idx:
            others = np.delete(verts, i, axis=0)
            a_eq = np.vstack([others.T, np.ones(n - 1)])
            b_eq = np.concatenate([verts[i], [1.0]])
            res = linprog(
                np.zeros(n - 1), A_eq=a_eq, b_eq=b_eq, bounds=(0, 1), method="highs"
            )
            assert not res.success, f"vertex {i} of {poly!r} is not extreme"


def test_uncentered_span_is_full_dimensional():
    # the embedding convention: the linear span of the vertex set fills R^d
    for poly in sample_polytopes():
        assert np.linalg.matrix_rank(poly.vertices()) == poly.dim


def test_enumeration_cap():
    big = Permutahedron(8)  # 40320 vertices > cap
    assert not big.enumerable
    with pytest.raises(EnumerationUnavailable):
        big.vertices()
    # the oracle still works above the cap
    res = linear_oracle(big, np.arange(8.0))
    assert res.y.tolist() == [float(i) for i in range(1, 9)]


def test_vsp_enumeration_stops_at_cap_on_dense_dag():
    # all 91 arcs i < j on 14 tasks: the subsets are the set partitions of
    # the tasks, Bell(14) = 190,899,322 of them, too many to count in full
    n = 14
    arcs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    poly = VspFlow(n, arcs)
    assert not poly.enumerable
    with pytest.raises(EnumerationUnavailable):
        poly.vertices()
    # the oracle still works above the cap; the degree constraint matrix is
    # bipartite, hence totally unimodular, so the LP optimum is integral
    theta = np.random.default_rng(23).standard_normal(len(arcs))
    a_ub = np.zeros((2 * n, len(arcs)))
    for e, (i, j) in enumerate(arcs):
        a_ub[i, e] = 1.0
        a_ub[n + j, e] = 1.0
    lp = linprog(-theta, A_ub=a_ub, b_ub=np.ones(2 * n), bounds=(0, 1), method="highs")
    res = linear_oracle(poly, theta)
    assert res.value == pytest.approx(-lp.fun, abs=1e-9)
    assert float(res.y @ theta) == pytest.approx(res.value, abs=1e-12)


def test_vsp_vertex_count_and_paths():
    poly = VspFlow(3, [(0, 1), (1, 2)])
    verts = poly.vertices()
    # arc subsets of a 3-chain with degree caps: {}, {a0}, {a1}, {a0,a1}
    assert len(verts) == 4
    y_full = np.array([1.0, 1.0])
    assert poly.n_paths(y_full) == 1
    assert poly.paths(y_full) == [[0, 1, 2]]
    assert poly.n_paths(np.zeros(2)) == 3

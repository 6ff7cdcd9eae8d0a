import itertools
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from perturbopt import polytopes
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
from perturbopt.problems import Instance
from perturbopt.theory import uw_analytic_bound


def assert_path_partition(poly, y):
    """y is a 0/1 arc vector with in- and out-degree at most one per task."""
    assert y.shape == (poly.dim,) and np.all((y == 0.0) | (y == 1.0)), y
    used = y == 1.0
    assert np.bincount(poly._tails[used], minlength=poly.n_tasks).max() <= 1, y
    assert np.bincount(poly._heads[used], minlength=poly.n_tasks).max() <= 1, y


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
            if isinstance(poly, VspFlow):
                # every solution the assignment returns, banned and forced
                # ones included, is a path partition
                arc = int(rng.integers(poly.dim))
                for kw in ({}, {"banned": arc}, {"forced": arc}):
                    assert_path_partition(poly, poly._min_cost_flow(theta, **kw)[0])


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


def _radius_reference(poly, thetas):
    """internal_radius_batch's formula in one unblocked pass, with fresh
    arrays for the scores, gaps, distances and ratios."""
    verts = poly.vertices()
    scores = thetas @ verts.T
    rows = np.arange(len(scores))
    winner = np.argmax(scores, axis=1)
    gaps = scores[rows, winner][:, None] - scores
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = gaps / poly._pairwise_distances()[winner]
    ratio[rows, winner] = np.inf
    return np.maximum(np.min(ratio, axis=1), 0.0)


def test_internal_radius_batch_is_bitwise_the_reference_formula(monkeypatch):
    rng = np.random.default_rng(12)
    for poly in sample_polytopes():
        thetas = rng.standard_normal((257, poly.dim))
        thetas[:20] = np.round(thetas[:20])  # integer directions: ties, radius 0
        want = _radius_reference(poly, thetas)
        assert np.array_equal(internal_radius_batch(poly, thetas), want)
        # 7 rows per block, so the last block is shorter than the buffers
        monkeypatch.setattr(polytopes, "_BLOCK_ELEMENTS", 7 * len(poly.vertices()))
        assert np.array_equal(internal_radius_batch(poly, thetas), want)
        monkeypatch.undo()


def test_internal_radius_batch_memory_stays_within_two_blocks(monkeypatch):
    import tracemalloc

    poly = Permutahedron(6)  # 720 vertices
    n_verts = len(poly.vertices())
    poly._pairwise_distances()  # cached before the measurement
    block_rows = 200
    monkeypatch.setattr(polytopes, "_BLOCK_ELEMENTS", block_rows * n_verts)
    thetas = np.random.default_rng(5).standard_normal((5 * block_rows, 6))
    tracemalloc.start()
    try:
        internal_radius_batch(poly, thetas)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block_bytes = block_rows * n_verts * 8
    # the two block buffers plus per-row vectors
    assert peak < 2.25 * block_bytes


# ---------------------------------------------------------------------------
# p0


def test_p0_dirac_on_interior_point():
    one_d = VspFlow(2, [(0, 1)])
    measure = p0(one_d, np.array([0.7]), rng=None)
    assert len(measure.atoms) == 1
    assert measure.atoms[0][0].tolist() == [1.0]
    assert measure.atoms[0][1] == 1.0


def _split(measure):
    return {tuple(y.tolist()): p for y, p in measure.atoms}


def chain3():
    """Three tasks, arcs 0->1 and 1->2: vertices 00, 01, 10 and 11."""
    return VspFlow(3, [(0, 1), (1, 2)])


def test_p0_symmetric_boundary_split():
    # two tied vertices get exact halves on any polytope, because Z and -Z
    # are equally likely; no draw is made
    cases = [
        (VspFlow(2, [(0, 1)]), [0.0], {(0.0,), (1.0,)}),
        (chain3(), [1.0, 0.0], {(1.0, 0.0), (1.0, 1.0)}),
        (sample_polytopes()[4], [2.0, 1.0, 0.0, -1.0, -1.0, -2.0, -2.0], None),
    ]
    for poly, theta, want in cases:
        split = _split(p0(poly, np.array(theta), rng=None))
        assert len(split) == 2 and set(split.values()) == {0.5}
        assert want is None or set(split) == want


def test_p0_permutahedron_facet_split():
    # a permutahedron tie is uniform over every order of theta's groups of
    # equal coordinates, since Z is exchangeable within a group; no draw
    cases = [
        (Permutahedron(3), [1.0, 1.0, 4.0], 2),
        (Permutahedron(4), [0.5, 0.5, -2.0, -2.0], 4),
        (Permutahedron(4), [3.0, 3.0, 3.0, -1.0], 6),
        (Permutahedron(4), [0.0, 0.0, 0.0, 0.0], 24),
    ]
    for poly, theta, n_tied in cases:
        measure = p0(poly, np.array(theta), rng=None)
        assert len(measure.atoms) == n_tied
        assert all(p == 1.0 / n_tied for _, p in measure.atoms)
        for y, _ in measure.atoms:
            # every atom maximizes <y, theta>: it ranks the groups in order
            assert y @ theta == max(v @ theta for v in poly.vertices())
    assert set(_split(p0(Permutahedron(3), np.array([1.0, 1.0, 4.0]), rng=None))) == {
        (1.0, 2.0, 3.0), (2.0, 1.0, 3.0)
    }


def test_p0_tie_needs_an_rng():
    # only a tie that no symmetry splits, three or more VspFlow vertices, draws
    poly = chain3()
    with pytest.raises(ValueError, match="needs an rng"):
        p0(poly, np.zeros(2), rng=None)
    assert _split(p0(poly, np.array([1.0, 1.0]), rng=None)) == {(1.0, 1.0): 1.0}  # no tie
    probs = _split(p0(poly, np.zeros(2), rng=np.random.default_rng(0)))
    assert set(probs) == {(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)}  # one quadrant each
    for p in probs.values():
        assert abs(p - 0.25) < 4.0 * np.sqrt(0.25 * 0.75 / polytopes.P0_SAMPLES)


def _ball_split(poly, theta, rng, n):
    """The tie split p0 once estimated, kept as a reference: the share of n
    probes, uniform in a ball of radius 1e-9 (1 + |theta|) around theta,
    that each vertex wins over the whole vertex table."""
    g = rng.standard_normal((n, poly.dim))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    radius = 1e-9 * (1.0 + np.linalg.norm(theta))
    probes = theta + radius * g * rng.random(n)[:, None] ** (1.0 / poly.dim)
    verts = poly.vertices()
    counts = np.bincount(np.argmax(probes @ verts.T, axis=1), minlength=len(verts))
    return {tuple(v.tolist()): c / n for v, c in zip(verts, counts) if c > 0}


@pytest.mark.parametrize(
    "poly, theta",
    [
        (Permutahedron(3), [1.0, 1.0, 4.0]),
        (Permutahedron(4), [0.5, 0.5, -2.0, -2.0]),
        (Permutahedron(4), [0.0, 0.0, 0.0, 0.0]),
        (chain3(), [1.0, 0.0]),
        (chain3(), [0.0, 0.0]),
        (sample_polytopes()[4], [0.0] * 7),
        (sample_polytopes()[4], [2.0, 1.0, 1.0, 0.0, 0.0, 2.0, -1.0]),
    ],
    ids=["perm3-facet", "perm4-aabb", "perm4-zero", "vsp-two", "vsp-zero", "vsp5-zero", "vsp5-face"],
)
def test_p0_agrees_with_the_ball_monte_carlo(poly, theta):
    # the exact splits and the Gaussian one are the law the tiny-ball
    # estimate approximated: each vertex within 4 standard errors
    theta = np.array(theta)
    n = 40_000
    ball = _ball_split(poly, theta, np.random.default_rng(5), n)
    split = _split(p0(poly, theta, rng=np.random.default_rng(6)))
    assert set(split) == set(ball)
    for y, p in split.items():
        se = np.sqrt(p * (1.0 - p) * (1.0 / n + 1.0 / polytopes.P0_SAMPLES))
        assert abs(p - ball[y]) <= 4.0 * se + 1e-12, (y, p, ball[y])


def test_p0_reads_the_vertex_table_alone(monkeypatch):
    # no oracle call, tie or not; past the enumeration cap p0 raises even
    # off a tie, where the oracle alone could have answered
    def no_oracle(self, theta):
        raise AssertionError("p0 called argmax")

    monkeypatch.setattr(Permutahedron, "argmax", no_oracle)
    monkeypatch.setattr(VspFlow, "argmax", no_oracle)
    rng = np.random.default_rng(2)
    for poly in sample_polytopes():
        for theta in (np.zeros(poly.dim), rng.standard_normal(poly.dim)):
            assert sum(p for _, p in p0(poly, theta, rng=rng).atoms) == pytest.approx(1.0)
    measure = p0(Permutahedron(3), np.array([0.3, -1.2, 0.8]), rng=None)
    assert [(y.tolist(), p) for y, p in measure.atoms] == [([2.0, 1.0, 3.0], 1.0)]
    with pytest.raises(EnumerationUnavailable):
        p0(Permutahedron(8), np.arange(8.0), rng=None)


def test_p0_vsp_tie_split_loads_no_scipy_optimize():
    import perturbopt

    code = (
        "import sys, numpy as np\n"
        "from perturbopt.polytopes import VspFlow, p0\n"
        "m = p0(VspFlow(3, [(0, 1), (1, 2)]), np.zeros(2), np.random.default_rng(0))\n"
        "print(len(m.atoms), 'scipy.optimize' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(perturbopt.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["4", "False"]


def test_p0_probabilities_sum_to_one():
    rng = np.random.default_rng(13)
    for poly in sample_polytopes()[:4]:
        for _ in range(5):
            theta = rng.integers(-1, 2, poly.dim).astype(float)
            measure = p0(poly, theta, rng=rng)
            total = sum(p for _, p in measure.atoms)
            if len(measure.atoms) == 1:
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
    for poly in map(Permutahedron, range(1, 7)):
        verts = poly.vertices()
        assert len(verts) == len({tuple(v) for v in verts}) == poly.vertex_count()
        assert np.array_equal(np.sort(verts, axis=1), np.tile(np.arange(1.0, poly.n + 1), (len(verts), 1)))


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
    with pytest.raises(EnumerationUnavailable):
        big.vertices()
    assert big.vertex_count() == 40320
    # the oracle still works above the cap
    res = linear_oracle(big, np.arange(8.0))
    assert res.y.tolist() == [float(i) for i in range(1, 9)]


def test_failed_enumeration_is_remembered():
    # one walk to one vertex past the cap; later calls raise at once
    big = Permutahedron(8)
    walks = []
    real = big._iter_vertices

    def counting():
        walks.append(1)
        return real()

    big._iter_vertices = counting
    for _ in range(3):
        with pytest.raises(EnumerationUnavailable):
            big.vertices()
    assert walks == [1]


def test_blocked_vertex_argmax_equals_unblocked(monkeypatch):
    rng = np.random.default_rng(31)
    for poly in sample_polytopes():
        verts = poly.vertices()
        # generic rows, and integer rows, which often tie
        directions = np.vstack(
            [rng.standard_normal((129, poly.dim)), rng.integers(-1, 2, (128, poly.dim))]
        )
        scores = directions @ verts.T
        winners = np.argmax(scores, axis=1)
        ties = np.count_nonzero(scores >= scores.max(axis=1, keepdims=True) - polytopes.TIE_TOL, axis=1) > 1
        assert ties.any() and not ties.all()
        # 7 rows per block: 36 full blocks and a last one of 5 rows; then
        # below one row's worth, where a block is still one row
        for elements in (7 * len(verts) + 1, 1):
            monkeypatch.setattr(polytopes, "_BLOCK_ELEMENTS", elements)
            got_winners, got_ties = polytopes._vertex_argmax(directions, verts)
            assert np.array_equal(got_winners, winners)
            assert np.array_equal(got_ties, ties)
        monkeypatch.undo()


def test_vsp_enumeration_stops_at_cap_on_dense_dag():
    # all 91 arcs i < j on 14 tasks: the subsets are the set partitions of
    # the tasks, Bell(14) = 190,899,322 of them, too many to count in full
    n = 14
    arcs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    poly = VspFlow(n, arcs)
    with pytest.raises(EnumerationUnavailable):
        poly.vertices()
    with pytest.raises(EnumerationUnavailable):
        poly.vertex_count()
    x = Instance("stovsp", "dense", 0, {}, poly, scenario_seed=0)
    with pytest.raises(EnumerationUnavailable):
        uw_analytic_bound([x], 0.5, 1e-3)
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
    assert_path_partition(poly, res.y)


def test_vsp_vertex_count_and_paths():
    poly = VspFlow(3, [(0, 1), (1, 2)])
    verts = poly.vertices()
    # arc subsets of a 3-chain with degree caps: {}, {a0}, {a1}, {a0,a1}
    assert len(verts) == 4
    y_full = np.array([1.0, 1.0])
    assert poly.n_paths(y_full) == 1
    assert poly.paths(y_full) == [[0, 1, 2]]
    assert poly.n_paths(np.zeros(2)) == 3
    # every vertex is a distinct path partition; on all 15 arcs i < j of 6
    # tasks they are the set partitions of the tasks, Bell(6) = 203
    dense = VspFlow(6, [(i, j) for i in range(6) for j in range(i + 1, 6)])
    assert len(dense.vertices()) == 203
    for poly in [p for p in sample_polytopes() if isinstance(p, VspFlow)] + [dense]:
        verts = poly.vertices()
        assert len({tuple(v) for v in verts}) == len(verts)
        for y in verts:
            assert_path_partition(poly, y)

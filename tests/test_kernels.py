import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perturbopt import kernels
from perturbopt.polytopes import ENUMERATION_CAP, Permutahedron
from perturbopt.problems import SchedulingCompletionTime, generate_instances


def sorted_recursion(theta, release, processing):
    """Reference: a stable argsort per row, then the completion recursion."""
    theta = np.asarray(theta, dtype=np.float64)
    k, d = theta.shape
    order = np.argsort(-theta, axis=1, kind="stable")
    clock = np.zeros(k)
    total = np.zeros(k)
    for pos in range(d):
        j = order[:, pos]
        clock = np.maximum(clock, release[j]) + processing[j]
        total = total + clock
    return total


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


def test_scheduling_cost_hand_examples():
    release = np.array([0.0, 0.0])
    processing = np.array([1.0, 2.0])
    # priority (2,1): job 1 first -> C = 1, 3 -> 4
    assert kernels.scheduling_total_completion(np.array([[2.0, 1.0]]), release, processing)[0] == 4.0
    # priority (1,2): job 2 first -> C = 2, 3 -> 5
    assert kernels.scheduling_total_completion(np.array([[1.0, 2.0]]), release, processing)[0] == 5.0
    # both rows in one batch of k = 2! rows read the run-order table
    both = kernels.scheduling_total_completion(np.array([[2.0, 1.0], [1.0, 2.0]]), release, processing)
    assert both.tolist() == [4.0, 5.0]


def test_scheduling_cost_with_release_gap():
    # one job released late: machine idles
    release = np.array([0.0, 5.0])
    processing = np.array([1.0, 1.0])
    cost = kernels.scheduling_total_completion(np.array([[2.0, 1.0]]), release, processing)[0]
    # C1 = 1, C2 = max(1, 5) + 1 = 6 -> 7
    assert cost == 7.0


def test_backend_reports_name():
    assert kernels.backend() == "numpy"


# Coordinates that tie often: repeated values, integers and both zeros.
TIE_VALUES = [0.0, -0.0, 1.0, -1.0, 2.0, 0.5, -0.5]


@st.composite
def tied_batches(draw):
    """A (k, d) batch, d in 1..8, k below, at or above d! (k = 0 included),
    whose rows tie often: integer rows, all-zero rows and mixed 0.0/-0.0
    rows, plus hypothesis-drawn rows at the front."""
    d = draw(st.integers(1, 8))
    n_orders = math.factorial(d)
    k = draw(st.sampled_from([0, n_orders - 1, n_orders, n_orders + draw(st.integers(1, 64))]))
    coord = st.sampled_from(TIE_VALUES) | st.floats(-1e3, 1e3, allow_subnormal=True)
    front = draw(st.lists(st.lists(coord, min_size=d, max_size=d), max_size=min(k, 12)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = np.stack(
        [
            rng.standard_normal((k, d)),
            rng.integers(-2, 3, size=(k, d)).astype(np.float64),  # integer theta
            np.where(rng.random((k, d)) < 0.5, 0.0, -0.0),  # mixed signed zeros
            np.zeros((k, d)),
        ]
    )
    rows = pool[rng.integers(len(pool), size=k), np.arange(k)]
    if front:
        rows[: len(front)] = front
    return rows


@given(theta=tied_batches(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=120, deadline=None)
def test_scheduling_kernel_equals_sorted_recursion_bitwise(theta, seed):
    k, d = theta.shape
    rng = np.random.default_rng(seed)
    release = rng.random(d) * rng.choice([0.0, 1.0, 3.0])
    processing = 0.2 + rng.random(d)
    got = kernels.scheduling_total_completion(theta, release, processing)
    assert got.shape == (k,)
    assert np.array_equal(bits(got), bits(sorted_recursion(theta, release, processing)))
    # the rows scored in a batch below d! rows (the sort path) get equal bits
    below = theta[: math.factorial(d) - 1]
    small = kernels.scheduling_total_completion(below, release, processing)
    assert np.array_equal(bits(small), bits(got[: len(below)]))


def pairwise_rank(theta):
    """Reference: the rank as one comparison per pair of columns, each
    counted into an int16 buffer."""
    k, d = theta.shape
    cols = np.ascontiguousarray(theta.T)
    rank = np.zeros(k, dtype=np.int16)
    count = np.empty(k, dtype=np.int16)
    later = np.empty(k, dtype=bool)
    for i in range(d - 1):
        count.fill(0)
        for j in range(i + 1, d):
            np.greater_equal(cols[i], cols[j], out=later)
            count += later
        count *= math.factorial(d - 1 - i)
        rank += count
    return rank


@pytest.mark.parametrize("layout", ["C", "F"])
@pytest.mark.parametrize("d", range(2, 8))
def test_scheduling_rank_equals_the_pairwise_loop(monkeypatch, d, layout):
    # the table path's rank, read through a table whose entry r is r, is
    # the pairwise loop's on tie-heavy batches in either memory layout
    def rank_table(order, release, processing):
        return np.arange(len(order), dtype=np.float64)

    monkeypatch.setattr(kernels, "_recursion", rank_table)
    rng = np.random.default_rng(d)
    k = math.factorial(d) + 200
    for theta in (
        rng.integers(-2, 3, size=(k, d)).astype(np.float64),  # integer theta
        np.where(rng.random((k, d)) < 0.5, 0.0, -0.0),  # mixed signed zeros
        rng.choice(TIE_VALUES, size=(k, d)),
        rng.standard_normal((k, d)),
    ):
        theta = np.asarray(theta, order=layout)
        got = kernels.scheduling_total_completion(theta, np.zeros(d), np.ones(d))
        assert np.array_equal(got, pairwise_rank(theta).astype(np.float64))


@pytest.mark.parametrize("d", range(1, 9))
def test_scheduling_kernel_path_follows_batch_size(monkeypatch, d):
    """A batch of at least d! rows within the cap costs the run-order table,
    whose rows follow ``Permutahedron(d).vertices()``; any other batch sorts."""
    calls = []
    recursion = kernels._recursion

    def spy(order, release, processing):
        calls.append(order)
        return recursion(order, release, processing)

    monkeypatch.setattr(kernels, "_recursion", spy)
    n_orders = math.factorial(d)
    release, processing = np.zeros(d), np.arange(1.0, d + 1)
    for k in sorted({n_orders - 1, n_orders, n_orders + 3}):
        calls.clear()
        theta = np.random.default_rng(k).standard_normal((k, d))
        kernels.scheduling_total_completion(theta, release, processing)
        (order,) = calls
        if n_orders <= min(k, ENUMERATION_CAP):
            assert order is kernels._run_orders(d)
        else:
            assert order.shape == (k, d)
    if n_orders <= ENUMERATION_CAP:
        vertices = Permutahedron(d).vertices()
        assert np.array_equal(kernels._run_orders(d), np.argsort(-vertices, axis=1))
        # a vertex's rank is its own index in the vertex table
        table = kernels.scheduling_total_completion(vertices, release, processing)
        assert np.array_equal(bits(table), bits(sorted_recursion(vertices, release, processing)))


@pytest.mark.parametrize("n", range(2, 7))
def test_theta_batch_cost_equals_cost_of_argmax_vertex_bitwise(n):
    (x,) = generate_instances("scheduling", 1, seed=40 + n, jobs=[n])
    oracle = SchedulingCompletionTime()
    thetas = np.random.default_rng(n).standard_normal((math.factorial(n) + 5, n))  # tie-free
    vertices = np.array([x.polytope.argmax(theta).y for theta in thetas])
    for theta, y in zip(thetas[:24], vertices):
        single = oracle.eval_theta_batch(x, theta[None])
        assert np.array_equal(bits(single), bits(oracle.eval_vertices(x, y[None])))
    # whole batches of at least n! rows take the table path on both sides
    assert np.array_equal(bits(oracle.eval_theta_batch(x, thetas)), bits(oracle.eval_vertices(x, vertices)))

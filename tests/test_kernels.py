import numpy as np
import pytest

from perturbopt import kernels


def test_scheduling_cost_hand_examples():
    release = np.array([0.0, 0.0])
    processing = np.array([1.0, 2.0])
    # priority (2,1): job 1 first -> C = 1, 3 -> 4
    assert kernels.scheduling_total_completion(
        np.array([[2.0, 1.0]]), release, processing
    )[0] == pytest.approx(4.0)
    # priority (1,2): job 2 first -> C = 2, 3 -> 5
    assert kernels.scheduling_total_completion(
        np.array([[1.0, 2.0]]), release, processing
    )[0] == pytest.approx(5.0)


def test_scheduling_cost_with_release_gap():
    # one job released late: machine idles
    release = np.array([0.0, 5.0])
    processing = np.array([1.0, 1.0])
    cost = kernels.scheduling_total_completion(
        np.array([[2.0, 1.0]]), release, processing
    )[0]
    # C1 = 1, C2 = max(1, 5) + 1 = 6 -> 7
    assert cost == pytest.approx(7.0)


def test_backend_reports_name():
    assert kernels.backend() == "numpy"

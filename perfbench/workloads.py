"""The four benchmark workloads: one generated YAML config each.

Every workload runs the real ``perturbopt`` CLI.  ``full`` is the measured
size; ``quick`` is a toy size used by the benchmark's own tests, which only
check that every metric is produced.  All configs use ``threads: 1``; the
BLAS thread count is left at the library default on purpose (see
METRICS.md).
"""

from __future__ import annotations

from dataclasses import dataclass

# The data seed is pinned: kSoS Newton cost differs by up to 1.8x between
# data seeds (METRICS.md), which would swamp every bound.  run.py takes
# --workload-seed to repeat a measurement on other data.
DEFAULT_WORKLOAD_SEED = 7


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple  # CLI words before --config
    why: str
    full: dict
    quick: dict

    @property
    def trains(self) -> bool:
        return self.command[0] == "train"

    def config(self, workload_seed: int, quick: bool) -> dict:
        doc = {"version": 1, "master_seed": workload_seed, "threads": 1}
        doc.update(self.quick if quick else self.full)
        return doc


def _train(domain, n_train, n_test, params, d, samples, M, s):
    return {
        "domain": {"name": domain, "n_train": n_train, "n_test": n_test, "params": params},
        "model": {"d": d},
        "perturb": {"lambda": 0.1, "epsilon0": 0.001, "samples": samples},
        "optimizer": {"kind": "ksos", "M": M, "s": s},
    }


def _bias(grid, n_pairs, n_instances, samples):
    return {
        "model": {"d": 2},
        "perturb": {"lambda": 0.1, "epsilon0": 0.001, "samples": samples},
        "sweeps": {"bias": {"lambda_grid": grid, "n_pairs": n_pairs, "n_instances": n_instances}},
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sched",
            ("train",),
            "kSoS Newton at M=96 dominates and the oracle is the numpy sort kernel; bypasses the VSP flow oracle",
            _train("scheduling", 48, 256, {"jobs": [5]}, 2, 512, 96, 2.5),
            _train("scheduling", 8, 16, {"jobs": [4]}, 2, 32, 16, 2.5),
        ),
        Workload(
            "vsp",
            ("train",),
            "the pure-Python VspFlow min-cost-flow oracle dominates; kSoS is minor",
            _train("stovsp", 8, 16, {"tasks": [5]}, 3, 32, 48, 3.0),
            _train("stovsp", 4, 4, {"tasks": [4]}, 3, 8, 16, 3.0),
        ),
        Workload(
            "ctx",
            ("train",),
            "sign-test oracle, so per-instance overhead of the risk loop (substreams, predict) dominates",
            _train("contextual", 256, 1024, {"d_context": 2, "signal": 1.0}, 2, 256, 32, 2.5),
            _train("contextual", 32, 64, {"d_context": 2, "signal": 1.0}, 2, 16, 16, 2.5),
        ),
        Workload(
            "bias",
            ("sweep", "bias"),
            "exactenum risks, the lambda=0 tie path and tail mass inside theory.check_bias_bound; no kSoS",
            _bias([0.01, 0.03, 0.1, 0.3, 1.0], 100, 120, 512),
            _bias([0.1, 1.0], 2, 20, 64),
        ),
    )
}

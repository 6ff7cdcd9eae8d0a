"""Invariant suite behind the `check` subcommand.

Each check returns (name, passed, detail).  The fault-injection hook
deliberately corrupts the oracle comparison so tests can verify that the
harness reports failures and exits nonzero.
"""

from __future__ import annotations

import numpy as np
from scipy.stats import norm

from ..model import ParamSpace, model_for_instances
from ..perturb import PerturbationSpec, sampled_policy_distribution
from ..polytopes import Permutahedron, VspFlow, linear_oracle
from ..problems import generate_instances
from ..rngs import substream
from ..theory import check_bias_bound, check_gauss_tail, check_lipschitz_lemmas
from .config import ExperimentConfig


def _oracle_equivalence(cfg: ExperimentConfig, fault: str | None):
    rng = substream(cfg.master_seed, "check/oracle")
    cases = [
        (Permutahedron(4), 300),
        (VspFlow(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2), (1, 3), (2, 4)]), 100),
    ]
    for poly, n_dirs in cases:
        verts = poly.vertices()
        for _ in range(n_dirs):
            theta = rng.standard_normal(poly.dim)
            res = linear_oracle(poly, theta)
            probe = theta.copy()
            if fault == "corrupt_oracle":
                probe[0] += 0.37
            best = float(np.max(verts @ probe))
            if abs(res.value - best) > 1e-9:
                return False, f"{poly!r}: oracle value {res.value} != brute force {best}"
    return True, "oracle matches brute-force enumeration on all polytope kinds"


def _plambda_closed_form(cfg: ExperimentConfig, fault: str | None):
    x = generate_instances("contextual", 1, cfg.master_seed, d_context=1)[0]
    rng = substream(cfg.master_seed, "check/plambda")
    worst = 0.0
    for theta in (-0.6, -0.1, 0.0, 0.3, 1.2):
        for lam in (0.25, 0.5, 1.0, 2.0, 4.0):
            probs, ses = sampled_policy_distribution(
                x.polytope, np.array([theta]), lam, 8192, rng
            )
            exact = norm.cdf(theta / lam)
            dev = abs(probs[1] - exact)
            tol = 3.0 * max(ses[1], 1e-4)
            if dev > tol:
                return False, f"p_lambda({theta},{lam}): |{probs[1]:.5f}-{exact:.5f}| > 3se"
            worst = max(worst, dev)
    return True, f"Monte Carlo p_lambda within 3 std errors of the Gaussian CDF (max dev {worst:.2e})"


def _lipschitz(cfg: ExperimentConfig, fault: str | None):
    instances = generate_instances("contextual", 4, cfg.master_seed, d_context=2)
    model = model_for_instances(instances, d=2)
    space = ParamSpace.symmetric(2)
    checks = check_lipschitz_lemmas(
        instances, lam=0.5, trials=200, model=model, space=space,
        master_seed=cfg.master_seed,
    )
    failed = [c for c in checks if not c.passed]
    if failed:
        return False, f"{failed[0].name}: lhs {failed[0].lhs:.4f} > rhs {failed[0].rhs:.4f}"
    return True, f"{len(checks)} Lipschitz slope checks hold"


def _gauss_tail(cfg: ExperimentConfig, fault: str | None):
    checks = []
    for d, rho in ((1, 0.7), (3, 0.774), (3, 0.0)):
        checks += check_gauss_tail([0.1, 0.2, 0.5, 0.9], rho=rho, d=d, q=0.5)
    failed = [c for c in checks if not c.passed]
    if failed:
        c = failed[0]
        return False, f"gauss tail at {c.metadata}: {c.lhs:.4f} > {c.rhs:.4f}"
    return True, f"{len(checks)} chi-tail bounds hold"


def _bias_bounds(cfg: ExperimentConfig, fault: str | None):
    instances = generate_instances("contextual", 40, cfg.master_seed, d_context=2)
    model = model_for_instances(instances, d=2)
    space = ParamSpace.symmetric(2)
    spec = PerturbationSpec(
        lam=1.0, epsilon0=cfg.epsilon0, mc_samples=cfg.mc_samples,
        master_seed=cfg.master_seed,
    )
    w = space.sample(substream(cfg.master_seed, "check/bias_w"), 1)[0]
    checks, _ = check_bias_bound(
        w, instances, [0.01, 0.03, 0.1, 0.3, 1.0], cfg.epsilon0, model, space, spec
    )
    failed = [c for c in checks if not c.passed]
    if failed:
        c = failed[0]
        return False, f"{c.name} at lambda={c.metadata.get('lambda')}: {c.lhs:.5f} > {c.rhs:.5f}"
    return True, f"{len(checks)} perturbation-bias checks hold"


CHECKS = {
    "oracle_equivalence": _oracle_equivalence,
    "plambda_closed_form": _plambda_closed_form,
    "lipschitz": _lipschitz,
    "gauss_tail": _gauss_tail,
    "bias_bounds": _bias_bounds,
}


def run_checks(cfg: ExperimentConfig) -> list[tuple[str, bool, str]]:
    names = cfg.check.get("names")
    if names is None:
        names = list(CHECKS)
    fault = cfg.check.get("inject_fault")
    results = []
    for name in names:
        passed, detail = CHECKS[name](cfg, fault)
        results.append((name, passed, detail))
    return results

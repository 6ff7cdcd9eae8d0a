"""Experiment sweeps writing stable, versioned CSV artifacts.

Only the kSoS sweep solves with kSoS, so ``ksos`` is imported inside the
two functions that call it, and ``sweep bias`` and ``sweep nprocess``
start without it.  ``sweep bias`` scores its lam = 0 risks against the
contextual vertex table, so it solves no assignment, and takes its tail
mass from perturb's chi_tail, a finite sum on math's exp, log and
lgamma (Abramowitz and Stegun 6.5.13 and 26.4.21), so it loads no scipy
module at all.  It computes the cost oscillation of its instances once
for all its w, the tail masses of all its w and lambdas in one tail_mass_V
call, so one chi_tail call, over the stack of its w, and all its risks
in one regularized_risk call, so one pass over its instances, each
instance's vertices costed once.  Every sweep runs serially, and both
the bias and the kSoS sweep take their medians with perturb.median, not
np.median, so neither loads numpy.ma.
"""

from __future__ import annotations

import csv
import math
import os

import numpy as np

from ..model import ParamSpace, model_for_instances
from ..perturb import PerturbationSpec, median, regularized_risk, tail_mass_V
from ..problems import default_cost_oracle, generate_instances, osc_bound
from ..rngs import spawn_seed, substream
from ..theory import check_bias_bound, check_empirical_process
from .config import ExperimentConfig

CSV_SCHEMA_VERSION = 1


def write_csv(path: str, columns: list[str], rows: list[dict]) -> str:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["schema_version"] + columns)
        for row in rows:
            writer.writerow([CSV_SCHEMA_VERSION] + [row.get(c, "") for c in columns])
    return path


# ---------------------------------------------------------------------------
# Bias sweep


def run_bias_sweep(cfg: ExperimentConfig, out_dir: str) -> list[str]:
    """Bias bounds over a lambda grid at random w.  Runs on contextual
    instances with d_context = model.d whatever the configured domain,
    until the sweep follows domain.name (ROADMAP "The uniform weak property
    in production").  Returns the paths of the CSV and its summary.

    The n_w tail-mass rows and the n_w * (2 + G) risks (each w at
    lambda = 0, epsilon0 and the sorted grid) come from one call each over
    the stack of w; check_bias_bound then checks one w at a time from its
    row and its block, which equal its own calls bit for bit."""
    lambda_grid = cfg.get("sweeps.bias.lambda_grid")
    eps0, d, seed = cfg.get("perturb.epsilon0"), cfg.get("model.d"), cfg.get("master_seed")
    n_w = max(1, cfg.get("sweeps.bias.n_pairs") // len(lambda_grid))

    instances = generate_instances(
        "contextual", cfg.get("sweeps.bias.n_instances"),
        spawn_seed(seed, "sweep/bias/instances"), d_context=d,
    )
    oracle = default_cost_oracle("contextual")
    model = model_for_instances(instances, d=d)
    space = ParamSpace.symmetric(d)
    spec = PerturbationSpec(
        lam=max(lambda_grid), mc_samples=cfg.get("perturb.samples"), master_seed=seed
    )
    osc = osc_bound(oracle, instances)
    ws = np.stack([space.sample(substream(seed, f"sweep/bias/w/{i}"), 1)[0] for i in range(n_w)])
    # the lambdas of each w's risks and tail masses, as check_bias_bound orders them
    grid = sorted(float(lam) for lam in lambda_grid)
    lams = [0.0, eps0, *grid]
    # every tail mass in one pass; row i is V at ws[i]
    v = tail_mass_V(ws, instances, model, space, grid)
    # every risk in one pass; block i is ws[i] at each of lams
    risks = regularized_risk(
        np.repeat(ws, len(lams), axis=0), instances, oracle, model, space, spec, lams=lams * n_w
    )

    rows = []
    slopes = []
    for i in range(n_w):
        checks, fit = check_bias_bound(
            ws[i], instances, oracle, lambda_grid, eps0, model, space, spec, osc=osc, v_grid=v[i],
            risks=risks[i * len(lams):(i + 1) * len(lams)],
        )
        # check_bias_bound's layout: three checks per grid value, in grid order
        for unperturbed, smoothed, monotone in zip(*[iter(checks)] * 3):
            rows.append(
                {
                    "w_index": i,
                    "lambda": unperturbed.metadata["lambda"],
                    "lhs": unperturbed.lhs,
                    "rhs2osc": unperturbed.rhs,
                    "lhs_eps": smoothed.lhs,
                    "rhs4osc": smoothed.rhs,
                    "tail_mass": unperturbed.metadata["V"],
                    "v_monotone": int(monotone.passed),
                    "passed": int(unperturbed.passed and smoothed.passed and monotone.passed),
                }
            )
        if math.isfinite(fit.fitted_slope):
            slopes.append(fit.fitted_slope)
    path = write_csv(
        os.path.join(out_dir, "sweep_bias.csv"),
        [
            "w_index", "lambda", "lhs", "rhs2osc", "lhs_eps", "rhs4osc",
            "tail_mass", "v_monotone", "passed",
        ],
        rows,
    )
    summary = [
        {
            "n_w": n_w,
            "n_rows": len(rows),
            "fitted_slope_median": median(slopes) if slopes else float("nan"),
            "all_passed": int(all(r["passed"] for r in rows)),
        }
    ]
    summary_path = write_csv(
        os.path.join(out_dir, "sweep_bias_summary.csv"),
        ["n_w", "n_rows", "fitted_slope_median", "all_passed"],
        summary,
    )
    return [path, summary_path]


# ---------------------------------------------------------------------------
# Empirical process sweep


def run_nprocess_sweep(cfg: ExperimentConfig, out_dir: str) -> list[str]:
    lam = cfg.get("sweeps.nprocess.lambda")
    d_context = cfg.get("sweeps.nprocess.d_context")
    result = check_empirical_process(
        n_grid=cfg.get("sweeps.nprocess.n_grid"),
        lam=lam,
        n_seeds=cfg.get("sweeps.nprocess.seeds"),
        master_seed=cfg.get("master_seed"),
        space=ParamSpace.symmetric(d_context),
        d_context=d_context,
        w_grid_size=cfg.get("sweeps.nprocess.w_grid"),
        pool_size=cfg.get("sweeps.nprocess.pool"),
        delta=cfg.get("sweeps.nprocess.delta"),
        dudley_constant=cfg.get("sweeps.nprocess.dudley_constant"),
    )
    rows = [
        {
            "n": c.metadata["n"],
            "seed": c.metadata["seed"],
            "deviation": c.lhs,
            "rhs": c.rhs,
            "se": c.se_lhs,
            "passed": int(c.passed),
        }
        for c in result.checks
    ]
    path = write_csv(
        os.path.join(out_dir, "sweep_nprocess.csv"),
        ["n", "seed", "deviation", "rhs", "se", "passed"],
        rows,
    )
    lo, hi = result.fit.slope_ci
    summary_path = write_csv(
        os.path.join(out_dir, "sweep_nprocess_summary.csv"),
        ["fitted_slope", "slope_ci_lo", "slope_ci_hi", "fraction_bounded", "lambda"],
        [
            {
                "fitted_slope": result.fit.fitted_slope,
                "slope_ci_lo": lo,
                "slope_ci_hi": hi,
                "fraction_bounded": result.fraction_bounded,
                "lambda": lam,
            }
        ],
    )
    return [path, summary_path]


# ---------------------------------------------------------------------------
# kSoS sweep: error vs M on planted quadratics, with certificates


def quadratic_certificate_bounds(
    space: ParamSpace, target: np.ndarray, s: float, length_scale: float
) -> tuple[float, float]:
    """Certificate inputs for a planted quadratic |w - target|^2.

    The Sobolev seminorm at the certificate's derivative order is exactly 2
    (second derivatives are constant).  The minimal SoS trace is bounded by
    sum_j |w_j - target_j|^2_H, estimated by the kernel-interpolant norm on
    a dense grid (increasing in refinement) with a factor-2 margin.
    """
    from ..ksos import gram_matrix

    d = space.d
    rng = substream(9, "certificate/grid")
    grid = space.sample(rng, 400)
    K = gram_matrix(grid, s, length_scale)
    K += 1e-9 * float(np.trace(K)) / len(grid) * np.eye(len(grid))
    trace_bound = 0.0
    for j in range(d):
        g = grid[:, j] - target[j]
        trace_bound += float(g @ np.linalg.solve(K, g))
    return 2.0 * trace_bound, 2.0


def run_ksos_sweep(cfg: ExperimentConfig, out_dir: str) -> list[str]:
    from ..ksos import KsosConfig, certificate, ksos_minimize, lambda_phi_schedule

    m_grid, d, s = cfg.get("sweeps.ksos.m_grid"), cfg.get("sweeps.ksos.d"), cfg.ksos_sweep_s()
    cbar, delta = cfg.get("optimizer.cbar"), cfg.get("optimizer.delta")
    space = ParamSpace.symmetric(d)
    ell = cfg.get("optimizer.length_scale", space.diameter() / 4.0)
    master_seed = cfg.get("master_seed")

    grid_oracle = space.sample(substream(master_seed, "sweep/ksos/oracle"), 10_000)

    def one_cell(cell):
        m, seed_idx = cell
        seed = spawn_seed(master_seed, f"sweep/ksos/{m}/{seed_idx}")
        target = space.sample(substream(seed, "target"), 1)[0] * 0.6
        surface = lambda w: float(np.sum((np.asarray(w) - target) ** 2))
        lam_phi = lambda_phi_schedule(m, s, d, delta=delta, cbar=cbar)
        result = ksos_minimize(
            surface, space, KsosConfig(M=m, s=s, lambda_phi=lam_phi, length_scale=ell, seed=seed)
        )
        oracle_min = float(np.min(np.sum((grid_oracle - target) ** 2, axis=1)))
        true_err = abs(surface(result.w_hat) - oracle_min)
        trace_bound, norm_bound = quadratic_certificate_bounds(space, target, s, ell)
        certified = certificate(
            result.aposteriori_gap, trace_bound, norm_bound, lam_phi
        )
        return {
            "M": m,
            "seed": seed_idx,
            "arg_error": float(np.linalg.norm(result.w_hat - target)),
            "value_error": true_err,
            "c_hat": result.c_hat,
            "gap": result.aposteriori_gap,
            "lambda_phi": lam_phi,
            "certified_bound": certified,
            "certificate_covers": int(certified >= true_err),
            "converged": int(result.converged),
            "max_constraint_residual": result.max_constraint_residual,
        }

    cells = [(m, s_idx) for m in m_grid for s_idx in range(cfg.get("sweeps.ksos.seeds"))]
    rows = [one_cell(cell) for cell in cells]
    path = write_csv(
        os.path.join(out_dir, "sweep_ksos.csv"),
        [
            "M", "seed", "arg_error", "value_error", "c_hat", "gap",
            "lambda_phi", "certified_bound", "certificate_covers", "converged",
            "max_constraint_residual",
        ],
        rows,
    )
    med_rows = []
    for m in m_grid:
        errs = [r["arg_error"] for r in rows if r["M"] == m]
        med_rows.append({"M": m, "median_arg_error": median(errs)})
    summary_path = write_csv(
        os.path.join(out_dir, "sweep_ksos_summary.csv"),
        ["M", "median_arg_error"],
        med_rows,
    )
    return [path, summary_path]

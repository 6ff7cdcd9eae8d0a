"""Command-line interface.

Subcommands: generate, train, sweep (bias|nprocess|ksos), check.
Exit codes: 0 ok, 1 check/assert failure, 2 config error, 3 solver
failure.  ``config.SCHEMA`` is the reference for the config keys and their
defaults; every value outside a key's type, bounds or choices, every
``domain.params`` value the instance generator rejects, every kSoS
setting ``KsosConfig.validate`` rejects and every conflict
``ExperimentConfig.check_sweep`` finds exits 2 before any solve, and
leaves no output directory behind: each command creates it only once its
checks have passed.  The default output root comes from $PERTURBOPT_OUT.

Most of a short command's wall time is import, so each command imports
the layers it runs in its own body, once its config has loaded.  The
module itself loads only argparse, json, os and sys, so ``--help`` and an
argparse error exit on argparse alone.  ``main`` loads ``config`` (yaml)
once the arguments parse, and ``generate``, ``train`` and ``sweep`` load
``manifest`` (hashlib) once the config has loaded, so a config error
exits without ``manifest``, numpy or scipy.  ``generate`` loads
``problems`` and ``rngs``: numpy, and scipy not at all.  ``train`` adds
``model``, ``perturb`` and ``ksos``, which solves, fits its surrogate and bounds the smoothness on numpy
alone, and a closed-form risk term (the contextual domain, scheduling
with two jobs) takes perturb's numpy port of ndtr.  So train loads
scipy.special only for a Matern smoothness outside the kernel's closed
forms (nu = 0.5, 1.5, 2.5), and scipy.optimize only where a VspFlow
solves its assignment (polytopes' docstring).  ``sweep`` loads
``sweeps`` and ``check`` loads ``checks``; both bring in ``theory``, and
only ``sweep ksos`` loads ``ksos``.  ``sweep bias`` and ``sweep ksos``
load no scipy module: the bias check's chi tail is perturb's numpy port
of igamc (for perturbations of dimension at most 40), and the theory
checks import the scipy.special ufuncs they call where they call them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..ksos import KsosConfig
    from .config import ExperimentConfig

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_SOLVER_FAILURE = 3

TRAIN_FILE = "instances_train.jsonl"
TEST_FILE = "instances_test.jsonl"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perturbopt",
        description="Perturbed combinatorial-policy experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("generate", "train", "check"):
        p = sub.add_parser(name)
        _common_flags(p)
    p = sub.add_parser("sweep")
    p.add_argument("kind", choices=["bias", "nprocess", "ksos"])
    _common_flags(p)
    p.add_argument(
        "--threads", type=int, default=None,
        help="worker threads of sweep bias and sweep ksos; sweep nprocess runs serially "
        "(default: config threads)",
    )
    return parser


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="YAML experiment config")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--seed-override", type=int, default=None)
    p.add_argument("--verbose", action="store_true")


def _load(args) -> tuple[ExperimentConfig, str]:
    """The config and the output directory, which is not created here."""
    from .config import load_config

    cfg = load_config(args.config, master_seed=args.seed_override)
    return cfg, cfg.resolve_output_dir(args.out)


def _write_json(path: str, doc: dict) -> str:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def cmd_generate(args) -> int:
    cfg, out_dir = _load(args)
    from ..problems import generate_instances, generator_params, save_instances
    from ..rngs import spawn_seed
    from .config import ConfigError
    from .manifest import ManifestWriter

    name, params, seed = cfg.get("domain.name"), cfg.get("domain.params"), cfg.get("master_seed")
    allowed = generator_params(name)
    unknown = [key for key in params if key not in allowed]
    if unknown:
        raise ConfigError([
            f"domain.params.{key}: unknown key; the {name} generator takes {', '.join(allowed)}"
            for key in unknown
        ])
    manifest = ManifestWriter(
        out_dir, cfg.to_doc(),
        seed_labels={"train": "dataset/train", "test": "dataset/test"},
    )
    with manifest.time("generate"):
        try:
            train = generate_instances(
                name, cfg.get("domain.n_train"), spawn_seed(seed, "dataset/train"), **params
            )
            test = generate_instances(
                name, cfg.get("domain.n_test"), spawn_seed(seed, "dataset/test"), **params
            )
        except (ValueError, TypeError) as exc:  # a known key with a value it cannot use
            raise ConfigError([f"domain.params: the {name} generator rejects {params}: {exc}"])
        os.makedirs(out_dir, exist_ok=True)
        train_path = os.path.join(out_dir, TRAIN_FILE)
        test_path = os.path.join(out_dir, TEST_FILE)
        save_instances(train_path, train)
        save_instances(test_path, test)
    manifest.add_file(train_path)
    manifest.add_file(test_path)
    manifest.write()
    if args.verbose:
        print(f"wrote {len(train)} train / {len(test)} test instances to {out_dir}")
    return EXIT_OK


def _ksos_config(cfg: ExperimentConfig) -> KsosConfig:
    """The kSoS settings of cfg; a setting KsosConfig rejects is a config
    problem under optimizer."""
    from ..ksos import KsosConfig, lambda_phi_schedule
    from ..rngs import spawn_seed
    from .config import ConfigError

    m, s, d = cfg.get("optimizer.M"), cfg.get("optimizer.s"), cfg.get("model.d")
    lam_phi = cfg.get("optimizer.lambda_phi")
    if lam_phi is None:
        lam_phi = lambda_phi_schedule(
            m, s, d, delta=cfg.get("optimizer.delta"), cbar=cfg.get("optimizer.cbar")
        )
    ks_cfg = KsosConfig(
        M=m, s=s, lambda_phi=lam_phi, length_scale=cfg.get("optimizer.length_scale"),
        seed=spawn_seed(cfg.get("master_seed"), "train/ksos"),
    )
    try:
        ks_cfg.validate(d)
    except ValueError as exc:
        raise ConfigError([f"optimizer: {exc}"])
    return ks_cfg


def _train_osc(oracle, train) -> tuple[float, str]:
    """The cost oscillation over the train instances, and where it comes
    from: exact over their vertex tables, or from the declared cost
    boxes once a polytope is past the enumeration cap."""
    from ..polytopes import EnumerationUnavailable
    from ..problems import declared_osc, osc_bound

    try:
        return osc_bound(oracle, train), "vertices"
    except EnumerationUnavailable:
        return declared_osc(oracle, train), "declared"


def cmd_train(args) -> int:
    cfg, out_dir = _load(args)
    import numpy as np

    from ..ksos import GramSingular, baseline_minimize, certificate, glm_smoothness_estimates, ksos_minimize
    from ..model import ParamSpace, model_for_instances
    from ..perturb import PerturbationSpec, crn_risk_surface, median, regularized_risk
    from ..problems import default_cost_oracle, load_instances
    from ..rngs import spawn_seed, substream
    from .manifest import ManifestWriter

    d, seed = cfg.get("model.d"), cfg.get("master_seed")
    ks_cfg = _ksos_config(cfg)
    paths = [os.path.join(out_dir, name) for name in (TRAIN_FILE, TEST_FILE)]
    for path in paths:  # train writes into out_dir, which holds them
        if not os.path.exists(path):
            print(f"error: dataset {path} not found; run generate first", file=sys.stderr)
            return EXIT_CONFIG_ERROR
    train, test = (load_instances(path) for path in paths)

    model = model_for_instances(train, d=d)
    space = ParamSpace.symmetric(d)
    oracle = default_cost_oracle(cfg.get("domain.name"))
    spec = PerturbationSpec(
        lam=cfg.get("perturb.lambda"), mc_samples=cfg.get("perturb.samples"), master_seed=seed,
    )
    surface = crn_risk_surface(train, oracle, model, space, spec)

    manifest = ManifestWriter(out_dir, cfg.to_doc())
    status = EXIT_OK
    result_doc: dict = {"optimizer": cfg.get("optimizer.kind")}

    try:
        with manifest.time("ksos"):
            result = ksos_minimize(surface, space, ks_cfg)
    except GramSingular as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        _write_json(os.path.join(out_dir, "result.json"), {"error": str(exc)})
        return EXIT_SOLVER_FAILURE
    w_hat = result.w_hat
    result_doc.update(result.to_doc())
    if not result.converged:
        status = EXIT_SOLVER_FAILURE
    f0_inf = max(abs(b) for x in train for b in oracle.bounds(x))
    try:
        norm_bound, trace_bound = glm_smoothness_estimates(
            model, train, spec.lam, ks_cfg.s, d, f0_inf, space
        )
        result_doc["certificate_inputs"] = {
            "sobolev_norm_bound": norm_bound,
            "trace_bound": trace_bound,
            "lambda_phi": ks_cfg.lambda_phi,
        }
        bound = certificate(result.aposteriori_gap, trace_bound, norm_bound, ks_cfg.lambda_phi)
    except ValueError as exc:
        result_doc["certificate_inputs"] = {"skipped": str(exc)}
    else:
        osc, osc_source = _train_osc(oracle, train)
        result_doc["certified_optimality_bound"] = bound
        # no two policies' risks differ by more than osc, so a bound of osc
        # or more certifies nothing
        result_doc["certificate_over_osc"] = bound / osc if osc > 0.0 else float("inf")
        result_doc["vacuous"] = bool(bound >= osc)
        result_doc["osc_source"] = osc_source

    with manifest.time("evaluation"):
        train_report = regularized_risk(w_hat, train, oracle, model, space, spec)
        random_ws = space.sample(substream(seed, "train/random_policies"), 20)
        # random search with kSoS's budget: as many surface values as its M samples
        base_w, base_v = baseline_minimize(
            surface, space, ks_cfg.M, seed=spawn_seed(seed, "train/baseline_matched")
        )
        # one pass over the test set: each noise block is drawn once for all 22 w
        test_report, *random_reports, base_test = regularized_risk(
            np.vstack([w_hat, random_ws, base_w]), test, oracle, model, space, spec
        )
        random_risks = [r.value for r in random_reports]

    result_doc["comparison"] = {
        "random_policy_test_risks": random_risks,
        "random_policy_median": median(random_risks),
        "budget_matched_random_search": {
            "w": base_w.tolist(),
            "train_value": base_v,
            "test_risk": base_test.value,
        },
    }
    files = [
        _write_json(os.path.join(out_dir, "result.json"), result_doc),
        _write_json(os.path.join(out_dir, "risk_train.json"), train_report.to_doc()),
        _write_json(os.path.join(out_dir, "risk_test.json"), test_report.to_doc()),
    ]
    for f in files:
        manifest.add_file(f)
    manifest.write()
    if args.verbose:
        print(
            f"learned w={np.round(w_hat, 4).tolist()} "
            f"test risk {test_report.value:.4f} "
            f"(random median {result_doc['comparison']['random_policy_median']:.4f})"
        )
    return status


def cmd_sweep(args) -> int:
    cfg, out_dir = _load(args)
    cfg.check_sweep(args.kind)
    os.makedirs(out_dir, exist_ok=True)
    from .manifest import ManifestWriter
    from .sweeps import run_bias_sweep, run_ksos_sweep, run_nprocess_sweep

    threads = args.threads if args.threads is not None else cfg.get("threads")
    manifest = ManifestWriter(out_dir, cfg.to_doc())
    runner = {
        "bias": run_bias_sweep,
        "nprocess": run_nprocess_sweep,
        "ksos": run_ksos_sweep,
    }[args.kind]
    with manifest.time(f"sweep/{args.kind}"):
        paths = runner(cfg, out_dir, threads=threads)
    for path in paths:
        manifest.add_file(path)
    manifest.write()
    if args.verbose:
        print(f"sweep {args.kind}: wrote {', '.join(paths)}")
    return EXIT_OK


def cmd_check(args) -> int:
    cfg, out_dir = _load(args)
    from .checks import CHECKS, run_checks

    if "bias_bounds" in cfg.get("check.names", list(CHECKS)):
        cfg.check_sweep("bias")
    os.makedirs(out_dir, exist_ok=True)
    results = run_checks(cfg)
    report = [
        {"name": name, "passed": passed, "detail": detail}
        for name, passed, detail in results
    ]
    _write_json(os.path.join(out_dir, "check_report.json"), {"checks": report})
    if not results:
        print("warning: 0 checks configured")
        return EXIT_OK
    n_failed = 0
    for name, passed, detail in results:
        tag = "PASS" if passed else "FAIL"
        print(f"[{tag}] {name}: {detail}")
        n_failed += not passed
    return EXIT_CHECK_FAILED if n_failed else EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    from .config import ConfigError

    try:
        if args.command == "generate":
            return cmd_generate(args)
        if args.command == "train":
            return cmd_train(args)
        if args.command == "sweep":
            return cmd_sweep(args)
        if args.command == "check":
            return cmd_check(args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG_ERROR
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())

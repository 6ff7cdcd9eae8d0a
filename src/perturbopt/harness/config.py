"""Experiment configuration: one YAML file drives a whole experiment.

Validation reports every offending key path so a bad config fails loudly
(CLI exit code 2) before any computation starts.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import yaml

CONFIG_VERSION = 1
OUTPUT_ENV_VAR = "PERTURBOPT_OUT"

KNOWN_DOMAINS = ("scheduling", "stovsp", "contextual")
KNOWN_OPTIMIZERS = ("ksos", "randomsearch", "neldermead")
KNOWN_CHECKS = (
    "oracle_equivalence",
    "plambda_closed_form",
    "lipschitz",
    "gauss_tail",
    "bias_bounds",
)


class ConfigError(ValueError):
    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid config:\n" + "\n".join(f"  - {p}" for p in self.problems))


@dataclass
class ExperimentConfig:
    master_seed: int = 7
    output_dir: str | None = None
    threads: int = 1
    domain: dict = field(default_factory=lambda: {"name": "scheduling"})
    model: dict = field(default_factory=dict)
    perturb: dict = field(default_factory=dict)
    optimizer: dict = field(default_factory=dict)
    sweeps: dict = field(default_factory=dict)
    check: dict = field(default_factory=dict)

    # -- accessors with defaults -------------------------------------------
    @property
    def domain_name(self) -> str:
        return self.domain.get("name", "scheduling")

    @property
    def domain_params(self) -> dict:
        return dict(self.domain.get("params", {}))

    @property
    def n_train(self) -> int:
        return int(self.domain.get("n_train", 48))

    @property
    def n_test(self) -> int:
        return int(self.domain.get("n_test", 256))

    @property
    def model_d(self) -> int:
        return int(self.model.get("d", 2))

    @property
    def lam(self) -> float:
        return float(self.perturb.get("lambda", 0.1))

    @property
    def epsilon0(self) -> float:
        return float(self.perturb.get("epsilon0", 1e-3))

    @property
    def mc_samples(self) -> int:
        return int(self.perturb.get("samples", 512))

    def resolve_output_dir(self, override: str | None = None) -> str:
        if override:
            return override
        if self.output_dir:
            return self.output_dir
        return os.environ.get(OUTPUT_ENV_VAR, "out")

    def to_doc(self) -> dict:
        return {
            "version": CONFIG_VERSION,
            "master_seed": self.master_seed,
            "output_dir": self.output_dir,
            "threads": self.threads,
            "domain": self.domain,
            "model": self.model,
            "perturb": self.perturb,
            "optimizer": self.optimizer,
            "sweeps": self.sweeps,
            "check": self.check,
        }


def _validate(doc: dict) -> list[str]:
    problems = []

    def expect(cond, msg):
        if not cond:
            problems.append(msg)

    def number(val, path):
        """val as a float, or None with a problem reported."""
        try:
            return float(val)
        except (TypeError, ValueError):
            problems.append(f"{path}: must be a number, got {val!r}")
            return None

    expect(isinstance(doc, dict), "top level: must be a mapping")
    if not isinstance(doc, dict):
        return problems
    version = doc.get("version", CONFIG_VERSION)
    expect(version == CONFIG_VERSION, f"version: unsupported value {version!r}")

    seed = doc.get("master_seed", 7)
    expect(isinstance(seed, int), "master_seed: must be an integer")
    threads = doc.get("threads", 1)
    expect(isinstance(threads, int) and threads >= 1, "threads: must be a positive integer")

    domain = doc.get("domain", {})
    expect(isinstance(domain, dict), "domain: must be a mapping")
    if isinstance(domain, dict):
        name = domain.get("name", "scheduling")
        expect(name in KNOWN_DOMAINS, f"domain.name: unknown domain {name!r}")
        for key in ("n_train", "n_test"):
            val = domain.get(key)
            if val is not None:
                expect(isinstance(val, int) and val >= 1, f"domain.{key}: must be >= 1")

    model = doc.get("model", {})
    expect(isinstance(model, dict), "model: must be a mapping")
    if isinstance(model, dict):
        d = model.get("d", 2)
        expect(isinstance(d, int) and d >= 1, "model.d: must be a positive integer")

    eps0 = 1e-3
    perturb = doc.get("perturb", {})
    expect(isinstance(perturb, dict), "perturb: must be a mapping")
    if isinstance(perturb, dict):
        lam = number(perturb.get("lambda", 0.1), "perturb.lambda")
        eps0 = number(perturb.get("epsilon0", 1e-3), "perturb.epsilon0")
        if lam is not None:
            expect(lam >= 0.0, "perturb.lambda: must be >= 0")
        if eps0 is not None:
            expect(eps0 >= 0.0, "perturb.epsilon0: must be >= 0")
        if lam is not None and eps0 is not None:
            expect(lam >= eps0, "perturb.lambda: must be >= perturb.epsilon0")
        samples = perturb.get("samples", 512)
        expect(
            isinstance(samples, int) and samples >= 1, "perturb.samples: must be >= 1"
        )

    optimizer = doc.get("optimizer", {})
    expect(isinstance(optimizer, dict), "optimizer: must be a mapping")
    if isinstance(optimizer, dict):
        kind = optimizer.get("kind", "ksos")
        expect(kind in KNOWN_OPTIMIZERS, f"optimizer.kind: unknown kind {kind!r}")

    sweeps = doc.get("sweeps", {})
    expect(isinstance(sweeps, dict), "sweeps: must be a mapping")
    if isinstance(sweeps, dict):
        for grid_key, sweep_key in (
            ("lambda_grid", "bias"),
            ("n_grid", "nprocess"),
            ("m_grid", "ksos"),
        ):
            section = sweeps.get(sweep_key, {})
            if isinstance(section, dict) and grid_key in section:
                grid = section[grid_key]
                ok = (
                    isinstance(grid, list)
                    and len(grid) > 0
                    and all(isinstance(v, (int, float)) for v in grid)
                    and sorted(grid) == grid
                )
                expect(ok, f"sweeps.{sweep_key}.{grid_key}: must be a nonempty sorted list")
                if ok and sweep_key == "bias" and eps0 is not None:
                    for lam in grid:
                        expect(
                            lam >= eps0,
                            f"sweeps.bias.lambda_grid: value {lam} below epsilon0 {eps0}",
                        )

    check = doc.get("check", {})
    expect(isinstance(check, dict), "check: must be a mapping")
    if isinstance(check, dict):
        names = check.get("names")
        if names is not None:
            expect(isinstance(names, list), "check.names: must be a list")
            if isinstance(names, list):
                for n in names:
                    expect(n in KNOWN_CHECKS, f"check.names: unknown check {n!r}")
    return problems


def config_from_doc(doc: dict) -> ExperimentConfig:
    problems = _validate(doc)
    if problems:
        raise ConfigError(problems)
    return ExperimentConfig(
        master_seed=doc.get("master_seed", 7),
        output_dir=doc.get("output_dir"),
        threads=doc.get("threads", 1),
        domain=doc.get("domain", {"name": "scheduling"}),
        model=doc.get("model", {}),
        perturb=doc.get("perturb", {}),
        optimizer=doc.get("optimizer", {}),
        sweeps=doc.get("sweeps", {}),
        check=doc.get("check", {}),
    )


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError([f"{path}: no such file"])
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        loc = f" (line {mark.line + 1})" if mark is not None else ""
        raise ConfigError([f"{path}: YAML parse error{loc}: {exc}"])
    if doc is None:
        doc = {}
    return config_from_doc(doc)


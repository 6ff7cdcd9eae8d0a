"""Experiment configuration: one YAML file drives a whole experiment.

``SCHEMA`` is the reference for the config format: every key the program
reads, by dotted path, with its default, its type and its bounds or
allowed values.  ``ExperimentConfig.get(path)`` returns the typed value or
the default.  Validation reports every offending key path, so every value
of the wrong type, outside its bounds or outside its choices fails loudly
(CLI exit code 2) before any computation starts, and so does a sweep whose
settings conflict (``check_sweep``).  An integer key takes a YAML integer
only; a number key takes anything ``float()`` parses except a bool.  A
key the schema does not list, such as a misspelt ``optimizer.m``, is an
error too; only ``version`` and the keys inside ``domain.params`` are
outside the schema, and ``generate`` checks the latter against the
domain generator's keyword arguments.
"""

from __future__ import annotations

import contextlib
import copy
import operator
import os
from dataclasses import dataclass

import yaml

CONFIG_VERSION = 1
OUTPUT_ENV_VAR = "PERTURBOPT_OUT"


class ConfigError(ValueError):
    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid config:\n" + "\n".join(f"  - {p}" for p in self.problems))


NOUNS = {int: "an integer", float: "a number", str: "a string", dict: "a mapping"}


@dataclass(frozen=True)
class Key:
    """One config key.  A list key with an ``item`` type is a grid: a
    nonempty strictly increasing list of those, so no value repeats.  The
    ``low`` and ``high`` bounds are inclusive unless ``strict``.  A default
    of None means the reader derives the value, and null is then accepted
    too."""

    default: object
    kind: type
    low: float | None = None
    high: float | None = None
    strict: bool = False
    choices: tuple = ()
    item: type | None = None

    def convert(self, val):
        """val as this key's type; ValueError says what is wrong with it."""
        if self.choices:
            items = val if self.kind is list else [val]
            ok = isinstance(val, self.kind) and all(v in self.choices for v in items)
            need = ("a list of " if self.kind is list else "one of ") + ", ".join(self.choices)
        elif self.item:
            ok = isinstance(val, list) and val and all(_is(self.item, v) for v in val)
            ok = ok and all(a < b for a, b in zip(val, val[1:]))
            noun = "numbers" if self.item is float else "integers"
            need = f"a nonempty strictly increasing list of {noun}"
        else:
            if self.kind is float and not isinstance(val, bool):
                with contextlib.suppress(TypeError, ValueError, OverflowError):
                    val = float(val)
            ok = isinstance(val, float) if self.kind is float else _is(self.kind, val)
            need = NOUNS[self.kind]
            if ok and not self._within(val):
                ops = (">", "<") if self.strict else (">=", "<=")
                bounds = [f"{op} {b}" for op, b in zip(ops, (self.low, self.high)) if b is not None]
                ok, need = False, " and ".join(bounds)
        if not ok:
            raise ValueError(f"must be {need}, got {val!r}")
        return copy.deepcopy(val)

    def _within(self, val) -> bool:
        above = operator.gt if self.strict else operator.ge
        return (self.low is None or above(val, self.low)) and (self.high is None or above(self.high, val))


def _is(kind: type, val) -> bool:
    """val is of kind, where a bool is no number and an int is a float."""
    if kind in (int, float) and isinstance(val, bool):
        return False
    return isinstance(val, (int, float) if kind is float else kind)


SCHEMA = {
    "master_seed": Key(7, int),
    "output_dir": Key(None, str),  # None: --out, else $PERTURBOPT_OUT, else "out"
    # sweeps run serially, so 1 is the only value; the key goes with the benchmark
    # change that drops threads: 1 from perfbench/workloads.py
    "threads": Key(1, int, low=1, high=1),
    "domain.name": Key("scheduling", str, choices=("scheduling", "stovsp", "contextual")),
    "domain.params": Key({}, dict),  # keyword arguments of the instance generator
    "domain.n_train": Key(48, int, low=1),
    "domain.n_test": Key(256, int, low=1),
    "model.d": Key(2, int, low=1),
    "perturb.lambda": Key(0.1, float, low=0.0),
    "perturb.epsilon0": Key(1e-3, float, low=0.0),
    "perturb.samples": Key(512, int, low=1),
    # the one optimizer; ROADMAP "A gradient baseline and an optimizer sweep" adds
    # gradient.  result.json records the kind
    "optimizer.kind": Key("ksos", str, choices=("ksos",)),
    "optimizer.M": Key(96, int, low=1),
    "optimizer.s": Key(2.5, float),
    "optimizer.lambda_phi": Key(None, float),  # None: lambda_phi_schedule(M, s, d, delta, cbar)
    "optimizer.delta": Key(0.1, float, low=0.0, high=1.0, strict=True),  # a confidence level
    "optimizer.cbar": Key(1.0, float, low=0.0),
    "optimizer.length_scale": Key(None, float, low=0.0, strict=True),  # None: diam(W) / 4
    "sweeps.bias.lambda_grid": Key([0.01, 0.03, 0.1, 0.3, 1.0], list, item=float),
    "sweeps.bias.n_pairs": Key(100, int, low=1),
    "sweeps.bias.n_instances": Key(60, int, low=1),
    "sweeps.nprocess.n_grid": Key([64, 128, 256, 512, 1024, 2048, 4096], list, item=int),
    "sweeps.nprocess.seeds": Key(20, int, low=1),
    "sweeps.nprocess.lambda": Key(0.5, float, low=0.0, strict=True),
    "sweeps.nprocess.d_context": Key(2, int, low=1),
    "sweeps.nprocess.w_grid": Key(128, int, low=1),
    "sweeps.nprocess.pool": Key(100_000, int, low=1),
    "sweeps.nprocess.delta": Key(0.1, float, low=0.0, high=1.0, strict=True),  # a confidence level
    "sweeps.nprocess.dudley_constant": Key(24.0, float, low=0.0),
    "sweeps.ksos.m_grid": Key([32, 64, 128, 256], list, item=int),
    "sweeps.ksos.seeds": Key(10, int, low=1),
    "sweeps.ksos.d": Key(1, int, low=1),
    "sweeps.ksos.s": Key(None, float),  # None: optimizer.s, else 2.0 for d = 1 and 2.5 otherwise
    "check.names": Key(  # None: every check
        None, list,
        choices=("oracle_equivalence", "plambda_closed_form", "lipschitz", "gauss_tail", "bias_bounds"),
    ),
}

# the dotted paths that hold a mapping of keys, such as "sweeps.bias"
_SECTIONS = frozenset(path.rsplit(".", i)[0] for path in SCHEMA for i in range(1, path.count(".") + 1))
_UNSET = object()


def _raw(doc: dict, path: str, problems: list[str]):
    """The value at the dotted path, or _UNSET where it is absent.  A value
    on the way that is not a mapping is appended to problems, once."""
    *parents, name = path.split(".")
    node = doc
    for depth, part in enumerate(parents, 1):
        node = node.get(part, {})
        if not isinstance(node, dict):
            problem = f"{'.'.join(parents[:depth])}: must be a mapping"
            if problem not in problems:
                problems.append(problem)
            return _UNSET
    return node.get(name, _UNSET)


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated config document; read it through ``get``."""

    doc: dict

    def get(self, path: str, default=_UNSET):
        """The typed value at the dotted ``path``.  Where the document does
        not set it: ``default`` if given (for a default that depends on other
        values), else SCHEMA's default."""
        val = _raw(self.doc, path, [])
        if val is _UNSET or val is None:
            return copy.deepcopy(SCHEMA[path].default) if default is _UNSET else default
        return SCHEMA[path].convert(val)

    def check_sweep(self, kind: str) -> None:
        """Raise ConfigError where the settings ``sweep kind`` reads
        conflict, so that it exits 2 before any work: the bias grid, set or
        default, must stay at or above perturb.epsilon0 (``sweep bias``
        and ``check``'s bias_bounds read both), the nprocess reference
        pool must hold at least 10x the largest n, and every kSoS solve of
        ``sweep ksos`` must pass KsosConfig.validate."""
        problems = []
        if kind == "bias":
            problems = _grid_problems(self, self.get("sweeps.bias.lambda_grid"))
        elif kind == "ksos":
            from ..ksos import KsosConfig

            # lambda_phi_schedule, which the sweep passes, is nonnegative;
            # the grid increases, so the first M that fails is its smallest
            d, s = self.get("sweeps.ksos.d"), self.ksos_sweep_s()
            for m in self.get("sweeps.ksos.m_grid"):
                try:
                    KsosConfig(M=m, s=s, lambda_phi=0.0).validate(d)
                except ValueError as exc:
                    problems.append(f"sweeps.ksos at M = {m}: {exc}")
                    break
        elif kind == "nprocess":
            pool, n_max = self.get("sweeps.nprocess.pool"), max(self.get("sweeps.nprocess.n_grid"))
            if pool < 10 * n_max:
                problems.append(
                    f"sweeps.nprocess.pool: must be at least 10x the largest "
                    f"sweeps.nprocess.n_grid value {n_max}, got {pool}"
                )
        if problems:
            raise ConfigError(problems)

    def ksos_sweep_s(self) -> float:
        """The smoothness of ``sweep ksos``: sweeps.ksos.s, else optimizer.s,
        else 2.0 for d = 1 and 2.5 otherwise."""
        d = self.get("sweeps.ksos.d")
        return self.get("sweeps.ksos.s", self.get("optimizer.s", 2.0 if d == 1 else 2.5))

    def resolve_output_dir(self, override: str | None = None) -> str:
        return override or self.get("output_dir") or os.environ.get(OUTPUT_ENV_VAR, "out")

    def to_doc(self) -> dict:
        """The document as loaded, with the top-level defaults filled in."""
        return {
            "version": CONFIG_VERSION,
            "master_seed": self.get("master_seed"),
            "output_dir": self.get("output_dir"),
            "threads": self.get("threads"),
            "domain": self.doc.get("domain", {"name": self.get("domain.name")}),
            **{k: self.doc.get(k, {}) for k in ("model", "perturb", "optimizer", "sweeps", "check")},
        }


def _grid_problems(cfg: ExperimentConfig, lambda_grid) -> list[str]:
    eps0 = cfg.get("perturb.epsilon0")
    return [
        f"sweeps.bias.lambda_grid: value {lam} below epsilon0 {eps0}"
        for lam in lambda_grid if lam < eps0
    ]


def _unknown_keys(node: dict, prefix: str = ""):
    """Dotted paths of the keys under node that neither SCHEMA nor version
    lists; a section that is no mapping is reported by _raw instead."""
    for name, val in node.items():
        path = f"{prefix}{name}"
        if path in _SECTIONS:
            if isinstance(val, dict):
                yield from _unknown_keys(val, path + ".")
        elif path not in SCHEMA and path != "version":
            yield path


def config_from_doc(doc: dict) -> ExperimentConfig:
    """doc checked against SCHEMA, then across fields; ConfigError lists
    every problem."""
    if not isinstance(doc, dict):
        raise ConfigError(["top level: must be a mapping"])
    version = doc.get("version", CONFIG_VERSION)
    problems = [] if version == CONFIG_VERSION else [f"version: unsupported value {version!r}"]
    problems += [f"{path}: unknown key" for path in _unknown_keys(doc)]
    for path, key in SCHEMA.items():
        val = _raw(doc, path, problems)
        if val is not _UNSET and (val is not None or key.default is not None):
            try:
                key.convert(val)
            except ValueError as exc:
                problems.append(f"{path}: {exc}")
    if problems:
        raise ConfigError(problems)
    cfg = ExperimentConfig(doc)
    # only a grid the document sets: a run that reads no grid keeps any
    # epsilon0, and check_sweep checks the default grid where one is read
    problems += _grid_problems(cfg, cfg.get("sweeps.bias.lambda_grid", []))
    if problems:
        raise ConfigError(problems)
    return cfg


def load_config(path: str, master_seed: int | None = None) -> ExperimentConfig:
    """The config at path; ``master_seed`` overrides the document's."""
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
    if master_seed is not None and isinstance(doc, dict):
        doc["master_seed"] = master_seed
    return config_from_doc(doc)

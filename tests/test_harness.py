import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest
import yaml

import perturbopt
from perturbopt.harness.cli import main
from perturbopt.harness.config import SCHEMA, ConfigError, config_from_doc, load_config
from perturbopt.harness.manifest import (
    ManifestWriter,
    file_digest,
    load_manifest,
    verify_manifest,
)
from perturbopt.problems import load_instances

TOY = {
    "version": 1,
    "master_seed": 7,
    "domain": {
        "name": "scheduling",
        "n_train": 12,
        "n_test": 24,
        "params": {"jobs": [4], "r_max": 1.0, "p_min": 0.2, "p_max": 1.0},
    },
    "model": {"d": 2},
    "perturb": {"lambda": 0.1, "epsilon0": 0.001, "samples": 128},
    "optimizer": {"kind": "ksos", "M": 32, "s": 2.5},
}


def write_cfg(tmp_path, doc, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def read_csv_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# config


def test_config_defaults_from_empty_doc():
    cfg = config_from_doc({})
    assert cfg.get("master_seed") == 7
    assert cfg.get("domain.name") == "scheduling"
    assert cfg.get("perturb.lambda") == 0.1


def doc_with(path, value):
    """A config document that sets only the dotted path."""
    doc = node = {}
    *parents, name = path.split(".")
    for part in parents:
        node = node.setdefault(part, {})
    node[name] = value
    return doc


# values of the wrong type for each kind of key: a bool or a float is no
# integer, a string is no number, grid, list or mapping, a number no string
WRONG_TYPE = {int: [True, 96.0], float: ["x", True], list: ["x"], dict: ["x"], str: [5]}


@pytest.mark.parametrize("path", list(SCHEMA))
def test_schema_key_default_and_type(path):
    key = SCHEMA[path]
    assert config_from_doc({}).get(path) == key.default
    for value in WRONG_TYPE[key.kind]:
        with pytest.raises(ConfigError) as err:
            config_from_doc(doc_with(path, value))
        assert any(p.startswith(f"{path}: ") for p in err.value.problems), err.value.problems


def test_config_validation_messages():
    with pytest.raises(ConfigError) as err:
        config_from_doc({"domain": {"name": "nope", "n_train": 0}})
    msgs = "\n".join(err.value.problems)
    assert "domain.name" in msgs
    assert "domain.n_train" in msgs
    with pytest.raises(ConfigError) as err:
        config_from_doc({"perturb": {"lambda": 0.001, "epsilon0": 0.1}})
    assert any("lambda" in p for p in err.value.problems)
    with pytest.raises(ConfigError):
        config_from_doc({"sweeps": {"bias": {"lambda_grid": [1.0, 0.5]}}})
    with pytest.raises(ConfigError):
        config_from_doc({"check": {"names": ["nonsense"]}})
    # malformed values are config problems, never a traceback from float()
    # or a failure later in the run
    for doc, key in (
        ({"perturb": {"lambda": "abc"}}, "perturb.lambda"),
        ({"sweeps": {"bias": {"lambda_grid": [0.1, "x"]}}}, "sweeps.bias.lambda_grid"),
        ({"model": {"d": 0}}, "model.d"),
    ):
        with pytest.raises(ConfigError) as err:
            config_from_doc(doc)
        assert any(p.startswith(key) for p in err.value.problems), err.value.problems


def test_unknown_keys_are_config_errors_naming_each():
    # a misspelt key used to be ignored: optimizer.m ran with the default M
    doc = {
        "version": 1,
        "optimizer": {"m": 20, "M": 20},
        "sweep": {"bias": {}},
        "sweeps": {"bias": {"n_pair": 3}, "ksos": {"seeds": 2}},
        "domain": {"params": {"anything": 1}},  # checked by generate instead
    }
    with pytest.raises(ConfigError) as err:
        config_from_doc(doc)
    assert err.value.problems == [
        "optimizer.m: unknown key", "sweep: unknown key", "sweeps.bias.n_pair: unknown key",
    ]


def test_generate_rejects_unknown_domain_params(tmp_path, capsys):
    # an unknown generator argument exited 1 with a TypeError traceback
    bad = dict(TOY, domain=dict(TOY["domain"], params={"jobs": [4], "job": [5], "p_mx": 2.0}))
    out = tmp_path / "x"
    assert main(["generate", "--config", write_cfg(tmp_path, bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    takes = "the scheduling generator takes jobs, r_max, p_min, p_max"
    assert f"domain.params.job: unknown key; {takes}" in err
    assert f"domain.params.p_mx: unknown key; {takes}" in err
    assert not (out / "instances_train.jsonl").exists()


@pytest.mark.parametrize(
    "jobs, why",
    [([0], "job counts must be >= 1"), (5, "'int' object is not iterable")],
)
def test_generate_rejects_a_domain_param_value_the_generator_cannot_use(tmp_path, capsys, jobs, why):
    # the generator's ValueError or TypeError exited 1 with a traceback
    bad = dict(TOY, domain=dict(TOY["domain"], params={"jobs": jobs}))
    out = tmp_path / "x"
    assert main(["generate", "--config", write_cfg(tmp_path, bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"domain.params: the scheduling generator rejects {{'jobs': {jobs}}}: {why}" in err
    assert not (out / "instances_train.jsonl").exists()


def test_benchmark_workload_configs_use_only_known_keys(monkeypatch):
    from perturbopt.problems import generator_params

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.syspath_prepend(os.path.join(root, "perfbench"))
    from workloads import WORKLOADS

    for workload in WORKLOADS.values():
        for quick in (False, True):
            cfg = config_from_doc(workload.config(7, quick))
            assert set(cfg.get("domain.params")) <= set(generator_params(cfg.get("domain.name")))


@pytest.mark.parametrize("path", ["optimizer.delta", "sweeps.nprocess.delta"])
def test_confidence_level_lies_in_the_open_unit_interval(path):
    assert config_from_doc(doc_with(path, 0.5)).get(path) == 0.5
    for value in (0.0, 1.0, -0.1, 200.0):
        with pytest.raises(ConfigError) as err:
            config_from_doc(doc_with(path, value))
        assert err.value.problems == [f"{path}: must be > 0.0 and < 1.0, got {value!r}"]


def test_sweep_conflicts_are_checked_only_for_the_sweep_that_runs():
    # epsilon0 above the default bias grid is fine until sweep bias runs
    cfg = config_from_doc({"perturb": {"lambda": 0.1, "epsilon0": 0.05}})
    for kind in ("nprocess", "ksos"):
        cfg.check_sweep(kind)
    with pytest.raises(ConfigError) as err:
        cfg.check_sweep("bias")
    assert err.value.problems == [
        "sweeps.bias.lambda_grid: value 0.01 below epsilon0 0.05",
        "sweeps.bias.lambda_grid: value 0.03 below epsilon0 0.05",
    ]
    cfg = config_from_doc({"sweeps": {"nprocess": {"pool": 2560, "n_grid": [64, 256]}}})
    cfg.check_sweep("nprocess")
    cfg = config_from_doc({"sweeps": {"nprocess": {"pool": 2559, "n_grid": [64, 256]}}})
    with pytest.raises(ConfigError, match="sweeps.nprocess.pool"):
        cfg.check_sweep("nprocess")


def test_malformed_config_value_exits_2(tmp_path, capsys):
    bad = dict(TOY, perturb=dict(TOY["perturb"], **{"lambda": "abc"}))
    cfg_path = write_cfg(tmp_path, bad)
    assert main(["generate", "--config", cfg_path, "--out", str(tmp_path / "x")]) == 2
    assert "perturb.lambda: must be a number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, patch, key",
    [
        ("train", {"optimizer": {"M": "abc"}}, "optimizer.M: "),
        ("train", {"optimizer": {"M": 0}}, "optimizer.M: "),
        ("train", {"optimizer": {"M": 2}}, "optimizer: need M >= d + 1"),
        ("train", {"optimizer": {"s": 1.5}}, "optimizer: need smoothness s > 1 + d/2"),
        ("train", {"optimizer": {"kind": "randomsearch", "budget": 0}}, "optimizer.budget: "),
        ("sweep bias", {"sweeps": {"bias": {"n_pairs": "x"}}}, "sweeps.bias.n_pairs: "),
        ("sweep nprocess", {"sweeps": {"nprocess": {"seeds": "x"}}}, "sweeps.nprocess.seeds: "),
        ("generate", {"domain": {"n_train": True}}, "domain.n_train: "),
        # a confidence level outside (0, 1) made lambda_phi_schedule complex
        ("train", {"optimizer": {"delta": 200.0, "M": 16}}, "optimizer.delta: must be > 0.0 and < 1.0"),
        # cross-field conflicts the sweep itself would only find mid-run
        (
            "sweep nprocess",
            {"sweeps": {"nprocess": {"pool": 1000, "n_grid": [64, 256]}}},
            "sweeps.nprocess.pool: must be at least 10x",
        ),
        ("sweep bias", {"perturb": {"epsilon0": 0.05}}, "sweeps.bias.lambda_grid: value 0.01 below"),
    ],
    ids=[
        "M-abc", "M-0", "M-below-d", "s-rough", "budget-0", "n_pairs-x", "seeds-x", "n_train-true",
        "delta-200", "pool-below-10n", "default-grid-below-eps0",
    ],
)
def test_invalid_value_exits_2_naming_its_key(tmp_path, capsys, command, patch, key):
    # each of these exited 1 with a traceback, or ran on a wrong value
    out = str(tmp_path / "run")
    assert main(["generate", "--config", write_cfg(tmp_path, TOY), "--out", out]) == 0
    doc = {k: dict(TOY.get(k, {}), **v) for k, v in patch.items()}
    cfg_path = write_cfg(tmp_path, dict(TOY, **doc), name="bad.yaml")
    capsys.readouterr()
    assert main([*command.split(), "--config", cfg_path, "--out", out]) == 2
    assert key in capsys.readouterr().err


def test_config_roundtrip(tmp_path):
    path = write_cfg(tmp_path, TOY)
    cfg = load_config(path)
    assert cfg.to_doc()["domain"] == TOY["domain"]
    # lossless through serialization
    path2 = write_cfg(tmp_path, cfg.to_doc(), name="cfg2.yaml")
    assert load_config(path2).to_doc() == cfg.to_doc()


def test_config_yaml_error_reports_line(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("domain:\n  name: [unclosed\n")
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert "parse error" in "\n".join(err.value.problems)


# ---------------------------------------------------------------------------
# generate


def test_generate_writes_dataset_and_manifest(tmp_path):
    cfg_path = write_cfg(tmp_path, TOY)
    out = str(tmp_path / "run")
    assert main(["generate", "--config", cfg_path, "--out", out]) == 0
    train = load_instances(os.path.join(out, "instances_train.jsonl"))
    assert len(train) == 12
    assert all(x.polytope.n == 4 for x in train)
    ok, bad = verify_manifest(out)
    assert ok, bad


def test_generate_deterministic_digests(tmp_path):
    cfg_path = write_cfg(tmp_path, TOY)
    outs = [str(tmp_path / f"run{i}") for i in range(2)]
    for out in outs:
        assert main(["generate", "--config", cfg_path, "--out", out]) == 0
    for name in ("instances_train.jsonl", "instances_test.jsonl"):
        digests = [file_digest(os.path.join(o, name)) for o in outs]
        assert digests[0] == digests[1]


def test_generate_rejects_bad_config(tmp_path):
    bad = dict(TOY, domain=dict(TOY["domain"], n_train=0))
    cfg_path = write_cfg(tmp_path, bad)
    assert main(["generate", "--config", cfg_path, "--out", str(tmp_path / "x")]) == 2


def test_missing_config_file_is_config_error(tmp_path):
    assert main(["generate", "--config", str(tmp_path / "none.yaml")]) == 2


def test_output_env_var(tmp_path, monkeypatch):
    cfg_path = write_cfg(tmp_path, TOY)
    out = str(tmp_path / "envout")
    monkeypatch.setenv("PERTURBOPT_OUT", out)
    assert main(["generate", "--config", cfg_path]) == 0
    assert os.path.exists(os.path.join(out, "instances_train.jsonl"))


# ---------------------------------------------------------------------------
# train


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("train")
    cfg_path = write_cfg(tmp_path, TOY)
    out = str(tmp_path / "run")
    assert main(["generate", "--config", cfg_path, "--out", out]) == 0
    code = main(["train", "--config", cfg_path, "--out", out])
    return out, code


def test_train_writes_artifacts(trained_run):
    out, code = trained_run
    assert code in (0, 3)
    result = json.load(open(os.path.join(out, "result.json")))
    assert "w_hat" in result and "c_hat" in result
    assert "comparison" in result
    assert "budget_matched_random_search" in result["comparison"]
    assert "certificate_inputs" in result
    for name in ("risk_train.json", "risk_test.json"):
        doc = json.load(open(os.path.join(out, name)))
        assert "value" in doc and "seed_trace" in doc
    ok, bad = verify_manifest(out)
    assert ok, bad


def test_train_evaluation_equals_single_w_calls(trained_run):
    # train scores its 22 test-set policies in one batched regularized_risk
    # call; every number equals a single-w call made in the order train
    # made them before: w_hat, the 20 random policies, then the baseline
    from perturbopt.ksos import baseline_minimize
    from perturbopt.model import ParamSpace, model_for_instances
    from perturbopt.perturb import PerturbationSpec, crn_risk_surface, regularized_risk
    from perturbopt.problems import default_cost_oracle
    from perturbopt.rngs import spawn_seed, substream

    out, _code = trained_run
    train = load_instances(os.path.join(out, "instances_train.jsonl"))
    test = load_instances(os.path.join(out, "instances_test.jsonl"))
    model = model_for_instances(train, d=2)
    space = ParamSpace.symmetric(2)
    oracle = default_cost_oracle("scheduling")
    spec = PerturbationSpec(lam=0.1, epsilon0=0.001, mc_samples=128, master_seed=7)
    result = json.load(open(os.path.join(out, "result.json")))
    w_hat = np.array(result["w_hat"])

    def risk(w, instances):
        return regularized_risk(w, instances, oracle, model, space, spec)

    train_report = risk(w_hat, train)
    test_report = risk(w_hat, test)
    random_ws = space.sample(substream(7, "train/random_policies"), 20)
    random_risks = [risk(w, test).value for w in random_ws]
    surface = crn_risk_surface(train, oracle, model, space, spec)
    base_w, base_v = baseline_minimize(
        surface, space, "randomsearch", 32, seed=spawn_seed(7, "train/baseline_matched")
    )
    assert result["comparison"] == {
        "random_policy_test_risks": random_risks,
        "random_policy_median": float(np.median(random_risks)),
        "budget_matched_random_search": {
            "w": base_w.tolist(),
            "train_value": base_v,
            "test_risk": risk(base_w, test).value,
        },
    }
    for name, report in (("risk_train.json", train_report), ("risk_test.json", test_report)):
        text = json.dumps(report.to_doc(), indent=2, sort_keys=True) + "\n"
        assert open(os.path.join(out, name)).read() == text


@pytest.mark.parametrize(
    "optimizer, budgets",
    [
        # no M: kSoS samples the default 96 points, and so does its match
        ({"kind": "ksos", "budget": 5}, [96]),
        ({"kind": "randomsearch", "M": 50, "budget": 20}, [20, 20]),
    ],
    ids=["ksos", "randomsearch"],
)
def test_matched_random_search_gets_the_optimizer_budget(tmp_path, monkeypatch, optimizer, budgets):
    from perturbopt import ksos

    cfg_path = write_cfg(tmp_path, dict(TOY, optimizer=optimizer))
    out = str(tmp_path / "run")
    assert main(["generate", "--config", cfg_path, "--out", out]) == 0
    seen = []
    real = ksos.baseline_minimize

    def recording(surface, space, method, budget, seed=0):
        seen.append(budget)
        return real(surface, space, method, budget, seed=seed)

    monkeypatch.setattr(ksos, "baseline_minimize", recording)
    assert main(["train", "--config", cfg_path, "--out", out]) in (0, 3)
    assert seen == budgets


def test_train_requires_dataset(tmp_path):
    cfg_path = write_cfg(tmp_path, TOY)
    assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "empty")]) == 2


@pytest.mark.parametrize("missing", ["instances_train.jsonl", "instances_test.jsonl"])
def test_train_with_a_dataset_file_missing_exits_2_naming_it(tmp_path, capsys, missing):
    cfg_path = write_cfg(tmp_path, TOY)
    out = str(tmp_path / "run")
    assert main(["generate", "--config", cfg_path, "--out", out]) == 0
    os.remove(os.path.join(out, missing))
    assert main(["train", "--config", cfg_path, "--out", out]) == 2
    assert f"{missing} not found" in capsys.readouterr().err


def test_train_takes_no_threads_flag(tmp_path, capsys):
    # train, generate and check are serial; only sweep has worker threads
    cfg_path = write_cfg(tmp_path, TOY)
    for command in ("generate", "train", "check"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", cfg_path, "--threads", "2"])
        assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweeps


def test_bias_sweep_schema(tmp_path):
    doc = dict(
        TOY,
        sweeps={"bias": {"lambda_grid": [0.01, 0.1, 1.0], "n_pairs": 6, "n_instances": 12}},
    )
    cfg_path = write_cfg(tmp_path, doc)
    out = str(tmp_path / "run")
    os.makedirs(out)
    assert main(["sweep", "bias", "--config", cfg_path, "--out", out]) == 0
    rows = read_csv_rows(os.path.join(out, "sweep_bias.csv"))
    assert {"schema_version", "lambda", "lhs", "rhs2osc", "rhs4osc", "passed"} <= set(
        rows[0]
    )
    assert all(r["schema_version"] == "1" for r in rows)
    assert all(r["passed"] == "1" for r in rows)
    assert len(rows) == 2 * 3  # n_w * len(grid)
    summary = read_csv_rows(os.path.join(out, "sweep_bias_summary.csv"))
    assert summary[0]["all_passed"] == "1"


def test_nprocess_sweep_schema(tmp_path):
    doc = dict(
        TOY,
        sweeps={
            "nprocess": {
                "n_grid": [64, 256],
                "seeds": 3,
                "w_grid": 32,
                "pool": 5000,
                "lambda": 0.5,
            }
        },
    )
    cfg_path = write_cfg(tmp_path, doc)
    out = str(tmp_path / "run")
    os.makedirs(out)
    assert main(["sweep", "nprocess", "--config", cfg_path, "--out", out]) == 0
    rows = read_csv_rows(os.path.join(out, "sweep_nprocess.csv"))
    assert len(rows) == 6
    summary = read_csv_rows(os.path.join(out, "sweep_nprocess_summary.csv"))
    assert "fitted_slope" in summary[0]
    assert "slope_ci_lo" in summary[0]


def test_ksos_sweep_schema(tmp_path):
    doc = dict(TOY, sweeps={"ksos": {"m_grid": [16, 32], "seeds": 2, "d": 1}})
    cfg_path = write_cfg(tmp_path, doc)
    out = str(tmp_path / "run")
    os.makedirs(out)
    assert main(["sweep", "ksos", "--config", cfg_path, "--out", out]) == 0
    rows = read_csv_rows(os.path.join(out, "sweep_ksos.csv"))
    assert len(rows) == 4
    assert {"M", "arg_error", "certificate_covers"} <= set(rows[0])
    assert all(r["certificate_covers"] == "1" for r in rows)


def test_sweep_thread_invariance(tmp_path):
    doc = dict(
        TOY,
        sweeps={
            "bias": {"lambda_grid": [0.01, 0.1, 1.0], "n_pairs": 6, "n_instances": 12},
            "ksos": {"m_grid": [16, 32], "seeds": 2, "d": 1},
        },
    )
    cfg_path = write_cfg(tmp_path, doc)
    digests = {}
    for threads in (1, 2):
        out = str(tmp_path / f"t{threads}")
        os.makedirs(out)
        for kind in ("ksos", "bias"):
            assert main(["sweep", kind, "--config", cfg_path, "--out", out, "--threads", str(threads)]) == 0
        digests[threads] = [
            file_digest(os.path.join(out, f"sweep_{kind}{suffix}.csv"))
            for kind in ("ksos", "bias")
            for suffix in ("", "_summary")
        ]
    assert digests[1] == digests[2]


# ---------------------------------------------------------------------------
# check


def test_check_passes_and_exit_zero(tmp_path):
    doc = dict(TOY, check={"names": ["gauss_tail", "plambda_closed_form"]})
    cfg_path = write_cfg(tmp_path, doc)
    out = str(tmp_path / "run")
    os.makedirs(out)
    assert main(["check", "--config", cfg_path, "--out", out]) == 0
    report = json.load(open(os.path.join(out, "check_report.json")))
    assert all(c["passed"] for c in report["checks"])


def test_check_fault_injection_fails(tmp_path, capsys):
    doc = dict(
        TOY, check={"names": ["oracle_equivalence"], "inject_fault": "corrupt_oracle"}
    )
    cfg_path = write_cfg(tmp_path, doc)
    out = str(tmp_path / "run")
    os.makedirs(out)
    assert main(["check", "--config", cfg_path, "--out", out]) == 1
    assert "oracle_equivalence" in capsys.readouterr().out


def test_check_empty_list_warns(tmp_path, capsys):
    doc = dict(TOY, check={"names": []})
    cfg_path = write_cfg(tmp_path, doc)
    out = str(tmp_path / "run")
    os.makedirs(out)
    assert main(["check", "--config", cfg_path, "--out", out]) == 0
    assert "0 checks" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# manifest


def test_manifest_detects_tampering(tmp_path):
    cfg_path = write_cfg(tmp_path, TOY)
    out = str(tmp_path / "run")
    assert main(["generate", "--config", cfg_path, "--out", out]) == 0
    ok, _ = verify_manifest(out)
    assert ok
    target = os.path.join(out, "instances_train.jsonl")
    with open(target, "a") as fh:
        fh.write("\n")
    ok, bad = verify_manifest(out)
    assert not ok
    assert any("instances_train" in b for b in bad)


def test_manifest_times_a_block_that_raises(tmp_path):
    manifest = ManifestWriter(str(tmp_path), {})
    with manifest.time("ok"):
        pass
    with pytest.raises(RuntimeError):
        with manifest.time("failed"):
            raise RuntimeError("solver gave up")
    assert sorted(manifest.timings) == ["failed", "ok"]
    assert all(t >= 0.0 for t in manifest.timings.values())


def test_manifest_records_artifact_version(tmp_path):
    cfg_path = write_cfg(tmp_path, TOY)
    out = str(tmp_path / "run")
    main(["generate", "--config", cfg_path, "--out", out])
    doc = load_manifest(out)
    assert doc["artifact_version"].startswith("perturbopt-0.1.0+")
    assert doc["config"]["master_seed"] == 7


def test_seed_override_changes_dataset(tmp_path):
    cfg_path = write_cfg(tmp_path, TOY)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    main(["generate", "--config", cfg_path, "--out", out1])
    main(["generate", "--config", cfg_path, "--out", out2, "--seed-override", "99"])
    d1 = file_digest(os.path.join(out1, "instances_train.jsonl"))
    d2 = file_digest(os.path.join(out2, "instances_train.jsonl"))
    assert d1 != d2
    assert load_manifest(out2)["config"]["master_seed"] == 99


# A CLI process imports only the layers its command runs (module docstring
# of harness/cli.py); scipy.stats, a large share of start-up, never loads:
# the package calls the scipy.special ufuncs underneath it instead.
IMPORT_BUDGET_SCRIPT = """
import json, sys
from perturbopt.harness.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""
IMPORT_TOY = dict(
    TOY, perturb=dict(TOY["perturb"], samples=16), optimizer={"kind": "ksos", "M": 8},
    sweeps={"bias": {"lambda_grid": [0.1, 1.0], "n_pairs": 2, "n_instances": 5}},
)


def _domain(name, **params):
    return {"domain": dict(TOY["domain"], name=name, params=params)}


def _loaded_modules(tmp_path, argv):
    src = os.path.dirname(os.path.dirname(perturbopt.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_BUDGET_SCRIPT, *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, check=True,
    )
    doc = json.loads(out.stdout.strip().splitlines()[-1])
    return doc["code"], doc["modules"]


@pytest.mark.parametrize(
    "words, patch, code, unloaded",
    [
        pytest.param(["--help"], {}, 0, ("numpy", "scipy"), id="help"),
        pytest.param(
            ["generate"], {"domain": dict(TOY["domain"], n_train=0)}, 2, ("numpy", "scipy"),
            id="config-error",
        ),
        pytest.param(["generate"], _domain("scheduling", jobs=[4]), 0, ("scipy",), id="generate-scheduling"),
        pytest.param(["generate"], _domain("stovsp", tasks=[4]), 0, ("scipy",), id="generate-stovsp"),
        pytest.param(["generate"], _domain("contextual", d_context=2), 0, ("scipy",), id="generate-contextual"),
        pytest.param(
            ["train"], {}, 0,
            ("perturbopt.theory", "perturbopt.harness.checks", "perturbopt.harness.sweeps", "scipy.stats"),
            id="train",
        ),
        pytest.param(
            ["sweep", "bias"], {}, 0, ("perturbopt.ksos", "scipy.integrate", "scipy.stats"), id="sweep-bias"
        ),
    ],
)
def test_cli_command_import_budget(tmp_path, words, patch, code, unloaded):
    cfg_path = write_cfg(tmp_path, dict(IMPORT_TOY, **patch))
    out = str(tmp_path / "run")
    if words[0] == "train":
        assert main(["generate", "--config", cfg_path, "--out", out]) == 0
    argv = words if words[0] == "--help" else [*words, "--config", cfg_path, "--out", out]
    got, modules = _loaded_modules(tmp_path, argv)
    assert got == code
    assert [m for m in modules if any(m == u or m.startswith(u + ".") for u in unloaded)] == []

import csv
import dataclasses
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
    # no computation relates lambda to epsilon0: lambda below it loads
    cfg = config_from_doc({"perturb": {"lambda": 0.001, "epsilon0": 0.1}})
    assert cfg.get("perturb.lambda") == 0.001
    assert config_from_doc({"perturb": {"lambda": 0.0}}).get("perturb.lambda") == 0.0
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


@pytest.mark.parametrize(
    "command, path, grid",
    [
        # a repeated lambda merged its rows: n_pairs 6 wrote 4 bias rows, not 6
        ("sweep bias", "sweeps.bias.lambda_grid", [0.1, 0.1, 1.0]),
        ("sweep nprocess", "sweeps.nprocess.n_grid", [64, 64, 128]),
        ("sweep ksos", "sweeps.ksos.m_grid", [32, 32, 64]),
    ],
    ids=["lambda_grid", "n_grid", "m_grid"],
)
def test_repeated_grid_value_exits_2_naming_its_key(tmp_path, capsys, command, path, grid):
    out = tmp_path / "run"
    cfg_path = write_cfg(tmp_path, doc_with(path, grid))
    assert main([*command.split(), "--config", cfg_path, "--out", str(out)]) == 2
    assert f"{path}: must be a nonempty strictly increasing list of " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, doc",
    [
        ("check", {"perturb": {"epsilon0": 0.05}}),
        ("sweep bias", {"perturb": {"epsilon0": 0.05}}),
        ("generate", dict(TOY, domain=dict(TOY["domain"], params={"jobs": [4], "job": [5]}))),
        ("generate", dict(TOY, domain=dict(TOY["domain"], params={"jobs": [0]}))),
        ("train", dict(TOY, optimizer={"M": 2})),
        # these two raised ValueError in a sweep worker and exited 1
        ("sweep ksos", {"sweeps": {"ksos": {"d": 3}}}),
        ("sweep ksos", {"sweeps": {"ksos": {"m_grid": [1, 32]}}}),
    ],
    ids=[
        "check-eps0", "sweep-bias-eps0", "generate-unknown-param", "generate-rejected-param", "train-ksos",
        "sweep-ksos-s", "sweep-ksos-m",
    ],
)
def test_an_exit_2_leaves_no_output_directory(tmp_path, capsys, command, doc):
    # each of these exited 2 and left an empty output directory behind
    out = tmp_path / "run"
    assert main([*command.split(), "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 2
    assert capsys.readouterr().err
    assert not out.exists()


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
        # the random search runs only as kSoS's budget-matched comparison
        ("train", {"optimizer": {"budget": 0}}, "optimizer.budget: unknown key"),
        ("train", {"optimizer": {"kind": "randomsearch"}}, "optimizer.kind: must be one of ksos"),
        ("train", {"optimizer": {"kind": "neldermead"}}, "optimizer.kind: "),
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
        # check's bias_bounds reads the same grid and epsilon0
        ("check", {"perturb": {"epsilon0": 0.05}}, "sweeps.bias.lambda_grid: value 0.01 below"),
    ],
    ids=[
        "M-abc", "M-0", "M-below-d", "s-rough", "budget-0", "kind-randomsearch", "kind-neldermead",
        "n_pairs-x", "seeds-x", "n_train-true", "delta-200", "pool-below-10n",
        "default-grid-below-eps0", "check-default-grid-below-eps0",
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
    assert not os.path.exists(os.path.join(out, "check_report.json"))


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


def test_train_certificate_carries_its_verdict_against_the_train_osc(trained_run):
    from perturbopt.problems import default_cost_oracle, osc_bound

    out, _code = trained_run
    result = json.load(open(os.path.join(out, "result.json")))
    osc = osc_bound(default_cost_oracle("scheduling"), load_instances(os.path.join(out, "instances_train.jsonl")))
    bound = result["certified_optimality_bound"]
    assert result["osc_source"] == "vertices"
    assert result["certificate_over_osc"] == bound / osc
    assert result["vacuous"] == (bound >= osc)


def test_train_osc_past_the_enumeration_cap_is_the_declared_one():
    from perturbopt.harness.cli import _train_osc
    from perturbopt.problems import declared_osc, default_cost_oracle, generate_instances

    oracle = default_cost_oracle("scheduling")
    train = generate_instances("scheduling", 3, seed=5, jobs=[8])  # 8! vertices, past the cap
    assert _train_osc(oracle, train) == (declared_osc(oracle, train), "declared")


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
    spec = PerturbationSpec(lam=0.1, mc_samples=128, master_seed=7)
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
        surface, space, 32, seed=spawn_seed(7, "train/baseline_matched")
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


def test_train_risk_is_the_surface_ksos_scored(trained_run):
    # the kSoS objective and the reported train risk are one function: the
    # surface at w_hat, which kSoS scored for its gap, is risk_train.json's value
    from perturbopt.model import ParamSpace, model_for_instances
    from perturbopt.perturb import PerturbationSpec, crn_risk_surface
    from perturbopt.problems import default_cost_oracle

    out, _code = trained_run
    train = load_instances(os.path.join(out, "instances_train.jsonl"))
    spec = PerturbationSpec(lam=0.1, mc_samples=128, master_seed=7)
    surface = crn_risk_surface(
        train, default_cost_oracle("scheduling"), model_for_instances(train, d=2),
        ParamSpace.symmetric(2), spec,
    )
    result = json.load(open(os.path.join(out, "result.json")))
    scored = surface(np.array(result["w_hat"]))
    assert result["aposteriori_gap"] == scored - result["c_hat"]
    assert json.load(open(os.path.join(out, "risk_train.json")))["value"] == scored


def test_matched_random_search_gets_the_optimizer_budget(tmp_path, monkeypatch):
    from perturbopt import ksos

    # no M: kSoS samples the default 96 points, and so does its match
    cfg_path = write_cfg(tmp_path, dict(TOY, optimizer={"kind": "ksos"}))
    out = str(tmp_path / "run")
    assert main(["generate", "--config", cfg_path, "--out", out]) == 0
    seen = []
    real = ksos.baseline_minimize

    def recording(surface, space, budget, seed=0):
        seen.append(budget)
        return real(surface, space, budget, seed=seed)

    monkeypatch.setattr(ksos, "baseline_minimize", recording)
    assert main(["train", "--config", cfg_path, "--out", out]) in (0, 3)
    assert seen == [96]


def test_train_on_a_non_finite_gram_matrix_exits_3_with_the_error(tmp_path, capsys):
    # at a length-scale of 1e-320 the Matern closed form meets inf * 0
    doc = dict(
        TOY,
        domain={"name": "contextual", "n_train": 8, "n_test": 8, "params": {"d_context": 2}},
        optimizer={"kind": "ksos", "M": 16, "s": 2.5, "length_scale": 1.0e-320},
    )
    cfg_path = write_cfg(tmp_path, doc)
    out = str(tmp_path / "run")
    assert main(["generate", "--config", cfg_path, "--out", out]) == 0
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["train", "--config", cfg_path, "--out", out]) == 3
    result = json.load(open(os.path.join(out, "result.json")))
    assert list(result) == ["error"] and "not finite" in result["error"]
    assert "solver failure: Gram matrix not finite" in capsys.readouterr().err


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
    # every command runs serially, sweeps included
    cfg_path = write_cfg(tmp_path, TOY)
    for command in ("generate", "train", "check", "sweep bias"):
        with pytest.raises(SystemExit) as exc:
            main([*command.split(), "--config", cfg_path, "--threads", "2"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweeps


def sweep_out(tmp_path):
    # ".csv" inside the directory name: a summary path found by rewriting
    # ".csv" in the CSV's path missed the summary file here
    out = str(tmp_path / "runs.csv.d")
    os.makedirs(out)
    return out


def assert_manifest_lists_csv_and_summary(out, kind):
    assert sorted(load_manifest(out)["files"]) == [f"sweep_{kind}.csv", f"sweep_{kind}_summary.csv"]
    ok, bad = verify_manifest(out)
    assert ok, bad


def test_bias_sweep_schema(tmp_path):
    doc = dict(
        TOY,
        sweeps={"bias": {"lambda_grid": [0.01, 0.1, 1.0], "n_pairs": 6, "n_instances": 12}},
    )
    cfg_path = write_cfg(tmp_path, doc)
    out = sweep_out(tmp_path)
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
    assert_manifest_lists_csv_and_summary(out, "bias")


def test_bias_sweep_takes_every_tail_mass_in_one_call(tmp_path, monkeypatch):
    # one tail_mass_V call over the stack of all w, so one chi_tail call on
    # the one contextual cell, and one regularized_risk call over each w
    # repeated at lambda = 0, epsilon0 and the grid; each check still runs
    # once per w, is handed its row and its block, and scores nothing
    from perturbopt import perturb, theory
    from perturbopt.harness import sweeps

    calls = {"tail_mass_V": [], "chi_tail": 0, "regularized_risk": [], "check_bias_bound": 0}
    real_tail, real_chi, real_check = perturb.tail_mass_V, perturb.chi_tail, theory.check_bias_bound
    real_risk = perturb.regularized_risk

    def tail(w, *args, **kwargs):
        calls["tail_mass_V"].append(np.shape(w))
        return real_tail(w, *args, **kwargs)

    def chi(*args, **kwargs):
        calls["chi_tail"] += 1
        return real_chi(*args, **kwargs)

    def risk(w, *args, **kwargs):
        calls["regularized_risk"].append(np.shape(w))
        return real_risk(w, *args, **kwargs)

    def check(w, *args, **kwargs):
        assert np.shape(w) == (2,) and kwargs["v_grid"] is not None and len(kwargs["risks"]) == 2 + 3
        calls["check_bias_bound"] += 1
        return real_check(w, *args, **kwargs)

    def no_risk(*args, **kwargs):
        raise AssertionError("check_bias_bound scored the risks it was given")

    monkeypatch.setattr(sweeps, "tail_mass_V", tail)
    monkeypatch.setattr(perturb, "chi_tail", chi)
    monkeypatch.setattr(sweeps, "regularized_risk", risk)
    monkeypatch.setattr(sweeps, "check_bias_bound", check)
    monkeypatch.setattr(theory, "regularized_risk", no_risk)
    doc = dict(
        TOY,
        sweeps={"bias": {"lambda_grid": [0.01, 0.1, 1.0], "n_pairs": 12, "n_instances": 12}},
    )
    out = sweep_out(tmp_path)
    assert main(["sweep", "bias", "--config", write_cfg(tmp_path, doc), "--out", out]) == 0
    assert calls == {
        "tail_mass_V": [(4, 2)], "chi_tail": 1, "regularized_risk": [(4 * (2 + 3), 2)], "check_bias_bound": 4,
    }
    assert len(read_csv_rows(os.path.join(out, "sweep_bias.csv"))) == 4 * 3


@pytest.mark.parametrize("values", [[0.3], [2.0, -1.0], [0.1, 0.7, -0.2], [0.5, 0.25, 3.0, 1e-9, -7.0, 0.1]])
def test_sweep_median_is_np_median_bitwise(values):
    from perturbopt.perturb import median

    got = median(values)
    assert type(got) is float and got.hex() == float(np.median(values)).hex()


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
    out = sweep_out(tmp_path)
    assert main(["sweep", "nprocess", "--config", cfg_path, "--out", out]) == 0
    rows = read_csv_rows(os.path.join(out, "sweep_nprocess.csv"))
    assert len(rows) == 6
    summary = read_csv_rows(os.path.join(out, "sweep_nprocess_summary.csv"))
    assert "fitted_slope" in summary[0]
    assert "slope_ci_lo" in summary[0]
    assert_manifest_lists_csv_and_summary(out, "nprocess")


def test_ksos_sweep_schema(tmp_path):
    doc = dict(TOY, sweeps={"ksos": {"m_grid": [16, 32], "seeds": 2, "d": 1}})
    cfg_path = write_cfg(tmp_path, doc)
    out = sweep_out(tmp_path)
    assert main(["sweep", "ksos", "--config", cfg_path, "--out", out]) == 0
    rows = read_csv_rows(os.path.join(out, "sweep_ksos.csv"))
    assert len(rows) == 4
    assert {"M", "arg_error", "certificate_covers", "max_constraint_residual"} <= set(rows[0])
    assert all(r["certificate_covers"] == "1" for r in rows)
    assert all(np.isfinite(float(r["max_constraint_residual"])) for r in rows)
    assert_manifest_lists_csv_and_summary(out, "ksos")


@pytest.mark.parametrize("threads", [0, 2])
def test_config_threads_other_than_1_exits_2(tmp_path, capsys, threads):
    # sweeps run serially; threads is pinned to 1 until the benchmark configs drop it
    out = tmp_path / "run"
    cfg_path = write_cfg(tmp_path, dict(TOY, threads=threads))
    assert main(["sweep", "bias", "--config", cfg_path, "--out", str(out)]) == 2
    assert "threads: must be >= 1 and <= 1" in capsys.readouterr().err
    assert not out.exists()


def test_config_threads_1_writes_the_bias_sweep_of_no_threads_key(tmp_path):
    doc = dict(TOY, sweeps={"bias": {"lambda_grid": [0.01, 0.1, 1.0], "n_pairs": 6, "n_instances": 12}})
    digests = []
    for name, cfg_doc in (("without", doc), ("with", dict(doc, threads=1))):
        out = str(tmp_path / name)
        assert main(["sweep", "bias", "--config", write_cfg(tmp_path, cfg_doc), "--out", out]) == 0
        digests.append([
            file_digest(os.path.join(out, f"sweep_bias{suffix}.csv")) for suffix in ("", "_summary")
        ])
    assert digests[0] == digests[1]


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


def test_check_fault_injection_fails(tmp_path, capsys, monkeypatch):
    from perturbopt.harness import checks

    real = checks.linear_oracle

    def corrupt_oracle(polytope, theta):
        res = real(polytope, theta)
        return dataclasses.replace(res, value=res.value + 0.37)

    monkeypatch.setattr(checks, "linear_oracle", corrupt_oracle)
    doc = dict(TOY, check={"names": ["oracle_equivalence"]})
    cfg_path = write_cfg(tmp_path, doc)
    out = str(tmp_path / "run")
    os.makedirs(out)
    assert main(["check", "--config", cfg_path, "--out", out]) == 1
    assert "[FAIL] oracle_equivalence:" in capsys.readouterr().out


def test_check_plambda_compares_against_the_package_closed_form(tmp_path, capsys, monkeypatch):
    # a wrong closed form, Phi(2 theta / lambda), in the package fails the
    # check: it compares Monte Carlo with exact_policy_distribution
    from perturbopt import perturb

    real = perturb._ndtr
    monkeypatch.setattr(perturb, "_ndtr", lambda t: real(2.0 * t))
    doc = dict(TOY, check={"names": ["plambda_closed_form"]})
    cfg_path = write_cfg(tmp_path, doc)
    out = str(tmp_path / "run")
    os.makedirs(out)
    assert main(["check", "--config", cfg_path, "--out", out]) == 1
    assert "[FAIL] plambda_closed_form:" in capsys.readouterr().out


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
# the package calls the scipy.special ufuncs underneath it instead, each
# imported where it is called.  kSoS runs on numpy alone, and a closed-form
# risk term takes perturb's Phi on libm's erfc, so train loads no scipy
# module at all: not on scheduling, whose every risk term is a Monte Carlo
# mean, nor on the contextual domain, whose every term is closed-form.
# The theory checks import the scipy.special ufuncs they call in the
# functions that call them, and the chi tail is perturb's finite sum on
# math's functions, so neither sweep bias nor sweep ksos, which
# import the theory layer with the sweeps module, nor a check of the
# gauss tail and the bias bounds loads a scipy module.  Neither
# sweep takes np.median, which loads numpy.ma, and every sweep runs
# serially, with no thread pool.  --help and an argparse error load
# neither config (yaml) nor manifest (hashlib), a config error loads no
# manifest, and train takes its median without statistics, which loads
# decimal and fractions.
IMPORT_BUDGET_SCRIPT = """
import json, sys
from perturbopt.harness.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""
ARGPARSE_ONLY = ("yaml", "hashlib", "perturbopt.harness.config", "perturbopt.harness.manifest")
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
        pytest.param(["--help"], None, 0, ("numpy", "scipy", *ARGPARSE_ONLY), id="help"),
        pytest.param(["train"], None, 2, ("numpy", "scipy", *ARGPARSE_ONLY), id="usage-error"),
        pytest.param(
            ["generate"], {"domain": dict(TOY["domain"], n_train=0)}, 2,
            ("numpy", "scipy", "hashlib", "perturbopt.harness.manifest"),
            id="config-error",
        ),
        pytest.param(["generate"], _domain("scheduling", jobs=[4]), 0, ("scipy",), id="generate-scheduling"),
        pytest.param(["generate"], _domain("stovsp", tasks=[4]), 0, ("scipy",), id="generate-stovsp"),
        pytest.param(["generate"], _domain("contextual", d_context=2), 0, ("scipy",), id="generate-contextual"),
        pytest.param(
            ["train"], {}, 0,
            (
                "perturbopt.theory", "perturbopt.harness.checks", "perturbopt.harness.sweeps", "scipy", "numpy.ma",
                "statistics",
            ),
            id="train",
        ),
        pytest.param(
            ["train"], _domain("contextual", d_context=2), 0, ("scipy", "numpy.ma", "statistics"),
            id="train-contextual",
        ),
        pytest.param(
            ["sweep", "bias"], {}, 0, ("perturbopt.ksos", "scipy", "numpy.ma", "concurrent.futures"),
            id="sweep-bias",
        ),
        pytest.param(
            ["sweep", "ksos"], {"sweeps": {"ksos": {"m_grid": [8], "seeds": 1}}}, 0,
            ("scipy", "numpy.ma", "concurrent.futures"),
            id="sweep-ksos",
        ),
        pytest.param(
            ["check"], {"check": {"names": ["gauss_tail", "bias_bounds"]}}, 0, ("scipy", "numpy.ma"),
            id="check-tail-and-bias",
        ),
    ],
)
def test_cli_command_import_budget(tmp_path, words, patch, code, unloaded):
    argv = words  # patch None: the words alone, no config
    if patch is not None:
        cfg_path = write_cfg(tmp_path, dict(IMPORT_TOY, **patch))
        out = str(tmp_path / "run")
        if words[0] == "train":
            assert main(["generate", "--config", cfg_path, "--out", out]) == 0
        argv = [*words, "--config", cfg_path, "--out", out]
    got, modules = _loaded_modules(tmp_path, argv)
    assert got == code
    assert [m for m in modules if any(m == u or m.startswith(u + ".") for u in unloaded)] == []


# A seed reproduces across BLAS thread counts (ROADMAP 1(g)).  At M = 100,
# above OpenBLAS's threading threshold and not a multiple of 16, a threaded
# product rounds differently from a serial one.  Stopping mu where R / mu
# still resolves the Newton tests keeps that rounding in the last digits:
# the two runs differ by about 1e-8 in w_hat and 1e-10 relative in c_hat.
# A mu path run into its rounding noise moves w_hat by 4e-4 and c_hat by
# 1%, with residuals of 2e-4 to 3e-3.
def test_train_does_not_depend_on_blas_threads(tmp_path):
    cfg_path = write_cfg(tmp_path, dict(
        TOY,
        domain={"name": "contextual", "n_train": 32, "n_test": 8, "params": {"d_context": 2, "signal": 1.0}},
        perturb=dict(TOY["perturb"], samples=32),
        optimizer={"kind": "ksos", "M": 100, "s": 2.5},
    ))
    data = str(tmp_path / "data")
    assert main(["generate", "--config", cfg_path, "--out", data]) == 0
    src = os.path.dirname(os.path.dirname(perturbopt.__file__))
    docs = []
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}"
        out.mkdir()
        for name in ("instances_train.jsonl", "instances_test.jsonl"):
            (out / name).write_bytes((tmp_path / "data" / name).read_bytes())
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        subprocess.run(
            [sys.executable, "-c", "import sys; from perturbopt.harness.cli import main; sys.exit(main(sys.argv[1:]))",
             "train", "--config", cfg_path, "--out", str(out)],
            env=env, check=True, capture_output=True,
        )
        docs.append(json.loads((out / "result.json").read_text()))
    one, two = docs
    assert one["converged"] and two["converged"]
    np.testing.assert_allclose(two["w_hat"], one["w_hat"], rtol=0.0, atol=1e-6)
    assert two["c_hat"] == pytest.approx(one["c_hat"], rel=1e-8, abs=0.0)
    assert max(one["max_constraint_residual"], two["max_constraint_residual"]) <= 1e-8

"""Traced run: the perturbopt CLI called in-process, with a span around the
public entry points of each layer.

    python3 perfbench/layertrace.py --report FILE [--probe-seed N]
        [--planted-seed SEED] [--] <perturbopt CLI arguments>

Every hook is installed from this file; nothing under ``src/`` changes.  A
hook whose target no longer exists is skipped and every metric that needs
it is reported as missing, with the target's name, never as zero.

Spans are aggregated while the run goes (calls, total time, self time and
work units per hook) instead of being stored one by one: the vsp workload
makes about 150k flow-oracle calls.  A span's self time is its duration
minus the durations of the hooked calls made inside it, so the self times
of all spans partition the time spent in ``main``.  The tracer keeps one
span stack, which is correct because every workload runs with
``threads: 1``.

After ``main`` returns, the report's ``main_end`` stamp is taken and the
probes run: linear-oracle and vertex-enumeration timings on the workload's
own instances, and, with ``--planted-seed``, kSoS solves of a planted quadratic.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from dataclasses import dataclass

LAYERS = ("harness", "model", "rngs", "perturb", "problems", "polytopes", "kernels", "ksos", "theory")
PLANTED_M = (32, 64, 128)
PROBE_INSTANCES = 8
PROBE_DIRECTIONS = 64
PLANTED_RESERVE_S = 60.0  # skip the planted solves with less time left than this


@dataclass(frozen=True)
class Hook:
    name: str
    layer: str
    targets: tuple  # "module:Qualified.name"
    units: int | None = None  # positional argument whose len() counts the work
    post: str | None = None  # Tracer method applied to (arguments, result)


HOOKS = (
    Hook("harness.main", "harness", ("perturbopt.harness.cli:main",)),
    Hook("harness.load", "harness", ("perturbopt.problems:load_instances",)),
    Hook("problems.generate", "problems", ("perturbopt.problems:generate_instances",)),
    Hook("model.build", "model", ("perturbopt.model:model_for_instances",)),
    Hook("model.predict", "model", ("perturbopt.model:GeneralizedLinearModel.predict",)),
    Hook("rngs.substream", "rngs", ("perturbopt.rngs:substream",)),
    Hook("perturb.surface_build", "perturb", ("perturbopt.perturb:crn_risk_surface",), post="_post_surface_build"),
    Hook("perturb.risk", "perturb", ("perturbopt.perturb:regularized_risk",), post="_post_risk"),
    Hook("perturb.tail_mass", "perturb", ("perturbopt.perturb:tail_mass_V",)),
    Hook(
        "problems.batch",
        "problems",
        (
            "perturbopt.problems:SchedulingCompletionTime.eval_theta_batch",
            "perturbopt.problems:StoVspDelayCost.eval_theta_batch",
            "perturbopt.problems:ContextualWrapper.eval_theta_batch",
        ),
        units=2,
    ),
    Hook(
        "problems.vertices",
        "problems",
        (
            "perturbopt.problems:SchedulingCompletionTime.eval_vertices",
            "perturbopt.problems:StoVspDelayCost.eval_vertices",
            "perturbopt.problems:ContextualWrapper.eval_vertices",
        ),
        units=2,
    ),
    Hook("polytopes.flow", "polytopes", ("perturbopt.polytopes:VspFlow._min_cost_flow",)),
    Hook(
        "polytopes.argmax",
        "polytopes",
        ("perturbopt.polytopes:Permutahedron.argmax", "perturbopt.polytopes:VspFlow.argmax"),
    ),
    Hook("polytopes.radius", "polytopes", ("perturbopt.polytopes:internal_radius",)),
    Hook("polytopes.p0", "polytopes", ("perturbopt.polytopes:p0",)),
    Hook("kernels.sched", "kernels", ("perturbopt.kernels:scheduling_total_completion",), units=0),
    Hook("ksos.minimize", "ksos", ("perturbopt.ksos:ksos_minimize",), post="_post_minimize"),
    Hook("ksos.smoothness", "ksos", ("perturbopt.ksos:glm_smoothness_estimates",)),
    Hook("ksos.baseline", "ksos", ("perturbopt.ksos:baseline_minimize",)),
    Hook("theory.check_bias", "theory", ("perturbopt.theory:check_bias_bound",), post="_post_check_bias"),
)
# The surface closure returned by crn_risk_surface has no import path; it
# is wrapped by the post hook of perturb.surface_build.
SURFACE = Hook("perturb.surface", "perturb", ())


class Tracer:
    def __init__(self, hooks=HOOKS):
        self.hooks = tuple(hooks)
        self.stats = {h.name: [0, 0.0, 0.0, 0] for h in self.hooks + (SURFACE,)}
        self.missing: dict[str, str] = {}
        self.health: dict[str, float] = {
            "ksos.outer_iters": 0,
            "ksos.inner_failed": 0,
            "ksos.max_constraint_residual": 0.0,
            "ksos.negative_mass": 0.0,
            "perturb.tie_reports": 0,
        }
        self.captured: dict = {}
        self._stack = [[0.0]]  # child time of each open span; [0] is the root
        self._patched: list = []

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        for hook in self.hooks:
            for target in hook.targets:
                try:
                    owner, attr, original = _resolve(target)
                except (ImportError, AttributeError) as exc:
                    self.missing[hook.name] = f"{target} ({type(exc).__name__}: {exc})"
                    continue
                wrapper = self.wrap(hook, original)
                for holder, name in _holders(owner, attr, original):
                    setattr(holder, name, wrapper)
                    self._patched.append((holder, name, original))

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._patched):
            setattr(holder, name, original)
        self._patched.clear()

    def wrap(self, hook: Hook, fn):
        stats = self.stats[hook.name]
        stack = self._stack
        clock = time.perf_counter
        units = hook.units
        post = getattr(self, hook.post) if hook.post else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stack[-1][0] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[0]
                if units is not None and units < len(args):
                    stats[3] += len(args[units])
            if post is not None:
                result = post(fn, args, kwargs, result)
            return result

        return wrapper

    # -- post hooks: health counters and captures for the probes -----------
    def _capture(self, fn, args, kwargs, names):
        try:
            bound = inspect.signature(fn).bind(*args, **kwargs).arguments
        except (TypeError, ValueError):
            return
        self.captured.update({k: bound[k] for k in names if k in bound})

    def _post_surface_build(self, fn, args, kwargs, surface):
        self._capture(fn, args, kwargs, ("instances", "model", "space", "spec"))
        return self.wrap(SURFACE, surface)

    def _post_risk(self, fn, args, kwargs, report):
        self.health["perturb.tie_reports"] += int(bool(getattr(report, "ties_encountered", False)))
        return report

    def _post_minimize(self, fn, args, kwargs, result):
        trace = getattr(result, "newton_trace", None)
        if trace is None:
            self.missing["ksos.health"] = "KsosResult.newton_trace"
        else:
            h = self.health
            h["ksos.outer_iters"] += len(trace)
            h["ksos.inner_failed"] += sum(not step.get("inner_converged", True) for step in trace)
            h["ksos.max_constraint_residual"] = max(
                h["ksos.max_constraint_residual"], float(getattr(result, "max_constraint_residual", 0.0))
            )
            h["ksos.negative_mass"] = max(h["ksos.negative_mass"], float(getattr(result, "negative_mass", 0.0)))
        if "w" not in self.captured and getattr(result, "w_hat", None) is not None:
            self.captured["w"] = result.w_hat
        return result

    def _post_check_bias(self, fn, args, kwargs, result):
        if "instances" not in self.captured:
            self._capture(fn, args, kwargs, ("w", "instances", "model", "space", "spec"))
        return result

    # -- report --------------------------------------------------------------
    def report(self) -> dict:
        by_name = {h.name: h for h in self.hooks + (SURFACE,)}
        layers = dict.fromkeys(LAYERS, 0.0)
        for name, (_calls, _total, self_s, _units) in self.stats.items():
            layers[by_name[name].layer] += self_s
        return {
            "stats": {
                name: {"calls": c, "total_s": t, "self_s": s, "units": u}
                for name, (c, t, s, u) in self.stats.items()
            },
            "layers": layers,
            "missing": dict(self.missing),
            "health": dict(self.health),
        }


def _resolve(target: str):
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


def _holders(owner, attr, original):
    """Every place the target is looked up from: the class for a method;
    for a function, each perturbopt module that bound it under any name
    (``from .perturb import regularized_risk``)."""
    if inspect.isclass(owner):
        return [(owner, attr)]
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "perturbopt" or name.startswith("perturbopt.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                found.append((module, key))
    return found


# ---------------------------------------------------------------------------
# Probes, run after main returned and with every hook removed


def probe_polytopes(captured: dict, seed: int) -> dict:
    """Linear-oracle cost per CRN direction on the workload's own
    instances, and the cost of enumerating each distinct polytope afresh."""
    import numpy as np
    from perturbopt.perturb import perturbation_block
    from perturbopt.polytopes import linear_oracle
    from perturbopt.problems import instance_from_doc, instance_to_doc

    needed = ("instances", "model", "space", "spec", "w")
    absent = [k for k in needed if k not in captured]
    if absent:
        raise LookupError(f"nothing captured for {', '.join(absent)}")
    instances, model, space, spec = (captured[k] for k in needed[:4])
    w = np.asarray(captured["w"], dtype=np.float64)
    rng = np.random.default_rng(seed)
    picks = sorted(rng.choice(len(instances), size=min(PROBE_INSTANCES, len(instances)), replace=False))
    n_dirs = 0
    elapsed = 0.0
    for i in picks:
        x = instances[i]
        z = perturbation_block(spec, x.index, x.dim)
        rows = rng.choice(len(z), size=min(PROBE_DIRECTIONS, len(z)), replace=False)
        thetas = model.predict(w, x, space=space)[None, :] + spec.lam * z[rows]
        t0 = time.perf_counter()
        for theta in thetas:
            linear_oracle(x.polytope, theta)
        elapsed += time.perf_counter() - t0
        n_dirs += len(thetas)
    enum_times = []
    seen = set()
    for x in instances:
        doc = instance_to_doc(x)
        key = json.dumps(doc["polytope"], sort_keys=True)
        if key in seen:
            continue
        seen.add(key)
        fresh = instance_from_doc(doc).polytope
        t0 = time.perf_counter()
        fresh.vertices()
        enum_times.append(time.perf_counter() - t0)
    return {
        "polytopes.argmax_us": elapsed / n_dirs * 1e6,
        "polytopes.enumerate_ms": statistics.fmean(enum_times) * 1e3,
    }


def probe_planted(seed: int) -> dict:
    """kSoS solve time on a planted quadratic in d=2 (no oracle), by M."""
    import numpy as np
    from perturbopt.ksos import KsosConfig, ksos_minimize, lambda_phi_schedule
    from perturbopt.model import ParamSpace
    from perturbopt.rngs import spawn_seed, substream

    space = ParamSpace.symmetric(2)
    target = 0.6 * space.sample(substream(seed, "bench/planted/target"), 1)[0]

    def surface(w):
        return float(np.sum((np.asarray(w) - target) ** 2))

    out = {}
    for m in PLANTED_M:
        cfg = KsosConfig(
            M=m, s=2.5, lambda_phi=lambda_phi_schedule(m, 2.5, 2),
            seed=spawn_seed(seed, f"bench/planted/{m}"),
        )
        t0 = time.perf_counter()
        ksos_minimize(surface, space, cfg)
        out[f"ksos.solve_s.M{m}"] = time.perf_counter() - t0
    return out


def _run_probe(report: dict, names, fn, *args) -> None:
    try:
        report["probes"].update(fn(*args))
    except Exception as exc:  # a probe failure is reported, never fatal
        for name in names:
            report["probe_errors"][name] = f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# Per-layer metrics: (name, unit, hooks it needs, value from the report)


def _stat(hook, field):
    return lambda r: r["stats"][hook][field]


def _ratio(hook, field, per, scale):
    """stats[hook][field] per unit of stats[hook][per]; 0 when the hook did
    no such work on this workload."""

    def value(r):
        st = r["stats"][hook]
        return st[field] / st[per] * scale if st[per] else 0.0

    return value


def _health(key):
    return lambda r: r["health"][key]


def _layer(layer):
    return lambda r: r["layers"][layer]


def _hooks_of(layer):
    return tuple(h.name for h in HOOKS if h.layer == layer)


PER_LAYER = tuple(
    [(f"{layer}.self_s", "s", _hooks_of(layer), _layer(layer)) for layer in LAYERS]
    + [
        ("harness.load_s", "s", ("harness.load",), _stat("harness.load", "total_s")),
        ("model.predict_calls", "count", ("model.predict",), _stat("model.predict", "calls")),
        ("model.predict_us", "us", ("model.predict",), _ratio("model.predict", "total_s", "calls", 1e6)),
        ("rngs.substream_calls", "count", ("rngs.substream",), _stat("rngs.substream", "calls")),
        ("perturb.surface_build_s", "s", ("perturb.surface_build",), _stat("perturb.surface_build", "total_s")),
        ("perturb.surface_calls", "count", ("perturb.surface_build",), _stat("perturb.surface", "calls")),
        ("perturb.surface_ms_per_w", "ms", ("perturb.surface_build",),
         _ratio("perturb.surface", "total_s", "calls", 1e3)),
        ("perturb.surface_self_s", "s", ("perturb.surface_build",), _stat("perturb.surface", "self_s")),
        ("perturb.risk_calls", "count", ("perturb.risk",), _stat("perturb.risk", "calls")),
        ("perturb.risk_ms_per_call", "ms", ("perturb.risk",), _ratio("perturb.risk", "total_s", "calls", 1e3)),
        ("perturb.risk_self_s", "s", ("perturb.risk",), _stat("perturb.risk", "self_s")),
        ("perturb.tie_reports", "count", ("perturb.risk",), _health("perturb.tie_reports")),
        ("perturb.tail_mass_calls", "count", ("perturb.tail_mass",), _stat("perturb.tail_mass", "calls")),
        ("perturb.tail_mass_s", "s", ("perturb.tail_mass",), _stat("perturb.tail_mass", "total_s")),
        ("problems.batch_calls", "count", ("problems.batch",), _stat("problems.batch", "calls")),
        ("problems.batch_dirs", "count", ("problems.batch",), _stat("problems.batch", "units")),
        ("problems.batch_s", "s", ("problems.batch",), _stat("problems.batch", "total_s")),
        ("problems.us_per_dir", "us", ("problems.batch",), _ratio("problems.batch", "total_s", "units", 1e6)),
        ("problems.vertex_evals", "count", ("problems.vertices",), _stat("problems.vertices", "units")),
        ("problems.eval_vertices_s", "s", ("problems.vertices",), _stat("problems.vertices", "total_s")),
        ("polytopes.flow_calls", "count", ("polytopes.flow",), _stat("polytopes.flow", "calls")),
        ("kernels.sched_us_per_dir", "us", ("kernels.sched",), _ratio("kernels.sched", "total_s", "units", 1e6)),
        ("ksos.minimize_s", "s", ("ksos.minimize",), _stat("ksos.minimize", "total_s")),
        ("ksos.solver_self_s", "s", ("ksos.minimize",), _stat("ksos.minimize", "self_s")),
        ("ksos.outer_iters", "count", ("ksos.minimize", "ksos.health"), _health("ksos.outer_iters")),
        ("ksos.inner_failed", "count", ("ksos.minimize", "ksos.health"), _health("ksos.inner_failed")),
        ("ksos.max_constraint_residual", "risk", ("ksos.minimize", "ksos.health"),
         _health("ksos.max_constraint_residual")),
        ("ksos.negative_mass", "1", ("ksos.minimize", "ksos.health"), _health("ksos.negative_mass")),
        ("ksos.smoothness_s", "s", ("ksos.smoothness",), _stat("ksos.smoothness", "total_s")),
        ("ksos.baseline_s", "s", ("ksos.baseline",), _stat("ksos.baseline", "total_s")),
        ("theory.check_bias_calls", "count", ("theory.check_bias",), _stat("theory.check_bias", "calls")),
        ("theory.check_bias_s", "s", ("theory.check_bias",), _stat("theory.check_bias", "total_s")),
    ]
)
PROBE_METRICS = (
    ("polytopes.argmax_us", "us"),
    ("polytopes.enumerate_ms", "ms"),
    *((f"ksos.solve_s.M{m}", "s") for m in PLANTED_M),
)
TRACE_METRICS = (("trace.import_s", "s"), ("trace.start_s", "s"), ("trace.layers_s", "s"), ("trace.overhead_s", "s"))


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    names = [(n, u) for n, u, _h, _f in PER_LAYER] + list(PROBE_METRICS) + list(TRACE_METRICS)
    return dict(names)


def layer_metrics(report: dict, traced_run_s: float, untraced_run_s: float) -> dict:
    """The per-layer metrics of one traced run.  A metric whose hook target
    is gone, or whose probe failed or did not run, has value None and says
    why under "missing"."""
    out = {}
    for name, unit, hooks, value in PER_LAYER:
        gone = [report["missing"][h] for h in hooks if h in report["missing"]]
        if gone:
            out[name] = {"value": None, "unit": unit, "missing": "; ".join(gone)}
        else:
            out[name] = {"value": value(report), "unit": unit}
    for name, unit in PROBE_METRICS:
        if name in report["probes"]:
            out[name] = {"value": report["probes"][name], "unit": unit}
        else:
            why = report["probe_errors"].get(name, "probe not run")
            out[name] = {"value": None, "unit": unit, "missing": why}
    out["trace.import_s"] = {"value": report["import_s"], "unit": "s"}
    out["trace.start_s"] = {"value": traced_run_s - report["import_s"] - report["main_s"], "unit": "s"}
    out["trace.layers_s"] = {"value": sum(report["layers"].values()), "unit": "s"}
    out["trace.overhead_s"] = {"value": traced_run_s - untraced_run_s, "unit": "s"}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report", required=True, help="JSON file to write")
    parser.add_argument("--probe-seed", type=int, default=0, help="seeds the oracle probe's sampling")
    parser.add_argument("--planted-seed", type=int, default=None, help="run the planted kSoS solves with this seed")
    parser.add_argument("--time-left", type=float, default=float("inf"),
                        help="seconds before this process is killed; planted solves are skipped near it")
    parser.add_argument("cli", nargs=argparse.REMAINDER, help="perturbopt arguments")
    args = parser.parse_args(argv)
    stop_at = time.monotonic() + args.time_left - PLANTED_RESERVE_S
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    t0 = time.perf_counter()
    from perturbopt.harness import cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    t0 = time.perf_counter()
    try:
        code = cli.main(cli_args)
    finally:
        main_s = time.perf_counter() - t0
        main_end = time.monotonic()
        tracer.uninstall()

    report = tracer.report()
    report.update(
        exit_code=code, import_s=import_s, main_s=main_s, main_end=main_end,
        probes={}, probe_errors={},
    )
    _run_probe(report, ("polytopes.argmax_us", "polytopes.enumerate_ms"),
               probe_polytopes, tracer.captured, args.probe_seed)
    planted = [f"ksos.solve_s.M{m}" for m in PLANTED_M]
    if args.planted_seed is not None and time.monotonic() > stop_at:
        report["probe_errors"].update(dict.fromkeys(planted, f"skipped: under {PLANTED_RESERVE_S:.0f} s left"))
    elif args.planted_seed is not None:
        _run_probe(report, planted, probe_planted, args.planted_seed)
    with open(args.report, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main())

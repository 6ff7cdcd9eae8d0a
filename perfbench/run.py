"""Benchmark entry point: runs one workload (or all) through the perturbopt CLI.

    python3 perfbench/run.py --workload sched --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --all --repeats 3 --out results.json

Run from anywhere inside a checkout; the program is imported from ``src/``
of the checkout that holds this file, and all scratch output goes to
``.perfbench_work/`` there.  Each operation is one CLI process, timed from
launch to exit, with its peak RSS read from ``os.wait4``.  Every operation's
outputs are checked; a failed check counts as a failed operation.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1`` a
traced run (layertrace.py) follows the untraced ones and the per-layer
metrics are printed.  The last line of standard output is one JSON object.
METRICS.md lists every metric and why each workload exists.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import layertrace
from compare import quartiles
from workloads import DEFAULT_WORKLOAD_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DIGESTS = WORK / "digests.json"
BENCHMARK = ROOT / "BENCHMARK.json"
# Cleared, not pinned, so every commit runs with the BLAS default users get.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 3
RUN_DEADLINE_S = 170.0  # every process of one run is killed after this


class BenchError(RuntimeError):
    """The benchmark cannot run here (as opposed to a failed operation)."""


# ---------------------------------------------------------------------------
# Environment


def _openblas_threads(package) -> dict:
    """Vendor string and thread count of the OpenBLAS a wheel bundles."""
    libdir = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
    for path in sorted(glob.glob(str(libdir / "libscipy_openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        info = {}
        for suffix in ("64_", ""):
            get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_config.restype = ctypes.c_char_p
                info = {"vendor": get_config().decode(), "threads": get_threads()}
                break
        if info:
            return info
    return {"vendor": "unknown", "threads": "unknown"}


def environment() -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS)
    from perturbopt.kernels import backend

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_numpy": _openblas_threads(numpy),
        "blas_scipy": _openblas_threads(scipy),
        "kernels_backend": backend(),
    }


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def source_digest() -> str:
    """Identifies the program's code, for comparing outputs across runs."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# One operation: a CLI process, timed and checked


class Operation:
    def __init__(self, kind: str, argv: list, out: Path, log: Path):
        self.kind, self.argv, self.out, self.log = kind, argv, out, log
        self.started = self.wall_s = self.rss_mb = 0.0
        self.exit_code = None
        self.problems: list[str] = []

    def run(self, timeout: float) -> "Operation":
        with open(self.log, "wb") as log:
            self.started = time.monotonic()
            proc = subprocess.Popen(
                self.argv, cwd=ROOT, env=_child_env(), stdout=log, stderr=subprocess.STDOUT
            )
            timer = threading.Timer(max(timeout, 0.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            self.wall_s = time.monotonic() - self.started
            proc.returncode = self.exit_code = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0
        if self.exit_code != 0:
            tail = self.log.read_text(errors="replace").strip().splitlines()[-3:]
            self.problems.append(f"exit code {self.exit_code}: {' | '.join(tail)}")
        return self


class Checker:
    """Output checks shared by all operations of one run: manifests verify,
    and each kind of operation writes identical files every time, in this
    run and in earlier runs of the same code and config (kept in DIGESTS)."""

    def __init__(self, key: str):
        from perturbopt.harness.manifest import load_manifest, verify_manifest

        self._load, self._verify = load_manifest, verify_manifest
        self.key = key
        self.seen: dict[str, dict] = {}
        try:
            self.earlier = json.loads(DIGESTS.read_text())
        except (OSError, ValueError):
            self.earlier = {}

    def check(self, op: Operation) -> None:
        if op.exit_code != 0 or op.kind == "startup":
            return
        try:
            ok, bad = self._verify(str(op.out))
            digests = self._load(str(op.out))["files"]
        except (OSError, ValueError, KeyError) as exc:
            op.problems.append(f"manifest unreadable: {exc}")
            return
        if not ok:
            op.problems.append(f"verify_manifest: {', '.join(bad)}")
        if digests != self.seen.setdefault(op.kind, digests):
            op.problems.append("output digests differ from the first run of this kind")
        key = f"{self.key}:{op.kind}"
        if key not in self.earlier:
            self.earlier[key] = digests
            tmp = DIGESTS.with_suffix(".tmp")
            tmp.write_text(json.dumps(self.earlier, indent=1, sort_keys=True))
            os.replace(tmp, DIGESTS)
        elif digests != self.earlier[key]:
            op.problems.append("output digests differ from an earlier run of the same code and config")


# ---------------------------------------------------------------------------
# One workload run


def _cli(*words) -> list:
    return [sys.executable, "-m", "perturbopt.harness.cli", *map(str, words)]


def _check_quality(workload, op: Operation) -> float | None:
    """test_risk of a main run: the test-set risk of the learned policy; for
    the bias sweep, which has no test set, the mean measured bias
    |R_lambda - R_0|.  Also checks the sweep's all_passed flag."""
    if op.exit_code != 0:
        return None
    try:
        if workload.trains:
            return float(json.loads((op.out / "risk_test.json").read_text())["value"])
        with open(op.out / "sweep_bias_summary.csv") as fh:
            summary = next(csv.DictReader(fh))
        if summary["all_passed"] != "1":
            op.problems.append("sweep_bias_summary.csv: all_passed != 1")
        with open(op.out / "sweep_bias.csv") as fh:
            return statistics.fmean(float(row["lhs"]) for row in csv.DictReader(fh))
    except (OSError, ValueError, KeyError, StopIteration) as exc:
        op.problems.append(f"result unreadable: {exc}")
        return None


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workload_seed: int = DEFAULT_WORKLOAD_SEED, quick: bool = False) -> dict:
    import yaml

    workload = WORKLOADS[name]
    work = WORK / f"{name}-{workload_seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        config = work / "config.yaml"
        config.write_text(yaml.safe_dump(workload.config(workload_seed, quick), sort_keys=True))
        config_digest = hashlib.sha256(config.read_bytes()).hexdigest()[:16]
        checker = Checker(f"{source_digest()}:{name}:{config_digest}")
        ops: list[Operation] = []
        deadline = time.monotonic() + RUN_DEADLINE_S

        def run_op(kind, argv, out):
            op = Operation(kind, argv, out, work / f"{kind}{len(ops)}.log").run(deadline - time.monotonic())
            checker.check(op)
            ops.append(op)
            return op

        n_setup = 1 if (trace or quick) else SETUP_REPS
        data = work / "data"
        setups = []
        for i in range(n_setup):
            if workload.trains:
                out = data if i == 0 else work / f"setup{i}"
                setups.append(run_op("generate", _cli("generate", "--config", config, "--out", out), out))
            else:  # the sweep makes its own instances: set-up is CLI start-up
                setups.append(run_op("startup", _cli("--help"), work))
        main_args = [*workload.command, "--config", config, "--out", data]
        mains, qualities = [], []
        if not setups[0].problems:
            began = time.monotonic()
            while True:
                op = run_op("main", _cli(*main_args), data)
                mains.append(op)
                qualities.append(_check_quality(workload, op))
                elapsed = time.monotonic() - began
                if quick or trace or op.problems or elapsed + op.wall_s > seconds:
                    break
        traced = None
        if trace and mains and not mains[-1].problems:
            report_path = work / "trace.json"
            argv = [sys.executable, str(HERE / "layertrace.py"), "--report", report_path,
                    "--probe-seed", seed, "--time-left", deadline - time.monotonic()]
            if not quick:
                argv += ["--planted-seed", workload_seed]
            traced = run_op("main", [str(a) for a in argv] + ["--"] + [str(a) for a in main_args], data)
            qualities.append(_check_quality(workload, traced))
        distinct = {q for q in qualities if q is not None}
        if len(distinct) > 1:
            ops[-1].problems.append(f"test_risk differs between runs: {sorted(distinct)}")

        if trace:
            metrics = {}
            if traced is not None and not traced.problems:
                report = json.loads((work / "trace.json").read_text())
                traced_run_s = report["main_end"] - traced.started
                metrics = layertrace.layer_metrics(report, traced_run_s, mains[0].wall_s)
        else:
            metrics = {
                "setup_s": {"value": statistics.median(op.wall_s for op in setups), "unit": "s"},
                "run_s": {"value": statistics.median(op.wall_s for op in mains) if mains else None, "unit": "s"},
                "peak_rss_mb": {"value": statistics.median(op.rss_mb for op in mains) if mains else None,
                                "unit": "MB"},
                "test_risk": {"value": next(iter(distinct), None), "unit": "risk"},
            }
        failed = sum(bool(op.problems) for op in ops)
        measured = all(m["value"] is not None or "missing" in m for m in metrics.values())
        return {
            "workload": name,
            "seed": seed,
            "workload_seed": workload_seed,
            "trace": int(trace),
            "quick": quick,
            "correct": failed == 0 and bool(metrics) and measured,
            "attempted": len(ops),
            "failed": failed,
            "failures": [f"{op.kind}: {p}" for op in ops for p in op.problems],
            "samples": {
                "setup_s": [op.wall_s for op in setups],
                "run_s": [op.wall_s for op in mains],
                "peak_rss_mb": [op.rss_mb for op in mains],
            },
            "metrics": metrics,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


# ---------------------------------------------------------------------------
# Results


def bench_spec() -> dict:
    return json.loads(BENCHMARK.read_text())


def append_results(path: Path, env: dict, records: list) -> None:
    doc = {"env": env, "runs": []}
    if path.exists():
        doc = json.loads(path.read_text())
    doc["runs"].extend(records)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True))


def _fmt(value) -> str:
    return "missing" if value is None else f"{value:.6g}"


def print_record(record: dict) -> None:
    print(f"workload {record['workload']} seed {record['seed']} workload_seed {record['workload_seed']} "
          f"trace {record['trace']}: {record['failed']}/{record['attempted']} operations failed")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    for name, m in record["metrics"].items():
        note = f"  ({m['missing']})" if "missing" in m else ""
        print(f"  {name:32s} {_fmt(m['value']):>12s} {m['unit']}{note}")


def print_summary(records: list) -> None:
    """Median and quartiles of each end-to-end metric per workload."""
    print("\nworkload  metric          median      q1          q3          unit   n")
    for name in WORKLOADS:
        runs = [r for r in records if r["workload"] == name and not r["trace"]]
        if not runs:
            continue
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs if r["metrics"][metric]["value"] is not None]
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            unit = runs[0]["metrics"][metric]["unit"]
            print(f"{name:9s} {metric:15s} {med:<11.6g} {q1:<11.6g} {q3:<11.6g} {unit:6s} {len(values)}")
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"{name:9s} {'failed':15s} {failed}/{attempted} operations")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), action="append",
                        help="workload to run (repeatable); default with --all: every workload")
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=0,
                        help="seeds the benchmark's own sampling (oracle probe instances and directions)")
    parser.add_argument("--workload-seed", type=int, default=DEFAULT_WORKLOAD_SEED,
                        help="data seed given to the program (--seed-override); pinned by default")
    parser.add_argument("--seconds", type=float, default=None,
                        help="time budget of the main-command loop (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=1, help="with --all: runs per workload, seeds seed, seed+1, ...")
    parser.add_argument("--quick", action="store_true", help="toy sizes, one operation of each kind")
    parser.add_argument("--out", type=Path, default=None, help="append the run records to this JSON file")
    args = parser.parse_args(argv)
    names = args.workload or (sorted(WORKLOADS) if args.all else None)
    if not names:
        parser.error("give --workload or --all")
    for var in BLAS_VARS:
        os.environ.pop(var, None)
    sys.path.insert(0, str(SRC))
    try:
        if not (SRC / "perturbopt" / "__init__.py").is_file():
            raise BenchError(f"no program source at {SRC / 'perturbopt'}")
        seconds = args.seconds if args.seconds is not None else bench_spec()["run_seconds"]
        WORK.mkdir(exist_ok=True)
        env = environment()
        records = []
        for name in names:
            for k in range(args.repeats):
                record = run_workload(name, args.seed + k, seconds, bool(args.trace),
                                      workload_seed=args.workload_seed, quick=args.quick)
                record["env"] = env
                print_record(record)
                records.append(record)
    except (BenchError, OSError, ImportError, ValueError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print("environment: " + json.dumps(env, sort_keys=True))
    if args.out is not None:
        append_results(args.out, env, records)
    if len(records) > 1:
        print_summary(records)
    result = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": records[-1]["metrics"] if len(records) == 1 else {},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

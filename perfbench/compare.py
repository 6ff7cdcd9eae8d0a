"""Compare two benchmark result files, one row per workload x metric.

    python3 perfbench/compare.py BASE.json NEW.json

Result files are written by ``run.py --out``.  For each workload and metric
the medians and quartiles of both files are printed with the relative
difference.  End-to-end metrics are judged against the bound in
BENCHMARK.json: "worse" when the new median is worse by more than the
bound, "unresolved" when the base's own spread is wider than the bound and
the new runs do not all read better, else "within".  Per-layer metrics
have no bound.  There is no combined score.  Exits 1 if any row is worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(base: list, new: list, bound: float | None, better: str) -> str:
    if bound is None:
        return "-"
    sign = 1.0 if better == "lower" else -1.0
    q1, med, q3 = quartiles(base)
    worsening = sign * (statistics.median(new) - med) / abs(med) if med else 0.0
    if med and (q3 - q1) / abs(med) > bound:
        all_better = max(sign * v for v in new) < min(sign * v for v in base)
        return "better" if all_better else "unresolved"
    return "worse" if worsening > bound else "within"


def _values(runs: list, metric: str) -> list:
    return [r["metrics"][metric]["value"] for r in runs
            if metric in r["metrics"] and r["metrics"][metric]["value"] is not None]


def compare(base: dict, new: dict, spec: dict) -> list:
    """Rows of (workload, metric, unit, base values, new values, verdict)."""
    bounds = {m["name"]: (m.get("bound"), m["better"]) for m in spec["end_to_end"] + spec["per_layer"]}
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            runs_a = [r for r in base["runs"] if r["workload"] == workload and r["trace"] == trace]
            runs_b = [r for r in new["runs"] if r["workload"] == workload and r["trace"] == trace]
            if not runs_a or not runs_b:
                continue
            for m in metrics:
                a, b = _values(runs_a, m["name"]), _values(runs_b, m["name"])
                if a and b:
                    bound, better = bounds[m["name"]]
                    rows.append((workload, m["name"], m["unit"], a, b, verdict(a, b, bound, better)))
            failed = [sum(r["failed"] for r in runs) for runs in (runs_a, runs_b)]
            attempted = [sum(r["attempted"] for r in runs) for runs in (runs_a, runs_b)]
            rows.append((workload, f"failed (trace {trace})", "ops", [failed[0], attempted[0]],
                         [failed[1], attempted[1]], "worse" if failed[1] > failed[0] else "within"))
    return rows


def _cell(values: list) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    base, new = (json.loads(p.read_text()) for p in (args.base, args.new))
    rows = compare(base, new, spec)
    print(f"{'workload':9s} {'metric':30s} {'unit':6s} {'base median [q1, q3]':34s} "
          f"{'new median [q1, q3]':34s} {'diff':>8s}  verdict")
    for workload, metric, unit, a, b, judged in rows:
        if metric.startswith("failed"):
            print(f"{workload:9s} {metric:30s} {unit:6s} {f'{a[0]}/{a[1]}':34s} {f'{b[0]}/{b[1]}':34s} "
                  f"{'':>8s}  {judged}")
            continue
        med_a, med_b = statistics.median(a), statistics.median(b)
        diff = f"{(med_b - med_a) / abs(med_a):+.1%}" if med_a else "n/a"
        print(f"{workload:9s} {metric:30s} {unit:6s} {_cell(a):34s} {_cell(b):34s} {diff:>8s}  {judged}")
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())

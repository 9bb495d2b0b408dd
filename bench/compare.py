"""Compare benchmark results of a parent commit with those of a change.

    python3 bench/compare.py --parent res/parent/*.json --change res/change/*.json

Run it from the repository root; it reads the bounds from BENCHMARK.json.
Each file is a record written by ``bench/run.py --out``. For every workload
and metric it prints both sides' median and quartiles, each side's share of
the pairwise comparisons it wins (every parent run against every change run;
ties count for neither), and the bound from BENCHMARK.json. The verdict is:

  worse       the change's median is worse than the parent's by more than the bound;
  unresolved  the parent's own spread (quartile distance / median) exceeds the
              bound, and not every change run beats every parent run;
  better      the change wins at least 0.9 of the pairs and the medians differ
              by more than the parent's quartile distance;
  same        otherwise.

Per-layer metrics have no bound, so they are never worse or unresolved. The
exit code is 1 when a metric is worse or a run failed a check, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

WIN_SHARE = 0.9


def _load(paths: list[Path]):
    """{(workload, trace): [result, ...]} from run records."""
    out = defaultdict(list)
    for path in paths:
        record = json.loads(path.read_text())
        env = record["environment"]
        out[(env["workload"], env["trace"])].append(record["result"])
    return out


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _wins(parent: list[float], change: list[float], higher_better: bool) -> tuple[float, float]:
    pairs = len(parent) * len(change)
    change_wins = sum((c > p) if higher_better else (c < p) for p in parent for c in change)
    parent_wins = sum((p > c) if higher_better else (p < c) for p in parent for c in change)
    return parent_wins / pairs, change_wins / pairs


def verdict(parent: list[float], change: list[float], higher_better: bool, bound: float | None) -> str:
    p1, pm, p3 = _quartiles(parent)
    _, cm, _ = _quartiles(change)
    _, change_share = _wins(parent, change, higher_better)
    sign = 1.0 if higher_better else -1.0
    gain = sign * (cm - pm)
    if bound is not None and pm != 0 and -gain > bound * abs(pm):
        return "worse"
    if bound is not None and pm != 0 and (p3 - p1) / abs(pm) > bound and change_share < 1.0:
        return "unresolved"
    if change_share >= WIN_SHARE and gain > (p3 - p1):
        return "better"
    return "same"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, nargs="+", required=True)
    parser.add_argument("--change", type=Path, nargs="+", required=True)
    args = parser.parse_args(argv)

    manifest = json.loads(Path("BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in manifest["end_to_end"] + manifest["per_layer"]}
    parent, change = _load(args.parent), _load(args.change)
    status = 0
    for key in sorted(set(parent) | set(change)):
        workload, trace = key
        p_runs, c_runs = parent.get(key, []), change.get(key, [])
        print(f"== {workload} ({'per-layer' if trace else 'end-to-end'}): "
              f"parent {len(p_runs)} runs, change {len(c_runs)} runs")
        if not p_runs or not c_runs:
            print("   one side has no runs; nothing to compare")
            continue
        for side, runs in (("parent", p_runs), ("change", c_runs)):
            failed = sum(r["failed"] for r in runs)
            attempted = sum(r["attempted"] for r in runs)
            print(f"   {side}: {failed} of {attempted} operations failed")
            if failed or not all(r["correct"] for r in runs):
                status = 1
        print(f"   {'metric':<36} {'unit':<9} {'parent q1/median/q3':>32} "
              f"{'change q1/median/q3':>32} {'wins p/c':>11} {'bound':>6}  verdict")
        names = [n for n in specs if all(n in r["metrics"] for r in p_runs + c_runs)]
        for name in names:
            spec = specs[name]
            pv = [r["metrics"][name]["value"] for r in p_runs]
            cv = [r["metrics"][name]["value"] for r in c_runs]
            higher = spec["better"] == "higher"
            bound = spec.get("bound")
            v = verdict(pv, cv, higher, bound)
            if v == "worse":
                status = 1
            pw, cw = _wins(pv, cv, higher)
            pq, cq = _quartiles(pv), _quartiles(cv)
            print(f"   {name:<36} {spec['unit']:<9} "
                  f"{pq[0]:>10.4g} {pq[1]:>10.4g} {pq[2]:>10.4g} "
                  f"{cq[0]:>10.4g} {cq[1]:>10.4g} {cq[2]:>10.4g} "
                  f"{pw:>5.2f}/{cw:<5.2f} {'-' if bound is None else bound:>6}  {v}")
    return status


if __name__ == "__main__":
    sys.exit(main())

"""Run one workload of the lorafa benchmark.

    python3 bench/run.py --workload g2-wide --seed 0 --seconds 50 --trace 0

Run it from the repository root: it imports lorafa from ./src. It prints a
human-readable report, then as its last line one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer ones (the
span file goes to .bench_out/). --out also writes the result with its
workload, seed and environment to a file for bench/compare.py. The exit
code is 0 when every check passed, 1 when one failed and 2 when the
checkout has no lorafa sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path


def _set_blas_threads() -> int:
    """Pin BLAS/OpenMP to one thread before numpy loads.

    On a 2-CPU box a second BLAS thread makes step time swing by about 15%
    from one second to the next at the PARITY_MODEL geometry; with one thread
    the swing is about 5%, which is what lets the bounds in BENCHMARK.json hold.
    """
    threads = 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def _blas_info(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError, ValueError):
        return "unknown"


def main(argv=None) -> int:
    manifest_path = Path("BENCHMARK.json")
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None, help="also write the result record here")
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "lorafa" / "__init__.py").is_file() or not manifest_path.is_file():
        print(f"no lorafa sources under {src} (or no BENCHMARK.json); run from the repository root",
              file=sys.stderr)
        return 2
    manifest = json.loads(manifest_path.read_text())
    workloads = [w["name"] for w in manifest["workloads"]]
    if args.workload not in workloads:
        print(f"unknown workload {args.workload!r}; expected one of {workloads}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2

    threads = _set_blas_threads()
    sys.path.insert(0, str(src))
    import numpy as np

    import harness

    import lorafa
    if not Path(lorafa.__file__).resolve().is_relative_to(src.resolve()):
        print(f"lorafa imported from {lorafa.__file__}, not from {src}", file=sys.stderr)
        return 2

    load_start = os.getloadavg()
    wl = harness.Workload.load(args.workload)
    trace_path = Path(".bench_out") / f"trace-{wl.name}-seed{args.seed}.npz" if args.trace else None
    checks, metrics, notes = harness.run_workload(wl, args.seed, args.seconds, bool(args.trace), trace_path)
    load_end = os.getloadavg()

    expected = [m["name"] for m in manifest["per_layer" if args.trace else "end_to_end"]]
    units = {m["name"]: m["unit"] for m in manifest["per_layer"] + manifest["end_to_end"]}
    checks.record(set(metrics) == set(expected),
                  f"metrics produced differ from BENCHMARK.json: missing "
                  f"{sorted(set(expected) - set(metrics))}, extra {sorted(set(metrics) - set(expected))}")
    for name, m in metrics.items():
        checks.record(np.isfinite(m.value) and units.get(name) == m.unit,
                      f"{name}: value {m.value} {m.unit} (BENCHMARK.json unit {units.get(name)})")

    env = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_info(np),
        "compute_dtype": notes["compute_dtype"],
        "loadavg_start": list(load_start),
        "loadavg_end": list(load_end),
    }
    print("environment: " + json.dumps(env))
    print(f"timed rounds: {notes['rounds']} in {notes['window_s']:.2f} s")
    for name in expected:
        if name in metrics:
            m = metrics[name]
            print(f"  {name:<42} {m.value:>14.6g} {m.unit:<9} n={m.samples}")
    for mode, loss in notes["final_loss"].items():
        print(f"  {'final_loss.' + mode:<42} {loss:>14.6g} nats      (reported, no bound)")
    failed = len(checks.failures)
    print(f"  {'error_rate':<42} {failed / checks.attempted:>14.6g} ratio     "
          f"n={checks.attempted} ({failed} failed)")
    if args.trace:
        print(f"  per-module self times add up to trace.ms_per_step "
              f"(gap {notes['partition_gap_ns']} ns); spans in {notes['trace_file']}")

    result = {
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {name: {"value": m.value, "unit": m.unit} for name, m in metrics.items()},
    }
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"environment": env, "result": result}) + "\n")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

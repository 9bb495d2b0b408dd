"""Self-test of the benchmark: python3 bench/selftest.py (from the repository root).

Checks that BENCHMARK.json and bench/design.json name the same metrics,
runs every workload at the minimal length with and without tracing, and
asserts that each run passes all its checks and reports every named metric
with a finite value. It also checks the workload split predicted for the
seed code, and that the benchmark refuses to run in a directory that holds
only BENCHMARK.json and bench/. Exits 1 on the first failed assertion.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
TIMEOUT_S = 300


def expand(name: str, design: dict) -> list[str]:
    for pattern, values in (("<m>", design["modes"]), ("<lin>", design["linears"]),
                            ("<module>", design["traced_modules"])):
        if pattern in name:
            return [name.replace(pattern, v) for v in values]
    return [name]


def check_manifest(manifest: dict, design: dict) -> None:
    per_layer = [n for fam in design["per_layer"] for m in fam["metrics"] for n in expand(m, design)]
    assert per_layer == [m["name"] for m in manifest["per_layer"]], "per_layer differs from design.json"
    e2e = [n for m in design["end_to_end"] for n in expand(m, design)]
    assert sorted(e2e) == sorted(m["name"] for m in manifest["end_to_end"]), \
        "end_to_end differs from design.json"
    assert [w["name"] for w in manifest["workloads"]] == list(design["workloads"]), \
        "workloads differ from design.json"
    setup = [m for m in manifest["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in manifest["end_to_end"]), \
        "setup_s must have the largest bound"


def run(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, list[str]]:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)
    return proc.returncode, proc.stdout.strip().splitlines()


def check_result(lines: list[str], names: list[str], what: str) -> dict:
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, f"{what}: keys {sorted(result)}"
    assert result["correct"] is True and result["failed"] == 0, f"{what}: checks failed"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{what}: attempted"
    assert sorted(result["metrics"]) == sorted(names), f"{what}: metric names differ"
    for name, m in result["metrics"].items():
        assert set(m) == {"value", "unit"} and math.isfinite(m["value"]), f"{what}: {name} = {m}"
    return {name: m["value"] for name, m in result["metrics"].items()}


def main() -> int:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    design = json.loads((BENCH / "design.json").read_text())
    check_manifest(manifest, design)
    print("manifest: ok")

    values = {}
    for w in manifest["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            rc, lines = run(w["name"], trace)
            what = f"{w['name']} --trace {trace}"
            assert rc == 0, f"{what}: exit code {rc}\n" + "\n".join(lines[-20:])
            values[w["name"], trace] = check_result(lines, [m["name"] for m in manifest[key]], what)
            print(f"{what}: ok, error_rate 0")

    layer = values["g2-wide", 1]
    assert layer["ops.qr.calls"] == 0 and layer["equivalence.snapshot_ms"] == 0, "g2-wide"
    layer = values["verify", 1]
    assert layer["ops.qr.calls"] > 0 and layer["equivalence.snapshot_ms"] > 0, "verify"
    for name in ("g2-wide", "verify"):
        e2e = values[name, 0]
        assert e2e["step_peak_mb.lora-fa"] < e2e["step_peak_mb.ft"], name
    print("workload split: ok")

    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        rc, lines = run(manifest["workloads"][0]["name"], 0, cwd=bare)
        assert rc != 0 and not any(line.startswith("{") for line in lines), \
            f"bare directory: exit {rc}, output {lines}"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("bare directory: refused, ok")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as exc:
        print(f"selftest FAILED: {exc}", file=sys.stderr)
        sys.exit(1)

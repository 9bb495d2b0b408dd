"""Print each benchmark mode's step peak, its tape, and the source line that reaches the peak.

    python3 tools/peak_sites.py [--workload NAME]

Run it from a checkout's root: it imports lorafa from ./src and the
benchmark harness from ./bench. For each geometry of bench/design.json
(or the one named) and each benchmark mode it prints

    <geometry> <mode> <bytes> B (tape <tape> B) at <file:line (function)> < <caller> < ...

<bytes> is the tracemalloc peak of one training step, computed by the
benchmark's own gate (`harness.gate`), so it equals `bench/run.py`'s
step_peak_mb times 1e6, to the byte. <tape> is the bytes of the arrays that
step's forward retains for backward, as the activation meter counts them
(the gate's retained_mb times 1e6), so <bytes> - <tape> is what the peak
holds beyond the tape. A second step then runs under a line
tracer that resets the tracemalloc peak at every Python line event. The
site printed is the first line that brings that step within 4 KB of its
peak, with its callers up to the outermost one in src/; sites closer than
4 KB are a tie, and the earlier one is printed. Allocations inside a C call
(a numpy kernel, BLAS) are charged to the Python line that made the call.
The tracer's own objects add some KB to the second step, so only its site
is printed.

Each geometry runs in a process of its own: the tracemalloc peak counts
objects that numpy and CPython keep in their free lists, so it depends on
what the process ran before, and the benchmark runs one geometry per process.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tracemalloc

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads: one BLAS thread, as bench/run.py
sys.path.insert(0, os.path.abspath("src"))
sys.path.insert(0, os.path.abspath("bench"))

import harness  # noqa: E402
import spans  # noqa: E402

SRC = os.path.abspath("src") + os.sep
# Step peaks follow from array sizes, not values, so one seed serves.
SEED = 0
# The site is the first line that brings the traced memory within SLACK bytes
# of the step's peak, so a small temporary made after the last large buffer
# (a numpy scalar, a context manager) does not take the credit.
SLACK = 4096


def _stack(frame, line: int) -> tuple:
    """(file, line, function) of frame at line, then of its callers up to the
    outermost one in src/ (numpy frames inside lorafa calls included)."""
    out = [(frame.f_code.co_filename, line, frame.f_code.co_name)]
    inside = out[0][0].startswith(SRC)
    while (frame := frame.f_back) is not None:
        if frame.f_code.co_filename.startswith(SRC):
            inside = True
        elif inside:
            break
        out.append((frame.f_code.co_filename, frame.f_lineno, frame.f_code.co_name))
    return tuple(out)


def peak_site(run) -> str:
    """The line, with its callers, that is running when run() first comes
    within SLACK bytes of its tracemalloc peak.

    Each event reads the peak since the last one, which the previous event's
    line reached. Only candidates within SLACK of the running maximum are
    kept, so the tracer's own memory stays a few KB, and what the kept
    candidates hold is subtracted from every peak read: else each one would
    raise the next peak by its own size and win the next event.
    """
    cands: list[tuple[int, tuple]] = []  # (peak, stack), earliest first
    prev = [None, 0]  # the frame and line of the last event
    own = [0]  # bytes the kept candidates hold

    def tracer(frame, event, arg):
        peak = tracemalloc.get_traced_memory()[1] - own[0]
        if prev[0] is not None and (not cands or peak > cands[-1][0]):
            held = tracemalloc.get_traced_memory()[0]
            cands[:] = [c for c in cands if c[0] >= peak - SLACK]
            cands.append((peak, _stack(*prev)))
            own[0] += tracemalloc.get_traced_memory()[0] - held
        tracemalloc.reset_peak()
        if event == "return":  # what follows runs in the caller's line
            frame = frame.f_back
        prev[0], prev[1] = frame, frame.f_lineno if frame is not None else 0
        return tracer

    tracemalloc.start()
    sys.settrace(tracer)
    try:
        run()
    finally:
        sys.settrace(None)
        tracemalloc.stop()
    return " < ".join(f"{os.path.relpath(path)}:{line} ({func})" for path, line, func in cands[0][1])


def report(name: str) -> list[str]:
    wl = harness.Workload.load(name)
    checks = harness.Checks()
    _, statics = harness.gate(wl, SEED, checks)
    lf, _ = harness.load_lorafa()
    tr = spans.NullTracer()
    lines = []
    for mode in harness.MODES:
        st = harness.setup_mode(lf, wl, SEED, mode, tr)
        harness.train_mode(lf, wl, st, wl.gate_steps, checks, tr, snapshots=False)
        # The gate's tracemalloc step: its start is a no-op while the tracer's
        # tracing runs, and its stop ends that tracing once the step is done.
        site = peak_site(lambda: harness._peak_step_bytes(lf, wl, st, wl.gate_steps, checks))
        peak = round(statics[mode]["peak_mb"] * 1e6)
        tape = round(statics[mode]["retained_mb"] * 1e6)
        lines.append(f"{name} {mode} {peak} B (tape {tape} B) at {site}")
    if checks.failures:
        raise SystemExit(f"{name}: {len(checks.failures)} benchmark checks failed")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None, help="one geometry of bench/design.json")
    args = parser.parse_args(argv)
    if args.workload is not None:
        for line in report(args.workload):
            print(line, flush=True)
        return 0
    with open(os.path.join("bench", "design.json")) as f:
        names = list(json.load(f)["workloads"])
    for name in names:
        subprocess.run([sys.executable, __file__, "--workload", name], check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

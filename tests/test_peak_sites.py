"""Smoke test of tools/peak_sites.py at both geometries of bench/design.json:
g2-wide, where lora-fa's peak beside its tape is measured, and verify, the
acceptance PARITY_MODEL geometry.

The tool runs in a child process from the repository root, as its docstring
says to run it, and runs each geometry in a process of its own.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LINE = re.compile(
    r"^\S+ (\S+) (\d+) B \(tape (\d+) B\) at (src/lorafa/\w+\.py):(\d+) \((\S+)\)( < .+)?$")


def test_peak_sites_names_a_source_line_per_mode():
    run = subprocess.run([sys.executable, "tools/peak_sites.py"],
                         cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    design = json.loads((ROOT / "bench" / "design.json").read_text())
    lines = run.stdout.splitlines()
    assert [tuple(line.split()[:2]) for line in lines] == [
        (geometry, mode) for geometry in design["workloads"] for mode in design["modes"]
    ], run.stdout
    for line in lines:
        match = LINE.match(line)
        assert match, line
        assert int(match[2]) >= int(match[3]) > 0  # the peak holds the tape
        assert (ROOT / match[4]).is_file()

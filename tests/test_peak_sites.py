"""Smoke test of tools/peak_sites.py at the acceptance PARITY_MODEL geometry.

The benchmark's verify workload is that geometry. The tool runs in a child
process from the repository root, as its docstring says to run it.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LINE = re.compile(
    r"^verify (\S+) (\d+) B \(tape (\d+) B\) at (src/lorafa/\w+\.py):(\d+) \((\S+)\)( < .+)?$")


def test_peak_sites_names_a_source_line_per_mode():
    run = subprocess.run([sys.executable, "tools/peak_sites.py", "--workload", "verify"],
                         cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    modes = json.loads((ROOT / "bench" / "design.json").read_text())["modes"]
    lines = run.stdout.splitlines()
    assert [line.split()[1] for line in lines] == modes, run.stdout
    for line in lines:
        match = LINE.match(line)
        assert match, line
        assert int(match[2]) >= int(match[3]) > 0  # the peak holds the tape
        assert (ROOT / match[4]).is_file()

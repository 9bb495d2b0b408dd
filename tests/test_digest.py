"""Bit identity as a gate: tools/report_digest.py, run in a child process
with both kernel choices pinned, prints the committed numerics hashes.

Repeated digests are identical under one kernel choice, but OpenBLAS's core
type and numpy's SIMD dispatch level each move some lines, so the child's
environment, and only the child's, pins both: OPENBLAS_CORETYPE=Haswell, and
numpy capped at X86_V2 by NPY_DISABLE_CPU_FEATURES. The child reports
whether the pins took effect after printing the digest; the test checks
that first and fails, saying why, where they did not, so it never passes
vacuously. Only the numerics column is compared: a change to the tape's
layout may move the memory hash. A change that moves results on purpose
rewrites report_digest_pinned.txt beside this file, and says which lines
moved.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PINS = {"OPENBLAS_CORETYPE": "Haswell", "NPY_DISABLE_CPU_FEATURES": "X86_V4 X86_V3"}

# Runs the tool as `python3 tools/report_digest.py` would, then prints, in
# the same process, numpy's X86_V3 dispatch flag and the core OpenBLAS chose.
CHILD = """
import ctypes, glob, os, runpy
runpy.run_path(os.path.join("tools", "report_digest.py"), run_name="__main__")
import numpy as np
from numpy._core._multiarray_umath import __cpu_features__
libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
core = None
if libs:
    corename = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
    corename.restype = ctypes.c_char_p
    core = corename().decode()
print("pins", __cpu_features__["X86_V3"], core)
"""


def test_pinned_digest_matches_the_committed_numerics():
    child = subprocess.run([sys.executable, "-c", CHILD], cwd=ROOT, env={**os.environ, **PINS},
                           capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    *lines, pins = child.stdout.splitlines()
    assert pins == "pins False Haswell", (
        f"the kernel pins did not take effect ({pins!r}; want X86_V3 False and core Haswell), "
        "so this machine cannot reproduce the committed digest")
    with open(os.path.join(ROOT, "tests", "report_digest_pinned.txt")) as f:
        committed = f.read().splitlines()
    assert [" ".join(line.split()[:3]) for line in lines] == committed

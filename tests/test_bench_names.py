"""The traced benchmark wraps lorafa functions by name; every name must resolve.

bench/spans.py lists (module, attribute) pairs that a traced run replaces
with timing wrappers. A rename or removal in lorafa would otherwise surface
only when that benchmark runs.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _traced_functions():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED_FUNCTIONS


TRACED = _traced_functions()


@pytest.mark.parametrize("mod_name,attr", TRACED, ids=[f"{m}.{a}" for m, a in TRACED])
def test_traced_function_resolves(mod_name, attr):
    module = importlib.import_module(f"lorafa.{mod_name}")
    assert callable(getattr(module, attr, None))


def test_traced_dataset_batch_resolves():
    # wrapped by name outside TRACED_FUNCTIONS
    from lorafa.tasks import Dataset

    assert callable(Dataset.batch)

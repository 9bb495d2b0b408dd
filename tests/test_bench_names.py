"""The benchmark reaches lorafa by name; every name must resolve.

bench/spans.py lists (module, attribute) pairs that a traced run replaces
with timing wrappers, and bench/harness.py imports the modules of its
PACKAGE_MODULES and calls ``lf.<module>.<attr>`` on them. A rename or
removal in lorafa would otherwise surface only when that benchmark runs.
The harness is read as source, not run: importing it would start the
benchmark's own lorafa imports.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
SPANS = BENCH / "spans.py"


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


def _harness_names():
    """(PACKAGE_MODULES, sorted (module, attribute) pairs of its lf.<module>.<attr>)."""
    tree = ast.parse((BENCH / "harness.py").read_text())
    modules = next(
        ast.literal_eval(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["PACKAGE_MODULES"]
    )
    pairs = {
        (node.value.attr, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Attribute)
        and isinstance(node.value.value, ast.Name)
        and node.value.value.id == "lf"
    }
    return modules, sorted(pairs)


HARNESS_MODULES, HARNESS_PAIRS = _harness_names()


@pytest.mark.parametrize("mod_name", HARNESS_MODULES)
def test_harness_module_imports(mod_name):
    importlib.import_module(f"lorafa.{mod_name}")


@pytest.mark.parametrize("mod_name,attr", HARNESS_PAIRS, ids=[f"{m}.{a}" for m, a in HARNESS_PAIRS])
def test_harness_attribute_resolves(mod_name, attr):
    assert mod_name in HARNESS_MODULES
    assert hasattr(importlib.import_module(f"lorafa.{mod_name}"), attr)


def test_harness_names_were_found():
    # an empty parse would leave the two tests above with nothing to check
    assert "train" in HARNESS_MODULES
    assert ("train", "train_run") in HARNESS_PAIRS

"""In-memory span tracer that wraps lorafa's public functions from outside the package.

A span is (name, start, end, parent, context, label). The context names the
benchmark phase the span ran in (setup, step, eval, verify, ...), the mode
and the step id; the label tells the six block linears apart for
``adapters.forward``/``backward``. Spans are kept in flat ``array`` columns
so that a traced run of several hundred thousand calls stays a few MB, and
are written to an ``.npz`` file when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from array import array
from pathlib import Path

import numpy as np

# (module, attribute) pairs wrapped during traced rounds. Every binding of the
# same function object in any lorafa module is replaced too, so names pulled in
# with ``from .ops import matmul`` are traced as well.
TRACED_FUNCTIONS = (
    ("ops", "ensure_finite"),
    ("ops", "matmul"),
    ("ops", "gelu"),
    ("ops", "gelu_vjp"),
    ("ops", "layer_norm"),
    ("ops", "layer_norm_vjp"),
    ("ops", "softmax_rows"),
    ("ops", "softmax_rows_vjp"),
    ("ops", "qr"),
    ("ops", "qr_pivoted"),
    ("ops", "numerical_rank"),
    ("rng", "randn"),
    ("adapters", "init_adapter"),
    ("adapters", "forward"),
    ("adapters", "backward"),
    ("adapters", "merge"),
    ("model", "build_model"),
    ("model", "trainable_params"),
    ("model", "forward_loss"),
    ("model", "backward"),
    ("optim", "init_adamw_state"),
    ("optim", "adamw_step"),
    ("memory", "analytic_report"),
    ("memory", "measured_activation_elements"),
    ("memory", "reconcile"),
    ("equivalence", "verify_sgd_equivalence"),
    ("equivalence", "estimate_unbiasedness"),
    ("equivalence", "subspace_check"),
    ("gradcheck", "fd_gradient"),
    ("gradcheck", "check_primitives"),
    ("gradcheck", "check_adapter_layer"),
    ("gradcheck", "check_tiny_model"),
    ("tasks", "gen_task"),
)
LABELLED = {"adapters.forward", "adapters.backward"}


class NullTracer:
    """Stands in for Tracer in untraced rounds; every hook is a no-op."""

    _null = contextlib.nullcontext()

    def phase(self, name, mode=None, step=-1):
        return self._null

    def register_model(self, model, linears):
        pass


class Tracer:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.contexts: list[tuple[str, str | None, int]] = [("none", None, -1)]
        self._ctx = 0
        self._stack: list[int] = []
        self._layer_labels: dict[int, tuple[object, int]] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.ctx = array("i")
        self.label = array("i")

    def name_index(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _enter(self, nid: int, label: int = -1) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.ctx.append(self._ctx)
        self.label.append(label)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _exit(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def phase(self, name: str, mode: str | None = None, step: int = -1):
        """A benchmark-level span that also sets the context of everything under it."""
        saved = self._ctx
        self._ctx = len(self.contexts)
        self.contexts.append((name, mode, step))
        idx = self._enter(self.name_index(f"bench.{name}"))
        try:
            yield
        finally:
            self._exit(idx)
            self._ctx = saved

    def register_model(self, model, linears) -> None:
        """Label each adapted layer of ``model`` by its linear kind (attn_q, ...)."""
        for name, layer in model.adapted_layers():
            self._layer_labels[id(layer)] = (layer, linears.index(name.split(".", 1)[1]))

    def clear_models(self) -> None:
        self._layer_labels.clear()

    def _layer_label(self, layer) -> int:
        hit = self._layer_labels.get(id(layer))
        return hit[1] if hit is not None and hit[0] is layer else -1

    def _wrap(self, fn, name: str):
        nid = self.name_index(name)
        enter, leave = self._enter, self._exit
        if name in LABELLED:
            label_of = self._layer_label

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                idx = enter(nid, label_of(args[0]))
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave(idx)
        else:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                idx = enter(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave(idx)

        return traced

    def install(self, lf) -> None:
        """Wrap the traced functions in a freshly imported lorafa (``lf`` namespace)."""
        modules = [getattr(lf, m) for m in vars(lf)]
        for mod_name, attr in TRACED_FUNCTIONS:
            original = getattr(getattr(lf, mod_name), attr)
            wrapped = self._wrap(original, f"{mod_name}.{attr}")
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        batch = lf.tasks.Dataset.batch
        lf.tasks.Dataset.batch = self._wrap(batch, "tasks.batch")

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "ctx": np.frombuffer(self.ctx, dtype=np.int32),
            "label": np.frombuffer(self.label, dtype=np.int32),
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "workload": self.workload,
            "seed": self.seed,
            "names": self.names,
            "contexts": self.contexts,
            "clock": "time.perf_counter_ns",
        }
        np.savez_compressed(path, header=np.array(json.dumps(header)), **self.columns())


def self_times(cols: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(inclusive, self) duration of every span in ns; self excludes child spans."""
    dur = cols["end"] - cols["start"]
    parent = cols["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    return dur, dur - child.astype(np.int64)

"""Print one sha256 per benchmark geometry and mode, to prove a change moves no result.

    python3 tools/report_digest.py

Run it from a checkout's root: it imports lorafa from ./src, so running the
same script at two checkouts compares their code, not their copies of this
file. It reads the two geometries of bench/design.json (task, model, rank,
lr, n_examples) and prints `<geometry> <mode> <sha256>` for ft, lora,
lora-fa and frozen. Each hash covers:

* the canonical `train_run` report, minus `wall_clock_s`, of a 6-step run
  with AdamW and one with SGD, lora-fa taking a subspace snapshot every step;
* the loss, metered activations and every gradient, by name, dtype, shape
  and bytes, of one forward_loss and backward on the first batch.

Identical lines at two checkouts mean identical reports and gradients.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads: one BLAS thread, as bench/run.py
sys.path.insert(0, os.path.abspath("src"))

from lorafa import memory  # noqa: E402
from lorafa.adapters import Mode  # noqa: E402
from lorafa.model import ModelConfig, backward, build_model, forward_loss  # noqa: E402
from lorafa.rng import RngState  # noqa: E402
from lorafa.tasks import gen_task  # noqa: E402
from lorafa.train import RunConfig, dumps_canonical, train_run  # noqa: E402

STEPS = 6
SEED = 0


def _digest(inputs: dict, mode: Mode) -> str:
    h = hashlib.sha256()
    mc = ModelConfig(**inputs["model"])
    for optimizer in ("adamw", "sgd"):
        cfg = RunConfig(
            model=mc, mode=mode, rank=inputs["rank"], optimizer=optimizer, lr=inputs["lr"],
            steps=STEPS, seed=SEED, task=inputs["task"], n_examples=inputs["n_examples"],
            equiv_every=1 if mode is Mode.LORA_FA else 0,
        )
        report = json.loads(train_run(cfg).to_json())
        del report["wall_clock_s"]
        h.update(dumps_canonical(report).encode())

    dataset = gen_task(inputs["task"], mc.vocab, mc.seq_len, inputs["n_examples"], SEED)
    model = build_model(mc, mode, inputs["rank"], rng=RngState(SEED))
    loss, tape = forward_loss(model, *dataset.batch(0, mc.batch_size))
    h.update(repr(loss).encode())
    h.update(dumps_canonical(memory.measured_activation_elements(tape).to_dict()).encode())
    for name, g in backward(model, tape).items():
        h.update(f"{name} {g.dtype} {g.shape}".encode())
        h.update(g.tobytes())
    return h.hexdigest()


def main() -> None:
    with open(os.path.join("bench", "design.json")) as f:
        workloads = json.load(f)["workloads"]
    for geometry, workload in workloads.items():
        for mode in Mode:
            print(geometry, mode.value, _digest(workload["inputs"], mode), flush=True)


if __name__ == "__main__":
    main()

"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from unittest import mock

import numpy as np
import pytest
from lorafa.adapters import Mode, init_adapter
from lorafa.equivalence import estimate_unbiasedness, verify_sgd_equivalence
from lorafa.gradcheck import check_adapter_layer, check_primitives, check_tiny_model
from lorafa.memory import analytic_report, measured_activation_elements, reconcile
from lorafa.model import (
    ModelConfig,
    build_model,
    count_trainable,
    count_trainable_formula,
    forward_logits,
    forward_loss,
)
from lorafa.rng import RngState, randint, randn
from lorafa.train import RunConfig, RunReport, train_run

PARITY_MODEL = ModelConfig(d=64, n_layers=2, n_heads=4, vocab=32, seq_len=16, batch_size=16)
DEFAULT_RANKS = [8, 16]
DEFAULT_LRS = [0.05, 0.02]
# Criterion 09's grid runs on this many worker processes, one BLAS thread each.
GRID_WORKERS = 2
ONE_BLAS_THREAD = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def _verdict(n: int, desc: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {n:02d}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_gradient_exactness():
    t0 = time.time()
    worst_prim = max(check_primitives(seed=0, trials=20).values())
    worst_adapter = max(
        check_adapter_layer(mode, seed=0, trials=7)
        for mode in (Mode.FT, Mode.LORA, Mode.LORA_FA)
    )
    worst_model = max(
        check_tiny_model(mode, seed=0, d=8, n_layers=1, vocab=11)
        for mode in (Mode.FT, Mode.LORA, Mode.LORA_FA)
    )
    elapsed = time.time() - t0
    ok = worst_prim < 1e-5 and worst_adapter < 1e-5 and worst_model < 1e-4 and elapsed < 60
    _verdict(
        1, "gradient exactness vs central finite differences", ok,
        f"primitives {worst_prim:.2e} < 1e-5, adapters {worst_adapter:.2e} < 1e-5, "
        f"tiny model {worst_model:.2e} < 1e-4, {elapsed:.1f}s < 60s",
    )


def test_criterion_02_zero_init_transparency():
    cfg = ModelConfig(d=32, n_layers=2, n_heads=4, vocab=19, seq_len=10, batch_size=3)
    ok = True
    for seed in (0, 1, 2):
        tokens = randint(RngState(100 + seed), 0, cfg.vocab, (3, 10))
        frozen_logits = forward_logits(build_model(cfg, Mode.FROZEN, rank=4, rng=RngState(seed)), tokens)
        for mode in (Mode.LORA, Mode.LORA_FA):
            fresh = build_model(cfg, mode, rank=4, rng=RngState(seed))
            ok &= forward_logits(fresh, tokens).tobytes() == frozen_logits.tobytes()
    _verdict(2, "fresh adapter logits bitwise-equal frozen model", ok)


def test_criterion_03_sgd_compression_equivalence():
    rng = RngState(7)
    checked = 0
    nonsquare = 0
    worst = 0.0
    while checked < 100:
        d_in, d_out = (int(v) for v in randint(rng, 2, 24, (2,)))
        rmin = min(d_in, d_out)
        for r in sorted({1, min(4, rmin), rmin}):
            for alpha in (None, 1.0):  # default 1/r and an explicit scale
                layer = init_adapter(d_in, d_out, r, alpha, Mode.LORA_FA, rng)
                layer.b[:] = randn(layer.b.shape, rng)
                x = randn((2, 3, d_in), rng)
                dy = randn((2, 3, d_out), rng)
                worst = max(worst, verify_sgd_equivalence(layer, x, dy, eta=0.1))
                checked += 1
                nonsquare += d_in != d_out
    ok = worst < 1e-10 and nonsquare > 0
    _verdict(
        3, "one SGD step merges to -eta*alpha^2*A*A^T*dW", ok,
        f"{checked} layers ({nonsquare} non-square), max abs {worst:.2e} < 1e-10",
    )


def test_criterion_04_subspace_invariant_after_adamw():
    t0 = time.time()
    cfg = RunConfig(model=PARITY_MODEL, mode=Mode.LORA_FA, rank=8, optimizer="adamw",
                    lr=0.02, steps=100, seed=0, task="copy", n_examples=256,
                    equiv_every=100)
    report = train_run(cfg)
    elapsed = time.time() - t0
    snap = report.equivalence[-1]
    ok = (
        report.status == "ok"
        and snap["step"] == 100
        and snap["max_subspace_residual"] < 1e-10
        and snap["max_numerical_rank"] <= 8
        and elapsed < 120
    )
    _verdict(
        4, "after 100 AdamW steps, delta-W stays in col(A) with rank <= r", ok,
        f"max residual {snap['max_subspace_residual']:.2e} < 1e-10, "
        f"max rank {snap['max_numerical_rank']} <= 8, {elapsed:.1f}s < 120s",
    )


def test_criterion_05_unbiasedness():
    err = estimate_unbiasedness(8, 4, 100_000, RngState(11))
    ns = [1000, 8000, 64000]
    mean_errs = []
    for n in ns:
        vals = [estimate_unbiasedness(8, 4, n, RngState(300 + 17 * i + n)) for i in range(4)]
        mean_errs.append(float(np.mean(vals)))
    slope = float(np.polyfit(np.log(ns), np.log(mean_errs), 1)[0])
    ok = err < 0.02 and -0.65 <= slope <= -0.35
    _verdict(
        5, "mean(A A^T) approaches r*I at the Monte-Carlo rate", ok,
        f"rel err {err:.4f} < 0.02 at 1e5 samples, decay slope {slope:.3f} in [-0.65, -0.35]",
    )


def test_criterion_06_parameter_accounting():
    ok = True
    details = []
    for d in (4, 64):
        for L in (1, 2, 4):
            cfg = ModelConfig(d=d, n_layers=L, n_heads=2, vocab=7, seq_len=4)
            ft = count_trainable(build_model(cfg, Mode.FT, rng=RngState(0))).linear_only
            ok &= ft == 12 * d * d * L == count_trainable_formula(cfg, Mode.FT, 1)
            for r in (1, 2, 8):
                if r > d:
                    continue  # rank may not exceed min layer dimension
                lora = count_trainable(build_model(cfg, Mode.LORA, rank=r, rng=RngState(0))).linear_only
                fa = count_trainable(build_model(cfg, Mode.LORA_FA, rank=r, rng=RngState(0))).linear_only
                ok &= lora == 18 * d * r * L
                ok &= fa == 9 * d * r * L
                ok &= 2 * fa == lora
                if not ok:
                    details.append(f"d={d} L={L} r={r}")
    _verdict(
        6, "enumerated counts equal 12d^2L / 18drL / 9drL with FA = LoRA/2", ok,
        "mismatches: " + ", ".join(details) if details else "all valid (d, L, r) cells exact",
    )


def test_criterion_07_activation_accounting():
    cfg = ModelConfig(d=32, n_layers=2, n_heads=4, vocab=16, seq_len=8, batch_size=2)
    b, s = 2, 8
    tokens = randint(RngState(40), 0, cfg.vocab, (b, s))
    targets = randint(RngState(41), 0, cfg.vocab, (b, s))
    ok = True
    details = []

    for mode in (Mode.FT, Mode.LORA, Mode.LORA_FA, Mode.FROZEN):
        m = build_model(cfg, mode, rank=4, rng=RngState(1))
        _, tape = forward_loss(m, tokens, targets)
        meas = measured_activation_elements(tape)
        rec = reconcile(cfg, mode, 4, meas, b, s)  # raises on any mismatch
        ok &= rec["match"]
        if mode is Mode.FT:
            per_block = meas.linear_full // cfg.n_layers
            ok &= per_block == 7 * b * s * cfg.d
            details.append(f"ft per-block {per_block} == 7bsd")
        if mode is Mode.LORA_FA:
            ok &= meas.linear_full == 0
            details.append("lora-fa full-width retention 0")
        if mode is Mode.LORA:
            delta = rec["paper_constant_delta"]["low"]
            details.append(f"lora paper-vs-enum low delta {delta} reported")
    _verdict(7, "measured retained elements equal per-layer analytic exactly", ok,
             "; ".join(details))


def test_criterion_08_memory_ordering_and_low_rank_growth():
    geometries = {
        "roberta-large-like": (ModelConfig(d=1024, n_layers=24, n_heads=16, vocab=50265,
                                           seq_len=128, batch_size=64), 8),
        "llama-7b-like": (ModelConfig(d=4096, n_layers=32, n_heads=32, vocab=32000,
                                      seq_len=128, batch_size=32), 64),
    }
    ok = True
    details = []
    for name, (cfg, rank) in geometries.items():
        b, s = cfg.batch_size, cfg.seq_len
        totals = {
            mode: analytic_report(cfg, mode, rank, b, s).total_bytes
            for mode in (Mode.FT, Mode.LORA, Mode.LORA_FA)
        }
        ordered = totals[Mode.LORA_FA] < totals[Mode.LORA] < totals[Mode.FT]
        ok &= ordered
        details.append(f"{name}: fa {totals[Mode.LORA_FA]:.3g} < lora {totals[Mode.LORA]:.3g} "
                       f"< ft {totals[Mode.FT]:.3g}")

        ft_act = analytic_report(cfg, Mode.FT, 1, b, s).activation_bytes_linear
        low_1 = analytic_report(cfg, Mode.LORA_FA, 1, b, s).activation_bytes_linear
        for r in (1, 2, 4, 8, 16, 32, 64, 128):
            low_r = analytic_report(cfg, Mode.LORA_FA, r, b, s).activation_bytes_linear
            ok &= low_r == r * low_1  # exactly linear growth in rank
        stated = analytic_report(cfg, Mode.LORA_FA, rank, b, s).activation_bytes_linear
        ok &= stated < 0.01 * ft_act
        details.append(f"{name}: low-rank at r={rank} is {stated / ft_act:.2%} of ft activations")

    # the full-sweep sub-1% bound holds at the wide (d=8192) geometry
    wide = ModelConfig(d=8192, n_layers=80, n_heads=64, vocab=32000, seq_len=2048, batch_size=4)
    ft_act = analytic_report(wide, Mode.FT, 1, 4, 2048).activation_bytes_linear
    worst_frac = max(
        analytic_report(wide, Mode.LORA_FA, r, 4, 2048).activation_bytes_linear / ft_act
        for r in range(1, 129)
    )
    ok &= worst_frac < 0.01
    details.append(f"wide geometry: worst low-rank fraction over r<=128 is {worst_frac:.2%}")
    _verdict(8, "memory totals ordered fa < lora < ft; low-rank term linear and small", ok,
             "; ".join(details))


def _grid(task: str, mode: Mode) -> list[RunConfig]:
    ranks = DEFAULT_RANKS if mode.has_adapter else [8]
    return [RunConfig(model=PARITY_MODEL, mode=mode, rank=rank, optimizer="adamw", lr=lr,
                      steps=500, seed=0, task=task, n_examples=256)
            for lr in DEFAULT_LRS for rank in ranks]


def _best_of_grid(reports) -> float:
    return min((r.final_loss for r in reports if r.status == "ok" and r.final_loss is not None),
               default=math.inf)


@pytest.mark.slow
def test_criterion_09_convergence_parity():
    t0 = time.time()
    target = 0.1 * math.log(PARITY_MODEL.vocab)
    ok = True
    details = []
    cells = [(task, mode) for task in ("copy", "reverse") for mode in (Mode.FT, Mode.LORA, Mode.LORA_FA)]
    # The cells are independent, deterministic train_run calls. A spawned
    # worker is a fresh interpreter that reads this environment before it
    # loads numpy, so each has one BLAS thread; this process's BLAS is loaded
    # already and keeps its own. map submits every cell, spawning both
    # workers, before the environment is restored.
    with mock.patch.dict(os.environ, ONE_BLAS_THREAD), \
            ProcessPoolExecutor(GRID_WORKERS, mp_context=get_context("spawn")) as pool:
        runs = {cell: pool.map(train_run, _grid(*cell), timeout=600) for cell in cells}
        best = {cell: _best_of_grid(reports) for cell, reports in runs.items()}
    for task in ("copy", "reverse"):
        loss = {mode: best[task, mode] for mode in (Mode.FT, Mode.LORA, Mode.LORA_FA)}
        ok &= all(v < target for v in loss.values())
        ratio = loss[Mode.LORA_FA] / loss[Mode.LORA]
        ok &= ratio <= 1.5
        details.append(
            f"{task}: ft {loss[Mode.FT]:.4f}, lora {loss[Mode.LORA]:.4f}, "
            f"lora-fa {loss[Mode.LORA_FA]:.4f} (all < {target:.4f}), ratio {ratio:.2f} <= 1.5"
        )
    elapsed = time.time() - t0
    ok &= elapsed < 600
    details.append(f"{elapsed:.0f}s < 600s")
    _verdict(9, "best-of-grid losses converge with lora-fa within 1.5x of lora", ok,
             "; ".join(details))


def test_criterion_10_determinism_and_roundtrip():
    cfg = RunConfig(model=ModelConfig(d=32, n_layers=2, n_heads=4, vocab=16,
                                      seq_len=8, batch_size=4),
                    mode=Mode.LORA_FA, rank=4, optimizer="adamw", lr=1e-2,
                    steps=25, seed=3, task="reverse", n_examples=64)
    a = train_run(cfg)
    b = train_run(cfg)
    identical = a.loss_curve == b.loss_curve and a.final_loss == b.final_loss
    text = a.to_json()
    roundtrip = RunReport.from_json_dict(json.loads(text)).to_json() == text
    ok = identical and roundtrip
    _verdict(10, "repeated runs bit-identical; report round-trips byte-exactly", ok,
             f"curves identical: {identical}, round-trip byte-equal: {roundtrip}")

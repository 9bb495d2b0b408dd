import json
import math

import numpy as np
import pytest

from lorafa.adapters import Mode
from lorafa.equivalence import SUBSPACE_PASS_RESIDUAL
from lorafa.errors import ParameterError
from lorafa.model import ModelConfig, build_model
from lorafa.rng import RngState, randn
from lorafa.train import (
    RunConfig,
    RunReport,
    _equiv_snapshot,
    _merged_weights,
    cell_seed,
    sweep,
    train_run,
)

SMALL = ModelConfig(d=16, n_layers=1, n_heads=2, vocab=12, seq_len=8, batch_size=4)


def small_cfg(**kw):
    base = dict(model=SMALL, mode=Mode.LORA_FA, rank=2, optimizer="adamw",
                lr=1e-2, steps=5, seed=0, task="copy", n_examples=16)
    base.update(kw)
    return RunConfig(**base)


def test_zero_steps_reports_frozen_loss():
    fa = train_run(small_cfg(steps=0))
    frozen = train_run(small_cfg(steps=0, mode=Mode.FROZEN))
    assert fa.final_loss == frozen.final_loss  # zero-init transparency
    assert fa.loss_curve == []
    assert fa.status == "ok"


def test_loss_recorded_each_step():
    rep = train_run(small_cfg(steps=7))
    assert len(rep.loss_curve) == 7
    assert all(math.isfinite(x) for x in rep.loss_curve)


def test_identical_configs_identical_curves():
    a = train_run(small_cfg(steps=10))
    b = train_run(small_cfg(steps=10))
    assert a.loss_curve == b.loss_curve
    assert a.final_loss == b.final_loss


def test_different_seed_different_curve():
    a = train_run(small_cfg(steps=10))
    b = train_run(small_cfg(steps=10, seed=1))
    assert a.loss_curve != b.loss_curve


def test_report_roundtrip_byte_identical():
    rep = train_run(small_cfg(steps=3))
    text = rep.to_json()
    parsed = RunReport.from_json_dict(json.loads(text))
    assert parsed.to_json() == text


def _report_dict() -> dict:
    return json.loads(train_run(small_cfg(steps=1)).to_json())


BAD_REPORTS = {
    "x-everywhere": lambda d: {key: "x" for key in d},
    "not-an-object": lambda d: [d],
    "unknown-key": lambda d: {**d, "extra": 1},
    "missing-key": lambda d: {key: v for key, v in d.items() if key != "status"},
    "schema-1": lambda d: {**d, "schema_version": 1},
    "schema-str": lambda d: {**d, "schema_version": "2"},
    "config-rank-0": lambda d: {**d, "config": {**d["config"], "rank": 0}},
    "config-list": lambda d: {**d, "config": []},
    "status-error": lambda d: {**d, "status": "error"},
    "loss-curve-str": lambda d: {**d, "loss_curve": "x"},
    "loss-curve-entry": lambda d: {**d, "loss_curve": [1.0, "x"]},
    "loss-curve-nan": lambda d: {**d, "loss_curve": [float("nan")]},
    "final-loss-str": lambda d: {**d, "final_loss": "x"},
    "final-loss-bool": lambda d: {**d, "final_loss": True},
    "trainable-float": lambda d: {**d, "trainable_full": 1.5},
    "trainable-negative": lambda d: {**d, "trainable_linear_only": -1},
    "wall-clock-str": lambda d: {**d, "wall_clock_s": "1"},
    "memory-list": lambda d: {**d, "memory_measured": []},
    "reconciliation-str": lambda d: {**d, "reconciliation": "x"},
    "equivalence-entry": lambda d: {**d, "equivalence": [1]},
}


@pytest.mark.parametrize("bad", BAD_REPORTS.values(), ids=BAD_REPORTS.keys())
def test_report_from_a_bad_dict_is_a_parameter_error(bad):
    with pytest.raises(ParameterError):
        RunReport.from_json_dict(bad(_report_dict()))


def test_report_from_a_diverged_dict_keeps_no_final_loss():
    d = {**_report_dict(), "status": "diverged", "final_loss": None}
    assert RunReport.from_json_dict(d).final_loss is None


def test_report_carries_counts_and_memory():
    rep = train_run(small_cfg(steps=2))
    assert rep.trainable_linear_only == 9 * 16 * 2 * 1
    assert rep.memory_measured["linear_low_elements"] == 6 * 1 * 4 * 8 * 2
    assert rep.reconciliation["match"] is True
    assert rep.memory_analytic_paper_constant["mode"] == "lora-fa"
    assert rep.wall_clock_s > 0


def test_losses_decrease_over_50_sgd_steps_all_modes():
    cfg = ModelConfig(d=32, n_layers=2, n_heads=4, vocab=16, seq_len=8, batch_size=8)
    for mode, lr in ((Mode.FT, 0.5), (Mode.LORA, 1.0), (Mode.LORA_FA, 1.0)):
        rep = train_run(RunConfig(model=cfg, mode=mode, rank=4, optimizer="sgd",
                                  lr=lr, steps=50, seed=0, task="copy", n_examples=32))
        assert rep.status == "ok"
        assert rep.loss_curve[-1] < rep.loss_curve[0], mode


def test_divergence_is_recorded_not_raised():
    with np.errstate(over="ignore", invalid="ignore"):
        rep = train_run(small_cfg(mode=Mode.FT, optimizer="sgd", lr=1e150, steps=30))
    assert rep.status == "diverged"
    assert rep.final_loss is None


def test_overflowing_snapshot_is_divergence_not_a_pass():
    # sgd at lr 1e300 leaves a finite step-1 loss and gradients, but the
    # merged-weight change's norm overflows in the step-1 snapshot: the run is
    # diverged there, with no snapshot that reads rank 0 and passes
    model = ModelConfig(d=16, n_layers=1, n_heads=2, vocab=16, seq_len=8, batch_size=4)
    cfg = small_cfg(model=model, optimizer="sgd", lr=1e300, steps=3, equiv_every=1,
                    rank=4, n_examples=256)
    with np.errstate(over="ignore", invalid="ignore"):
        rep = train_run(cfg)
    assert rep.status == "diverged"
    assert len(rep.loss_curve) == 1
    assert rep.equivalence == []


def test_equivalence_snapshots_recorded():
    rep = train_run(small_cfg(steps=6, equiv_every=3))
    assert [e["step"] for e in rep.equivalence] == [3, 6]
    assert all(e["pass"] for e in rep.equivalence)
    assert all(e["max_numerical_rank"] <= 2 for e in rep.equivalence)


@pytest.mark.parametrize("rel_off", [1e-9, 1e-11])
def test_equivalence_snapshot_pass_uses_contract_threshold(rel_off):
    # A residual between the 1e-10 contract and the old 1e-8 gate must fail.
    model = build_model(SMALL, Mode.LORA_FA, 2, None, RngState(3))
    merged_0 = _merged_weights(model)
    _, layer = model.adapted_layers()[0]
    rng = RngState(4)
    layer.b[:] = randn(layer.b.shape, rng)
    inside = layer.alpha * (layer.a @ layer.b)
    perp = randn(inside.shape, rng)
    perp -= layer.a @ np.linalg.lstsq(layer.a, perp, rcond=None)[0]
    layer.w += perp * (rel_off * np.linalg.norm(inside) / np.linalg.norm(perp))
    snap = _equiv_snapshot(model, merged_0, 1)
    assert snap["max_subspace_residual"] == pytest.approx(rel_off, rel=1e-2)
    assert snap["max_numerical_rank"] == 2
    assert snap["pass"] is (rel_off < SUBSPACE_PASS_RESIDUAL)


def test_equivalence_snapshot_rank_exact_every_step():
    rep = train_run(small_cfg(steps=5, equiv_every=1))
    assert [e["step"] for e in rep.equivalence] == [1, 2, 3, 4, 5]
    assert all(e["pass"] for e in rep.equivalence)
    assert all(e["max_numerical_rank"] == 2 for e in rep.equivalence)


def test_warmup_changes_trajectory():
    a = train_run(small_cfg(steps=10))
    b = train_run(small_cfg(steps=10, warmup_steps=5))
    assert a.loss_curve[:1] == b.loss_curve[:1]  # first forward identical
    assert a.loss_curve != b.loss_curve


def test_config_validation():
    with pytest.raises(ParameterError):
        small_cfg(optimizer="lion")
    with pytest.raises(ParameterError):
        small_cfg(steps=-1)
    with pytest.raises(ParameterError, match="rank 0 is below 1"):
        small_cfg(rank=0)
    with pytest.raises(ParameterError):
        small_cfg(lr=0.0)
    for name in ("equiv_every", "warmup_steps", "weight_decay"):
        with pytest.raises(ParameterError):
            small_cfg(**{name: -1})
    with pytest.raises(ParameterError):
        RunConfig.from_dict({**small_cfg().to_dict(), "lr_decay": 0.5})
    for name, value in (("steps", "5"), ("seed", 1.0), ("lr", None), ("weight_decay", "0"),
                        ("alpha", "0.5"), ("equiv_every", False)):
        with pytest.raises(ParameterError, match=name):
            small_cfg(**{name: value})
    with pytest.raises(ParameterError, match="seq_len"):
        ModelConfig(d=16, n_layers=1, n_heads=2, vocab=12, seq_len="8")


@pytest.mark.parametrize("name,value", [
    ("lr", float("inf")), ("lr", float("nan")), ("weight_decay", float("nan")),
    ("weight_decay", float("inf")), ("alpha", float("inf")), ("alpha", float("nan")),
])
def test_config_rejects_non_finite_numbers(name, value):
    with pytest.raises(ParameterError, match=f"{name} must be finite"):
        small_cfg(**{name: value})


@pytest.mark.parametrize("name", ["lr", "weight_decay", "alpha"])
def test_config_accepts_integers_beyond_int64(name):
    cfg = small_cfg(**{name: 2**64 + 1})
    assert getattr(cfg, name) == 2**64 + 1


@pytest.mark.parametrize("name", ["lr", "weight_decay", "alpha"])
def test_config_rejects_integers_beyond_the_float_range(name):
    with pytest.raises(ParameterError, match=f"{name} must be finite"):
        small_cfg(**{name: 10**400})


@pytest.mark.parametrize("value", [7, b"run.json", ["run.json"]])
def test_config_rejects_a_report_path_that_is_not_a_string(value):
    with pytest.raises(ParameterError, match="report_path"):
        small_cfg(report_path=value)


@pytest.mark.parametrize("mode", [Mode.LORA, Mode.LORA_FA])
@pytest.mark.parametrize("d_ff,rank", [(None, 17), (4, 5)])
def test_config_rejects_a_rank_above_min_d_and_d_ff(mode, d_ff, rank):
    # the bound init_adapter would otherwise meet inside build_model
    model = ModelConfig(d=16, n_layers=1, n_heads=2, vocab=12, seq_len=8, d_ff=d_ff)
    cap = min(16, model.d_ff)
    with pytest.raises(ParameterError, match=rf"rank {rank} exceeds min\(d, d_ff\) = {cap}"):
        small_cfg(model=model, mode=mode, rank=rank)
    assert small_cfg(model=model, mode=mode, rank=cap).rank == cap


@pytest.mark.parametrize("mode", [Mode.FT, Mode.FROZEN])
def test_config_allows_any_rank_without_an_adapter(mode):
    assert small_cfg(mode=mode, rank=17).rank == 17


@pytest.mark.parametrize("kw,named", [
    ({"alpha": 0.0}, "alpha must be positive"),
    ({"alpha": -1}, "alpha must be positive"),
    ({"task": "sort"}, "task must be one of"),
    ({"task": None}, "task must be one of"),
    ({"model": ModelConfig(d=16, n_layers=1, n_heads=2, vocab=3, seq_len=8)}, "vocab must be >= 4"),
    ({"model": ModelConfig(d=16, n_layers=1, n_heads=2, vocab=12, seq_len=3)}, "seq_len must be >= 4"),
    ({"n_examples": 0}, "n_examples must be >= 1"),
])
def test_config_rejects_values_a_run_would_fail_on(kw, named):
    with pytest.raises(ParameterError, match=named):
        small_cfg(**kw)


SMALL_DICT = {"d": 16, "n_layers": 1, "n_heads": 2, "vocab": 12, "seq_len": 8}


@pytest.mark.parametrize("d,named", [
    ([], "JSON object"),
    ({"mode": "lora-fa"}, "JSON object"),
    ({"model": 5, "mode": "lora-fa"}, "JSON object"),
    ({"model": {}, "mode": "lora-fa"}, "missing ModelConfig keys: d, n_heads"),
    ({"model": SMALL_DICT}, "missing RunConfig keys: mode"),
    ({"model": SMALL_DICT, "mode": "qlora"}, "mode must be one of"),
    ({"model": SMALL_DICT, "mode": ["ft"]}, "mode must be one of"),
])
def test_config_from_dict_rejects_malformed_objects(d, named):
    with pytest.raises(ParameterError, match=named):
        RunConfig.from_dict(d)


def test_config_dict_roundtrip():
    cfg = small_cfg(steps=4, alpha=0.25)
    again = RunConfig.from_dict(cfg.to_dict())
    assert again == cfg


# --- sweep ------------------------------------------------------------------------

def test_sweep_grid_completeness():
    grid = sweep(small_cfg(steps=2), ranks=[1, 2], lrs=[1e-2, 1e-3, 1e-4])
    assert len(grid.cells) == 6
    assert {(c["rank"], c["lr"]) for c in grid.cells} == {
        (r, lr) for r in (1, 2) for lr in (1e-2, 1e-3, 1e-4)
    }


def test_sweep_single_cell_matches_train_run():
    base = small_cfg(steps=3)
    grid = sweep(base, ranks=[2], lrs=[1e-2])
    cell = grid.cells[0]
    direct = train_run(small_cfg(steps=3, seed=cell_seed(base.seed, 2, 1e-2)))
    assert cell["final_loss"] == direct.final_loss
    assert cell["status"] == direct.status


def test_sweep_records_failures_and_continues():
    with np.errstate(over="ignore", invalid="ignore"):
        grid = sweep(small_cfg(steps=10, mode=Mode.FT, optimizer="sgd"),
                     ranks=[1], lrs=[1e150, 1e-3])
    statuses = {c["lr"]: c["status"] for c in grid.cells}
    assert statuses[1e150] == "diverged"
    assert statuses[1e-3] == "ok"
    assert len(grid.cells) == 2


def test_sweep_rejects_empty_axes():
    with pytest.raises(ParameterError):
        sweep(small_cfg(), ranks=[], lrs=[1e-3])


@pytest.mark.parametrize("ranks,lrs,named", [
    ([1], [1e-2, float("nan")], "lr must be finite"),
    ([1], [1e-2, -1.0], "lr must be positive"),
    ([1, 0], [1e-2], "rank 0 is below 1"),
    ([1, 17], [1e-2], "rank 17 exceeds min"),
])
def test_sweep_rejects_bad_axis_values_before_training(monkeypatch, ranks, lrs, named):
    trained = []
    monkeypatch.setattr("lorafa.train.train_run", trained.append)
    with pytest.raises(ParameterError, match=named):
        sweep(small_cfg(steps=1), ranks=ranks, lrs=lrs)
    assert trained == []


def test_sweep_csv_format():
    grid = sweep(small_cfg(steps=1), ranks=[2], lrs=[1e-2])
    lines = grid.to_csv().strip().split("\n")
    assert lines[0] == "rank,lr,final_loss,status"
    assert lines[1].startswith("2,0.01,")
    assert lines[1].endswith(",ok")


def test_sweep_json_roundtrip():
    grid = sweep(small_cfg(steps=1), ranks=[2], lrs=[1e-2])
    text = grid.to_json()
    assert json.loads(text)["ranks"] == [2]


def test_cell_seed_is_deterministic_and_spread():
    s1 = cell_seed(0, 2, 1e-2)
    assert s1 == cell_seed(0, 2, 1e-2)
    assert s1 != cell_seed(0, 4, 1e-2)
    assert s1 != cell_seed(0, 2, 1e-3)
    assert s1 != cell_seed(1, 2, 1e-2)

import tracemalloc

import numpy as np
import pytest

from lorafa.adapters import Mode
from lorafa.errors import DataError, ParameterError, ReconciliationError
from lorafa.memory import (MeasuredActivations, analytic_report, measured_activation_elements,
                           reconcile)
from lorafa.model import (
    ModelConfig,
    backward,
    build_model,
    count_trainable_formula,
    forward_loss,
    tape_elements,
)
from lorafa.rng import RngState, randint


def make_cfg(d=32, L=2, heads=4, vocab=16, s=8, b=2):
    return ModelConfig(d=d, n_layers=L, n_heads=heads, vocab=vocab, seq_len=s, batch_size=b)


def run_forward(cfg, mode, rank, seed=3):
    m = build_model(cfg, mode, rank=rank, rng=RngState(seed))
    tokens = randint(RngState(seed + 1), 0, cfg.vocab, (cfg.batch_size, cfg.seq_len))
    targets = randint(RngState(seed + 2), 0, cfg.vocab, (cfg.batch_size, cfg.seq_len))
    _, tape = forward_loss(m, tokens, targets)
    return tape


def linears(table: dict) -> dict:
    """The {"full", "low"} entries of a tape_elements table: its linears."""
    return {k: v for k, v in table.items() if isinstance(v, dict)}


# --- parameter counts -------------------------------------------------------

def test_weight_param_count_is_12d2L():
    cfg = make_cfg(d=8, L=3)
    assert count_trainable_formula(cfg, Mode.FT, 1) == 12 * 8 * 8 * 3


# --- analytic formulas --------------------------------------------------------

def test_ft_activation_matches_headline_geometry():
    # d=8192, L=80, b=4, s=2048 gives the >50GB-scale figure
    cfg = ModelConfig(d=8192, n_layers=80, n_heads=64, vocab=32000, seq_len=2048, batch_size=4)
    rep = analytic_report(cfg, Mode.FT, 4, 4, 2048, activation_model="paper_constant")
    assert rep.activation_bytes_linear == 14 * 4 * 2048 * 8192 * 80
    assert rep.activation_bytes_linear > 50 * 1024**3


def test_per_block_elements_ft_is_7bsd():
    cfg = make_cfg(d=4, L=1)
    per_layer = linears(tape_elements(cfg, Mode.FT, 1, 1, 1))
    total = sum(v["full"] + v["low"] for v in per_layer.values())
    assert total == 28  # qkv shared 4, out 4, ffn1 4, ffn2 16
    assert per_layer["block0.attn_k"]["full"] == 0  # shares query's input
    assert per_layer["block0.ffn2"]["full"] == 16


def test_paper_constant_equals_enumeration_for_ft():
    cfg = make_cfg(d=16, L=3)
    pc = analytic_report(cfg, Mode.FT, 2, 5, 7, activation_model="paper_constant")
    plc = analytic_report(cfg, Mode.FT, 2, 5, 7, activation_model="per_layer_count")
    assert pc.activation_bytes_linear == plc.activation_bytes_linear


def test_paper_constant_vs_enumeration_low_rank_ratio():
    # 4bsrL vs 6bsrL elements: the documented 1.5x gap on low-rank terms
    cfg = make_cfg(d=16, L=2)
    pc = analytic_report(cfg, Mode.LORA_FA, 4, 2, 8, activation_model="paper_constant")
    plc = analytic_report(cfg, Mode.LORA_FA, 4, 2, 8, activation_model="per_layer_count")
    assert plc.activation_bytes_linear == 1.5 * pc.activation_bytes_linear


def test_state_bytes_by_mode():
    cfg = make_cfg(d=16, L=2)
    n = count_trainable_formula(cfg, Mode.FT, 4)
    n_r = 18 * 16 * 4 * 2  # A plus B elements, 18drL at d_ff = 4d
    assert analytic_report(cfg, Mode.FT, 4, 1, 1).trainable_state_bytes == 14 * n
    assert analytic_report(cfg, Mode.LORA, 4, 1, 1).trainable_state_bytes == 16 * n_r
    assert analytic_report(cfg, Mode.LORA_FA, 4, 1, 1).trainable_state_bytes == 8 * n_r
    assert analytic_report(cfg, Mode.FROZEN, 4, 1, 1).trainable_state_bytes == 0


def test_weight_bytes_are_2n():
    cfg = make_cfg(d=16, L=2)
    rep = analytic_report(cfg, Mode.FT, 1, 1, 1)
    assert rep.weight_bytes == 2 * count_trainable_formula(cfg, Mode.FT, 1)


def test_modifier_validation():
    with pytest.raises(ParameterError):
        analytic_report(make_cfg(), Mode.FT, 1, 1, 1, activation_model="guess")


@pytest.mark.parametrize("rank,b,s", [(0, 1, 1), (-3, 1, 1), (1, 0, 1), (1, 1, 0)])
def test_analytic_report_rejects_sizes_below_one(rank, b, s):
    with pytest.raises(ParameterError):
        analytic_report(make_cfg(), Mode.LORA_FA, rank, b, s)


@pytest.mark.parametrize("mode", list(Mode))
def test_per_layer_count_sums_the_full_enumeration(mode):
    cfg = ModelConfig(d=24, n_layers=5, n_heads=2, vocab=9, seq_len=7, batch_size=3, d_ff=40)
    per_layer = linears(tape_elements(cfg, mode, 3, 3, 7))
    assert len(per_layer) == 6 * cfg.n_layers
    elements = sum(v["full"] + v["low"] for v in per_layer.values())
    rep = analytic_report(cfg, mode, 3, 3, 7, activation_model="per_layer_count")
    assert rep.activation_bytes_linear == float(2 * elements)


@pytest.mark.parametrize("d", [
    10**200,      # an integer count beyond the float range
    2 * 10**153,  # 24 d^2 L weights fit a float, 2 bytes each do not
])
def test_totals_beyond_the_float_range_are_parameter_errors(d):
    cfg = make_cfg(d=d, heads=1)
    for activation_model in ("paper_constant", "per_layer_count"):
        with pytest.raises(ParameterError, match="float range"):
            analytic_report(cfg, Mode.LORA_FA, 1, 1, 1, activation_model=activation_model)


# --- ordering and monotonicity ---------------------------------------------------

def test_mode_ordering_of_totals():
    cfg = make_cfg(d=64, L=4, s=32, b=8)
    totals = {
        mode: analytic_report(cfg, mode, 4, 8, 32).total_bytes
        for mode in (Mode.FT, Mode.LORA, Mode.LORA_FA)
    }
    assert totals[Mode.LORA_FA] < totals[Mode.LORA] < totals[Mode.FT]


@pytest.mark.parametrize("mode", [Mode.FT, Mode.LORA, Mode.LORA_FA])
def test_totals_monotone_in_each_argument(mode):
    base = dict(d=32, L=2, heads=4, s=8, b=2)
    rank = 4

    def total(d=32, L=2, s=8, b=2, r=rank):
        cfg = make_cfg(d=d, L=L, heads=4, s=s, b=b)
        return analytic_report(cfg, mode, r, b, s).total_bytes

    t0 = total()
    assert total(d=64) >= t0
    assert total(L=4) >= t0
    assert total(s=16) >= t0
    assert total(b=4) >= t0
    assert total(r=8) >= t0


# --- runtime meter and reconciliation ----------------------------------------------

def test_empty_measurement_has_zero_totals():
    # The benchmark reports an empty measurement for a mode whose step failed.
    meas = MeasuredActivations()
    assert (meas.linear_full, meas.linear_low, meas.other) == (0, 0, 0)
    assert meas.to_dict() == {"linear_full_elements": 0, "linear_low_elements": 0,
                              "other_elements": 0, "per_layer": {}}


def test_meter_frozen_model_has_no_linear_retention():
    cfg = make_cfg()
    meas = measured_activation_elements(run_forward(cfg, Mode.FROZEN, 4))
    assert meas.linear_full == 0 and meas.linear_low == 0
    assert meas.other > 0


def test_meter_lorafa_counts():
    cfg = make_cfg(d=32, L=2, s=8, b=2)
    meas = measured_activation_elements(run_forward(cfg, Mode.LORA_FA, 4))
    assert meas.linear_low == 6 * 2 * 2 * 8 * 4  # 6 L b s r = 768
    assert meas.linear_full == 0


def test_meter_ft_counts():
    cfg = make_cfg(d=32, L=2, s=8, b=2)
    meas = measured_activation_elements(run_forward(cfg, Mode.FT, 4))
    assert meas.linear_full == 7 * 2 * 2 * 8 * 32  # 7 L b s d = 7168
    assert meas.linear_low == 0


@pytest.mark.parametrize("mode", [Mode.FT, Mode.LORA, Mode.LORA_FA, Mode.FROZEN])
def test_reconcile_exact_for_all_modes(mode):
    cfg = make_cfg(d=16, L=3, heads=2, s=6, b=2)
    meas = measured_activation_elements(run_forward(cfg, mode, 2))
    rec = reconcile(cfg, mode, 2, meas, 2, 6)
    assert rec["match"] is True


def test_reconcile_reports_paper_constant_delta_for_low_rank():
    cfg = make_cfg(d=16, L=2, heads=2, s=6, b=2)
    meas = measured_activation_elements(run_forward(cfg, Mode.LORA, 2))
    rec = reconcile(cfg, Mode.LORA, 2, meas, 2, 6)
    assert rec["paper_constant_delta"]["full"] == 0
    # 4bsrL - 6bsrL elements: reported, not asserted
    assert rec["paper_constant_delta"]["low"] == (4 - 6) * 2 * 6 * 2 * 2


def test_reconcile_failure_lists_diffs():
    cfg = make_cfg(d=16, L=1, heads=2, s=6, b=2)
    meas = measured_activation_elements(run_forward(cfg, Mode.FT, 2))
    meas.elements["block0.ffn1"]["full"] -= 1
    with pytest.raises(ReconciliationError, match="ffn1"):
        reconcile(cfg, Mode.FT, 2, meas, 2, 6)


def test_reconcile_compares_block_counts_before_it_builds_the_table():
    # A table for 10**9 blocks would exhaust memory before any field compared.
    meas = measured_activation_elements(run_forward(make_cfg(d=8, L=1, heads=2), Mode.LORA_FA, 2))
    cfg = ModelConfig(d=8, n_layers=10**9, n_heads=2, vocab=12, seq_len=8, batch_size=2)
    with pytest.raises(ReconciliationError, match="meter counts 1 blocks, the config 1000000000"):
        reconcile(cfg, Mode.LORA_FA, 2, meas, 2, 8)


def test_low_rank_retention_scales_exactly_with_rank():
    # the measured footprint along the rank axis never exceeds 6 L b s r
    cfg = make_cfg(d=32, L=2, heads=4, s=8, b=2)
    for rank in (1, 4, 16, 32):
        meas = measured_activation_elements(run_forward(cfg, Mode.LORA_FA, rank))
        assert meas.linear_low == 6 * cfg.n_layers * 2 * 8 * rank
        assert meas.linear_full == 0


@pytest.mark.parametrize("mode", [Mode.FT, Mode.LORA, Mode.LORA_FA, Mode.FROZEN])
def test_meter_other_elements_closed_form(mode):
    d, L, h, s, b, vocab = 16, 3, 2, 6, 2, 11
    cfg = make_cfg(d=d, L=L, heads=h, vocab=vocab, s=s, b=b)
    table = tape_elements(cfg, mode, 2, b, s)
    other = sum(n for n in table.values() if not isinstance(n, dict))
    assert measured_activation_elements(run_forward(cfg, mode, 2)).other == other


@pytest.mark.parametrize("block, name", [
    (1, "extra"),     # an array no field states
    (0, "ln1_xhat"),  # where forward keeps None outside ft
    (0, "qh"),        # resized
    (None, "extra"),  # outside the blocks
])
def test_reconcile_names_an_array_the_table_does_not_state(block, name):
    # The meter counts every array the tape holds, so one the table lacks,
    # or one of another size, fails reconciliation by name.
    cfg = make_cfg(d=16, L=2, heads=2, s=6, b=2)
    tape = run_forward(cfg, Mode.LORA, 2)
    field = name if block is None else f"block{block}.{name}"
    tape[field] = np.zeros(5)
    with pytest.raises(ReconciliationError, match=f"'{field}'"):
        reconcile(cfg, Mode.LORA, 2, measured_activation_elements(tape), 2, 6)


def test_shared_qkv_input_counted_once():
    cfg = make_cfg(d=16, L=1, heads=2, s=6, b=2)
    meas = measured_activation_elements(run_forward(cfg, Mode.FT, 2))
    # attn_q carries the shared input; k and v add nothing
    per_layer = meas.to_dict()["per_layer"]
    assert per_layer["block0.attn_q"]["full"] == 2 * 6 * 16
    assert "block0.attn_k" not in per_layer


# The acceptance PARITY_MODEL geometry (cases named by mode) and the
# benchmark's g2-wide one (cases named g2-wide-<mode>).
PEAK_GEOMETRIES = {
    "parity": (dict(d=64, L=2, heads=4, vocab=32, s=16, b=16), 8),
    "g2-wide": (dict(d=128, L=2, heads=4, vocab=64, s=64, b=8), 16),
}
PEAK_CASES = [
    pytest.param(mode, geometry, id=mode.value if geometry == "parity" else f"{geometry}-{mode.value}")
    for geometry in PEAK_GEOMETRIES for mode in (Mode.FT, Mode.LORA, Mode.LORA_FA)
]


def step_peak_over_tape(mode, geometry) -> float:
    """Tracemalloc peak of one forward_loss + backward minus the metered tape,
    in (b, s, max(d, d_ff)) float64 tensors."""
    kwargs, rank = PEAK_GEOMETRIES[geometry]
    cfg = make_cfg(**kwargs)
    m = build_model(cfg, mode, rank=rank, rng=RngState(3))
    tokens = randint(RngState(4), 0, cfg.vocab, (cfg.batch_size, cfg.seq_len))
    targets = randint(RngState(5), 0, cfg.vocab, (cfg.batch_size, cfg.seq_len))
    tracemalloc.start()
    try:
        _, tape = forward_loss(m, tokens, targets)
        measured = measured_activation_elements(tape)  # before backward consumes it
        backward(m, tape)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    retained = (measured.linear_full + measured.linear_low + measured.other) * 8
    unit = cfg.batch_size * cfg.seq_len * max(cfg.d, cfg.d_ff) * 8
    return (peak - retained) / unit


# Most a step's peak may hold beyond the tape, in (b, s, max(d, d_ff)) float64
# tensors. Measured: ft 0.33 / 0.30, lora 0.53 / 0.42, lora-fa 1.12 / 0.92
# (parity / g2-wide).
PEAK_OVER_TAPE = {Mode.FT: 0.5, Mode.LORA: 0.75, Mode.LORA_FA: 1.25}


@pytest.mark.parametrize("mode, geometry", PEAK_CASES)
def test_step_peak_stays_near_the_retained_tape(mode, geometry):
    # Backward consumes the tape as it goes, so the peak is the tape plus a
    # few live temporaries. In ft and lora, holding ffn2's retained input
    # (GeLU's whole output) until ffn2's dx exists breaks the bound.
    assert step_peak_over_tape(mode, geometry) <= PEAK_OVER_TAPE[mode]


@pytest.mark.parametrize("mode", [Mode.LORA_FA, Mode.FROZEN], ids=lambda m: f"g2-wide-{m.value}")
def test_row_blocked_ffn2_keeps_the_step_peak_near_the_tape(mode):
    # Modes that keep no full-width ffn2 input build GeLU's output per row
    # block, so forward never holds it or ffn2's whole product beside
    # the tape, and GeLU's input dies at its vjp. What is left over the tape
    # is ffn2's dx in backward and a few blocks: at most 1.25 b*s*d_ff
    # tensors (whole-array GeLU output and product: 1.60 lora-fa, 1.38 frozen).
    assert step_peak_over_tape(mode, "g2-wide") <= 1.25


def test_lora_fa_backward_holds_no_whole_merged_weight():
    # lora-fa peaks at the last block's ffn2 dx, beside GeLU's input and the
    # residual gradient, which it needs whole there. Building ffn2's merged
    # weight whole for that dx put the peak at 1.10 units; built in row tiles
    # it is 0.92.
    assert step_peak_over_tape(Mode.LORA_FA, "g2-wide") <= 1.0


@pytest.mark.parametrize("mode", list(Mode))
def test_metering_a_consumed_tape_is_a_data_error(mode):
    cfg = make_cfg()
    tape = run_forward(cfg, mode, 2)
    backward(build_model(cfg, mode, rank=2, rng=RngState(3)), tape)
    with pytest.raises(DataError, match="no loss"):
        measured_activation_elements(tape)

"""Analytic memory accounting and the runtime activation meter.

Accounting follows the 16-bit mixed-precision convention: 2 bytes per
element regardless of the compute precision actually used, with n = 12 d^2 L
block-linear weight parameters and n_r = 18 d r L adapter parameters.
The trainable state is 14 bytes per trained W element (gradient, optimizer
moments, master copy) and 16 per trained adapter element (plus the adapter
weight itself); A and B hold n_r / 2 elements each, so per mode it is

    ft       14 n
    lora     16 n_r
    lora-fa   8 n_r
    frozen    0

and the linear-input activation bytes come in two flavors:

  * paper_constant: 7 b s d L elements if the mode retains the full input
    plus 4 b s r L if it has an adapter, in bytes 14 b s d L (ft),
    14 b s d L + 8 b s r L (lora), 8 b s r L (lora-fa);
  * per_layer_count: enumeration over the six block layers with
    query/key/value sharing one stored input, times 2 bytes.

For lora/lora-fa low-rank terms the two flavors disagree (4 b s r L versus
6 b s r L elements, the constant apparently counting four adapted layers
instead of six); reconcile() reports that delta instead of asserting it.
Everything outside linear inputs (attention, GeLU, layernorm, loss
softmax) is measured by the meter but excluded from analytic comparison.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields, replace

from .adapters import Mode, RetainedActivations
from .errors import DataError, ParameterError, ReconciliationError
from .model import ModelConfig, Tape, block_layer_specs, count_trainable_formula

BYTES_PER_ELEMENT = 2  # accounting precision (16-bit), not compute precision


@dataclass
class MemoryBreakdown:
    mode: str
    accounting_bytes_per_element: int
    weight_bytes: float
    trainable_state_bytes: float
    activation_bytes_linear: float
    activation_bytes_other: float

    @property
    def total_bytes(self) -> float:
        return (
            self.weight_bytes
            + self.trainable_state_bytes
            + self.activation_bytes_linear
            + self.activation_bytes_other
        )

    def to_dict(self) -> dict:
        return {**asdict(self), "total_bytes": self.total_bytes}


def weight_param_count(config: ModelConfig) -> int:
    """Block-linear weight parameters; 12 d^2 L when d_ff = 4d."""
    per_block = sum(d_in * d_out for _, d_in, d_out, _ in block_layer_specs(config))
    return per_block * config.n_layers


def analytic_linear_elements(
    config: ModelConfig, mode: Mode, rank: int, b: int, s: int
) -> dict[str, dict[str, int]]:
    """Per-layer retained linear-input elements, with q/k/v input deduplicated.

    Keys are block-qualified layer names; each value holds "full" and "low"
    element counts. This is the per_layer_count enumeration and is exactly
    what the runtime meter must reproduce.
    """
    out: dict[str, dict[str, int]] = {}
    for i in range(config.n_layers):
        for name, d_in, _d_out, shares_input in block_layer_specs(config):
            full = 0
            if mode.retains_full_input and not shares_input:
                full = b * s * d_in
            low = b * s * rank if mode.has_adapter else 0
            out[f"block{i}.{name}"] = {"full": full, "low": low}
    return out


def _paper_constant_elements(config: ModelConfig, mode: Mode, rank: int, b: int, s: int):
    """Quoted closed forms, in elements (bytes / 2): 7bsdL full, 4bsrL low."""
    bsL = b * s * config.n_layers
    return 7 * bsL * config.d * mode.retains_full_input, 4 * bsL * rank * mode.has_adapter


def analytic_report(
    config: ModelConfig,
    mode: Mode,
    rank: int,
    b: int,
    s: int,
    activation_model: str = "paper_constant",
) -> MemoryBreakdown:
    """Bytes by category for one (mode, geometry, batch) triple.

    Every block is alike, so per_layer_count is one block's enumeration
    times n_layers. A byte total beyond the float range is a ParameterError.
    """
    if activation_model not in ("paper_constant", "per_layer_count"):
        raise ParameterError(f"unknown activation model {activation_model!r}")
    if not isinstance(mode, Mode):
        raise ParameterError(f"unknown mode {mode!r}")
    for name, value in (("rank", rank), ("b", b), ("s", s)):
        if value < 1:
            raise ParameterError(f"{name} must be >= 1, got {value}")
    if activation_model == "paper_constant":
        full, low = _paper_constant_elements(config, mode, rank, b, s)
    else:
        block = analytic_linear_elements(replace(config, n_layers=1), mode, rank, b, s).values()
        full = config.n_layers * sum(v["full"] for v in block)
        low = config.n_layers * sum(v["low"] for v in block)
    n = weight_param_count(config)
    state_per_element = 14.0 if "w" in mode.trains else 16.0
    try:
        out = MemoryBreakdown(
            mode=mode.value,
            accounting_bytes_per_element=BYTES_PER_ELEMENT,
            weight_bytes=2.0 * n,
            trainable_state_bytes=state_per_element * count_trainable_formula(config, mode, rank),
            activation_bytes_linear=float((full + low) * BYTES_PER_ELEMENT),
            activation_bytes_other=0.0,
        )
        finite = math.isfinite(out.total_bytes)
    except OverflowError:  # an integer count beyond the float range
        finite = False
    if not finite:
        raise ParameterError("memory byte totals exceed the float range")
    return out


@dataclass
class MeasuredActivations:
    """Distinct retained tensors from one forward tape, counted once each."""

    linear_full: int = 0
    linear_low: int = 0
    other: int = 0
    per_layer: dict[str, dict[str, int]] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "linear_full_elements": self.linear_full,
            "linear_low_elements": self.linear_low,
            "other_elements": self.other,
            "per_layer": self.per_layer,
        }


def measured_activation_elements(tape: Tape) -> MeasuredActivations:
    """Count retained activation elements per category from a forward tape.

    Walks the arrays backward reads: each block cache in field order (its
    RetainedActivations are the linear inputs, keyed by layer), then the
    final layernorm, head input and loss gradient. A tensor referenced by
    several layers (the shared query/key/value input) is counted once,
    attributed to the first layer that retained it. A tape without a loss,
    which includes one that backward consumed, is a DataError: it would
    count as nothing retained.
    """
    if tape.dlogits is None:
        raise DataError("tape has no loss; meter it after forward_loss, before backward")
    seen: set[int] = set()
    out = MeasuredActivations()

    def count(arr) -> int:
        if arr is None or id(arr) in seen:
            return 0
        seen.add(id(arr))
        return arr.size

    for i, cache in enumerate(tape.block_caches):
        for f in fields(cache):
            value = getattr(cache, f.name)
            if not isinstance(value, RetainedActivations):
                out.other += count(value)
                continue
            full = count(value.x_full) if value.has_x_full else 0
            low = count(value.x_low) if value.has_x_low else 0
            if full or low:
                out.per_layer[f"block{i}.{f.name}"] = {"full": full, "low": low}
            out.linear_full += full
            out.linear_low += low
    for arr in (tape.lnf_xhat, tape.lnf_inv, tape.head_input, tape.dlogits):
        out.other += count(arr)
    return out


def reconcile(
    config: ModelConfig,
    mode: Mode,
    rank: int,
    measured: MeasuredActivations,
    b: int,
    s: int,
) -> dict:
    """Exactly match measured linear-input elements against the enumeration.

    Raises ReconciliationError with per-layer diffs on any mismatch. The
    paper-constant deltas are included informationally and never asserted.
    """
    analytic = analytic_linear_elements(config, mode, rank, b, s)
    diffs = []
    for key, expected in analytic.items():
        got = measured.per_layer.get(key, {"full": 0, "low": 0})
        if got != expected:
            diffs.append({"layer": key, "expected": expected, "measured": got})
    for key in measured.per_layer:
        if key not in analytic:
            diffs.append({"layer": key, "expected": None, "measured": measured.per_layer[key]})
    a_full = sum(v["full"] for v in analytic.values())
    a_low = sum(v["low"] for v in analytic.values())
    if diffs or a_full != measured.linear_full or a_low != measured.linear_low:
        raise ReconciliationError(f"activation reconciliation failed: {diffs}")
    pc_full, pc_low = _paper_constant_elements(config, mode, rank, b, s)
    return {
        "match": True,
        "linear_full_elements": a_full,
        "linear_low_elements": a_low,
        "paper_constant_delta": {
            "full": pc_full - a_full,
            "low": pc_low - a_low,
        },
    }

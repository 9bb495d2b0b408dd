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
  * per_layer_count: the linears of model.tape_elements, the tape's layout,
    with query/key/value sharing one stored input, times 2 bytes.

For lora/lora-fa low-rank terms the two flavors disagree (4 b s r L versus
6 b s r L elements, the constant apparently counting four adapted layers
instead of six); reconcile() reports that delta instead of asserting it.
Everything outside linear inputs (attention, GeLU, layernorm, loss
softmax) is metered and reconciled field by field too, but still excluded
from the analytic totals (activation_bytes_other is 0).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

from .adapters import Mode, RetainedActivations
from .errors import DataError, ParameterError, ReconciliationError
from .model import ModelConfig, Tape, count_trainable_formula, tape_elements

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

    Every block's linears are alike, so per_layer_count is one block's
    tape_elements linear totals times n_layers. A byte total beyond the
    float range is a ParameterError.
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
        block = MeasuredActivations(tape_elements(replace(config, n_layers=1), mode, rank, b, s))
        full, low = config.n_layers * block.linear_full, config.n_layers * block.linear_low
    state_per_element = 14.0 if "w" in mode.trains else 16.0
    try:
        out = MemoryBreakdown(
            mode=mode.value,
            accounting_bytes_per_element=BYTES_PER_ELEMENT,
            weight_bytes=2.0 * count_trainable_formula(config, Mode.FT, rank),
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
    """Retained elements per tape field, in tape_elements' layout, and their
    totals: linear inputs full and low, and every other array."""

    elements: dict = field(default_factory=dict)

    @property
    def linear_full(self) -> int:
        return sum(v["full"] for v in self.elements.values() if isinstance(v, dict))

    @property
    def linear_low(self) -> int:
        return sum(v["low"] for v in self.elements.values() if isinstance(v, dict))

    @property
    def other(self) -> int:
        return sum(v for v in self.elements.values() if not isinstance(v, dict))

    def to_dict(self) -> dict:
        """The totals, and under per_layer the linears that retained anything."""
        return {
            "linear_full_elements": self.linear_full,
            "linear_low_elements": self.linear_low,
            "other_elements": self.other,
            "per_layer": {k: v for k, v in self.elements.items()
                          if isinstance(v, dict) and any(v.values())},
        }


def measured_activation_elements(tape: Tape) -> MeasuredActivations:
    """Count the elements of every array a forward tape retains, by field.

    Walks each block cache's attributes, then the Tape's own but tokens,
    so an array added to either is counted under its name. A tensor
    referenced by several layers (the shared query/key/value input) is
    counted once, attributed to the first layer that retained it. A tape
    without a loss, which includes one that backward consumed, is a
    DataError: it would count as nothing retained.
    """
    if tape.dlogits is None:
        raise DataError("tape has no loss; meter it after forward_loss, before backward")
    seen: set[int] = set()
    elements: dict = {}

    def count(arr) -> int:
        if arr is None or id(arr) in seen:
            return 0
        seen.add(id(arr))
        return arr.size

    def walk(prefix: str, holder) -> None:
        for name, v in vars(holder).items():
            if isinstance(v, RetainedActivations):
                elements[prefix + name] = {"full": count(v.x_full) if v.has_x_full else 0,
                                           "low": count(v.x_low) if v.has_x_low else 0}
            elif name not in ("tokens", "block_caches"):
                elements[prefix + name] = count(v)

    for i, cache in enumerate(tape.block_caches):
        walk(f"block{i}.", cache)
    walk("", tape)
    return MeasuredActivations(elements)


def reconcile(
    config: ModelConfig,
    mode: Mode,
    rank: int,
    measured: MeasuredActivations,
    b: int,
    s: int,
) -> dict:
    """Exactly match a metered tape against tape_elements, field by field:
    each linear's full and low inputs and every other array.

    Raises ReconciliationError naming each field that differs. The
    paper-constant deltas are included informationally and never asserted.
    """
    expected = tape_elements(config, mode, rank, b, s)
    got = measured.elements
    diffs = [
        {"field": key, "expected": expected.get(key), "measured": got.get(key)}
        for key in [*expected, *(k for k in got if k not in expected)]
        if expected.get(key) != got.get(key)
    ]
    if diffs:
        raise ReconciliationError(f"activation reconciliation failed: {diffs}")
    full, low = measured.linear_full, measured.linear_low
    pc_full, pc_low = _paper_constant_elements(config, mode, rank, b, s)
    return {
        "match": True,
        "linear_full_elements": full,
        "linear_low_elements": low,
        "paper_constant_delta": {
            "full": pc_full - full,
            "low": pc_low - low,
        },
    }

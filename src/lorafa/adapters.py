"""Linear layers with four adaptation modes and mode-dependent activation retention.

The mode fixes three things at once: which parameters train, which
gradients exist, and which forward activations the layer is allowed to
keep for backward. Only the first is stated (``Mode.trains``); the other
two follow from it, since dW and dA read the input x and dB reads x@A.

    mode     trains        retains for backward        gradients
    ft       W             x (full width)              dW
    lora     A, B          x and x@A                   dA, dB
    lora-fa  B             x@A only                    dB
    frozen   nothing       nothing                     none

With frozen A the layer never stores the full-width input: a layer whose
input dimension is d keeps only the rank-r projection, shrinking retained
elements per token from d to r. Retention is structural, not advisory;
asking a frozen-A layer for its full input raises RetentionPolicyError.

In every mode the layer is one dense map, y = x (W + alpha A B) and
dx = dy (W + alpha A B)^T: forward and backward rebuild the weight ``merge``
returns (one d_in x r x d_out product), so an adapter adds no b*s-row
product but x@A, which dB reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import DimensionError, ModeError, ParameterError, RetentionPolicyError
from .ops import matmul
from .rng import RngState, randn


class Mode(str, Enum):
    FT = "ft"
    LORA = "lora"
    LORA_FA = "lora-fa"
    FROZEN = "frozen"

    @property
    def trains(self) -> tuple[str, ...]:
        """The tensors of each adapted linear that train, in parameter order."""
        return _MODE_TABLE[self.value][0]

    @property
    def trains_dense(self) -> bool:
        """Whether embeddings and layer norms train too."""
        return _MODE_TABLE[self.value][1]

    @property
    def has_adapter(self) -> bool:
        return "b" in self.trains

    @property
    def retains_full_input(self) -> bool:
        return "w" in self.trains or "a" in self.trains


# The mode table, (linear tensors that train, trains_dense); every other
# mode-dependent fact is derived from it.
_MODE_TABLE = {
    "ft": (("w",), True),
    "lora": (("a", "b"), False),
    "lora-fa": (("b",), False),
    "frozen": ((), False),
}


class RetainedActivations:
    """What one layer's forward pass kept for its backward pass.

    Fields are only reachable through accessors that raise
    RetentionPolicyError when the mode's policy did not retain them, so a
    backward implementation physically cannot touch the full input of a
    frozen-A layer.
    """

    __slots__ = ("_x_full", "_x_low")

    def __init__(self, x_full: Optional[np.ndarray], x_low: Optional[np.ndarray]):
        self._x_full = x_full
        self._x_low = x_low

    @property
    def has_x_full(self) -> bool:
        return self._x_full is not None

    @property
    def has_x_low(self) -> bool:
        return self._x_low is not None

    @property
    def x_full(self) -> np.ndarray:
        if self._x_full is None:
            raise RetentionPolicyError(
                "full-width input was not retained under this adaptation mode"
            )
        return self._x_full

    @property
    def x_low(self) -> np.ndarray:
        if self._x_low is None:
            raise RetentionPolicyError("low-rank input was not retained (no adapter)")
        return self._x_low


@dataclass(eq=False)  # layers compare by identity
class AdaptedLinear:
    """A d_in x d_out linear map with an optional low-rank adapter.

    y = x @ (W + alpha * A @ B) when an adapter is present, else x @ W.
    Bias terms are omitted. A is d_in x r (projection down), B is r x d_out
    (projection up); alpha defaults to 1/r and is kept as a Python float.
    """

    w: np.ndarray
    a: Optional[np.ndarray]
    b: Optional[np.ndarray]
    rank: int
    alpha: float
    mode: Mode

    def __post_init__(self):
        self.alpha = float(self.alpha)

    @property
    def d_in(self) -> int:
        return self.w.shape[0]

    @property
    def d_out(self) -> int:
        return self.w.shape[1]

    def clone(self) -> "AdaptedLinear":
        return AdaptedLinear(
            self.w.copy(),
            None if self.a is None else self.a.copy(),
            None if self.b is None else self.b.copy(),
            self.rank,
            self.alpha,
            self.mode,
        )


def init_adapter(
    d_in: int,
    d_out: int,
    rank: int,
    alpha: Optional[float],
    mode: Mode,
    rng: RngState,
    w: Optional[np.ndarray] = None,
) -> AdaptedLinear:
    """Build a layer: W supplied or sampled as a pretrained stand-in, A normal, B zero.

    A has unit-variance entries, so that E[A A^T] = rank * I holds exactly;
    W, when sampled here, has std 1/sqrt(d_in).
    """
    if rank < 1:
        raise ParameterError(f"rank must be >= 1, got {rank}")
    if mode.has_adapter and rank > min(d_in, d_out):
        raise ParameterError(
            f"rank {rank} exceeds min(d_in, d_out) = {min(d_in, d_out)}"
        )
    if alpha is None:
        alpha = 1.0 / rank
    if not 0 < alpha < np.inf:
        raise ParameterError(f"alpha must be positive and finite, got {alpha}")
    if w is None:
        w = randn((d_in, d_out), rng, std=1.0 / np.sqrt(d_in))
    elif w.shape != (d_in, d_out):
        raise DimensionError(f"w has shape {w.shape}, expected {(d_in, d_out)}")
    a = b = None
    if mode.has_adapter:
        a = randn((d_in, rank), rng)
        b = np.zeros((rank, d_out))
    return AdaptedLinear(w, a, b, rank, alpha, mode)


def forward(layer: AdaptedLinear, x: np.ndarray):
    """y = x (W + alpha A B), plus x@A in adapter modes; returns (y, kept)."""
    if x.shape[-1] != layer.d_in:
        raise DimensionError(
            f"input trailing extent {x.shape[-1]} != d_in {layer.d_in}"
        )
    y = matmul(x, _merged(layer))
    kept = RetainedActivations(
        x_full=x if layer.mode.retains_full_input else None,
        x_low=matmul(x, layer.a) if layer.mode.has_adapter else None,
    )
    return y, kept


def _merged(layer: AdaptedLinear, transpose: bool = False) -> np.ndarray:
    """W + alpha * A @ B, or with transpose W^T + alpha * B^T @ A^T.

    W itself without an adapter; else a fresh array, bit for bit the plain
    expression, built in the product's buffer. The transpose is built, not
    viewed, and each view made only when used: numpy allocates a shape block
    per view, so a W_eff.T view held next to matmul's folding views adds to
    a lora-fa step's memory peak.
    """
    if not layer.mode.has_adapter:
        return layer.w.T if transpose else layer.w
    w_eff = layer.b.T @ layer.a.T if transpose else layer.a @ layer.b
    w_eff *= layer.alpha
    w_eff += layer.w.T if transpose else layer.w
    return w_eff


def _fold(x: np.ndarray) -> np.ndarray:
    """Collapse batch and sequence dims ahead of the gradient outer products."""
    return x.reshape(-1, x.shape[-1])


def backward(
    layer: AdaptedLinear, kept: RetainedActivations, dy: np.ndarray, input_grad: bool = True
):
    """Input gradient plus exactly the mode's trainable-parameter gradients.

    dx = dy (W + alpha A B)^T, rebuilt from the A and B forward used, so
    nothing but the mode's activations is retained. With input_grad false
    nothing below the layer trains, dx is dead: neither it nor the
    transposed merge is built, and None comes back in its place. Parameter
    gradients fold the leading dims without averaging (loss normalization
    owns averaging):
      ft:      dW = x^T dy
      lora:    dA = alpha * x^T (dy B^T),  dB = alpha * (x A)^T dy
      lora-fa: dB only, computed from the retained x@A; the full input is
               never touched (and is not there to touch).
    """
    if dy.shape[-1] != layer.d_out:
        raise DimensionError(
            f"upstream trailing extent {dy.shape[-1]} != d_out {layer.d_out}"
        )
    dx = matmul(dy, _merged(layer, transpose=True)) if input_grad else None
    dy2 = _fold(dy)
    grads = {name: _GRADIENTS[name](layer, kept, dy2) for name in layer.mode.trains}
    return dx, grads


# backward's rule per trainable tensor; dy2 is dy with its leading dims folded.
_GRADIENTS = {
    "w": lambda layer, kept, dy2: _fold(kept.x_full).T @ dy2,
    "a": lambda layer, kept, dy2: layer.alpha * (_fold(kept.x_full).T @ (dy2 @ layer.b.T)),
    "b": lambda layer, kept, dy2: layer.alpha * (_fold(kept.x_low).T @ dy2),
}


def merge(layer: AdaptedLinear) -> np.ndarray:
    """Fold the adapter into a dense weight: W + alpha * A @ B. Pure."""
    if not layer.mode.has_adapter:
        raise ModeError(f"merge requires an adapter mode, layer is {layer.mode.value}")
    return _merged(layer)


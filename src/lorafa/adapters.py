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

from . import ops
from .errors import (DimensionError, ModeError, NumericsError, ParameterError,
                     RetentionPolicyError)
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


def _check_extent(what: str, x, extent: int) -> None:
    """DimensionError unless x is a numpy array of reals whose last extent is the given one."""
    if not isinstance(x, np.ndarray) or x.dtype.kind not in "iuf" or x.shape[-1:] != (extent,):
        raise DimensionError(f"{what} must be a (..., {extent}) array of reals, got "
                             f"{getattr(x, 'dtype', '')} {getattr(x, 'shape', type(x).__name__)}")


@ops.numerics
def forward(layer: AdaptedLinear, x: np.ndarray, gelu_into: Optional[np.ndarray] = None):
    """y = x (W + alpha A B), plus x@A in adapter modes; returns (y, kept).

    With gelu_into, a residual stream of y's shape, the layer's input is
    GeLU(x) instead, and its product is added into gelu_into, which is
    returned as y (see _forward_gelu_into).
    """
    _check_extent("input", x, layer.d_in)
    if gelu_into is not None:
        return gelu_into, _forward_gelu_into(layer, x, gelu_into)
    y = matmul(x, _merged(layer))
    kept = RetainedActivations(
        x_full=x if layer.mode.retains_full_input else None,
        x_low=matmul(x, layer.a) if layer.mode.has_adapter else None,
    )
    return y, kept


def _forward_gelu_into(layer: AdaptedLinear, x: np.ndarray, out: np.ndarray) -> RetainedActivations:
    """out += GeLU(x) (W + alpha A B); returns what the input GeLU(x) keeps.

    The product runs over blocks of ops.ROWS folded rows, so it is never
    whole, and each block's x@A goes into its rows of the retained array.
    Where the mode retains its input, GeLU(x) is built whole, being x_full,
    and the blocks are its views; elsewhere each block builds its own GeLU,
    so GeLU(x) is never whole either. out is added into in place (out + y
    is y + out bit for bit), so it must be C-contiguous, for its rows to be
    views, and retained by nothing.
    """
    if (not isinstance(out, np.ndarray) or out.shape != x.shape[:-1] + (layer.d_out,)
            or not out.flags.c_contiguous or out.dtype.kind != "f"):
        raise DimensionError(f"forward gelu_into must be a C-contiguous float {x.shape[:-1]} x "
                             f"{layer.d_out} array, got {getattr(out, 'shape', type(out).__name__)}")
    w = _merged(layer)
    x_full = ops.gelu(x) if layer.mode.retains_full_input else None
    x_low = np.empty(x.shape[:-1] + (layer.rank,)) if layer.mode.has_adapter else None
    for lo in range(0, out.size // layer.d_out, ops.ROWS):
        block = slice(lo, lo + ops.ROWS)
        xb = ops.gelu(_fold(x)[block]) if x_full is None else _fold(x_full)[block]
        if x_low is not None:
            _fold(x_low)[block] = matmul(xb, layer.a)
        y = matmul(xb, w)
        del xb
        _fold(out)[block] += y
        del y  # before the next block's input exists
    return RetainedActivations(x_full, x_low)


def _merged(layer: AdaptedLinear) -> np.ndarray:
    """W + alpha * A @ B: W itself without an adapter, else a fresh array, bit
    for bit the plain expression, built in the product's buffer. Forward
    multiplies by it and backward by its transposed view."""
    if not layer.mode.has_adapter:
        return layer.w
    w_eff = layer.a @ layer.b
    w_eff *= layer.alpha
    w_eff += layer.w
    return w_eff


def _fold(x: np.ndarray) -> np.ndarray:
    """Collapse batch and sequence dims ahead of the gradient outer products."""
    return x.reshape(-1, x.shape[-1])


def backward(
    layer: AdaptedLinear, kept: RetainedActivations, dy: np.ndarray, input_grad: bool = True
):
    """Input gradient plus exactly the mode's trainable-parameter gradients.

    The parameter gradients come first, and then kept, which they read last,
    is dropped: a caller that hands its only reference over frees the
    retained activations before dx and the merged weight exist, and one that
    keeps kept may reuse it. dx = dy (W + alpha A B)^T, rebuilt from the A
    and B forward used, so nothing but the mode's activations is retained.
    With input_grad false nothing below the layer trains, dx is dead:
    neither it nor the merged weight is built, and None comes back in its
    place. Parameter gradients fold the leading dims without averaging
    (loss normalization owns averaging):
      ft:      dW = x^T dy
      lora:    dA = alpha * x^T (dy B^T),  dB = alpha * (x A)^T dy
      lora-fa: dB only, computed from the retained x@A; the full input is
               never touched (and is not there to touch).
    dy must share its leading dims with the retained activations. numpy's
    floating-point warning is a NumericsError, as in ops.numerics, whose
    wrapper frame would hold kept until dx exists.
    """
    _check_extent("upstream", dy, layer.d_out)
    if any(x is not None and x.shape[:-1] != dy.shape[:-1] for x in (kept._x_full, kept._x_low)):
        raise DimensionError(f"upstream {dy.shape} differs from the retained input in its leading dims")
    dy2 = _fold(dy)
    try:
        grads = {name: _GRADIENTS[name](layer, kept, dy2) for name in layer.mode.trains}
        del kept
        dx = matmul(dy, _merged(layer).T) if input_grad else None
    except RuntimeWarning as exc:
        raise NumericsError(f"backward: {exc}") from exc
    return dx, grads


# backward's rule per trainable tensor; dy2 is dy with its leading dims folded.
_GRADIENTS = {
    "w": lambda layer, kept, dy2: _fold(kept.x_full).T @ dy2,
    "a": lambda layer, kept, dy2: layer.alpha * (_fold(kept.x_full).T @ (dy2 @ layer.b.T)),
    "b": lambda layer, kept, dy2: layer.alpha * (_fold(kept.x_low).T @ dy2),
}


@ops.numerics
def merge(layer: AdaptedLinear) -> np.ndarray:
    """Fold the adapter into a dense weight: W + alpha * A @ B. Pure."""
    if not layer.mode.has_adapter:
        raise ModeError(f"merge requires an adapter mode, layer is {layer.mode.value}")
    return _merged(layer)

